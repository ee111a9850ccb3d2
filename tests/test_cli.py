"""Tests for config parsing and the command-line surface."""
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfclab import cli
from hfclab import gradcheck as GC
from hfclab.config import (
    CifarBlock, ConfigError, StreamBlock, SyntheticBlock, config_to_dict, parse_config,
)
from hfclab.continual import TrainerConfig
from hfclab.losses import LossConfig
from hfclab.model import ModelConfig


def minimal_config(**overrides):
    cfg = {
        "schema_version": 1,
        "dataset": {
            "type": "synthetic",
            "classes": 4,
            "samples_per_class": 4,
            "test_samples_per_class": 2,
            "side": 8,
        },
        "stream": {"tasks": 2},
        "model": {"embed_dim": 8, "heads": 2, "msa_blocks": 1, "tsa_blocks": 1},
        "trainer": {"epochs_per_task": 1, "batch_size": 4, "memory_capacity": 8},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# config schema


def test_parse_minimal_config():
    cfg = parse_config(minimal_config())
    assert cfg.dataset_type == "synthetic"
    assert cfg.stream.tasks == 2
    assert cfg.trainer.epochs_per_task == 1
    assert cfg.trainer.loss.relation_target == "renormalized"


def test_unknown_key_rejected_with_path():
    bad = minimal_config()
    bad["trainer"]["lr"] = 0.1
    with pytest.raises(ConfigError, match=r"\$\.trainer\.lr"):
        parse_config(bad)


def test_unknown_top_level_key_rejected():
    bad = minimal_config()
    bad["extra"] = {}
    with pytest.raises(ConfigError, match=r"\$\.extra"):
        parse_config(bad)


def test_missing_required_key_names_path():
    bad = minimal_config()
    del bad["dataset"]["classes"]
    with pytest.raises(ConfigError, match=r"\$\.dataset\.classes"):
        parse_config(bad)


def test_wrong_type_rejected():
    bad = minimal_config()
    bad["trainer"]["batch_size"] = "many"
    with pytest.raises(ConfigError, match=r"\$\.trainer\.batch_size"):
        parse_config(bad)


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(minimal_config(schema_version=9))


def test_indivisible_patch_side_rejected():
    bad = minimal_config()
    bad["dataset"]["side"] = 10
    with pytest.raises(ConfigError, match=r"\$\.dataset\.side"):
        parse_config(bad)


def test_config_roundtrips_through_echo():
    cfg = parse_config(minimal_config())
    echoed = parse_config(config_to_dict(cfg))
    assert echoed == cfg


def test_cifar_block_parses():
    cfg = parse_config({
        "schema_version": 1,
        "dataset": {"type": "cifar100", "train_path": "/x/train.bin",
                    "test_path": "/x/test.bin", "horizontal_flip": True},
        "stream": {"tasks": 5},
    })
    assert cfg.cifar.horizontal_flip
    assert parse_config(config_to_dict(cfg)) == cfg


# every key the schema knows, per block (None: the root), for the fuzzer
SCHEMA_KEYS = {
    None: ("schema_version", "dataset", "stream", "model", "trainer", "losses"),
    "dataset": ("type",) + tuple(f.name for block in (SyntheticBlock, CifarBlock)
                                 for f in dataclasses.fields(block)),
    "stream": tuple(f.name for f in dataclasses.fields(StreamBlock)),
    "model": tuple(f.name for f in dataclasses.fields(ModelConfig)),
    "trainer": tuple(f.name for f in dataclasses.fields(TrainerConfig)),
    "losses": tuple(f.name for f in dataclasses.fields(LossConfig)),
}
# json.loads yields any of these; NaN, +-Infinity and huge integers included
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-3, 40)
                | st.floats() | st.text(max_size=6)
                | st.sampled_from(["synthetic", "cifar100", "fixed_total", "per_class",
                                   "feature_cls", "literal", "teacher_student"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


@st.composite
def fuzzed_configs(draw):
    """Mostly a valid synthetic or CIFAR config with one to three schema keys
    (now and then an unknown key) set to random JSON values or deleted;
    sometimes a random JSON value as the whole config."""
    if draw(st.integers(0, 7)) == 0:
        return draw(json_values)
    cfg = minimal_config()
    if draw(st.booleans()):
        cfg["dataset"] = {"type": "cifar100", "train_path": "a.bin", "test_path": "b.bin",
                          "horizontal_flip": True}
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(list(SCHEMA_KEYS)))
        target = cfg if block is None else cfg.setdefault(block, {})
        if not isinstance(target, dict):  # an earlier mutation replaced the block
            continue
        unknown = draw(st.integers(0, 7)) == 0
        key = draw(st.text(max_size=6) if unknown else st.sampled_from(SCHEMA_KEYS[block]))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return cfg


@settings(max_examples=400)
@given(raw=fuzzed_configs())
def test_fuzzed_configs_parse_or_raise_config_error(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert parse_config(config_to_dict(cfg)) == cfg


# ---------------------------------------------------------------------------
# train command


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_train_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_train_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def write_deeply_nested_json(path):
    """Valid JSON nested deeper than json.loads can recurse."""
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return path


def test_train_deeply_nested_config_exits_2_naming_the_file(tmp_path, capsys):
    path = write_deeply_nested_json(tmp_path / "config.json")
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config {path} is not readable UTF-8 JSON" in capsys.readouterr().err


def test_train_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(minimal_config()).encode("utf-16-le"))
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert str(path) in capsys.readouterr().err


def test_train_bad_field_exits_2_with_path(tmp_path, capsys):
    bad = minimal_config()
    bad["stream"]["base_fraction"] = 0.3
    code = cli.main(["train", "--config", str(write_config(tmp_path, bad)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "base_fraction" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value, path", [
    ("model", "heads", 0, "$.model.heads"),
    ("model", "patch_side", 0, "$.model.patch_side"),
    ("model", "embed_dim", 0, "$.model.embed_dim"),
    ("model", "mlp_ratio", 0, "$.model.mlp_ratio"),
    ("dataset", "channels", 0, "$.dataset.channels"),
    ("model", "msa_blocks", -1, "$.model.msa_blocks"),
    ("trainer", "memory_capacity", -1, "$.trainer.memory_capacity"),
    ("trainer", "per_class_quota", -1, "$.trainer.per_class_quota"),
    ("trainer", "epochs_per_task", 0, "$.trainer.epochs_per_task"),
    ("trainer", "alpha1", -0.5, "$.trainer:"),
    ("trainer", "learning_rate", -0.02, "$.trainer:"),
    ("trainer", "learning_rate", 0.0, "$.trainer:"),
    ("dataset", "class_noise", [0.05, -0.1, 0.05, 0.05], "$.dataset.class_noise:"),
    # json.loads reads NaN and +-Infinity tokens; json.dumps writes them
    ("trainer", "learning_rate", float("nan"), "$.trainer.learning_rate:"),
    ("trainer", "alpha2", float("inf"), "$.trainer.alpha2:"),
    ("trainer", "momentum", float("-inf"), "$.trainer.momentum:"),
    ("dataset", "class_noise", [float("nan"), 0.05, 0.05, 0.05], "$.dataset.class_noise:"),
    ("dataset", "class_noise", [0.05, float("inf"), 0.05, 0.05], "$.dataset.class_noise:"),
    ("model", "classifier_input", "pixels", "$.model:"),
    # with no TSA block the "feature" is the tiled task_embedding: no image reaches the head
    ("model", "tsa_blocks", 0, '$.model: tsa_blocks 0 needs classifier_input "feature_cls"'),
    ("losses", "kl_direction", "sideways", "$.losses:"),
])
def test_train_out_of_range_field_exits_2_with_path(tmp_path, capsys, block, key, value,
                                                    path):
    bad = minimal_config(**{block: {key: value}})
    code = cli.main(["train", "--config", str(write_config(tmp_path, bad)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("extents, named, size", [
    ({"classes": 100000, "samples_per_class": 100000, "side": 16},
     "$.dataset.classes 100000 x $.dataset.samples_per_class 100000", "18.6 TiB"),
    ({"side": 4000000}, "$.dataset.side 4000000^2", "1.82 PiB"),
    ({"test_samples_per_class": 10**12}, "$.dataset.test_samples_per_class 1000000000000",
     "1.82 PiB"),
    # past the largest array numpy can describe
    ({"side": 2**32}, "$.dataset.side 4294967296^2", "2.05e+03 EiB"),
])
def test_train_oversized_synthetic_dataset_exits_2_naming_its_extents(tmp_path, capsys,
                                                                       extents, named, size):
    config = write_config(tmp_path, minimal_config(dataset=extents))
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and f"need {size}" in err


@pytest.mark.parametrize("model, named, size", [
    ({"embed_dim": 2**40}, "'patch_proj' of shape (16, 1099511627776), set by channels, "
     "patch_side, embed_dim", "128 TiB"),
    ({"mlp_ratio": 2**40}, "'msa0.mlp.w1' of shape (8, 8796093022208), set by embed_dim, "
     "mlp_ratio", "512 TiB"),
    # past the largest array numpy can describe
    ({"mlp_ratio": 2**60}, "'msa0.mlp.w1' of shape (8, 9223372036854775808), set by "
     "embed_dim, mlp_ratio", "512 EiB"),
], ids=["embed_dim", "mlp_ratio", "mlp_ratio-past-maxsize"])
def test_train_oversized_model_exits_2_naming_the_parameter_and_its_fields(tmp_path, capsys,
                                                                           model, named, size):
    config = write_config(tmp_path, minimal_config(model=model))
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and f"needs {size} of float64" in err


def test_train_missing_cifar_files_exit_2(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "dataset": {"type": "cifar100", "train_path": str(tmp_path / "no-train.bin"),
                    "test_path": str(tmp_path / "no-test.bin")},
        "stream": {"tasks": 5},
    }
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_train_out_under_a_regular_file_exits_2_before_training(tmp_path, capsys,
                                                                 monkeypatch):
    from hfclab import continual as C

    trained = []
    monkeypatch.setattr(C.SgdOptimizer, "step", lambda self: trained.append(1))
    (tmp_path / "notadir").write_text("", encoding="utf-8")
    out = tmp_path / "notadir" / "run"
    code = cli.main(["train", "--config", str(write_config(tmp_path, minimal_config())),
                     "--out", str(out)])
    assert code == 2
    assert str(out) in capsys.readouterr().err
    assert not trained


def test_evaluation_failure_at_task_2_exits_1_naming_the_task(tmp_path, capsys, monkeypatch):
    """Evaluation runs inside the task's error scope."""
    from hfclab import metrics as MT

    predict_probs, evaluations = MT.predict_probs, []

    def second_evaluation_fails(model, images):
        evaluations.append(len(images))
        if len(evaluations) == 2:
            raise ValueError("injected evaluation failure")
        return predict_probs(model, images)

    monkeypatch.setattr(MT, "predict_probs", second_evaluation_fails)
    code = cli.main(["train", "--config", str(write_config(tmp_path, minimal_config())),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "task 2 failed: injected evaluation failure" in capsys.readouterr().err


def test_checkpoint_write_failure_at_task_2_exits_2_naming_out(tmp_path, capsys, monkeypatch):
    """A checkpoint is written outside the task's error scope, so an OSError
    from it is a report-writing failure, not a failed task."""
    from hfclab.model import IncrementalModel

    save_checkpoint = IncrementalModel.save_checkpoint

    def task_2_write_fails(self, path, task_index):
        if task_index == 2:
            raise OSError("injected write failure")
        save_checkpoint(self, path, task_index)

    monkeypatch.setattr(IncrementalModel, "save_checkpoint", task_2_write_fails)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(write_config(tmp_path, minimal_config())),
                     "--out", str(out)])
    assert code == 2
    assert f"cannot write reports to {out}: injected write failure" in capsys.readouterr().err
    assert (out / "task1.ckpt.json").is_file()


# metrics.csv of the demo config at seed 7. A refactor leaves it byte-identical;
# a declared rounding change updates it and says so in CHANGES.md.
DEMO_METRICS_SHA256 = "9282bee1d5b21be53544ea586fc1527a0f682fea3fb656ee5eedaa9370656d25"
# The checkpoints of that run: a refactor that moves the model's bytes but not
# the metrics still changes these.
DEMO_CHECKPOINT_SHA256 = {
    "task1.ckpt.json": "b481a19ff4dca548dd4bce0aaa8da9679371a1381663e6f3719e2d0912fdf7ec",
    "task2.ckpt.json": "a864e8a3d86450d5b6fca159cc3b8629962d08d5c32723596b4288d989f38154",
    "task3.ckpt.json": "bde130079a73f0e4d11b432081db4262cdabb4f7d2f89597a0fe4620d282adb4",
}


def test_demo_run_metrics_match_the_pinned_hash(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "synthetic-demo.json"
    assert cli.main(["train", "--config", str(config), "--seed", "7",
                     "--out", str(tmp_path / "out")]) == 0
    metrics = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == DEMO_METRICS_SHA256
    checkpoints = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted((tmp_path / "out").glob("*.ckpt.json"))}
    assert checkpoints == DEMO_CHECKPOINT_SHA256


# metrics.csv and last checkpoint of a CIFAR-shaped run with flips at seed 7:
# three classifier growths, each later task with a per-image flip teacher. The
# batched flip teacher of ROADMAP item 2 is a declared rounding change and
# updates both hashes.
CIFAR_FLIP_SHA256 = {
    "metrics.csv": "2ef528ef718daf156bf96a7ac51d36c7429cedd630346b7b5dd3d7d1561ddea3",
    "task4.ckpt.json": "f9e31a820137d7551673ab0b8b5206745bafa9fbc1a554ba0bee14bd39a01214",
}
# The same run at 3 epochs per task, where the teacher sees most (orientation,
# pool row) pairs more than once: taken from a teacher that predicted every
# image of every step.
CIFAR_FLIP_3_EPOCHS_SHA256 = {
    "metrics.csv": "31f7bbe2e525c06f0fd3f86e2736e847664160090cd1466b54d26e99ed68db4c",
    "task1.ckpt.json": "0127fe51de7bf2bd5ba35a99b0054077ca7cec793096aca8a033866368fffbf5",
    "task2.ckpt.json": "2be944fdf4fa0d0f5fa76b8a0a21a78c8108b33912b34f1aa416ed8bd52f8bfc",
    "task3.ckpt.json": "fb68a88715e9645304beb52086efd093ab3fc4a0a5f90209c17b5cf07302ca59",
    "task4.ckpt.json": "1dadb501253f3e18ac4b7ba0e1f46cf4ebedabcdb83d375e56260c3cd64ed4fb",
}
# pool of each later task: its 25 classes x 2 images, plus min(40 // seen, 2)
# exemplars of each of the `seen` earlier classes
CIFAR_FLIP_POOLS = [50 + seen * min(40 // seen, 2) for seen in (25, 50, 75)]


def cifar_flip_run(tmp_path, monkeypatch, epochs):
    """Run the 4-task CIFAR-layout flip config; return its output directory
    and, per task after the first, the images its teacher predicted."""
    from hfclab import data as D
    from hfclab.model import IncrementalModel

    rng = np.random.default_rng(13)
    for split, per_class in (("train", 2), ("test", 1)):
        fine = rng.permutation(np.repeat(np.arange(100), per_class)).astype(np.uint8)
        D.write_label_records(tmp_path / f"{split}.bin", fine // 5, fine,
                              rng.integers(0, 256, size=(len(fine), 3, 32, 32), dtype=np.uint8))
    config = write_config(tmp_path, {
        "schema_version": 1,
        "dataset": {"type": "cifar100", "train_path": str(tmp_path / "train.bin"),
                    "test_path": str(tmp_path / "test.bin"), "horizontal_flip": True},
        "stream": {"tasks": 4},
        "model": {"patch_side": 8, "embed_dim": 16, "heads": 2, "msa_blocks": 1},
        "trainer": {"memory_capacity": 40, "epochs_per_task": epochs},
    })
    predict, teachers, predicted = IncrementalModel.predict, [], []

    def recording_predict(self, image):
        if not teachers or teachers[-1] is not self:  # each task snapshots a new teacher
            teachers.append(self)
            predicted.append([])
        predicted[-1].append(image.tobytes())
        return predict(self, image)

    monkeypatch.setattr(IncrementalModel, "predict", recording_predict)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    return out, predicted


def test_cifar_flip_run_matches_the_pinned_hashes(tmp_path, monkeypatch):
    out, predicted = cifar_flip_run(tmp_path, monkeypatch, epochs=1)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in CIFAR_FLIP_SHA256} == CIFAR_FLIP_SHA256
    # one epoch draws every pool row once, so the teacher predicts each once
    assert [len(images) for images in predicted] == CIFAR_FLIP_POOLS


def test_flip_teacher_predicts_each_orientation_and_row_once_per_task(tmp_path, monkeypatch):
    out, predicted = cifar_flip_run(tmp_path, monkeypatch, epochs=3)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in CIFAR_FLIP_3_EPOCHS_SHA256} == CIFAR_FLIP_3_EPOCHS_SHA256
    # the pool images are distinct and none equals its own mirror image, so
    # a repeated image would be a repeated (orientation, pool row) pair
    assert len(predicted) == len(CIFAR_FLIP_POOLS)
    for images, pool in zip(predicted, CIFAR_FLIP_POOLS):
        assert len(set(images)) == len(images)
        assert pool < len(images) <= 2 * pool  # 3 epochs draw some rows both ways


def test_train_minimal_run_writes_reports(tmp_path):
    code = cli.main(["train", "--config", str(write_config(tmp_path, minimal_config())),
                     "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per task
    assert lines[0].startswith("task_index,seen_classes,top1_acc")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 5
    assert len(summary["tasks"]) == 2


def test_train_summary_config_echo_reparses(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    assert cli.main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert parse_config(summary["config"]) == parse_config(minimal_config())


def test_train_same_seed_is_bit_reproducible(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    for name in ("a", "b"):
        assert cli.main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / name), "--seed", "42"]) == 0
    assert ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("wall_clock_seconds")
    sb.pop("wall_clock_seconds")
    assert sa == sb


def test_train_different_seed_changes_results(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    for name, seed in (("a", "1"), ("b", "2")):
        assert cli.main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / name), "--seed", seed]) == 0
    assert ((tmp_path / "a" / "metrics.csv").read_bytes()
            != (tmp_path / "b" / "metrics.csv").read_bytes())


def test_keep_freed_memory_sets_both_malloc_thresholds_or_nothing(monkeypatch):
    calls = []

    class Glibc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Glibc())
    cli.keep_freed_memory()
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # no mallopt
    cli.keep_freed_memory()
    assert len(calls) == 2


def loaded_openblas_threads():
    """(getter, setter) of the thread count of the OpenBLAS this process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in map(ctypes.CDLL, paths):
        for setter in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, setter):
                return getattr(lib, setter.replace("_set_", "_get_")), getattr(lib, setter)
    return None


def test_main_runs_openblas_on_one_thread(tmp_path):
    threads = loaded_openblas_threads()
    if threads is None:
        pytest.skip("numpy has not loaded an OpenBLAS")
    get_threads, set_threads = threads
    set_threads(2)
    assert cli.main(["compare", "--runs", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "c.csv")]) == 1
    assert get_threads() == 1


def test_run_blas_on_one_thread_calls_a_distro_setter_or_nothing(monkeypatch):
    calls = []

    class DistroOpenBLAS:
        def openblas_set_num_threads(self, n):
            calls.append(n)

    maps = "7f00-7f80 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0\n"
    monkeypatch.setattr(cli, "open", lambda *a, **k: io.StringIO(maps), raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: DistroOpenBLAS())
    cli.run_blas_on_one_thread()
    assert calls == [1]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())  # no setter
    cli.run_blas_on_one_thread()
    monkeypatch.setattr(cli, "open", lambda *a, **k: io.StringIO(""), raising=False)
    cli.run_blas_on_one_thread()  # no OpenBLAS mapped
    assert calls == [1]


def test_cifar_metrics_do_not_depend_on_openblas_threads(tmp_path):
    """100 classes at 32x32x3 with flips: the eval and teacher products are
    large enough that a two-thread OpenBLAS splits them."""
    from hfclab import data as D

    rng = np.random.default_rng(3)
    for split in ("train", "test"):
        D.write_label_records(tmp_path / f"{split}.bin", np.zeros(100, np.uint8),
                              rng.permutation(100).astype(np.uint8),
                              rng.integers(0, 256, size=(100, 3, 32, 32), dtype=np.uint8))
    config = write_config(tmp_path, {
        "schema_version": 1,
        "dataset": {"type": "cifar100", "train_path": str(tmp_path / "train.bin"),
                    "test_path": str(tmp_path / "test.bin"), "horizontal_flip": True},
        "stream": {"tasks": 2},
        "trainer": {"memory_capacity": 100, "epochs_per_task": 1},
    })
    src = str(Path(cli.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "hfclab.cli", "train", "--config", str(config),
                        "--out", str(out), "--seed", "7"], env=env, check=True,
                       capture_output=True)
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# gradcheck command (op/block checks only here; the full sweep runs in
# the acceptance suite)


def test_gradcheck_ops_pass_loose_tolerance(monkeypatch, capsys):
    monkeypatch.setattr(GC, "_loss_cases", lambda: [])
    assert cli.main(["gradcheck", "--tolerance", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "op.matmul" in out and "ok" in out


def test_param_check_keeps_nan_error_of_a_later_parameter():
    from hfclab import autodiff as ad

    a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))

    def nan_gradient(t):
        def backward(g):
            t._accumulate(np.full_like(t.data, np.nan))

        return ad._result(t.data.copy(), (t,), backward, "nan_gradient")

    def loss_fn():
        return ad.add(ad.sum_(a), ad.sum_(nan_gradient(b)))

    assert np.isnan(GC.max_param_rel_err(loss_fn, {"a": a, "b": b}))


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_gradcheck_rejects_bad_tolerance_before_any_check(tolerance, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all_checks", lambda: pytest.fail("a check ran"))
    assert cli.main(["gradcheck", "--tolerance", tolerance]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_gradcheck_names_corrupted_op(monkeypatch, capsys):
    from hfclab import autodiff as ad

    true_gelu = ad.gelu

    def corrupted_gelu(a):
        out = true_gelu(a)
        inner = out._backward

        def wrong(g):
            inner(g * 1.5)

        out._backward = wrong
        return out

    monkeypatch.setattr(ad, "gelu", corrupted_gelu)
    monkeypatch.setattr(GC, "_loss_cases", lambda: [])
    assert cli.main(["gradcheck", "--tolerance", "1e-4"]) == 1
    captured = capsys.readouterr()
    assert "op.gelu" in captured.err


# ---------------------------------------------------------------------------
# compare command


def fake_run(tmp_path, name, acc, fh):
    run_dir = tmp_path / name
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(json.dumps({
        "avg_incremental_acc": acc, "fh": fh, "tasks": []}), encoding="utf-8")
    return run_dir


def test_compare_single_run(tmp_path, capsys):
    run = fake_run(tmp_path, "solo", 0.75, 0.01)
    out_csv = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--runs", str(run), "--out", str(out_csv)]) == 0
    assert "solo" in capsys.readouterr().out
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "variant,avg_acc,fh"
    assert rows[1].split(",") == ["solo", repr(0.75), repr(0.01)]


def test_compare_sorts_by_accuracy_descending(tmp_path, capsys):
    worse = fake_run(tmp_path, "worse", 0.6, 0.02)
    better = fake_run(tmp_path, "better", 0.9, 0.005)
    out_csv = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--runs", str(worse), str(better),
                     "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[1].startswith("better,") and rows[2].startswith("worse,")


def test_compare_values_match_summaries_exactly(tmp_path):
    acc, fh = 0.123456789012345, 0.000987654321
    run = fake_run(tmp_path, "r", acc, fh)
    out_csv = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--runs", str(run), "--out", str(out_csv)]) == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert float(row[1]) == acc and float(row[2]) == fh


def test_compare_unreadable_run_exits_1(tmp_path, capsys):
    assert cli.main(["compare", "--runs", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "cmp.csv")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("summary", [
    [0.5, 0.01],
    {"avg_incremental_acc": None, "fh": 0.01},
    {"avg_incremental_acc": "0.9", "fh": 0.01},
    {"avg_incremental_acc": True, "fh": 0.01},
    {"avg_incremental_acc": 0.5, "fh": float("nan")},  # json.dumps writes NaN, json.loads reads it
    {"avg_incremental_acc": float("inf"), "fh": 0.01},
], ids=["list", "null-accuracy", "string-accuracy", "bool-accuracy", "nan-fh",
        "infinite-accuracy"])
def test_compare_malformed_summary_exits_1(tmp_path, capsys, summary):
    run = tmp_path / "run"
    run.mkdir()
    (run / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert cli.main(["compare", "--runs", str(run), "--out", str(tmp_path / "cmp.csv")]) == 1
    assert f"cannot read run {run}" in capsys.readouterr().err


def test_compare_deeply_nested_summary_exits_1(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    write_deeply_nested_json(run / "summary.json")
    assert cli.main(["compare", "--runs", str(run), "--out", str(tmp_path / "cmp.csv")]) == 1
    assert f"cannot read run {run}" in capsys.readouterr().err


def test_compare_out_cut_short_by_a_full_disk_leaves_the_earlier_file(tmp_path, capsys):
    runs = [str(fake_run(tmp_path, name, acc, 0.01))
            for name, acc in (("first", 0.75), ("second", 0.5))]
    out_csv = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--runs", *runs, "--out", str(out_csv)]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    # a full disk: no file this process writes may grow past 16 bytes
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, hard))
    try:
        code = cli.main(["compare", "--runs", *runs, "--out", str(out_csv)])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert code == 2
    assert f"cannot write comparison to {out_csv}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
            if path.is_file()} == before


def test_compare_out_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys):
    run = fake_run(tmp_path, "solo", 0.75, 0.01)
    out_csv = tmp_path / "missing" / "cmp.csv"
    assert cli.main(["compare", "--runs", str(run), "--out", str(out_csv)]) == 2
    assert str(out_csv) in capsys.readouterr().err

"""The benchmark's outside-in tracer still finds every name it wraps."""
import importlib.util
import inspect
import json
from pathlib import Path

from hfclab import autodiff as ad
from hfclab import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_training_run_and_restores_everything(tmp_path):
    tr = load_tracer_module()
    config = {
        "schema_version": 1,
        "dataset": {"type": "synthetic", "classes": 4, "samples_per_class": 4,
                    "test_samples_per_class": 2, "side": 8},
        "stream": {"tasks": 2},
        "model": {"embed_dim": 8, "heads": 2, "msa_blocks": 1, "tsa_blocks": 1},
        "trainer": {"epochs_per_task": 1, "batch_size": 4, "memory_capacity": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    tracer = tr.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        code = cli.main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / "out"), "--seed", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tr.layer_metrics(tracer)
    assert metrics["continual.train_steps"] > 0
    assert metrics["losses.gradient_stats.calls_per_step"] == 1.0
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} left wrapped"


def test_every_recording_op_is_timed():
    # the rule of test_autodiff's every-op-has-a-gradcheck-case test
    recording = [name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == ad.__name__ and "_result(" in inspect.getsource(fn)]
    assert "matmul" in recording and "attention" in recording
    untimed = [name for name in recording if name not in load_tracer_module().OPS]
    assert not untimed, f"autodiff ops the benchmark tracer does not time: {untimed}"

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds; tolerances are
pinned here and nowhere else. Criterion 5 is the desk-scale directional
experiment and dominates the runtime of the suite.
"""
import json
import math
import time

import numpy as np

from hfclab import cli
from hfclab import continual as C
from hfclab import data as D
from hfclab import losses as LS
from hfclab import metrics as MT
from hfclab.autodiff import Tensor, softmax
from hfclab.gradcheck import run_all_checks
from hfclab.model import IncrementalModel, ModelConfig
from hfclab.seeding import stream_rng, stream_seed

DEFAULT_MODEL = ModelConfig()  # 16x16x1 images, patch 4, 32-wide, 4 heads, 2+1 blocks


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle(capsys):
    start = time.monotonic()
    results = run_all_checks()
    elapsed = time.monotonic() - start
    failures = {r.name: r.rel_err for r in results if r.rel_err >= 1e-4}
    assert not failures, f"gradient checks over tolerance: {failures}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s (limit 60s)"
    with capsys.disabled():
        report(1, f"all {len(results)} finite-difference checks < 1e-4 in {elapsed:.1f}s")
    assert cli.main(["gradcheck", "--tolerance", "1e-4"]) == 0


# ---------------------------------------------------------------------------
# 2. loss identities


def _batch(rows, labels, ctt, k_old, k_new, old=None):
    return LS.BatchView(Tensor(np.asarray(rows, dtype=np.float64)), np.asarray(labels),
                        np.asarray(ctt), k_old, k_new,
                        None if old is None else np.asarray(old, dtype=np.float64))


def test_criterion_2_loss_identities(capsys):
    # (a) single task, homogeneous gradient magnitudes: reweighted CE == CE
    rows = np.zeros((3, 4))
    rows[:] = 0.2 / 3
    for i, y in enumerate((0, 1, 2)):
        rows[i, y] = 0.8
    batch = _batch(rows, [0, 1, 2], [0, 0, 0, 0], 0, 4)
    stats = LS.gradient_stats(batch)
    gap = abs(LS.gfc_loss(batch, stats).item() - LS.ce_loss(batch).item())
    assert gap < 1e-12

    # (b) per-task mean of compensation weights is 1
    rng = np.random.default_rng(77)
    logits = rng.normal(size=(60, 5))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    big = _batch(probs, rng.integers(0, 5, size=60), [0, 0, 1, 1, 2], 3, 2)
    big_stats = LS.gradient_stats(big)
    weights = LS._balanced_weights(big, big_stats, np.arange(60)).data
    tasks = big.sample_tasks()
    worst_w = max(abs(weights[tasks == t].mean() - 1.0) for t in np.unique(tasks))
    assert worst_w < 1e-10

    # (c) count-weighted per-task mean of distillation class weights is 1
    classes, counts = np.unique(big.labels, return_counts=True)
    class_weights = LS._balanced_weights(big, big_stats, big.labels).data
    class_tasks = big.class_to_task[classes]
    worst_c = 0.0
    for task in np.unique(class_tasks):
        mine = class_tasks == task
        mean = np.dot(class_weights[mine], counts[mine]) / counts[mine].sum()
        worst_c = max(worst_c, abs(mean - 1.0))
    assert worst_c < 1e-10

    # (d) distillation loss vanishes when prototypes equal their targets
    o = rng.uniform(0.1, 1.0, size=(60, 3))
    with_old = _batch(probs, big.labels, [0, 0, 1, 1, 2], 3, 2, o / o.sum(1, keepdims=True))
    targets = LS.relation_groundtruth(with_old)
    protos, refs = LS.relation_prototypes(with_old, targets)
    matched = Tensor(refs)
    zero = abs(LS.grd_loss(with_old, LS.gradient_stats(with_old), matched, refs).item())
    assert zero < 1e-12
    with capsys.disabled():
        report(2, f"identities hold (a gap {gap:.1e}, b {worst_w:.1e}, c {worst_c:.1e}, "
                  f"d {zero:.1e})")


# ---------------------------------------------------------------------------
# 3. statistic oracles


def test_criterion_3_statistic_oracles(capsys):
    rng = np.random.default_rng(123)
    b, k_old, k_new = 200, 6, 4
    width = k_old + k_new
    logits = rng.normal(size=(b, width))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, width, size=b)
    ctt = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    batch = _batch(probs, labels, ctt, k_old, k_new)
    stats = LS.gradient_stats(batch)
    measured_gamma = LS.per_sample_gradient(batch)

    # brute-force transcription from raw predictions, explicit loops only
    exponent = k_old / (k_old + k_new)
    gamma = [probs[i, labels[i]] - 1.0 for i in range(b)]
    sharp = [math.log(abs(g) ** exponent + 1.0) for g in gamma]
    task_mean = {}
    for task in set(ctt[labels].tolist()):
        members = [i for i in range(b) if ctt[labels[i]] == task]
        task_mean[task] = sum(sharp[i] for i in members) / len(members)
    sample_weights = LS._balanced_weights(batch, stats, np.arange(b)).data
    worst = 0.0
    for i in range(b):
        worst = max(worst, abs(measured_gamma[i] - gamma[i]), abs(stats[i] - sharp[i]),
                    abs(sample_weights[i] - sharp[i] / task_mean[ctt[labels[i]]]))
    class_weights = LS._balanced_weights(batch, stats, labels).data
    for r, cls in enumerate(sorted(set(labels.tolist()))):
        members = [i for i in range(b) if labels[i] == cls]
        cls_mean = sum(sharp[i] for i in members) / len(members)
        worst = max(worst, abs(class_weights[r] - cls_mean / task_mean[ctt[cls]]))
    assert worst < 1e-10

    # forgetting heterogeneity against its own brute-force pass
    checkpoints = []
    for t in range(3):
        n = 150 + 10 * t
        grads = rng.uniform(size=n)
        tasks = rng.integers(0, t + 2, size=n)
        checkpoints.append((grads, tasks))
    total = 0.0
    for grads, tasks in checkpoints:
        acc = 0.0
        for i in range(len(grads)):
            same = [grads[j] for j in range(len(grads)) if tasks[j] == tasks[i]]
            acc += (grads[i] - sum(same) / len(same)) ** 2
        total += acc / len(grads)
    fh_expected = total / len(checkpoints)
    fh_gap = abs(MT.forgetting_heterogeneity(checkpoints) - fh_expected)
    assert fh_gap < 1e-10
    with capsys.disabled():
        report(3, f"statistics match brute force (worst {worst:.1e}, fh gap {fh_gap:.1e})")


# ---------------------------------------------------------------------------
# 4. protocol invariants


def test_criterion_4_protocol_invariants(capsys, monkeypatch, tmp_path):
    update_log = []
    true_update = C.ExemplarMemory.update

    def spying_update(self, per_class_features, n_seen_classes):
        true_update(self, per_class_features, n_seen_classes)
        update_log.append((n_seen_classes, {c: list(v) for c, v in self.store.items()}))

    monkeypatch.setattr(C.ExemplarMemory, "update", spying_update)

    block = D.SyntheticBlock(classes=6, samples_per_class=30, test_samples_per_class=4,
                             side=8, class_noise=(0.05,) * 6, seed=3)
    train, test = D.generate_synthetic(block), D.generate_synthetic(block, "test")
    stream = D.split_tasks(D.StreamBlock(3, 0.0, class_order_seed=11), 6, 3)

    # label spaces are pairwise disjoint and cover every class once
    spaces = stream.label_spaces()
    flat = [c for space in spaces for c in space]
    assert len(flat) == len(set(flat)) == 6

    model_cfg = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8,
                            heads=2, msa_blocks=1, tsa_blocks=1)
    model = IncrementalModel(model_cfg, 2, stream_rng(3, "init"))
    capacity = 40
    cfg = C.TrainerConfig(alpha1=1.0, alpha2=0.1, learning_rate=0.02, momentum=0.5,
                          epochs_per_task=2, batch_size=8, memory_capacity=capacity)
    C.run_stream(stream, train, test, model, cfg, master_seed=3, out_dir=tmp_path)

    # memory quota floor(capacity / seen classes) with prefix truncation
    assert len(update_log) == 3
    previous = None
    for n_seen, store in update_log:
        quota = capacity // n_seen
        for cls, kept in store.items():
            assert len(kept) == min(quota, 30)
        if previous is not None:
            for cls, kept in previous.items():
                assert store[cls] == kept[:len(store[cls])]
        assert sum(len(v) for v in store.values()) <= capacity
        previous = store

    # classifier expansion preserves old logits exactly
    probe = IncrementalModel(model_cfg, 3, stream_rng(9, "init"))
    image = train.images[0]
    before = probe.forward_batch(image[np.newaxis])[0].data[0].copy()
    probe.expand_classifier(4, stream_rng(9, "expand"))
    after = probe.forward_batch(image[np.newaxis])[0].data[0]
    assert np.array_equal(before, after[:3])

    # task-shared embedding hands off unchanged through snapshot + expansion
    e_end = probe.params["task_embedding"].data.copy()
    frozen = probe.snapshot()
    probe.expand_classifier(2, stream_rng(9, "expand2"))
    assert np.array_equal(probe.params["task_embedding"].data, e_end)
    assert np.array_equal(frozen.params["task_embedding"].data, e_end)

    # frozen old model is immutable under further training of the live model
    frozen_before = frozen.predict(image)
    for p in probe.parameters().values():
        p.data += 0.01
    assert np.array_equal(frozen.predict(image), frozen_before)
    with capsys.disabled():
        report(4, "stream, memory, expansion, handoff, and snapshot invariants hold")


# ---------------------------------------------------------------------------
# 5. directional experiment


def _experiment_run(seed: int, uniform_weights: bool) -> C.TaskRecord:
    cli.run_blas_on_one_thread()  # as `hfclab train` runs, whichever test ran first
    noise = tuple(np.linspace(0.02, 0.3, 10))
    block = D.SyntheticBlock(10, 60, 20, side=16, class_noise=noise,
                             seed=stream_seed(seed, "dataset"))
    train, test = D.generate_synthetic(block, "train"), D.generate_synthetic(block, "test")
    stream = D.split_tasks(D.StreamBlock(5, 0.0), 10, seed)
    model = IncrementalModel(DEFAULT_MODEL, stream.task_sizes[0], stream_rng(seed, "init"))
    cfg = C.TrainerConfig(memory_capacity=100,
                          alpha2=0.0 if uniform_weights else C.TrainerConfig().alpha2,
                          uniform_weights=uniform_weights)
    return C.run_stream(stream, train, test, model, cfg, master_seed=seed)[-1]


def test_criterion_5_directional_experiment(capsys):
    start = time.monotonic()
    baseline, full = [], []
    for seed in (1, 2, 3):
        baseline.append(_experiment_run(seed, uniform_weights=True))
        full.append(_experiment_run(seed, uniform_weights=False))
    elapsed = time.monotonic() - start

    med_base_acc = float(np.median([r.avg_incremental for r in baseline]))
    med_full_acc = float(np.median([r.avg_incremental for r in full]))
    med_base_fh = float(np.median([r.fh for r in baseline]))
    med_full_fh = float(np.median([r.fh for r in full]))

    assert med_full_acc >= med_base_acc + 0.02, (
        f"accuracy gap too small: {med_full_acc:.4f} vs {med_base_acc:.4f}")
    assert med_full_fh < med_base_fh, (
        f"forgetting heterogeneity not reduced: {med_full_fh:.5f} vs {med_base_fh:.5f}")
    assert elapsed < 600.0, f"experiment took {elapsed:.0f}s (limit 600s)"
    with capsys.disabled():
        report(5, f"median acc {med_full_acc:.4f} vs baseline {med_base_acc:.4f} "
                  f"(+{(med_full_acc - med_base_acc) * 100:.1f}pp), "
                  f"fh {med_full_fh:.5f} < {med_base_fh:.5f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. determinism


def test_criterion_6_determinism(capsys, tmp_path):
    config = {
        "schema_version": 1,
        "dataset": {"type": "synthetic", "classes": 4, "samples_per_class": 6,
                    "test_samples_per_class": 3, "side": 8},
        "stream": {"tasks": 2},
        "model": {"embed_dim": 8, "heads": 2, "msa_blocks": 1, "tsa_blocks": 1},
        "trainer": {"epochs_per_task": 2, "batch_size": 4, "memory_capacity": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for name in ("a", "b"):
        assert cli.main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / name), "--seed", "31"]) == 0
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    with capsys.disabled():
        report(6, f"metrics.csv byte-identical across runs ({len(bytes_a)} bytes)")


# ---------------------------------------------------------------------------
# 7. format fidelity


def test_criterion_7_format_fidelity(capsys, tmp_path):
    rng = np.random.default_rng(17)
    n = 50
    records = np.empty((n, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 20, size=n)
    records[:, 1] = rng.integers(0, 100, size=n)
    records[:, 2:] = rng.integers(0, 256, size=(n, 3072))
    blob = records.tobytes()
    src = tmp_path / "fixture.bin"
    src.write_bytes(blob)
    coarse, fine, pixels = D.read_label_records(src)
    assert len(fine) == 50
    dst = tmp_path / "rewritten.bin"
    D.write_label_records(dst, coarse, fine, pixels)
    assert dst.read_bytes() == blob

    equal = D.split_tasks(D.StreamBlock(5, 0.0, class_order_seed=2), 100, 0)
    assert equal.task_sizes == [20] * 5
    half = D.split_tasks(D.StreamBlock(5, 0.5, class_order_seed=2), 100, 0)
    assert half.task_sizes == [50, 10, 10, 10, 10, 10]
    with capsys.disabled():
        report(7, "50-record round-trip byte-exact; split shapes 5x20 and 50+5x10")

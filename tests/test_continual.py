"""Tests for the task stream, exemplar memory, optimizer, and training loop."""
import errno
import gc
import json
import resource

import numpy as np
import pytest

from hfclab import autodiff as ad
from hfclab import continual as C
from hfclab import data as D
from hfclab import losses as LS
from hfclab import metrics as MT
from hfclab.autodiff import Tensor
from hfclab.model import IncrementalModel, ModelConfig, load_checkpoint

TINY_MODEL = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8,
                         heads=2, msa_blocks=1, tsa_blocks=1)


def tiny_run_setup(n_classes=4, tasks=2, samples=3, seed=11, noise=0.05):
    block = D.SyntheticBlock(classes=n_classes, samples_per_class=samples,
                             test_samples_per_class=2, side=8,
                             class_noise=(noise,) * n_classes, seed=seed)
    train, test = D.generate_synthetic(block), D.generate_synthetic(block, "test")
    stream = D.split_tasks(D.StreamBlock(tasks, 0.0, class_order_seed=seed), n_classes, seed)
    model = IncrementalModel(TINY_MODEL, stream.task_sizes[0], np.random.default_rng(seed))
    return stream, train, test, model


# ---------------------------------------------------------------------------
# task stream


def test_stream_label_spaces_disjoint_and_contiguous():
    stream = D.TaskStream(class_order=[3, 1, 0, 2], task_sizes=[2, 2])
    spaces = stream.label_spaces()
    assert spaces == [[0, 1], [2, 3]]
    assert stream.n_seen(0) == 2 and stream.n_seen(1) == 4
    np.testing.assert_array_equal(stream.class_to_task(), [0, 0, 1, 1])


def test_stream_remap_inverts_class_order():
    stream = D.TaskStream(class_order=[3, 1, 0, 2], task_sizes=[2, 2])
    remap = stream.remap()
    # original label 3 -> incremental 0, etc.
    np.testing.assert_array_equal(remap, [2, 1, 3, 0])
    for inc, orig in enumerate(stream.class_order):
        assert remap[orig] == inc


def test_stream_rejects_bad_partitions():
    with pytest.raises(ValueError, match="task sizes must cover the class order exactly"):
        D.TaskStream(class_order=[0, 1, 2], task_sizes=[2, 2])
    with pytest.raises(ValueError, match="class order must permute"):
        D.TaskStream(class_order=[0, 1, 1], task_sizes=[3])
    with pytest.raises(ValueError, match="class order must permute"):
        D.TaskStream(class_order=[0, 2, 3], task_sizes=[3])


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_zero_learning_rate_is_identity():
    p = np.array([1.0, -2.0])
    v = np.zeros(2)
    C.sgd_step(p, np.array([5.0, 5.0]), v, lr=0.0, momentum=0.9)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_sgd_single_quadratic_step():
    # f(p) = p^2/2, grad = p; from p=1 with lr 0.1 -> 0.9
    p = np.array([1.0])
    v = np.zeros(1)
    C.sgd_step(p, p.copy(), v, lr=0.1, momentum=0.0)
    np.testing.assert_allclose(p, [0.9])


def test_sgd_momentum_matches_scalar_oracle():
    lr, mu = 0.1, 0.9
    p = np.array([1.0])
    v = np.zeros(1)
    # independent scalar recurrence for f(p) = p^2/2
    p_ref, v_ref = 1.0, 0.0
    for _ in range(5):
        grad = p.copy()
        C.sgd_step(p, grad, v, lr, mu)
        v_ref = mu * v_ref + p_ref
        p_ref = p_ref - lr * v_ref
    np.testing.assert_allclose(p, [p_ref], rtol=1e-15)
    np.testing.assert_allclose(v, [v_ref], rtol=1e-15)


def test_optimizer_rejects_non_finite_gradient():
    t = Tensor(np.ones(2), requires_grad=True)
    t._accumulate(np.array([np.nan, 0.0]))
    opt = C.SgdOptimizer({"p": t}, lr=0.1, momentum=0.0)
    with pytest.raises(FloatingPointError, match="p"):
        opt.step()


def test_optimizer_follows_classifier_growth_and_restarts_only_its_velocity():
    _, _, _, model = tiny_run_setup()
    params = model.parameters()
    opt = C.SgdOptimizer(params, lr=0.1, momentum=0.9)
    for velocity in opt.velocities.values():
        velocity[:] = 5.0
    kept = {name: velocity.copy() for name, velocity in opt.velocities.items()}
    images = np.random.default_rng(1).uniform(size=(2, 1, 8, 8))
    ad.backward(ad.sum_(model.forward_batch(images)[0]))
    model.expand_classifier(2, np.random.default_rng(0))
    grown = model.parameters()
    assert grown.keys() == params.keys()
    assert all(grown[name] is params[name] for name in params)
    assert grown["classifier.weight"]._grad is None and grown["classifier.bias"]._grad is None
    opt.zero_grad()
    ad.backward(ad.sum_(model.forward_batch(images)[0]))
    opt.step()
    for name, p in grown.items():
        assert opt.velocities[name].shape == p.shape, name
        if name.startswith("classifier."):  # grew: restarts from zero, so v = 0.9 * 0 + g
            np.testing.assert_array_equal(opt.velocities[name], p.grad)
        else:
            np.testing.assert_array_equal(opt.velocities[name], 0.9 * kept[name] + p.grad)


# ---------------------------------------------------------------------------
# herding


def test_herding_picks_point_nearest_mean_first():
    features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    order = C.herding_select(features, 1)
    # brute force: distance of each single pick to the mean
    mean = features.mean(axis=0)
    dists = np.linalg.norm(features - mean, axis=1)
    assert order == [int(np.argmin(dists))] == [2]


def test_herding_full_quota_returns_priority_order():
    rng = np.random.default_rng(13)
    features = rng.normal(size=(6, 3))
    order = C.herding_select(features, 6)
    assert sorted(order) == list(range(6))
    # prefix property: smaller quotas are prefixes of larger ones
    assert C.herding_select(features, 3) == order[:3]


def test_herding_ties_break_by_lowest_index():
    features = np.ones((4, 2))
    assert C.herding_select(features, 4) == [0, 1, 2, 3]


def test_herding_matches_bruteforce_greedy():
    rng = np.random.default_rng(17)
    features = rng.normal(size=(8, 2))
    mean = features.mean(axis=0)
    chosen, total = [], np.zeros(2)
    available = list(range(8))
    for j in range(1, 5):
        best, best_dist = None, np.inf
        for i in available:
            dist = np.linalg.norm(mean - (total + features[i]) / j)
            if dist < best_dist - 1e-15:
                best, best_dist = i, dist
        chosen.append(best)
        total += features[best]
        available.remove(best)
    assert C.herding_select(features, 4) == chosen


def test_herding_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        C.herding_select(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError):
        C.herding_select(np.zeros((2, 2)), 3)


# ---------------------------------------------------------------------------
# exemplar memory


def fake_features(classes, per_class, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for cls in classes:
        indices = np.arange(cls * 1000, cls * 1000 + per_class)
        out[cls] = (indices, rng.normal(size=(per_class, dim)))
    return out


def test_memory_quota_after_first_update():
    memory = C.ExemplarMemory(C.TrainerConfig(memory_capacity=2000))
    memory.update(fake_features(range(20), 150), n_seen_classes=20)
    assert all(len(memory.store[c]) == 100 for c in range(20))
    assert sum(map(len, memory.store.values())) == 2000


def test_memory_requota_truncates_to_prefix():
    memory = C.ExemplarMemory(C.TrainerConfig(memory_capacity=2000))
    memory.update(fake_features(range(20), 150), n_seen_classes=20)
    before = {c: list(memory.store[c]) for c in range(20)}
    memory.update(fake_features(range(20, 40), 150, seed=1), n_seen_classes=40)
    for c in range(20):
        assert memory.store[c] == before[c][:50]
    assert all(len(memory.store[c]) == 50 for c in range(40))
    assert sum(map(len, memory.store.values())) <= 2000


def test_memory_caps_at_class_size():
    memory = C.ExemplarMemory(C.TrainerConfig(memory_capacity=100))
    memory.update(fake_features(range(2), 10), n_seen_classes=2)
    assert all(len(memory.store[c]) == 10 for c in range(2))
    assert sum(map(len, memory.store.values())) <= 100


def test_memory_per_class_mode_keeps_old_lists():
    memory = C.ExemplarMemory(C.TrainerConfig(memory_capacity=10**9, memory_mode="per_class",
                                                per_class_quota=20))
    memory.update(fake_features(range(3), 30), n_seen_classes=3)
    before = {c: list(memory.store[c]) for c in range(3)}
    memory.update(fake_features(range(3, 6), 30, seed=2), n_seen_classes=6)
    for c in range(3):
        assert memory.store[c] == before[c]
    assert all(len(memory.store[c]) == 20 for c in range(6))


@pytest.mark.parametrize("field, value, message", [
    ("epochs_per_task", 0, "epochs_per_task must be at least 1, got 0"),
    ("batch_size", 0, "batch_size must be at least 1, got 0"),
    ("memory_capacity", -1, "memory_capacity must be at least 0, got -1"),
    ("per_class_quota", -1, "per_class_quota must be at least 0, got -1"),
    ("memory_mode", "lru", "memory_mode must be fixed_total or per_class, got 'lru'"),
])
def test_trainer_config_refuses_its_own_out_of_range_values(field, value, message):
    with pytest.raises(ValueError) as refused:
        C.TrainerConfig(**{field: value})
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# batch loss dispatch


def make_batch(with_old=False):
    rng = np.random.default_rng(23)
    logits = rng.normal(size=(6, 4))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    old = None
    if with_old:
        o = rng.uniform(0.2, 1.0, size=(6, 2))
        old = o / o.sum(axis=1, keepdims=True)
    return LS.BatchView(Tensor(probs), np.array([0, 1, 2, 3, 0, 2]),
                        np.array([0, 0, 1, 1]), 2, 2, old)


def test_first_task_loss_is_plain_ce():
    batch = make_batch()
    cfg = C.TrainerConfig(alpha1=3.0, alpha2=5.0)
    loss = C._batch_loss(batch, task_index=0, config=cfg)
    assert abs(loss.item() - LS.ce_loss(batch).item()) < 1e-12


def test_uniform_weights_reproduce_replay_ce_baseline():
    batch = make_batch()
    cfg = C.TrainerConfig(alpha1=1.0, alpha2=0.0, uniform_weights=True)
    loss = C._batch_loss(batch, task_index=1, config=cfg)
    assert abs(loss.item() - LS.ce_loss(batch).item()) < 1e-12


def test_later_task_loss_combines_both_terms():
    batch = make_batch(with_old=True)
    cfg = C.TrainerConfig(alpha1=1.0, alpha2=1.0)
    loss = C._batch_loss(batch, task_index=1, config=cfg)
    stats = LS.gradient_stats(batch)
    expected = LS.objective(batch, stats, 1.0, 1.0).item()
    assert abs(loss.item() - expected) < 1e-12



@pytest.mark.parametrize("uniform_weights, alpha2, calls", [
    (False, 1.0, 1), (False, 0.0, 1), (True, 1.0, 1), (True, 0.0, 0)])
def test_later_task_loss_measures_gradient_stats_at_most_once(monkeypatch, uniform_weights,
                                                              alpha2, calls):
    measured = []
    real = LS.gradient_stats
    monkeypatch.setattr(LS, "gradient_stats", lambda batch: measured.append(1) or real(batch))
    cfg = C.TrainerConfig(alpha2=alpha2, uniform_weights=uniform_weights)
    C._batch_loss(make_batch(with_old=True), task_index=1, config=cfg)
    assert len(measured) == calls

# ---------------------------------------------------------------------------
# full stream runs (tiny configs)


def fast_config(**overrides):
    base = dict(alpha1=1.0, alpha2=1.0, learning_rate=0.05, momentum=0.9,
                epochs_per_task=2, batch_size=4, memory_capacity=8)
    base.update(overrides)
    return C.TrainerConfig(**base)


def test_single_task_stream_never_touches_reweighted_losses(monkeypatch):
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=1)

    def boom(*args, **kwargs):
        raise AssertionError("reweighted loss invoked in a single-task run")

    monkeypatch.setattr(LS, "gfc_loss", boom)
    monkeypatch.setattr(LS, "grd_loss", boom)
    records = C.run_stream(stream, train, test, model, fast_config(), master_seed=3)
    assert len(records) == 1


def test_classifier_grows_with_tasks(tmp_path):
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
    C.run_stream(stream, train, test, model, fast_config(), master_seed=3,
                 out_dir=tmp_path)
    assert model.n_classes == 4
    ckpt1 = json.loads((tmp_path / "task1.ckpt.json").read_text())
    assert ckpt1["n_classes"] == 2  # saved before expansion


def test_memory_invariant_holds_after_every_task(monkeypatch):
    # fixed_total: capacity 12 over 2, 4 and 6 seen classes of 5 samples gives
    # quotas 6 (capped at the class size), 3 and 2; old lists are only cut short
    update_log = []
    true_update = C.ExemplarMemory.update

    def spying_update(self, per_class_features, n_seen_classes):
        true_update(self, per_class_features, n_seen_classes)
        update_log.append((n_seen_classes, {c: list(v) for c, v in self.store.items()}))

    monkeypatch.setattr(C.ExemplarMemory, "update", spying_update)
    stream, train, test, model = tiny_run_setup(n_classes=6, tasks=3, samples=5)
    cfg = fast_config(memory_capacity=12)
    C.run_stream(stream, train, test, model, cfg, master_seed=5)

    assert [n_seen for n_seen, _ in update_log] == [2, 4, 6]
    previous = {}
    for n_seen, store in update_log:
        assert sorted(store) == list(range(n_seen))
        assert all(len(kept) == min(12 // n_seen, 5) for kept in store.values())
        assert all(kept == previous[cls][:len(kept)] for cls, kept in store.items()
                   if cls in previous)
        previous = store


@pytest.mark.parametrize("quota", [3, 7])  # below and above the 5 samples of a class
def test_per_class_memory_keeps_its_quota_and_every_old_list_in_training(monkeypatch, quota):
    update_log = []
    true_update = C.ExemplarMemory.update

    def spying_update(self, per_class_features, n_seen_classes):
        true_update(self, per_class_features, n_seen_classes)
        update_log.append((n_seen_classes, {c: list(v) for c, v in self.store.items()}))

    monkeypatch.setattr(C.ExemplarMemory, "update", spying_update)
    stream, train, test, model = tiny_run_setup(n_classes=6, tasks=3, samples=5)
    cfg = fast_config(memory_mode="per_class", per_class_quota=quota, memory_capacity=1)
    C.run_stream(stream, train, test, model, cfg, master_seed=5)

    assert [n_seen for n_seen, _ in update_log] == [2, 4, 6]
    previous = {}
    for n_seen, store in update_log:
        assert sorted(store) == list(range(n_seen))
        assert all(len(kept) == min(quota, 5) for kept in store.values())
        assert all(store[cls] == kept for cls, kept in previous.items())
        previous = store


def test_run_reports_offending_task_on_failure(monkeypatch):
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)

    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(LS, "gradient_stats", boom)  # reached only from task 2 on
    with pytest.raises(RuntimeError, match="task 2"):
        C.run_stream(stream, train, test, model, fast_config(), master_seed=7)


def test_identical_seeds_give_byte_identical_metrics(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
        C.run_stream(stream, train, test, model, fast_config(), master_seed=9,
                     out_dir=out)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("wall_clock_seconds")
    sb.pop("wall_clock_seconds")
    assert sa == sb


def test_task_embedding_survives_expansion_and_snapshot():
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
    e0 = model.params["task_embedding"].data.copy()
    frozen = model.snapshot()
    model.expand_classifier(2, np.random.default_rng(0))
    np.testing.assert_array_equal(model.params["task_embedding"].data, e0)
    np.testing.assert_array_equal(frozen.params["task_embedding"].data, e0)


def test_snapshot_is_bit_identical_to_live_model():
    _, _, _, model = tiny_run_setup()
    frozen = model.snapshot()
    live = model.parameters()
    for name, tensor in frozen.parameters().items():
        assert np.array_equal(tensor.data, live[name].data)


def test_flip_augmentation_changes_training_but_stays_seeded(tmp_path):
    outs = {}
    for name, flip in (("plain", False), ("flip_a", True), ("flip_b", True)):
        stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
        cfg = fast_config(flip_augment=flip)
        C.run_stream(stream, train, test, model, cfg, master_seed=13,
                     out_dir=tmp_path / name)
        outs[name] = (tmp_path / name / "metrics.csv").read_bytes()
    assert outs["flip_a"] == outs["flip_b"]  # still a pure function of the seed
    assert outs["plain"] != outs["flip_a"]  # flipping consumed rng and changed batches


def test_unflipped_teacher_predicts_each_later_task_pool_once_in_bulk(monkeypatch):
    """Without flips the frozen teacher's rows come from one predict_outputs call
    per later task, over the whole pool, and never from the per-image predict."""
    teacher_rows = []
    predict_outputs = MT.predict_outputs

    def recording_predict_outputs(model, images):
        if model.frozen:
            teacher_rows.append(len(images))
        return predict_outputs(model, images)

    def per_image(*args, **kwargs):
        raise AssertionError("IncrementalModel.predict called in a run without flips")

    monkeypatch.setattr(MT, "predict_outputs", recording_predict_outputs)
    monkeypatch.setattr(IncrementalModel, "predict", per_image)
    stream, train, test, model = tiny_run_setup(n_classes=6, tasks=3)
    C.run_stream(stream, train, test, model, fast_config(), master_seed=3)
    # pool = the task's 2 classes x 3 samples plus memory: 2 classes x min(8 // 2, 3),
    # then 4 classes x 8 // 4
    assert teacher_rows == [6 + 6, 6 + 8]


def test_flip_run_leaves_the_training_images_unchanged():
    """Batches are flipped in place in their own gathered copy, never in the dataset."""
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
    before = train.images.tobytes()
    C.run_stream(stream, train, test, model, fast_config(flip_augment=True), master_seed=13)
    assert train.images.tobytes() == before


@pytest.mark.parametrize("flip", [False, True])
def test_no_training_graph_outlives_its_step(monkeypatch, flip):
    """Each training forward pass and each evaluation starts with no graph alive.

    Cyclic collection is off during the run, so a graph counts as released
    only when reference counting freed it.
    """
    live = {"train_forward": [], "evaluation": []}

    def graph_nodes():
        return sum(1 for obj in gc.get_objects()
                   if isinstance(obj, Tensor) and obj._backward is not None)

    forward_batch, predict_probs = IncrementalModel.forward_batch, MT.predict_probs

    def counting_forward(self, images):
        if ad._grad_enabled and not self.frozen:
            live["train_forward"].append(graph_nodes())
        return forward_batch(self, images)

    def counting_predict_probs(model, images):
        live["evaluation"].append(graph_nodes())
        return predict_probs(model, images)

    monkeypatch.setattr(IncrementalModel, "forward_batch", counting_forward)
    monkeypatch.setattr(MT, "predict_probs", counting_predict_probs)
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
    gc.collect()
    gc.disable()
    try:
        C.run_stream(stream, train, test, model, fast_config(flip_augment=flip),
                     master_seed=3)
    finally:
        gc.enable()
    assert len(live["train_forward"]) > 2 and len(live["evaluation"]) == 2
    assert live == {"train_forward": [0] * len(live["train_forward"]), "evaluation": [0, 0]}


# ---------------------------------------------------------------------------
# report files


@pytest.mark.parametrize("name", ["task2.ckpt.json", "metrics.csv", "summary.json"])
def test_a_report_write_cut_short_by_a_full_disk_leaves_the_earlier_file(tmp_path, name):
    stream, train, test, model = tiny_run_setup(n_classes=4, tasks=2)
    records = C.run_stream(stream, train, test, model, fast_config(), master_seed=9,
                           out_dir=tmp_path)
    write = {
        "task2.ckpt.json": lambda: model.save_checkpoint(tmp_path / name, 2),
        "metrics.csv": lambda: C.write_metrics_csv(tmp_path / name, records),
        "summary.json": lambda: C.write_summary_json(tmp_path / name, records, fast_config(),
                                                     9, 0.0),
    }[name]
    write()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    # a full disk: no file this process writes may grow past 64 bytes
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))
    try:
        with pytest.raises(OSError):
            write()
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    write()
    assert (tmp_path / name).read_bytes() == before[name]


def test_a_checkpoint_whose_serialisation_fails_leaves_the_earlier_checkpoint(
        tmp_path, monkeypatch):
    model = IncrementalModel(TINY_MODEL, 3, np.random.default_rng(0))
    path = tmp_path / "task1.ckpt.json"
    model.save_checkpoint(path, 1)
    before, dumps, calls = path.read_bytes(), json.dumps, []

    def fifth_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:  # the head and the first parameter are written by then
            raise OSError(errno.ENOSPC, "No space left on device")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", fifth_call_fails)
    with pytest.raises(OSError, match="No space left"):
        model.save_checkpoint(path, 2)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == before
    assert load_checkpoint(path)[1] == 1

"""Tests for gradient statistics, reweighted cross-entropy, and relation distillation.

Derived expectations are computed by direct scalar/numpy transcriptions of the
statistic definitions inside each test, independent of the library code paths.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfclab import autodiff as ad
from hfclab import losses as L
from hfclab.autodiff import Tensor


def batch_from_probs(rows, labels, class_to_task, k_old, k_new, old_probs=None):
    return L.BatchView(
        probs=Tensor(np.asarray(rows, dtype=np.float64)),
        labels=np.asarray(labels),
        class_to_task=np.asarray(class_to_task),
        k_old=k_old,
        k_new=k_new,
        old_probs=None if old_probs is None else np.asarray(old_probs, dtype=np.float64),
    )


def probs_for_abs_gradients(abs_gammas, labels, width):
    """Rows with p_true = 1 - |g| and the remainder spread over other classes."""
    rows = np.zeros((len(labels), width))
    for i, (g, y) in enumerate(zip(abs_gammas, labels)):
        rows[i] = g / (width - 1)
        rows[i, y] = 1.0 - g
    return rows


def random_batch(rng, b=12, k_old=3, k_new=2, with_old=False):
    width = k_old + k_new
    logits = rng.normal(size=(b, width))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    rows = e / e.sum(axis=1, keepdims=True)
    labels = rng.integers(0, width, size=b)
    class_to_task = np.array([0, 0, 1, 2, 2])[:width]
    old = None
    if with_old:
        o = rng.uniform(0.1, 1.0, size=(b, k_old))
        old = o / o.sum(axis=1, keepdims=True)
    return batch_from_probs(rows, labels, class_to_task, k_old, k_new, old)


# ---------------------------------------------------------------------------
# per-sample statistic


def test_per_sample_gradient_perfect_prediction():
    batch = batch_from_probs([[1.0, 0.0]], [0], [0, 0], 0, 2)
    np.testing.assert_array_equal(L.per_sample_gradient(batch), [0.0])


def test_per_sample_gradient_uniform():
    batch = batch_from_probs([np.full(4, 0.25)], [2], [0, 0, 0, 0], 0, 4)
    np.testing.assert_allclose(L.per_sample_gradient(batch), [-0.75])


def test_per_sample_gradient_direct_value():
    batch = batch_from_probs([[0.9, 0.1]], [0], [0, 0], 0, 2)
    np.testing.assert_allclose(L.per_sample_gradient(batch), [-0.1], atol=1e-15)


def test_batchview_rejects_bad_rows():
    with pytest.raises(ValueError):
        batch_from_probs([[0.5, 0.4]], [0], [0, 0], 0, 2)
    with pytest.raises(ValueError):
        batch_from_probs([[0.5, 0.5]], [3], [0, 0], 0, 2)


# ---------------------------------------------------------------------------
# sharpened statistic


def test_sharpened_zero_gradient_is_zero():
    assert L.sharpened_stat(0.0, 3, 2) == 0.0


def test_sharpened_unit_gradient_is_log_two():
    assert abs(L.sharpened_stat(1.0, 5, 3) - math.log(2.0)) < 1e-15
    assert abs(math.log(2.0) - 0.693147) < 1e-6


def test_sharpened_quarter_equal_split():
    # |g|=0.25, equal old/new: log(0.25^0.5 + 1) = log(1.5)
    value = L.sharpened_stat(0.25, 4, 4)
    assert abs(value - math.log(1.5)) < 1e-15
    assert abs(value - 0.405465) < 1e-6


def test_sharpened_handles_zero_exponent():
    # fresh stream: exponent 0, so 0^0 counts as 1 and the stat is log 2
    assert abs(L.sharpened_stat(0.0, 0, 4) - math.log(2.0)) < 1e-15


def test_sharpening_monotone_in_gradient_and_exponent():
    grid = np.linspace(0.01, 0.99, 25)
    values = L.sharpened_stat(grid, 3, 1)
    assert np.all(np.diff(values) > 0)
    # for fixed |g| in (0,1) the stat grows as the old-class share shrinks
    for g in (0.1, 0.5, 0.9):
        shares = [(9, 1), (3, 1), (1, 1), (1, 3)]  # decreasing k_old/(k_old+k_new)
        seq = [L.sharpened_stat(g, ko, kn) for ko, kn in shares]
        assert np.all(np.diff(seq) > 0)


# ---------------------------------------------------------------------------
# batch statistics


def sample_weights(batch, stats):
    return L._balanced_weights(batch, stats, np.arange(batch.batch_size)).data


def class_weights(batch, stats):
    return L._balanced_weights(batch, stats, batch.labels).data


def test_stats_two_sample_task_mean():
    rows = probs_for_abs_gradients([0.75, 0.25], [0, 1], 4)
    batch = batch_from_probs(rows, [0, 1], [0, 0, 1, 1], 2, 2)
    stats = L.gradient_stats(batch)
    sharp = [math.log(math.sqrt(0.75) + 1), math.log(math.sqrt(0.25) + 1)]
    np.testing.assert_allclose(L.per_sample_gradient(batch), [-0.75, -0.25], rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats, sharp, rtol=0, atol=1e-12)
    expected = [s / (sum(sharp) / 2) for s in sharp]
    np.testing.assert_allclose(sample_weights(batch, stats), expected, rtol=0, atol=1e-12)


def test_stats_single_sample_task():
    rows = probs_for_abs_gradients([0.4], [2], 4)
    batch = batch_from_probs(rows, [2], [0, 0, 1, 1], 2, 2)
    stats = L.gradient_stats(batch)
    assert abs(L.per_sample_gradient(batch)[0] + 0.4) < 1e-12
    assert abs(stats[0] - L.sharpened_stat(0.4, 2, 2)) < 1e-15
    # one weight each for the one sample and the one class; absent tasks get none
    np.testing.assert_array_equal(sample_weights(batch, stats), [1.0])
    np.testing.assert_array_equal(class_weights(batch, stats), [1.0])


def test_stats_class_task_partition():
    """Per task, the GFC sample weights and the count-weighted GRD class
    weights both add up to the task's sample count."""
    rng = np.random.default_rng(5)
    batch = random_batch(rng, b=40)
    stats = L.gradient_stats(batch)
    tasks = batch.sample_tasks()
    classes, counts = np.unique(batch.labels, return_counts=True)
    class_side = class_weights(batch, stats) * counts
    sample_side = sample_weights(batch, stats)
    for task in np.unique(tasks):
        n = np.sum(tasks == task)
        assert abs(sample_side[tasks == task].sum() - n) < 1e-10
        assert abs(class_side[batch.class_to_task[classes] == task].sum() - n) < 1e-10


def test_stats_count_weighted_class_means_recover_task_means():
    rng = np.random.default_rng(6)
    batch = random_batch(rng, b=60)
    stats = L.gradient_stats(batch)
    tasks = batch.sample_tasks()
    for task in np.unique(tasks):
        task_value = stats[tasks == task].mean()
        classes, counts = np.unique(batch.labels[tasks == task], return_counts=True)
        class_means = [stats[batch.labels == c].mean() for c in classes]
        assert abs(np.dot(counts, class_means) / counts.sum() - task_value) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_per_sample_gradient_always_in_unit_interval(seed):
    batch = random_batch(np.random.default_rng(seed), b=8)
    gamma = L.per_sample_gradient(batch)
    assert np.all(gamma >= -1.0) and np.all(gamma <= 0.0)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_zero_for_perfect_predictions():
    batch = batch_from_probs(np.eye(3), [0, 1, 2], [0, 0, 0], 0, 3)
    assert L.ce_loss(batch).item() == 0.0


def test_ce_uniform_is_log_c():
    rows = np.full((2, 5), 0.2)
    batch = batch_from_probs(rows, [1, 4], [0] * 5, 0, 5)
    assert abs(L.ce_loss(batch).item() - math.log(5.0)) < 1e-12


def test_ce_gradient_wrt_logits():
    rng = np.random.default_rng(9)
    labels = np.array([0, 2, 1])

    def f(t):
        probs = ad.softmax(t, axis=1)
        return L.ce_loss(L.BatchView(probs, labels, np.array([0, 0, 1]), 2, 1))

    assert ad.finite_diff_check(f, rng.normal(size=(3, 3))) < 1e-6


# ---------------------------------------------------------------------------
# gradient-balanced compensation


def test_gfc_equals_ce_for_homogeneous_single_task():
    rows = probs_for_abs_gradients([0.3, 0.3, 0.3], [0, 1, 0], 4)
    batch = batch_from_probs(rows, [0, 1, 0], [0, 0, 0, 0], 0, 4)
    stats = L.gradient_stats(batch)
    assert abs(L.gfc_loss(batch, stats).item() - L.ce_loss(batch).item()) < 1e-12


def test_gfc_weights_average_one_within_each_task():
    rng = np.random.default_rng(11)
    batch = random_batch(rng, b=50)
    stats = L.gradient_stats(batch)
    weights = L._balanced_weights(batch, stats, np.arange(batch.batch_size)).data
    tasks = batch.sample_tasks()
    for task in np.unique(tasks):
        assert abs(weights[tasks == task].mean() - 1.0) < 1e-10


def test_gfc_two_task_example_weights_are_unit():
    # task 0: |g| = {0.9, 0.9}; task 1: |g| = {0.1}; equal old/new class counts
    rows = probs_for_abs_gradients([0.9, 0.9, 0.1], [0, 1, 2], 4)
    batch = batch_from_probs(rows, [0, 1, 2], [0, 0, 1, 1], 2, 2)
    stats = L.gradient_stats(batch)
    weights = L._balanced_weights(batch, stats, np.arange(3)).data
    np.testing.assert_allclose(weights, np.ones(3), atol=1e-12)
    # with every weight at 1, the loss must reduce to plain cross-entropy
    assert abs(L.gfc_loss(batch, stats).item() - L.ce_loss(batch).item()) < 1e-12


def test_gfc_zero_denominator_falls_back_to_unit_weight():
    rows = np.zeros((2, 4))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0  # both perfectly predicted -> task mean is 0
    batch = batch_from_probs(rows, [0, 1], [0, 0, 1, 1], 2, 2)
    stats = L.gradient_stats(batch)
    np.testing.assert_array_equal(L._balanced_weights(batch, stats, np.arange(2)).data,
                                  [1.0, 1.0])
    assert L.gfc_loss(batch, stats).item() == 0.0


@pytest.mark.parametrize("stop_gradient", [True, False])
@pytest.mark.parametrize("loss", ["gfc", "grd"])
def test_mixed_batch_perfect_task_gets_unit_weights(loss, stop_gradient):
    # task 0 (classes 0, 1) is predicted perfectly, task 1 (classes 2, 3) is not
    labels = np.array([0, 1, 2, 3, 3])
    rows = probs_for_abs_gradients([0.0, 0.0, 0.2, 0.5, 0.7], labels, 4)
    batch = batch_from_probs(rows, labels, [0, 0, 1, 1], 2, 2)
    stats = L.gradient_stats(batch)
    groups = np.arange(5) if loss == "gfc" else labels
    weights = L._balanced_weights(batch, stats, groups, stop_gradient).data

    # sharpening exponent k_old / (k_old + k_new) = 2 / 4
    sharp = np.log((1.0 - rows[np.arange(5), labels]) ** 0.5 + 1.0)
    ratios = [sharp[groups == g].mean() / sharp[2:].mean() for g in np.unique(groups)[2:]]
    np.testing.assert_array_equal(weights[:2], [1.0, 1.0])
    np.testing.assert_allclose(weights[2:], ratios, rtol=1e-12, atol=0)


def test_gfc_matches_bruteforce_transcription():
    rng = np.random.default_rng(13)
    batch = random_batch(rng, b=30)
    stats = L.gradient_stats(batch)

    # independent transcription working purely on the raw arrays
    p = batch.probs.data
    labels = batch.labels
    tasks = batch.class_to_task[labels]
    exponent = batch.k_old / (batch.k_old + batch.k_new)
    abs_g = np.abs(p[np.arange(len(labels)), labels] - 1.0)
    sharp = np.log(abs_g**exponent + 1.0)
    expected = 0.0
    for i in range(len(labels)):
        task_vals = sharp[tasks == tasks[i]]
        w = sharp[i] / task_vals.mean() if task_vals.mean() != 0 else 1.0
        expected += w * -math.log(max(p[i, labels[i]], 1e-12))
    expected /= len(labels)

    assert abs(L.gfc_loss(batch, stats).item() - expected) < 1e-10


def test_gfc_gradient_wrt_logits_weights_frozen():
    rng = np.random.default_rng(15)
    logits0 = rng.normal(size=(4, 4))
    labels = np.array([0, 1, 2, 3])
    ctt = np.array([0, 0, 1, 1])

    def make_batch(t):
        return L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2)

    stats0 = L.gradient_stats(make_batch(Tensor(logits0)))

    def f(t):
        return L.gfc_loss(make_batch(t), stats0, stop_gradient=True)

    assert ad.finite_diff_check(f, logits0) < 1e-5


def test_gfc_differentiable_weights_gradient_consistent():
    rng = np.random.default_rng(16)
    logits0 = rng.normal(size=(4, 4))
    labels = np.array([0, 1, 2, 3])
    ctt = np.array([0, 0, 1, 1])

    def f(t):
        batch = L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2)
        return L.gfc_loss(batch, L.gradient_stats(batch), stop_gradient=False)

    assert ad.finite_diff_check(f, logits0) < 1e-5


def test_gfc_stop_gradient_changes_the_gradient():
    rng = np.random.default_rng(17)
    logits0 = rng.normal(size=(4, 4))
    labels = np.array([0, 1, 2, 3])
    ctt = np.array([0, 0, 1, 1])

    def grad_of(stop):
        t = Tensor(logits0.copy(), requires_grad=True)
        batch = L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2)
        ad.backward(L.gfc_loss(batch, L.gradient_stats(batch), stop_gradient=stop))
        return t.grad

    assert not np.allclose(grad_of(True), grad_of(False))


@pytest.mark.parametrize("stop_gradient", [True, False])
def test_per_sample_groups_match_the_averaging_product_bit_for_bit(stop_gradient):
    # groups None reads each sample's own statistic; arange(b) averages through
    # an identity product. Weights and their gradients must be the same bits.
    rng = np.random.default_rng(29)
    logits0 = rng.normal(size=(9, 5))
    labels = rng.integers(0, 5, size=9)

    def weights_and_grad(groups):
        t = Tensor(logits0.copy(), requires_grad=True)
        batch = L.BatchView(ad.softmax(t, axis=1), labels, np.array([0, 0, 1, 2, 2]), 3, 2)
        weights = L._balanced_weights(batch, L.gradient_stats(batch), groups, stop_gradient)
        ad.backward(ad.sum_(ad.mul(weights, L.per_sample_ce(batch))))
        return weights.data, t.grad

    for got, want in zip(weights_and_grad(None), weights_and_grad(np.arange(9))):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# relation targets and prototypes


def test_relation_target_old_class_row():
    rows = [[0.2, 0.3, 0.5]]
    old = [[0.7, 0.3]]
    batch = batch_from_probs(rows, [0], [0, 0, 1], 2, 1, old)
    target = L.relation_groundtruth(batch)
    np.testing.assert_allclose(target, [[0.7, 0.3, 0.0]], atol=1e-15)


def test_relation_target_new_class_row_halved():
    rows = [[0.2, 0.3, 0.5]]
    old = [[0.6, 0.4]]
    batch = batch_from_probs(rows, [2], [0, 0, 1], 2, 1, old)
    np.testing.assert_allclose(L.relation_groundtruth(batch), [[0.3, 0.2, 0.5]], atol=1e-15)
    literal = L.relation_groundtruth(batch, mode="literal")
    np.testing.assert_allclose(literal, [[0.6, 0.4, 1.0]], atol=1e-15)
    assert abs(literal.sum() - 2.0) < 1e-15


def test_relation_target_requires_old_model():
    batch = batch_from_probs([[0.5, 0.5]], [0], [0, 0], 0, 2)
    with pytest.raises(ValueError):
        L.relation_groundtruth(batch)


def test_prototypes_average_rows_of_each_class():
    rows = [[0.6, 0.4], [0.4, 0.6], [0.1, 0.9]]
    old = [[1.0], [1.0], [1.0]]
    batch = batch_from_probs(rows, [0, 0, 1], [0, 1], 1, 1, old)
    targets = L.relation_groundtruth(batch)
    protos, refs = L.relation_prototypes(batch, targets)
    # one row per class present, in ascending class order
    np.testing.assert_allclose(protos.data, [[0.5, 0.5], [0.1, 0.9]], atol=1e-15)
    np.testing.assert_allclose(protos.data.sum(axis=1), [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(refs.sum(axis=1), [1.0, 1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# relation distillation loss


def test_kl_matches_hand_value():
    p = Tensor(np.array([[0.5, 0.5]]))
    q = np.array([0.9, 0.1])
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert abs(L.kl_divergence(p, q).item() - expected) < 1e-12
    assert abs(expected - 0.510826) < 1e-6
    assert L.kl_divergence(Tensor(np.array([[0.9, 0.1]])), q).item() < 1e-12


def test_kl_teacher_student_direction():
    p = Tensor(np.array([[0.5, 0.5]]))
    q = np.array([0.9, 0.1])
    expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    assert abs(L.kl_divergence(p, q, "teacher_student").item() - expected) < 1e-12


def test_grd_zero_when_prototypes_match_targets():
    rng = np.random.default_rng(19)
    batch = random_batch(rng, b=10, with_old=True)
    stats = L.gradient_stats(batch)
    targets = L.relation_groundtruth(batch)
    protos, refs = L.relation_prototypes(batch, targets)
    assert abs(L.grd_loss(batch, stats, Tensor(refs), refs).item()) < 1e-12


def test_grd_single_class_weight_is_one():
    rows = [[0.3, 0.2, 0.5], [0.25, 0.25, 0.5]]
    old = [[0.5, 0.5], [0.5, 0.5]]
    batch = batch_from_probs(rows, [2, 2], [0, 0, 1], 2, 1, old)
    stats = L.gradient_stats(batch)
    targets = L.relation_groundtruth(batch)
    protos, refs = L.relation_prototypes(batch, targets)
    loss = L.grd_loss(batch, stats, protos, refs)
    expected = L.kl_divergence(protos, refs).item() / 3.0
    assert abs(loss.item() - expected) < 1e-12


def test_grd_class_weights_count_average_to_one_per_task():
    rng = np.random.default_rng(21)
    batch = random_batch(rng, b=60, with_old=True)
    weights = class_weights(batch, L.gradient_stats(batch))
    classes, counts = np.unique(batch.labels, return_counts=True)
    class_tasks = batch.class_to_task[classes]
    for task in np.unique(class_tasks):
        mine = class_tasks == task
        weighted_mean = np.dot(weights[mine], counts[mine]) / counts[mine].sum()
        assert abs(weighted_mean - 1.0) < 1e-10


def test_grd_gradient_wrt_logits():
    rng = np.random.default_rng(23)
    logits0 = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 3, 3])
    ctt = np.array([0, 0, 1, 1])
    o = rng.uniform(0.2, 1.0, size=(5, 2))
    old = o / o.sum(axis=1, keepdims=True)

    def make_batch(t):
        return L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2, old)

    batch0 = make_batch(Tensor(logits0))
    stats0 = L.gradient_stats(batch0)
    targets0 = L.relation_groundtruth(batch0)

    def f(t):
        batch = make_batch(t)
        protos, refs = L.relation_prototypes(batch, targets0)
        return L.grd_loss(batch, stats0, protos, refs)

    assert ad.finite_diff_check(f, logits0) < 1e-5


def test_grd_differentiable_weights_gradient_consistent():
    rng = np.random.default_rng(24)
    logits0 = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 3, 3])
    ctt = np.array([0, 0, 1, 1])
    o = rng.uniform(0.2, 1.0, size=(5, 2))
    old = o / o.sum(axis=1, keepdims=True)
    cfg = L.LossConfig(weight_stop_gradient=False)

    def f(t):
        batch = L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2, old)
        stats = L.gradient_stats(batch)
        targets = L.relation_groundtruth(batch)
        protos, refs = L.relation_prototypes(batch, targets)
        return L.grd_loss(batch, stats, protos, refs, cfg)

    assert ad.finite_diff_check(f, logits0) < 1e-5


def many_class_batch(seed, b=40, k_old=6, k_new=5):
    """A batch of 11 seen classes over three tasks in which 8 or more are present."""
    rng = np.random.default_rng(seed)
    width = k_old + k_new
    logits = rng.normal(scale=1.5, size=(b, width))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    labels = rng.integers(0, width, size=b)
    assert len(np.unique(labels)) >= 8
    o = rng.uniform(0.05, 1.0, size=(b, k_old))
    return batch_from_probs(e / e.sum(axis=1, keepdims=True), labels,
                            [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2], k_old, k_new,
                            o / o.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("relation_target", ["renormalized", "literal"])
@pytest.mark.parametrize("kl_direction", ["student_teacher", "teacher_student"])
@pytest.mark.parametrize("stop_gradient", [True, False])
def test_grd_matches_bruteforce_transcription(stop_gradient, kl_direction, relation_target):
    batch = many_class_batch(29)
    cfg = L.LossConfig(relation_target, kl_direction, stop_gradient)
    stats = L.gradient_stats(batch)
    targets = L.relation_groundtruth(batch, relation_target)
    protos, refs = L.relation_prototypes(batch, targets)

    # independent scalar transcription working purely on the raw arrays
    p = batch.probs.data
    labels = batch.labels
    tasks = batch.class_to_task[labels]
    k_old, width = batch.k_old, batch.k_old + batch.k_new
    old = batch.old_probs
    exponent = k_old / width
    sharp = [math.log(abs(p[i, labels[i]] - 1.0) ** exponent + 1.0) for i in range(len(labels))]
    expected = 0.0
    for cls in sorted(set(labels.tolist())):
        members = [i for i in range(len(labels)) if labels[i] == cls]
        task_members = [i for i in range(len(labels)) if tasks[i] == tasks[members[0]]]
        cls_mean = sum(sharp[i] for i in members) / len(members)
        task_mean = sum(sharp[i] for i in task_members) / len(task_members)
        weight = cls_mean / task_mean if task_mean != 0 else 1.0
        divergence = 0.0
        for j in range(width):
            proto = sum(p[i, j] for i in members) / len(members)
            ref = 0.0
            for i in members:
                row = [old[i, c] if c < k_old else float(c == labels[i]) for c in range(width)]
                total = sum(row) if relation_target == "renormalized" else 1.0
                ref += row[j] / total
            ref /= len(members)
            log_ref = math.log(max(ref, 1e-12))
            if kl_direction == "student_teacher":
                divergence += proto * (math.log(max(proto, 1e-12)) - log_ref)
            else:
                divergence += ref * (log_ref - math.log(max(proto, 1e-12)))
        expected += weight * divergence
    expected /= width

    loss = L.grd_loss(batch, stats, protos, refs, cfg).item()
    assert abs(loss - expected) < 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_weight_modes_give_the_same_forward_value(seed):
    batch = many_class_batch(seed)
    stats = L.gradient_stats(batch)
    protos, refs = L.relation_prototypes(batch, L.relation_groundtruth(batch))
    gfc = [L.gfc_loss(batch, stats, stop).item() for stop in (True, False)]
    grd = [L.grd_loss(batch, stats, protos, refs, L.LossConfig(weight_stop_gradient=stop)).item()
           for stop in (True, False)]
    assert gfc[0] == gfc[1]
    assert grd[0] == grd[1]


# ---------------------------------------------------------------------------
# combined objective


def test_objective_reduces_to_weighted_gfc():
    rng = np.random.default_rng(25)
    batch = random_batch(rng, b=10, with_old=True)
    stats = L.gradient_stats(batch)
    combined = L.objective(batch, stats, alpha1=2.5, alpha2=0.0)
    assert abs(combined.item() - 2.5 * L.gfc_loss(batch, stats).item()) < 1e-12


def test_objective_zero_coefficients_give_zero_gradient():
    rng = np.random.default_rng(26)
    logits = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 4, 0])
    batch = L.BatchView(ad.softmax(logits, axis=1), labels, np.array([0, 0, 1, 2, 2]), 3, 2)
    stats = L.gradient_stats(batch)
    loss = L.objective(batch, stats, alpha1=0.0, alpha2=0.0)
    assert loss.item() == 0.0
    ad.backward(loss)
    np.testing.assert_array_equal(logits.grad, np.zeros((6, 5)))


@pytest.mark.parametrize("stop_gradient", [True, False])
def test_backward_stores_no_gradient_on_constants(stop_gradient):
    """Masks, teacher targets and averaging matrices receive no gradient."""
    rng = np.random.default_rng(28)
    logits = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    o = rng.uniform(0.1, 1.0, size=(8, 3))
    batch = L.BatchView(ad.softmax(logits, axis=1), rng.integers(0, 5, size=8),
                        np.array([0, 0, 1, 1, 2]), 3, 2, o / o.sum(axis=1, keepdims=True))
    loss = L.objective(batch, None, 1.0, 0.5, L.LossConfig(weight_stop_gradient=stop_gradient))
    # collected first: backward releases the parents that lead to them
    constants = [node for node in ad._topo_order(loss) if not node.requires_grad]
    ad.backward(loss)
    assert constants and all(node._grad is None for node in constants)
    assert logits._grad is not None


def test_objective_gradient_wrt_logits():
    rng = np.random.default_rng(27)
    logits0 = rng.normal(size=(6, 4))
    labels = np.array([0, 1, 2, 3, 3, 0])
    ctt = np.array([0, 0, 1, 1])
    o = rng.uniform(0.2, 1.0, size=(6, 2))
    old = o / o.sum(axis=1, keepdims=True)

    def make_batch(t):
        return L.BatchView(ad.softmax(t, axis=1), labels, ctt, 2, 2, old)

    stats0 = L.gradient_stats(make_batch(Tensor(logits0)))

    def f(t):
        return L.objective(make_batch(t), stats0, alpha1=1.0, alpha2=1.0)

    assert ad.finite_diff_check(f, logits0) < 1e-5

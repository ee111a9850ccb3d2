"""Tests for accuracy scoring and the forgetting-heterogeneity statistic."""
import numpy as np
import pytest

from hfclab import metrics as M


def test_top1_perfect_predictions():
    probs = np.eye(4)
    assert M.top1_accuracy(probs, np.arange(4)) == 1.0


def test_top1_constant_model_ties_break_low():
    # identical logits everywhere: argmax picks class 0
    probs = np.full((8, 4), 0.25)
    labels = np.repeat(np.arange(4), 2)
    assert M.top1_accuracy(probs, labels) == 0.25


def test_top1_matches_recount_oracle():
    rng = np.random.default_rng(3)
    probs = rng.uniform(size=(100, 7))
    labels = rng.integers(0, 7, size=100)
    hits = 0
    for i in range(100):
        best = 0
        for c in range(7):
            if probs[i, c] > probs[i, best]:
                best = c
        hits += best == labels[i]
    assert M.top1_accuracy(probs, labels) == hits / 100


def test_top1_is_permutation_invariant():
    rng = np.random.default_rng(4)
    probs = rng.uniform(size=(50, 5))
    labels = rng.integers(0, 5, size=50)
    perm = rng.permutation(50)
    assert M.top1_accuracy(probs, labels) == M.top1_accuracy(probs[perm], labels[perm])


def test_top1_rejects_empty():
    with pytest.raises(ValueError):
        M.top1_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_average_incremental_single_and_pair():
    assert M.average_incremental([0.42]) == 0.42
    assert abs(M.average_incremental([0.8, 0.6]) - 0.7) < 1e-15


def test_average_incremental_matches_mean_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        accs = rng.uniform(size=rng.integers(1, 9)).tolist()
        assert abs(M.average_incremental(accs) - sum(accs) / len(accs)) < 1e-12


# ---------------------------------------------------------------------------
# forgetting heterogeneity


def test_fh_zero_when_within_task_gradients_equal():
    checkpoints = [
        (np.array([0.3, 0.3, 0.8, 0.8]), np.array([0, 0, 1, 1])),
        (np.array([0.5, 0.5]), np.array([0, 0])),
    ]
    assert M.forgetting_heterogeneity(checkpoints) == 0.0


def test_fh_single_task_variance():
    fh = M.forgetting_heterogeneity([(np.array([0.2, 0.4]), np.array([0, 0]))])
    assert abs(fh - 0.01) < 1e-15


def test_fh_sample_order_invariant():
    rng = np.random.default_rng(7)
    grads = rng.uniform(size=30)
    tasks = rng.integers(0, 3, size=30)
    perm = rng.permutation(30)
    a = M.forgetting_heterogeneity([(grads, tasks)])
    b = M.forgetting_heterogeneity([(grads[perm], tasks[perm])])
    assert abs(a - b) < 1e-15


def test_fh_matches_bruteforce_on_random_checkpoints():
    rng = np.random.default_rng(9)
    checkpoints = []
    for t in range(4):
        n = int(rng.integers(20, 50))
        grads = rng.uniform(size=n)
        tasks = rng.integers(0, t + 1, size=n)
        checkpoints.append((grads, tasks))

    # brute-force transcription: explicit loops, no vectorization shortcuts
    total = 0.0
    for grads, tasks in checkpoints:
        acc = 0.0
        for i in range(len(grads)):
            same_task = [grads[j] for j in range(len(grads)) if tasks[j] == tasks[i]]
            task_mean = sum(same_task) / len(same_task)
            acc += (grads[i] - task_mean) ** 2
        total += acc / len(grads)
    expected = total / len(checkpoints)

    assert abs(M.forgetting_heterogeneity(checkpoints) - expected) < 1e-10


def test_fh_rejects_empty_inputs():
    with pytest.raises(ValueError):
        M.forgetting_heterogeneity([])
    with pytest.raises(ValueError):
        M.forgetting_heterogeneity([(np.zeros(0), np.zeros(0, dtype=int))])

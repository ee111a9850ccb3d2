"""Evaluation: top-1 accuracy, its running mean, and forgetting heterogeneity.

Forgetting heterogeneity is the variance of per-sample gradient magnitudes
around their task means, computed over the full test set at each task
checkpoint and averaged across checkpoints. Uniform forgetting within every
task gives zero; unequal forgetting speeds push it up.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

EVAL_CHUNK = 32


def predict_outputs(model, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(softmax rows, feature rows) for a stack of images; records no graph."""
    probs, feats = [], []
    with ad.no_grad():
        for start in range(0, len(images), EVAL_CHUNK):
            logits, features = model.forward_batch(images[start:start + EVAL_CHUNK])
            probs.append(ad.softmax(logits, axis=1).data)
            feats.append(features.data)
    return np.concatenate(probs, axis=0), np.concatenate(feats, axis=0)


def predict_probs(model, images: np.ndarray) -> np.ndarray:
    """Softmax rows for a stack of images: the evaluation entry point."""
    return predict_outputs(model, images)[0]


def top1_accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax hits; argmax ties resolve to the lowest class index."""
    if len(labels) == 0:
        raise ValueError("cannot score an empty evaluation set")
    return float((probs.argmax(axis=1) == labels).mean())


def per_class_accuracy(probs: np.ndarray, labels: np.ndarray) -> dict[int, float]:
    predicted = probs.argmax(axis=1)
    out: dict[int, float] = {}
    for cls in np.unique(labels):
        mask = labels == cls
        out[int(cls)] = float((predicted[mask] == cls).mean())
    return out


def average_incremental(task_accuracies: list[float]) -> float:
    if not task_accuracies:
        raise ValueError("need at least one task accuracy")
    return float(np.mean(task_accuracies))


def forgetting_heterogeneity(checkpoints: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Mean over checkpoints of the within-task variance of |gradient|.

    Each checkpoint is (abs gradient per test sample, task index per test
    sample), both over the full test set seen at that point.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    total = 0.0
    for abs_grad, tasks in checkpoints:
        abs_grad = np.asarray(abs_grad, dtype=np.float64)
        tasks = np.asarray(tasks)
        if len(abs_grad) == 0:
            raise ValueError("checkpoint with empty test set")
        task_mean = {int(t): abs_grad[tasks == t].mean() for t in np.unique(tasks)}
        centered = abs_grad - np.array([task_mean[int(t)] for t in tasks])
        total += float(np.mean(centered**2))
    return total / len(checkpoints)

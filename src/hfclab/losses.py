"""Training objectives and the gradient statistics that reweight them.

The per-sample statistic is the classifier-gradient magnitude for the true
class, ``p_true - 1``. One rule turns it into weights: a group's sharpened
mean over its task's sharpened mean. The groups are samples for the
reweighted cross-entropy (compensation loss) and classes for prototype
distillation (relation loss). By default the weights are detached
measurements: they scale the losses but receive no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LossConfig:
    relation_target: str = "renormalized"  # "renormalized" | "literal"
    kl_direction: str = "student_teacher"  # "student_teacher" | "teacher_student"
    weight_stop_gradient: bool = True

    def __post_init__(self):
        if self.relation_target not in ("renormalized", "literal"):
            raise ValueError(f"unknown relation_target {self.relation_target!r}")
        if self.kl_direction not in ("student_teacher", "teacher_student"):
            raise ValueError(f"unknown kl_direction {self.kl_direction!r}")


@dataclass
class BatchView:
    """One mini-batch seen through both models.

    probs: live-model softmax rows over all seen classes (differentiable).
    old_probs: frozen-model softmax rows over the old classes; None in the
    first task. labels are global class indices; class_to_task maps every
    class seen so far to the task that introduced it.
    """

    probs: Tensor
    labels: np.ndarray
    class_to_task: np.ndarray
    k_old: int
    k_new: int
    old_probs: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_to_task = np.asarray(self.class_to_task, dtype=np.int64)
        b, k = self.probs.shape
        if k != self.k_old + self.k_new:
            raise ValueError(f"prediction width {k} != k_old+k_new = {self.k_old + self.k_new}")
        if self.labels.shape != (b,):
            raise ValueError(f"labels shape {self.labels.shape} does not match batch size {b}")
        row_sums = self.probs.data.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0) < ROW_SUM_TOL):
            raise ValueError("prediction rows must sum to 1")
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise ValueError("label outside the seen class range")
        if len(self.class_to_task) < k:
            raise ValueError("class_to_task does not cover all seen classes")
        if self.old_probs is not None:
            if self.old_probs.shape != (b, self.k_old):
                raise ValueError(
                    f"old predictions shape {self.old_probs.shape} != ({b}, {self.k_old})"
                )

    @property
    def batch_size(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.k_old + self.k_new

    def onehot(self) -> np.ndarray:
        out = np.zeros(self.probs.shape)
        out[np.arange(self.batch_size), self.labels] = 1.0
        return out

    def sample_tasks(self) -> np.ndarray:
        return self.class_to_task[self.labels]


def per_sample_gradient(batch: BatchView) -> np.ndarray:
    """True-class probability minus one, per sample; always in [-1, 0]."""
    return batch.probs.data[np.arange(batch.batch_size), batch.labels] - 1.0


def sharpen_exponent(k_old: int, k_new: int) -> float:
    return k_old / (k_old + k_new)


def sharpened_stat(abs_gradient, k_old: int, k_new: int):
    """log(|g|^(k_old/(k_old+k_new)) + 1); 0^0 is taken as 1 when k_old == 0."""
    return np.log(np.power(np.asarray(abs_gradient, dtype=np.float64),
                           sharpen_exponent(k_old, k_new)) + 1.0)


def gradient_stats(batch: BatchView) -> np.ndarray:
    """The detached sharpened statistic of each sample's |p_true - 1|."""
    return sharpened_stat(np.abs(per_sample_gradient(batch)), batch.k_old, batch.k_new)


# ---------------------------------------------------------------------------
# the weighting rule shared by both losses


def _true_class_prob(batch: BatchView) -> Tensor:
    return ad.sum_(ad.mul(batch.probs, ad.constant(batch.onehot())), axis=1)


def _sharpened_tensor(batch: BatchView) -> Tensor:
    """Differentiable per-sample sharpened statistic (|g| = 1 - p_true)."""
    abs_gamma = ad.add_const(ad.scale(_true_class_prob(batch), -1.0), 1.0)
    powered = ad.power(abs_gamma, sharpen_exponent(batch.k_old, batch.k_new))
    return ad.log(ad.add_const(powered, 1.0))


def _group_means(groups: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(len(keys), b) averaging matrix: row r averages the samples whose group is keys[r]."""
    members = (groups[None, :] == keys[:, None]).astype(np.float64)
    return members / members.sum(axis=1, keepdims=True)


def _balanced_weights(batch: BatchView, sharp: np.ndarray, groups: np.ndarray | None,
                      stop_gradient: bool = True) -> Tensor:
    """One weight per distinct group, in ascending order: the group's sharpened
    mean over its task's sharpened mean, or 1 where that task mean is 0. Groups
    None makes each sample its own group, whose mean is its own statistic.

    Detached weights are computed from the statistic ``sharp``; differentiable
    ones from the live predictions.
    """
    statistic = ad.constant(sharp) if stop_gradient else _sharpened_tensor(batch)
    keys, first = np.unique(np.arange(batch.batch_size) if groups is None else groups,
                            return_index=True)
    tasks = batch.sample_tasks()
    column = ad.reshape(statistic, (batch.batch_size, 1))
    group_mean = (column if groups is None
                  else ad.matmul(ad.constant(_group_means(groups, keys)), column))
    task_mean = ad.matmul(ad.constant(_group_means(tasks, tasks[first])), column)
    # a perfectly predicted task (no nonzero statistic) keeps unit weight; decided
    # on the detached statistic because the live one clamps |g| and is never 0
    zero = ~np.isin(tasks[first], tasks[sharp != 0.0])[:, None]
    unit = ad.constant(zero.astype(np.float64))
    keep = ad.constant((~zero).astype(np.float64))
    weights = ad.add(ad.mul(ad.div(group_mean, ad.add(task_mean, unit)), keep), unit)
    return ad.reshape(weights, (len(keys),))


# ---------------------------------------------------------------------------
# cross-entropy and its gradient-balanced reweighting


def per_sample_ce(batch: BatchView) -> Tensor:
    """Vector of -log p_true, one entry per sample (clamped log)."""
    return ad.scale(ad.log(_true_class_prob(batch)), -1.0)


def ce_loss(batch: BatchView) -> Tensor:
    return ad.mean(per_sample_ce(batch))


def gfc_loss(batch: BatchView, sharp: np.ndarray, stop_gradient: bool = True) -> Tensor:
    """Cross-entropy with each sample scaled by its sharpened statistic over
    its task's sharpened mean; a task whose mean is zero keeps weight 1.
    """
    weights = _balanced_weights(batch, sharp, None, stop_gradient)
    return ad.mean(ad.mul(weights, per_sample_ce(batch)))


# ---------------------------------------------------------------------------
# relation distillation


def relation_groundtruth(batch: BatchView, mode: str = "renormalized") -> np.ndarray:
    """One-hot rows with the old-class block replaced by the frozen model's
    probabilities; renormalized rows sum to 1, literal rows keep their raw sum.
    """
    if batch.old_probs is None:
        raise ValueError("relation targets need the previous task's frozen model")
    if mode not in ("renormalized", "literal"):
        raise ValueError(f"unknown relation target mode {mode!r}")
    rows = batch.onehot()
    rows[:, : batch.k_old] = batch.old_probs
    if mode == "renormalized":
        rows = rows / rows.sum(axis=1, keepdims=True)
    return rows


def relation_prototypes(batch: BatchView, targets: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean predicted row (differentiable) and mean target row of each class
    present: two (C, k) arrays, one row per class in ascending class order.
    """
    averaging = _group_means(batch.labels, np.unique(batch.labels))
    return ad.matmul(ad.constant(averaging), batch.probs), averaging @ targets


def kl_divergence(p: Tensor, q: np.ndarray, direction: str = "student_teacher") -> Tensor:
    """KL between differentiable rows and detached rows, clamped at 1e-12; one value per row."""
    q_log = np.log(np.maximum(q, ad.LOG_CLAMP))
    if direction == "student_teacher":
        # sum p (log p - log q)
        return ad.sum_(ad.mul(p, ad.add(ad.log(p), ad.constant(-q_log))), axis=-1)
    if direction == "teacher_student":
        # sum q (log q - log p); only log p carries gradient
        cross = ad.sum_(ad.mul(ad.constant(q), ad.log(p)), axis=-1)
        return ad.add(ad.scale(cross, -1.0), ad.constant(np.sum(q * q_log, axis=-1)))
    raise ValueError(f"unknown KL direction {direction!r}")


def grd_loss(batch: BatchView, sharp: np.ndarray, prototypes: Tensor,
             references: np.ndarray, cfg: LossConfig = LossConfig()) -> Tensor:
    """Class-prototype distillation, each class present weighted by its
    sharpened mean over its task's; absent classes contribute nothing but the
    normalizer still counts every seen class.
    """
    weights = _balanced_weights(batch, sharp, batch.labels, cfg.weight_stop_gradient)
    divergences = kl_divergence(prototypes, references, cfg.kl_direction)
    return ad.scale(ad.sum_(ad.mul(weights, divergences)), 1.0 / batch.n_classes)


def objective(
    batch: BatchView,
    sharp: np.ndarray | None,
    alpha1: float,
    alpha2: float,
    cfg: LossConfig = LossConfig(),
    uniform_weights: bool = False,
) -> Tensor:
    """alpha1 * compensation loss + alpha2 * relation distillation loss.

    uniform_weights puts plain cross-entropy in place of the compensation
    loss; with alpha2 = 0 that is the replay baseline. sharp None measures
    the statistic on this batch, once, and only if a term needs it.
    """
    if sharp is None and not (uniform_weights and alpha2 == 0.0):
        sharp = gradient_stats(batch)
    if uniform_weights:
        total = ad.scale(ce_loss(batch), alpha1)
    else:
        total = ad.scale(gfc_loss(batch, sharp, cfg.weight_stop_gradient), alpha1)
    if alpha2 != 0.0:
        targets = relation_groundtruth(batch, cfg.relation_target)
        prototypes, references = relation_prototypes(batch, targets)
        total = ad.add(total, ad.scale(grd_loss(batch, sharp, prototypes, references, cfg),
                                       alpha2))
    return total

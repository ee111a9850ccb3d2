"""The incremental training pipeline.

Tasks arrive as disjoint blocks of a seeded class permutation; original
dataset labels are remapped so that classifier row k always means incremental
class k. The first task trains with plain cross-entropy; later tasks mix the
task's data with the exemplar memory and optimize the gradient-balanced
objective against the frozen previous model. After each task the memory is
re-quota'd by herding, the model is snapshotted, and the classifier grows for
the next task.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses as LS
from . import metrics as MT
from .data import Dataset, TaskStream
from .model import IncrementalModel, atomic_open
from .seeding import stream_rng


# ---------------------------------------------------------------------------
# exemplar memory


def herding_select(features: np.ndarray, quota: int) -> list[int]:
    """Greedy selection keeping the running mean of picks near the class mean.

    At step j the candidate minimizing ||mean - (chosen_sum + f(x)) / j|| is
    taken; ties break toward the lowest sample index. Returns indices in
    priority order.
    """
    n = len(features)
    if n == 0:
        raise ValueError("cannot herd an empty class")
    if quota > n:
        raise ValueError(f"quota {quota} exceeds class size {n}")
    mean = features.mean(axis=0)
    chosen: list[int] = []
    chosen_sum = np.zeros_like(mean)
    remaining = np.ones(n, dtype=bool)
    for j in range(1, quota + 1):
        candidates = np.flatnonzero(remaining)
        dists = np.linalg.norm(mean - (chosen_sum + features[candidates]) / j, axis=1)
        pick = candidates[int(np.argmin(dists))]  # argmin takes first == lowest index
        chosen.append(int(pick))
        chosen_sum += features[pick]
        remaining[pick] = False
    return chosen


@dataclass
class ExemplarMemory:
    """Priority-ordered per-class exemplar indices under the trainer config's budget.

    memory_mode fixed_total re-quotas to floor(memory_capacity / seen classes)
    after each task, truncating existing lists to a prefix; per_class keeps
    per_class_quota per class and never touches old lists.
    """

    config: TrainerConfig
    store: dict[int, list[int]] = field(default_factory=dict)

    def all_indices(self) -> list[int]:
        out: list[int] = []
        for cls in sorted(self.store):
            out.extend(self.store[cls])
        return out

    def update(self, per_class_features: dict[int, tuple[np.ndarray, np.ndarray]],
               n_seen_classes: int) -> None:
        """Re-quota old lists and herd the newly finished classes.

        per_class_features maps each new class to (dataset indices, feature
        rows from the just-trained model), index-aligned.
        """
        if self.config.memory_mode == "fixed_total":
            quota = self.config.memory_capacity // n_seen_classes
            for cls in self.store:
                self.store[cls] = self.store[cls][:quota]
        else:
            quota = self.config.per_class_quota
        for cls in sorted(per_class_features):
            indices, features = per_class_features[cls]
            take = min(quota, len(indices))
            order = herding_select(features, take)
            self.store[cls] = [int(indices[i]) for i in order]


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float) -> None:
    """In-place momentum update: v <- mu v + g; p <- p - lr v."""
    velocity *= momentum
    velocity += grad
    param -= lr * velocity


class SgdOptimizer:
    def __init__(self, params: dict[str, ad.Tensor], lr: float, momentum: float):
        self.lr = lr
        self.momentum = momentum
        self.params = dict(params)
        self.velocities = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            grad = p.grad
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name}")
            if self.velocities[name].shape != p.shape:  # the parameter grew in place
                self.velocities[name] = np.zeros_like(p.data)
            sgd_step(p.data, grad, self.velocities[name], self.lr, self.momentum)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# trainer


@dataclass(frozen=True)
class TrainerConfig:
    alpha1: float = 1.0
    alpha2: float = 0.1
    learning_rate: float = 0.02
    momentum: float = 0.5
    epochs_per_task: int = 40
    batch_size: int = 16
    memory_capacity: int = 2000
    memory_mode: str = "fixed_total"
    per_class_quota: int = 20
    uniform_weights: bool = False  # ablation: plain cross-entropy instead of reweighting
    flip_augment: bool = False  # horizontal flip at batch assembly (image datasets)
    loss: LS.LossConfig = LS.LossConfig()

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("loss coefficients must be nonnegative")
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ValueError("alpha1 and alpha2 are both 0: every task after the first "
                             "would train on a loss that is always 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        for name, least in (("epochs_per_task", 1), ("batch_size", 1),
                            ("memory_capacity", 0), ("per_class_quota", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.memory_mode not in ("fixed_total", "per_class"):
            raise ValueError("memory_mode must be fixed_total or per_class, "
                             f"got {self.memory_mode!r}")


@dataclass
class TaskRecord:
    task_index: int
    seen_classes: int
    top1: float
    per_class_accuracy: dict[int, float]
    epoch_losses: list[float]
    abs_gradients: np.ndarray
    sample_tasks: np.ndarray
    # running values over tasks 1..task_index
    avg_incremental: float
    fh: float


def run_stream(
    stream: TaskStream,
    train_set: Dataset,
    test_set: Dataset,
    model: IncrementalModel,
    config: TrainerConfig,
    master_seed: int,
    out_dir: str | Path | None = None,
    config_echo: dict | None = None,
) -> list[TaskRecord]:
    """Train through every task and evaluate over all seen classes after each.

    Returns the task records. When out_dir is given, it is created before the
    first task and gets metrics.csv, summary.json and per-task checkpoints.
    """
    start_time = time.monotonic()
    if stream.n_classes != train_set.n_classes:
        raise ValueError("stream and dataset disagree on class count")
    if model.n_classes != stream.task_sizes[0]:
        raise ValueError("model must start with exactly the first task's classes")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    remap = stream.remap()
    train_labels = remap[train_set.labels]
    test_labels = remap[test_set.labels]
    class_to_task = stream.class_to_task()
    memory = ExemplarMemory(config)
    batch_rng = stream_rng(master_seed, "batching")
    expand_rng = stream_rng(master_seed, "classifier-init")
    optimizer = SgdOptimizer(model.parameters(), config.learning_rate, config.momentum)

    old_model: IncrementalModel | None = None
    records: list[TaskRecord] = []

    for task_index, space in enumerate(stream.label_spaces()):
        seen = stream.n_seen(task_index)
        k_old = seen - len(space)
        try:
            # the memory stays empty until the first task has been herded
            pool = np.concatenate([np.flatnonzero(np.isin(train_labels, space)),
                                   np.array(memory.all_indices(), dtype=np.int64)])
            # teacher[orient, row]: the frozen model's softmax row for pool[row], flipped
            # when orient is 1; NaN until predicted, which a softmax row never is
            teacher = None
            if task_index > 0 and config.alpha2 > 0:
                teacher = np.full((1 + config.flip_augment, len(pool), k_old), np.nan)
                if not config.flip_augment:  # a fixed pool: predict all of it up front
                    teacher[0], _ = MT.predict_outputs(old_model, train_set.images[pool])

            def train_step(rows: np.ndarray) -> float:
                """One SGD step on pool[rows]; returns its loss. The step's graph, the
                unused feature output included, is reachable only from these locals,
                so it is freed on return, before the next step or evaluation starts."""
                batch_idx = pool[rows]
                images = train_set.images[batch_idx]  # a fresh gather, so flipped in place
                labels = train_labels[batch_idx]
                flips = np.zeros(len(rows), dtype=bool)
                if config.flip_augment:
                    flips = batch_rng.random(len(images)) < 0.5
                    images[flips] = images[flips][..., ::-1]
                logits, _ = model.forward_batch(images)
                probs = ad.softmax(logits, axis=1)
                old_probs = None
                if teacher is not None:
                    orient = flips.astype(np.intp)
                    for i in np.flatnonzero(np.isnan(teacher[orient, rows, 0])):
                        teacher[orient[i], rows[i]] = old_model.predict(images[i])
                    old_probs = teacher[orient, rows]
                batch = LS.BatchView(probs, labels, class_to_task, k_old, len(space), old_probs)
                loss = _batch_loss(batch, task_index, config)
                optimizer.zero_grad()
                ad.backward(loss)
                optimizer.step()
                return loss.item()

            epoch_losses: list[float] = []
            for _ in range(config.epochs_per_task):
                order = batch_rng.permutation(len(pool))
                epoch_losses.append(float(np.mean([
                    train_step(order[start:start + config.batch_size])
                    for start in range(0, len(pool), config.batch_size)])))

            eval_mask = test_labels < seen
            eval_labels = test_labels[eval_mask]
            probs = MT.predict_probs(model, test_set.images[eval_mask])
            top1 = MT.top1_accuracy(probs, eval_labels)
            per_class = MT.per_class_accuracy(probs, eval_labels)
            abs_gradients = np.abs(probs[np.arange(len(eval_labels)), eval_labels] - 1.0)
            sample_tasks = class_to_task[eval_labels]
        except Exception as exc:
            raise RuntimeError(f"task {task_index + 1} failed: {exc}") from exc
        records.append(TaskRecord(
            task_index + 1, seen, top1, per_class, epoch_losses, abs_gradients, sample_tasks,
            avg_incremental=MT.average_incremental([r.top1 for r in records] + [top1]),
            fh=MT.forgetting_heterogeneity([(r.abs_gradients, r.sample_tasks) for r in records]
                                           + [(abs_gradients, sample_tasks)]),
        ))

        new_class_features = {}
        for cls in space:
            indices = np.flatnonzero(train_labels == cls)
            _, features = MT.predict_outputs(model, train_set.images[indices])
            new_class_features[cls] = (indices, features)
        memory.update(new_class_features, seen)
        old_model = model.snapshot()
        if out_dir is not None:
            model.save_checkpoint(out_dir / f"task{task_index + 1}.ckpt.json", task_index + 1)
        if task_index + 1 < stream.n_tasks:
            model.expand_classifier(stream.task_sizes[task_index + 1], expand_rng)

    if out_dir is not None:
        write_metrics_csv(out_dir / "metrics.csv", records)
        write_summary_json(out_dir / "summary.json", records, config, master_seed,
                           time.monotonic() - start_time, config_echo=config_echo)
    return records


def _batch_loss(batch: LS.BatchView, task_index: int, config: TrainerConfig):
    if task_index == 0:
        return LS.ce_loss(batch)
    return LS.objective(batch, None, config.alpha1, config.alpha2, config.loss,
                        config.uniform_weights)


# ---------------------------------------------------------------------------
# report files (LF endings, '.' decimals, repr floats for bit-stable output)


def write_metrics_csv(path: Path, records: list[TaskRecord]) -> None:
    with atomic_open(path) as fh_out:
        writer = csv.writer(fh_out, lineterminator="\n")
        writer.writerow(["task_index", "seen_classes", "top1_acc",
                         "avg_incremental_acc", "fh", "epoch_losses"])
        for rec in records:
            writer.writerow([
                rec.task_index,
                rec.seen_classes,
                repr(rec.top1),
                repr(rec.avg_incremental),
                repr(rec.fh),
                ";".join(repr(v) for v in rec.epoch_losses),
            ])


def write_summary_json(path: Path, records: list[TaskRecord], config: TrainerConfig,
                       master_seed: int, wall_clock: float,
                       config_echo: dict | None = None) -> None:
    payload = {
        "seed": master_seed,
        "config": config_echo if config_echo is not None else asdict(config),
        "tasks": [
            {
                "task_index": r.task_index,
                "seen_classes": r.seen_classes,
                "top1_acc": r.top1,
                "epoch_losses": r.epoch_losses,
                "per_class_accuracy": {str(k): v for k, v in r.per_class_accuracy.items()},
            }
            for r in records
        ],
        "avg_incremental_acc": records[-1].avg_incremental,
        "fh": records[-1].fh,
        "wall_clock_seconds": wall_clock,
    }
    with atomic_open(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

"""Workload generator: v1 run configs and CIFAR-100 binaries from a seed.

Every input a run needs is written into one directory. The same seed gives
the same bytes. The generator also derives the exact counts a run must
produce (samples stepped, optimizer steps, evaluated images, teacher
predictions) from the config alone, so the benchmark can check the
program's work against them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("directional_full", "replay_baseline", "cifar_flip")

# acceptance-5 shape: 10 classes at 16x16x1, 5 tasks, memory 100
SYNTHETIC = {
    "classes": 10, "samples_per_class": 60, "test_samples_per_class": 20,
    "side": 16, "channels": 1, "tasks": 5, "memory_capacity": 100, "epochs": 4,
}
# 100 classes at 32x32x3 in the CIFAR-100 record layout, 10 tasks
CIFAR = {
    "classes": 100, "samples_per_class": 4, "test_samples_per_class": 1,
    "tasks": 10, "memory_capacity": 100, "epochs": 1,
}
CIFAR_SIDE = 32
COARSE_PER_FINE = 5  # CIFAR-100 groups 5 fine classes under each coarse label


@dataclass(frozen=True)
class Counts:
    """What a correct run of the config does, derived from the config alone."""

    samples_stepped: int = 0
    train_steps: int = 0
    eval_samples: int = 0
    teacher_predicts: int = 0
    tasks: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config_path: Path
    counts: Counts = field(default_factory=Counts)


def _linspace_noise(n: int) -> list[float]:
    return [float(v) for v in np.linspace(0.02, 0.3, n)]


def expected_counts(classes: int, samples_per_class: int, test_samples_per_class: int,
                    tasks: int, memory_capacity: int, epochs: int, batch_size: int = 16,
                    teacher_per_image: bool = False) -> Counts:
    """Replays the trainer's bookkeeping for equal task blocks and a
    fixed_total memory: each task trains on its own samples plus
    min(capacity // seen, samples_per_class) exemplars of every earlier class.
    """
    per_task = classes // tasks
    samples = steps = evals = teacher = 0
    for t in range(tasks):
        seen_before = t * per_task
        memory = 0
        if t > 0:
            memory = seen_before * min(memory_capacity // seen_before, samples_per_class)
        pool = per_task * samples_per_class + memory
        samples += epochs * pool
        steps += epochs * math.ceil(pool / batch_size)
        evals += test_samples_per_class * (seen_before + per_task)
        if t > 0 and teacher_per_image:
            teacher += epochs * pool
    return Counts(samples, steps, evals, teacher, tasks)


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def _synthetic_config(replay_baseline: bool) -> dict:
    s = SYNTHETIC
    trainer = {"memory_capacity": s["memory_capacity"], "epochs_per_task": s["epochs"]}
    if replay_baseline:
        trainer.update(uniform_weights=True, alpha2=0.0)
    return {
        "schema_version": 1,
        "dataset": {
            "type": "synthetic", "classes": s["classes"],
            "samples_per_class": s["samples_per_class"],
            "test_samples_per_class": s["test_samples_per_class"],
            "side": s["side"], "channels": s["channels"],
            "class_noise": _linspace_noise(s["classes"]),
        },
        "stream": {"tasks": s["tasks"]},
        "trainer": trainer,
    }


def cifar_records(seed: int, samples_per_class: int, split: str) -> tuple[np.ndarray, ...]:
    """(coarse, fine, pixels) for 100 classes: a smooth per-class colour
    template (4x4 blocks upsampled to 32x32) plus per-sample noise whose
    scale grows with the class index."""
    rng = np.random.default_rng([seed, 0])  # templates are shared by both splits
    templates = np.kron(rng.uniform(0.15, 0.85, size=(CIFAR["classes"], 3, 4, 4)),
                        np.ones((8, 8)))
    sample_rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    noise = np.asarray(_linspace_noise(CIFAR["classes"]))
    fine = np.repeat(np.arange(CIFAR["classes"]), samples_per_class)
    images = templates[fine] + sample_rng.normal(size=(len(fine), 3, CIFAR_SIDE, CIFAR_SIDE)) \
        * noise[fine, None, None, None]
    pixels = np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    order = sample_rng.permutation(len(fine))
    fine = fine[order].astype(np.uint8)
    return fine // COARSE_PER_FINE, fine, pixels[order]


def check_round_trip(data_module, path: Path) -> None:
    """read_label_records -> write_label_records must give the same bytes back."""
    copy = path.with_name(path.name + ".roundtrip")
    data_module.write_label_records(copy, *data_module.read_label_records(path))
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    if not same:
        raise RuntimeError(f"{path.name}: CIFAR-100 record round trip changed the bytes")


def generate(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the inputs of workload `name` into work_dir."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name in ("directional_full", "replay_baseline"):
        s = SYNTHETIC
        config = _synthetic_config(replay_baseline=name == "replay_baseline")
        counts = expected_counts(s["classes"], s["samples_per_class"],
                                 s["test_samples_per_class"], s["tasks"],
                                 s["memory_capacity"], s["epochs"])
        return Workload(name, seed, _write_config(work_dir / f"{name}.json", config), counts)

    from hfclab import data  # imported late: the caller has put src/ on sys.path

    c = CIFAR
    paths = {}
    for split, per_class in (("train", c["samples_per_class"]),
                             ("test", c["test_samples_per_class"])):
        paths[split] = work_dir / f"{split}.bin"
        data.write_label_records(paths[split], *cifar_records(seed, per_class, split))
        check_round_trip(data, paths[split])
    config = {
        "schema_version": 1,
        "dataset": {"type": "cifar100", "train_path": str(paths["train"]),
                    "test_path": str(paths["test"]), "horizontal_flip": True},
        "stream": {"tasks": c["tasks"]},
        "trainer": {"memory_capacity": c["memory_capacity"], "epochs_per_task": c["epochs"]},
    }
    counts = expected_counts(c["classes"], c["samples_per_class"],
                             c["test_samples_per_class"], c["tasks"],
                             c["memory_capacity"], c["epochs"], teacher_per_image=True)
    return Workload(name, seed, _write_config(work_dir / f"{name}.json", config), counts)

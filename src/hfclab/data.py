"""Dataset synthesis, binary ingestion, and class-incremental task splitting.

The synthetic generator gives each class a fixed low-frequency template and a
per-class noise level: noisy classes are genuinely harder to retain, which is
the knob the directional experiments turn. The binary reader/writer pair for
the CIFAR-100 layout is byte-exact and round-trip tested.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .seeding import stream_rng, stream_seed

CIFAR_SIDE = 32
CIFAR_CHANNELS = 3
CIFAR_RECORD_BYTES = 2 + CIFAR_CHANNELS * CIFAR_SIDE * CIFAR_SIDE  # coarse + fine + RGB planes
CIFAR_CLASSES = 100

DATASET_MAGIC = b"HFCD"
DATASET_VERSION = 1


@dataclass
class Dataset:
    """Images as (n, channels, side, side) with global integer labels.

    A uint8 array is kept as pixel bytes, which the model divides by 255 one
    forward batch at a time; anything else is coerced to float64 in [0,1].
    """

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        images = np.asarray(self.images)
        self.images = images if images.dtype == np.uint8 else images.astype(np.float64, copy=False)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be 4-d, got shape {self.images.shape}")
        for field, extent in (("channels", self.channels), ("side", self.side)):
            if extent == 0:
                raise ValueError(f"{field} must be at least 1, got 0")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be at least 1, got {self.n_classes}")
        if len(self.labels) != len(self.images):
            raise ValueError("labels and images disagree on sample count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("label outside [0, n_classes)")
        if self.n_classes > len(self.labels):
            raise ValueError(f"{self.n_classes} classes but only {len(self.labels)} samples")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        if np.any(counts == 0):
            raise ValueError("every class needs at least one sample")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def side(self) -> int:
        return self.images.shape[2]

    @property
    def channels(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True)
class SyntheticBlock:
    """The config's synthetic dataset. Per-class templates are fixed by (seed, class);
    the split only decorrelates the noise draws, so train and test share class identity."""

    classes: int
    samples_per_class: int
    test_samples_per_class: int = 10
    side: int = 16
    channels: int = 1
    class_noise: tuple[float, ...] | None = None  # None: 0.05 per class
    seed: int | None = None  # None: derived from the master seed before generating

    def __post_init__(self):
        for name in ("classes", "samples_per_class", "test_samples_per_class", "side",
                     "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.class_noise is not None:
            if len(self.class_noise) != self.classes:
                raise ValueError(f"class_noise needs {self.classes} entries, "
                                 f"got {len(self.class_noise)}")
            if (lowest := min(self.class_noise)) < 0:
                raise ValueError(f"class_noise levels must be nonnegative, got {lowest}")


@dataclass(frozen=True)
class CifarBlock:
    """The config's CIFAR-100 dataset: two files in the binary record layout."""

    train_path: str
    test_path: str
    horizontal_flip: bool = False
    classes: ClassVar[int] = CIFAR_CLASSES


def class_template(block: SyntheticBlock, cls: int) -> np.ndarray:
    """Deterministic low-frequency pattern for one class, in [0.1, 0.9]."""
    if block.seed is None:
        raise ValueError("the dataset seed must be set")
    rng = stream_rng(block.seed, f"template/{cls}")
    coords = np.arange(block.side) / block.side
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    img = np.zeros((block.channels, block.side, block.side))
    for ch in range(block.channels):
        acc = np.zeros((block.side, block.side))
        for _ in range(3):
            fx, fy = rng.integers(1, 4, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(0.5, 1.0) * np.cos(2 * np.pi * (fx * xx + fy * yy) + phase)
        lo, hi = acc.min(), acc.max()
        img[ch] = 0.1 + 0.8 * (acc - lo) / (hi - lo)
    return img


def _shift_bilinear(template: np.ndarray, dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Translate a (channels, side, side) template by each pair of subpixel
    offsets with bilinear sampling, edge-clamped: (len(dy), channels, side, side)."""
    side = template.shape[1]
    grid = np.arange(side, dtype=np.float64)
    yy = np.clip(grid - dy[:, None], 0, side - 1)[:, :, None]  # (k, side, 1)
    xx = np.clip(grid - dx[:, None], 0, side - 1)[:, None, :]  # (k, 1, side)
    y0 = np.floor(yy).astype(int)
    x0 = np.floor(xx).astype(int)
    y1 = np.minimum(y0 + 1, side - 1)
    x1 = np.minimum(x0 + 1, side - 1)
    wy = yy - y0
    wx = xx - x0
    shifted = ((1 - wy) * (1 - wx) * template[:, y0, x0]  # (channels, k, side, side)
               + (1 - wy) * wx * template[:, y0, x1]
               + wy * (1 - wx) * template[:, y1, x0]
               + wy * wx * template[:, y1, x1])
    return shifted.transpose(1, 0, 2, 3)


def generate_synthetic(block: SyntheticBlock, split: str = "train") -> Dataset:
    """Each sample is its class template, jittered and noised by the class level.

    The split picks samples_per_class or test_samples_per_class. Each class
    draws one standard-normal block from its own stream, one row per sample:
    two subpixel offsets (scaled by level * side / 4) and then the pixel noise
    (scaled by level) in (channel, row, column) order. At level 0 both scale
    to zero and the samples are the template.
    """
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    noise = block.class_noise if block.class_noise is not None else (0.05,) * block.classes
    k = block.samples_per_class if split == "train" else block.test_samples_per_class
    images = np.empty((block.classes * k, block.channels, block.side, block.side))
    for cls, sigma in enumerate(noise):
        template = class_template(block, cls)
        z = stream_rng(block.seed, f"samples/{split}/{cls}").standard_normal(
            (k, 2 + template.size))
        offsets = sigma * block.side / 4.0 * z[:, :2]
        samples = _shift_bilinear(template, offsets[:, 0], offsets[:, 1])
        samples += sigma * z[:, 2:].reshape(samples.shape)
        np.clip(samples, 0.0, 1.0, out=images[cls * k:(cls + 1) * k])
    labels = np.repeat(np.arange(block.classes, dtype=np.int64), k)
    return Dataset(images, labels, block.classes)


# ---------------------------------------------------------------------------
# CIFAR-100 binary layout: per record 1 coarse label byte, 1 fine label byte,
# then 3072 pixel bytes as three 32x32 planes (R, G, B).


def read_label_records(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse raw records into (coarse, fine, pixels-uint8) without rescaling."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    coarse = records[:, 0].copy()
    fine = records[:, 1].copy()
    for name, labels in (("coarse", coarse), ("fine", fine)):
        bad = np.flatnonzero(labels >= CIFAR_CLASSES)
        if bad.size:
            offset = bad[0] * CIFAR_RECORD_BYTES + (0 if name == "coarse" else 1)
            raise ValueError(
                f"{path}: {name} label {labels[bad[0]]} out of range at byte offset {offset}"
            )
    pixels = records[:, 2:].reshape(n, CIFAR_CHANNELS, CIFAR_SIDE, CIFAR_SIDE).copy()
    return coarse, fine, pixels


def write_label_records(path: str | Path, coarse: np.ndarray, fine: np.ndarray,
                        pixels: np.ndarray) -> None:
    """Write records that read_label_records reads back unchanged: one or more, integer
    labels in [0, 100) and uint8 pixels of shape (n, 3, 32, 32). Anything else is a
    ValueError naming the argument (and the first bad record), raised before writing."""
    n = len(fine)
    if n == 0:
        raise ValueError("fine holds no records; a record file needs at least one")
    for name, labels in (("coarse", coarse), ("fine", fine)):
        labels = np.asarray(labels)
        if labels.shape != (n,) or labels.dtype.kind not in "iu":
            raise ValueError(f"{name} must be {n} integer labels, got {labels.dtype} "
                             f"of shape {labels.shape}")
        if (bad := np.flatnonzero((labels < 0) | (labels >= CIFAR_CLASSES))).size:
            raise ValueError(f"{name} label {labels[bad[0]]} at record {bad[0]} is outside "
                             f"[0, {CIFAR_CLASSES})")
    pixels, shape = np.asarray(pixels), (n, CIFAR_CHANNELS, CIFAR_SIDE, CIFAR_SIDE)
    if pixels.dtype != np.uint8 or pixels.shape != shape:
        raise ValueError(f"pixels must be uint8 of shape {shape}, "
                         f"got {pixels.dtype} of shape {pixels.shape}")
    records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = coarse
    records[:, 1] = fine
    records[:, 2:] = pixels.reshape(n, -1)
    Path(path).write_bytes(records.tobytes())


def load_cifar100_binary(train_path: str | Path, test_path: str | Path) -> tuple[Dataset, Dataset]:
    """Fine labels only; pixels stay uint8 bytes."""
    datasets = []
    for path in (train_path, test_path):
        _, fine, pixels = read_label_records(path)
        if missing := np.setdiff1d(np.arange(CIFAR_CLASSES), fine).tolist():
            raise ValueError(f"{path}: no record has fine label {missing[0]}")
        datasets.append(Dataset(pixels, fine.astype(np.int64), CIFAR_CLASSES))
    return datasets[0], datasets[1]


# ---------------------------------------------------------------------------
# flat binary export for synthetic datasets


def save_dataset_binary(dataset: Dataset, path: str | Path) -> None:
    """Header: magic, version u32, samples u32, classes u32, side u32,
    channels u32 (all little-endian); then u16 labels; then uint8 pixels, which
    are a byte-backed dataset's own bytes or round(255 * x) of float pixels.
    A class count past the u16 labels or a float pixel outside [0, 1] is a
    ValueError, raised before writing."""
    if dataset.n_classes > 2**16:
        raise ValueError(f"n_classes {dataset.n_classes} does not fit the u16 labels "
                         f"(at most {2**16} classes)")
    pixels = dataset.images
    if pixels.dtype != np.uint8:
        if (bad := np.argwhere(~((pixels >= 0.0) & (pixels <= 1.0)))).size:  # NaN included
            raise ValueError(f"float pixels must lie in the range [0, 1]; sample {bad[0][0]} "
                             f"holds {pixels[tuple(bad[0])]}")
        pixels = np.round(pixels * 255.0).astype(np.uint8)
    header = DATASET_MAGIC + struct.pack(
        "<IIIII", DATASET_VERSION, len(dataset), dataset.n_classes,
        dataset.side, dataset.channels,
    )
    labels = dataset.labels.astype("<u2").tobytes()
    Path(path).write_bytes(header + labels + pixels.tobytes())


def load_dataset_binary(path: str | Path) -> Dataset:
    raw = Path(path).read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 24:
        raise ValueError(f"{path}: header cut off at byte offset {len(raw)} (needs 24 bytes)")
    version, n, n_classes, side, channels = struct.unpack("<IIIII", raw[4:24])
    if version != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    label_bytes = 2 * n
    pixel_bytes = n * channels * side * side
    if len(raw) != 24 + label_bytes + pixel_bytes:
        raise ValueError(f"{path}: size {len(raw)} does not match header counts")
    labels = np.frombuffer(raw, dtype="<u2", count=n, offset=24).astype(np.int64)
    pixels = np.frombuffer(raw, dtype=np.uint8, count=pixel_bytes, offset=24 + label_bytes)
    images = pixels.reshape(n, channels, side, side).copy()  # writable, and frees `raw`
    try:
        return Dataset(images, labels, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# task splitting


@dataclass(frozen=True)
class StreamBlock:
    """The config's task stream: `tasks` equal blocks, or (base_fraction 0.5) half
    the classes first and `tasks` equal blocks of the rest. A None class_order_seed
    is derived from the master seed."""

    tasks: int
    base_fraction: float = 0.0
    class_order_seed: int | None = None

    def __post_init__(self):
        if self.tasks < 1:
            raise ValueError(f"tasks must be at least 1, got {self.tasks}")
        if self.base_fraction not in (0.0, 0.5):
            raise ValueError(f"base_fraction must be 0.0 or 0.5, got {self.base_fraction}")


@dataclass
class TaskStream:
    """Ordered class-incremental tasks over a seeded permutation of classes.

    class_order[i] is the original dataset label assigned incremental index i;
    task t owns the contiguous incremental range given by task_sizes.
    """

    class_order: list[int]
    task_sizes: list[int]

    def __post_init__(self):
        if sum(self.task_sizes) != len(self.class_order):
            raise ValueError("task sizes must cover the class order exactly")
        if sorted(self.class_order) != list(range(len(self.class_order))):
            raise ValueError("class order must permute 0..n_classes-1")

    @property
    def n_tasks(self) -> int:
        return len(self.task_sizes)

    @property
    def n_classes(self) -> int:
        return len(self.class_order)

    def label_spaces(self) -> list[list[int]]:
        """Incremental-index label space of each task (contiguous, disjoint)."""
        ends = np.cumsum(self.task_sizes, dtype=np.int64).tolist()
        return [list(range(end - size, end)) for size, end in zip(self.task_sizes, ends)]

    def class_to_task(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_tasks, dtype=np.int64), self.task_sizes)

    def remap(self) -> np.ndarray:
        """original label -> incremental index (the inverse permutation)."""
        return np.argsort(self.class_order)

    def n_seen(self, task_index: int) -> int:
        return sum(self.task_sizes[: task_index + 1])


def split_tasks(stream: StreamBlock, n_classes: int, master_seed: int) -> TaskStream:
    """The block's task sizes over n_classes, judged before the class order is
    drawn from class_order_seed (None: a seed derived from master_seed)."""
    tasks = stream.tasks
    if stream.base_fraction == 0.0:
        if n_classes % tasks != 0:
            raise ValueError(f"{n_classes} classes do not divide into {tasks} equal tasks")
        sizes = [n_classes // tasks] * tasks
    else:  # 0.5: one big first block holding half the classes (tasks + 1 blocks)
        if n_classes % 2 != 0:
            raise ValueError(f"{n_classes} classes cannot be halved")
        rest = n_classes // 2
        if rest % tasks != 0:
            raise ValueError(f"{rest} remaining classes do not divide into {tasks} tasks")
        sizes = [rest] + [rest // tasks] * tasks
    seed = (stream_seed(master_seed, "class-order-root") if stream.class_order_seed is None
            else stream.class_order_seed)
    order = stream_rng(seed, "class-order").permutation(n_classes).tolist()
    return TaskStream(class_order=order, task_sizes=sizes)

"""The incremental classification network.

A feature extractor (patch embedding, a stack of multi-head self-attention
blocks, then task-semantic aggregation blocks driven by a learnable
task-shared embedding) feeds a growable linear classifier. The aggregation
head cross-attends a single query embedding onto the patch sequence, so the
extracted feature has a fixed width regardless of patch count.

Batches are processed as one row-stacked matrix per layer, and the graph a
forward pass records does not grow with batch size: the class token is
inserted by reshapes and one concat. Both kinds of block run one body,
``_attention_body``: the aggregation block is the self-attention body with
the task query in place of the patch rows as its queries and no residual.
That body makes one multi-head ``ad.attention(..., heads)`` call, which
keeps the quadratic score computation sample-local; that call reads q, k and
v through head-major views and keeps no copy of them. Every projection is one
``ad.matmul`` node, with its bias and any residual folded in. Parameter
tensors are float64 and live on the autodiff graph; frozen snapshots hold
detached copies only.
``predict`` goes through ``metrics.predict_outputs``, the one inference
routine, and records no graph.

Every parameter's name, shape, init and the config fields that set its shape
are declared once, in ``_parameter_specs`` (a block's in ``_block_specs``).
``draw_parameters`` builds the model's tensors from that table, each block
reads its own slice of them, and ``load_checkpoint`` checks a file against it.
``save_checkpoint`` replaces its file only once the whole file is written.
"""
from __future__ import annotations

import copy
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Iterator, get_type_hints

import numpy as np

from . import autodiff as ad
from . import metrics as MT
from .autodiff import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    image_side: int = 16
    channels: int = 1
    patch_side: int = 4
    embed_dim: int = 32
    heads: int = 4
    msa_blocks: int = 2
    tsa_blocks: int = 1
    mlp_ratio: int = 4
    classifier_input: str = "feature"  # "feature" | "feature_cls"

    def __post_init__(self):
        for name, least in (("image_side", 1), ("channels", 1), ("patch_side", 1),
                            ("embed_dim", 1), ("heads", 1), ("mlp_ratio", 1),
                            ("msa_blocks", 0), ("tsa_blocks", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )
        if self.image_side % self.patch_side != 0:
            raise ValueError(
                f"image_side {self.image_side} must be divisible by patch_side {self.patch_side}"
            )
        if self.classifier_input not in ("feature", "feature_cls"):
            raise ValueError(f"unknown classifier_input {self.classifier_input!r}")
        if self.msa_blocks == 0 and self.tsa_blocks == 0:
            # the class-token row is then cls_token + pos_token and the feature is the
            # tiled task_embedding, whatever classifier_input picks
            raise ValueError("msa_blocks and tsa_blocks are both 0: no attention block "
                             "reads the patches, so the classifier sees no pixel")
        if self.tsa_blocks == 0 and self.classifier_input == "feature":
            # the feature is then the tiled task_embedding: the head never sees the image
            raise ValueError('tsa_blocks 0 needs classifier_input "feature_cls": with '
                             '"feature" the classifier reads no image content')

    @property
    def n_patches(self) -> int:
        return (self.image_side // self.patch_side) ** 2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_side**2

    @property
    def classifier_width(self) -> int:
        return self.embed_dim * (2 if self.classifier_input == "feature_cls" else 1)


def _block_specs(cfg: ModelConfig, kind: str):
    """Yield (name, shape, init, fields) for each parameter of one "msa" block (norms
    norm1, norm2; projections w_*) or "tsa" block (normq, normz, norm2; v_*)."""
    d, hidden = cfg.embed_dim, cfg.embed_dim * cfg.mlp_ratio
    width, mlp = ("embed_dim",), ("embed_dim", "mlp_ratio")
    norms, proj = (("norm1",), "w") if kind == "msa" else (("normq", "normz"), "v")
    for norm in norms + ("norm2",):
        yield f"{norm}_gain", (d,), "ones", width
        yield f"{norm}_bias", (d,), "zeros", width
    for role in "qkvo":
        yield f"{proj}_{role}", (d, d), "fan_in", width
    yield "mlp.w1", (d, hidden), "fan_in", mlp
    yield "mlp.b1", (hidden,), "zeros", mlp
    yield "mlp.w2", (hidden, d), "fan_in", mlp
    yield "mlp.b2", (d,), "zeros", width


def _parameter_specs(cfg: ModelConfig, n_classes: int):
    """Yield (name, shape, init, fields) for every parameter of
    IncrementalModel(cfg, n_classes), in the order its initializer draws them.
    `fields` are the ModelConfig fields (and n_classes) the shape derives from."""
    d, width = cfg.embed_dim, ("embed_dim",)
    yield "patch_proj", (cfg.patch_dim, d), "fan_in", ("channels", "patch_side", "embed_dim")
    yield "patch_bias", (d,), "zeros", width
    yield "cls_token", (1, d), "normal", width
    yield "pos_token", (cfg.n_patches + 1, d), "normal", ("image_side", "patch_side", "embed_dim")
    for kind, count in (("msa", cfg.msa_blocks), ("tsa", cfg.tsa_blocks)):
        for i in range(count):
            for name, shape, init, fields in _block_specs(cfg, kind):
                yield f"{kind}{i}.{name}", shape, init, fields
    yield "task_embedding", (1, d), "normal", width
    yield ("classifier.weight", (n_classes, cfg.classifier_width), "normal",
           ("n_classes", "embed_dim", "classifier_input"))
    yield "classifier.bias", (n_classes,), "zeros", ("n_classes",)


def format_bytes(size: int) -> str:
    """`size` bytes in the largest binary unit up to EiB, to 3 significant digits."""
    shown, unit = float(size), 0
    while shown >= 1024 and unit < 6:
        shown, unit = shown / 1024, unit + 1
    return f"{shown:.3g} {('B', 'KiB', 'MiB', 'GiB', 'TiB', 'PiB', 'EiB')[unit]}"


def draw_parameters(specs, rng: np.random.Generator) -> dict[str, Tensor]:
    """Parameter tensors for (name, shape, init, fields) specs, drawn from rng in
    spec order ("zeros" and "ones" draw nothing). A tensor too large to allocate
    is a ValueError naming its spec."""
    params: dict[str, Tensor] = {}
    for name, shape, init, fields in specs:
        size = math.prod(shape) * 8
        try:
            if size > sys.maxsize:  # numpy cannot describe a larger array
                raise MemoryError
            if init == "normal":
                data = rng.normal(0.0, INIT_STD, size=shape)
            elif init == "fan_in":
                # fan-in-scaled so matrix products preserve activation scale: a fixed
                # small std starves the aggregation head (no residual carries the input
                # signal around it), collapsing class separation at init
                data = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
            else:
                data = np.zeros(shape) if init == "zeros" else np.ones(shape)
            params[name] = ad.parameter(data)
        except MemoryError:
            raise ValueError(
                f"model parameter {name!r} of shape {shape}, set by {', '.join(fields)}, "
                f"needs {format_bytes(size)} of float64, more than can be allocated") from None
    return params


def _attention_body(p: dict[str, Tensor], proj: str, queries: Tensor, context: Tensor,
                    batch: int, heads: int, skip: Tensor | None = None) -> Tensor:
    """The body both blocks share: multi-head attention from `queries` onto
    `context` over `batch` stacked samples, its output projection plus `skip`,
    then norm2 and an MLP whose second map takes the projection as its ``skip``.

    The query/key/value projections ``p[proj + "_q"]`` and so on are full
    width-by-width matrices; head h reads column block h inside one attention
    call, through a head-major view of the projection, not a copy
    (``ad.attention`` copies only v, for p·v, and drops that copy at once). q is
    scaled by 1/sqrt(head width). Each residual is the ``skip`` of the product
    that feeds it, so none keeps a product the backward pass never reads.
    """
    # no local holds q, k or v: a forward pass recording no graph frees them as
    # soon as attention returns, not while the wider MLP runs
    side_by_side = ad.attention(
        ad.scale(ad.matmul(queries, p[f"{proj}_q"]), 1.0 / math.sqrt(queries.shape[1] // heads)),
        ad.matmul(context, p[f"{proj}_k"]), ad.matmul(context, p[f"{proj}_v"]), batch, heads)
    attended = ad.matmul(side_by_side, p[f"{proj}_o"], skip=skip)
    hidden = ad.gelu(ad.matmul(ad.layer_norm(attended, p["norm2_gain"], p["norm2_bias"]),
                               p["mlp.w1"], p["mlp.b1"]))
    return ad.matmul(hidden, p["mlp.w2"], p["mlp.b2"], attended)


@dataclass
class SelfAttentionBlock:
    """Pre-normed multi-head self-attention with a residual MLP tail: norm1, then
    ``_attention_body`` with the input as its own queries and as the residual.
    ``p`` holds the block's tensors under the names, shapes and inits that
    ``_block_specs(cfg, "msa")`` declares.
    """

    cfg: ModelConfig
    p: dict[str, Tensor]

    def forward_rows(self, z: Tensor, batch: int) -> Tensor:
        """z holds `batch` samples stacked as consecutive row blocks."""
        zn = ad.layer_norm(z, self.p["norm1_gain"], self.p["norm1_bias"])
        return _attention_body(self.p, "w", zn, zn, batch, self.cfg.heads, skip=z)


@dataclass
class AggregationBlock:
    """Cross-attention from one query embedding onto the patch sequence:
    ``_attention_body`` with the normed task query attending to the normed patch
    rows. ``p`` holds the block's tensors under the names, shapes and inits that
    ``_block_specs(cfg, "tsa")`` declares.
    """

    cfg: ModelConfig
    p: dict[str, Tensor]

    def forward_rows(self, e: Tensor, z: Tensor, batch: int) -> Tensor:
        """e holds one query row per sample; z the stacked patch rows."""
        p = self.p
        # output is the projected head concat plus an MLP term; deliberately no
        # residual from the incoming query embedding
        return _attention_body(p, "v", ad.layer_norm(e, p["normq_gain"], p["normq_bias"]),
                               ad.layer_norm(z, p["normz_gain"], p["normz_bias"]),
                               batch, self.cfg.heads)


def image_to_patches(images: np.ndarray, patch_side: int) -> np.ndarray:
    """(b, C, S, S) -> (b * patches, C * patch_side**2): each image's raster-order
    non-overlapping patches in turn, each flattened channel-first."""
    b, c, s, s2 = images.shape
    if s != s2 or s % patch_side != 0:
        raise ValueError(f"image shape {images.shape} incompatible with patch side {patch_side}")
    n_side = s // patch_side
    x = images.reshape(b, c, n_side, patch_side, n_side, patch_side)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x.reshape(b * n_side * n_side, c * patch_side**2))


class IncrementalModel:
    """Feature extractor plus a classifier that grows one block of rows per task.

    The class token is appended as the last row of the embedded sequence; the
    classifier consumes the aggregated task-shared feature (optionally
    concatenated with the class-token row, per config).
    """

    def __init__(self, cfg: ModelConfig, n_classes: int, rng: np.random.Generator):
        if n_classes < 1:
            raise ValueError("model needs at least one class")
        self.cfg = cfg
        self.n_classes = n_classes
        self.params = draw_parameters(_parameter_specs(cfg, n_classes), rng)
        groups: dict[str, dict[str, Tensor]] = {}  # "msa0" -> {"w_q": ...}, by first dot
        for name, tensor in self.params.items():
            group, _, rest = name.partition(".")
            groups.setdefault(group, {})[rest] = tensor
        self.msa = [SelfAttentionBlock(cfg, groups[f"msa{i}"]) for i in range(cfg.msa_blocks)]
        self.tsa = [AggregationBlock(cfg, groups[f"tsa{i}"]) for i in range(cfg.tsa_blocks)]
        self.frozen = False

    def parameters(self) -> dict[str, Tensor]:
        """Every parameter tensor by name, in draw order (a new dict, the same tensors)."""
        return dict(self.params)

    # -- forward ------------------------------------------------------------

    def _embed_batch(self, images: np.ndarray) -> Tensor:
        """(b, C, S, S) -> (b*(N+1), D) with each sample's class token last.

        The one place pixel bytes become floats: uint8 patches are divided by 255.
        """
        expected = (self.cfg.channels, self.cfg.image_side, self.cfg.image_side)
        if images.shape[1:] != expected:
            raise ValueError(f"image shape {images.shape[1:]} does not match config {expected}")
        b = len(images)
        n = self.cfg.n_patches
        patches = image_to_patches(images, self.cfg.patch_side)
        if patches.dtype == np.uint8:
            patches = patches / 255.0
        p = self.params
        z_e = ad.matmul(ad.constant(patches), p["patch_proj"], p["patch_bias"])
        # one row per sample: its n patch rows, then its class token
        d = self.cfg.embed_dim
        per_sample = ad.concat([ad.reshape(z_e, (b, n * d)), ad.tile_rows(p["cls_token"], b)],
                               axis=1)
        stacked = ad.reshape(per_sample, (b * (n + 1), d))
        return ad.add(stacked, ad.tile_rows(p["pos_token"], b))

    def forward_batch(self, images: np.ndarray) -> tuple[Tensor, Tensor]:
        """(b, C, S, S) -> (b, n_classes) logits and (b, embed_dim) features.

        Pixels are floats in [0,1] or uint8 bytes; bytes are scaled by 1/255 for this
        batch only, which gives bit for bit the logits of the pre-scaled floats.
        """
        b = len(images)
        z = self._embed_batch(images)
        for block in self.msa:
            z = block.forward_rows(z, b)
        e = ad.tile_rows(self.params["task_embedding"], b)
        for block in self.tsa:
            e = block.forward_rows(e, z, b)
        if self.cfg.classifier_input == "feature_cls":
            d = self.cfg.embed_dim
            per_sample = ad.reshape(z, (b, (self.cfg.n_patches + 1) * d))
            cls_rows = ad.split(per_sample, [self.cfg.n_patches * d, d], axis=1)[1]
            head_in = ad.concat([e, cls_rows], axis=1)
        else:
            head_in = e
        # broadcast-multiply instead of a GEMM: each logit reduces over its own
        # weight row only, so old-class logits are bit-identical across
        # classifier expansions (a GEMM's blocking depends on the row count)
        width = self.cfg.classifier_width
        prod = ad.mul(ad.reshape(head_in, (b, 1, width)), self.params["classifier.weight"])
        logits = ad.add(ad.sum_(prod, axis=2), self.params["classifier.bias"])
        return logits, e

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Softmax probabilities for one image: ``metrics.predict_outputs`` on a stack of one."""
        return MT.predict_outputs(self, image[np.newaxis])[0][0]

    # -- task lifecycle -------------------------------------------------------

    def expand_classifier(self, k_new: int, rng: np.random.Generator) -> None:
        """Append k_new output rows; existing rows and biases are copied bit-identically."""
        if self.frozen:
            raise RuntimeError("cannot expand a frozen snapshot")
        if k_new < 1:
            raise ValueError("expansion must add at least one class")
        new_rows = rng.normal(0.0, INIT_STD, size=(k_new, self.cfg.classifier_width))
        # in place, so an optimizer holding these tensors keeps tracking them; their
        # gradients have the old shape and are dropped
        weight, bias = self.params["classifier.weight"], self.params["classifier.bias"]
        weight.data = np.vstack([weight.data, new_rows])
        bias.data = np.concatenate([bias.data, np.zeros(k_new)])
        weight._grad = bias._grad = None
        self.n_classes += k_new

    def snapshot(self) -> "IncrementalModel":
        """Frozen deep copy; its parameters never join a gradient record."""
        clone = copy.deepcopy(self)
        clone.frozen = True
        for tensor in clone.parameters().values():
            tensor.requires_grad = False
            tensor._grad = None
        return clone

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path: str | Path, task_index: int) -> None:
        """Write the bytes of json.dumps(payload), one parameter at a time, so the
        float lists and the text of the whole payload are never in memory at once."""
        head = json.dumps({"format_version": 1, "task_index": task_index,
                           "n_classes": self.n_classes, "config": asdict(self.cfg)})
        with atomic_open(path) as out:
            out.write(head[:-1] + ', "params": {')
            for i, (name, tensor) in enumerate(sorted(self.parameters().items())):
                entry = {"shape": list(tensor.shape), "data": tensor.data.reshape(-1).tolist()}
                out.write((", " if i else "") + f"{json.dumps(name)}: {json.dumps(entry)}")
            out.write("}}")


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """A UTF-8 text file that takes the place of `path` when the block ends.

    It is written beside `path` under a temporary name, then renamed onto it, so
    an exception removes it and leaves any earlier `path` byte-identical. Lines
    end in the "\\n" the writer wrote, on every platform.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as out:
            yield out
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_json(path: str | Path):
    """The JSON value in UTF-8 file `path`. Malformed JSON or text raises json's
    or the codec's ValueError; nesting deeper than the parser can recurse, which
    would raise RecursionError, is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} nests JSON arrays or objects too deeply to read") from None


_JSON_KINDS = {int: "an integer", str: "a string", dict: "an object"}


def _expect(value, kind: type, field: str) -> None:
    """Raise a ValueError naming `field` unless `value` is a `kind` (a bool is not an integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"checkpoint field {field!r} must be {_JSON_KINDS[kind]}, "
                         f"got {type(value).__name__}")


def load_checkpoint(path: str | Path) -> tuple["IncrementalModel", int]:
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    _expect(version, int, "format_version")  # True == 1.0 == 1, so the type is checked first
    if version != 1:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for key, kind in (("task_index", int), ("n_classes", int), ("config", dict), ("params", dict)):
        if key not in payload:
            raise ValueError(f"checkpoint is missing {key!r}")
        _expect(payload[key], kind, key)
    for key in ("task_index", "n_classes"):
        if payload[key] < 1:
            raise ValueError(f"checkpoint field {key!r} must be at least 1, got {payload[key]}")
    hints = get_type_hints(ModelConfig)
    for key in sorted(payload["config"].keys() | hints.keys()):
        if key not in hints:
            raise ValueError(f"checkpoint config has unknown key {key!r}")
        if key not in payload["config"]:
            raise ValueError(f"checkpoint config is missing {key!r}")
        _expect(payload["config"][key], hints[key], f"config.{key}")
    params = {}
    for name, entry in payload["params"].items():
        for key in ("shape", "data"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"checkpoint params entry {name!r} is missing {key!r}")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
            raise ValueError(f"checkpoint params entry {name!r} has shape {shape!r}, "
                             "not a list of non-negative integers")
        data = entry["data"]
        # numpy would read true as 1.0 and a nested list whose size fits the shape
        if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
            raise ValueError(f"checkpoint params entry {name!r} has data that is not "
                             "a flat list of numbers")
        try:
            params[name] = np.array(data, dtype=np.float64).reshape(shape)
        except (TypeError, ValueError, OverflowError) as exc:  # an integer past the largest float
            raise ValueError(f"checkpoint params entry {name!r} is malformed: {exc}") from None
        if not np.isfinite(params[name]).all():
            raise ValueError(f"checkpoint params entry {name!r} holds a non-finite value")
    # every shape is compared before the skeleton is built, so a wild extent cannot size it
    try:
        cfg, n_classes = ModelConfig(**payload["config"]), payload["n_classes"]
    except ValueError as exc:
        raise ValueError(f"checkpoint config is invalid: {exc}") from None
    unused = set(params)
    for name, shape, _, fields in _parameter_specs(cfg, n_classes):
        if name not in params:
            raise ValueError(f"checkpoint params entry {name!r} is missing")
        if params[name].shape != shape:
            named = (repr(f if f == "n_classes" else f"config.{f}") for f in fields)
            raise ValueError(f"checkpoint params entry {name!r} has shape {params[name].shape}, "
                             f"not the {shape} that {', '.join(named)} set")
        unused.discard(name)
    if unused:
        raise ValueError(f"checkpoint params entry {min(unused)!r} is not in the architecture")
    model = IncrementalModel(cfg, n_classes, np.random.default_rng(0))  # overwritten below
    for name, tensor in model.params.items():
        tensor.data = params[name]
    return model, payload["task_index"]

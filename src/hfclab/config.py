"""Run configuration: a versioned JSON schema validated before any work.

Each block's keys, types and defaults are the fields of the dataclass it
parses into, and that dataclass alone checks their values. Parsing checks the
JSON shape (types, finiteness, missing and unknown keys, each refused with its
field path so typos fail fast) and the one rule that spans two blocks.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .continual import TrainerConfig
from .data import CIFAR_CHANNELS, CIFAR_SIDE, CifarBlock, StreamBlock, SyntheticBlock
from .losses import LossConfig
from .model import ModelConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RunConfig:
    dataset: SyntheticBlock | CifarBlock
    stream: StreamBlock
    model: ModelConfig
    trainer: TrainerConfig


_DATASETS = {"synthetic": SyntheticBlock, "cifar100": CifarBlock}
# fields filled in from other blocks; their own block may not set them
_DERIVED = {"model": ("image_side", "channels"), "trainer": ("flip_augment", "loss")}
_TYPES = {int: "integer", str: "string", bool: "boolean", dict: "object"}


def _is_number(value) -> bool:
    """A number that converts to a finite float (json.loads also yields NaN,
    +-Infinity and integers too large for a float)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _take(block: dict, path: str, key: str, hint, default=MISSING):
    """Pop block[key] checked against a type hint, or return the default."""
    path = f"{path}.{key}"
    if key not in block:
        if default is MISSING:
            raise ConfigError(path, "required key missing")
        return default
    value = block.pop(key)
    if isinstance(hint, UnionType):  # `X | None`, the schema's only union
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
            raise ConfigError(path, "expected a list of finite numbers")
        return tuple(float(v) for v in value)
    if hint is float:
        if not _is_number(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
        raise ConfigError(path, f"expected {_TYPES[hint]}, got {value!r}")
    return value


def _fields(raw: dict, path: str, cls, skip: tuple[str, ...] = ()) -> dict:
    """Checked values for the fields of `cls` (minus `skip`), defaults filled in."""
    raw = dict(raw)
    hints = get_type_hints(cls)
    values = {f.name: _take(raw, path, f.name, hints[f.name], f.default)
              for f in fields(cls) if f.name not in skip}
    if raw:
        raise ConfigError(f"{path}.{sorted(raw)[0]}", "unknown key")
    return values


def _build(cls, path: str, values: dict):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(raw: Any) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("$", "config root must be an object")
    raw = dict(raw)
    version = _take(raw, "$", "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError("$.schema_version", f"unsupported version {version}")
    dataset = dict(_take(raw, "$", "dataset", dict))
    stream_raw = _take(raw, "$", "stream", dict)
    blocks = {name: _take(raw, "$", name, dict, {}) for name in ("model", "trainer", "losses")}
    if raw:
        raise ConfigError(f"$.{sorted(raw)[0]}", "unknown key")

    dtype = _take(dataset, "$.dataset", "type", str)
    if dtype not in _DATASETS:
        raise ConfigError("$.dataset.type", f"unknown dataset type {dtype!r}")
    data = _build(_DATASETS[dtype], "$.dataset", _fields(dataset, "$.dataset", _DATASETS[dtype]))
    stream = _build(StreamBlock, "$.stream", _fields(stream_raw, "$.stream", StreamBlock))
    model = _fields(blocks["model"], "$.model", ModelConfig, _DERIVED["model"])
    trainer = _fields(blocks["trainer"], "$.trainer", TrainerConfig, _DERIVED["trainer"])
    losses = _build(LossConfig, "$.losses", _fields(blocks["losses"], "$.losses", LossConfig))

    # the one rule across blocks; a patch_side below 1 is ModelConfig's to refuse
    cifar = isinstance(data, CifarBlock)
    side, channels = (CIFAR_SIDE, CIFAR_CHANNELS) if cifar else (data.side, data.channels)
    patch = model["patch_side"]
    if patch > 0 and side % patch != 0:
        if cifar:
            raise ConfigError("$.model.patch_side",
                              f"must divide the cifar100 image side {side}, got {patch}")
        raise ConfigError("$.dataset.side", f"must be divisible by model patch_side {patch}")
    return RunConfig(
        dataset=data, stream=stream,
        model=_build(ModelConfig, "$.model",
                     dict(model, image_side=side, channels=channels)),
        trainer=_build(TrainerConfig, "$.trainer",
                       dict(trainer, flip_augment=cifar and data.horizontal_flip, loss=losses)),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """Echo that re-parses to an equivalent RunConfig."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "dataset": {"type": next(name for name, block in _DATASETS.items()
                                 if isinstance(cfg.dataset, block)),
                    **asdict(cfg.dataset)},
        "stream": asdict(cfg.stream),
        "losses": asdict(cfg.trainer.loss),
    }
    for name, derived in _DERIVED.items():
        block = asdict(getattr(cfg, name))
        out[name] = {key: value for key, value in block.items() if key not in derived}
    return out

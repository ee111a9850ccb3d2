"""Command-line surface: seeded training runs, gradient checks, run comparison.

Exit codes: 0 success, 1 runtime failure (message names the failing task or
run), 2 configuration problems (message names the offending field or path).
"""
from __future__ import annotations

import argparse
import ctypes
import csv
import dataclasses
import sys
from pathlib import Path

from . import continual as C
from . import data as D
from .config import ConfigError, RunConfig, _is_number, config_to_dict, parse_config
from .gradcheck import run_all_checks
from .model import IncrementalModel, atomic_open, format_bytes, read_json
from .seeding import stream_rng, stream_seed


def _generate(block: D.SyntheticBlock, split: str) -> D.Dataset:
    """generate_synthetic, with a pixel array too large to allocate reported as
    the config's fault, naming the extents that multiply up to it."""
    key = "samples_per_class" if split == "train" else "test_samples_per_class"
    per_class = getattr(block, key)
    size = block.classes * per_class * block.channels * block.side ** 2 * 8
    if size <= sys.maxsize:  # numpy cannot describe a larger array
        try:
            return D.generate_synthetic(block, split)
        except MemoryError:
            pass
    raise ValueError(
        f"$.dataset.classes {block.classes} x $.dataset.{key} {per_class} x "
        f"$.dataset.channels {block.channels} x $.dataset.side {block.side}^2 "
        f"float64 pixels need {format_bytes(size)}, more than can be allocated")


def build_datasets(cfg: RunConfig, master_seed: int) -> tuple[D.Dataset, D.Dataset]:
    block = cfg.dataset
    if isinstance(block, D.CifarBlock):
        return D.load_cifar100_binary(block.train_path, block.test_path)
    if block.seed is None:
        block = dataclasses.replace(block, seed=stream_seed(master_seed, "dataset"))
    return _generate(block, "train"), _generate(block, "test")


def cmd_train(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        raw = read_json(config_path)
    except ValueError as exc:  # malformed, not UTF-8, or nested too deeply
        print(f"error: config {config_path} is not readable UTF-8 JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw)
        n_classes = cfg.dataset.classes
        try:
            stream = D.split_tasks(cfg.stream, n_classes, args.seed)
        except ValueError as exc:  # the classes do not split into the tasks asked for
            odd = cfg.stream.base_fraction == 0.5 and n_classes % 2
            raise ConfigError("$.dataset.classes" if odd else "$.stream.tasks", str(exc)) from None
        except MemoryError:  # a class order too long to hold
            raise ConfigError("$.dataset.classes", f"an order of {n_classes} classes is more "
                              "than can be allocated") from None
        train_set, test_set = build_datasets(cfg, args.seed)
        model = IncrementalModel(cfg.model, stream.task_sizes[0],
                                 stream_rng(args.seed, "init"))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        last = C.run_stream(stream, train_set, test_set, model, cfg.trainer,
                            master_seed=args.seed, out_dir=args.out,
                            config_echo=config_to_dict(cfg))[-1]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write reports to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"run complete: avg top-1 {last.avg_incremental:.4f}, "
          f"fh {last.fh:.6f}; reports in {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.tolerance < float("inf"):
        print(f"error: --tolerance must be finite and > 0, got {args.tolerance}", file=sys.stderr)
        return 2
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    offenders = []
    for r in results:
        ok = r.rel_err < args.tolerance
        print(f"{r.name:<{width}}  {r.rel_err:12.3e}  {'ok' if ok else 'FAIL'}")
        if not ok:
            offenders.append(r.name)
    if offenders:
        print(f"exceeded tolerance {args.tolerance:g}: {', '.join(offenders)}",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} checks within tolerance {args.tolerance:g}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for run_dir in args.runs:
        summary_path = Path(run_dir) / "summary.json"
        try:
            summary = read_json(summary_path)
            acc, fh = summary["avg_incremental_acc"], summary["fh"]
            if not (_is_number(acc) and _is_number(fh)):
                raise ValueError(f"avg_incremental_acc {acc!r} and fh {fh!r} "
                                 "must be finite numbers")
            rows.append((Path(run_dir).name, float(acc), float(fh)))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot read run {run_dir}: {exc}", file=sys.stderr)
            return 1
    rows.sort(key=lambda r: -r[1])
    try:
        with atomic_open(args.out) as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["variant", "avg_acc", "fh"])
            for name, acc, fh in rows:
                writer.writerow([name, repr(acc), repr(fh)])
    except OSError as exc:
        print(f"error: cannot write comparison to {args.out}: {exc}", file=sys.stderr)
        return 2
    name_width = max(len(r[0]) for r in rows)
    print(f"{'variant':<{name_width}}  {'avg_acc':>10}  {'fh':>12}")
    for name, acc, fh in rows:
        print(f"{name:<{name_width}}  {acc:>10.4f}  {fh:>12.6f}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hfclab",
                                     description="class-incremental learning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a seeded incremental training stream")
    p_train.add_argument("--config", required=True, help="path to run config JSON")
    p_train.add_argument("--out", required=True, help="output directory for reports")
    p_train.add_argument("--seed", type=int, default=0, help="master seed")
    p_train.set_defaults(func=cmd_train)

    p_check = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_check.add_argument("--tolerance", type=float, default=1e-4)
    p_check.set_defaults(func=cmd_gradcheck)

    p_cmp = sub.add_parser("compare", help="tabulate finished runs")
    p_cmp.add_argument("--runs", nargs="+", required=True, help="run output directories")
    p_cmp.add_argument("--out", default="comparison.csv", help="comparison CSV path")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed arrays instead of handing them back to the OS.

    Every training step frees and reallocates the same array sizes. By default
    glibc returns a freed heap top and unmaps large blocks, and the next step
    faults the same pages back in one by one. Arrays up to 32 MB (glibc's
    ceiling for this threshold) now come from the heap, and the heap is
    trimmed only past 256 MB free. Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def run_blas_on_one_thread() -> None:
    """Pin numpy's OpenBLAS (wheel or distro build) to one thread, over OPENBLAS_NUM_THREADS.
    Its products here are too small to split: a second thread only spins, and a split
    changes the summation order. Without OpenBLAS this does nothing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    setters = [getattr(lib, s) for lib in libs for s in _OPENBLAS_SETTERS if hasattr(lib, s)]
    if setters:
        setters[0](1)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    keep_freed_memory()
    run_blas_on_one_thread()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

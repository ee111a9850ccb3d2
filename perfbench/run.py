"""hfclab benchmark: whole class-incremental runs through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. --trace 0 times fresh, untraced
`hfclab train` child processes for about S seconds and reports the end-to-end
metrics of BENCHMARK.json (medians over the children). --trace 1 also runs
`hfclab.cli.main` in this process under the outside-in tracer and reports the
per-layer metrics; on directional_full it also traces `hfclab gradcheck`.
Human-readable lines come first; the last line of standard output is the
JSON result. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import children
import machine
import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

MIN_TRAIN_CHILDREN = 3  # untraced children per timed run, at least
UNTRACED_SHARE = 0.5  # of --seconds, spent on the untraced baseline in traced mode
TRACED_RUNS = 2  # traced in-process training runs, to compare their exact counts
# A gradcheck child takes 12-20 s, too long to time several per run, so the
# gradcheck layer is measured only traced, in the traced run of this workload.
GRADCHECK_WORKLOAD = "directional_full"


@dataclass
class Measurement:
    """Per-child end-to-end values plus the operation tally of one run."""

    values: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics_csv: bytes | None = None
    quality: dict[str, float] = field(default_factory=dict)

    def add(self, **values: float) -> None:
        for k, v in values.items():
            self.values.setdefault(k, []).append(v)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def median(self, key: str) -> float:
        return statistics.median(self.values[key])


def measure(workload, seconds: float, env: dict, scratch: Path, min_children: int) -> Measurement:
    m = Measurement()
    deadline = time.perf_counter() + seconds
    last_wall = 0.0
    while m.attempted < min_children or time.perf_counter() + last_wall <= deadline:
        outcome = children.train_once(workload, env, scratch)
        m.attempted += 1
        last_wall = outcome.child.wall_s
        problems = list(outcome.problems)
        if not problems:
            if m.metrics_csv is None:
                m.metrics_csv = outcome.metrics_csv
            elif outcome.metrics_csv != m.metrics_csv:
                problems.append("metrics.csv is not byte-identical to the first run of this seed")
        if problems:
            m.fail(problems)
            continue
        child = outcome.child
        m.add(setup_s=child.wall_s - outcome.run_s, run_s=outcome.run_s,
              samples_per_s=workload.counts.samples_stepped / outcome.run_s,
              run_cpu_s=child.cpu_s, peak_rss_mb=child.rss_mb)
        m.quality = {"avg_incremental_acc": outcome.avg_incremental_acc, "fh": outcome.fh}
    return m


# ---------------------------------------------------------------------------
# traced runs


@dataclass
class TracedRun:
    layer: dict[str, float]
    run_s: float
    problems: list[str]
    metrics_csv: bytes
    step_ms: list[float]
    table: dict


def run_cli_traced(argv: list[str]) -> tuple[tr.Tracer, int, str, float]:
    """cli.main(argv) in this process under a fresh tracer: (tracer, exit
    code, standard output, wall seconds)."""
    from hfclab import cli  # imported after main() has put src/ on sys.path

    tracer = tr.Tracer()
    saved_threads = os.environ.get("HFC_THREADS")
    os.environ["HFC_THREADS"] = "1"
    stdout = io.StringIO()
    tracer.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        if saved_threads is None:
            os.environ.pop("HFC_THREADS", None)
        else:
            os.environ["HFC_THREADS"] = saved_threads
    return tracer, code, stdout.getvalue(), wall


def save_spans(tracer: tr.Tracer, name: str) -> None:
    """Raw spans go under .perfbench-out/; a later traced run of the same
    name overwrites them."""
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{name}-spans.npz")


def traced_run(workload, scratch: Path, index: int) -> TracedRun:
    """One in-process training run of cli.main under the tracer."""
    out_dir = scratch / f"traced{index}"
    tracer, code, _, wall = run_cli_traced(
        ["train", "--config", str(workload.config_path), "--out", str(out_dir),
         "--seed", str(workload.seed)])
    save_spans(tracer, f"{workload.name}-run{index}")
    layer = tr.layer_metrics(tracer)
    if code != 0:
        return TracedRun(layer, wall, [f"traced run exit code {code}"], b"", tracer.step_ms,
                         tracer.table())
    problems, summary, raw = children.check_run_outputs(out_dir, workload.counts.tasks)
    shutil.rmtree(out_dir, ignore_errors=True)
    counts = workload.counts
    expected = {"continual.train_steps": counts.train_steps,
                "metrics.eval_samples": counts.eval_samples,
                "model.predict.calls": counts.teacher_predicts}
    seen = dict((k, layer[k]) for k in expected)
    seen_samples = tracer.counts["continual.samples_stepped"]
    if seen != expected or seen_samples != counts.samples_stepped:
        problems.append(f"traced counts {seen}, {seen_samples} samples differ from the "
                        f"config's {expected}, {counts.samples_stepped} samples")
    if summary:
        layer["metrics.avg_incremental_acc"] = float(summary["avg_incremental_acc"])
        layer["metrics.fh"] = float(summary["fh"])
        wall = float(summary["wall_clock_seconds"])
    return TracedRun(layer, wall, problems, raw, tracer.step_ms, tracer.table())


def traced_gradcheck(workload_name: str) -> tuple[dict[str, float], list[str]]:
    """`hfclab gradcheck` in-process under the tracer: its gradcheck.* metrics
    and the problems found (a check over tolerance, or a count the tracer and
    the CLI disagree on)."""
    tracer, code, stdout, _ = run_cli_traced(["gradcheck"])
    save_spans(tracer, f"{workload_name}-gradcheck")
    layer = {k: v for k, v in tr.layer_metrics(tracer).items() if k.startswith("gradcheck.")}
    problems, checks = children.parse_gradcheck(code, stdout)
    if not problems and layer["gradcheck.checks"] != checks:
        problems.append(f"tracer saw {layer['gradcheck.checks']} checks, "
                        f"the CLI reported {checks}")
    return layer, problems


def measure_traced(workload, seconds: float, env: dict, scratch: Path) -> tuple[Measurement, dict, dict]:
    base = measure(workload, seconds * UNTRACED_SHARE, env, scratch, min_children=1)
    if not base.values.get("run_s"):
        raise RuntimeError("no untraced run succeeded: " + "; ".join(base.problems[:5]))
    runs = [traced_run(workload, scratch, index) for index in range(1, TRACED_RUNS + 1)]
    for run in runs:
        base.attempted += 1
        if base.metrics_csv is not None and run.metrics_csv \
                and run.metrics_csv != base.metrics_csv:
            run.problems.append("traced metrics.csv differs from the untraced runs of this seed")
        if run.problems:
            base.fail(run.problems)
    first = runs[0].layer
    for run in runs[1:]:
        differing = {k: (first[k], run.layer[k]) for k in tr.EXACT_COUNTS
                     if run.layer[k] != first[k]}
        if differing:
            base.fail([f"exact counts differ between traced runs: {differing}"])
    deterministic = set(tr.EXACT_COUNTS) | {"metrics.avg_incremental_acc", "metrics.fh"}
    metrics = {key: value if key in deterministic
               else statistics.median(run.layer[key] for run in runs)
               for key, value in first.items()}
    steps = [ms for run in runs for ms in run.step_ms]
    metrics["continual.step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    metrics["continual.step_ms_p99"] = float(np.percentile(steps, 99)) if steps else 0.0
    metrics["tracing.overhead_s"] = (statistics.median(run.run_s for run in runs)
                                     - base.median("run_s"))
    if workload.name == GRADCHECK_WORKLOAD:
        gradcheck, problems = traced_gradcheck(workload.name)
        base.attempted += 1
        if problems:
            base.fail(problems)
        metrics.update(gradcheck)
    return base, metrics, runs[0].table


# ---------------------------------------------------------------------------
# reporting


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def report(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metrics {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics}


def print_human(args, m: Measurement, metrics: dict, host: dict,
                table: dict | None) -> None:
    print(f"hfclab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("machine: " + json.dumps(host, sort_keys=True))
    counts = {k: len(v) for k, v in m.values.items()}
    print(f"operations: {m.attempted} attempted, {m.failed} failed; samples per metric {counts}")
    for problem in m.problems[:20]:
        print(f"  FAILED: {problem}")
    if m.quality:
        print("outputs: " + ", ".join(f"{k} {v!r}" for k, v in m.quality.items()))
    for name, entry in metrics.items():
        spread = ""
        if name in m.values and len(m.values[name]) > 1:
            spread = f"  (median of {len(m.values[name])}, range {min(m.values[name]):.6g}" \
                     f"..{max(m.values[name]):.6g})"
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}{spread}")
    if table:
        print("top spans by self time (first traced run):")
        for name, row in tr.sorted_by_self_time(table, 15):
            print(f"  {name:<40} calls {row['calls']:>8}  total {row['total_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hfclab" / "cli.py").is_file():
        print(f"error: hfclab sources not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    host = machine.describe()
    spec = load_spec()
    compileall.compile_dir(SRC / "hfclab", quiet=1)  # children start from warm bytecode
    env = children.child_env(SRC)
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        workload = workloads.generate(args.workload, args.seed, scratch)
        table = None
        if args.trace:
            m, values, table = measure_traced(workload, args.seconds, env, scratch)
            metrics = report(spec["per_layer"], values)
        else:
            m = measure(workload, args.seconds, env, scratch, MIN_TRAIN_CHILDREN)
            if not m.values.get("run_s"):
                raise RuntimeError("no run succeeded: " + "; ".join(m.problems[:5]))
            metrics = report(spec["end_to_end"],
                             {k: statistics.median(v) for k, v in m.values.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    print_human(args, m, metrics, host, table)
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=host, problems=m.problems,
                  samples=m.values, spans=table)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

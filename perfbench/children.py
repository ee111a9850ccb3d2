"""Untraced measurement: fresh `hfclab train` child processes, one at a time.

Each child gets the environment the benchmark was started with plus src/ on
PYTHONPATH; BLAS threads are left as a user would have them. Wall time is
taken around the whole child, CPU time and peak RSS come from its rusage.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 150.0
GRADCHECK_DONE = re.compile(r"^all (\d+) checks within tolerance", re.MULTILINE)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, scratch: Path) -> Child:
    """Run argv to completion; a child past CHILD_TIMEOUT_S is killed."""
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


@dataclass
class TrainOutcome:
    child: Child
    problems: list[str]
    run_s: float = math.nan
    metrics_csv: bytes = b""
    avg_incremental_acc: float = math.nan
    fh: float = math.nan


def check_run_outputs(out_dir: Path, tasks: int) -> tuple[list[str], dict, bytes]:
    """Problems with a finished run's reports, its summary, and metrics.csv bytes."""
    problems: list[str] = []
    metrics_path, summary_path = out_dir / "metrics.csv", out_dir / "summary.json"
    try:
        raw = metrics_path.read_bytes()
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    except (OSError, UnicodeDecodeError) as exc:
        return [f"metrics.csv unreadable: {exc}"], {}, b""
    task_column = [row[0] if row else "" for row in rows[1:]]
    if task_column != [str(t + 1) for t in range(tasks)]:
        problems.append(f"metrics.csv has task rows {task_column}, expected 1..{tasks}")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        values = [float(summary[k]) for k in ("wall_clock_seconds", "avg_incremental_acc", "fh")]
        if not all(math.isfinite(v) for v in values) or values[0] <= 0:
            problems.append(f"summary.json has non-finite or empty values {values}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary.json does not parse: {exc!r}")
        summary = {}
    missing = [t + 1 for t in range(tasks) if not (out_dir / f"task{t + 1}.ckpt.json").is_file()]
    if missing:
        problems.append(f"checkpoints missing for tasks {missing}")
    return problems, summary, raw


def train_once(workload, env: dict, scratch: Path) -> TrainOutcome:
    out_dir = scratch / "run"
    shutil.rmtree(out_dir, ignore_errors=True)
    child = run_child([sys.executable, "-m", "hfclab.cli", "train",
                       "--config", str(workload.config_path), "--out", str(out_dir),
                       "--seed", str(workload.seed)], env, scratch)
    if child.exit_code != 0:
        return TrainOutcome(child, [f"exit code {child.exit_code}: {child.stderr.strip()[-400:]}"])
    problems, summary, raw = check_run_outputs(out_dir, workload.counts.tasks)
    shutil.rmtree(out_dir, ignore_errors=True)
    if problems:
        return TrainOutcome(child, problems)
    return TrainOutcome(child, [], float(summary["wall_clock_seconds"]), raw,
                        float(summary["avg_incremental_acc"]), float(summary["fh"]))


def parse_gradcheck(exit_code: int, stdout: str) -> tuple[list[str], int]:
    found = GRADCHECK_DONE.search(stdout)
    if exit_code != 0 or found is None:
        failing = [line for line in stdout.splitlines() if line.rstrip().endswith("FAIL")]
        return [f"gradcheck exit code {exit_code}; over tolerance: {failing}"], 0
    return [], int(found.group(1))

"""Outside-in tracer for hfclab.

`Tracer.install()` replaces public functions and methods of hfclab's modules
with wrappers that record a span (name, start, end, parent) around each call,
and wraps the backward closure of every tensor an autodiff op returns, so
backward time is attributed to the op that recorded it. `uninstall()` puts
the originals back. Spans stay in memory until `save()`. Nothing under src/
changes; the wrappers neither read nor alter the numbers a run computes.

The tracer assumes one thread: run traced with HFC_THREADS=1.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# public autodiff ops -> metric label
OPS = {
    "add": "add", "mul": "mul", "div": "div", "scale": "scale", "add_const": "add_const",
    "log": "log", "exp": "exp", "power": "power", "gelu": "gelu", "concat": "concat",
    "split": "split", "transpose": "transpose", "reshape": "reshape",
    "tile_rows": "tile_rows", "sum_": "sum", "mean": "mean", "matmul": "matmul",
    "attention": "attention", "softmax": "softmax", "layer_norm": "layer_norm",
}

# (module, function) -> span name, for functions that need no special handling
PLAIN_FUNCTIONS = {
    ("losses", "gradient_stats"): "losses.gradient_stats",
    ("losses", "ce_loss"): "losses.ce_loss",
    ("losses", "gfc_loss"): "losses.gfc_loss",
    ("losses", "grd_loss"): "losses.grd_loss",
    ("losses", "relation_groundtruth"): "losses.relation_groundtruth",
    ("losses", "relation_prototypes"): "losses.relation_prototypes",
    ("losses", "objective"): "losses.objective",
    ("continual", "write_metrics_csv"): "continual.write_metrics_csv",
    ("continual", "write_summary_json"): "continual.write_summary_json",
    ("continual", "herding_select"): "continual.herding_select",
    ("metrics", "top1_accuracy"): "metrics.top1_accuracy",
    ("metrics", "per_class_accuracy"): "metrics.per_class_accuracy",
    ("metrics", "forgetting_heterogeneity"): "metrics.forgetting_heterogeneity",
    ("data", "generate_synthetic"): "data.generate_synthetic",
    ("data", "load_cifar100_binary"): "data.load_cifar100_binary",
    ("data", "read_label_records"): "data.read_label_records",
    ("data", "split_tasks"): "data.split_tasks",
    ("config", "parse_config"): "config.parse_config",
    ("config", "config_to_dict"): "config.config_to_dict",
    ("gradcheck", "run_all_checks"): "gradcheck.run_all_checks",
}

# (module, class, method) -> span name
PLAIN_METHODS = {
    ("model", "IncrementalModel", "snapshot"): "model.snapshot",
    ("model", "IncrementalModel", "expand_classifier"): "model.expand_classifier",
    ("continual", "SgdOptimizer", "zero_grad"): "continual.zero_grad",
}

MODULES = ("autodiff", "model", "losses", "continual", "metrics", "data", "config",
           "gradcheck", "cli")


class Tracer:
    """Span recorder plus the exact counters the benchmark checks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []
        self._step_start: float | None = None
        self._in_run = 0
        self._inference = 0
        self._in_eval = 0
        self._after_eval = False
        self._tasks_done = 0
        self._patches: list[tuple[object, str, object]] = []
        self._hfclab: dict = {}

    # -- spans ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, enter=None, leave=None):
        """Wrapper factory: a span around each call; `enter` runs before the
        span opens and `leave` after it closes, both with the call's arguments."""
        nid = self.name_id(name)

        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if enter is not None:
                    enter(*args, **kwargs)
                idx = self.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    if leave is not None:
                        leave(*args, **kwargs)

            return traced

        return factory

    # -- installation -------------------------------------------------------------

    def _replace_function(self, module_name: str, attr: str, factory) -> None:
        """Swap module.attr everywhere hfclab bound it (including `from x import`)."""
        original = getattr(self._hfclab[module_name], attr)
        wrapper = factory(original)
        for module in self._hfclab.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _replace_method(self, module_name: str, cls_name: str, attr: str, factory) -> None:
        cls = getattr(self._hfclab[module_name], cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, factory(original))

    def install(self) -> None:
        import importlib

        self._hfclab = {m: importlib.import_module(f"hfclab.{m}") for m in MODULES}
        for fn_name, label in OPS.items():
            self._replace_function("autodiff", fn_name, self._op(label))
        for (module, fn_name), name in PLAIN_FUNCTIONS.items():
            self._replace_function(module, fn_name, self.span(name))
        for (module, cls, method), name in PLAIN_METHODS.items():
            self._replace_method(module, cls, method, self.span(name))
        self._replace_function("autodiff", "backward",
                               self.span("autodiff.backward", enter=self._count_graph))
        self._replace_function("autodiff", "finite_diff_check", self._check(grouped=True))
        self._replace_function("gradcheck", "max_param_rel_err", self._check(grouped=False))
        self._replace_function("continual", "run_stream",
                               self.span("continual.run_stream", self._run_enter,
                                         self._run_leave))
        self._replace_function("metrics", "predict_outputs", self._predict_outputs)
        self._replace_function("metrics", "predict_probs",
                               self.span("metrics.predict_probs", self._eval_enter,
                                         self._eval_leave))
        for cls, name in (("SelfAttentionBlock", "model.msa"), ("AggregationBlock", "model.tsa")):
            self._replace_method("model", cls, "forward_rows",
                                 self.span(name, enter=self._block_enter))
        self._replace_method("model", "IncrementalModel", "forward_batch",
                             self.span("model.forward_batch", enter=self._forward_enter))
        self._replace_method("model", "IncrementalModel", "predict",
                             self.span("model.predict", self._inference_enter,
                                       self._inference_leave))
        self._replace_method("model", "IncrementalModel", "save_checkpoint",
                             self.span("model.save_checkpoint", leave=self._checkpoint_leave))
        self._replace_method("continual", "SgdOptimizer", "step",
                             self.span("continual.sgd", leave=self._sgd_leave))
        self._replace_method("continual", "ExemplarMemory", "update",
                             self.span("continual.herding", leave=self._memory_leave))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers and hooks with bookkeeping -----------------------------------------

    def _op(self, label: str):
        """Op wrapper that also times the backward closure of every tensor
        the op returns (split returns a list, attention a tuple)."""
        fwd = self.name_id(f"autodiff.op.{label}")
        bwd = self.name_id(f"autodiff.op.{label}.bwd")

        def time_backward(tensor) -> None:
            inner = tensor._backward
            if inner is None or getattr(inner, "__name__", "") == "traced_backward":
                return  # leaf, or a composite op returning an inner op's node

            def traced_backward(g):
                idx = self.open(bwd)
                try:
                    inner(g)
                finally:
                    self.close(idx)

            tensor._backward = traced_backward

        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.open(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                for t in (out if isinstance(out, (list, tuple)) else (out,)):
                    if hasattr(t, "_backward"):
                        time_backward(t)
                return out

            return traced

        return factory

    def _check(self, grouped: bool):
        """finite_diff_check cases that run an attention block are block
        checks, the others op checks; max_param_rel_err cases are loss checks."""
        nid = self.name_id("gradcheck.check")

        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                blocks_before = self.counts["model.block_calls"]
                idx = self.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    if not grouped:
                        group = "loss"
                    elif self.counts["model.block_calls"] > blocks_before:
                        group = "block"
                    else:
                        group = "op"
                    self.counts["gradcheck.checks"] += 1
                    self.counts[f"gradcheck.{group}_ns"] += int(
                        (self.end[idx] - self.start[idx]) * 1e9)

            return traced

        return factory

    def _predict_outputs(self, fn):
        """Attribute predict_outputs by caller: evaluation runs inside
        predict_probs; herding features follow a task's evaluation; the
        teacher cache precedes a task's training."""
        wrapped = {kind: self.span(f"metrics.predict_outputs.{kind}", self._inference_enter,
                                   self._inference_leave)(fn)
                   for kind in ("eval", "herding", "teacher")}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_eval:
                kind = "eval"
            elif self._after_eval:
                kind = "herding"
            else:
                kind = "teacher"
            return wrapped[kind](*args, **kwargs)

        return traced

    def _count_graph(self, loss) -> None:
        self.counts["autodiff.backward_calls"] += 1
        self.counts["autodiff.graph_nodes"] += graph_size(loss)

    def _run_enter(self, *args, **kwargs) -> None:
        self._in_run += 1
        self._after_eval = False
        self._tasks_done = 0

    def _run_leave(self, *args, **kwargs) -> None:
        self._in_run -= 1

    def _eval_enter(self, model, images, *args, **kwargs) -> None:
        self.counts["metrics.eval_samples"] += len(images)
        self._in_eval += 1

    def _eval_leave(self, *args, **kwargs) -> None:
        self._in_eval -= 1
        self._after_eval = True

    def _memory_leave(self, *args, **kwargs) -> None:
        self._after_eval = False
        self._tasks_done += 1

    def _block_enter(self, *args, **kwargs) -> None:
        self.counts["model.block_calls"] += 1

    def _inference_enter(self, *args, **kwargs) -> None:
        self._inference += 1

    def _inference_leave(self, *args, **kwargs) -> None:
        self._inference -= 1

    def _forward_enter(self, model, images, *args, **kwargs) -> None:
        if self._in_run and not self._inference:  # a training step starts here
            self._step_start = time.perf_counter()
            self.counts["continual.samples_stepped"] += len(images)

    def _checkpoint_leave(self, model, path, *args, **kwargs) -> None:
        self.counts["model.checkpoint_bytes"] += Path(path).stat().st_size

    def _sgd_leave(self, *args, **kwargs) -> None:
        if not self._in_run:
            return
        self.counts["continual.train_steps"] += 1
        if self._tasks_done:
            self.counts["continual.steps_after_first_task"] += 1
        if self._step_start is not None:
            self.step_ms.append((time.perf_counter() - self._step_start) * 1e3)
            self._step_start = None

    # -- results -----------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (total minus children)."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(own[i])} for i in range(k) if calls[i]}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def graph_size(root) -> int:
    """Nodes reachable from root through recorded parents, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its spans and counters."""
    t = tracer.table()
    c = tracer.counts

    def total(*names):
        return sum(t.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    out: dict[str, float] = {}
    backward_calls = c["autodiff.backward_calls"]
    out["autodiff.nodes_per_step"] = c["autodiff.graph_nodes"] / backward_calls if backward_calls else 0.0
    out["autodiff.backward_s"] = total("autodiff.backward")
    for label in OPS.values():
        out[f"autodiff.op.{label}.calls"] = calls(f"autodiff.op.{label}")
        out[f"autodiff.op.{label}.fwd_s"] = t.get(f"autodiff.op.{label}", {}).get("self_s", 0.0)
        out[f"autodiff.op.{label}.bwd_s"] = total(f"autodiff.op.{label}.bwd")
    out["model.forward_s"] = total("model.forward_batch")
    out["model.msa.fwd_s"] = total("model.msa")
    out["model.tsa.fwd_s"] = total("model.tsa")
    out["model.predict.calls"] = calls("model.predict")
    out["model.predict_s"] = total("model.predict")
    out["model.snapshot_s"] = total("model.snapshot")
    out["model.save_checkpoint_s"] = total("model.save_checkpoint")
    out["model.checkpoint_bytes"] = c["model.checkpoint_bytes"]
    later_steps = c["continual.steps_after_first_task"]
    gs_calls = calls("losses.gradient_stats")
    out["losses.gradient_stats.calls_per_step"] = gs_calls / later_steps if later_steps else 0.0
    out["losses.gradient_stats_s"] = total("losses.gradient_stats")
    out["losses.ce_s"] = total("losses.ce_loss")
    out["losses.gfc_s"] = total("losses.gfc_loss")
    out["losses.grd_s"] = total("losses.grd_loss")
    out["losses.relation_s"] = total("losses.relation_groundtruth", "losses.relation_prototypes")
    out["continual.train_steps"] = c["continual.train_steps"]
    out["continual.sgd_s"] = total("continual.sgd")
    out["continual.zero_grad_s"] = total("continual.zero_grad")
    out["continual.teacher_cache_s"] = total("metrics.predict_outputs.teacher")
    out["continual.herding_s"] = total("continual.herding")
    out["continual.herd_features_s"] = total("metrics.predict_outputs.herding")
    out["continual.reports_s"] = total("continual.write_metrics_csv", "continual.write_summary_json")
    out["metrics.eval_s"] = total("metrics.predict_probs")
    out["metrics.eval_samples"] = c["metrics.eval_samples"]
    out["metrics.avg_incremental_acc"] = 0.0  # set from summary.json by the caller
    out["metrics.fh"] = 0.0
    out["data.generate_synthetic_s"] = total("data.generate_synthetic")
    out["data.load_cifar100_binary_s"] = total("data.load_cifar100_binary")
    out["config.parse_config_s"] = total("config.parse_config")
    out["gradcheck.checks"] = c["gradcheck.checks"]
    for group in ("op", "block", "loss"):
        out[f"gradcheck.{group}_s"] = c[f"gradcheck.{group}_ns"] / 1e9
    out["tracing.spans"] = len(tracer.start)
    return out


# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("autodiff.nodes_per_step", "losses.gradient_stats.calls_per_step",
                "model.predict.calls", "continual.train_steps", "metrics.eval_samples",
                "model.checkpoint_bytes", "gradcheck.checks", "tracing.spans") + tuple(
    f"autodiff.op.{label}.calls" for label in OPS.values())


def sorted_by_self_time(table: dict, top: int) -> list[tuple[str, dict]]:
    return sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:top]

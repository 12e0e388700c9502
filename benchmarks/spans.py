"""In-memory span tracer over the public functions of the omivae modules.

`install` wraps every public function and public method defined in each
omivae module (plus `cli._run_fold`, the per-fold unit of crossval) so that
each call records a span: name, start, end, parent span and thread. Spans
stay in memory while the traced code runs and are summarised, and written
out, when the run ends. A span's self time is its duration minus the time
its children on the same thread cover; a crossval fold thread's root span
hangs off the main thread's open span but does not count against it, so the
main thread's self times add up to the traced wall time and each fold
thread's self times add up to that fold's busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass

MODULES = (
    "cli",
    "config",
    "container",
    "data",
    "evaluation",
    "layers",
    "losses",
    "model",
    "numerics",
    "optim",
)
# private functions that are still a layer boundary worth a span
EXTRA = {"cli": ("_run_fold",)}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        anchor = stack or self._main_stack
        parent = anchor[-1].sid if anchor else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "thread": s.thread,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus what its same-thread children cover."""
    by_id = {s.sid: s for s in spans}
    covered: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            covered[parent.sid] = covered.get(parent.sid, 0.0) + s.duration
    return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in spans}


# --------------------------------------------------------------- hooks

def _linear_forward_flops(tracer, args, kwargs, result):
    layer, x = args[0], args[1]
    out_dim, in_dim = layer.weights.shape
    tracer.count("linear_flops", 2.0 * x.shape[0] * in_dim * out_dim)


def _linear_backward_flops(tracer, args, kwargs, result):
    layer, upstream = args[0], args[1]
    out_dim, in_dim = layer.weights.shape
    # weight gradient plus input gradient, one matmul each
    tracer.count("linear_flops", 4.0 * upstream.shape[0] * in_dim * out_dim)


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("container_bytes_written", os.path.getsize(args[0]))


def _bytes_read(tracer, args, kwargs, result):
    tracer.count("container_bytes_read", os.path.getsize(args[0]))


def _probe_iterations(tracer, args, kwargs, result):
    tracer.count("probe_iterations", len(result.loss_history))


HOOKS = {
    "layers.LinearLayer.forward": _linear_forward_flops,
    "layers.LinearLayer.backward": _linear_backward_flops,
    "container.write_container": _bytes_written,
    "container.read_container": _bytes_read,
    "evaluation.probe_fit": _probe_iterations,
}


def _wrap(tracer: Tracer, fn, name: str):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


class Patches:
    """Attribute replacements that `undo` puts back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every public function and method of the omivae modules."""
    modules = {m: importlib.import_module(f"omivae.{m}") for m in MODULES}
    namespaces = [importlib.import_module("omivae"), *modules.values()]
    patches = Patches()
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = _wrap(tracer, obj, f"{short}.{attr}")
                # `from .x import f` bindings hold the function too
                for ns in namespaces:
                    for name in [k for k, v in vars(ns).items() if v is obj]:
                        patches.set(ns, name, wrapped)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mattr, member in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{mattr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        patches.set(obj, mattr, type(member)(_wrap(tracer, member.__func__, name)))
                    elif inspect.isfunction(member):
                        patches.set(obj, mattr, _wrap(tracer, member, name))
    return patches


class EncodeMeter:
    """Rows and seconds of infer-mode `OmiVaeModel.encode` calls.

    The one probe the untraced run keeps: `embed_samples_per_s` is defined
    over the infer-mode encoder wherever a workload runs it (embedding
    export, evaluation, validation passes and crossval test folds).
    """

    def __init__(self):
        self.calls: list[tuple[int, float]] = []

    def install(self) -> Patches:
        model = importlib.import_module("omivae.model")
        original = model.OmiVaeModel.encode
        calls = self.calls

        @functools.wraps(original)
        def encode(self, x_expr, x_methyl_blocks, train=False):
            if train:
                return original(self, x_expr, x_methyl_blocks, train)
            t0 = time.perf_counter()
            out = original(self, x_expr, x_methyl_blocks, train)
            calls.append((out[0].shape[0], time.perf_counter() - t0))
            return out

        patches = Patches()
        patches.set(model.OmiVaeModel, "encode", encode)
        return patches

    def take(self) -> tuple[int, float]:
        rows = sum(r for r, _ in self.calls)
        seconds = sum(s for _, s in self.calls)
        self.calls.clear()
        return rows, seconds


# --------------------------------------------------------------- per-layer metrics

# metric -> (span name, "dur" | "self" | "count")
SPAN_METRICS = {
    "optim.adam_step_s": ("optim.Adam.step", "dur"),
    "optim.adam_steps": ("optim.Adam.step", "count"),
    "optim.evaluate_losses_s": ("optim.evaluate_losses", "dur"),
    "optim.train_self_s": ("optim.train_two_phase", "self"),
    "optim.save_checkpoint_s": ("optim.save_checkpoint", "dur"),
    "optim.load_checkpoint_s": ("optim.load_checkpoint", "dur"),
    "model.forward_backward_s": ("model.OmiVaeModel.forward_backward", "dur"),
    "model.forward_backward_self_s": ("model.OmiVaeModel.forward_backward", "self"),
    "model.zero_grad_s": ("model.OmiVaeModel.zero_grad", "dur"),
    "model.embed_s": ("model.OmiVaeModel.embed", "dur"),
    "model.predict_proba_s": ("model.OmiVaeModel.predict_proba", "dur"),
    "layers.linear_forward_s": ("layers.LinearLayer.forward", "dur"),
    "layers.linear_backward_s": ("layers.LinearLayer.backward", "dur"),
    "layers.batchnorm_forward_s": ("layers.BatchNormLayer.forward", "dur"),
    "layers.batchnorm_backward_s": ("layers.BatchNormLayer.backward", "dur"),
    "losses.vae_loss_s": ("losses.vae_loss", "dur"),
    "losses.classification_loss_s": ("losses.classification_loss", "dur"),
    "data.load_matrix_tsv_s": ("data.load_matrix_tsv", "dur"),
    "data.preprocess_s": ("data.preprocess", "dur"),
    "data.synthesize_s": ("data.synthesize", "dur"),
    "data.dataset_save_s": ("data.OmicsDataset.save", "dur"),
    "data.dataset_load_s": ("data.OmicsDataset.load", "dur"),
    "data.batch_s": ("data.OmicsDataset.batch", "dur"),
    "container.read_s": ("container.read_container", "dur"),
    "container.write_s": ("container.write_container", "dur"),
    "evaluation.export_embedding_s": ("evaluation.export_embedding", "dur"),
    "evaluation.pca_fit_s": ("evaluation.pca_fit", "dur"),
    "evaluation.probe_fit_s": ("evaluation.probe_fit", "dur"),
    "evaluation.compute_metrics_s": ("evaluation.compute_metrics", "dur"),
    "evaluation.render_scatter_s": ("evaluation.render_scatter", "dur"),
    "numerics.sym_eig_s": ("numerics.sym_eig", "dur"),
    "numerics.sym_eig_calls": ("numerics.sym_eig", "count"),
}
# activation work is FcBlock's own time plus the activation functions it calls
ACTIVATION_SELF = ("layers.FcBlock.forward", "layers.FcBlock.backward", "layers.FcBlock.backward_from_preact")
ACTIVATION_DUR = ("layers.apply_activation", "layers.activation_backward")
COUNTERS = {
    "container.bytes_read": "container_bytes_read",
    "container.bytes_written": "container_bytes_written",
    "evaluation.probe_iterations": "probe_iterations",
}
UNITS = {"_s": "s", "_steps": "count", "_calls": "count", "_iterations": "count"}
PER_LAYER = (
    list(SPAN_METRICS)
    + ["layers.activation_s", "layers.linear_gflops"]
    + list(COUNTERS)
    + ["cli.fold_s", "cli.fold_parallelism", "trace.overhead_ratio"]
)


def unit_of(metric: str) -> str:
    if metric.startswith("container.bytes"):
        return "bytes"
    if metric == "layers.linear_gflops":
        return "GFLOP/s"
    if metric in ("cli.fold_parallelism", "trace.overhead_ratio"):
        return "ratio"
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> summed duration, summed self time and call count."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"dur": 0.0, "self": 0.0, "count": 0.0})
        t["dur"] += s.duration
        t["self"] += own[s.sid]
        t["count"] += 1
    return totals


@dataclass
class Phase:
    """The spans and counters of one traced set-up or round."""

    spans: list[Span]
    counters: dict[str, float]
    wall: float


def accounting_error(phase: Phase) -> str | None:
    """Why the phase's self times fail to account for its time, or None.

    Main-thread self times must add up to the phase's wall time, and each
    worker thread's self times to the time its root spans were open.
    """
    own = self_times(phase.spans)
    if phase.spans and min(own.values()) < -1e-9:
        return "a span has negative self time"
    by_id = {s.sid: s for s in phase.spans}
    main = phase.spans[0].thread if phase.spans else None
    busy: dict[int, float] = {}
    owned: dict[int, float] = {}
    for s in phase.spans:
        owned[s.thread] = owned.get(s.thread, 0.0) + own[s.sid]
        parent = by_id.get(s.parent)
        if parent is None or parent.thread != s.thread:
            busy[s.thread] = busy.get(s.thread, 0.0) + s.duration
    for thread, total in owned.items():
        expected = phase.wall if thread == main else busy[thread]
        if abs(total - expected) > 1e-3 * expected + 1e-4:
            return f"self times sum to {total:.6f} s on a thread that ran {expected:.6f} s"
    return None


def per_layer_metrics(setup: Phase, rounds: list[Phase], overhead_ratio: float) -> dict[str, float]:
    """Each metric for one set-up plus one round (the mean over traced rounds)."""
    setup_totals = layer_totals(setup.spans)
    round_totals = [layer_totals(r.spans) for r in rounds]

    def value(name: str, field: str) -> float:
        total = setup_totals.get(name, {}).get(field, 0.0)
        return total + statistics.fmean(t.get(name, {}).get(field, 0.0) for t in round_totals)

    def counter(key: str) -> float:
        return setup.counters.get(key, 0.0) + statistics.fmean(
            r.counters.get(key, 0.0) for r in rounds
        )

    metrics = {m: value(name, field) for m, (name, field) in SPAN_METRICS.items()}
    metrics["layers.activation_s"] = sum(value(n, "self") for n in ACTIVATION_SELF) + sum(
        value(n, "dur") for n in ACTIVATION_DUR
    )
    linear_s = metrics["layers.linear_forward_s"] + metrics["layers.linear_backward_s"]
    flops = counter("linear_flops")
    metrics["layers.linear_gflops"] = flops / linear_s / 1e9 if linear_s > 0 else 0.0
    for metric, key in COUNTERS.items():
        metrics[metric] = counter(key)
    folds = [s.duration for r in rounds for s in r.spans if s.name == "cli._run_fold"]
    crossval = sum(s.duration for r in rounds for s in r.spans if s.name == "cli.cmd_crossval")
    metrics["cli.fold_s"] = statistics.median(folds) if folds else 0.0
    metrics["cli.fold_parallelism"] = sum(folds) / crossval if crossval > 0 else 0.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics

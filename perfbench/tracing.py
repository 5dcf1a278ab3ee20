"""Span tracing for the traced benchmark mode, installed from outside ``src``.

:func:`install` wraps the public entry points of each layer of the
``repro`` package (module names are the layer names) with span recorders.
Nothing inside the package changes: every module-level binding of a wrapped
function is replaced, and methods are replaced on their class.

A span records its name, layer, start, end, parent span, run id, process
and thread, plus per-call counters in ``args`` (for example the per-op-class
kernel seconds read from ``Interpreter.last_profile`` after an invoke).
Spans stay in memory. Process-pool workers (forked from the traced round)
start with an empty span list and write theirs once, when the worker
exits, to ``spans-<pid>.json`` in the trace directory; :func:`merge` folds
those into the round's own spans. :func:`layer_metrics` turns the merged
spans into the per-layer metrics named in ``BENCHMARK.json``,
:func:`self_times` into per-layer self time, and :func:`chrome_trace` into
Chrome trace-event JSON (opens in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
import weakref
from pathlib import Path

# The perfmodel op-class labels (repro.perfmodel.work.OP_CLASS values).
OP_CLASSES = ("conv", "dwconv", "fc", "act", "add", "pool", "mean", "pad",
              "quantize", "attention", "embed", "softmax", "reshape")


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.enabled = False
        self.run_id = "setup"
        self.spans: list[dict] = []
        self._local = threading.local()
        self._counter = 0
        self._lock = threading.Lock()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid()}:{self._counter}"

    def open(self, name: str, layer: str) -> dict:
        stack = self._stack()
        span = {"name": name, "layer": layer, "id": self._next_id(),
                "parent": stack[-1] if stack else None,
                "run_id": self.run_id, "pid": os.getpid(),
                "tid": threading.get_ident(), "start": time.perf_counter(),
                "end": None, "args": {}}
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: str | None, **args) -> None:
        """Record an already-finished span (no stack bookkeeping)."""
        self.spans.append({"name": name, "layer": layer,
                           "id": self._next_id(), "parent": parent,
                           "run_id": self.run_id, "pid": os.getpid(),
                           "tid": threading.get_ident(), "start": start,
                           "end": end, "args": args})

    # ------------------------------------------------------- pool workers
    def _after_fork(self) -> None:
        # A forked pool worker keeps the open-span stack of the thread that
        # forked it, so its root spans name the parent's enclosing span
        # (e.g. the sweep) as their parent, but none of the parent's spans.
        self.spans = []
        self._lock = threading.Lock()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = self.trace_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))


def merge(recorder: Recorder) -> list[dict]:
    """The round's spans plus every finished worker's dumped spans."""
    spans = list(recorder.spans)
    for path in sorted(recorder.trace_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


# ------------------------------------------------------------------ wrappers

def _span_call(rec: Recorder, name: str, layer: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


def _span_iter(rec: Recorder, name: str, layer: str, fn):
    """Wrap a generator function: one span per item pulled from it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.enabled:
            yield from gen
            return
        while True:
            span = rec.open(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                span["args"]["frames"] = 0
                rec.close(span)
                return
            span["args"]["frames"] = 1
            rec.close(span)
            yield item
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module, attr: str, wrap) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, wrap(original))


def _wrap_method(cls, attr: str, wrap, kind=None) -> None:
    raw = vars(cls)[attr]
    if kind is classmethod:
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point of the imported package.

    Imports the modules it patches, so call it after the workload has
    imported what its set-up needs.
    """
    import repro.analysis.preflight as preflight
    import repro.instrument.sinks as sinks
    import repro.instrument.store as store
    import repro.pipelines.edge as edge
    import repro.runtime.interpreter as interp
    import repro.validate.execution as execution
    import repro.validate.layerdiff as layerdiff
    import repro.validate.session as session
    import repro.validate.sweep as sweep
    import repro.validate.triage as triage
    import repro.zoo.registry as registry

    def call(name, layer, after=None):
        return lambda fn: _span_call(rec, name, layer, fn, after)

    # runtime + kernels: one invoke span, with synthesized per-op-class
    # kernel child spans laid end to end from the interpreter's profile.
    seen = weakref.WeakSet()

    def after_invoke(span, args, _result):
        interpreter = args[0]
        profile = interpreter.last_profile
        op_ms: dict[str, float] = {}
        for entry in profile:
            op_ms[entry["op_class"]] = op_ms.get(entry["op_class"], 0.0) \
                + entry["wall_ms"]
        kernel_ms = sum(op_ms.values())
        span["args"].update(
            dispatch_s=max(interpreter.last_wall_ms - kernel_ms, 0.0) / 1e3,
            output_bytes=sum(entry["output_bytes"] for entry in profile),
            first=interpreter not in seen)
        seen.add(interpreter)
        t = span["start"]
        for op_class, ms in sorted(op_ms.items()):
            rec.add(f"kernels.{op_class}", "kernels", t, t + ms / 1e3,
                    span["id"], synthetic=True)
            t += ms / 1e3

    _wrap_method(interp.Interpreter, "invoke",
                 call("runtime.invoke", "runtime", after_invoke))

    # pipelines: every EdgeApp's preprocess callable (edge, reference and
    # sweep-variant apps alike).
    original_init = edge.EdgeApp.__init__

    @functools.wraps(original_init)
    def edge_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.preprocess = _span_call(rec, "pipelines.preprocess",
                                     "pipelines", self.preprocess)
    edge.EdgeApp.__init__ = edge_init

    # instrument
    _wrap_method(sinks.DirectorySink, "write",
                 call("instrument.sink_write", "instrument"))

    def after_close(span, args, _result):
        span["args"]["bytes"] = args[0].total_bytes()
    _wrap_method(sinks.DirectorySink, "close",
                 call("instrument.sink_close", "instrument", after_close))
    _wrap_method(store.EXrayLog, "load",
                 call("instrument.log_load", "instrument"), kind=classmethod)

    def after_frame(span, _args, _result):
        span["args"]["frames"] = 1
    _wrap_method(store.EXrayLog, "frame",
                 call("instrument.read", "instrument", after_frame))
    _wrap_method(store.EXrayLog, "iter_frames",
                 lambda fn: _span_iter(rec, "instrument.read", "instrument",
                                       fn))

    # zoo
    _wrap_function(registry, "get_model", call("zoo.get_model", "zoo"))
    _wrap_function(registry, "playback_data", call("zoo.playback", "zoo"))

    # validate
    _wrap_function(preflight, "preflight_lineup",
                   call("validate.preflight", "validate"))
    _wrap_function(execution, "build_reference_log",
                   call("validate.reference", "validate"))
    _wrap_method(session.DebugSession, "run",
                 call("validate.session", "validate"))
    _wrap_function(layerdiff, "per_layer_diff",
                   call("validate.layerdiff", "validate"))
    _wrap_function(triage, "triage_sweep", call("validate.triage", "validate"))

    # scheduler: the blocking sweep (parent) and each variant (workers).
    def after_sweep(span, args, report):
        n = len(report.results)
        span["args"].update(
            workers=min(n, os.cpu_count() or 1), variants_total=n,
            variants_completed=sum(r.completed for r in report.results))
    _wrap_function(sweep, "run_sweep",
                   call("scheduler.sweep", "scheduler", after_sweep))
    _wrap_function(execution, "run_variant",
                   call("scheduler.variant", "scheduler"))


# ------------------------------------------------------------- aggregation

def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from merged spans."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def arg_sum(name: str, key: str) -> float:
        return sum(s["args"].get(key, 0) for s in by_name.get(name, ()))

    invokes = by_name.get("runtime.invoke", [])
    m: dict[str, float] = {
        "runtime.invoke_calls": len(invokes),
        "runtime.invoke_s": total("runtime.invoke"),
        "runtime.dispatch_s": arg_sum("runtime.invoke", "dispatch_s"),
        "runtime.first_invoke_s": sum(_dur(s) for s in invokes
                                      if s["args"].get("first")),
    }
    for op_class in OP_CLASSES:
        m[f"kernels.{op_class}_s"] = total(f"kernels.{op_class}")
    m["kernels.output_bytes"] = arg_sum("runtime.invoke", "output_bytes")
    m["pipelines.preprocess_calls"] = count("pipelines.preprocess")
    m["pipelines.preprocess_s"] = total("pipelines.preprocess")
    m["instrument.sink_write_s"] = total("instrument.sink_write")
    m["instrument.frames_written"] = count("instrument.sink_write")
    m["instrument.bytes_written"] = arg_sum("instrument.sink_close", "bytes")
    m["instrument.log_load_s"] = total("instrument.log_load")
    m["instrument.read_s"] = total("instrument.read")
    m["instrument.frames_read"] = arg_sum("instrument.read", "frames")
    m["zoo.get_model_calls"] = count("zoo.get_model")
    m["zoo.get_model_s"] = total("zoo.get_model")
    m["zoo.playback_s"] = total("zoo.playback")
    m["validate.preflight_s"] = total("validate.preflight")
    m["validate.reference_s"] = total("validate.reference")
    m["validate.session_calls"] = count("validate.session")
    m["validate.session_s"] = total("validate.session")
    m["validate.layerdiff_s"] = total("validate.layerdiff")
    m["validate.triage_s"] = total("validate.triage")

    sweeps = {s["id"]: s for s in by_name.get("scheduler.sweep", [])}
    variants = by_name.get("scheduler.variant", [])
    variant_s = sum(_dur(s) for s in variants)
    window = sum(_dur(s) * s["args"]["workers"] for s in sweeps.values())
    m["scheduler.variants_total"] = sum(
        s["args"]["variants_total"] for s in sweeps.values())
    m["scheduler.variants_completed"] = sum(
        s["args"]["variants_completed"] for s in sweeps.values())
    m["scheduler.variants_failed"] = (m["scheduler.variants_total"]
                                      - m["scheduler.variants_completed"])
    m["scheduler.variant_s"] = variant_s
    m["scheduler.queue_wait_s"] = sum(
        s["start"] - sweeps[s["parent"]]["start"]
        for s in variants if s["parent"] in sweeps)
    m["scheduler.busy_frac"] = variant_s / window if window else 0.0
    m["cli.import_s"] = total("cli.import")
    return m


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: span duration minus the union of its children."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out: dict[str, float] = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["layer"]] = out.get(span["layer"], 0.0) \
            + _dur(span) - covered
    return out


def chrome_trace(spans: list[dict], metadata: dict) -> dict:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = []
    for s in spans:
        events.append({
            "name": s["name"], "cat": s["layer"], "ph": "X",
            "ts": (s["start"] - t0) * 1e6, "dur": _dur(s) * 1e6,
            "pid": s["pid"], "tid": s["tid"],
            "args": {"span_id": s["id"], "parent": s["parent"],
                     "run_id": s["run_id"], **s["args"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}

"""One measurement round of a benchmark workload, in a fresh process.

``run.py`` starts this script once per round and times it from process
start to the ``READY`` line it prints when its set-up is done. The round
then computes its correctness references (outside any timed region), runs
the workload in a closed loop with one caller until ``--seconds`` have
passed, checks every operation, and prints one JSON line with its samples,
operation counts per phase, peak RSS and BLAS state. With ``--trace 1`` it
also installs the span wrappers (see ``tracing.py``) and reports per-layer
metrics, per-layer self time and a Chrome trace.

Usage (normally only through ``run.py``)::

    python3 perfbench/measure.py --workload stream --seed 3 --seconds 8 \\
        --trace 0 --work-dir .bench_tmp/x
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

SWEEP_MODEL = "micro_mobilenet_v2"
SWEEP_FRAMES = 32
SWEEP_BACKENDS = "optimized,batched"
STREAM_MODEL = ("micro_mobilenet_v2", "quantized")
STREAM_POOL = 64          # distinct playback frames the stream cycles over
EVAL_MODELS = (("micro_mobilenet_v1", "mobile"),
               ("micro_mobilenet_v2", "quantized"),
               ("micro_resnet", "mobile"),
               ("micro_bert", "mobile"))
EVAL_ITEMS = 256          # labelled playback items per model
EVAL_BATCH = 32
# Largest allowed gap between a model's top-1 on the optimized path and on
# the reference backend over the same items.
EVAL_TOP1_MARGIN = 0.02
# DebugSession's default accuracy gate: a variant whose top-1 falls more
# than this below the reference's is unhealthy.
ACCURACY_TOLERANCE = 0.02
# A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def models_used(workload: str) -> list[str]:
    """Zoo models a workload touches (warmed before any timed region)."""
    if workload == "sweep":
        return [SWEEP_MODEL]
    if workload == "stream":
        return [STREAM_MODEL[0]]
    return [name for name, _ in EVAL_MODELS]


class Phases:
    """Attempted / succeeded / failed operation counts per workload phase."""

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}

    def _phase(self, phase: str) -> dict[str, int]:
        return self.counts.setdefault(
            phase, {"attempted": 0, "succeeded": 0, "failed": 0})

    def record(self, phase: str, ok: bool, n: int = 1) -> None:
        c = self._phase(phase)
        c["attempted"] += n
        c["succeeded" if ok else "failed"] += n

    def note(self, phase: str, key: str) -> None:
        """Count an informational outcome (e.g. a sweep variant's status)."""
        c = self._phase(phase)
        c[key] = c.get(key, 0) + 1


class Workload:
    """A closed-loop workload: set up, build references, run passes.

    ``step`` runs one pass and returns its latency samples (ms), the items
    it processed and its wall time; every operation in it is recorded in
    ``phases`` as succeeded or failed by its correctness check.
    """

    def setup(self, args, rec) -> None:
        raise NotImplementedError

    def references(self) -> None:
        """Correctness references, computed outside any timed region."""

    def step(self, phases: Phases, phase: str) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """End the timed stream (still inside the traced window)."""

    def discard(self) -> None:
        """Drop what set-up created (set-up-only probes)."""

    def finish(self, phases: Phases) -> None:
        """Checks that need the whole run, after timing."""


# ------------------------------------------------------------------- sweep

def sweep_lineup():
    """Fig. 4(a) bugs at the mobile and quantized stages + one kernel bug."""
    from repro.validate import SweepVariant

    lineup = []
    for stage, suffix in (("mobile", ""), ("quantized", "_q")):
        lineup += [
            SweepVariant("clean" + suffix, stage=stage),
            SweepVariant("bgr" + suffix, {"channel_order": "bgr"},
                         stage=stage),
            SweepVariant("norm01" + suffix, {"normalization": "[0,1]"},
                         stage=stage),
            SweepVariant("rot90" + suffix, {"rotation_k": 1}, stage=stage),
        ]
    lineup.append(SweepVariant("kbug_q", stage="quantized",
                               kernel_bugs="paper-optimized"))
    return lineup


def top1_range(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Lowest and highest top-1 over every way of breaking ties for the max.

    Saturated int8 softmax outputs tie often, and the tie-break of the
    program's metric is not part of its contract.
    """
    best = scores.max(axis=1)
    hit = scores[np.arange(len(labels)), labels] == best
    alone = (scores == best[:, None]).sum(axis=1) == 1
    return float((hit & alone).mean()), float(hit.mean())


def stage_top1_range(stage: str, tag: str) -> tuple[float, float]:
    """Top-1 range of a stage on the sweep's frames, one plain invoke each."""
    from repro.pipelines import make_preprocess
    from repro.runtime import Interpreter
    from repro.zoo import get_model, playback_data

    graph = get_model(SWEEP_MODEL, stage)
    interpreter = Interpreter(graph)
    preprocess = make_preprocess(graph.metadata["pipeline"])
    raw, labels = playback_data(SWEEP_MODEL, SWEEP_FRAMES, tag)
    scores = np.stack([
        next(iter(interpreter.invoke(preprocess(raw[i:i + 1])).values()))[0]
        for i in range(len(raw))])
    return top1_range(scores.reshape(len(raw), -1), labels)


class SweepWorkload(Workload):
    """One operation = one variant of a ``run_sweep`` + triage + render."""

    def setup(self, args, rec):
        t0 = time.perf_counter()
        import repro.cli  # noqa: F401
        if rec is not None:
            rec.add("cli.import", "cli", t0, time.perf_counter(), None)
        start_tracing(rec)
        self.tag = str(args.seed)
        self.lineup = sweep_lineup()

    def references(self):
        """Acceptable (healthy, triage label) outcomes for every variant.

        The paper's table: preprocessing bugs are triaged to the input,
        the kernel bug to the depthwise conv. A clean variant is healthy
        unless its stage really loses top-1 against the float reference
        on these frames by more than the accuracy gate allows; then it
        is unhealthy with no localized cause. Which applies is computed
        here with plain invokes, outside the sweep.
        """
        ref_lo, ref_hi = stage_top1_range("mobile", self.tag)
        clean = {}
        for stage in ("mobile", "quantized"):
            lo, hi = stage_top1_range(stage, self.tag)
            clean[stage] = set()
            if ref_lo - hi <= ACCURACY_TOLERANCE:
                clean[stage].add((True, "healthy"))
            if ref_hi - lo > ACCURACY_TOLERANCE:
                clean[stage].add((False, "unlocalized"))
        self.expected = {}
        for variant in self.lineup:
            if variant.name.startswith("clean"):
                outcomes = clean[variant.stage]
            elif variant.kernel_bugs != "none":
                outcomes = {(False, "kernel/quantization @ depthwise_conv2d")}
            else:
                outcomes = {(False, "preprocessing @ input")}
            for backend in SWEEP_BACKENDS.split(","):
                self.expected[f"{variant.name}@{backend}"] = outcomes

    def step(self, phases, phase):
        """One sweep; latency samples are each variant's time to verdict."""
        import repro.validate as validate

        verdict_at = []
        t0 = time.perf_counter()
        report = validate.run_sweep(
            SWEEP_MODEL, self.lineup, frames=SWEEP_FRAMES, tag=self.tag,
            backends=SWEEP_BACKENDS,
            on_result=lambda *_: verdict_at.append(time.perf_counter()))
        report.triage = validate.triage_sweep(report)
        report.render()
        t1 = time.perf_counter()
        seen = set()
        for result in report.results:
            name = result.variant.name
            seen.add(name)
            phases.note(phase, f"variants_{result.status}")
            label = (report.triage.cluster_of(name).label
                     if result.report is not None else None)
            phases.record(phase, result.completed and name in self.expected
                          and (result.healthy, label) in self.expected[name])
        missing = len(set(self.expected) - seen)
        if missing:
            phases.record(phase, False, missing)
        return {"latency_ms": [(t - t0) * 1e3 for t in verdict_at],
                "items": SWEEP_FRAMES * len(report.completed),
                "seconds": t1 - t0,
                "first_verdict_s": verdict_at[0] - t0}


# ------------------------------------------------------------------ stream

class StreamWorkload(Workload):
    """One operation = one frame through the always-on instrumented app."""

    def setup(self, args, rec):
        import repro
        start_tracing(rec)
        from repro.zoo import get_model, playback_data

        self.graph = get_model(*STREAM_MODEL)
        self.log_dir = tempfile.mkdtemp(prefix="stream-log-")
        self.app = repro.EdgeApp(self.graph, monitor=repro.MLEXray(
            "edge", per_layer=True, sink=repro.DirectorySink(self.log_dir)))
        self.raw, self.labels = playback_data(STREAM_MODEL[0], STREAM_POOL,
                                              str(args.seed))
        self.sent: list[tuple[str, int, bool]] = []   # (phase, pool idx, ok)
        self._warm_out = self.app.run(self.raw[:1], self.labels[:1],
                                      log_raw=True)[0]

    def references(self):
        from repro.pipelines import make_preprocess
        from repro.runtime import Interpreter

        interpreter = Interpreter(self.graph)
        preprocess = make_preprocess(self.graph.metadata["pipeline"])
        self.refs = []
        for i in range(STREAM_POOL):
            out = interpreter.invoke(preprocess(self.raw[i:i + 1]))
            self.refs.append(next(iter(out.values()))[0].copy())
        self.sent.append(("setup", 0, same_bytes(self._warm_out,
                                                  self.refs[0])))

    def step(self, phases, phase):
        """One pass over the frame pool, one frame per ``run`` call."""
        latency_ms = []
        t_pass = time.perf_counter()
        for i in range(STREAM_POOL):
            t0 = time.perf_counter()
            out = self.app.run(self.raw[i:i + 1], self.labels[i:i + 1],
                               log_raw=True)
            latency_ms.append((time.perf_counter() - t0) * 1e3)
            self.sent.append((phase, i, same_bytes(out[0], self.refs[i])))
        return {"latency_ms": latency_ms, "items": STREAM_POOL,
                "seconds": time.perf_counter() - t_pass}

    def close(self):
        self.app.monitor.close()

    def discard(self):
        shutil.rmtree(self.log_dir, ignore_errors=True)

    def finish(self, phases):
        """Reload the log: it must hold exactly the frames sent, in order."""
        from repro.instrument import EXrayLog

        try:
            log = EXrayLog.load(self.log_dir)
            logged = [frame.tensor("model_output") for frame in
                      log.iter_frames(keys={"model_output"})]
        finally:
            shutil.rmtree(self.log_dir, ignore_errors=True)
        count_ok = len(logged) == len(self.sent)
        for k, (phase, idx, out_ok) in enumerate(self.sent):
            phases.record(phase, count_ok and out_ok
                          and same_bytes(logged[k], self.refs[idx]))


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# -------------------------------------------------------------- batch_eval

class BatchEvalWorkload(Workload):
    """One pass = every model's items once; one operation = one batch."""

    def setup(self, args, rec):
        import repro
        start_tracing(rec)
        from repro.zoo import get_model, playback_data

        self.items = []
        for name, stage in EVAL_MODELS:
            app = repro.EdgeApp(get_model(name, stage))
            raw, labels = playback_data(name, EVAL_ITEMS, str(args.seed))
            app.run_batched(raw[:EVAL_BATCH], batch=EVAL_BATCH)
            self.items.append((name, app, raw, labels))

    def references(self):
        from repro.pipelines import EdgeApp
        from repro.runtime import ReferenceOpResolver

        self.ref_top1 = {}
        for name, app, raw, labels in self.items:
            ref = EdgeApp(app.graph, resolver=ReferenceOpResolver())
            pred = ref.run_batched(raw, batch=EVAL_BATCH).argmax(-1)
            self.ref_top1[name] = float((pred == labels).mean())

    def step(self, phases, phase):
        """One pass over every model's items.

        A latency sample is one request: the next batch of 32 of every
        model in the mix, each through its own ``run_batched`` call.
        """
        latency_ms = []
        outs = {name: [] for name, _, _, _ in self.items}
        t_pass = time.perf_counter()
        for start in range(0, EVAL_ITEMS, EVAL_BATCH):
            t0 = time.perf_counter()
            for name, app, raw, _ in self.items:
                outs[name].append(app.run_batched(
                    raw[start:start + EVAL_BATCH], batch=EVAL_BATCH))
            latency_ms.append((time.perf_counter() - t0) * 1e3)
        seconds = time.perf_counter() - t_pass
        for name, _, _, labels in self.items:
            top1 = float((np.concatenate(outs[name]).argmax(-1)
                          == labels).mean())
            phases.record(phase, abs(top1 - self.ref_top1[name])
                          <= EVAL_TOP1_MARGIN, len(outs[name]))
        return {"latency_ms": latency_ms,
                "items": EVAL_ITEMS * len(self.items), "seconds": seconds}


WORKLOADS = {"sweep": SweepWorkload, "stream": StreamWorkload,
             "batch_eval": BatchEvalWorkload}


# -------------------------------------------------------------------- main

def peak_rss_mb() -> float:
    """Peak RSS over this process and its reaped children (pool workers)."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def start_tracing(rec) -> None:
    """Wrap the layer entry points; called by each set-up after its imports."""
    if rec is not None:
        import tracing

        tracing.install(rec)
        rec.enabled = True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit right after set-up (a set-up probe)")
    args = parser.parse_args(argv)
    work_dir = Path(args.work_dir)
    tempfile.tempdir = str(work_dir)

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder(work_dir)
    workload = WORKLOADS[args.workload]()
    t_setup = time.perf_counter()
    workload.setup(args, rec)
    setup_inner_s = time.perf_counter() - t_setup
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        workload.discard()
        print(json.dumps({"setup_inner_s": setup_inner_s}), flush=True)
        return 0

    if rec is not None:
        rec.enabled = False
    workload.references()
    phases = Phases()
    workload.step(phases, "warmup")   # lazy imports, first-use allocations

    if rec is not None:
        rec.enabled = True
    passes: list[dict] = []
    samples = 0
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while True:
        if rec is not None:
            rec.run_id = f"{args.workload}-{len(passes)}"
        t0 = time.perf_counter()
        passes.append(workload.step(phases, "timed"))
        samples += len(passes[-1]["latency_ms"])
        now = time.perf_counter()
        # Stop before a pass that would end past the deadline, so a round
        # measures at most its share (long sweep passes would overshoot),
        # once there are enough samples for a tail with 10 beyond it.
        if samples > TAIL_BEYOND and now + (now - t0) > deadline:
            break
    window_s = time.perf_counter() - t_start
    workload.close()
    if rec is not None:
        rec.enabled = False
    workload.finish(phases)
    rss = peak_rss_mb()

    import envstamp

    result = {
        "setup_inner_s": setup_inner_s,
        "window_s": window_s,
        "passes": passes,
        "phases": phases.counts,
        "peak_rss_mb": rss,
        "blas": envstamp.blas_info(),
    }
    if rec is not None:
        spans = tracing.merge(rec)
        result["layer_metrics"] = tracing.layer_metrics(spans)
        result["self_time_s"] = tracing.self_times(spans)
        trace_path = work_dir / "trace.json"
        trace_path.write_text(json.dumps(tracing.chrome_trace(spans, {})))
        result["trace_file"] = str(trace_path)
        result["spans"] = len(spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

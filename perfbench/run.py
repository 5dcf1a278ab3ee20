"""The repository benchmark: deployment sweep, always-on stream, batched eval.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (all closed loops with one caller; the seed becomes the playback
split tag, so the program only sees the generated frames):

* ``sweep``: ``run_sweep`` of 9 variants x 2 kernel backends of quantized
  and float ``micro_mobilenet_v2``, then ``triage_sweep`` and ``render``;
* ``stream``: the instrumented ``EdgeApp`` with a per-layer ``MLEXray``
  monitor streaming to a ``DirectorySink``, one frame at a time;
* ``batch_eval``: ``EdgeApp.run_batched`` over four models, batch 32.

Each run warms the zoo cache, starts a few fresh round processes (see
``measure.py``) that each set up, compute correctness references outside the
timed region, and measure a share of ``--seconds``, then a few set-up-only
probes. It prints the environment stamp, per-phase operation counts and
the end-to-end table, and as its last line one JSON object with the
end-to-end metrics of ``BENCHMARK.json``.

With ``--trace 1`` it runs one untraced and one traced round instead. The
traced round wraps each layer's public entry points from this directory
(nothing inside ``src/`` changes) and yields the per-layer metrics, a
per-layer self-time table, the tracing overhead on every end-to-end metric
and a Chrome trace file; the JSON line then carries the per-layer metrics.
Result documents and traces land in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envstamp
import measure
from measure import TAIL_BEYOND

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Per workload: measured rounds (fresh processes, each measuring
# seconds/rounds) and extra set-up-only probes. A sweep pass takes ~5 s, so
# the sweep measures in fewer, longer rounds.
PLAN = {
    "sweep": {"rounds": 2, "probes": 3},
    "stream": {"rounds": 3, "probes": 2},
    "batch_eval": {"rounds": 3, "probes": 2},
}
SETUP_TIMEOUT_S = 300.0
FINISH_GRACE_S = 120.0


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ rounds

def run_round(workload: str, seed: int, seconds: float, trace: bool,
              work_dir: Path, setup_only: bool = False) -> dict:
    """Start one fresh round process; time process start to READY."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(work_dir))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        line = ""
        while line.strip() != "READY":
            remaining = t0 + SETUP_TIMEOUT_S - time.perf_counter()
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(remaining, 0.0))
            if not ready:
                raise BenchError(f"{workload} round not ready after "
                                 f"{SETUP_TIMEOUT_S:.0f} s")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"{workload} round exited during set-up "
                                 f"(code {proc.wait()})")
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=seconds + FINISH_GRACE_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} round failed with code "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    return result


def warm_zoo(workload: str) -> dict:
    """Train or load every zoo model the workload uses, before any timing."""
    from repro.zoo import get_trained
    from repro.zoo.cache import cache_dir

    before = set(cache_dir().iterdir())
    t0 = time.perf_counter()
    models = measure.models_used(workload)
    for name in models:
        get_trained(name)
    trained = sorted(p.name for p in set(cache_dir().iterdir()) - before)
    return {"models": models, "seconds": time.perf_counter() - t0,
            "training_ran": bool(trained), "trained_files": trained}


# ------------------------------------------------------------- aggregation

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def round_tail(rounds: list[dict]) -> tuple[float, float, int]:
    """Median over rounds of each round's tail (value, percentile, samples).

    Each round is its own fresh process; taking the tail per round and
    the median across rounds keeps one noisy process from setting it.
    """
    tails = sorted(tail([ms for p in r["passes"] for ms in p["latency_ms"]])
                   for r in rounds)
    return tails[(len(tails) - 1) // 2]


def end_to_end(rounds: list[dict], probes: list[dict]) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json``, pooled over rounds."""
    passes = [p for r in rounds for p in r["passes"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds + probes),
        "latency_ms_p50": statistics.median(
            ms for p in passes for ms in p["latency_ms"]),
        "latency_ms_tail": round_tail(rounds)[0],
        "items_per_s": statistics.median(p["items"] / p["seconds"]
                                         for p in passes),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def workload_detail(workload: str, rounds: list[dict], metrics: dict,
                    ops: dict) -> list[tuple[str, float, str, str]]:
    """The workload's own figures, by the names users know them by."""
    passes = [p for r in rounds for p in r["passes"]]
    n = sum(len(p["latency_ms"]) for p in passes)
    _, pct, per_round = round_tail(rounds)
    tail_how = (f"p{pct:.2f} of a round's {per_round} samples (10 beyond "
                f"it), median of {len(rounds)} rounds")
    p50, tail_ms = metrics["latency_ms_p50"], metrics["latency_ms_tail"]
    rows = [("fail_ratio", ops["failed"] / ops["attempted"], "ratio",
             f"{ops['failed']} of {ops['attempted']} operations")]
    if workload == "sweep":
        rows += [
            ("sweep_s", statistics.median(p["seconds"] for p in passes), "s",
             f"median of {len(passes)} sweeps, call to rendered triage"),
            ("first_verdict_s", statistics.median(
                p["first_verdict_s"] for p in passes), "s",
             f"median of {len(passes)} sweeps, call to first result"),
            ("verdict_ms_p50", p50, "ms",
             f"median of {n} variant verdicts, from the sweep call"),
            ("verdict_ms_tail", tail_ms, "ms", tail_how)]
    elif workload == "stream":
        rows += [("frame_ms_p50", p50, "ms", f"median of {n} frames"),
                 ("frame_ms_tail", tail_ms, "ms", tail_how)]
    else:
        rows += [
            ("eval_items_per_s", metrics["items_per_s"], "1/s",
             f"median of {len(passes)} passes over the 4-model mix"),
            ("request_ms_p50", p50, "ms",
             f"median of {n} requests (a batch of 32 per model)"),
            ("request_ms_tail", tail_ms, "ms", tail_how)]
    return rows


def count_ops(rounds: list[dict]) -> tuple[dict, dict]:
    """Totals over every operation, and per-phase counts over the rounds."""
    phases: dict[str, dict[str, int]] = {}
    for r in rounds:
        for phase, counts in r["phases"].items():
            acc = phases.setdefault(phase, {})
            for key, n in counts.items():
                acc[key] = acc.get(key, 0) + n
    total = {"attempted": sum(p["attempted"] for p in phases.values()),
             "failed": sum(p["failed"] for p in phases.values())}
    return total, phases


# ---------------------------------------------------------------- printing

def table(headers, rows, title) -> str:
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    fmt = " | ".join(f"{{:<{w}}}" for w in widths)
    lines = [title, fmt.format(*headers),
             "-+-".join("-" * w for w in widths)]
    lines += [fmt.format(*map(str, row)) for row in rows]
    return "\n".join(lines)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[mode]}

    plan = PLAN[args.workload]
    work_root = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        zoo = warm_zoo(args.workload)
        env = envstamp.stamp(ROOT)

        def run(i, seconds, trace=False, setup_only=False):
            return run_round(args.workload, args.seed, seconds, trace,
                             work_root / f"round-{i}", setup_only)

        if args.trace:
            untraced = run(0, args.seconds / 2)
            traced = run(1, args.seconds / 2, trace=True)
            rounds, probes = [untraced, traced], []
            trace_file = out_dir / f"{stem}.chrome.json"
            doc = json.loads(Path(traced["trace_file"]).read_text())
            doc["otherData"] = {"env": env, "workload": args.workload,
                                "seed": args.seed}
            trace_file.write_text(json.dumps(doc))
        else:
            share = args.seconds / plan["rounds"]
            rounds = [run(i, share) for i in range(plan["rounds"])]
            probes = [run(plan["rounds"] + i, 0.0, setup_only=True)
                      for i in range(plan["probes"])]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    ops, phases = count_ops(rounds)
    env["blas_effective"] = rounds[0]["blas"]
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "zoo": zoo, "phases": phases, "operations": ops,
              "rounds": [{"setup_s": r["setup_s"],
                          "window_s": r["window_s"],
                          "passes": len(r["passes"]),
                          **end_to_end([r], [])} for r in rounds],
              "probe_setup_s": [p["setup_s"] for p in probes]}
    print(f"environment: {json.dumps(env)}")
    print(f"zoo warm-up: {json.dumps(zoo)}")
    print(table(("phase", "attempted", "succeeded", "failed", "other"),
                [(name, c["attempted"], c["succeeded"], c["failed"],
                  " ".join(f"{k}={v}" for k, v in c.items()
                           if k not in ("attempted", "succeeded", "failed")))
                 for name, c in sorted(phases.items())],
                title=f"operations ({args.workload}, seed {args.seed})"))
    if args.trace:
        metrics = traced["layer_metrics"]
        self_time = traced["self_time_s"]
        before = end_to_end([untraced], [])
        after = end_to_end([traced], [])
        rows, last_layer = [], None
        for name, value in metrics.items():
            layer = name.split(".")[0]
            first = layer != last_layer
            last_layer = layer
            rows.append((layer if first else "",
                         fmt(self_time.get(layer, 0.0)) if first else "",
                         name, fmt(value), units[name]))
        print(table(("layer", "self time (s)", "metric", "value", "unit"),
                    rows, title="per-layer metrics (traced round)"))
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(table(("metric", "untraced", "traced", "overhead", "unit"),
                    [(k, fmt(before[k]), fmt(after[k]),
                      fmt(after[k] - before[k]), e2e_units[k])
                     for k in before],
                    title="tracing overhead (traced - untraced)"))
        print(f"chrome trace: {trace_file.relative_to(ROOT)}")
        result.update(per_layer=metrics, self_time_s=self_time,
                      untraced=before, traced=after,
                      trace_file=str(trace_file.relative_to(ROOT)))
    else:
        metrics = end_to_end(rounds, probes)
        detail = workload_detail(args.workload, rounds, metrics, ops)
        print(table(("metric", "value", "unit"),
                    [(k, fmt(v), units[k]) for k, v in metrics.items()],
                    title="end-to-end metrics"))
        print(table(("figure", "value", "unit", "how"),
                    [(k, fmt(v), unit, how) for k, v, unit, how in detail],
                    title=f"{args.workload} figures"))
        result.update(end_to_end=metrics,
                      detail={k: {"value": v, "unit": unit, "how": how}
                              for k, v, unit, how in detail})
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                         f"differ from the {mode} list in BENCHMARK.json")
    result_file = out_dir / f"{stem}.json"
    result_file.write_text(json.dumps(result, indent=2))
    print(f"result: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compiled-plan overhead: per-invoke Python cost with and without a plan.

The compiled :class:`~repro.runtime.plan.ExecutionPlan` hoists executor
lookups, quantized-flag derivation, output-spec resolution, op-class
labelling, refcount construction, and MAC/element counting out of the
invoke loop. This benchmark drives repeated single-frame invokes of a small
zoo model — the always-on deployment pattern whose overhead Table 2 prices
— through the compiled path and through the test-only re-derive reference
(:class:`~tests.reference_interpreter.ReDeriveInterpreter`, which compiles
a fresh plan on every invoke) and reports the per-invoke saving.

Two properties are asserted:

* **deterministic**: the planned path performs zero resolver lookups after
  the first invoke, while the seed path performs one per node per invoke;
* **measured**: best-of-k wall time per invoke is no worse under the plan
  (the whole point of compiling it).
"""

import time

import numpy as np

from benchmarks.conftest import run_experiment, save_result
from repro.perfmodel import PIXEL4_CPU
from repro.runtime import Interpreter, OpResolver
from repro.util.tabulate import format_table
from repro.zoo import eval_data, get_model
from tests.reference_interpreter import ReDeriveInterpreter

MODEL = "micro_mobilenet_v1"
INVOKES = 40
REPEATS = 5


class CountingResolver(OpResolver):
    """OpResolver that counts lookup() calls."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def lookup(self, op, quantized):
        self.lookups += 1
        return super().lookup(op, quantized)


def timed_invokes(interp, x) -> float:
    """Best-of-REPEATS seconds for INVOKES invokes (steady-state loop)."""
    interp.invoke(x)  # warm caches / compile the plan outside the timer
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(INVOKES):
            interp.invoke(x)
        best = min(best, time.perf_counter() - t0)
    return best


def test_plan_invoke_overhead(benchmark):
    graph = get_model(MODEL, "mobile")
    x, _ = eval_data(MODEL, 1, "bench-plan")
    x = np.asarray(x, dtype=np.float32)

    def experiment():
        results = {}
        for label, cls in (("seed (re-derive)", ReDeriveInterpreter),
                           ("compiled plan", Interpreter)):
            resolver = CountingResolver()
            interp = cls(graph, resolver, device=PIXEL4_CPU)
            seconds = timed_invokes(interp, x)
            results[label] = {
                "ms_per_invoke": seconds / INVOKES * 1e3,
                "lookups": resolver.lookups,
                "latency_ms": interp.last_latency_ms,
            }
        return results

    results = run_experiment(benchmark, experiment)
    seed = results["seed (re-derive)"]
    planned = results["compiled plan"]
    num_nodes = len(graph.nodes)

    print()
    print(format_table(
        ("path", "ms/invoke", "resolver lookups"),
        [(label, f"{r['ms_per_invoke']:.3f}", r["lookups"])
         for label, r in results.items()],
        title=f"per-invoke interpreter overhead ({MODEL}, "
              f"{INVOKES} invokes x best-of-{REPEATS})"))
    speedup = seed["ms_per_invoke"] / planned["ms_per_invoke"]
    print(f"plan speedup: {speedup:.2f}x")
    save_result("plan_overhead", {
        "seed_ms_per_invoke": seed["ms_per_invoke"],
        "plan_ms_per_invoke": planned["ms_per_invoke"],
        "speedup": speedup,
        "num_nodes": num_nodes,
    })

    # Simulated latency must be unaffected by how bindings are derived.
    assert planned["latency_ms"] == seed["latency_ms"]
    # Seed path re-derives every node's executor on every invoke; the plan
    # resolves each exactly once, at compile time.
    assert seed["lookups"] == num_nodes * (1 + REPEATS * INVOKES)
    assert planned["lookups"] == num_nodes
    # And the cached bindings translate into measured per-invoke savings.
    # Small tolerance: CI runners are noisy, and the deterministic lookup
    # counts above are the structural guarantee.
    assert planned["ms_per_invoke"] < seed["ms_per_invoke"] * 1.05

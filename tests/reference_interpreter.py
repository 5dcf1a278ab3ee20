"""Test-only reference interpreter: re-derive every binding on every invoke.

:class:`ReDeriveInterpreter` is the seed execution path kept as a parity
reference. It runs the same invoke loop as :class:`Interpreter` but never
caches its plan: each invoke compiles a fresh one, so executor lookups,
quantized flags, specs, refcounts, and latency-model work are derived per
call (one resolver lookup per node per invoke). Parity tests and the
``plan_overhead`` benchmark compare the compiled path against it;
:func:`strip_wall` drops the one profile field parity cannot cover.

Import it as ``tests.reference_interpreter``.
"""

from repro.runtime import ExecutionPlan, Interpreter, compile_plan


class ReDeriveInterpreter(Interpreter):
    """An :class:`Interpreter` that compiles a fresh plan on every invoke."""

    @property
    def plan(self) -> ExecutionPlan:
        return compile_plan(self.graph, self.resolver)


def strip_wall(profile):
    """Profile entries minus the measured (never comparable) wall_ms field."""
    return [{k: v for k, v in entry.items() if k != "wall_ms"}
            for entry in profile]

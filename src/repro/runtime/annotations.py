"""Executor annotations: contracts the static analyses may exploit, never trust.

Executors are plain ``(node, inputs, ctx) -> ndarray`` callables; this
decorator attaches a capability flag the plan compiler reads into
:class:`~repro.runtime.plan.NodeBinding`:

* :func:`aliases_input` — the executor returns a numpy *view* of one of
  its inputs (reshape/flatten/channel_reverse). The arena packer may merge
  the output into its input's slot — but only after
  :func:`~repro.analysis.arena.verify_layout` re-proves the aliasing from
  the graph. The flag is an eligibility hint, never a proof. (The
  runtime's refcounted memory accounting needs no hint: it charges every
  base buffer once, whatever views share it.)

Annotating a function that does not honor the contract is a correctness
bug; ``tools/check_repo_rules.py`` enforces the converse (view-returning
executors *must* carry ``aliases_input``).
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def aliases_input(fn: F) -> F:
    """Mark an executor as returning a view of (one of) its inputs."""
    fn.aliases_input = True
    return fn


__all__ = ["aliases_input"]

"""Dataflow (D) and arena (A) lint rules: proofs from the range analysis.

Unlike the structural G/Q rules, these consume the abstract interpreter
(:mod:`repro.analysis.dataflow`) and the arena verifier
(:mod:`repro.analysis.arena`), so every finding is a statement about *all*
inputs within the deployment contract — an accumulator that *can* overflow,
a requantization that saturates for *every* reachable activation — not a
heuristic about typical ones.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.dataflow import Interval
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import RuleContext, register_rule
from repro.util.errors import GraphError

INT32 = Interval(float(-(2 ** 31)), float(2 ** 31 - 1))
"""The integer kernels' accumulator domain."""

_WEIGHTED = ("conv2d", "depthwise_conv2d", "dense")


@register_rule("D001", severity="error", category="dataflow",
               title="provable int8 accumulator overflow")
def accumulator_overflow(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A quantized node's worst-case accumulator escapes the int32 domain.

    The integer conv/dwconv/dense kernels accumulate centered input codes
    times weight codes (plus bias) in int32. The range analysis derives the
    worst-case accumulator over all reachable input codes; if that interval
    escapes ``[-2^31, 2^31 - 1]`` there exists an input on which the real
    kernel wraps around — silently, into a plausible-looking wrong answer.
    """
    facts = ctx.get_ranges()
    for node in ctx.graph.nodes:
        acc = facts.accumulators.get(node.name)
        if acc is None or acc.is_empty:
            continue
        if acc.lo < INT32.lo or acc.hi > INT32.hi:
            yield ctx.diag(
                f"worst-case accumulator of {node.op} node {node.name!r} "
                f"spans [{acc.lo:.4g}, {acc.hi:.4g}], outside int32 "
                f"[{INT32.lo:.4g}, {INT32.hi:.4g}]: some reachable input "
                "overflows the integer kernel",
                node=node.name, tensor=node.output,
                evidence={"accumulator": acc.to_doc(),
                          "int32": INT32.to_doc()})


@register_rule("D002", severity="error", category="dataflow",
               title="requantization provably saturates to a constant")
def requant_saturation(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A requantization step maps every reachable input to one output code.

    Where Q004 flags suspicious quantization parameters heuristically, this
    is the proved version: the derived input code range has nonzero width,
    yet after the output multiplier and fused-activation clamp the output
    interval collapses to a single code. The layer erases all information
    for every input the deployment can produce.
    """
    from repro.runtime.plan import node_is_quantized

    facts = ctx.get_ranges()
    for node in ctx.graph.nodes:
        if node.op not in _WEIGHTED:
            continue
        if not node_is_quantized(ctx.graph, node):
            continue
        x = facts.ranges.get(node.inputs[0])
        out = facts.ranges.get(node.output)
        acc = facts.accumulators.get(node.name)
        if x is None or out is None or acc is None:
            continue
        if x.is_empty or out.is_empty or x.width == 0 or acc.width == 0:
            continue
        if out.width == 0:
            yield ctx.diag(
                f"{node.op} node {node.name!r} maps every reachable input "
                f"code in [{x.lo:.0f}, {x.hi:.0f}] to the single output "
                f"code {out.lo:.0f}: requantization is saturated for all "
                "inputs",
                node=node.name, tensor=node.output,
                evidence={"input_codes": x.to_doc(),
                          "accumulator": acc.to_doc(),
                          "output_code": out.lo})


@register_rule("D003", severity="info", category="dataflow",
               title="constant-foldable subgraph")
def constant_foldable(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A node's output is provably one value: fold it (and its ancestors).

    The range analysis derived a single-point interval for the node's
    output, so for every input within the deployment contract the node
    computes the same constant. The node and the subgraph feeding it can be
    replaced by that constant at conversion time — wasted compute at best,
    a zeroed-out layer (dead weights) at worst.
    """
    facts = ctx.get_ranges()
    for node in ctx.graph.nodes:
        out = facts.ranges.get(node.output)
        if out is None or not out.is_point:
            continue
        yield ctx.diag(
            f"{node.op} node {node.name!r} provably outputs the constant "
            f"{out.lo:.6g} for every reachable input; the subgraph "
            "producing it can be folded away",
            node=node.name, tensor=node.output,
            evidence={"constant": out.lo})


@register_rule("D004", severity="error", category="dataflow",
               title="value-range contradiction")
def range_contradiction(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Derived reachable ranges contradict themselves or calibration stats.

    Two flavours. An *empty* derived interval means no input within the
    deployment contract can produce the tensor at all — the output is
    unreachable and the graph around it is miswired. A *disjoint* finding
    means the calibration statistics recorded at quantization time
    (``metadata["calibration_ranges"]``) lie strictly outside the interval
    the graph can reach: the stats and the graph cannot both describe the
    same deployment, so one of them is stale or corrupted.
    """
    facts = ctx.get_ranges()
    for problem in facts.contradictions:
        tensor = problem["tensor"]
        if problem["kind"] == "empty":
            yield ctx.diag(
                f"tensor {tensor!r} has an empty derived interval: no "
                "input within the deployment contract reaches it",
                tensor=tensor, evidence=dict(problem))
        else:
            yield ctx.diag(
                f"calibration range {problem['hint']} of tensor {tensor!r} "
                f"is disjoint from its derived reachable range "
                f"{problem['derived']}: the recorded statistics and the "
                "graph cannot both be right",
                tensor=tensor, evidence=dict(problem))


@register_rule("A001", severity="error", category="arena",
               title="arena layout unsound")
def arena_layout_soundness(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The static arena layout fails its independent soundness proof.

    Packs an arena layout from the plan and verifies it against liveness
    re-derived from the graph alone: every tensor has a correctly-sized
    slot inside the arena, and no two simultaneously-live tensors overlap
    in bytes. Any finding means a runtime serving tensors from those
    offsets would corrupt activations.
    """
    from repro.analysis.arena import pack_arena, verify_layout

    try:
        plan = ctx.get_plan()
    except GraphError:
        return  # P001 owns unexecutable graphs; no plan means no layout
    yield from verify_layout(ctx.graph, pack_arena(ctx.graph, plan))

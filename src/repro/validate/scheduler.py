"""Streaming sweep scheduler: asyncio dispatch, priorities, cancellation.

The blocking pool in :func:`~repro.validate.sweep.run_sweep` answers "what
happened to every variant" only after the slowest one finishes. Fleet-scale
triage wants the opposite: :func:`stream_sweep` is an asyncio event loop
wrapped around the same process/thread/serial executors that **yields**
each :class:`~repro.validate.reporting.VariantResult` the moment it
completes, dispatches variants in expected-failure order (kernel-bug
presets and override-bearing variants first — see
:func:`~repro.validate.variants.expected_failure_score`), and enforces
cancellation policies:

* ``max_failures``: once that many variants fail validation, nothing more
  is dispatched; undispatched variants are yielded as ``skipped`` results
  so the partial report still accounts for every variant.
* ``deadline_s``: a wall-clock budget for the whole sweep; when it expires,
  in-flight stragglers are cancelled (best effort — a running process-pool
  job cannot be interrupted, only abandoned) and yielded as ``cancelled``.

Per-variant work is deterministic and order-independent (shared reference
log, seeded playback data, simulated latency), so draining the stream and
re-sorting by lineup order reproduces the blocking sweep byte for byte —
which is exactly what :func:`~repro.validate.sweep.run_sweep` now does.

The shared reference pipeline streams to a
:class:`~repro.instrument.sinks.DirectorySink` directory exactly once,
and jobs carry its *path* — each worker decodes it once and reuses it
(:func:`~repro.validate.execution.resolve_ref_log`) instead of
deserializing a pickled per-layer tensor payload per job. ``log_dir``
additionally makes every worker stream its edge log to
``log_dir/<variant>`` shards and read the reference lazily.

:func:`iter_sweep` is the synchronous bridge for non-async callers (the
CLI's ``repro sweep --stream``): a plain generator that owns a private
event loop and yields results as they complete.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from collections import deque
from collections.abc import AsyncIterator, Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.util.errors import ValidationError
from repro.validate.execution import (
    _resident_log,
    _run_variant_args,
    build_reference_log,
    check_executor,
    check_log_dir_name,
    make_pool,
)
from repro.validate.reporting import (
    STATUS_CANCELLED,
    STATUS_SKIPPED,
    VariantResult,
)
from repro.validate.variants import (
    SweepVariant,
    expand_backends,
    order_by_expected_failure,
    plan_variants,
)


@dataclass(frozen=True)
class SweepPolicy:
    """Scheduling policy for a streaming sweep.

    Attributes
    ----------
    max_failures:
        Stop dispatching once this many variants have failed validation;
        ``None`` never stops early.
    deadline_s:
        Wall-clock budget (seconds) for the whole sweep; stragglers running
        past it are cancelled. ``None`` means no deadline.
    prioritize:
        Dispatch in expected-failure order instead of lineup order. Result
        *contents* are order-independent, so this only changes how soon
        failures (and thus ``max_failures``) surface.
    """

    max_failures: int | None = None
    deadline_s: float | None = None
    prioritize: bool = True

    def check(self) -> None:
        if self.max_failures is not None and self.max_failures < 1:
            raise ValidationError(
                f"max_failures must be >= 1, got {self.max_failures}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValidationError(
                f"deadline_s must be >= 0, got {self.deadline_s}")


def _unrun(variant: SweepVariant, status: str,
           diagnostics: list | None = None) -> VariantResult:
    """A placeholder result for a variant the scheduler never finished."""
    return VariantResult(variant=variant, report=None, mean_latency_ms=0.0,
                         peak_memory_mb=0.0, status=status,
                         diagnostics=list(diagnostics or []))


async def stream_sweep(
    model: str,
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None = None,
    *,
    frames: int = 16,
    executor: str = "process",
    workers: int | None = None,
    always_assert: bool = False,
    tag: str = "sweep",
    policy: SweepPolicy | None = None,
    on_dispatch: Callable[[SweepVariant], None] | None = None,
    backends: list[str] | str | None = None,
    log_dir: str | Path | None = None,
    ref_log_dir: str | Path | None = None,
    preflight: bool = True,
) -> AsyncIterator[VariantResult]:
    """Yield one :class:`VariantResult` per variant, as each completes.

    Every variant in the lineup is accounted for: completed results stream
    out in completion order, and once the sweep stops early the remaining
    variants arrive as ``skipped``/``cancelled`` placeholders. Parameters
    mirror :func:`~repro.validate.sweep.run_sweep`, plus ``policy``
    (cancellation/prioritization) and ``on_dispatch`` (a hook called with
    each variant immediately before it is handed to an executor — the seam
    tests and progress UIs observe dispatch through). ``backends`` fans
    the lineup across kernel backends before scheduling (see
    :func:`~repro.validate.variants.expand_backends`).

    The zoo prewarm (every lineup stage's graph and the playback batch)
    and shared reference-pipeline run happen synchronously before the
    first dispatch; the stream starts once workers can reuse them. The
    reference run streams into a
    :class:`~repro.instrument.sinks.DirectorySink` directory and jobs
    carry its *path* (workers read it lazily) instead of a pickled
    in-memory log — under ``log_dir`` that directory is
    ``log_dir/reference`` and each variant's edge log streams to
    ``log_dir/<variant name>``; otherwise the reference lands in a
    temporary directory cleaned up when the stream finishes.

    ``ref_log_dir`` names an *existing* streamed reference-log directory
    (e.g. the one a sharded sweep's planner built once for the whole
    fleet); the scheduler then skips the reference-pipeline run entirely
    and jobs read the shared log from that path. The directory must hold a
    loadable EXray log for the same (model, frames, tag) playback — shard
    workers verify this by content digest before trusting it.
    ``preflight=True`` (the default) statically vets the lineup first
    (:func:`~repro.analysis.preflight.preflight_lineup`): variants with
    error-severity diagnostics are yielded immediately as ``skipped``
    results carrying those diagnostics, warning-level findings ride along
    on the results of variants that still run, and only the statically
    sound remainder is dispatched. With ``preflight=False`` every field
    problem raises from ``plan_variants`` instead.
    """
    # Lineup *structure* problems (empty, duplicate names) always raise —
    # there is no single variant to pin a diagnostic on. Per-variant field
    # validation is deferred to the pre-flight when it is on, so a bad
    # field becomes a skipped result instead of an exception.
    variants = plan_variants(variants, check=not preflight)
    if backends is not None:
        variants = plan_variants(expand_backends(variants, backends),
                                 check=not preflight)
    check_executor(executor, workers)
    policy = policy or SweepPolicy()
    policy.check()
    # An unknown model is a caller error, not one S005 per variant.
    from repro.zoo import get_entry, get_model, playback_data
    get_entry(model)

    doomed: list[VariantResult] = []
    carried: dict[str, list] = {}
    if preflight:
        from repro.analysis.preflight import preflight_lineup

        reports = preflight_lineup(model, variants)
        runnable = []
        for variant in variants:
            report = reports[variant.name]
            if report.has_errors:
                doomed.append(_unrun(variant, STATUS_SKIPPED,
                                     report.diagnostics))
            else:
                if report.diagnostics:
                    carried[variant.name] = list(report.diagnostics)
                runnable.append(variant)
        # Survivors still pass the full field validation: the pre-flight
        # mirrors it rule-for-rule, so this is belt-and-braces.
        variants = plan_variants(runnable) if runnable else []
    for result in doomed:
        yield result
    if not variants:
        return

    # Build every graph and the playback batch the jobs need in the parent
    # (training the model first if its weights are not cached yet). The zoo
    # memoizes both, so fork-started pool workers inherit them instead of
    # each rebuilding them per job, even when the pre-flight is off or the
    # reference log comes from ``ref_log_dir``; spawn-started workers build
    # each at most once. The (variant-independent) reference pipeline then
    # runs exactly once, streamed to disk so jobs share it by path.
    for stage in dict.fromkeys(variant.stage for variant in variants):
        get_model(model, stage)
    playback_data(model, frames, tag)

    def _carry(result: VariantResult) -> VariantResult:
        extra = carried.get(result.variant.name)
        if extra:
            result.diagnostics = list(extra)
        return result

    order = (order_by_expected_failure(variants) if policy.prioritize
             else list(variants))

    log_root = Path(log_dir) if log_dir is not None else None
    if log_root is not None:
        # Fail in the parent, before any dispatch: a variant named
        # "reference" (or with path separators) would collide with the
        # shared reference stream directory mid-sweep.
        for variant in variants:
            check_log_dir_name(variant.name)
    ref_is_temp = False
    if ref_log_dir is not None:
        # A precomputed shared reference (fleet mode): never rebuilt, never
        # cleaned up. Fail before any dispatch if it is not a log directory.
        ref_root = Path(ref_log_dir)
        if not (ref_root / "meta.json").exists():
            raise ValidationError(
                f"ref_log_dir {ref_root} is not an EXray log directory "
                "(no meta.json); stream the reference there first, e.g. "
                "with build_reference_log(log_root=...)")
    else:
        if log_root is not None:
            ref_root = log_root / "reference"
        else:
            ref_root = Path(tempfile.mkdtemp(prefix="exray-ref-"))
            ref_is_temp = True
        build_reference_log(model, frames, tag, log_root=ref_root)
    ref_path = str(ref_root)

    loop = asyncio.get_running_loop()
    deadline = (loop.time() + policy.deadline_s
                if policy.deadline_s is not None else None)
    failures = 0

    def job_args(variant: SweepVariant) -> tuple:
        # A plain args tuple + the top-level worker keeps jobs picklable
        # for process pools; the reference log rides along as a path.
        return (model, variant, frames, always_assert, tag, ref_path,
                str(log_root) if log_root is not None else None)

    def dispatch_allowed() -> bool:
        if policy.max_failures is not None and failures >= policy.max_failures:
            return False
        return deadline is None or loop.time() < deadline

    queue = deque(order)

    try:
        if executor == "serial" or len(order) == 1:
            # In-loop sequential execution: deterministic ground truth,
            # still streamed — each result is yielded (and the consumer
            # runs) before the next variant is dispatched.
            while queue:
                if not dispatch_allowed():
                    break
                variant = queue.popleft()
                if on_dispatch is not None:
                    on_dispatch(variant)
                result = _run_variant_args(job_args(variant))
                if not result.healthy:
                    failures += 1
                yield _carry(result)
            tail_status = (STATUS_CANCELLED
                           if deadline is not None and loop.time() >= deadline
                           else STATUS_SKIPPED)
            while queue:
                yield _unrun(queue.popleft(), tail_status)
            return

        pool, max_workers = make_pool(executor, len(order), workers)
        inflight: dict[asyncio.Future, SweepVariant] = {}
        try:
            while queue or inflight:
                while queue and len(inflight) < max_workers \
                        and dispatch_allowed():
                    variant = queue.popleft()
                    if on_dispatch is not None:
                        on_dispatch(variant)
                    fut = loop.run_in_executor(
                        pool, _run_variant_args, job_args(variant))
                    inflight[fut] = variant
                if not inflight:
                    break  # policy tripped with nothing running: drain the tail
                timeout = None if deadline is None else max(0.0, deadline - loop.time())
                done, _ = await asyncio.wait(
                    set(inflight), timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                if not done:
                    # Deadline expired mid-flight: cancel stragglers (pending
                    # pool jobs are revoked; already-running ones are abandoned)
                    # and report them as cancelled.
                    for fut, variant in inflight.items():
                        fut.cancel()
                        fut.add_done_callback(_swallow_result)
                        yield _unrun(variant, STATUS_CANCELLED)
                    inflight.clear()
                    break
                for fut in done:
                    variant = inflight.pop(fut)
                    result = fut.result()
                    if not result.healthy:
                        failures += 1
                    yield _carry(result)
            tail_status = (STATUS_CANCELLED
                           if deadline is not None and loop.time() >= deadline
                           else STATUS_SKIPPED)
            while queue:
                yield _unrun(queue.popleft(), tail_status)
        finally:
            for fut in inflight:  # e.g. the consumer closed the generator early
                fut.cancel()
                fut.add_done_callback(_swallow_result)
            pool.shutdown(wait=False, cancel_futures=True)
    finally:
        if ref_is_temp:
            shutil.rmtree(ref_root, ignore_errors=True)
        # In-process (serial/thread) jobs memoized the decoded reference.
        _resident_log.cache_clear()


def _swallow_result(fut: asyncio.Future) -> None:
    """Retrieve an abandoned future's outcome so nothing is logged at GC."""
    if not fut.cancelled():
        fut.exception()


def iter_sweep(
    model: str,
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None = None,
    **kwargs,
) -> Iterator[VariantResult]:
    """Synchronous bridge over :func:`stream_sweep`.

    A plain generator driving a private event loop — each ``next()`` runs
    the scheduler until one more :class:`VariantResult` is ready. Accepts
    the same keyword arguments as :func:`stream_sweep`.
    """
    agen = stream_sweep(model, variants, **kwargs)
    loop = asyncio.new_event_loop()
    try:
        while True:
            try:
                yield loop.run_until_complete(agen.__anext__())
            except StopAsyncIteration:
                return
    finally:
        loop.run_until_complete(agen.aclose())
        loop.close()

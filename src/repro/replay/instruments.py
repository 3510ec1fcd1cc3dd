"""Replay telemetry, recorded once per replay from the replay's record.

Like the paper's Hall-effect clamp on the supply line, the instruments
observe a replay without changing which engine serves it.  The event
engine, the kernel and each fused grid cell produce the same
:class:`~repro.replay.capture.CompletionRecord` and the same member
totals, so the session's epilogue records every instrument here, after
the run: ``replay.*`` from the record and the trace, ``monitor.*`` from
the performance samples, and ``device.completions``, ``queue.*``,
``power.busy_*`` and ``raid.*`` from :class:`MemberUsage` /
:class:`ArrayUsage` — committed device state on the event engine and
the kernel (:func:`committed_usage`), solved rows on the grid.

Sampling is deterministic: histograms and ``io.*`` spans take every
64th completion in completion order, dispatch spans every 256th bunch
in dispatch order; counters are exact.  Spans are recorded in
simulation-time order (at one instant a completion before a dispatch,
as the event calendar runs them), so the span cap keeps the earliest.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..storage.array import DiskArray
from ..storage.base import QueuedDevice
from ..telemetry.spans import (
    SPAN_DISPATCH,
    SPAN_QUEUE,
    SPAN_SERVICE,
    SPAN_STAGE,
)
from ..trace.packed import PackedTrace
from .capture import CompletionRecord

_COMPLETION_SAMPLE_EVERY = 64
_DISPATCH_SPAN_EVERY = 256


class MemberUsage(NamedTuple):
    """One member device's share of a replay."""

    name: str
    completions: int
    pushed: int  # queue-discipline totals after the replay
    popped: int
    high_water: int
    busy_seconds: float  # busy-segment time inside the replay window


class ArrayUsage(NamedTuple):
    """The array controller's share of a replay."""

    name: str
    plans: int
    subios: int
    degraded: int
    reconstruct_reads: int


def _members(target) -> list:
    disks = getattr(target, "disks", None)
    members = disks if disks is not None else [target]
    return [m for m in members if isinstance(m, QueuedDevice)]


def _array_counts(target) -> Tuple[int, int, int, int]:
    return (
        target.completed_count, target.subio_count,
        target.degraded_requests, target.reconstruct_reads,
    )


def usage_mark(target) -> tuple:
    """The device counters :func:`committed_usage` subtracts, taken
    before the replay."""
    array = _array_counts(target) if isinstance(target, DiskArray) else None
    return [m.completed_count for m in _members(target)], array


def committed_usage(
    target, mark: tuple, start: float, end: float
) -> Tuple[List[MemberUsage], Optional[ArrayUsage]]:
    """Per-member and array usage from the state a replay committed."""
    done_before, array_before = mark
    members = [
        MemberUsage(
            dev.name, dev.completed_count - before, dev._queue.pushed_total,
            dev._queue.popped_total, dev.queued_high_water,
            dev.timeline.busy_time(start, end),
        )
        for dev, before in zip(_members(target), done_before)
    ]
    array = None
    if array_before is not None:
        now = _array_counts(target)
        array = ArrayUsage(
            target.name, *(a - b for a, b in zip(now, array_before))
        )
    return members, array


def _dispatches(
    trace: PackedTrace, start: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Bunch dispatch instants and package counts in dispatch order —
    the replay engine's rebase arithmetic, ties in bunch order."""
    times = start + (trace.timestamps - trace.timestamps[0])
    sizes = trace.bunch_sizes
    order = np.argsort(times, kind="stable")
    return times[order], sizes[order]


def record_replay(
    reg,
    trace: PackedTrace,
    start: float,
    end: float,
    record: CompletionRecord,
    perf_samples: Sequence,
    members: Sequence[MemberUsage],
    array: Optional[ArrayUsage],
) -> None:
    """Record one finished replay's instruments into ``reg``."""
    n = int(record.finishes.size)
    reg.counter("replay.bunches").inc(len(trace))
    reg.counter("replay.packages_issued").inc(trace.package_count)
    reg.counter("replay.packages_completed").inc(n)

    take = np.arange(_COMPLETION_SAMPLE_EVERY - 1, n, _COMPLETION_SAMPLE_EVERY)
    submits = record.submits[take]
    starts = record.starts[take]
    finishes = record.finishes[take]
    for name, values in (
        ("replay.queue_seconds", starts - submits),
        ("replay.service_seconds", finishes - starts),
        ("replay.response_seconds", finishes - submits),
    ):
        observe = reg.histogram(name).observe
        for value in values.tolist():
            observe(value)

    spans = reg.spans
    fin = finishes.tolist()
    io = list(zip(submits.tolist(), starts.tolist(), fin))
    done = 0

    def io_spans(upto: int) -> None:
        for s, a, f in io[done:upto]:
            spans.record(SPAN_QUEUE, s, a)
            spans.record(SPAN_SERVICE, a, f)

    times, sizes = _dispatches(trace, start)
    for t, k in zip(
        times[::_DISPATCH_SPAN_EVERY].tolist(),
        sizes[::_DISPATCH_SPAN_EVERY].tolist(),
    ):
        upto = bisect_right(fin, t)
        io_spans(upto)
        done = upto
        spans.record(SPAN_DISPATCH, t, t, packages=k)
    io_spans(len(io))
    spans.record(SPAN_STAGE, start, end, stage="replay")

    reg.counter("monitor.cycles").inc(len(perf_samples))
    reg.counter("monitor.forced_closes").inc(
        int(bool(perf_samples) and perf_samples[-1].end == end)
    )
    duration = end - start
    for m in members:
        reg.counter("device.completions", device=m.name).inc(m.completions)
        reg.gauge("power.busy_seconds", device=m.name).set(m.busy_seconds)
        reg.gauge("power.busy_fraction", device=m.name).set(
            m.busy_seconds / duration if duration > 0 else 0.0
        )
        reg.gauge("queue.pushed_total", device=m.name).set(m.pushed)
        reg.gauge("queue.popped_total", device=m.name).set(m.popped)
        reg.gauge("queue.high_water", device=m.name).set(m.high_water)
    if array is not None:
        for name, value in zip(
            ("raid.plans", "raid.subios_planned", "raid.degraded_plans",
             "raid.reconstruct_reads"),
            array[1:],
        ):
            reg.counter(name, array=array.name).inc(value)


def record_rmw(reg, rmw: Tuple[int, int]) -> None:
    """Record the kernel's RAID-5 read-modify-write fixpoint work for
    one replay: its ``(passes, windows)``.  ``sim.*`` is the one family
    that differs by engine."""
    passes, windows = rmw
    reg.counter("sim.kernel.rmw_passes").inc(passes)
    reg.counter("sim.kernel.rmw_windows").inc(windows)

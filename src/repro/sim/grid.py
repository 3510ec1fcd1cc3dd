"""Grid-fused analytical replay: one broadcast, many cells.

A parameter sweep evaluates the same trace against the same device
family at many ``(load, time_scale)`` points.  Per point, the analytical
kernel (:mod:`repro.sim.kernel`) already collapses the replay to closed
form — but a sweep still re-derives everything per cell: the filtered
trace, the service-time plans, the sub-I/O expansion, the per-disk
sort.  None of that depends on *when* requests arrive, only on *which*
requests run against *which* factory-fresh device — and that is shared
by every cell that differs only in its time scale.

A single replay and a grid cell take the same path through the
kernel; the grid only feeds it more rows:

* cells are grouped by load (same filtered row set), and the group is
  prepared once against the factory-fresh probe device by
  :func:`~repro.sim.kernel._prepare_plane` — CSR columns, capacity
  checks, stripe expansion, per-disk rows and each member's service
  plan;
* :func:`~repro.sim.kernel._solve_plane` solves the link chain, the
  per-disk queues (Lindley, or the RAID-5 read-modify-write fixpoint)
  and the flight completions for ``(P, n)`` submit rows, one per cell —
  the solve a single replay runs with one row.  The face is chunked
  over the parameter axis to bound peak memory;
* instead of committing a row to a live device, each cell is frozen:
  its member schedules are adopted, as views, by real
  :class:`~repro.power.model.PowerTimeline` columns (no per-cell copy),
  summed by a real :class:`~repro.power.model.EnergyMeter`, and the
  kernel's one assembler (:func:`~repro.sim.kernel._assemble`) runs the
  real samplers over them — so no per-cell device is ever constructed
  or mutated.

**Bit-identity is inherited from the kernel's contract**: every cell's
:class:`~repro.replay.results.ReplayResult` equals what
``replay_trace(trace, factory(), load, config=replace(cfg,
time_scale=ts), engine="kernel")`` returns, field for field.  Any cell
the fusion cannot reproduce exactly (non-qualifying device, unsorted
scaled timestamps, a read-modify-write solve costlier than an event
replay, pathological sampling cycles) is handed back to the caller with
the reason, to be replayed per point — where ``engine="auto"`` re-derives the identical
user-visible fallback metadata the event path records today.

The public sweep API wrapping this module is
:func:`repro.workload.parallel.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..config import ReplayConfig
from ..core.timescale import TimeScaler
from ..errors import ReplayError
from ..power.model import EnergyMeter, PowerTimeline
from ..storage.array import DiskArray
from ..storage.base import StorageDevice
from ..telemetry import get_registry
from ..trace.packed import PackedTrace
from .kernel import (
    _Fallback,
    _assemble,
    _bunch_times,
    _prepare_plane,
    _qualify_device,
    _queued,
    _sampling_bounds,
    _solve_plane,
)

#: Default peak-memory budget for the batched solve; the parameter axis
#: is chunked so one chunk's working set stays under this many bytes.
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class GridCell:
    """One grid point within a (trace, device) plane."""

    load: float
    time_scale: float


@dataclass
class CellEval:
    """Fusion outcome for one cell.

    ``result`` is the bit-identical :class:`ReplayResult` when the cell
    was evaluated by the fused kernel; otherwise ``unfused`` names why
    the fusion handed the cell back (the caller replays it per point,
    which re-derives the user-visible fallback reason exactly as
    ``engine="auto"`` does).  ``capture`` is the cell's
    :class:`~repro.replay.capture.ReplayCapture` when requested —
    bit-identical to what a per-point replay would capture.
    """

    result: Optional[object]
    unfused: Optional[str]
    capture: Optional[object] = None


def evaluate_grid_cells(
    trace: PackedTrace,
    device: StorageDevice,
    cells: Sequence[GridCell],
    *,
    config: Optional[ReplayConfig] = None,
    stream_interval: Optional[float] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    capture: bool = False,
) -> List[CellEval]:
    """Evaluate ``cells`` against ``device`` with the fused kernel.

    ``device`` is a *probe*: one factory-fresh instance standing in for
    the per-cell devices a serial sweep would build (its service models
    are consulted read-only; nothing is mutated).  Cells the fusion
    cannot reproduce bit-identically come back with ``unfused`` set and
    must be replayed per point by the caller.

    Raises :class:`ReplayError` exactly where the per-point path would
    raise for *every* cell (empty trace, a load that filters away all
    bunches).
    """
    cfg = config or ReplayConfig()
    cells = list(cells)
    if len(trace) == 0:
        raise ReplayError("cannot replay an empty trace")

    from ..obslog import get_logger
    from ..replay.session import ReplaySession

    session = ReplaySession(device, config=cfg, stream_interval=stream_interval)
    slog = get_logger("replay.session")

    evals: List[CellEval] = [CellEval(None, "not evaluated") for _ in cells]
    # Group cells by load: every cell of a group replays the same
    # filtered row set, so all time-independent work is shared.
    group_order: List[float] = []
    groups: dict = {}
    for gi, cell in enumerate(cells):
        if cell.load not in groups:
            groups[cell.load] = []
            group_order.append(cell.load)
        groups[cell.load].append(gi)
    try:
        for load in group_order:
            _evaluate_group(
                trace, device, load, groups[load], cells, evals,
                session=session, slog=slog, cfg=cfg, chunk_bytes=chunk_bytes,
                capture=capture,
            )
    finally:
        session.config = cfg
    return evals


def _evaluate_group(
    trace: PackedTrace,
    device: StorageDevice,
    load: float,
    indices: List[int],
    cells: List[GridCell],
    evals: List[CellEval],
    *,
    session,
    slog,
    cfg: ReplayConfig,
    chunk_bytes: int,
    capture: bool = False,
) -> None:
    def refuse(reason: str) -> None:
        for gi in indices:
            evals[gi] = CellEval(None, reason)

    reg = get_registry()
    base = session.controller.apply(trace, load)
    if len(base) == 0:
        raise ReplayError(
            f"load proportion {load} left no bunches to replay"
        )
    reason = _qualify_device(device)
    if reason is not None:
        refuse(reason)
        return
    members = device.disks if isinstance(device, DiskArray) else [device]
    for member in members:
        timeline = member.timeline
        if (
            timeline.segment_count
            or len(timeline._base_times) > 1
            or timeline._base_times[0] != 0.0
        ):
            refuse("probe device not factory-fresh")
            return
    # The time-independent half, once per group: every cell of a group
    # replays the same filtered rows against the same fresh device.
    try:
        _bunch_times(base, 0.0)
        plane = _prepare_plane(base, device)
    except _Fallback as exc:
        refuse(exc.reason)
        return

    totals = None
    if capture:
        from ..replay.capture import workload_totals

        # Workload totals are load-dependent but time-scale-invariant:
        # one computation covers every cell of the group.
        totals = workload_totals(base)

    n_bunches = len(base)
    n_pkgs = int(base.package_count)
    reps = np.diff(base.offsets)
    si = session.stream_interval
    cycle = float(cfg.sampling_cycle)
    overhead = (
        None if plane.array is None else plane.array.enclosure.non_disk_watts
    )
    base_watts = [m.dev.timeline._base_watts[0] for m in plane.members]

    # Chunk the parameter axis so the working set stays bounded: the
    # dominant per-cell float64 rows are ~7 over the sub-I/O axis plus
    # the flight/event-order and bunch-time rows.  The RMW solver also
    # holds per-cell serving orders, Watts rows, and the serving-order
    # segment columns, roughly doubling the sub-I/O-axis footprint.
    exp = plane.exp
    if exp is not None:
        sub_rows = 14 if exp.has_pre else 7
        per_cell = 8 * (sub_rows * exp.total + 10 * n_pkgs + 2 * n_bunches)
    else:
        per_cell = 8 * (8 * n_pkgs + 2 * n_bunches)
    step = max(1, int(chunk_bytes // max(per_cell, 1)))

    for at in range(0, len(indices), step):
        chunk = indices[at:at + step]
        n_cells = len(chunk)
        manipulated = []
        times2d = np.empty((n_cells, n_bunches), dtype=np.float64)
        for i, gi in enumerate(chunk):
            ts_val = cells[gi].time_scale
            m = TimeScaler(ts_val).apply(base) if ts_val != 1.0 else base
            manipulated.append(m)
            times2d[i] = 0.0 + (m.timestamps - m.timestamps[0])
        # Positive scaling preserves order, but guard each cell anyway —
        # an unsorted row must fall back exactly like the per-point path.
        unsorted = (
            np.any(np.diff(times2d, axis=1) < 0, axis=1)
            if n_bunches > 1
            else np.zeros(n_cells, dtype=bool)
        )
        solved, sol = _solve_plane(
            plane, np.repeat(times2d, reps, axis=1), reg.enabled
        )
        cell_reason = [
            "unsorted bunch timestamps reorder dispatch" if bad else reason
            for bad, reason in zip(unsorted, solved)
        ]
        if sol is None:
            for gi, reason in zip(chunk, cell_reason):
                evals[gi] = CellEval(None, reason)
            continue

        # Each served member's excess prefix sums for every cell at
        # once: extend_segments' arithmetic on a fresh timeline.
        cums = []
        for s, bw in zip(sol.served, base_watts):
            cum = None
            if s is not None:
                dur2d = s.fin - s.starts
                excess2d = s.watts * dur2d - bw * dur2d
                cum = np.cumsum(
                    np.concatenate((np.zeros((n_cells, 1)), excess2d), axis=1),
                    axis=1,
                )
            cums.append(cum)

        # ---- Per-cell assembly through the real samplers. ----
        for i, gi in enumerate(chunk):
            if cell_reason[i] is not None:
                evals[gi] = CellEval(None, cell_reason[i])
                continue
            m = manipulated[i]
            fin = sol.fin[i]
            try:
                bounds, frame_bounds = _sampling_bounds(
                    0.0, float(fin[-1]), cycle, si
                )
            except _Fallback as exc:
                evals[gi] = CellEval(None, exc.reason)
                continue
            timelines = [
                _cell_timeline(s, cum, i, bw)
                for s, cum, bw in zip(sol.served, cums, base_watts)
            ]
            tele_mark = reg.mark() if reg.enabled else None
            queued = (
                [
                    _queued(s, i)
                    for s in sol.served
                    if s is not None
                ]
                if frame_bounds is not None or tele_mark is not None
                else []
            )
            outcome = _assemble(
                sol, i, queued,
                timelines[0] if overhead is None
                else EnergyMeter(timelines, overhead),
                bounds, frame_bounds, cycle, None,
            )
            session.config = replace(cfg, time_scale=cells[gi].time_scale)
            slog.event(
                "start", time=0.0, trace=m.label, load=load,
                packages=m.package_count, streaming=si,
            )
            result = session._result(
                outcome, m, load, 0.0, slog, engine="kernel",
                tele_mark=tele_mark,
                usage=(
                    _cell_usage(plane, sol, i, queued, timelines)
                    if tele_mark is not None else None
                ),
            )
            cell_capture = (
                _cell_capture(plane, sol, i, timelines, overhead, totals)
                if capture
                else None
            )
            evals[gi] = CellEval(result, None, cell_capture)


def _cell_timeline(s, cum, i: int, base_watts: float) -> PowerTimeline:
    """One member's power timeline for cell ``i``: what a per-point
    replay commits to a factory-fresh device.  The solved row's columns
    and its row of ``cum`` (the chunk's excess prefix sums) are adopted
    as views; a row with a zero-length segment is committed
    through ``extend_segments`` instead, which drops it exactly as the
    per-point commit does."""
    if s is None:
        return PowerTimeline(base_watts)
    starts, ends, watts = s.starts[i], s.fin[i], s.row_watts(i)
    if bool(np.all(ends > starts)):
        return PowerTimeline(base_watts, (starts, ends, watts, cum[i]))
    timeline = PowerTimeline(base_watts)
    timeline.extend_segments(starts, ends, watts)
    return timeline


def _cell_usage(plane, sol, i: int, queued: list, timelines: list):
    """One cell's member usage for its telemetry, from its solved rows:
    what a factory-fresh device commits replaying the cell per point
    (:func:`~repro.sim.kernel._commit`)."""
    from ..replay.instruments import ArrayUsage, MemberUsage

    members = []
    served_queues = iter(queued)
    end = float(sol.fin[i, -1])
    for member, s, timeline in zip(plane.members, sol.served, timelines):
        if s is None:
            members.append(MemberUsage(member.dev.name, 0, 0, 0, 0, 0.0))
            continue
        push, _pop, high = next(served_queues)
        members.append(MemberUsage(
            member.dev.name, int(member.rows.size), int(push.size),
            int(push.size), high,
            timeline.busy_time(0.0, end),
        ))
    array = None
    if plane.array is not None:
        array = ArrayUsage(
            plane.array.name, int(plane.nbytes.size), plane.exp.total, 0, 0
        )
    return members, array


def _cell_capture(
    plane,
    sol,
    i: int,
    timelines: List[PowerTimeline],
    overhead_watts: Optional[float],
    totals,
):
    """Freeze one cell's replay record for the policy oracle.

    Rows are copied out of the chunk arrays so the capture does not pin
    the whole ``(P, k)`` batch in memory.  The values are bit-identical
    to what :class:`~repro.replay.capture.CaptureSink` snapshots after a
    per-point replay: the members' timelines are the ones a per-point
    replay commits, copied out the same way
    (:func:`~repro.replay.capture.snapshot_members`).
    """
    from ..replay.capture import MemberProfile, ReplayCapture

    profiles = [
        MemberProfile(member.dev.name, *timeline.segments(),
                      base_watts=timeline._base_watts[0])
        for member, timeline in zip(plane.members, timelines)
    ]
    reads, writes, read_bytes, write_bytes = totals
    return ReplayCapture(
        end=float(sol.fin[i, -1]),
        finishes=np.array(sol.fin[i], dtype=np.float64),
        responses=np.array(sol.resp[i], dtype=np.float64),
        members=tuple(profiles),
        overhead_watts=overhead_watts,
        reads=reads,
        writes=writes,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
    )

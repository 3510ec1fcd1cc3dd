"""Grid-fused analytical replay: one broadcast, many cells.

A parameter sweep evaluates the same trace against the same device
family at many ``(load, time_scale)`` points.  Per point, the analytical
kernel (:mod:`repro.sim.kernel`) already collapses the replay to closed
form — but a sweep still re-derives everything per cell: the filtered
trace, the service-time plans, the sub-I/O expansion, the per-disk
sort.  None of that depends on *when* requests arrive, only on *which*
requests run against *which* factory-fresh device — and that is shared
by every cell that differs only in its time scale.

This module runs the kernel's solvers over a leading parameter axis:

* cells are grouped by load (same filtered row set), and the filter,
  CSR columns, capacity checks, stripe expansion, per-disk stable sort,
  and each member's prepared service plan are computed once per group;
* the link chain and the per-disk Lindley recurrences are solved for
  ``(P, n)`` rows, one per cell, by the same solvers a single replay
  calls with one row (:func:`~repro.sim.kernel._solve_link_chain` /
  :func:`~repro.sim.kernel._solve_lindley`): every row keeps its own
  busy runs in a flattened layout.  The face is chunked over the
  parameter axis to bound peak memory;
* per-cell outputs are assembled through the *real* samplers —
  ``_perf_series``, :class:`~repro.power.analyzer.PowerAnalyzer`
  windows, ``_frame_series`` — fed by a frozen energy source that
  reproduces :class:`~repro.power.model.PowerTimeline` arithmetic from
  the batch arrays, so no per-cell device is ever constructed or
  mutated.

**Bit-identity is inherited from the kernel's contract**: every cell's
:class:`~repro.replay.results.ReplayResult` equals what
``replay_trace(trace, factory(), load, config=replace(cfg,
time_scale=ts), engine="kernel")`` returns, field for field.  Any cell
the fusion cannot reproduce exactly (non-qualifying device, unsorted
scaled timestamps, tied flight completions, pathological sampling
cycles) is handed back to the caller with the reason, to be replayed
per point — where ``engine="auto"`` re-derives the identical
user-visible fallback metadata the event path records today.

The public sweep API wrapping this module is
:func:`repro.workload.parallel.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ReplayConfig
from ..core.timescale import TimeScaler
from ..errors import ReplayError
from ..power.analyzer import PowerAnalyzer
from ..storage.array import DiskArray
from ..storage.base import QueuedDevice, ServicePlan, StorageDevice
from ..trace.packed import PackedTrace
from ..units import SECTOR_BYTES
from .kernel import (
    KernelOutcome,
    _Computed,
    _Fallback,
    _NEG_INF,
    _columns,
    _expand_subios,
    _frame_series,
    _member_rows,
    _perf_series,
    _power_windows,
    _prepare,
    _qualify_device,
    _solve_lindley,
    _solve_link_chain,
    _solve_two_phase,
    _tick_boundaries,
)

#: Default peak-memory budget for the batched solve; the parameter axis
#: is chunked so one chunk's working set stays under this many bytes.
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024

_EMPTY = np.empty(0, dtype=np.float64)
_CUM_SEED = np.zeros(1, dtype=np.float64)


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


class _NullClock:
    """Stand-in for the simulator in result assembly — only ``now`` is
    read, and the kernel has already advanced it to the final
    completion."""

    __slots__ = ("now",)

    def __init__(self, now: float) -> None:
        self.now = now


class _FrozenTimeline:
    """Read-only stand-in for a committed, fresh-baseline ``PowerTimeline``.

    Holds the batch-computed segment columns of one member device for
    one cell and answers ``energy_between`` with the exact arithmetic
    :class:`~repro.power.model.PowerTimeline` performs after
    ``extend_segments``: a single-level baseline integral plus the
    prefix-sum excess walk (same cumsum seed, same bisect semantics,
    same tail subtraction) — so every returned float matches the value
    a per-cell device commit would have produced, without building the
    device or materialising Python lists.  ``cum`` carries the leading
    0.0 of the real ``_cum_excess``; a member that served nothing is
    represented by empty columns (pure baseline, like a fresh
    timeline).
    """

    __slots__ = ("starts", "ends", "watts", "cum", "base_watts")

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        watts: np.ndarray,
        cum: np.ndarray,
        base_watts: float,
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.watts = watts
        self.cum = cum
        self.base_watts = base_watts

    def _excess_upto(self, t: float) -> float:
        idx = int(np.searchsorted(self.starts, t, side="right"))
        total = float(self.cum[idx])
        if idx > 0:
            end = float(self.ends[idx - 1])
            if end > t:
                tail_base = self.base_watts * (end - t)
                total -= float(self.watts[idx - 1]) * (end - t) - tail_base
        return total

    def energy_between(self, t0: float, t1: float) -> float:
        if t1 == t0:
            return 0.0
        base = self.base_watts * (t1 - t0)
        return base + self._excess_upto(t1) - self._excess_upto(t0)


class _FrozenMeter:
    """``EnergyMeter`` arithmetic over frozen timelines.

    The member order and the sequential Python-float accumulation match
    the real meter — including members that served nothing, whose
    timelines still contribute their baseline integral in place.
    """

    __slots__ = ("timelines", "overhead_watts")

    def __init__(
        self, timelines: List[_FrozenTimeline], overhead_watts: float
    ) -> None:
        self.timelines = timelines
        self.overhead_watts = overhead_watts

    def energy_between(self, t0: float, t1: float) -> float:
        total = self.overhead_watts * (t1 - t0)
        for timeline in self.timelines:
            total += timeline.energy_between(t0, t1)
        return total


def _noop() -> None:
    return None


def _shared_plan(
    member: QueuedDevice, rows: np.ndarray, sp: ServicePlan
) -> "_MemberPlan":
    """``member``'s plan-order service, shared by every cell of a group."""
    svc = sp.full(np.arange(rows.size))
    return _MemberPlan(
        rows, svc.seconds, svc.watts, member.timeline._base_watts[0]
    )


@dataclass
class _MemberPlan:
    """One member disk's shared (time-independent) service plan on the
    single-phase path, where every cell serves in plan order."""

    rows: np.ndarray  # sub-I/O indices served by this disk, plan order
    seconds: np.ndarray
    watts: np.ndarray
    base_watts: float


@dataclass
class _MemberBatch:
    """One member's solved schedule for a chunk of cells (columns empty
    when the member served nothing).

    Columns are in the member's *serving* (arrival) order.  On the
    read/single-phase path that order is shared by every cell, so one
    ``(k,)`` ``watts`` row serves the whole chunk; on the RMW path each
    cell may serve in a different order and ``watts`` is ``(P, k)``.
    """

    starts2d: np.ndarray  # (P, k) segment starts, serving order
    fin2d: np.ndarray  # (P, k) segment ends
    watts: np.ndarray  # (k,) shared across cells, or (P, k) per cell
    cum2d: np.ndarray  # (P, k + 1) seeded excess prefix sums
    base_watts: float
    submit2d: np.ndarray  # (P, k) member arrival instants

    @property
    def served(self) -> bool:
        return self.fin2d.size > 0

    def cell_watts(self, i: int) -> np.ndarray:
        return self.watts if self.watts.ndim == 1 else self.watts[i]


def evaluate_grid_cells(
    trace,
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
    if not isinstance(trace, PackedTrace):
        return [CellEval(None, "object-trace replay") for _ in cells]
    from ..telemetry import get_registry

    if get_registry().enabled:
        return [CellEval(None, "telemetry registry enabled") for _ in cells]

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

    base = session.controller.apply(trace, load)
    if len(base) == 0:
        raise ReplayError(
            f"load proportion {load} left no bunches to replay"
        )
    reason = _qualify_device(device, base)
    if reason is not None:
        refuse(reason)
        return

    is_array = isinstance(device, DiskArray)
    members: List[QueuedDevice] = (
        list(device.disks) if is_array else [device]  # type: ignore[list-item]
    )
    for member in members:
        timeline = member.timeline
        if (
            timeline.segment_count
            or len(timeline._base_times) > 1
            or timeline._base_times[0] != 0.0
        ):
            refuse("probe device not factory-fresh")
            return

    # ---- Shared (time-independent) computation, once per group. ----
    plans: List[Optional[_MemberPlan]] = []
    try:
        times = 0.0 + (base.timestamps - base.timestamps[0])
        if times.size > 1 and bool(np.any(np.diff(times) < 0)):
            raise _Fallback("unsorted bunch timestamps reorder dispatch")
        sectors, nbytes, ops = _columns(base)
        if is_array:
            geom = device.geometry
            end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
            if int(end_sectors.max()) > geom.capacity_sectors:
                raise _Fallback("request beyond array capacity")
            link_overhead = device.enclosure.controller_overhead
            link_prev = device._link_busy_until
            payload = nbytes / device.enclosure.link_rate
            exp = _expand_subios(geom, sectors, nbytes, ops)
            total = exp.total
            rmw = exp.has_pre
            rows = _member_rows(exp, len(members))
            service: List[Optional[ServicePlan]] = []
            for disk, r in zip(members, rows):
                sp = None
                if r.size:
                    sp = _prepare(disk, exp.sector[r], exp.nbytes[r], exp.op[r])
                    if int(sp.end_sectors.max()) > disk.capacity_sectors:
                        raise _Fallback(f"{disk.name}: request beyond capacity")
                # On the RMW path the serving order — and with it the
                # seek/stream-dependent service seconds — varies per
                # cell: the chunk solver evaluates the plans per order.
                if rmw:
                    service.append(sp)
                else:
                    plans.append(None if sp is None else _shared_plan(disk, r, sp))
        else:
            sp = _prepare(device, sectors, nbytes, ops)  # type: ignore[arg-type]
            if int(sp.end_sectors.max()) > device.capacity_sectors:
                raise _Fallback(f"{device.name}: request beyond capacity")
            rows_all = np.arange(nbytes.size)
            plans.append(_shared_plan(device, rows_all, sp))  # type: ignore[arg-type]
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

    # Chunk the parameter axis so the working set stays bounded: the
    # dominant per-cell float64 rows are ~7 over the sub-I/O axis plus
    # the flight/event-order and bunch-time rows.  The RMW solver also
    # holds per-cell serving orders, Watts rows, and the serving-order
    # segment columns, roughly doubling the sub-I/O-axis footprint.
    if is_array:
        sub_rows = 14 if rmw else 7
        per_cell = 8 * (sub_rows * total + 10 * n_pkgs + 2 * n_bunches)
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
        cell_reason: List[Optional[str]] = [
            "unsorted bunch timestamps reorder dispatch" if bad else None
            for bad in unsorted
        ]
        submit2d = np.repeat(times2d, reps, axis=1)

        if is_array and rmw:
            solved = _solve_array_chunk_rmw(
                device, members, rows, service, submit2d, link_overhead,
                link_prev, payload, exp, nbytes, cell_reason,
            )
        elif is_array:
            solved = _solve_array_chunk(
                device, members, plans, submit2d, link_overhead, link_prev,
                payload, exp.sub_flight, exp.flight_offsets, total, nbytes,
                cell_reason,
            )
        else:
            solved = _solve_single_chunk(
                device, plans[0], submit2d, nbytes, cell_reason
            )
        if solved is None:
            for i, gi in enumerate(chunk):
                evals[gi] = CellEval(
                    None, cell_reason[i] or "batch solve failed"
                )
            continue
        fin_ev2d, resp_ev2d, bytes_ev2d, batches, overhead_watts = solved

        # ---- Per-cell assembly through the real samplers. ----
        for i, gi in enumerate(chunk):
            if cell_reason[i] is not None:
                evals[gi] = CellEval(None, cell_reason[i])
                continue
            m = manipulated[i]
            end = float(fin_ev2d[i, -1])
            try:
                mon_bounds = _tick_boundaries(0.0, end, cycle)
                frame_bounds = (
                    _tick_boundaries(0.0, end, float(si)) if si > 0 else None
                )
            except _Fallback as exc:
                evals[gi] = CellEval(None, exc.reason)
                continue
            if si > 0:
                push, pop = _queue_instants(batches, i)
            else:
                push = pop = _EMPTY
            comp = _Computed(
                end=end,
                fin=fin_ev2d[i],
                resp=resp_ev2d[i],
                nbytes=bytes_ev2d[i] if bytes_ev2d.ndim == 2 else bytes_ev2d,
                push=push,
                pop=pop,
                commit=_noop,
            )
            perf_samples = _perf_series(mon_bounds, end, comp)
            timelines = [
                _FrozenTimeline(
                    b.starts2d[i], b.fin2d[i], b.cell_watts(i), b.cum2d[i],
                    b.base_watts,
                )
                if b.served
                else _FrozenTimeline(
                    _EMPTY, _EMPTY, _EMPTY, _CUM_SEED, b.base_watts
                )
                for b in batches
            ]
            if overhead_watts is None:
                source = timelines[0]
            else:
                source = _FrozenMeter(timelines, overhead_watts)
            analyzer = PowerAnalyzer(source, sampling_cycle=cycle, sensor=None)
            _power_windows(analyzer, mon_bounds, end)
            frames = (
                _frame_series(frame_bounds, end, comp, source)
                if frame_bounds is not None
                else []
            )
            completed = sum(s.completed for s in perf_samples) + 0
            total_bytes = sum(s.total_bytes for s in perf_samples) + 0
            total_response = sum(s.total_response for s in perf_samples) + 0.0
            outcome = KernelOutcome(
                end=end,
                perf_samples=perf_samples,
                analyzer=analyzer,
                frames=frames,
                completed=completed,
                total_bytes=total_bytes,
                total_response=total_response,
            )
            session.config = replace(cfg, time_scale=cells[gi].time_scale)
            slog.event(
                "start", time=0.0, trace=m.label, load=load,
                packages=m.package_count, streaming=si,
            )
            result = session._kernel_result(
                outcome, m, load, _NullClock(end), slog, 0.0
            )
            cell_capture = (
                _cell_capture(
                    members, batches, i, fin_ev2d[i], resp_ev2d[i],
                    end, overhead_watts, totals,
                )
                if capture
                else None
            )
            evals[gi] = CellEval(result, None, cell_capture)


def _cell_capture(
    members: List[QueuedDevice],
    batches: List["_MemberBatch"],
    i: int,
    fin_row: np.ndarray,
    resp_row: np.ndarray,
    end: float,
    overhead_watts: Optional[float],
    totals,
):
    """Freeze one cell's replay record for the policy oracle.

    Rows are copied out of the chunk arrays so the capture does not pin
    the whole ``(P, k)`` batch in memory.  The values are bit-identical
    to what :class:`~repro.replay.capture.CaptureSink` snapshots after a
    per-point replay: members commit one segment per served request in
    member arrival order on every path.
    """
    from ..replay.capture import MemberProfile, ReplayCapture

    profiles = []
    for member, b in zip(members, batches):
        if b.served:
            profiles.append(
                MemberProfile(
                    name=member.name,
                    starts=np.array(b.starts2d[i], dtype=np.float64),
                    ends=np.array(b.fin2d[i], dtype=np.float64),
                    watts=np.array(b.cell_watts(i), dtype=np.float64),
                    base_watts=b.base_watts,
                )
            )
        else:
            profiles.append(
                MemberProfile(member.name, _EMPTY, _EMPTY, _EMPTY, b.base_watts)
            )
    reads, writes, read_bytes, write_bytes = totals
    return ReplayCapture(
        end=end,
        finishes=np.array(fin_row, dtype=np.float64),
        responses=np.array(resp_row, dtype=np.float64),
        members=tuple(profiles),
        overhead_watts=overhead_watts,
        reads=reads,
        writes=writes,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
    )


def _member_batch(
    member: QueuedDevice,
    arrivals2d: np.ndarray,
    fin2d: np.ndarray,
    watts: np.ndarray,
    cell_reason: List[Optional[str]],
) -> _MemberBatch:
    """Freeze one member's solved FCFS batch into power columns.

    ``arrivals2d``/``fin2d`` are ``(P, k)`` in serving order; ``watts``
    is ``(k,)`` when every cell serves in one order, else ``(P, k)``.
    Marks cells whose schedule the closed form cannot commit exactly
    (non-monotone finishes, or zero-length power segments that the real
    timeline would drop, desynchronising the frozen arrays) in
    ``cell_reason`` — first member wins, matching the per-point order.
    """
    n_cells, k = arrivals2d.shape
    if k > 1:
        mono_bad = np.any(np.diff(fin2d, axis=1) < 0, axis=1)
    else:
        mono_bad = np.zeros(n_cells, dtype=bool)
    starts2d = np.maximum(
        arrivals2d,
        np.concatenate(
            (np.full((n_cells, 1), _NEG_INF), fin2d[:, :-1]), axis=1
        ),
    )
    dur2d = fin2d - starts2d
    zero_bad = np.any(dur2d <= 0.0, axis=1)
    for i in range(n_cells):
        if cell_reason[i] is None and bool(mono_bad[i]):
            cell_reason[i] = f"{member.name}: non-monotone completion schedule"
        if cell_reason[i] is None and bool(zero_bad[i]):
            cell_reason[i] = f"{member.name}: zero-length power segment"
    base_watts = member.timeline._base_watts[0]
    excess2d = watts * dur2d - base_watts * dur2d
    cum2d = np.concatenate(
        (
            np.zeros((n_cells, 1), dtype=np.float64),
            np.cumsum(excess2d, axis=1),
        ),
        axis=1,
    )
    return _MemberBatch(
        starts2d=starts2d,
        fin2d=fin2d,
        watts=watts,
        cum2d=cum2d,
        base_watts=base_watts,
        submit2d=arrivals2d,
    )


def _idle_batch(member: QueuedDevice) -> _MemberBatch:
    """A member that served nothing: empty columns, pure baseline."""
    return _MemberBatch(
        _EMPTY, _EMPTY, _EMPTY, _CUM_SEED, member.timeline._base_watts[0],
        _EMPTY,
    )


def _solve_single_chunk(
    device: QueuedDevice,
    plan: _MemberPlan,
    submit2d: np.ndarray,
    nbytes: np.ndarray,
    cell_reason: List[Optional[str]],
):
    """Batch-solve one chunk of cells against a single queued device."""
    batch = _member_batch(
        device, submit2d, _solve_lindley(submit2d, plan.seconds),
        plan.watts, cell_reason,
    )
    if all(r is not None for r in cell_reason):
        return None
    # Single-server FIFO completes in row order; responses and the byte
    # column stay in the shared request order.
    resp2d = batch.fin2d - submit2d
    return batch.fin2d, resp2d, nbytes, [batch], None


def _solve_array_chunk(
    device: DiskArray,
    members: List[QueuedDevice],
    plans: List[Optional[_MemberPlan]],
    submit2d: np.ndarray,
    link_overhead: float,
    link_prev: float,
    payload: np.ndarray,
    sub_flight: np.ndarray,
    flight_offsets: np.ndarray,
    total: int,
    nbytes: np.ndarray,
    cell_reason: List[Optional[str]],
):
    """Batch-solve one chunk of cells against a disk array.

    Returns ``(fin_ev2d, resp_ev2d, bytes_ev2d, batches, overhead)`` or
    ``None`` when every cell of the chunk was marked unfused via
    ``cell_reason``.  ``batches`` lists one :class:`_MemberBatch` per
    member in disk order (idle members get empty columns) so the frozen
    meter accumulates exactly like the real
    :class:`~repro.power.model.EnergyMeter`.
    """
    n_cells = submit2d.shape[0]
    d2d, _link2d = _solve_link_chain(
        submit2d, link_overhead, payload, link_prev
    )
    arrivals2d = d2d[:, sub_flight]
    sub_fin2d = np.empty((n_cells, total), dtype=np.float64)
    batches: List[_MemberBatch] = []
    for di, plan in enumerate(plans):
        if plan is None:
            batches.append(_idle_batch(members[di]))
            continue
        a2d = np.ascontiguousarray(arrivals2d[:, plan.rows])
        batch = _member_batch(
            members[di], a2d, _solve_lindley(a2d, plan.seconds),
            plan.watts, cell_reason,
        )
        sub_fin2d[:, plan.rows] = batch.fin2d
        batches.append(batch)
    if all(r is not None for r in cell_reason):
        return None

    fin_ev2d, resp_ev2d, bytes_ev2d = _flight_completions(
        sub_fin2d, flight_offsets, submit2d, nbytes, cell_reason
    )
    return fin_ev2d, resp_ev2d, bytes_ev2d, batches, (
        device.enclosure.non_disk_watts
    )


def _flight_completions(
    sub_fin2d: np.ndarray,
    flight_offsets: np.ndarray,
    submit2d: np.ndarray,
    nbytes: np.ndarray,
    cell_reason: List[Optional[str]],
):
    """Reduce sub-I/O finishes to completion-event-order flight columns.

    Shared tail of both array chunk solvers: a flight completes when its
    last sub-I/O finishes; tied flight completions cannot be reproduced
    (the monitor's accumulation order would depend on event sequence
    numbers) and mark the cell unfused.
    """
    n_cells = sub_fin2d.shape[0]
    fl_fin2d = np.maximum.reduceat(sub_fin2d, flight_offsets[:-1], axis=1)
    if fl_fin2d.shape[1] > 1:
        srt = np.sort(fl_fin2d, axis=1)
        tied = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        for i in range(n_cells):
            if cell_reason[i] is None and bool(tied[i]):
                cell_reason[i] = "tied flight completion times"
    comp_order2d = np.argsort(fl_fin2d, axis=1, kind="stable")
    fin_ev2d = np.take_along_axis(fl_fin2d, comp_order2d, axis=1)
    resp_ev2d = np.take_along_axis(fl_fin2d - submit2d, comp_order2d, axis=1)
    bytes_ev2d = nbytes[comp_order2d]
    return fin_ev2d, resp_ev2d, bytes_ev2d


def _solve_array_chunk_rmw(
    device: DiskArray,
    members: List[QueuedDevice],
    rows: List[np.ndarray],
    plans: List[Optional[ServicePlan]],
    submit2d: np.ndarray,
    link_overhead: float,
    link_prev: float,
    payload: np.ndarray,
    exp,
    nbytes: np.ndarray,
    cell_reason: List[Optional[str]],
):
    """Batch-solve a chunk of cells whose expansion carries RMW barriers.

    Runs the kernel's two-phase fixpoint
    (:func:`~repro.sim.kernel._solve_two_phase`) with one row per cell:
    the same passes a single replay runs, on ``(P, k)`` matrices.  Rows
    that fail to converge — or that tie in a way only event sequence
    numbers could break — are marked in ``cell_reason`` and handed back
    for per-point replay, while the converged rows stay fused and
    commit their converged schedules: each member's Watts come from its
    prepared service plan evaluated on the per-cell serving orders.
    """
    d2d, _link2d = _solve_link_chain(
        submit2d, link_overhead, payload, link_prev
    )
    two = _solve_two_phase(exp, rows, plans, d2d)
    for i in range(submit2d.shape[0]):
        if cell_reason[i] is None and not bool(two.converged[i]):
            cell_reason[i] = "rmw barrier schedule did not converge"
        if cell_reason[i] is None and bool(two.tied[i]):
            cell_reason[i] = "tied sub-I/O arrival times"
    if all(r is not None for r in cell_reason):
        return None

    batches: List[_MemberBatch] = []
    for member, m in zip(members, two.members):
        if m is None:
            batches.append(_idle_batch(member))
            continue
        batches.append(
            _member_batch(
                member, m.arrivals, m.fin, m.plan.full(m.order).watts,
                cell_reason,
            )
        )
    if all(r is not None for r in cell_reason):
        return None

    fin_ev2d, resp_ev2d, bytes_ev2d = _flight_completions(
        two.sub_fin, exp.flight_offsets, submit2d, nbytes, cell_reason
    )
    return fin_ev2d, resp_ev2d, bytes_ev2d, batches, (
        device.enclosure.non_disk_watts
    )


def _queue_instants(
    batches: List[_MemberBatch], i: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One cell's merged queue-entry/exit instants (interval frames),
    the per-member ``queued`` masks merged and sorted like the event
    path's ``push_all``/``pop_all``."""
    pushes = []
    pops = []
    for b in batches:
        if not b.served:
            continue
        submit_row = b.submit2d[i]
        starts_row = b.starts2d[i]
        queued = starts_row > submit_row
        if bool(np.any(queued)):
            pushes.append(submit_row[queued])
            pops.append(starts_row[queued])
    push = np.sort(np.concatenate(pushes)) if pushes else _EMPTY
    pop = np.sort(np.concatenate(pops)) if pops else _EMPTY
    return push, pop

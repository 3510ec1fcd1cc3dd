"""Process-parallel trace-matrix collection.

The 125-cell synthetic matrix is embarrassingly parallel: each cell is
an independent simulation (fresh device, fresh clock, own seed).  A
process pool sidesteps the GIL entirely — the standard recipe for
CPU-bound fan-out in Python — and typically collects the matrix
``min(cells, cores)``× faster than :func:`repro.workload.matrix.build_matrix`.

Cells are *collected* in workers and *stored* in the parent (sqlite and
the repository directory stay single-writer); results are byte-identical
to the serial builder because seeds derive from cell identity, not
worker identity.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import WorkloadMode
from ..rng import DEFAULT_SEED, derive_seed
from ..storage.base import StorageDevice
from ..trace.blktrace import dumps, loads
from ..trace.repository import TraceName, TraceRepository
from .matrix import collect_trace, matrix_modes

DeviceFactory = Callable[[], StorageDevice]

#: A sweep worker: ``worker(point, seed) -> result``.  Must be picklable
#: (module-level function), like every process-pool entry point here.
SweepWorker = Callable[[Any, int], Any]

#: The trace published for the current sweep, visible to workers via
#: :func:`get_shared_trace`.  In a pool worker it is attached from
#: shared memory by the initializer; in serial mode the parent's own
#: object is installed directly.
_SHARED_TRACE = None
#: Attached shared-memory blocks backing ``_SHARED_TRACE`` in a worker
#: (kept referenced so the mapped pages outlive the arrays).
_SHARED_BLOCKS: List[Any] = []

#: ``parallel="auto"`` pools a sweep only from this many points on;
#: smaller sweeps never amortise worker startup.
_MIN_POOL_POINTS = 4


def get_shared_trace():
    """The sweep's published trace (inside a worker or a serial run).

    Raises when the current sweep published nothing — workers that need
    a trace must be launched through ``run_sweep(..., shared_trace=...)``.
    """
    if _SHARED_TRACE is None:
        raise RuntimeError(
            "no shared trace published; pass shared_trace= to run_sweep"
        )
    return _SHARED_TRACE


def _attach_shared(descriptor: dict) -> None:
    """Pool initializer: map the published columns into this worker."""
    global _SHARED_TRACE, _SHARED_BLOCKS
    from ..trace.shm import attach_packed

    _SHARED_TRACE, _SHARED_BLOCKS = attach_packed(descriptor)


def _use_pool(parallel, n_points: int, kernel_eligible=None) -> bool:
    """Resolve a ``parallel`` setting (bool or ``"auto"``) to pool/serial."""
    if parallel == "auto":
        import os

        if kernel_eligible:
            # Kernel-fast points finish in milliseconds; fork+pickle
            # startup can never amortise against them.
            return False
        if (os.cpu_count() or 1) <= 1:
            return False
        return n_points >= _MIN_POOL_POINTS
    return bool(parallel)


def kernel_sweep_eligible(trace, device_factory) -> bool:
    """Probe whether per-point replays of ``trace`` would take the kernel.

    Builds one throwaway device from ``device_factory`` and runs the
    same qualification the replay session does — packed trace,
    kernel-capable device/array.  Sweep drivers use
    the verdict to keep ``parallel="auto"`` in-process for sweeps whose
    points are analytical-kernel fast (pool startup would dominate).
    The probe is conservative: any error means "not eligible".
    """
    from ..trace.packed import PackedTrace

    if not isinstance(trace, PackedTrace) or len(trace) == 0:
        return False
    try:
        from ..sim.kernel import _qualify_device

        return _qualify_device(device_factory()) is None
    except Exception:
        return False


def run_sweep(
    worker: SweepWorker,
    points: Sequence[Any],
    *,
    base_seed: int = DEFAULT_SEED,
    labels: Optional[Sequence[str]] = None,
    max_workers: Optional[int] = None,
    parallel=True,
    shared_trace=None,
    kernel_eligible: Optional[bool] = None,
) -> List[Any]:
    """Fan ``worker(point, seed)`` out across a process pool.

    The generic engine under ``benchmarks/sweep.py``: each benchmark
    point gets a seed derived from the *point's identity* (its position,
    or the matching entry of ``labels`` when given) — never from worker
    identity or scheduling order — so a parallel sweep is reproducible
    and bit-identical to ``parallel=False`` serial execution.  Results
    come back in point order.

    ``worker`` must be a module-level function; point payloads cross the
    process boundary pickled, so keep them small.

    ``shared_trace`` (a :class:`~repro.trace.packed.PackedTrace`) is the
    zero-copy path for the common one-trace-many-points shape: the
    columns are published once into POSIX shared memory
    (:mod:`repro.trace.shm`) and each pool worker maps the same pages —
    only a ``(name, dtype, shape)`` descriptor crosses the process
    boundary, never a pickled column.  Workers (and serial runs, which
    share the parent's object directly) read it back with
    :func:`get_shared_trace`.

    ``parallel`` may be ``True`` (always pool), ``False`` (always
    serial, in-process) or ``"auto"``: pool only when the host has more
    than one core and the sweep is large enough to amortise worker
    startup (``_MIN_POOL_POINTS`` = 4 points or more) — the fix for
    small kernel-eligible sweeps paying fork+pickle for nothing.
    ``kernel_eligible=True`` (typically the verdict of
    :func:`kernel_sweep_eligible`) tells ``"auto"`` the points resolve
    to the analytical kernel, which forces in-process serial execution:
    millisecond points never amortise pool startup.
    """
    global _SHARED_TRACE
    points = list(points)
    if labels is not None:
        label_list = [str(lbl) for lbl in labels]
        if len(label_list) != len(points):
            raise ValueError(
                f"{len(points)} points but {len(label_list)} labels"
            )
    else:
        label_list = [str(i) for i in range(len(points))]
    seeds = [
        derive_seed(base_seed, "sweep", label) for label in label_list
    ]
    if not _use_pool(parallel, len(points), kernel_eligible):
        if shared_trace is None:
            return [worker(p, s) for p, s in zip(points, seeds)]
        prior = _SHARED_TRACE
        _SHARED_TRACE = shared_trace
        try:
            return [worker(p, s) for p, s in zip(points, seeds)]
        finally:
            _SHARED_TRACE = prior
    if shared_trace is None:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(worker, p, s) for p, s in zip(points, seeds)
            ]
            return [f.result() for f in futures]
    from ..trace.shm import SharedTracePublication

    with SharedTracePublication(shared_trace) as publication:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_attach_shared,
            initargs=(publication.descriptor,),
        ) as pool:
            futures = [
                pool.submit(worker, p, s) for p, s in zip(points, seeds)
            ]
            return [f.result() for f in futures]


def _collect_cell(
    device_factory: DeviceFactory,
    mode_dict: dict,
    duration: float,
    outstanding: int,
    seed: int,
) -> bytes:
    """Worker entry point: collect one cell, return the encoded trace.

    Traces cross the process boundary in the binary ``.replay`` encoding
    — compact and with no pickle surprises for bunch objects.
    """
    mode = WorkloadMode.from_dict(mode_dict)
    trace = collect_trace(
        device_factory, mode, duration, outstanding=outstanding, seed=seed
    )
    return dumps(trace)


def build_matrix_parallel(
    device_factory: DeviceFactory,
    repository: TraceRepository,
    device_label: str,
    duration: float = 5.0,
    modes: Optional[Iterable[WorkloadMode]] = None,
    outstanding: int = 16,
    base_seed: int = DEFAULT_SEED,
    overwrite: bool = False,
    max_workers: Optional[int] = None,
) -> List[Tuple[TraceName, int]]:
    """Parallel counterpart of :func:`repro.workload.matrix.build_matrix`.

    ``device_factory`` must be picklable (a module-level function or a
    :func:`functools.partial` of one — not a lambda).  Results, the
    repository contents, and the returned list are identical to the
    serial builder's.
    """
    mode_list = list(modes) if modes is not None else matrix_modes()
    names = [
        TraceName(
            device=device_label,
            request_size=mode.request_size,
            random_ratio=mode.random_ratio,
            read_ratio=mode.read_ratio,
        )
        for mode in mode_list
    ]

    results: List[Optional[Tuple[TraceName, int]]] = [None] * len(mode_list)
    pending: List[int] = []
    for i, name in enumerate(names):
        if name in repository and not overwrite:
            results[i] = (name, len(repository.load(name)))
        else:
            pending.append(i)

    if pending:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(
                    _collect_cell,
                    device_factory,
                    mode_list[i].to_dict(),
                    duration,
                    outstanding,
                    derive_seed(base_seed, "matrix", names[i].filename),
                ): i
                for i in pending
            }
            for future, i in futures.items():
                trace = loads(future.result())
                repository.store(names[i], trace, overwrite=overwrite)
                results[i] = (names[i], len(trace))

    return [r for r in results if r is not None]

# ---------------------------------------------------------------------------
# Grid-fused sweeps


@dataclass
class GridCellResult:
    """One evaluated grid cell: its coordinates plus the replay result."""

    device: str
    trace: str
    load: float
    time_scale: float
    result: Any  # ReplayResult
    fused: bool  # True when the fused kernel produced it directly
    #: ReplayCapture when the sweep ran with ``capture=True`` — the
    #: frozen record the energy-policy search re-scores per cell.
    capture: Any = None

    @property
    def key(self) -> str:
        return (
            f"{self.device}/{self.trace}"
            f"@{self.load:g}x{self.time_scale:g}"
        )

    @property
    def engine(self) -> str:
        return self.result.metadata.get("engine", "event")

    @property
    def fallback(self) -> Optional[str]:
        return self.result.metadata.get("engine_fallback")


@dataclass
class GridOutcome:
    """A completed grid sweep: per-cell results plus run-shape metadata.

    ``cells`` is in row-major axis order (device, trace, load,
    time_scale); ``engines`` counts cells per engine actually used;
    ``fallback_reasons`` maps a cell key to why the kernel declined it
    (only cells that fell back to the event engine appear).
    """

    cells: List[GridCellResult]
    devices: Tuple[str, ...]
    traces: Tuple[str, ...]
    loads: Tuple[float, ...]
    time_scales: Tuple[float, ...]
    engines: Dict[str, int]
    fallback_reasons: Dict[str, str]
    fused_cells: int
    elapsed_seconds: float

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return (
            len(self.devices), len(self.traces),
            len(self.loads), len(self.time_scales),
        )

    def cell(
        self, device: str, trace: str, load: float, time_scale: float = 1.0
    ) -> GridCellResult:
        """Look one cell up by its coordinates."""
        for c in self.cells:
            if (
                c.device == device and c.trace == trace
                and c.load == load and c.time_scale == time_scale
            ):
                return c
        raise KeyError(f"{device}/{trace}@{load:g}x{time_scale:g}")

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        """JSON-safe form of the whole sweep.

        With ``deterministic`` the wall-clock ``elapsed_seconds`` (and
        any per-cell telemetry snapshots) are omitted so two runs of the
        same sweep serialise to identical bytes — the form the fleet's
        dedup cache stores and compares.
        """
        cells = []
        for c in self.cells:
            rd = c.result.to_dict()
            if deterministic:
                md = dict(rd.get("metadata") or {})
                md.pop("telemetry", None)
                rd["metadata"] = md
            cells.append(
                {
                    "device": c.device,
                    "trace": c.trace,
                    "load": c.load,
                    "time_scale": c.time_scale,
                    "fused": c.fused,
                    "result": rd,
                }
            )
        out: Dict[str, Any] = {
            "devices": list(self.devices),
            "traces": list(self.traces),
            "loads": list(self.loads),
            "time_scales": list(self.time_scales),
            "shape": list(self.shape),
            "engines": dict(sorted(self.engines.items())),
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "fused_cells": self.fused_cells,
            "cells": cells,
        }
        if not deterministic:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def _grid_slab_worker(slab, seed):
    """Pool entry point: replay one slab of per-point cells.

    A slab is ``(factory, points, config, stream_interval, engine)``
    with ``points`` a list of ``(load, time_scale)``; the trace arrives
    zero-copy via the sweep's shared-memory publication.
    """
    from dataclasses import replace as _replace

    from ..replay.session import replay_trace

    factory, points, config, stream_interval, engine = slab
    trace = get_shared_trace()
    out = []
    for load, time_scale in points:
        cfg = _replace(config, time_scale=time_scale)
        out.append(
            replay_trace(
                trace, factory(), load, config=cfg,
                stream_interval=stream_interval, engine=engine,
            )
        )
    return out


def _replay_points_serial(
    trace, factory, points, config, stream_interval, engine, capture=False
):
    from dataclasses import replace as _replace

    from ..replay.capture import CaptureSink
    from ..replay.session import replay_trace

    out = []
    for load, time_scale in points:
        cfg = _replace(config, time_scale=time_scale)
        sink = CaptureSink() if capture else None
        result = replay_trace(
            trace, factory(), load, config=cfg,
            stream_interval=stream_interval, engine=engine, capture=sink,
        )
        out.append((result, sink.capture) if capture else result)
    return out


def _poolable(factory, trace) -> bool:
    """Can this plane's per-point work cross a process boundary?"""
    import pickle

    from ..trace.packed import PackedTrace

    if not isinstance(trace, PackedTrace):
        return False
    try:
        pickle.dumps(factory)
    except Exception:
        return False
    return True


def run_grid(
    traces,
    devices,
    loads: Sequence[float] = (1.0,),
    time_scales: Sequence[float] = (1.0,),
    *,
    config=None,
    stream_interval: Optional[float] = None,
    engine: str = "auto",
    parallel="auto",
    max_workers: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
    capture: bool = False,
) -> GridOutcome:
    """Evaluate a (device × trace × load × time-scale) grid in one call.

    The workhorse behind ``tracer sweep --grid`` and the figure
    benchmarks: for every (device, trace) plane the whole
    (load × time_scale) face is handed to the grid-fused kernel
    (:func:`repro.sim.grid.evaluate_grid_cells`) — one broadcast over
    shared trace columns instead of one replay per cell.  Cells the
    fusion declines are replayed per point with the *same* ``engine``
    setting, so their results, fallback metadata, and error behaviour
    are exactly what a hand-rolled loop over
    :func:`~repro.replay.session.replay_trace` produces today.

    Parameters
    ----------
    traces:
        Mapping of label → trace, or a single trace (labelled by its
        own ``label``).
    devices:
        Mapping of name → device factory (fresh device per call), or a
        single factory (named ``"device"``).
    engine:
        ``"auto"`` (fuse, fall back per cell), ``"kernel"`` (fuse,
        *raise* where a per-point ``engine="kernel"`` replay would
        raise) or ``"event"`` (skip fusion entirely; every cell runs
        the event engine per point).
    parallel / max_workers:
        Scheduling for the *unfused* cells only: ``"auto"`` replays
        them in-process unless the host has spare cores and enough
        points to amortise a pool, in which case they fan out as
        per-plane slabs over :func:`run_sweep`'s zero-copy shared-trace
        path.  Fused cells never pay fork+pickle.
    capture:
        Attach a bit-identical
        :class:`~repro.replay.capture.ReplayCapture` to every cell (the
        record the energy-policy search re-scores).  Capturing keeps
        unfused cells in-process — the sink rides the session.

    Returns a :class:`GridOutcome`; cells come back in row-major
    (device, trace, load, time_scale) order regardless of how they
    were scheduled.
    """
    import time as _time

    from ..config import ReplayConfig
    from ..sim.grid import (
        DEFAULT_CHUNK_BYTES,
        GridCell,
        evaluate_grid_cells,
    )

    t_wall = _time.perf_counter()
    if not isinstance(traces, dict):
        traces = {getattr(traces, "label", "trace"): traces}
    if not isinstance(devices, dict):
        devices = {"device": devices}
    loads = [float(x) for x in loads]
    time_scales = [float(x) for x in time_scales]
    if not loads or not time_scales or not traces or not devices:
        raise ValueError("run_grid needs at least one value per axis")
    cfg = config or ReplayConfig()
    if engine not in ("auto", "kernel", "event"):
        raise ValueError(f"unknown engine {engine!r}")
    face = [
        GridCell(load, ts) for load in loads for ts in time_scales
    ]
    chunk = chunk_bytes if chunk_bytes is not None else DEFAULT_CHUNK_BYTES

    cells: List[GridCellResult] = []
    engines: Dict[str, int] = {}
    fallback_reasons: Dict[str, str] = {}
    fused_cells = 0
    for dev_name, factory in devices.items():
        for trace_label, trace in traces.items():
            if engine == "event":
                evals = [None] * len(face)
            else:
                evals = evaluate_grid_cells(
                    trace, factory(), face, config=cfg,
                    stream_interval=stream_interval, chunk_bytes=chunk,
                    capture=capture,
                )
            pending = [
                i for i, ev in enumerate(evals)
                if ev is None or ev.result is None
            ]
            results: List[Any] = [
                None if ev is None else ev.result for ev in evals
            ]
            captures: List[Any] = [
                None if ev is None else ev.capture for ev in evals
            ]
            if pending:
                points = [(face[i].load, face[i].time_scale) for i in pending]
                if (
                    not capture
                    and _use_pool(parallel, len(points))
                    and _poolable(factory, trace)
                ):
                    slab = (factory, points, cfg, stream_interval, engine)
                    slab_out = run_sweep(
                        _grid_slab_worker, [slab],
                        labels=[f"{dev_name}/{trace_label}"],
                        max_workers=max_workers, shared_trace=trace,
                    )[0]
                else:
                    slab_out = _replay_points_serial(
                        trace, factory, points, cfg, stream_interval, engine,
                        capture=capture,
                    )
                for i, res in zip(pending, slab_out):
                    if capture:
                        results[i], captures[i] = res
                    else:
                        results[i] = res
            for i, cell in enumerate(face):
                fused = evals[i] is not None and evals[i].result is not None
                fused_cells += 1 if fused else 0
                gcr = GridCellResult(
                    device=dev_name, trace=trace_label,
                    load=cell.load, time_scale=cell.time_scale,
                    result=results[i], fused=fused,
                    capture=captures[i],
                )
                engines[gcr.engine] = engines.get(gcr.engine, 0) + 1
                if gcr.fallback is not None:
                    fallback_reasons[gcr.key] = gcr.fallback
                cells.append(gcr)
    return GridOutcome(
        cells=cells,
        devices=tuple(devices),
        traces=tuple(traces),
        loads=tuple(loads),
        time_scales=tuple(time_scales),
        engines=engines,
        fallback_reasons=fallback_reasons,
        fused_cells=fused_cells,
        elapsed_seconds=_time.perf_counter() - t_wall,
    )


def run_policy_search(
    traces,
    devices,
    policies,
    loads: Sequence[float] = (1.0,),
    time_scales: Sequence[float] = (1.0,),
    *,
    config=None,
    stream_interval: Optional[float] = None,
    engine: str = "auto",
    parallel="auto",
    max_workers: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
):
    """Sweep energy policies over a replay grid at kernel speed.

    The workhorse behind ``tracer search``: one :func:`run_grid` pass
    with ``capture=True`` replays every (device × trace × load ×
    time-scale) base cell — fused where the grid kernel qualifies,
    per-point otherwise, reusing the same chunking and shared-memory
    scheduling — and each policy in ``policies`` is then evaluated as a
    deterministic post-pass over the captured record, so a P-policy
    search replays each base cell once instead of P+1 times.

    ``policies`` is a sequence of configured-or-fresh
    :class:`~repro.energysaving.policy.AnalyticPolicy` instances; an
    always-on baseline is evaluated implicitly as the savings
    reference.  Returns a :class:`repro.search.SearchOutcome` whose
    per-cell metrics are bit-identical to a per-point
    ``engine="kernel"``/``"event"`` replay of the same cell (the
    differential-oracle property; ``tracer search --verify`` re-checks
    it).
    """
    from ..search.driver import evaluate_search

    grid = run_grid(
        traces, devices, loads, time_scales,
        config=config, stream_interval=stream_interval, engine=engine,
        parallel=parallel, max_workers=max_workers, chunk_bytes=chunk_bytes,
        capture=True,
    )
    return evaluate_search(grid, policies, devices, config=config)

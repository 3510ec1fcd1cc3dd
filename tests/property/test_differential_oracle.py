"""Differential oracle: every trace operation, packed vs object walk, exact.

One parametrized test drives the full operation surface — proportional /
random / bernoulli filtering, time scaling, statistics, codec, and
measured replay (clean and fault-injected) — through both the library,
which runs on :class:`~repro.trace.packed.PackedTrace` columns, and the
per-bunch object walks of :mod:`tests.object_walks` over the same
:class:`~repro.trace.record.Trace`, on randomized seeded traces, and
asserts the outputs are bit-identical.

The hypothesis-based suites in ``test_property_packed.py`` remain as
deeper per-operation probes; this oracle guarantees *no operation is
missing* from the comparison.

Comparisons are canonical serialisations (codec bytes for traces, sorted
JSON for results), so "identical" means identical to the last bit, not
approximately equal.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.proportional_filter import (
    bernoulli_filter_trace,
    filter_trace,
    random_filter_trace,
)
from repro.core.timescale import scale_trace
from repro.faults.schedule import FaultSchedule
from repro.replay.capture import CaptureSink
from repro.replay.session import replay_trace
from repro.rng import derive_seed, make_rng
from repro.trace.blktrace import dumps, dumps_packed, loads, loads_packed
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace, pack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace
from repro.trace.stats import compute_stats

from tests import object_walks
from tests.telemetry_view import telemetry_view

from .test_property_faults import tiny_array

SEEDS = [3, 11, 29, 47]


def random_trace(seed: int, max_bunches: int = 48) -> Trace:
    """A randomized trace on the 1/64-second timestamp grid.

    Timestamps on the grid are exactly representable in binary and in
    nanoseconds, so codec round-trips and float arithmetic compare
    bit-for-bit.  Sectors/sizes stay within the tiny test array's
    capacity so the same trace replays on real devices.
    """
    rng = make_rng(derive_seed(seed, "differential-oracle"))
    n = int(rng.integers(4, max_bunches + 1))
    tick = 0
    bunches = []
    for _ in range(n):
        tick += int(rng.integers(0, 48))
        fan = int(rng.integers(1, 5))
        packages = [
            IOPackage(
                sector=int(rng.integers(0, 1 << 14)),
                nbytes=512 * int(rng.integers(1, 33)),
                op=READ if rng.integers(0, 2) == 0 else WRITE,
            )
            for _ in range(fan)
        ]
        bunches.append(Bunch(tick / 64, packages))
    return Trace(bunches, label="oracle")


def canon(value) -> object:
    """Canonical, bit-exact form of an operation's output."""
    if isinstance(value, PackedTrace):
        return dumps_packed(value)
    if isinstance(value, Trace):
        return dumps(value)
    return value


def canon_result(result) -> str:
    """A replay result as sorted JSON, telemetry metadata excluded.

    The object walk replays on the event engine while the library may
    take the analytical kernel, so the telemetry snapshot's ``sim.*``
    family (the engine's own work) is *supposed* to differ between the
    two runs; the measured physics must not.  The engine provenance
    keys are excluded for the same reason; kernel-vs-event equivalence
    has its own oracle below (:func:`test_kernel_vs_event_oracle`).
    """
    d = result.to_dict()
    md = d.get("metadata", {})
    md.pop("telemetry", None)
    md.pop("engine", None)
    md.pop("engine_fallback", None)
    return json.dumps(d, sort_keys=True)


#: The library's operations, under the names :mod:`tests.object_walks`
#: gives their per-bunch walks.
LIBRARY = SimpleNamespace(
    filter_trace=filter_trace,
    random_filter_trace=random_filter_trace,
    bernoulli_filter_trace=bernoulli_filter_trace,
    scale_trace=scale_trace,
    compute_stats=compute_stats,
    replay_trace=replay_trace,
)


def _impl(trace):
    """The object walks for a :class:`Trace`, the library for a
    :class:`PackedTrace`."""
    return object_walks if isinstance(trace, Trace) else LIBRARY


def _op_proportional_filter(trace, seed):
    rng = make_rng(derive_seed(seed, "oracle-prop"))
    group = int(rng.integers(1, 11))
    proportion = int(rng.integers(1, group + 1)) / group
    return canon(_impl(trace).filter_trace(trace, proportion, group))


def _op_random_filter(trace, seed):
    return canon(_impl(trace).random_filter_trace(trace, 0.5, seed=seed))


def _op_bernoulli_filter(trace, seed):
    return canon(_impl(trace).bernoulli_filter_trace(trace, 0.7, seed=seed))


def _op_timescale(trace, seed):
    rng = make_rng(derive_seed(seed, "oracle-scale"))
    intensity = float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.7]))
    return canon(_impl(trace).scale_trace(trace, intensity))


def _op_stats(trace, seed):
    return _impl(trace).compute_stats(trace)


def _op_codec(trace, seed):
    if isinstance(trace, PackedTrace):
        return dumps_packed(loads_packed(dumps_packed(trace)))
    return dumps(loads(dumps(trace)))


def _op_replay_clean(trace, seed):
    return canon_result(_impl(trace).replay_trace(trace, tiny_array(), 1.0))


def _op_replay_filtered(trace, seed):
    return canon_result(_impl(trace).replay_trace(trace, tiny_array(), 0.5))


def _op_replay_faulted(trace, seed):
    schedule = FaultSchedule.generate(
        seed, duration=1.0, n_members=4, sector_error_count=2
    )
    return canon_result(
        _impl(trace).replay_trace(trace, tiny_array(), faults=schedule)
    )


OPERATIONS = {
    "proportional_filter": _op_proportional_filter,
    "random_filter": _op_random_filter,
    "bernoulli_filter": _op_bernoulli_filter,
    "timescale": _op_timescale,
    "stats": _op_stats,
    "codec_roundtrip": _op_codec,
    "replay_clean": _op_replay_clean,
    "replay_filtered": _op_replay_filtered,
    "replay_faulted": _op_replay_faulted,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_object_and_packed_paths_bit_identical(op, seed):
    trace = random_trace(seed)
    from_object = OPERATIONS[op](trace, seed)
    from_packed = OPERATIONS[op](pack(trace), seed)
    assert from_object == from_packed


@pytest.mark.parametrize("op", ["replay_clean", "replay_faulted"])
def test_oracle_holds_with_telemetry_enabled(op):
    """Instrumentation must not perturb either path's results."""
    from repro.telemetry import enabled_telemetry

    trace = random_trace(SEEDS[0])
    baseline = OPERATIONS[op](trace, SEEDS[0])
    with enabled_telemetry():
        assert OPERATIONS[op](trace, SEEDS[0]) == baseline
        assert OPERATIONS[op](pack(trace), SEEDS[0]) == baseline


# ---------------------------------------------------------------------------
# Kernel-vs-event oracle: the analytical replay kernel must reproduce the
# event engine bit for bit on every qualifying cell, and ``auto`` must
# fall back (with a recorded reason) on every non-qualifying one.
# ---------------------------------------------------------------------------


def _force_ops(trace: Trace, op: int) -> Trace:
    """Copy of ``trace`` with every package's op forced to ``op``."""
    bunches = [
        Bunch(
            b.timestamp,
            [IOPackage(p.sector, p.nbytes, op) for p in b.packages],
        )
        for b in trace.bunches
    ]
    return Trace(bunches, label=trace.label)


def _tiny_hdd():
    import dataclasses

    from repro.storage.hdd import HardDiskDrive
    from repro.storage.specs import SEAGATE_7200_12

    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return HardDiskDrive("oracle-hdd", spec)


def _tiny_ssd():
    from repro.storage.ssd import SolidStateDrive

    return SolidStateDrive("oracle-ssd")


def _tiny_raid(level_name: str):
    import dataclasses

    from repro.storage.array import DiskArray
    from repro.storage.hdd import HardDiskDrive
    from repro.storage.raid import RaidLevel
    from repro.storage.specs import SEAGATE_7200_12

    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    disks = [HardDiskDrive(f"o{i}", spec) for i in range(4)]
    return DiskArray(disks, RaidLevel[level_name], name=f"oracle-{level_name}")


#: device key -> (factory, op override or None, auto must take the kernel)
KERNEL_CELLS = {
    "hdd": (_tiny_hdd, None, True),
    "ssd": (_tiny_ssd, None, True),
    "raid0": (lambda: _tiny_raid("RAID0"), None, True),
    "raid5_reads": (lambda: _tiny_raid("RAID5"), READ, True),
    # Write-only (every partial stripe goes through the two-phase RMW
    # barrier) and mixed cello-style cells now fuse too.
    "raid5_writes": (lambda: _tiny_raid("RAID5"), WRITE, True),
    "raid5_mixed": (lambda: _tiny_raid("RAID5"), None, True),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", sorted(KERNEL_CELLS))
def test_kernel_vs_event_oracle(cell, seed):
    """Filter × timescale × device cells: kernel ≡ event, bit for bit."""
    from repro.config import ReplayConfig
    from repro.telemetry import enabled_telemetry
    from repro.telemetry.stream import frames_to_jsonl

    factory, op_override, expect_kernel = KERNEL_CELLS[cell]
    trace = random_trace(seed)
    if op_override is not None:
        trace = _force_ops(trace, op_override)
    packed = pack(trace)
    # Vary the load-control and time-scale dimensions with the seed so
    # the engine selector is exercised across filter × timescale cells.
    load = 0.5 if seed % 2 else 1.0
    config = ReplayConfig(
        sampling_cycle=0.25, time_scale=2.0 if seed % 3 == 0 else 1.0
    )
    kwargs = dict(config=config, stream_interval=0.5)
    event = replay_trace(
        packed, factory(), load, engine="event", **kwargs
    )
    auto = replay_trace(packed, factory(), load, engine="auto", **kwargs)
    # Instrumented, each engine records the same instruments but sim.*.
    with enabled_telemetry():
        event_tele = replay_trace(
            packed, factory(), load, engine="event", **kwargs
        ).metadata["telemetry"]
    with enabled_telemetry():
        auto_on = replay_trace(
            packed, factory(), load, engine="auto", **kwargs
        )
    assert auto_on.metadata["engine"] == auto.metadata["engine"]
    assert auto_on.metadata.get("engine_fallback") == \
        auto.metadata.get("engine_fallback")
    assert telemetry_view(auto_on.metadata["telemetry"]) == \
        telemetry_view(event_tele)
    assert event.metadata["engine"] == "event"
    if expect_kernel:
        assert auto.metadata["engine"] == "kernel", auto.metadata
        assert canon_result(auto) == canon_result(event)
        # Interval frames carry the latency histograms: byte-identical.
        assert frames_to_jsonl(
            auto.metadata["interval_frames"]
        ) == frames_to_jsonl(event.metadata["interval_frames"])
    else:
        assert auto.metadata["engine"] == "event", auto.metadata
        assert "engine_fallback" in auto.metadata
        assert canon_result(auto) == canon_result(event)


def _saturated_trace(seed: int, n: int = 600) -> PackedTrace:
    """Write-heavy bunches (half writes) of three 64 KiB packages
    anywhere in 2 GiB with Poisson arrivals (mean 4 ms): the
    ``search-grid`` benchmark's shape at a fifth of its length."""
    rng = np.random.default_rng(seed)
    packages = np.empty(3 * n, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 22, 3 * n)
    packages["nbytes"] = 65536
    packages["op"] = (rng.random(3 * n) < 0.5).astype(np.int64)
    return PackedTrace(
        np.cumsum(rng.exponential(0.004, n)),
        np.arange(n + 1, dtype=np.int64) * 3, packages, label="saturated",
    )


#: Load x time-scale cells in the 0.44-0.59 band, where saturated
#: read-modify-write fixpoints are deepest (the end of the paper's Fig.
#: 8/9 load sweeps): a whole-trace solve used to run out of passes on
#: some traces here and fall back.
SATURATED_BAND = ((1.0, 0.44), (1.0, 0.5), (1.0, 0.59), (0.8, 0.6))


@pytest.mark.parametrize("seed", [1, 2])
def test_saturated_rmw_band_fuses(seed):
    """Each band cell fuses bit-identically to the event engine, alone
    and inside a larger fused grid chunk, and its solve slides windows."""
    from dataclasses import replace

    from repro.config import ReplayConfig
    from repro.storage.array import build_hdd_raid5
    from repro.telemetry import enabled_telemetry
    from repro.workload.parallel import run_grid

    def factory():
        return build_hdd_raid5(6)

    trace = _saturated_trace(seed)
    config = ReplayConfig(sampling_cycle=1000.0)
    grid = run_grid(
        {"t": trace}, {"d": factory}, loads=(0.8, 1.0),
        time_scales=(0.44, 0.5, 0.59, 0.6, 1.0), config=config,
        engine="auto", parallel=False,
    )
    assert grid.fused_cells == len(grid.cells) == 10
    fused = {(c.load, c.time_scale): c.result for c in grid.cells}
    for load, scale in SATURATED_BAND:
        cell = replace(config, time_scale=scale)
        event = replay_trace(trace, factory(), load, config=cell,
                             engine="event")
        with enabled_telemetry() as reg:
            mark = reg.mark()
            alone = replay_trace(trace, factory(), load, config=cell,
                                 engine="auto")
            counters = reg.collect(since=mark)["counters"]
        assert alone.metadata["engine"] == "kernel", (load, scale)
        assert counters["sim.kernel.rmw_windows"] > 1, (load, scale)
        assert canon_result(alone) == canon_result(event), (load, scale)
        assert canon_result(fused[load, scale]) == canon_result(event)


# SSD service times are deterministic, so SSD RAID-5 replays meet exact
# ties: flights completing at one instant, and two flights' post writes
# reaching one member at one instant.  The kernel puts them in the event
# calendar's order; each case is checked as a single replay, as a grid
# cell on its own and as a cell inside a larger grid.


@st.composite
def ssd_tie_traces(draw):
    """4 KiB bunches, half writes, on a coarse grid of instants (1/1024
    s apart, often several per instant) over 64 chunks of a 4-SSD
    RAID-5: about half of these replays meet exact ties."""
    n = draw(st.integers(4, 40))
    ticks = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    fan = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    total = sum(fan)
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = np.array(draw(st.lists(
        st.integers(0, 63), min_size=total, max_size=total
    ))) * 8
    packages["nbytes"] = 4096
    packages["op"] = draw(st.lists(
        st.sampled_from([READ, WRITE]), min_size=total, max_size=total
    ))
    return PackedTrace(
        ticks / 1024, np.concatenate(([0], np.cumsum(fan))), packages,
        label="ssd-ties",
    )


def _ssd_raid5():
    from repro.storage.array import build_ssd_raid5

    return build_ssd_raid5(4)


def _record(capture):
    """A capture's completion record, in completion order, and its
    member power timelines."""
    return (
        capture.finishes.tolist(), capture.responses.tolist(),
        [(m.name, m.starts.tolist(), m.ends.tolist()) for m in capture.members],
    )


#: The one refusal an SSD RAID-5 replay may still meet; a tie is never
#: a reason to leave the kernel.
_COST_REFUSAL = "rmw fixpoint costs more than an event replay"


def _assert_ssd_cell_matches_event(trace, load):
    from repro.config import ReplayConfig
    from repro.telemetry.stream import frames_to_jsonl
    from repro.workload.parallel import run_grid

    config = ReplayConfig(sampling_cycle=0.01)
    kwargs = dict(config=config, stream_interval=0.005)

    def replay(engine):
        sink = CaptureSink()
        result = replay_trace(
            trace, _ssd_raid5(), load, engine=engine, capture=sink, **kwargs
        )
        return result, _record(sink.capture)

    event, record = replay("event")
    alone, alone_record = replay("auto")
    fused = alone.metadata["engine"] == "kernel"
    if not fused:
        assert alone.metadata["engine_fallback"] == _COST_REFUSAL
    expect = canon_result(event)
    frames = frames_to_jsonl(event.metadata["interval_frames"])
    assert canon_result(alone) == expect
    assert frames_to_jsonl(alone.metadata["interval_frames"]) == frames
    assert alone_record == record
    larger = sorted({load, 0.5, 0.8, 1.0})
    for loads, scales in (((load,), (1.0,)), (larger, (0.5, 1.0))):
        grid = run_grid(
            {"t": trace}, {"d": _ssd_raid5}, loads=loads, time_scales=scales,
            config=config, stream_interval=0.005, engine="auto",
            parallel=False, capture=True,
        )
        cell = next(
            c for c in grid.cells if c.load == load and c.time_scale == 1.0
        )
        if len(loads) == 1:
            # Alone, a cell is the single replay's one-row solve.  In a
            # larger grid the rows share RMW windows, so the cost bound
            # may hand a costly cell back; it is then replayed per point.
            assert cell.fused == fused
        assert canon_result(cell.result) == expect
        assert _record(cell.capture) == record
        assert frames_to_jsonl(
            cell.result.metadata["interval_frames"]
        ) == frames
    # Telemetry changes neither the engine nor the result, and the
    # kernel reports what the event engine reports, queue counts at
    # ties included, alone and as a grid cell.
    from repro.telemetry import enabled_telemetry

    with enabled_telemetry():
        traced = replay_trace(
            trace, _ssd_raid5(), load, engine="auto", **kwargs
        )
    assert traced.metadata["engine"] == alone.metadata["engine"]
    assert canon_result(traced) == expect
    _assert_telemetry_matches_event(trace, load, **kwargs)


def _assert_telemetry_matches_event(trace, load, **kwargs):
    from repro.telemetry import enabled_telemetry
    from repro.workload.parallel import run_grid

    with enabled_telemetry():
        event = replay_trace(
            trace, _ssd_raid5(), load, engine="event", **kwargs
        )
    with enabled_telemetry():
        alone = replay_trace(trace, _ssd_raid5(), load, engine="auto", **kwargs)
    with enabled_telemetry():
        [cell] = run_grid(
            {"t": trace}, {"d": _ssd_raid5}, loads=(load,), engine="auto",
            parallel=False, **kwargs,
        ).cells
    expect = telemetry_view(event.metadata["telemetry"])
    assert telemetry_view(alone.metadata["telemetry"]) == expect
    assert telemetry_view(cell.result.metadata["telemetry"]) == expect


@given(ssd_tie_traces(), st.sampled_from([0.5, 0.8, 1.0]))
@settings(max_examples=40, deadline=None)
def test_ssd_raid5_ties_match_event(trace, load):
    _assert_ssd_cell_matches_event(trace, load)


@st.composite
def collected_ssd_traces(draw):
    """A trace the IOmeter generator collects on the SSD array: closed
    loop, so its arrivals are sums of the same service times, and its
    replays tie often — with a calendar order that is not flight order
    more often than the coarse grid's."""
    from repro.config import WorkloadMode
    from repro.workload.matrix import collect_trace

    mode = draw(st.sampled_from([(4096, 0.5, 0.5), (4096, 1.0, 1.0)]))
    seed = draw(st.integers(0, 2**31 - 1))
    return pack(collect_trace(_ssd_raid5, WorkloadMode(*mode), 0.05, seed=seed))


@given(collected_ssd_traces(), st.sampled_from([0.5, 0.7, 0.9]))
@settings(
    max_examples=15, deadline=None,
    # Collecting a trace runs a simulation: generation is the slow part.
    suppress_health_check=[HealthCheck.too_slow],
)
def test_collected_ssd_raid5_ties_match_event(trace, load):
    _assert_ssd_cell_matches_event(trace, load)


@pytest.mark.parametrize("load", [0.6, 0.7, 0.8, 0.9])
def test_collected_ssd_raid5_trace_matches_event(load):
    """One collected trace whose tied completions at each of these loads
    are not in flight order."""
    from repro.config import WorkloadMode
    from repro.telemetry import enabled_telemetry
    from repro.workload.matrix import collect_trace

    trace = pack(collect_trace(
        _ssd_raid5, WorkloadMode(4096, 0.5, 0.5), 0.1, seed=1
    ))
    with enabled_telemetry() as reg:
        mark = reg.mark()
        replay_trace(trace, _ssd_raid5(), load, engine="kernel")
        assert reg.collect(since=mark)["counters"]["sim.kernel.tie_groups"]
    _assert_ssd_cell_matches_event(trace, load)


def test_engine_kernel_refuses_unqualified():
    """``engine='kernel'`` on a non-qualifying run raises, naming why.

    RAID-5 writes fuse now, so the designed refusal is a *degraded*
    array — reconstruction reads mutate planner state per request.
    """
    from repro.errors import ReplayError

    trace = _force_ops(random_trace(SEEDS[0]), WRITE)
    device = _tiny_raid("RAID5")
    device.fail_disk(1)
    with pytest.raises(ReplayError, match="does not qualify"):
        replay_trace(pack(trace), device, 1.0, engine="kernel")


def test_full_stripe_aligned_writes_fuse():
    """Stripe-aligned full-row writes (empty pre phase) stay fused and
    bit-identical — the in-memory-parity fast path of the planner."""
    device_factory = lambda: _tiny_raid("RAID5")
    geom = device_factory().geometry
    stripe_bytes = (geom.n_disks - 1) * geom.strip_bytes
    stripe_sectors = stripe_bytes // 512
    bunches = [
        Bunch(
            i / 64,
            [IOPackage(sector=i * stripe_sectors, nbytes=stripe_bytes, op=WRITE)],
        )
        for i in range(8)
    ]
    packed = pack(Trace(bunches, label="full-stripe"))
    event = replay_trace(packed, device_factory(), 1.0, engine="event")
    auto = replay_trace(packed, device_factory(), 1.0, engine="auto")
    assert auto.metadata["engine"] == "kernel", auto.metadata
    assert "engine_fallback" not in auto.metadata
    assert canon_result(auto) == canon_result(event)


def test_degraded_raid5_writes_stay_event():
    """Degraded arrays keep the designed event-path fallback reason."""
    trace = _force_ops(random_trace(SEEDS[1]), WRITE)
    device = _tiny_raid("RAID5")
    device.fail_disk(2)
    auto = replay_trace(pack(trace), device, 1.0, engine="auto")
    assert auto.metadata["engine"] == "event"
    assert auto.metadata["engine_fallback"] == "array degraded or rebuilding"


# ---------------------------------------------------------------------------
# Policy-search oracle: the fused grid's captures, a per-point kernel
# replay's capture, and a per-point *event* replay's capture must yield
# bit-identical policy metrics for every (cell × policy) point; telemetry
# must not move a cell off the fused path, and an object trace, packed at
# entry, must fuse with identical numbers.
# ---------------------------------------------------------------------------


def _search_policies():
    from repro.energysaving import DRPMPolicy, MAIDPolicy

    return [MAIDPolicy(idle_timeout=1.0), DRPMPolicy(step_timeout=0.5)]


def _run_search(trace, seed, *, loads=(0.5, 1.0), time_scales=(1.0, 2.0)):
    from repro.config import ReplayConfig
    from repro.workload.parallel import run_policy_search

    traces = {"oracle": trace}
    devices = {"raid0": lambda: _tiny_raid("RAID0")}
    config = ReplayConfig(sampling_cycle=0.25)
    outcome = run_policy_search(
        traces,
        devices,
        _search_policies(),
        loads=loads,
        time_scales=time_scales,
        config=config,
    )
    return outcome, traces, devices, config


def _per_point_metrics(outcome, traces, devices, config, engine):
    """Re-derive every cell's policy metrics from a per-point replay."""
    import dataclasses

    from repro.energysaving.policy import BaselinePolicy, evaluate_policy
    from repro.replay.capture import CaptureSink

    policies = _search_policies()
    baseline = BaselinePolicy()
    probe = devices["raid0"]()
    baseline.configure(probe)
    for policy in policies:
        policy.configure(probe)
    metrics = {}
    for gcell in outcome.grid.cells:
        sink = CaptureSink()
        replay_trace(
            traces[gcell.trace],
            devices[gcell.device](),
            gcell.load,
            config=dataclasses.replace(config, time_scale=gcell.time_scale),
            engine=engine,
            capture=sink,
        )
        base = dataclasses.replace(
            baseline.evaluate(sink.capture, sampling_cycle=0.25),
            energy_saving=0.0,
            response_penalty=0.0,
        )
        rows = [base] + [
            evaluate_policy(
                p, sink.capture, sampling_cycle=0.25, baseline=base
            )
            for p in policies
        ]
        for m in rows:
            metrics[f"{gcell.key}#{m.policy}"] = json.dumps(
                m.to_dict(), sort_keys=True
            )
    return metrics


def _search_metrics(outcome):
    return {
        c.key: json.dumps(c.metrics.to_dict(), sort_keys=True)
        for c in outcome.cells
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_policy_search_oracle(seed):
    """Fused grid ≡ per-point kernel ≡ per-point event, per policy cell."""
    packed = pack(random_trace(seed))
    outcome, traces, devices, config = _run_search(packed, seed)
    assert outcome.shape == (1, 1, 2, 2, 3)
    assert len(outcome.cells) == 12
    # RAID0 reads+writes qualify: the whole base grid must fuse.
    assert outcome.engines == {"kernel": 4}
    assert outcome.fused_cells == 4
    from_kernel = _per_point_metrics(
        outcome, traces, devices, config, "kernel"
    )
    assert _search_metrics(outcome) == from_kernel
    from_event = _per_point_metrics(
        outcome, traces, devices, config, "event"
    )
    assert _search_metrics(outcome) == from_event
    # The built-in verifier is the same oracle; it must agree.
    assert verify_search(
        outcome, traces, devices, _search_policies(), config=config
    ) == []


def test_policy_search_telemetry_fallback_bit_identical():
    """Telemetry on: no cell falls back — all four still fuse — and
    every policy metric stays bit-identical to the instrumented-off
    search."""
    from repro.telemetry import enabled_telemetry

    packed = pack(random_trace(SEEDS[1]))
    baseline_outcome, *_ = _run_search(packed, SEEDS[1])
    with enabled_telemetry():
        outcome, traces, devices, config = _run_search(packed, SEEDS[1])
        assert outcome.fused_cells == 4
        assert outcome.fallback_reasons == {}
        assert _search_metrics(outcome) == _search_metrics(baseline_outcome)
        assert verify_search(
            outcome, traces, devices, _search_policies(), config=config
        ) == []


def test_policy_search_object_trace_fuses_bit_identical():
    """An object Trace is packed at entry: every base cell fuses, and
    the scores equal the packed search's and per-point event replays'."""
    trace = random_trace(SEEDS[2])
    packed_outcome, *_ = _run_search(pack(trace), SEEDS[2])
    outcome, traces, devices, config = _run_search(trace, SEEDS[2])
    assert outcome.fused_cells == 4
    assert outcome.fallback_reasons == {}
    assert _search_metrics(outcome) == _search_metrics(packed_outcome)
    assert _search_metrics(outcome) == _per_point_metrics(
        outcome, traces, devices, config, "event"
    )
    assert verify_search(
        outcome, traces, devices, _search_policies(), config=config
    ) == []


def verify_search(outcome, traces, devices, policies, *, config):
    """Thin alias so each oracle test reads as one assertion."""
    from repro.search import verify_search as _verify

    return _verify(outcome, traces, devices, policies, config=config)

"""Grid-fused sweeps: batched solvers, per-cell bit-identity, fallback
parity.

The contract under test: every cell of a :func:`repro.workload.parallel
.run_grid` sweep is *bit-identical* to a hand-rolled per-point
:func:`~repro.replay.session.replay_trace` loop — fused cells against
forced ``engine="kernel"`` replay, declined cells against the same
``engine`` setting the grid was given (so fallback metadata matches a
serial sweep exactly).  The ``(P, n)`` solvers are additionally pinned
row by row against their scalar references and against single-row
solves, including rows forced down the general per-row-heads path.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ReplayConfig
from repro.errors import ReplayError
from repro.replay.session import replay_trace
from repro.sim.kernel import (
    _chain_scalar,
    _lindley_scalar,
    _solve_lindley,
    _solve_link_chain,
)
from repro.storage.array import DiskArray
from repro.storage.hdd import HardDiskDrive
from repro.storage.raid import RaidLevel
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.packed import pack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace
from repro.workload.parallel import run_grid
from tests.telemetry_view import canon, telemetry_view

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Batched solves vs the scalar references and single-row solves


def _row_matrix(rng, n, n_rows):
    """(P, n) submit matrices whose rows span idle, busy, and mixed
    regimes — time-scaled copies of one arrival pattern, exactly the
    shape the grid feeds the solvers."""
    base = np.sort(rng.random(n) * 10.0)
    scales = 0.25 + 2.0 * rng.random(n_rows)
    yield np.outer(scales, base), rng.random(n) * 0.01   # mostly idle rows
    yield np.outer(scales, base), rng.random(n) * 10.0   # fully busy rows
    yield np.outer(scales, base), rng.random(n) * 0.5    # mixed / general
    burst = np.repeat(np.arange(n // 4 + 1) * 3.0, 4)[:n]
    yield np.outer(scales, burst), rng.random(n) * 0.4   # tied submits


def _check_lindley(submit, sv, prev):
    """Each row of one ``(P, n)`` solve equals the scalar recurrence and
    the same row solved alone."""
    got = _solve_lindley(submit, sv, prev)
    for i in range(submit.shape[0]):
        sv_i = sv if sv.ndim == 1 else sv[i]
        expect = _lindley_scalar(submit[i], sv_i, prev)
        assert np.array_equal(got[i], expect), f"row {i}"
        alone = _solve_lindley(submit[i:i + 1], sv_i, prev)[0]
        assert np.array_equal(alone, expect), f"row {i}"


def _check_chain(t, c, p, prev):
    gd, gl = _solve_link_chain(t, c, p, prev)
    for i in range(t.shape[0]):
        ed, el = _chain_scalar(t[i], c, p, prev)
        assert np.array_equal(gd[i], ed), f"row {i}"
        assert np.array_equal(gl[i], el), f"row {i}"
        ad, al = _solve_link_chain(t[i:i + 1], c, p, prev)
        assert np.array_equal(ad[0], ed), f"row {i}"
        assert np.array_equal(al[0], el), f"row {i}"


class TestGridLindleySolver:
    @pytest.mark.parametrize("seed", [3, 17, 59])
    @pytest.mark.parametrize("prev", [_NEG_INF, 2.5])
    def test_rows_bit_identical_to_1d_solver(self, seed, prev):
        rng = np.random.default_rng(seed)
        for submit, sv in _row_matrix(rng, 193, 9):
            _check_lindley(submit, sv, prev)
            # Per-row service times, as the RMW fixpoint passes them.
            _check_lindley(submit, sv * (0.5 + rng.random(submit.shape)), prev)

    def test_general_path_rows(self):
        """Rows engineered to defeat both fast paths (idle gap in the
        middle, saturation elsewhere) must still match bit for bit —
        this exercises the per-row heads and their refinement."""
        rng = np.random.default_rng(41)
        n = 128
        submit = np.cumsum(rng.random((7, n)) * 0.2, axis=1)
        submit[:, n // 2:] += 50.0  # idle restart mid-trace on every row
        sv = rng.random(n) * 0.3
        _check_lindley(submit, sv, 0.0)

    def test_degenerate_shapes(self):
        empty = np.empty((3, 0), dtype=np.float64)
        assert _solve_lindley(empty, np.empty(0)).shape == (3, 0)
        assert _solve_lindley(np.empty((0, 4)), np.ones(4)).shape == (0, 4)
        _check_lindley(np.array([[2.0], [0.5]]), np.array([0.25]), 1.0)


class TestGridLinkChainSolver:
    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("prev", [_NEG_INF, 1.0])
    def test_rows_bit_identical_to_1d_solver(self, seed, prev):
        rng = np.random.default_rng(seed)
        for t, p in _row_matrix(rng, 161, 8):
            _check_chain(t, 5e-5, p * 1e-3, prev)

    def test_general_path_rows(self):
        rng = np.random.default_rng(43)
        n = 96
        t = np.cumsum(rng.random((6, n)) * 1e-4, axis=1)
        t[:, n // 3:] += 2.0
        t[:, 2 * n // 3:] += 2.0
        _check_chain(t, 5e-5, rng.random(n) * 1e-3, 0.0)


# ---------------------------------------------------------------------------
# Grid cells vs per-point replay


def _mixed_trace(n=48, fan=2, write_every=3):
    """Packed trace with interleaved reads and writes (RAID-0-safe)."""
    bunches = []
    for i in range(n):
        op = WRITE if i % write_every == 0 else READ
        bunches.append(
            Bunch(
                i / 40,
                [IOPackage(64 * (i * fan + j), 4096, op) for j in range(fan)],
            )
        )
    return pack(Trace(bunches, label="grid-mixed"))


def _read_trace(n=48, fan=2):
    return pack(
        Trace(
            [
                Bunch(
                    i / 40,
                    [
                        IOPackage(64 * (i * fan + j), 4096, READ)
                        for j in range(fan)
                    ],
                )
                for i in range(n)
            ],
            label="grid-read",
        )
    )


def _small_spec():
    return dataclasses.replace(
        SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024
    )


def _hdd():
    return HardDiskDrive("g-hdd", _small_spec())


def _ssd():
    return SolidStateDrive("g-ssd")


def _raid5():
    return DiskArray(
        [HardDiskDrive(f"g{i}", _small_spec()) for i in range(4)],
        RaidLevel.RAID5,
        name="g-raid5",
    )


def _raid0():
    return DiskArray(
        [HardDiskDrive(f"g{i}", _small_spec()) for i in range(4)],
        RaidLevel.RAID0,
        name="g-raid0",
    )


LOADS = (0.5, 1.0)
SCALES = (1.0, 1.75)


class TestGridVsPerPointKernel:
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid0, _raid5])
    def test_full_json_bit_identity(self, factory):
        trace = _read_trace()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=LOADS, time_scales=SCALES,
            engine="kernel", parallel=False,
        )
        assert outcome.fused_cells == len(outcome.cells) == 4
        for cell in outcome.cells:
            serial = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel",
            )
            assert canon(cell.result) == canon(serial), cell.key

    @pytest.mark.parametrize("factory", [_raid0, _raid5])
    def test_mixed_ops_fuse(self, factory):
        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=LOADS, time_scales=SCALES,
            engine="kernel", parallel=False,
        )
        assert outcome.fused_cells == 4
        for cell in outcome.cells:
            serial = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel",
            )
            assert canon(cell.result) == canon(serial), cell.key

    def test_rmw_chunking_invariance(self):
        """The RMW solver's per-order-class batching must be chunk-size
        neutral: a tiny budget means more, smaller order classes per
        solve, and not one bit of drift."""
        trace = _mixed_trace(write_every=2)
        big = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        tiny = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False, chunk_bytes=4096,
        )
        assert big.fused_cells == tiny.fused_cells == 8
        assert [canon(c.result) for c in big.cells] == [
            canon(c.result) for c in tiny.cells
        ]

    def test_windowed_rmw_rows_are_chunk_neutral(self):
        """Saturated cells slide RMW windows while their chunk-mates
        finish in the whole-trace window; every cell equals its own
        per-point kernel replay whether it shares a chunk or solves
        alone (a budget too small for two cells)."""
        from repro.storage.array import build_hdd_raid5
        from tests.property.test_differential_oracle import _saturated_trace

        def factory():
            return build_hdd_raid5(6)

        trace = _saturated_trace(3, n=300)
        config = ReplayConfig(sampling_cycle=1000.0)
        kwargs = dict(
            loads=(1.0,), time_scales=(0.4, 0.5, 1.0, 2.0), config=config,
            engine="kernel", parallel=False,
        )
        shared = run_grid({"t": trace}, {"d": factory}, **kwargs)
        alone = run_grid(
            {"t": trace}, {"d": factory}, chunk_bytes=4096, **kwargs
        )
        assert shared.fused_cells == alone.fused_cells == 4
        for a, b in zip(shared.cells, alone.cells):
            serial = replay_trace(
                trace, factory(), a.load,
                config=dataclasses.replace(config, time_scale=a.time_scale),
                engine="kernel",
            )
            assert canon(a.result) == canon(b.result) == canon(serial), a.key

    def test_chunking_invariance(self):
        """A pathologically small chunk budget splits the face into many
        slabs; results must not move by a single bit."""
        trace = _read_trace()
        big = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False,
        )
        tiny = run_grid(
            {"t": trace}, {"d": _raid5},
            loads=LOADS, time_scales=(1.0, 1.25, 1.5, 2.0),
            engine="kernel", parallel=False, chunk_bytes=4096,
        )
        assert [canon(c.result) for c in big.cells] == [
            canon(c.result) for c in tiny.cells
        ]

    def test_interval_frames_match_per_point_streaming(self):
        trace = _read_trace()
        outcome = run_grid(
            {"t": trace}, {"d": _raid5}, loads=(1.0,), time_scales=SCALES,
            engine="kernel", parallel=False, stream_interval=0.25,
        )
        for cell in outcome.cells:
            serial = replay_trace(
                trace, _raid5(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="kernel", stream_interval=0.25,
            )
            assert cell.result.metadata["interval_frames"] == \
                serial.metadata["interval_frames"], cell.key
            assert canon(cell.result) == canon(serial), cell.key


def _event_oracle_cases():
    """Every device x trace, batch and streaming; the batch IDs are the
    original three-case IDs."""
    cases = []
    for stream_interval in (None, 0.25):
        for factory in (_hdd, _ssd, _raid0, _raid5):
            for trace_fn in (_read_trace, _mixed_trace):
                name = f"{factory.__name__}-{trace_fn.__name__}"
                if stream_interval is not None:
                    name += "-stream"
                cases.append(
                    pytest.param(factory, trace_fn, stream_interval, id=name)
                )
    return cases


class TestGridVsEventEngine:
    """Differential oracle: every fused cell must agree with the
    event-driven engine on everything but the engine provenance keys."""

    @pytest.mark.parametrize(
        "factory,trace_fn,stream_interval", _event_oracle_cases()
    )
    def test_engine_neutral_equality(self, factory, trace_fn, stream_interval):
        trace = trace_fn()
        outcome = run_grid(
            {"t": trace}, {"d": factory}, loads=LOADS, time_scales=SCALES,
            engine="kernel", parallel=False, stream_interval=stream_interval,
        )
        assert outcome.fused_cells == len(outcome.cells) == 4
        for cell in outcome.cells:
            event = replay_trace(
                trace, factory(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="event", stream_interval=stream_interval,
            )
            assert canon(cell.result, engine_neutral=True) == \
                canon(event, engine_neutral=True), cell.key


class TestFallbackParity:
    def test_raid5_writes_fuse_with_zero_fallbacks(self):
        """Parity writes fuse via the two-phase RMW solver now: an
        ``engine="auto"`` sweep over a write-heavy matrix must record no
        fallback at all."""
        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": _raid5}, loads=LOADS, time_scales=SCALES,
            engine="auto", parallel=False,
        )
        assert outcome.fused_cells == 4
        assert outcome.engines == {"kernel": 4}
        assert outcome.fallback_reasons == {}

    def test_degraded_raid5_falls_back_with_per_point_metadata(self):
        """Degraded arrays decline fusion (reconstruction mutates
        planner state); every cell must re-run per point under the same
        ``engine="auto"`` — results *and* fallback metadata identical to
        a hand-rolled serial loop."""

        def degraded():
            dev = _raid5()
            dev.fail_disk(1)
            return dev

        trace = _mixed_trace()
        outcome = run_grid(
            {"t": trace}, {"d": degraded}, loads=LOADS, time_scales=SCALES,
            engine="auto", parallel=False,
        )
        assert outcome.fused_cells == 0
        assert outcome.engines == {"event": 4}
        assert set(outcome.fallback_reasons) == {
            c.key for c in outcome.cells
        }
        assert set(outcome.fallback_reasons.values()) == {
            "array degraded or rebuilding"
        }
        for cell in outcome.cells:
            serial = replay_trace(
                trace, degraded(), cell.load,
                config=ReplayConfig(time_scale=cell.time_scale),
                engine="auto",
            )
            assert canon(cell.result) == canon(serial), cell.key
            assert cell.fallback == serial.metadata["engine_fallback"]

    def test_forced_kernel_raises_where_per_point_would(self):
        def degraded():
            dev = _raid5()
            dev.fail_disk(1)
            return dev

        with pytest.raises(ReplayError, match="does not qualify"):
            run_grid(
                {"t": _mixed_trace()}, {"d": degraded},
                engine="kernel", parallel=False,
            )

    def test_object_trace_fuses(self):
        """An object trace is packed at entry: its cell fuses,
        bit-identical to a per-point ``engine="event"`` replay."""
        obj = Trace(
            [Bunch(i / 40, [IOPackage(64 * i, 4096, READ)]) for i in range(8)],
            label="obj",
        )
        outcome = run_grid({"t": obj}, {"d": _hdd}, parallel=False)
        assert outcome.fused_cells == 1
        assert outcome.cells[0].engine == "kernel"
        serial = replay_trace(obj, _hdd(), 1.0, engine="event")
        assert canon(outcome.cells[0].result, engine_neutral=True) == \
            canon(serial, engine_neutral=True)

    def test_telemetry_keeps_fusion(self):
        """Instrumentation does not decline fusion, and every fused
        cell's telemetry delta equals its per-point replay's."""
        from repro.telemetry import enabled_telemetry

        trace = _mixed_trace(n=160)
        with enabled_telemetry():
            outcome = run_grid(
                {"t": trace}, {"d": _raid5}, loads=LOADS,
                time_scales=SCALES, parallel=False,
            )
        assert outcome.fused_cells == 4
        assert outcome.fallback_reasons == {}
        for at, cell in enumerate(outcome.cells):
            with enabled_telemetry():
                serial = replay_trace(
                    trace, _raid5(), cell.load,
                    config=ReplayConfig(time_scale=cell.time_scale),
                )
            assert serial.metadata["engine"] == "kernel"
            fused = cell.result.metadata["telemetry"]
            alone = serial.metadata["telemetry"]
            assert fused["histograms"]["replay.response_seconds"]["count"]
            assert telemetry_view(fused) == telemetry_view(alone), cell.key
            if at == 0:
                # Both registries were fresh: the spans match too.
                assert fused["spans"] == alone["spans"]


class TestGridOutcomeShape:
    def test_row_major_order_and_lookup(self):
        traces = {"a": _read_trace(), "b": _read_trace(n=24)}
        outcome = run_grid(
            traces, {"hdd": _hdd, "raid": _raid5},
            loads=LOADS, time_scales=SCALES, parallel=False,
        )
        assert outcome.shape == (2, 2, 2, 2)
        assert len(outcome.cells) == 16
        expect = [
            (d, t, lo, ts)
            for d in ("hdd", "raid")
            for t in ("a", "b")
            for lo in LOADS
            for ts in SCALES
        ]
        got = [
            (c.device, c.trace, c.load, c.time_scale) for c in outcome.cells
        ]
        assert got == expect
        cell = outcome.cell("raid", "b", 0.5, 1.75)
        assert (cell.device, cell.trace) == ("raid", "b")
        with pytest.raises(KeyError):
            outcome.cell("raid", "b", 0.33)

    def test_engine_mix_counts_every_cell(self):
        outcome = run_grid(
            {"t": _read_trace()}, {"d": _raid5},
            loads=LOADS, time_scales=SCALES, parallel=False,
        )
        assert sum(outcome.engines.values()) == len(outcome.cells)
        assert outcome.engines == {"kernel": 4}
        assert outcome.fallback_reasons == {}

    def test_empty_trace_raises(self):
        with pytest.raises(ReplayError, match="empty trace"):
            run_grid(
                {"t": pack(Trace([], label="empty"))}, {"d": _hdd},
                parallel=False,
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            run_grid({"t": _read_trace()}, {"d": _hdd}, loads=())

    def test_single_values_accepted_without_mappings(self):
        """A bare trace / bare factory (no dicts) sweeps one plane."""
        trace = _read_trace()
        outcome = run_grid(trace, _hdd, loads=(1.0,), parallel=False)
        assert outcome.traces == ("grid-read",)
        assert outcome.devices == ("device",)
        assert outcome.cells[0].engine == "kernel"


def _module_hdd():
    # Module-level for picklability across the pool boundary.
    return HardDiskDrive(
        "g-hdd",
        dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024),
    )


class TestUnfusedPoolPath:
    def test_forced_pool_matches_serial(self):
        """``engine="event"`` skips fusion entirely; with ``parallel=True``
        the per-point remainder crosses the zero-copy pool path and must
        still come back bit-identical and in row-major order."""
        trace = _read_trace()
        pooled = run_grid(
            {"t": trace}, {"d": _module_hdd},
            loads=LOADS, time_scales=SCALES,
            engine="event", parallel=True, max_workers=2,
        )
        serial = run_grid(
            {"t": trace}, {"d": _module_hdd},
            loads=LOADS, time_scales=SCALES,
            engine="event", parallel=False,
        )
        assert pooled.fused_cells == serial.fused_cells == 0
        assert [c.key for c in pooled.cells] == [c.key for c in serial.cells]
        assert [canon(c.result) for c in pooled.cells] == [
            canon(c.result) for c in serial.cells
        ]

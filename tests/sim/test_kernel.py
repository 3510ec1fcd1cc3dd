"""Analytical replay kernel: solvers, qualification, end-state parity.

The differential oracle (`tests/property/test_differential_oracle.py`)
proves result-level bit-identity against the event engine; these tests
pin the kernel's internals — the exact Lindley / link-chain solvers,
row by row, against their scalar references, the fallback reasons `auto` records,
and the committed *device* end state (timelines, cursors, counters),
which the result JSON alone cannot see.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReplayConfig
from repro.errors import ReplayError
from repro.replay.session import ReplaySession, replay_trace
from repro.sim import kernel
from repro.sim.engine import Simulator
from repro.sim.kernel import (
    _chain_scalar,
    _lindley_scalar,
    _merge_posts,
    _solve_lindley,
    _solve_link_chain,
)
from repro.storage.array import DiskArray, build_hdd_raid5, build_ssd_raid5
from repro.storage.hdd import HardDiskDrive
from repro.storage.raid import RaidLevel
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace, pack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace
from repro.units import SECTOR_BYTES
from repro.workload.parallel import run_grid
from tests.telemetry_view import canon

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Exact solvers vs their scalar references


def _regimes(rng, n):
    """Arrival patterns spanning idle, saturated, and bursty service."""
    submit = np.sort(rng.random(n) * 10.0)
    yield submit, rng.random(n) * 0.01          # mostly idle
    yield submit, rng.random(n) * 10.0          # fully busy
    yield submit, rng.random(n) * 0.5           # mixed
    burst = np.repeat(np.arange(n // 4 + 1) * 3.0, 4)[:n]
    yield burst, rng.random(n) * 0.4            # tied submits, idle gaps


def _assert_lindley_rows(submit, sv, prev):
    """Every row of the ``(P, n)`` solve equals the scalar recurrence."""
    got = _solve_lindley(submit, sv, prev)
    assert got.shape == submit.shape
    for i, row in enumerate(submit):
        expect = _lindley_scalar(row, sv if sv.ndim == 1 else sv[i], prev)
        assert np.array_equal(got[i], expect), f"row {i}"


def _assert_chain_rows(t, c, p, prev):
    gd, gl = _solve_link_chain(t, c, p, prev)
    assert gd.shape == gl.shape == t.shape
    for i, row in enumerate(t):
        ed, el = _chain_scalar(row, c, p, prev)
        assert np.array_equal(gd[i], ed), f"row {i}"
        assert np.array_equal(gl[i], el), f"row {i}"


class TestLindleySolver:
    @pytest.mark.parametrize("seed", [1, 7, 19, 83])
    @pytest.mark.parametrize("prev", [_NEG_INF, 2.5])
    def test_bit_identical_to_scalar_reference(self, seed, prev):
        rng = np.random.default_rng(seed)
        regimes = list(_regimes(rng, 257))
        for submit, sv in regimes:
            _assert_lindley_rows(submit[None, :], sv, prev)
        # The four regimes as rows of one call, each with its own
        # service times.
        _assert_lindley_rows(
            np.stack([t for t, _ in regimes]),
            np.stack([sv for _, sv in regimes]),
            prev,
        )

    def test_empty_and_singleton(self):
        empty = np.empty((1, 0), dtype=np.float64)
        assert _solve_lindley(empty, empty[0]).shape == (1, 0)
        _assert_lindley_rows(np.array([[3.0]]), np.array([0.25]), 5.0)


class TestLinkChainSolver:
    @pytest.mark.parametrize("seed", [2, 11, 31])
    @pytest.mark.parametrize("prev", [_NEG_INF, 1.0])
    def test_bit_identical_to_scalar_reference(self, seed, prev):
        rng = np.random.default_rng(seed)
        for t, p in _regimes(rng, 193):
            _assert_chain_rows(t[None, :], 5e-5, p * 1e-3, prev)


def _ragged_rows(n):
    """Rows that take every path of the solvers at once.

    With a finite ``prev`` (the server busy until then) and service
    ``0.01``: an idle row, a saturated row, a row of ``n`` one-request
    busy runs whose first ~20 merge into the busy period ``prev`` leaves
    (repair waves when ``n`` reaches the offset sweep), and a
    late-ending row followed by an early-starting one — the second
    row's start must not chain from the first row's tail.
    """
    k = np.arange(n, dtype=np.float64)
    half = k < n // 2
    return np.stack(
        [
            100.0 + k,                                  # idle
            k * 1e-3,                                   # saturated
            k,                                          # merging runs
            np.where(half, k, 990.0 + k * 1e-4),        # late busy tail
            np.where(half, k * 5e-3, 50.0 + k),         # early busy head
        ]
    )


def _rounding_heads_row(sv, step):
    """Arrivals that alternate between one ulp after the running finish
    (an idle restart) and a tie with the previous arrival (a queued
    request), where ``finish = step(start, sv_k)``.  The arrival-slack
    guess misses some of those restarts to rounding, so the solver needs
    a second refinement pass."""
    submit = np.empty(sv.size)
    cur = 0.5
    for i, s in enumerate(sv.tolist()):
        if i == 0:
            submit[i] = cur
        elif i % 2:
            submit[i] = np.nextafter(cur, np.inf)
        else:
            submit[i] = submit[i - 1]
        cur = step(max(float(submit[i]), cur), s)
    return submit


def _count_calls(monkeypatch, *names):
    """Wrap the named kernel functions to count the calls the solvers
    make to them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*args, _name=name, _fn=getattr(kernel, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernel, name, wrapped)
    return calls


class TestRaggedRows:
    """``(P, n)`` solves whose rows sit in different regimes; each row
    must match its scalar reference bit for bit."""

    @pytest.mark.parametrize("n", [40, 600])
    @pytest.mark.parametrize("per_row_sv", [False, True])
    @pytest.mark.parametrize("prev", [_NEG_INF, 20.0])
    def test_lindley_rows(self, n, per_row_sv, prev):
        submit = _ragged_rows(n)
        sv = np.full(n, 0.01)
        if per_row_sv:
            rng = np.random.default_rng(n)
            sv = 0.01 + rng.random(submit.shape) * 1e-3
        _assert_lindley_rows(submit, sv, prev)

    @pytest.mark.parametrize("n", [40, 600])
    @pytest.mark.parametrize("prev", [_NEG_INF, 20.0])
    def test_link_chain_rows(self, n, prev):
        _assert_chain_rows(_ragged_rows(n), 5e-5, np.full(n, 0.01), prev)

    def test_merging_runs_repair_in_the_sweep(self, monkeypatch):
        """≥256 short busy runs, the first ~20 merging: the offset
        sweep's repair waves resolve them without the sequential loop."""
        def no_loop(*args):
            raise AssertionError("sequential loop used")

        monkeypatch.setattr(kernel, "_eval_lindley_segments_loop", no_loop)
        monkeypatch.setattr(kernel, "_eval_chain_segments_loop", no_loop)
        submit = _ragged_rows(600)[2:]
        f = _solve_lindley(submit, np.full(600, 0.01), 20.0)
        assert f[0, 19] > submit[0, 19] + 0.01  # the merge happened
        _assert_lindley_rows(submit, np.full(600, 0.01), 20.0)
        _assert_chain_rows(submit, 5e-5, np.full(600, 0.01), 20.0)

    def test_merge_chain_past_wave_cap_takes_the_loop(self, monkeypatch):
        """``prev`` keeps the server busy across ~100 one-request runs,
        a merge chain longer than ``_MAX_SWEEP_WAVES``."""
        calls = _count_calls(
            monkeypatch, "_eval_lindley_segments_loop",
            "_eval_chain_segments_loop",
        )
        submit = _ragged_rows(600)
        assert 100 > kernel._MAX_SWEEP_WAVES
        _assert_lindley_rows(submit, np.full(600, 0.01), 100.0)
        _assert_chain_rows(submit, 5e-5, np.full(600, 0.01), 100.0)
        assert all(calls.values())

    def test_pass_cap_takes_the_scalar_loop(self, monkeypatch):
        """A row whose heads need a second refinement pass, under a
        one-pass cap, goes to the scalar recurrence; its neighbour
        converges in one pass and stays on the segmented path."""
        rng = np.random.default_rng(15)
        n = 200
        sv = rng.random(n) * 3.0
        c = 5e-5
        late = _rounding_heads_row(sv, lambda t, s: t + s)
        late_chain = _rounding_heads_row(sv, lambda t, s: (t + c) + s)
        steady = np.cumsum(rng.random(n) * 2.0)
        calls = _count_calls(monkeypatch, "_lindley_scalar", "_chain_scalar")
        monkeypatch.setattr(kernel, "_MAX_PASSES", 1)
        _assert_lindley_rows(np.stack([steady, late]), sv, _NEG_INF)
        _assert_chain_rows(np.stack([steady, late_chain]), c, sv, _NEG_INF)
        assert calls == {"_lindley_scalar": 1, "_chain_scalar": 1}


def _busy_rows(seed, n_rows, width, long_runs, pad, pad_value):
    """``(P, width)`` submit rows made of busy runs: mostly 1-3
    requests each (a few 40-200 long with ``long_runs``), split by idle
    gaps that sometimes fall short, so that runs merge; the last
    ``pad`` columns of every row are ``pad_value``.  Service times are
    per row."""
    rng = np.random.default_rng(seed)
    sv = rng.random((n_rows, width)) * 0.01 + 1e-4
    submit = np.empty((n_rows, width))
    for r in range(n_rows):
        t, k = 0.0, 0
        while k < width:
            run = int(rng.integers(1, 4))
            if long_runs and rng.random() < 0.2:
                run = int(rng.integers(40, 201))
            run = min(run, width - k)
            # Tied submits inside a run; the gap after it is usually
            # longer than the run's service (an idle restart).
            submit[r, k:k + run] = t
            t += float(sv[r, k:k + run].sum()) * rng.choice([0.5, 2.0, 5.0])
            k += run
    if pad:
        submit[:, -pad:] = pad_value
    return submit, sv


class TestScalarBusyRuns:
    """Short busy runs take one float loop, long ones a seeded cumsum
    each, many short ones the offset sweep (:func:`kernel._busy_run_regime`);
    every regime is bit-identical to the scalar recurrence."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 4),
        width=st.integers(1, 400),
        long_runs=st.booleans(),
        pad=st.integers(0, 5),
        pad_value=st.sampled_from([_NEG_INF, np.inf]),
        prev=st.sampled_from(["none", "rows", "late"]),
    )
    def test_both_sides_of_the_crossover(
        self, seed, n_rows, width, long_runs, pad, pad_value, prev
    ):
        pad = min(pad, width - 1)
        submit, sv = _busy_rows(seed, n_rows, width, long_runs, pad, pad_value)
        if prev == "none":
            prev_rows = np.full(n_rows, _NEG_INF)
        else:
            # Per row: the server busy until a point inside (or, "late",
            # past most of) the row, so its first runs merge.
            top = np.nanmax(np.where(np.isfinite(submit), submit, np.nan),
                            axis=1)
            scale = 0.3 if prev == "rows" else 0.9
            jitter = np.random.default_rng(seed).random(n_rows)
            prev_rows = top * scale * jitter
        got = _solve_lindley(submit, sv, prev_rows)
        for i in range(n_rows):
            expect = _lindley_scalar(submit[i], sv[i], float(prev_rows[i]))
            assert np.array_equal(got[i], expect), i
        chain_prev = float(prev_rows[0])
        p = sv[0]
        gd, gl = _solve_link_chain(submit, 5e-5, p, chain_prev)
        for i in range(n_rows):
            ed, el = _chain_scalar(submit[i], 5e-5, p, chain_prev)
            assert np.array_equal(gd[i], ed) and np.array_equal(gl[i], el), i

    @pytest.mark.parametrize(
        "long_runs, width, regime",
        [(False, 60, "scalar"), (True, 400, "cumsum"), (False, 400, "sweep")],
    )
    def test_each_regime_is_taken(self, long_runs, width, regime, monkeypatch):
        """Fixed inputs on each side of the crossover: the evaluators
        take the regime the cost rule names, and match the reference."""
        taken = []
        rule = kernel._busy_run_regime

        def spy(n, heads, sweep=True):
            taken.append(rule(n, heads, sweep))
            return taken[-1]

        monkeypatch.setattr(kernel, "_busy_run_regime", spy)
        seed = {"scalar": 3, "cumsum": 5, "sweep": 8}[regime]
        n_rows = 1 if regime == "cumsum" else 3
        submit, sv = _busy_rows(seed, n_rows, width, long_runs, 2, _NEG_INF)
        _assert_lindley_rows(submit, sv, _NEG_INF)
        assert regime in taken
        taken.clear()
        _assert_chain_rows(submit, 5e-5, sv[0], _NEG_INF)
        assert regime in taken

    def test_crossover_rule(self):
        """Run count against column count: short runs loop, long ones
        cumsum, and enough short ones sweep."""
        rule = kernel._busy_run_regime
        assert rule(40, np.arange(0, 40, 2)) == "scalar"
        assert rule(400, np.arange(0, 400, 100)) == "cumsum"
        assert rule(600, np.arange(0, 600, 2)) == "sweep"
        assert rule(600, np.arange(0, 600, 2), sweep=False) == "scalar"
        limit = kernel._SCALAR_MAX_RUN
        assert rule(limit * 4 - 1, np.arange(4) * limit) == "scalar"
        assert rule(limit * 4, np.arange(4) * limit) == "cumsum"


class TestPostMerge:
    """The RMW fixpoint orders a member by merging its re-sorted post
    writes into its dispatch-ordered fixed rows; the result must be the
    full stable argsort of the member's arrival vector, exactly."""

    @pytest.mark.parametrize("seed", [4, 9, 27])
    def test_equals_full_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        cross_ties = clean_rows = 0
        for _ in range(40):
            k = int(rng.integers(2, 40))
            is_post = rng.random(k) < 0.4
            fixed = np.flatnonzero(~is_post)
            posts = np.flatnonzero(is_post)
            rows = int(rng.integers(1, 4))
            # A coarse grid of instants makes every kind of tie common:
            # fixed/fixed, post/post, and fixed/post (the re-sort branch).
            grid = 8 if rng.random() < 0.5 else 10**6
            fixed_arr = np.sort(
                rng.integers(0, grid, (rows, fixed.size)), axis=1
            ) / 4.0
            post_arr = rng.integers(0, grid, (rows, posts.size)) / 4.0
            order, arrivals = _merge_posts(fixed_arr, post_arr, fixed, posts)
            for i in range(rows):
                a = np.empty(k)
                a[fixed] = fixed_arr[i]
                a[posts] = post_arr[i]
                expect = np.argsort(a, kind="stable")
                assert order[i].tolist() == expect.tolist()
                assert arrivals[i].tolist() == a[expect].tolist()
                if np.intersect1d(fixed_arr[i], post_arr[i]).size:
                    cross_ties += 1
                else:
                    clean_rows += 1
        assert cross_ties and clean_rows

    def test_tied_barriers_fuse_in_calendar_order(self):
        """Two RMW barriers that release at one instant put two flights'
        post writes on member 0 at the same time; the event calendar
        orders them by schedule sequence numbers, which the kernel's
        calendar rank reproduces.  Bunch 2's time was bisected so that
        its barrier lands exactly on bunch 1's; at it and one ulp either
        way the kernel takes the replay and matches the event engine."""
        strip = 128 * 1024 // SECTOR_BYTES
        tied = float.fromhex("0x1.dfe8f29b10bedp-8")

        def trace(t2):
            return pack(
                Trace(
                    [
                        # Keeps member 3 (bunch 1's parity) busy, so
                        # bunch 1's barrier is its parity pre read.
                        Bunch(0.0, [IOPackage(5 * strip, 128 * 1024, READ)]),
                        Bunch(1e-4, [IOPackage(8, 4096, WRITE)]),
                        Bunch(t2, [IOPackage(3 * strip + 8, 4096, WRITE)]),
                    ],
                    label="tied-barriers",
                )
            )

        def hdd_raid5x4():
            return build_hdd_raid5(4)

        result, ties = _tie_counted(trace(tied), hdd_raid5x4, 1.0)
        assert result.metadata["engine"] == "kernel"
        assert ties == 1
        for t2 in (tied, np.nextafter(tied, 0.0), np.nextafter(tied, 1.0)):
            _assert_matches_event(trace(float(t2)), hdd_raid5x4, 1.0)


def _tie_counted(trace, factory, load):
    """An ``auto`` replay and the tie groups it put in calendar order."""
    from repro.telemetry import enabled_telemetry

    with enabled_telemetry() as reg:
        mark = reg.mark()
        result = replay_trace(trace, factory(), load, engine="auto")
        counters = reg.collect(since=mark)["counters"]
    return result, counters.get("sim.kernel.tie_groups", 0)


def _assert_matches_event(trace, factory, load):
    """The ``auto`` replay runs on the kernel and equals the event
    engine: result, completion record order, member timelines and
    interval frames."""
    config = ReplayConfig()
    fast, fast_cap = _capture_run(trace, factory, load, config, "auto", 0.01)
    slow, slow_cap = _capture_run(trace, factory, load, config, "event", 0.01)
    assert fast.metadata["engine"] == "kernel"
    assert "engine_fallback" not in fast.metadata
    assert fast.metadata["interval_frames"]
    assert canon(fast, engine_neutral=True) == canon(slow, engine_neutral=True)
    assert fast_cap == slow_cap


def _paper_sweep_trace(draw, factory, mode):
    """One ``paper-sweep`` benchmark trace: ``draw`` is the seed it drew
    for it (seed 1 draws 2037209175 for its last, SSD random-read
    trace; seed 3 draws 389477915 for its first SSD, mixed trace)."""
    from repro.config import WorkloadMode
    from repro.workload.matrix import collect_trace

    return pack(collect_trace(factory, WorkloadMode(*mode), 0.25, seed=draw))


def _ssd_raid5x4():
    from repro.storage.array import build_ssd_raid5

    return build_ssd_raid5(4)


#: ``paper-sweep``'s SSD RAID-5 traces with exact ties: 4 KiB random
#: reads (flight completion ties) and 4 KiB half-random half-read
#: (completion and post write ties whose calendar order is not flight
#: order).
_SSD_READS = (2037209175, (4096, 1.0, 1.0))
_SSD_MIXED = (389477915, (4096, 0.5, 0.5))


class TestCalendarTies:
    """SSD service times are deterministic, so an SSD RAID-5 replay
    meets exact ties; the kernel orders them as the event calendar
    does (``_Calendar``) instead of refusing them."""

    def test_tied_flight_completions_match_event(self):
        """The plain (read-only) path: flight completions tie."""
        trace = _paper_sweep_trace(_SSD_READS[0], _ssd_raid5x4, _SSD_READS[1])
        _, ties = _tie_counted(trace, _ssd_raid5x4, 0.7)
        assert ties > 0
        _assert_matches_event(trace, _ssd_raid5x4, 0.7)

    def test_completion_order_is_the_calendars(self, monkeypatch):
        """Here flight (stable) order is not the calendar's: without
        the rank the monitor would sum tied responses in another order."""
        trace = _paper_sweep_trace(_SSD_MIXED[0], _ssd_raid5x4, _SSD_MIXED[1])
        _assert_matches_event(trace, _ssd_raid5x4, 0.5)
        monkeypatch.setattr(
            kernel, "_order_tied_completions", lambda *args: 0
        )
        stable = replay_trace(trace, _ssd_raid5x4(), 0.5, engine="kernel")
        event = replay_trace(trace, _ssd_raid5x4(), 0.5, engine="event")
        assert canon(stable, True) != canon(event, True)

    def test_post_ties_against_flight_order_are_solved_again(
        self, monkeypatch
    ):
        """A window that froze tied posts against calendar order is
        served again from an earlier window start, inside the one
        solve; the check after the solve re-solves what it misses."""
        trace = _paper_sweep_trace(_SSD_MIXED[0], _ssd_raid5x4, _SSD_MIXED[1])
        ranks, backs = [], []
        solve = kernel._solve_two_phase
        window_order = kernel._window_tie_order

        def spy(exp, rows, plans, dispatch, rank=None):
            ranks.append(rank)
            return solve(exp, rows, plans, dispatch, rank)

        def spy_order(*args):
            got = window_order(*args)
            backs.append(got[1])
            return got

        monkeypatch.setattr(kernel, "_solve_two_phase", spy)
        monkeypatch.setattr(kernel, "_window_tie_order", spy_order)
        _assert_matches_event(trace, _ssd_raid5x4, 0.7)
        assert ranks == [None] and any(backs)
        # Without the window check the solve ends in flight order, and
        # the check after it solves the row again.
        ranks.clear()
        monkeypatch.setattr(
            kernel, "_window_tie_order", lambda *args: (args[6], {})
        )
        _assert_matches_event(trace, _ssd_raid5x4, 0.7)
        assert ranks[0] is None and ranks[1] is not None
        # Solved once, in flight order, the row would be wrong.
        monkeypatch.setattr(
            kernel, "_post_tie_groups", lambda *args: ({}, set())
        )
        config = ReplayConfig()
        once = _capture_run(trace, _ssd_raid5x4, 0.7, config, "kernel")
        event = _capture_run(trace, _ssd_raid5x4, 0.7, config, "event")
        assert once[1] != event[1]

    def test_deep_tie_chain_is_refused(self, monkeypatch):
        monkeypatch.setattr(kernel, "_MAX_TIE_DEPTH", 0)
        trace = _paper_sweep_trace(_SSD_READS[0], _ssd_raid5x4, _SSD_READS[1])
        result = replay_trace(trace, _ssd_raid5x4(), 0.7, engine="auto")
        assert result.metadata["engine"] == "event"
        assert (
            result.metadata["engine_fallback"]
            == "calendar tie order nests too deep"
        )

    def test_telemetry_changes_neither_engine_nor_result(self):
        from repro.telemetry import enabled_telemetry

        trace = _paper_sweep_trace(_SSD_READS[0], _ssd_raid5x4, _SSD_READS[1])
        plain = replay_trace(trace, _ssd_raid5x4(), 0.7, engine="auto")
        with enabled_telemetry():
            traced = replay_trace(trace, _ssd_raid5x4(), 0.7, engine="auto")
        assert plain.metadata["engine"] == traced.metadata["engine"] == "kernel"
        # Registry only: the result's own snapshot leaves it out.
        assert "sim.kernel.tie_groups" not in str(traced.metadata["telemetry"])
        for result in (plain, traced):
            result.metadata.pop("telemetry", None)
        assert canon(plain) == canon(traced)

    def test_tied_post_arrival_is_queued_as_on_the_event_engine(self):
        """A post write arriving at the instant its member's previous
        request finishes waits for nothing, but when its barrier's
        completion runs first the event engine pushes it (and pops it at
        once).  The kernel counts that push too: alone and as a grid
        cell, every non-``sim.*`` instrument equals the event engine's."""
        from repro.config import WorkloadMode
        from repro.telemetry import enabled_telemetry
        from repro.workload.matrix import collect_trace
        from tests.telemetry_view import telemetry_view

        trace = pack(collect_trace(
            _ssd_raid5x4, WorkloadMode(4096, 0.5, 0.5), 0.25, seed=11
        ))
        views = []
        with enabled_telemetry():
            event = replay_trace(trace, _ssd_raid5x4(), 1.0, engine="event")
        with enabled_telemetry():
            alone = replay_trace(trace, _ssd_raid5x4(), 1.0, engine="auto")
        with enabled_telemetry():
            [cell] = run_grid(
                {"t": trace}, {"d": _ssd_raid5x4}, loads=(1.0,),
                engine="auto", parallel=False,
            ).cells
        assert alone.metadata["engine"] == cell.engine == "kernel"
        for result in (event, alone, cell.result):
            views.append(telemetry_view(result.metadata["telemetry"]))
        pushed = "queue.pushed_total{device=ssd-raid5-d0}"
        assert views[0]["gauges"][pushed] == 169
        assert views[1] == views[0]
        assert views[2] == views[0]


# ---------------------------------------------------------------------------
# RAID-5 read-modify-write fixpoint in sliding windows


def _search_grid_trace(seed):
    """The ``search-grid`` benchmark's read70 trace: 3000 bunches of three
    64 KiB packages anywhere in 2 GiB, Poisson arrivals (mean 4 ms), 30%
    writes — drawn after its read100 twin, as the benchmark draws it."""
    rng = np.random.default_rng(seed)
    for read_frac in (1.0, 0.7):
        offsets = np.arange(3001, dtype=np.int64) * 3
        packages = np.empty(9000, dtype=PACKED_PACKAGE_DTYPE)
        packages["sector"] = rng.integers(0, 1 << 22, 9000)
        packages["nbytes"] = 65536
        packages["op"] = (rng.random(9000) >= read_frac).astype(np.int64)
        timestamps = np.cumsum(rng.exponential(0.004, 3000))
    return PackedTrace(timestamps, offsets, packages, label="read70")


def _chain_trace(n=120, gap=0.008):
    """Sub-stripe writes to one stripe, each arriving while the last
    one's read-modify-write is in flight: every barrier waits on the
    post writes of the flight before it."""
    return pack(
        Trace(
            [
                Bunch(i * gap, [IOPackage(8 + (i % 2) * 8, 4096, WRITE)])
                for i in range(n)
            ],
            label="rmw-chain",
        )
    )


class _Windows:
    """Records each RMW window a solve runs: ``[lo, hi, passes]``.

    A window serves every member at once, once per pass;
    :func:`kernel._next_window` closes it.
    """

    def __init__(self, monkeypatch):
        self.log = []
        self._serves = 0
        spy = self

        class Spy(kernel._Window):
            def serve(self, *args):
                spy._serves += 1
                return super().serve(*args)

        close = kernel._next_window

        def next_window(lo, hi, cut, peak, n):
            self.log.append([lo, hi, self._serves])
            self._serves = 0
            return close(lo, hi, cut, peak, n)

        monkeypatch.setattr(kernel, "_Window", Spy)
        monkeypatch.setattr(kernel, "_next_window", next_window)


def _unbounded(monkeypatch):
    """Lift the RMW solve's event-cost bound, so a crawling chain slides
    to its end on the kernel."""
    monkeypatch.setattr(kernel, "_EVENT_WORK_PER_SUBIO", float("inf"))


def _rmw_counters(trace, factory, load, config):
    """A kernel replay's RMW counters, and the replay."""
    from repro.telemetry import enabled_telemetry

    with enabled_telemetry() as reg:
        mark = reg.mark()
        result = replay_trace(trace, factory(), load, config=config,
                              engine="kernel")
        counters = reg.collect(since=mark)["counters"]
    return (
        counters["sim.kernel.rmw_passes"], counters["sim.kernel.rmw_windows"],
        result,
    )


def _capture_run(trace, factory, load, config, engine, stream_interval=0.5):
    from repro.replay.capture import CaptureSink

    sink = CaptureSink()
    result = replay_trace(
        trace, factory(), load, config=config, engine=engine,
        stream_interval=stream_interval, capture=sink,
    )
    cap = sink.capture
    members = [
        (m.name, m.starts.tolist(), m.ends.tolist(), m.watts.tolist())
        for m in cap.members
    ]
    return result, (cap.finishes.tolist(), cap.responses.tolist(), members)


def _barriers(trace, factory):
    """Per flight: does it barrier (has pre reads)?"""
    return kernel._prepare_plane(trace, factory()).exp.pre_counts > 0


def _hdd_raid5x6():
    return build_hdd_raid5(6)


def _small_writes(seed, n, gap, region=1 << 22):
    """``n`` bunches of one 4-16 KiB request (70% writes) in the first
    ``region`` sectors, Poisson arrivals with mean ``gap``."""
    rng = np.random.default_rng(seed)
    packages = np.empty(n, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, region // 8 - 4, n) * 8
    packages["nbytes"] = rng.choice([4096, 16384], n)
    packages["op"] = rng.random(n) < 0.7
    return PackedTrace(
        np.cumsum(rng.exponential(gap, n)), np.arange(n + 1), packages,
        label="small-writes",
    )


def _member_reference(m, r, lo, hi, dispatch, barrier, resumed):
    """One member's pass over window ``[lo, hi)`` for cell ``r``, on its
    own: its carried posts and the window's local rows by stable
    arrival order, priced by its own plan from its own cursor, queued
    from its own ``prev``."""
    k = m.rows.size
    a, b = m.start(lo), m.start(hi)
    real = m.carry_loc[r] < k
    own = np.arange(a, b)
    locs = np.concatenate((m.carry_loc[r][real], own))
    arr = np.concatenate((
        m.carry_arr[r][real],
        np.where(
            m.is_post[own], barrier[r, np.maximum(m.post_barrier[own], 0)],
            dispatch[r, m.flight[own]],
        ),
    ))
    order = np.argsort(arr, kind="stable")
    loc, arrivals = locs[order], arr[order]
    after = np.array([m.cursor[r] if resumed else -1])
    seconds = m.plan.seconds(loc[None, :], after)[0]
    fin = _lindley_scalar(
        arrivals, seconds, float(m.prev[r]) if resumed else _NEG_INF
    )
    return loc, arrivals, seconds, fin


class TestStackedPass:
    """One stacked pass serves every member of a window as rows of one
    problem; each member's share must equal that member served alone,
    bit for bit: serving order, arrivals, service seconds, finishes."""

    def _check(self, win, live, lo, hi, dispatch, barrier, resumed):
        n_mem = len(live)
        checked = 0
        for r in range(dispatch.shape[0]):
            for j, m in enumerate(live):
                loc, arrivals, seconds, fin = _member_reference(
                    m, r, lo, hi, dispatch, barrier, resumed
                )
                s = r * n_mem + j
                o = win.order[s]
                got = win._local(o[None, :], np.array([s]))[0]
                w = loc.size
                assert got[:w].tolist() == loc.tolist(), (r, j)
                assert np.all(got[w:] == m.rows.size), (r, j)
                assert win.arrivals[s][:w].tolist() == arrivals.tolist()
                assert win.seconds[s][:w].tolist() == seconds.tolist()
                assert win.col_fin[s][o][:w].tolist() == fin.tolist(), (r, j)
                checked += w
        assert checked

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize(
        "factory, gap",
        [
            (lambda: build_hdd_raid5(6), 0.004),
            (lambda: build_ssd_raid5(4), 0.0002),
        ],
        ids=["hdd-raid5x6", "ssd-raid5x4"],
    )
    def test_equals_each_member_alone(
        self, factory, gap, one_row_blocks, monkeypatch
    ):
        """Rows are served in blocks that mix members (priced by the
        concatenated plan), or, as a large one-cell window is, one row
        at a time (each priced by its member's own plan)."""
        if one_row_blocks:
            monkeypatch.setattr(kernel, "_PASS_BLOCK", 1)
        dev = factory()
        # A warm-up replay leaves every member at its own cursors, so
        # each stacked row must start from its own member's state.
        replay_trace(_small_writes(7, 30, gap), dev, 1.0, engine="event")
        trace = _small_writes(11, 120, gap)
        plane = kernel._prepare_plane(trace, dev)
        exp = plane.exp
        times = np.repeat(trace.timestamps, np.diff(trace.offsets))
        dispatch = np.stack([times, times * 0.5, times * 2.0])
        if one_row_blocks:
            dispatch = dispatch[:1]
        n_rows, n = dispatch.shape
        members, bar_at, width = kernel._rmw_members(
            exp, [m.rows for m in plane.members],
            [m.plan for m in plane.members], n_rows,
        )
        live = [m for m in members if m is not None]
        sizes = {m.rows.size for m in live}
        assert len(live) == len(dev.disks) and len(sizes) > 1  # unequal
        plan = type(live[0].plan).stack([m.plan for m in live])
        n_bar = int(bar_at[-1])
        # Posts released a little after dispatch, so they interleave
        # with later flights' requests.
        rng = np.random.default_rng(3)
        barrier = dispatch[:, exp.pre_counts > 0]
        barrier = barrier + rng.random((n_rows, n_bar)) * 0.05
        every = np.arange(n_rows)

        win = kernel._Window(
            live, lambda: plan, every, 0, n, dispatch, (0, n_bar), 0
        )
        pre_fin = np.full((n_rows, n_bar * width), _NEG_INF)
        win.serve(every, barrier, pre_fin, True)
        self._check(win, live, 0, n, dispatch, barrier, False)

        # Freeze the first half and resume: each row now starts from its
        # member's frozen finish, plan cursor and carried posts.
        cut = n // 2
        win.freeze(every, cut, dispatch)
        assert any(np.any(m.carry_loc < m.rows.size) for m in live)
        assert all(np.all(np.isfinite(m.prev)) for m in live)
        assert all(np.any(m.cursor >= 0) for m in live)
        b0 = int(bar_at[cut])
        again = kernel._Window(
            live, lambda: plan, every, cut, n, dispatch, (b0, n_bar),
            b0 * width,
        )
        pre_fin = np.full((n_rows, (n_bar - b0) * width), _NEG_INF)
        again.serve(every, barrier, pre_fin, True)
        self._check(again, live, cut, n, dispatch, barrier, True)

    def test_mixed_members_take_the_generic_stack(self):
        """Members of different models cannot concatenate: the generic
        stack prices each member's rows with its own plan, and a RAID-5
        array of HDDs and SSDs replays bit-identically to the event
        engine."""
        def mixed():
            disks = [HardDiskDrive(f"h{i}", _HDD_SPEC) for i in range(2)]
            disks += [SolidStateDrive(f"s{i}") for i in range(2)]
            return DiskArray(disks, RaidLevel.RAID5, name="mixed")

        trace = _small_writes(5, 80, 0.002, region=1 << 16)
        plane = kernel._prepare_plane(trace, mixed())
        plans = [m.plan for m in plane.members]
        assert type(type(plans[0]).stack(plans)).__name__ == "_PlanStack"
        auto = replay_trace(trace, mixed(), 1.0, engine="auto")
        event = replay_trace(trace, mixed(), 1.0, engine="event")
        assert auto.metadata["engine"] == "kernel"
        assert canon(auto, engine_neutral=True) == \
            canon(event, engine_neutral=True)


class TestRmwWindows:
    """The RMW fixpoint has no pass cap: it slides a window behind the
    causality frontier, and every window ends within its barriers + 1
    passes."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_search_grid_fallback_cell_fuses(self, seed, monkeypatch):
        """read70 on HDD RAID-5 x6 at load 1.0 x time scale 0.5 needs
        56-66 whole-trace passes; it used to run out of passes and
        replay on the event engine.  It now fuses, per point and in the
        grid, bit-identical to the event engine: results, interval
        frames, completion order and member schedules."""
        trace = _search_grid_trace(seed)
        config = ReplayConfig(sampling_cycle=1000.0, time_scale=0.5)
        windows = _Windows(monkeypatch)
        auto, auto_cap = _capture_run(
            trace, _hdd_raid5x6, 1.0, config, "auto"
        )
        event, event_cap = _capture_run(
            trace, _hdd_raid5x6, 1.0, config, "event"
        )
        assert auto.metadata["engine"] == "kernel"
        assert "engine_fallback" not in auto.metadata
        assert canon(auto, engine_neutral=True) == \
            canon(event, engine_neutral=True)
        assert auto.metadata["interval_frames"] == \
            event.metadata["interval_frames"]
        assert auto_cap == event_cap

        # Windows slid, each within its barriers + 1 passes.
        log = windows.log
        assert len(log) > 1 and log[0][:2] == [0, 9000]
        barriers = _barriers(trace, _hdd_raid5x6)
        for lo, hi, passes in log:
            assert passes <= int(barriers[lo:hi].sum()) + 1, (lo, hi)

        grid = run_grid(
            {"t": trace}, {"d": _hdd_raid5x6}, loads=(1.0,),
            time_scales=(0.5, 1.0), config=ReplayConfig(sampling_cycle=1000.0),
            engine="auto", parallel=False, stream_interval=0.5,
        )
        assert grid.fused_cells == 2
        assert canon(grid.cells[0].result, engine_neutral=True) == \
            canon(event, engine_neutral=True)

    def test_counters_report_each_window(self, monkeypatch):
        """``sim.kernel.rmw_passes`` / ``rmw_windows`` count what the
        solve did, and every window's passes stay within its barrier
        flights + 1."""
        _unbounded(monkeypatch)
        trace = _chain_trace()
        windows = _Windows(monkeypatch)
        passes, count, _ = _rmw_counters(trace, _raid5, 1.0, None)
        barriers = _barriers(trace, _raid5)
        assert count == len(windows.log) > 1
        assert passes == sum(p for _, _, p in windows.log)
        for lo, hi, p in windows.log:
            assert p <= int(barriers[lo:hi].sum()) + 1, (lo, hi)

    def test_counters_stay_out_of_the_result(self, monkeypatch):
        """The counters go to the registry only: the result's telemetry
        is the event engine's, so digests do not move."""
        from repro.telemetry import enabled_telemetry

        _unbounded(monkeypatch)
        trace = _chain_trace()
        with enabled_telemetry():
            kernel_run = replay_trace(trace, _raid5(), 1.0, engine="kernel")
        with enabled_telemetry():
            event_run = replay_trace(trace, _raid5(), 1.0, engine="event")
        counters = kernel_run.metadata["telemetry"]["counters"]
        assert not any(k.startswith("sim.kernel") for k in counters)
        assert canon(kernel_run, engine_neutral=True) == \
            canon(event_run, engine_neutral=True)

    @pytest.mark.parametrize("forced", [False, True])
    def test_long_dependency_chain_matches_event(self, forced, monkeypatch):
        """Every barrier of the chain waits on the flight before it, so
        the frontier crawls and the solve slides (the cost bound lifted).
        Forced down to one-flight windows after the whole-trace window —
        the exact sequential path, the sizing rule's floor — it still
        matches the event engine bit for bit, each window within two
        passes."""
        _unbounded(monkeypatch)
        if forced:
            monkeypatch.setattr(
                kernel, "_next_window",
                lambda lo, hi, cut, peak, n: min(n, cut + 1),
            )
        windows = _Windows(monkeypatch)
        trace = _chain_trace()
        auto, auto_cap = _capture_run(trace, _raid5, 1.0, None, "auto")
        event, event_cap = _capture_run(trace, _raid5, 1.0, None, "event")
        assert auto.metadata["engine"] == "kernel"
        assert canon(auto, engine_neutral=True) == \
            canon(event, engine_neutral=True)
        assert auto_cap == event_cap
        barriers = _barriers(trace, _raid5)
        log = windows.log
        assert len(log) > 1 and log[0][:2] == [0, 120]
        for lo, hi, passes in log:
            assert passes <= int(barriers[lo:hi].sum()) + 1, (lo, hi)
        if forced:
            assert all(hi - lo == 1 for lo, hi, _ in log[1:])
            assert len(log) > 60

    def test_single_flight_windows_end_the_same_device_state(self, monkeypatch):
        """Carrying ``prev`` and the service-plan cursor across every cut
        leaves the member disks exactly where the event engine does."""
        _unbounded(monkeypatch)
        monkeypatch.setattr(
            kernel, "_next_window",
            lambda lo, hi, cut, peak, n: min(n, cut + 1),
        )
        trace = _chain_trace()

        def run(engine):
            dev = _raid5()
            replay_trace(trace, dev, 1.0, engine=engine)
            return _end_state(dev)

        assert run("kernel") == run("event")

    def test_crawling_chain_is_refused_within_its_budget(self, monkeypatch):
        """A chain crawls a few flights per pass, and its small windows
        cost more than an event replay: at a window's end the pace of
        its windows shows it, the solve stops and the replay falls back,
        bit-identical."""
        trace = _chain_trace(n=400)
        windows = _Windows(monkeypatch)
        auto = replay_trace(trace, _raid5(), 1.0, engine="auto")
        event = replay_trace(trace, _raid5(), 1.0, engine="event")
        reason = "rmw fixpoint costs more than an event replay"
        assert auto.metadata["engine"] == "event"
        assert reason in auto.metadata["engine_fallback"]
        assert canon(auto, engine_neutral=True) == \
            canon(event, engine_neutral=True)
        with pytest.raises(ReplayError, match=reason):
            replay_trace(trace, _raid5(), 1.0, engine="kernel")

        # It stopped well short of where the unbounded solve ends.
        log = windows.log[:len(windows.log) // 2]  # the auto run's windows
        assert log[0][:2] == [0, 400]
        _unbounded(monkeypatch)
        passes, _, lifted = _rmw_counters(trace, _raid5, 1.0, None)
        assert lifted.metadata["engine"] == "kernel"
        assert sum(p for _, _, p in log) < passes


# ---------------------------------------------------------------------------
# Qualification and fallback reasons


def _grid_trace(n=24, op=READ, fan=2):
    bunches = [
        Bunch(
            i / 32,
            [IOPackage(64 * (i * fan + j), 4096, op) for j in range(fan)],
        )
        for i in range(n)
    ]
    return Trace(bunches, label="kernel-unit")


def _hdd():
    spec = dataclasses.replace(SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024)
    return HardDiskDrive("k-hdd", spec)


def _ssd():
    return SolidStateDrive("k-ssd")


_HDD_SPEC = dataclasses.replace(
    SEAGATE_7200_12, capacity_bytes=16 * 1024 * 1024
)


def _raid5():
    return DiskArray(
        [HardDiskDrive(f"k{i}", _HDD_SPEC) for i in range(4)],
        RaidLevel.RAID5,
        name="k-raid5",
    )


class TestFallbackReasons:
    def test_object_trace_takes_the_kernel(self):
        """An object trace is packed at entry: ``auto`` runs it on the
        kernel, bit-identical to ``engine="event"``."""
        auto = replay_trace(_grid_trace(), _hdd(), 1.0, engine="auto")
        event = replay_trace(_grid_trace(), _hdd(), 1.0, engine="event")
        assert auto.metadata["engine"] == "kernel"
        assert "engine_fallback" not in auto.metadata
        assert event.metadata["engine"] == "event"
        assert canon(auto, engine_neutral=True) == \
            canon(event, engine_neutral=True)

    def test_telemetry_keeps_the_kernel(self):
        """Instrumentation observes the kernel's replay; it never sends
        the run to the event engine."""
        from repro.telemetry import enabled_telemetry

        with enabled_telemetry():
            result = replay_trace(
                pack(_grid_trace()), _hdd(), 1.0, engine="auto"
            )
        assert result.metadata["engine"] == "kernel"
        assert "engine_fallback" not in result.metadata
        counters = result.metadata["telemetry"]["counters"]
        assert counters["replay.packages_completed"] == 48
        assert counters["device.completions{device=k-hdd}"] == 48

    def test_faults_block_the_kernel(self):
        from repro.errors import ReplayError
        from repro.faults.schedule import FaultSchedule

        schedule = FaultSchedule.generate(
            3, duration=1.0, n_members=4, sector_error_count=1
        )
        with pytest.raises(ReplayError, match="does not qualify"):
            replay_trace(
                pack(_grid_trace()), _raid5(), 1.0,
                engine="kernel", faults=schedule,
            )

    def test_raid5_writes_take_the_kernel(self):
        result = replay_trace(
            pack(_grid_trace(op=WRITE)), _raid5(), 1.0, engine="auto"
        )
        assert result.metadata["engine"] == "kernel"
        assert "engine_fallback" not in result.metadata

    def test_degraded_raid5_reports_the_structural_reason(self):
        """Satellite: qualification checks run in a documented order —
        array-level structure before member probes — so a degraded
        RAID-5 with a *non-write* trace still names the degradation, not
        whichever member check happens to fire."""
        from repro.sim.kernel import _qualify_device

        device = _raid5()
        device.fail_disk(0)
        result = replay_trace(
            pack(_grid_trace(op=READ)), device, 1.0, engine="auto"
        )
        assert result.metadata["engine"] == "event"
        assert (
            result.metadata["engine_fallback"] == "array degraded or rebuilding"
        )
        # With a member perturbed *too*, the array-level reason wins —
        # structure is checked before any member probe.
        device.disks[2]._busy = True
        assert _qualify_device(device) == "array degraded or rebuilding"

    def test_member_reasons_report_in_disk_index_order(self):
        from repro.sim.kernel import _qualify_device

        device = _raid5()
        device.disks[1]._busy = True
        device.disks[3]._busy = True
        reason = _qualify_device(device)
        assert reason == "k1: device busy at replay start"

    def test_unsorted_timestamps_fall_back(self):
        packed = pack(_grid_trace())
        ts = packed.timestamps.copy()
        ts[2], ts[3] = ts[3], ts[2]
        shuffled = PackedTrace(
            ts, packed.offsets, packed.packages, label="x", validate=False
        )
        result = replay_trace(shuffled, _hdd(), 1.0, engine="auto")
        assert result.metadata["engine"] == "event"

    def test_kernel_runs_qualifying_cells(self):
        for factory in (_hdd, _ssd, _raid5):
            result = replay_trace(
                pack(_grid_trace()), factory(), 1.0, engine="kernel"
            )
            assert result.metadata["engine"] == "kernel"
            assert result.completed == 48

    def test_engine_validated_at_config(self):
        from repro.config import ReplayConfig

        with pytest.raises(Exception):
            ReplayConfig(engine="warp")


# ---------------------------------------------------------------------------
# Committed device end state: kernel ≡ event beyond the result JSON


def _queued_state(dev):
    state = {
        "completed": dev.completed_count,
        "high_water": dev.queued_high_water,
        "pushed": dev._queue.pushed_total,
        "popped": dev._queue.popped_total,
        "timeline": tuple(col.tolist() for col in dev.timeline.segments()),
    }
    if isinstance(dev, HardDiskDrive):
        state["cursors"] = (
            dev._head_sector, dev._last_end_sector, dev._last_op,
            dev.seek_count,
        )
    else:
        state["cursors"] = (
            dev._last_read_end, dev._last_write_end, dev.random_write_count,
        )
    return state


def _end_state(dev):
    if isinstance(dev, DiskArray):
        return {
            "completed": dev.completed_count,
            "subios": dev.subio_count,
            "link_busy": dev._link_busy_until,
            "members": [_queued_state(m) for m in dev.disks],
        }
    return _queued_state(dev)


class TestDeviceEndStateParity:
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid5])
    def test_end_state_bit_identical(self, factory):
        packed = pack(_grid_trace(n=40, fan=3))

        def run(engine):
            dev = factory()
            replay_trace(packed, dev, 1.0, engine=engine)
            return _end_state(dev)

        assert run("kernel") == run("event")

    @pytest.mark.parametrize("op", [WRITE, None])
    def test_raid5_write_end_state_bit_identical(self, op):
        """Two-phase RMW commits: member cursors, seek counts, queue
        counters, and power segments all match the event path exactly
        (``op=None`` interleaves reads and writes)."""
        if op is None:
            bunches = [
                Bunch(
                    i / 32,
                    [
                        IOPackage(
                            64 * (i * 3 + j), 4096,
                            WRITE if (i + j) % 2 else READ,
                        )
                        for j in range(3)
                    ],
                )
                for i in range(40)
            ]
            packed = pack(Trace(bunches, label="kernel-unit"))
        else:
            packed = pack(_grid_trace(n=40, op=op, fan=3))

        def run(engine):
            dev = _raid5()
            replay_trace(packed, dev, 1.0, engine=engine)
            return _end_state(dev)

        assert run("kernel") == run("event")

    @pytest.mark.parametrize("op", [READ, WRITE])
    @pytest.mark.parametrize("factory", [_hdd, _ssd, _raid5])
    def test_back_to_back_replays_on_one_device(self, factory, op):
        """A second replay on the same simulator and device starts from
        live state — ``sim.now > 0``, moved cursors, a non-empty power
        timeline and, on arrays, a used link — that a fresh device (and
        every fused grid cell) never shows."""
        packed = pack(_grid_trace(n=40, op=op, fan=3))

        def run(engine):
            dev = factory()
            sim = Simulator()
            session = ReplaySession(dev, config=ReplayConfig(engine=engine))
            results = [session.run(packed, 1.0, sim=sim) for _ in range(2)]
            return results, _end_state(dev)

        (k1, k2), kernel_state = run("auto")
        (e1, e2), event_state = run("event")
        assert k2.metadata["engine"] == "kernel"
        assert k2.duration > 0 and k2.perf_samples[0].start > 0
        for kernel_result, event_result in ((k1, e1), (k2, e2)):
            assert canon(kernel_result, engine_neutral=True) == \
                canon(event_result, engine_neutral=True)
        assert kernel_state == event_state

"""Property-based tests: power timeline energy accounting."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.energysaving.policy import PowerProgram
from repro.power.model import EnergyMeter, PowerTimeline


@st.composite
def timelines(draw):
    baseline = draw(st.floats(min_value=0.0, max_value=50.0))
    tl = PowerTimeline(baseline)
    cursor = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        gap = draw(st.floats(min_value=0.0, max_value=2.0))
        length = draw(st.floats(min_value=0.001, max_value=2.0))
        watts = draw(st.floats(min_value=0.0, max_value=100.0))
        tl.add_segment(cursor + gap, cursor + gap + length, watts)
        cursor += gap + length
    return tl, cursor, baseline


windows = st.floats(min_value=0.0, max_value=60.0)


class TestEnergyProperties:
    @given(timelines(), windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_energy_non_negative(self, tl_info, a, b):
        tl, _, _ = tl_info
        t0, t1 = min(a, b), max(a, b)
        assert tl.energy_between(t0, t1) >= -1e-9

    @given(timelines(), windows, windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_energy_additive_over_splits(self, tl_info, a, b, c):
        tl, _, _ = tl_info
        t0, t1, t2 = sorted([a, b, c])
        whole = tl.energy_between(t0, t2)
        parts = tl.energy_between(t0, t1) + tl.energy_between(t1, t2)
        assert abs(whole - parts) < 1e-6 * max(1.0, abs(whole))

    @given(timelines(), windows, windows)
    @settings(max_examples=150, deadline=None)
    def test_mean_power_within_envelope(self, tl_info, a, b):
        tl, _, baseline = tl_info
        t0, t1 = min(a, b), max(a, b)
        if t1 <= t0:
            return
        mean = tl.mean_power(t0, t1)
        assert mean >= -1e-9
        assert mean <= max(baseline, 100.0) + 1e-6

    def test_mean_power_over_epsilon_window_is_instantaneous(self):
        # Regression: a window at float resolution used to divide the
        # prefix-sum cancellation error (~1 ULP of the cumulative
        # excess) by ~2.2e-16, yielding watts-scale garbage (observed:
        # mean_power(0.0, 2.2e-16) == -1.0 on a 3 W baseline).  Such
        # windows now report the instantaneous power instead.
        import sys

        tl = PowerTimeline(3.0)
        tl.add_segment(0.0, 1.0, 7.0)
        eps = sys.float_info.epsilon
        assert tl.mean_power(0.0, eps) == 7.0  # inside the segment
        assert tl.mean_power(2.0, 2.0 + eps) == 3.0  # idle: baseline
        assert tl.power_at(0.5) == 7.0
        assert tl.power_at(1.5) == 3.0

    @given(timelines())
    @settings(max_examples=100, deadline=None)
    def test_busy_time_bounded_by_window(self, tl_info):
        tl, end, _ = tl_info
        window_end = end + 1.0
        busy = tl.busy_time(0.0, window_end)
        assert -1e-9 <= busy <= window_end + 1e-9


# ---------------------------------------------------------------------------
# The batched query: bit-for-bit the scalar one, for every energy source


def _bits(values) -> list:
    return [float(v).hex() for v in values]


def _scalar(source, t0, t1) -> list:
    return _bits(source.energy_between(a, b) for a, b in zip(t0, t1))


def _batched(source, t0, t1) -> list:
    return _bits(source.energies_between(np.asarray(t0), np.asarray(t1)))


@st.composite
def edged_timelines(draw):
    """A timeline (maybe empty) with zero-length segments that are
    dropped, maybe a multi-level baseline, and its segment edges."""
    tl = PowerTimeline(draw(st.floats(min_value=0.0, max_value=50.0)))
    levels = draw(st.booleans())
    edges = [0.0]
    cursor = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        cursor += draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.7]))
        if levels and draw(st.integers(0, 4)) == 0:
            tl.set_baseline(cursor, draw(st.floats(0.0, 20.0)))
        length = draw(st.sampled_from([0.0, 0.0, 0.125, 0.3, 1.0, 2.5]))
        tl.add_segment(cursor, cursor + length, draw(st.floats(0.0, 100.0)))
        edges += [cursor, cursor + length]
        cursor += length
    return tl, edges


@st.composite
def windows_over(draw, edges):
    """Sorted window pairs whose bounds are segment starts and ends,
    instants before the first or after the last segment, or anywhere."""
    pool = st.one_of(
        st.sampled_from(edges + [-1.0, max(edges) + 3.0]),
        st.floats(min_value=-2.0, max_value=max(edges) + 5.0),
    )
    pairs = draw(st.lists(st.tuples(pool, pool), min_size=0, max_size=40))
    return [min(p) for p in pairs], [max(p) for p in pairs]


class TestBatchedEnergy:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_timeline_batch_equals_scalar(self, data):
        tl, edges = data.draw(edged_timelines())
        t0, t1 = data.draw(windows_over(edges))
        assert _batched(tl, t0, t1) == _scalar(tl, t0, t1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_meter_batch_equals_scalar(self, data):
        timelines = [data.draw(edged_timelines()) for _ in range(3)]
        edges = sum((e for _, e in timelines), [])
        overhead = data.draw(st.floats(min_value=0.0, max_value=40.0))
        meter = EnergyMeter([tl for tl, _ in timelines], overhead)
        t0, t1 = data.draw(windows_over(edges))
        assert _batched(meter, t0, t1) == _scalar(meter, t0, t1)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_program_batch_equals_scalar_and_old_arithmetic(self, data):
        n = data.draw(st.integers(min_value=0, max_value=25))
        lengths = data.draw(st.lists(
            st.sampled_from([-0.5, 0.0, 0.125, 0.4, 1.0, 3.0]),
            min_size=n, max_size=n,
        ))
        gaps = data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.25]), min_size=n, max_size=n
        ))
        starts = np.cumsum(gaps) + np.concatenate(
            ([0.0], np.cumsum(np.clip(lengths, 0.0, None))[:-1])
        ) if n else np.empty(0)
        ends = starts + np.asarray(lengths, dtype=np.float64)
        watts = np.asarray(data.draw(st.lists(
            st.floats(0.0, 30.0), min_size=n, max_size=n
        )), dtype=np.float64)
        program = PowerProgram(starts, ends, watts)
        edges = [0.0] + starts.tolist() + ends.tolist()
        t0, t1 = data.draw(windows_over(edges))
        assert _batched(program, t0, t1) == _scalar(program, t0, t1)
        reference = _old_program_energy(starts, ends, watts)
        assert _scalar(program, t0, t1) == _bits(
            reference(a, b) for a, b in zip(t0, t1)
        )


def _old_program_energy(starts, ends, watts):
    """The arithmetic of the former stand-alone ``PowerProgram``: a
    prefix sum of ``watts * duration`` over the positive-length
    segments, and the tail of the segment a bound falls in."""
    keep = ends > starts
    starts, ends, watts = starts[keep], ends[keep], watts[keep]
    cum = np.concatenate((np.zeros(1), np.cumsum(watts * (ends - starts))))

    def upto(t):
        idx = int(np.searchsorted(starts, t, side="right"))
        total = float(cum[idx])
        if idx > 0 and float(ends[idx - 1]) > t:
            total -= float(watts[idx - 1]) * (float(ends[idx - 1]) - t)
        return total

    return lambda t0, t1: 0.0 if t1 == t0 else upto(t1) - upto(t0)


class TestColumns:
    def test_appends_across_doublings_equal_one_extend(self):
        rng = np.random.default_rng(3)
        durations = rng.random(100)
        starts = np.cumsum(rng.random(100) + durations) - durations
        ends = starts + durations
        watts = rng.random(100) * 10.0
        one = PowerTimeline(4.0)
        one.extend_segments(starts, ends, watts)
        appended = PowerTimeline(4.0)
        for s, e, w in zip(starts.tolist(), ends.tolist(), watts.tolist()):
            appended.add_segment(s, e, w)
        assert appended._starts.shape[0] > 100  # spare capacity exists
        for a, b in zip(one.segments(), appended.segments()):
            assert a.tolist() == b.tolist()
        assert one._cum[:101].tolist() == appended._cum[:101].tolist()
        bounds = np.linspace(-1.0, float(ends[-1]) + 1.0, 50)
        assert _batched(one, bounds[:-1], bounds[1:]) == _batched(
            appended, bounds[:-1], bounds[1:]
        )

    def test_count_and_snapshots_never_expose_spare_capacity(self):
        from repro.replay.capture import snapshot_members
        from repro.storage.ssd import SolidStateDrive

        dev = SolidStateDrive("s")
        for i in range(17):
            dev.timeline.add_segment(float(i), i + 0.5, 3.0)
        assert dev.timeline._starts.shape[0] == 32
        assert dev.timeline.segment_count == 17
        assert all(c.shape == (17,) for c in dev.timeline.segments())
        [profile] = snapshot_members(dev)
        assert profile.starts.shape == profile.ends.shape == (17,)
        assert profile.starts[-1] == 16.0
        # A snapshot is a copy: later appends do not reach it.
        dev.timeline.add_segment(20.0, 21.0, 3.0)
        assert profile.starts.shape == (17,)
        profile.starts[0] = -5.0
        assert dev.timeline.segments()[0][0] == 0.0

    def test_adopted_columns_are_never_written(self):
        starts = np.array([0.0, 1.0])
        ends = np.array([0.5, 1.5])
        watts = np.array([6.0, 6.0])
        tl = PowerTimeline(2.0, (starts, ends, watts))
        fresh = PowerTimeline(2.0)
        fresh.extend_segments(starts, ends, watts)
        assert _bits(tl._cum) == _bits(fresh._cum[:3])
        tl.add_segment(2.0, 3.0, 9.0)
        assert starts.tolist() == [0.0, 1.0] and ends.tolist() == [0.5, 1.5]
        assert tl.segment_count == 3

"""Property-based tests: selection/filter invariants (the contribution)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.proportional_filter import ProportionalFilter
from repro.core.selection import selection_mask, uniform_positions
from repro.core.timescale import scale_trace
from repro.trace.packed import unpack
from repro.trace.record import READ, Bunch, IOPackage, Trace

group_sizes = st.integers(min_value=1, max_value=25)


@st.composite
def k_and_group(draw):
    g = draw(group_sizes)
    k = draw(st.integers(min_value=1, max_value=g))
    return k, g


class TestSelectionProperties:
    @given(k_and_group())
    @settings(max_examples=100)
    def test_positions_unique_sorted_in_range(self, kg):
        k, g = kg
        positions = uniform_positions(k, g)
        assert len(positions) == k
        assert len(set(positions)) == k
        assert list(positions) == sorted(positions)
        assert all(0 <= p < g for p in positions)
        assert positions[-1] == g - 1

    @given(k_and_group())
    @settings(max_examples=100)
    def test_spacing_near_uniform(self, kg):
        """Gaps between selected positions differ by at most 1 from the
        ideal g/k spacing (the uniformity the paper's Fig. 5 shows)."""
        k, g = kg
        positions = uniform_positions(k, g)
        if k < 2:
            return
        gaps = np.diff(positions)
        ideal = g / k
        assert all(abs(gap - ideal) <= 1.0 for gap in gaps)

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_mask_count_exact_on_full_groups(self, n_groups, k):
        n = n_groups * 10
        mask = selection_mask(n, k / 10)
        assert mask.sum() == n_groups * k

    @given(
        st.integers(min_value=0, max_value=137),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_mask_count_within_one_per_tail(self, n, k):
        """With a partial tail group, the selected fraction deviates from
        k/10 by at most one group's worth."""
        mask = selection_mask(n, k / 10)
        expected = n * k / 10
        assert abs(int(mask.sum()) - expected) <= k

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=100)
    def test_monotone_in_k(self, n, k):
        """Raising the load level only adds bunches (nesting would be
        ideal; we require the weaker monotone-count property plus
        last-of-group stability)."""
        low = selection_mask(n, k / 10)
        high = selection_mask(n, (k + 1) / 10)
        assert high.sum() >= low.sum()


class TestFilterProperties:
    @st.composite
    @staticmethod
    def small_traces(draw):
        n = draw(st.integers(min_value=1, max_value=120))
        return Trace(
            [Bunch(i / 64, [IOPackage(i * 8, 4096, READ)]) for i in range(n)]
        )

    @given(small_traces(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_filter_preserves_order_and_timestamps(self, trace, k):
        out = ProportionalFilter().apply(trace, k / 10)
        stamps = [b.timestamp for b in out]
        assert stamps == sorted(stamps)
        original = {b.timestamp for b in trace}
        assert all(ts in original for ts in stamps)

    @given(small_traces(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_filter_subset_of_original(self, trace, k):
        out = unpack(ProportionalFilter().apply(trace, k / 10))
        assert all(b in trace.bunches for b in out.bunches)

    @given(small_traces(), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=80)
    def test_timescale_preserves_count_and_order(self, trace, intensity):
        out = scale_trace(trace, intensity)
        assert len(out) == len(trace)
        stamps = [b.timestamp for b in out]
        assert stamps == sorted(stamps)

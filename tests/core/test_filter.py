"""Proportional filter tests (the core contribution)."""

import numpy as np
import pytest

from repro.core.proportional_filter import (
    ProportionalFilter,
    bernoulli_filter_trace,
    filter_trace,
    random_filter_trace,
)
from repro.errors import FilterError
from repro.trace.packed import unpack
from repro.trace.record import READ, Bunch, IOPackage, Trace


class TestProportionalFilter:
    def test_counts_scale_linearly(self, small_trace):
        filt = ProportionalFilter()
        for k in range(1, 11):
            out = filt.apply(small_trace, k / 10)
            assert len(out) == 10 * k

    def test_ten_percent_selects_tenth_of_each_group(self, small_trace):
        out = filter_trace(small_trace, 0.1)
        expected = [small_trace.bunches[9 + 10 * g] for g in range(10)]
        assert unpack(out).bunches == expected

    def test_twenty_percent_selects_fifth_and_tenth(self, small_trace):
        out = filter_trace(small_trace, 0.2)
        expected_idx = sorted(
            [4 + 10 * g for g in range(10)] + [9 + 10 * g for g in range(10)]
        )
        assert unpack(out).bunches == [
            small_trace.bunches[i] for i in expected_idx
        ]

    def test_timestamps_preserved(self, small_trace):
        # Selected bunches replay at their ORIGINAL timestamps (§IV-A).
        out = filter_trace(small_trace, 0.3)
        original = {b.timestamp for b in small_trace}
        assert all(b.timestamp in original for b in out)

    def test_full_proportion_identity(self, small_trace):
        out = filter_trace(small_trace, 1.0)
        assert unpack(out) == small_trace
        assert out is not small_trace

    def test_label_records_level(self, small_trace):
        assert filter_trace(small_trace, 0.4).label.endswith("@40%")

    def test_selected_count_matches_apply(self, small_trace):
        filt = ProportionalFilter()
        for prop in (0.1, 0.5, 0.9):
            assert filt.selected_count(len(small_trace), prop) == len(
                filt.apply(small_trace, prop)
            )

    def test_levels(self):
        assert ProportionalFilter(10).levels() == tuple(
            (i + 1) / 10 for i in range(10)
        )
        assert ProportionalFilter(4).levels() == (0.25, 0.5, 0.75, 1.0)

    def test_invalid_group_size(self):
        with pytest.raises(FilterError):
            ProportionalFilter(0)

    def test_off_grid_proportion_rejected(self, small_trace):
        with pytest.raises(FilterError):
            filter_trace(small_trace, 0.33)

    def test_preserves_load_distribution_over_time(self, small_trace):
        """The filtered trace's bunches spread evenly over the original
        span — the property the paper claims makes uniform selection
        better than random (no crests/troughs)."""
        out = filter_trace(small_trace, 0.5)
        halves = [
            sum(1 for b in out if b.timestamp < small_trace.duration / 2),
            sum(1 for b in out if b.timestamp >= small_trace.duration / 2),
        ]
        assert abs(halves[0] - halves[1]) <= 1

    def test_throughput_proportion_for_fixed_size(self, small_trace):
        """For fixed-size requests, byte proportion tracks bunch
        proportion up to bunch fan-out variation."""
        out = filter_trace(small_trace, 0.5)
        ratio = out.nbytes / small_trace.nbytes
        assert 0.4 < ratio < 0.6


class TestRandomFilter:
    def test_same_quota_per_group(self, small_trace):
        out = random_filter_trace(small_trace, 0.3, seed=3)
        assert len(out) == 30

    def test_seeded_reproducible(self, small_trace):
        a = random_filter_trace(small_trace, 0.3, seed=5)
        b = random_filter_trace(small_trace, 0.3, seed=5)
        assert a == b

    def test_differs_from_uniform_selection(self, small_trace):
        uniform = filter_trace(small_trace, 0.3)
        random = random_filter_trace(small_trace, 0.3, seed=11)
        assert uniform != random

    def test_partial_tail_handled(self):
        trace = Trace(
            [Bunch(i / 64, [IOPackage(i, 512, READ)]) for i in range(25)]
        )
        out = random_filter_trace(trace, 0.2, seed=1)
        # Two full groups contribute 2 each; the 5-long tail contributes
        # min(2, 5) = 2.
        assert len(out) == 6


class TestBernoulliFilter:
    def test_count_near_expectation(self, small_trace):
        out = bernoulli_filter_trace(small_trace, 0.5, seed=7)
        assert 30 <= len(out) <= 70  # ±4 sigma around 50

    def test_seeded_reproducible(self, small_trace):
        a = bernoulli_filter_trace(small_trace, 0.3, seed=9)
        b = bernoulli_filter_trace(small_trace, 0.3, seed=9)
        assert a == b

    def test_full_proportion_keeps_everything(self, small_trace):
        # proportion 1.0: random() < 1.0 is always true.
        out = bernoulli_filter_trace(small_trace, 1.0, seed=1)
        assert unpack(out) == small_trace

    def test_invalid_proportion(self, small_trace):
        with pytest.raises(FilterError):
            bernoulli_filter_trace(small_trace, 0.0)
        with pytest.raises(FilterError):
            bernoulli_filter_trace(small_trace, 1.5)

    def test_count_variance_exceeds_stratified(self, small_trace):
        """The design rationale: Bernoulli sampling's selected count
        fluctuates across seeds; stratified selection is exact."""
        bern_counts = {
            len(bernoulli_filter_trace(small_trace, 0.3, seed=s))
            for s in range(20)
        }
        strat_counts = {
            len(random_filter_trace(small_trace, 0.3, seed=s))
            for s in range(20)
        }
        assert len(strat_counts) == 1
        assert len(bern_counts) > 1

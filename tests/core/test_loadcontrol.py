"""Combined load controller tests."""

import math

import pytest

from repro.core.loadcontrol import LoadController
from repro.errors import FilterError
from repro.trace.packed import unpack
from repro.trace.ops import interarrival_times


class TestPlan:
    def test_grid_levels_use_pure_filter(self):
        lc = LoadController()
        for k in range(1, 11):
            plan = lc.plan(k / 10)
            assert plan.pure_filter
            assert plan.filter_proportion == pytest.approx(k / 10)

    def test_above_unity_uses_pure_time_scale(self):
        plan = LoadController().plan(2.0)
        assert plan.filter_proportion == 1.0
        assert plan.time_intensity == 2.0

    def test_off_grid_combines(self):
        plan = LoadController().plan(0.25)
        assert plan.filter_proportion == pytest.approx(0.3)
        assert plan.time_intensity == pytest.approx(0.25 / 0.3)
        # Composition reproduces the target.
        assert plan.filter_proportion * plan.time_intensity == pytest.approx(0.25)

    def test_tiny_intensity(self):
        plan = LoadController().plan(0.01)
        assert plan.filter_proportion == pytest.approx(0.1)
        assert plan.time_intensity == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_invalid(self, bad):
        with pytest.raises(FilterError):
            LoadController().plan(bad)


class TestApply:
    def test_filter_path(self, small_trace):
        out = LoadController().apply(small_trace, 0.3)
        assert len(out) == 30
        # Timestamps must be originals (pure filter path).
        originals = {b.timestamp for b in small_trace}
        assert all(b.timestamp in originals for b in out)

    def test_timescale_path(self, small_trace):
        out = LoadController().apply(small_trace, 2.0)
        assert len(out) == len(small_trace)
        assert out.duration == pytest.approx(small_trace.duration / 2)

    def test_combined_path(self, small_trace):
        out = LoadController().apply(small_trace, 0.25)
        assert len(out) == 30  # filtered to 30 %
        # ... then stretched: offered rate = bunches / duration should be
        # ~25 % of the original rate.
        orig_rate = len(small_trace) / small_trace.duration
        new_rate = len(out) / out.duration
        assert new_rate / orig_rate == pytest.approx(0.25, rel=0.05)

    def test_identity(self, small_trace):
        out = LoadController().apply(small_trace, 1.0)
        assert unpack(out) == small_trace

    def test_custom_group_size(self, small_trace):
        lc = LoadController(group_size=4)
        out = lc.apply(small_trace, 0.25)
        assert len(out) == 25

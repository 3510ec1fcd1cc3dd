"""Inter-arrival-time scaling tests."""

import pytest

from repro.core.timescale import TimeScaler, scale_trace
from repro.errors import FilterError
from repro.trace.packed import unpack
from repro.trace.record import READ, Bunch, IOPackage, Trace
from repro.trace.ops import interarrival_times


class TestTimeScaler:
    def test_double_intensity_halves_gaps(self, small_trace):
        out = scale_trace(small_trace, 2.0)
        assert interarrival_times(out).mean() == pytest.approx(
            interarrival_times(small_trace).mean() / 2
        )
        assert out.duration == pytest.approx(small_trace.duration / 2)

    def test_one_percent_intensity(self, small_trace):
        out = scale_trace(small_trace, 0.01)
        assert out.duration == pytest.approx(small_trace.duration * 100)

    def test_identity(self, small_trace):
        out = scale_trace(small_trace, 1.0)
        assert unpack(out) == small_trace

    def test_packages_untouched(self, small_trace):
        out = scale_trace(small_trace, 5.0)
        assert [b.packages for b in out] == [b.packages for b in small_trace]
        assert out.package_count == small_trace.package_count

    def test_origin_preserved(self):
        trace = Trace(
            [Bunch(10.0, [IOPackage(0, 512, READ)]),
             Bunch(12.0, [IOPackage(8, 512, READ)])]
        )
        out = unpack(scale_trace(trace, 2.0))
        assert out[0].timestamp == 10.0
        assert out[1].timestamp == 11.0

    def test_time_factor(self):
        assert TimeScaler(2.0).time_factor == 0.5
        assert TimeScaler(0.5).time_factor == 2.0

    @pytest.mark.parametrize("intensity", [0.0, -1.0])
    def test_invalid_intensity(self, intensity):
        with pytest.raises(FilterError):
            TimeScaler(intensity)

    def test_empty_trace(self):
        assert len(scale_trace(Trace([]), 2.0)) == 0

    def test_label_annotated(self, small_trace):
        assert scale_trace(small_trace, 10.0).label.endswith("x10")

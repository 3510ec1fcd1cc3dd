"""Performance monitor edge cases: zero-duration windows, boundary
stops, restarts, and in-flight totals."""

import pytest

from repro.replay.monitor import PerformanceMonitor
from repro.storage.base import Completion
from repro.trace.record import READ, IOPackage


def completion(finish, nbytes=4096):
    submit = max(finish - 0.005, 0.0)
    return Completion(
        package=IOPackage(0, nbytes, READ),
        submit_time=submit,
        start_time=submit,
        finish_time=finish,
    )


class TestZeroDurationWindows:
    def test_stop_immediately_after_start_emits_nothing(self, sim):
        mon = PerformanceMonitor(sampling_cycle=1.0)
        mon.start(sim)
        mon.stop()  # sim clock has not moved: zero-duration window
        assert mon.samples == []

    def test_stop_on_exact_cycle_boundary_no_empty_tail(self, sim):
        mon = PerformanceMonitor(sampling_cycle=0.5)
        mon.start(sim)
        sim.schedule(0.2, lambda: mon.record(completion(0.2)))
        sim.run(until=0.5)  # the tick at 0.5 closes the first cycle
        mon.stop()  # now == cycle start: no zero-length sample appended
        assert len(mon.samples) == 1
        assert mon.samples[0].end == pytest.approx(0.5)

    def test_zero_duration_sample_metrics_are_safe(self):
        # A degenerate sample must not divide by zero.
        from repro.replay.monitor import PerfSample

        sample = PerfSample(
            start=1.0, end=1.0, completed=0, total_bytes=0, total_response=0.0
        )
        assert sample.iops == 0.0
        assert sample.mbps == 0.0
        assert sample.mean_response == 0.0


class TestForcedCloseKeepsCounts:
    """stop() must never drop completions recorded in a zero-duration
    final window — they were previously lost from ``samples`` while the
    totals still counted them, so per-sample sums and session aggregates
    disagreed."""

    def test_zero_io_time_run_emits_its_counts(self, sim):
        # An instant-completing device finishes everything at t=0; the
        # clock never moves before stop().
        mon = PerformanceMonitor(sampling_cycle=1.0)
        mon.start(sim)
        mon.record(completion(0.0))
        mon.record(completion(0.0))
        mon.stop()
        assert len(mon.samples) == 1
        sample = mon.samples[0]
        assert sample.duration == 0.0
        assert sample.completed == 2
        assert mon.total_completed == sum(s.completed for s in mon.samples)

    def test_boundary_stop_with_pending_counts_emits_tail(self, sim):
        mon = PerformanceMonitor(sampling_cycle=0.5)
        mon.start(sim)
        sim.schedule(0.2, lambda: mon.record(completion(0.2)))
        # The tick at 0.5 (priority 10) closes the first cycle; this
        # completion lands at the same instant but after the tick.
        sim.schedule(
            0.5, lambda: mon.record(completion(0.5)), priority=20
        )
        sim.run(until=0.5)
        mon.stop()
        assert [s.completed for s in mon.samples] == [1, 1]
        assert mon.samples[-1].duration == 0.0
        assert mon.total_completed == 2

    def test_boundary_stop_without_pending_counts_stays_clean(self, sim):
        # The complementary invariant: forcing must not reintroduce
        # empty zero-length tail samples.
        mon = PerformanceMonitor(sampling_cycle=0.5)
        mon.start(sim)
        sim.schedule(0.2, lambda: mon.record(completion(0.2)))
        sim.run(until=0.5)
        mon.stop()
        assert len(mon.samples) == 1

    def test_total_response_includes_open_cycle(self, sim):
        mon = PerformanceMonitor(sampling_cycle=10.0)
        mon.start(sim)
        sim.schedule(0.1, lambda: mon.record(completion(0.1)))
        sim.run(until=0.2)
        assert mon.total_response == pytest.approx(0.005)

    def test_session_samples_account_every_completion(self, small_trace, hdd_array):
        # Sub-cycle run: the whole replay fits inside one sampling cycle,
        # so the only sample is the forced partial one at stop().
        from repro.config import ReplayConfig
        from repro.replay.session import replay_trace

        result = replay_trace(
            small_trace, hdd_array, 1.0, config=ReplayConfig(sampling_cycle=60.0)
        )
        assert sum(s.completed for s in result.perf_samples) == result.completed
        responses = sum(s.total_response for s in result.perf_samples)
        assert result.mean_response == pytest.approx(
            responses / result.completed
        )


class TestRestartAndTotals:
    def test_monitor_is_restartable_after_stop(self, sim):
        mon = PerformanceMonitor(sampling_cycle=1.0)
        mon.start(sim)
        sim.schedule(0.1, lambda: mon.record(completion(0.1)))
        sim.run(until=1.0)
        mon.stop()
        assert mon.total_completed == 1
        mon.start(sim)  # re-arm on the same clock
        sim.schedule(1.2, lambda: mon.record(completion(1.2)))
        sim.schedule(1.3, lambda: mon.record(completion(1.3)))
        sim.run(until=2.0)
        mon.stop()
        assert mon.total_completed == 2  # restart resets the series

    def test_totals_include_open_cycle(self, sim):
        mon = PerformanceMonitor(sampling_cycle=10.0)
        mon.start(sim)
        sim.schedule(0.1, lambda: mon.record(completion(0.1, nbytes=1024)))
        sim.run(until=0.2)
        # No cycle has closed yet; totals must still see the completion.
        assert mon.samples == []
        assert mon.total_completed == 1
        assert mon.total_bytes == 1024

    def test_on_sample_fires_for_partial_final_cycle(self, sim):
        mon = PerformanceMonitor(sampling_cycle=1.0)
        mon.start(sim)
        sim.schedule(1.4, lambda: mon.record(completion(1.4)))
        sim.run(until=1.4)
        assert [pytest.approx(s.end) for s in mon.samples] == [1.0]
        mon.stop()
        assert [pytest.approx(s.end) for s in mon.samples] == [1.0, 1.4]
        assert mon.samples[-1].completed == 1

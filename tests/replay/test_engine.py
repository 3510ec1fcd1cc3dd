"""Replay engine tests."""

import pytest

from repro.errors import ReplayError
from repro.replay.engine import ReplayEngine
from repro.sim.engine import Simulator
from repro.storage.array import build_hdd_raid5
from repro.trace.record import READ, Bunch, IOPackage, Trace


@pytest.fixture
def attached_array(sim):
    array = build_hdd_raid5(6)
    array.attach(sim)
    return array


class TestReplay:
    def test_replays_every_package(self, sim, attached_array, small_trace):
        completions = []
        engine = ReplayEngine(
            sim, small_trace, attached_array, on_completion=completions.append
        )
        engine.run_to_completion()
        assert engine.done
        assert len(completions) == small_trace.package_count
        assert engine.issued == small_trace.package_count

    def test_bunches_issue_at_original_timestamps(self, sim, attached_array):
        trace = Trace(
            [
                Bunch(0.0, [IOPackage(0, 4096, READ)]),
                Bunch(0.5, [IOPackage(80000, 4096, READ)]),
            ]
        )
        submit_times = []
        engine = ReplayEngine(
            sim, trace, attached_array,
            on_completion=lambda c: submit_times.append(c.submit_time),
        )
        engine.run_to_completion()
        assert sorted(submit_times) == pytest.approx([0.0, 0.5])

    def test_rebases_to_current_sim_time(self, sim, attached_array):
        sim.advance_to(100.0)
        trace = Trace([Bunch(7.0, [IOPackage(0, 4096, READ)])])
        times = []
        engine = ReplayEngine(
            sim, trace, attached_array,
            on_completion=lambda c: times.append(c.submit_time),
        )
        engine.run_to_completion()
        assert times[0] == pytest.approx(100.0)

    def test_intra_bunch_concurrency(self, sim, attached_array):
        """Packages of one bunch are submitted at the same instant."""
        strip_sectors = 128 * 1024 // 512
        trace = Trace(
            [Bunch(0.0, [IOPackage(i * strip_sectors, 4096, READ) for i in range(4)])]
        )
        times = []
        engine = ReplayEngine(
            sim, trace, attached_array,
            on_completion=lambda c: times.append(c.submit_time),
        )
        engine.run_to_completion()
        assert all(t == times[0] for t in times)

    def test_on_finished_called_once(self, sim, attached_array, small_trace):
        finished = []
        engine = ReplayEngine(
            sim, small_trace, attached_array,
            on_finished=lambda: finished.append(sim.now),
        )
        engine.run_to_completion()
        assert len(finished) == 1
        assert engine.end_time == finished[0]


class TestErrors:
    def test_empty_trace_rejected(self, sim, attached_array):
        with pytest.raises(ReplayError):
            ReplayEngine(sim, Trace([]), attached_array)

    def test_double_start_rejected(self, sim, attached_array, small_trace):
        engine = ReplayEngine(sim, small_trace, attached_array)
        engine.start()
        with pytest.raises(ReplayError):
            engine.start()
        engine.run_to_completion()

    def test_open_loop_submits_on_schedule_under_saturation(
        self, sim, attached_array
    ):
        """The replayer is open-loop (§IV-A: selected bunches replay at
        their original timestamps): even when the device is saturated
        and queues build, every bunch must be SUBMITTED at its scheduled
        instant — backpressure shows up as response time, never as
        submission drift."""
        # Arrival rate far above the array's random-read capacity.
        trace = Trace(
            [
                Bunch(i * 0.0005, [IOPackage((i * 99991) % 10**8, 4096, READ)])
                for i in range(100)
            ]
        )
        submits = []
        engine = ReplayEngine(
            sim, trace, attached_array,
            on_completion=lambda c: submits.append(
                (c.package.sector, c.submit_time)
            ),
        )
        engine.run_to_completion()
        expected = {
            (pkg.sector, bunch.timestamp)
            for bunch in trace
            for pkg in bunch.packages
        }
        assert set(submits) == expected
        # And the device really was saturated (queueing happened).
        responses = [s[1] for s in submits]
        assert sim.now > trace.duration * 2

    def test_run_to_completion_survives_side_events(
        self, sim, attached_array, small_trace
    ):
        """A perpetual self-rescheduling event (like a monitor tick) must
        not prevent completion detection."""

        def tick():
            sim.schedule_after(0.1, tick)

        sim.schedule(0.0, tick)
        engine = ReplayEngine(sim, small_trace, attached_array)
        engine.run_to_completion(max_events=100_000)
        assert engine.done


class MinimalDevice:
    """The smallest contract the engine requires — ``submit`` only.

    Deliberately duck-typed (no :class:`StorageDevice` base, hence no
    inherited ``submit_slice``): custom test sinks and third-party
    devices used to crash the packed fast path with ``AttributeError``.
    """

    def __init__(self) -> None:
        self.sim = None
        self.busy_until = 0.0
        self.submitted = []

    def attach(self, sim) -> None:
        self.sim = sim

    def submit(self, package, on_complete) -> None:
        from repro.storage.base import Completion

        submit_time = self.sim.now
        start = max(submit_time, self.busy_until)
        finish = start + 0.001
        self.busy_until = finish
        self.submitted.append(package)
        self.sim.schedule(
            finish,
            lambda: on_complete(Completion(package, submit_time, start, finish)),
        )


class TestSubmitSliceFallback:
    def test_packed_replay_on_device_without_submit_slice(
        self, sim, small_trace
    ):
        """A packed trace replays on a ``submit``-only device."""
        from repro.trace.packed import pack

        device = MinimalDevice()
        device.attach(sim)
        completions = []
        engine = ReplayEngine(
            sim, pack(small_trace), device, on_completion=completions.append
        )
        assert engine._submit_slice is None
        engine.run_to_completion()
        assert engine.done
        assert len(completions) == small_trace.package_count
        # The fallback materialised real packages, in row order.
        expected = [p for b in small_trace for p in b.packages]
        assert device.submitted == expected

    def test_fallback_matches_object_dispatch(self, small_trace):
        """Per-package fallback ≡ bunch-object dispatch, completion for
        completion."""
        from tests.object_walks import ObjectDispatchEngine

        def run(engine_cls):
            sim = Simulator()
            device = MinimalDevice()
            device.attach(sim)
            completions = []
            engine = engine_cls(
                sim, small_trace, device, on_completion=completions.append
            )
            engine.run_to_completion()
            return completions

        assert run(ReplayEngine) == run(ObjectDispatchEngine)

    def test_slice_dispatch_matches_object_dispatch(self, small_trace):
        """``submit_slice`` on a real array ≡ bunch-object dispatch."""
        from tests.object_walks import ObjectDispatchEngine

        def run(engine_cls):
            sim = Simulator()
            array = build_hdd_raid5(6)
            array.attach(sim)
            completions = []
            engine = engine_cls(
                sim, small_trace, array, on_completion=completions.append
            )
            engine.run_to_completion()
            return [
                (c.package, c.submit_time, c.start_time, c.finish_time)
                for c in completions
            ]

        assert run(ReplayEngine) == run(ObjectDispatchEngine)

    def test_real_devices_keep_the_batch_hook(self, sim, attached_array):
        engine = ReplayEngine(
            sim,
            Trace([Bunch(0.0, [IOPackage(0, 4096, READ)])]),
            attached_array,
        )
        assert engine._submit_slice is not None

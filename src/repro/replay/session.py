"""One full measured replay: load control + replay + monitor + power.

This is the operation the paper's GUI triggers per test: pick a trace,
set a load proportion (and optionally a time-scale), replay it against
the device under test while the performance monitor and the power
analyzer sample in lock-step, and produce the record the evaluation
host stores.
"""

from __future__ import annotations

from typing import Optional

from ..config import ReplayConfig
from ..core.loadcontrol import LoadController
from ..errors import ReplayError
from ..faults.injector import FaultInjector, unwrap
from ..faults.schedule import FaultSchedule
from ..power.analyzer import PowerAnalyzer
from ..power.sensor import HallSensor
from ..sim.engine import Simulator
from ..storage.array import DiskArray
from ..storage.base import StorageDevice
from ..trace.packed import TraceLike, pack
from .engine import ReplayEngine
from .monitor import PerformanceMonitor
from .results import ReplayOutcome, ReplayResult


class ReplaySession:
    """Configure once, run one measured replay.

    Parameters
    ----------
    device:
        Device under test.  If it is a :class:`~repro.storage.array.DiskArray`
        the power analyzer clamps around the whole enclosure (as the
        paper's magnetic loop does); other devices must expose
        ``energy_between``.
    config:
        Sampling cycle, time-scale, and filter group size.
    sensor:
        Optional imperfect Hall sensor for the power channel.
    faults:
        Optional seeded :class:`~repro.faults.schedule.FaultSchedule`;
        when given, the device is wrapped in a
        :class:`~repro.faults.injector.FaultInjector` and the run's
        injected faults are surfaced in ``ReplayResult.fault_events``.
    stream_interval, on_frame:
        Seconds of sim time per :class:`~repro.telemetry.stream.IntervalFrame`
        (``None`` defers to ``TRACER_TELEMETRY_INTERVAL``), and a callback
        handed each frame.  Watching never picks the engine: the event
        engine delivers frames as they close, the kernel delivers the
        same frames once the run is solved.
    """

    def __init__(
        self,
        device: StorageDevice,
        config: Optional[ReplayConfig] = None,
        sensor: Optional[HallSensor] = None,
        thermal: bool = False,
        faults: Optional[FaultSchedule] = None,
        stream_interval: Optional[float] = None,
        on_frame=None,
        engine: Optional[str] = None,
        capture=None,
    ) -> None:
        if faults is not None and not faults.empty:
            device = FaultInjector(device, faults)
        self.device = device
        # Optional CaptureSink the run fills with a ReplayCapture —
        # the frozen record the energy-policy oracle re-scores.
        self.capture_sink = capture
        self.config = config or ReplayConfig()
        if engine is not None:
            from dataclasses import replace

            self.config = replace(self.config, engine=engine)
        self.sensor = sensor
        self.thermal = thermal
        # Streaming observability: seconds of sim time per interval
        # frame (0 = off).  ``None`` defers to TRACER_TELEMETRY_INTERVAL
        # so long remote replays can be made observable per process.
        from ..telemetry.stream import resolve_interval

        self.stream_interval = resolve_interval(stream_interval)
        self.on_frame = on_frame
        self.controller = LoadController(group_size=self.config.group_size)

    def _thermal_monitor(self):
        """Build a per-member thermal monitor when requested.

        Only meaningful for :class:`~repro.storage.array.DiskArray`
        targets (single devices can wrap their own timeline directly).
        """
        if not self.thermal:
            return None
        from ..storage.hdd import HardDiskDrive
        from ..thermal.model import HDD_THERMAL, SSD_THERMAL, ThermalModel
        from ..thermal.monitor import ThermalMonitor

        target = unwrap(self.device)
        if not isinstance(target, DiskArray) or not target.disks:
            return None
        models = {}
        for disk in target.disks:
            spec = (
                HDD_THERMAL if isinstance(disk, HardDiskDrive) else SSD_THERMAL
            )
            models[disk.name] = ThermalModel(disk.timeline, spec)
        return ThermalMonitor(models, sampling_cycle=self.config.sampling_cycle)

    def _power_source(self):
        target = unwrap(self.device)
        if isinstance(target, DiskArray):
            return target.meter
        return target

    def _kernel_blockers(self) -> Optional[str]:
        """Session-level conditions only the event engine can honour."""
        if isinstance(self.device, FaultInjector):
            return "fault injection active"
        if self.thermal:
            return "thermal monitoring enabled"
        return None

    def _result(
        self,
        outcome: ReplayOutcome,
        manipulated,
        load_proportion: float,
        start: float,
        slog,
        *,
        engine: str,
        fallback: Optional[str] = None,
        tele_mark=None,
        usage=None,
    ) -> ReplayResult:
        """The replay epilogue: the :class:`ReplayResult` of a finished
        replay — event engine, kernel or fused grid cell alike.  With
        ``tele_mark`` (the registry mark taken when it began) it records
        the instruments from ``outcome.record`` and the ``usage`` member
        totals (:mod:`repro.replay.instruments`) into
        ``metadata["telemetry"]``."""
        end = outcome.end
        samples = outcome.perf_samples
        # The monitor's run totals: its closed cycles, summed in order.
        completed = sum(s.completed for s in samples)
        total_response = sum(s.total_response for s in samples) + 0.0
        slog.event(
            "finish", time=end, trace=manipulated.label,
            completed=completed, duration=end - start,
        )
        metadata = {
            "time_scale": self.config.time_scale,
            "group_size": self.config.group_size,
            "bunches_replayed": len(manipulated),
            "engine": engine,
        }
        if fallback is not None:
            metadata["engine_fallback"] = fallback
        if self.stream_interval > 0:
            metadata["interval_frames"] = [f.to_dict() for f in outcome.frames]
        fault_events = []
        if isinstance(self.device, FaultInjector):
            fault_events = list(self.device.fault_events)
            metadata["fault_counters"] = dict(self.device.counters)
        target = unwrap(self.device)
        if isinstance(target, DiskArray) and target.degraded_requests:
            metadata["degraded_requests"] = target.degraded_requests
            metadata["reconstruct_reads"] = target.reconstruct_reads
            metadata["failed_disk"] = target.failed_disk
        if tele_mark is not None:
            from ..telemetry import get_registry
            from .instruments import record_replay, record_rmw

            reg = get_registry()
            members, array = usage
            record_replay(
                reg, manipulated, start, end, outcome.record, samples,
                members, array,
            )
            metadata["telemetry"] = reg.collect(since=tele_mark)
            if outcome.rmw is not None:
                # Registry only: the result stays engine-neutral.
                record_rmw(reg, outcome.rmw)
        analyzer = outcome.analyzer
        return ReplayResult(
            trace_label=manipulated.label,
            load_proportion=load_proportion,
            duration=end - start,
            completed=completed,
            total_bytes=sum(s.total_bytes for s in samples),
            mean_response=total_response / completed if completed else 0.0,
            mean_watts=analyzer.mean_watts,
            energy_joules=analyzer.total_energy,
            perf_samples=list(samples),
            power_samples=list(analyzer.samples),
            thermal_samples=list(outcome.thermal_samples),
            fault_events=fault_events,
            metadata=metadata,
        )

    def run(
        self,
        trace: TraceLike,
        load_proportion: float = 1.0,
        sim: Optional[Simulator] = None,
        drain: bool = True,
    ) -> ReplayResult:
        """Replay ``trace`` at ``load_proportion`` and measure.

        ``trace`` may be an object :class:`~repro.trace.record.Trace` or
        a :class:`~repro.trace.packed.PackedTrace`; it is packed once
        here, and filter, scale and replay run on the packed columns.

        Parameters
        ----------
        sim:
            Simulator to run on; a fresh one is created by default.  The
            device is (re)attached to it.
        drain:
            Measure until the last request *completes* (True, default) —
            power and throughput then cover the natural span of the run.
        """
        if len(trace) == 0:
            raise ReplayError("cannot replay an empty trace")
        trace = pack(trace)
        sim = sim if sim is not None else Simulator()
        self.device.attach(sim)

        # Telemetry: mark the process-wide registry so this run can
        # report its own delta, and profile the pipeline stages with
        # wall timers (profiling section, excluded from deterministic
        # snapshots).  The replay instruments are recorded once, by the
        # epilogue, whichever engine runs.
        from ..telemetry import get_registry

        tele_mark = None
        _reg = get_registry()
        if _reg.enabled:
            import time as _time

            tele_mark = _reg.mark()
            t_filter = _reg.timer("session.filter_seconds")
            t_replay = _reg.timer("session.replay_wall_seconds")
            _wall0 = _time.perf_counter()

        # Distributed tracing: when this run executes under a fleet
        # trace context (repro.telemetry.dtrace), its phases land as
        # spans with wall-clock, sim-clock, and energy attribution.
        # One thread-local check per run; no active context ⇒ no cost.
        from ..telemetry import dtrace

        _traced = dtrace.active()
        if _traced:
            import time as _wtime

            _t_phase = _wtime.time()

        manipulated = self.controller.apply(trace, load_proportion)
        if self.config.time_scale != 1.0:
            from ..core.timescale import TimeScaler

            manipulated = TimeScaler(self.config.time_scale).apply(manipulated)
        if tele_mark is not None:
            t_filter.add(_time.perf_counter() - _wall0)
            _wall0 = _time.perf_counter()
        if _traced:
            _t_now = _wtime.time()
            dtrace.record_span(
                dtrace.SPAN_FILTER, _t_phase, _t_now,
                load=load_proportion, time_scale=self.config.time_scale,
            )
            _t_phase = _t_now
        if len(manipulated) == 0:
            raise ReplayError(
                f"load proportion {load_proportion} left no bunches to replay"
            )

        from ..obslog import get_logger

        slog = get_logger("replay.session")
        start = sim.now
        slog.event(
            "start", time=start, trace=manipulated.label,
            load=load_proportion, packages=manipulated.package_count,
            streaming=self.stream_interval,
        )
        target = unwrap(self.device)
        if tele_mark is not None:
            from .instruments import committed_usage, usage_mark

            before = usage_mark(target)

        # Engine selection: the analytical kernel computes qualifying
        # fault-free replays in closed form (bit-identical results); the
        # event calendar covers everything else.  ``auto`` probes the
        # kernel and records why it fell back; ``kernel`` demands it.
        engine_mode = self.config.engine
        kernel_reason: Optional[str] = None
        outcome = None
        if engine_mode in ("auto", "kernel"):
            kernel_reason = self._kernel_blockers()
            if kernel_reason is None:
                from ..sim.kernel import try_kernel_replay

                outcome, kernel_reason = try_kernel_replay(
                    sim, manipulated, self.device,
                    sampling_cycle=self.config.sampling_cycle,
                    sensor=self.sensor,
                    stream_interval=self.stream_interval,
                    keep_record=(
                        self.capture_sink is not None or tele_mark is not None
                    ),
                )
            if outcome is None and engine_mode == "kernel":
                raise ReplayError(
                    "engine='kernel' requested but the run does not "
                    f"qualify: {kernel_reason}"
                )
        engine = "kernel"
        if outcome is None:
            engine = "event"
            # The capture sink keeps the completion record; telemetry
            # keeps one of its own when no capture was asked for.
            sink = self.capture_sink
            if sink is None and tele_mark is not None:
                from .capture import CaptureSink

                sink = CaptureSink()
            outcome = self._run_event(sim, manipulated, sink)
        elif self.on_frame is not None:
            # The kernel solved the whole run at once: one burst.
            for frame in outcome.frames:
                self.on_frame(frame)
        if tele_mark is not None:
            t_replay.add(_time.perf_counter() - _wall0)
        if self.capture_sink is not None:
            self.capture_sink.finish(
                target, end=outcome.end, record=outcome.record,
                trace=manipulated,
            )
        result = self._result(
            outcome, manipulated, load_proportion, start, slog,
            engine=engine,
            fallback=kernel_reason,
            tele_mark=tele_mark,
            usage=(
                committed_usage(target, before, start, outcome.end)
                if tele_mark is not None else None
            ),
        )
        if _traced:
            dtrace.record_span(
                dtrace.SPAN_REPLAY, _t_phase, _wtime.time(),
                sim_start=start, sim_end=outcome.end,
                energy_joules=result.energy_joules,
                engine=engine,
            )
        return result

    def _run_event(self, sim: Simulator, manipulated, sink) -> ReplayOutcome:
        """Replay on the event calendar; ``sink`` (a CaptureSink, or
        None) observes every completion."""
        monitor = PerformanceMonitor(sampling_cycle=self.config.sampling_cycle)
        analyzer = PowerAnalyzer(
            self._power_source(),
            sampling_cycle=self.config.sampling_cycle,
            sensor=self.sensor,
        )
        target = unwrap(self.device)
        recorder = None
        on_completion = monitor.record
        if self.stream_interval > 0:
            # Streaming on: the interval recorder owns its instruments
            # (independent of the gated registry, so frame series are
            # identical whether telemetry is enabled or not) and shares
            # the engine's completion hook with the monitor.  When off,
            # the engine keeps the bare monitor hook — the seed path.
            from ..telemetry.stream import IntervalRecorder

            recorder = IntervalRecorder(
                self.stream_interval,
                power_source=self._power_source(),
                members=(
                    target.disks if isinstance(target, DiskArray) else [target]
                ),
                injector=(
                    self.device
                    if isinstance(self.device, FaultInjector)
                    else None
                ),
                array=target if isinstance(target, DiskArray) else None,
                on_frame=self.on_frame,
            )
            record_perf = monitor.record
            observe_frame = recorder.observe

            def on_completion(completion):
                record_perf(completion)
                observe_frame(completion)

        if sink is not None:
            inner_hook = on_completion
            observe_capture = sink.observe

            def on_completion(completion, _inner=inner_hook):
                _inner(completion)
                observe_capture(completion)

        engine = ReplayEngine(
            sim, manipulated, self.device, on_completion=on_completion
        )
        thermal_monitor = self._thermal_monitor()

        monitor.start(sim)
        analyzer.start(sim)
        if recorder is not None:
            recorder.start(sim)
        if thermal_monitor is not None:
            thermal_monitor.start(sim)
        engine.start()
        engine.run_to_completion()
        monitor.stop()
        if recorder is not None:
            recorder.stop()
        analyzer.stop()
        if thermal_monitor is not None:
            thermal_monitor.stop()
        return ReplayOutcome(
            end=sim.now,
            perf_samples=monitor.samples,
            analyzer=analyzer,
            frames=recorder.frames if recorder is not None else [],
            record=sink.observed_record() if sink is not None else None,
            thermal_samples=(
                thermal_monitor.samples if thermal_monitor is not None else []
            ),
        )


def replay_trace(
    trace: TraceLike,
    device: StorageDevice,
    load_proportion: float = 1.0,
    config: Optional[ReplayConfig] = None,
    faults: Optional[FaultSchedule] = None,
    stream_interval: Optional[float] = None,
    on_frame=None,
    engine: Optional[str] = None,
    capture=None,
) -> ReplayResult:
    """Convenience one-shot wrapper around :class:`ReplaySession`."""
    return ReplaySession(
        device,
        config=config,
        faults=faults,
        stream_interval=stream_interval,
        on_frame=on_frame,
        engine=engine,
        capture=capture,
    ).run(trace, load_proportion)

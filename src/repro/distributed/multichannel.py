"""Parallel multi-array evaluation on one simulation clock (Fig. 3).

"The multi-channel power analyzers in Figure 3 can monitor power
dissipation in multiple storage devices in parallel."  Here several
arrays replay their traces concurrently in a single discrete-event
simulation, each clamped by one channel of a
:class:`~repro.power.meter.MultiChannelMeter`; results come back per
array, measured over the same simulated wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.loadcontrol import LoadController
from ..errors import ReplayError
from ..power.meter import MultiChannelMeter
from ..replay.engine import ReplayEngine
from ..replay.monitor import PerformanceMonitor
from ..replay.results import ReplayResult
from ..sim.engine import Simulator
from ..storage.array import DiskArray
from ..trace.packed import TraceLike


@dataclass
class ArrayRun:
    """One array's assignment in a parallel evaluation."""

    array: DiskArray
    trace: TraceLike
    load_proportion: float = 1.0


class MultiArrayEvaluation:
    """Replay several (array, trace) pairs concurrently."""

    def __init__(self, sampling_cycle: float = 1.0, group_size: int = 10) -> None:
        self.sampling_cycle = sampling_cycle
        self.controller = LoadController(group_size=group_size)

    def run(self, runs: List[ArrayRun]) -> List[ReplayResult]:
        """Execute all runs on one shared clock; returns aligned results.

        Each run's trace is packed once, by its load controller.
        """
        if not runs:
            raise ReplayError("no array runs given")
        sim = Simulator()
        meter = MultiChannelMeter(
            n_channels=len(runs), sampling_cycle=self.sampling_cycle
        )
        engines: List[ReplayEngine] = []
        monitors: List[PerformanceMonitor] = []

        for channel, run in enumerate(runs):
            run.array.attach(sim)
            manipulated = self.controller.apply(run.trace, run.load_proportion)
            if len(manipulated) == 0:
                raise ReplayError(
                    f"array {run.array.name}: nothing to replay at "
                    f"{run.load_proportion}"
                )
            monitor = PerformanceMonitor(sampling_cycle=self.sampling_cycle)
            engine = ReplayEngine(
                sim, manipulated, run.array, on_completion=monitor.record
            )
            meter.connect(channel, run.array.meter)
            monitors.append(monitor)
            engines.append(engine)

        start = sim.now
        for monitor in monitors:
            monitor.start(sim)
        meter.start_all(sim)
        for engine in engines:
            engine.start()

        while not all(engine.done for engine in engines):
            if not sim.step():
                raise ReplayError("simulation drained with requests outstanding")

        for monitor in monitors:
            monitor.stop()
        readings = meter.stop_all()
        end = sim.now

        results = []
        for channel, (run, engine, monitor) in enumerate(
            zip(runs, engines, monitors)
        ):
            reading = readings[channel]
            completed = monitor.total_completed
            responses = sum(s.total_response for s in monitor.samples)
            # Each array is measured over the shared window (start..end):
            # arrays that finish early idle until the slowest one drains,
            # exactly as parallel hardware channels would.
            duration = end - start
            results.append(
                ReplayResult(
                    trace_label=engine.trace.label,
                    load_proportion=run.load_proportion,
                    duration=duration,
                    completed=completed,
                    total_bytes=monitor.total_bytes,
                    mean_response=responses / completed if completed else 0.0,
                    mean_watts=reading.mean_watts,
                    energy_joules=reading.total_energy_joules,
                    perf_samples=list(monitor.samples),
                    power_samples=meter.samples(channel),
                    metadata={"array": run.array.name, "channel": channel},
                )
            )
        return results

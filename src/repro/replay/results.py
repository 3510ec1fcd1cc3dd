"""Replay result records.

A :class:`ReplayResult` is the unit the evaluation host stores in its
database: workload/replay configuration, per-cycle performance and power
series, and the aggregate metrics of §V-B (IOPS, MBPS, response time,
Watts, IOPS/Watt, MBPS/Kilowatt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..faults.schedule import FaultEvent
from ..metrics.efficiency import iops_per_watt, mbps_per_kilowatt
from ..power.analyzer import PowerSample
from .monitor import PerfSample


@dataclass(frozen=True)
class CycleRecord:
    """One aligned (performance, power) sampling cycle."""

    start: float
    end: float
    iops: float
    mbps: float
    mean_response: float
    watts: float

    @property
    def iops_per_watt(self) -> float:
        return iops_per_watt(self.iops, self.watts)

    @property
    def mbps_per_kilowatt(self) -> float:
        return mbps_per_kilowatt(self.mbps, self.watts)


@dataclass
class ReplayOutcome:
    """A finished replay, from any engine, as the session's epilogue
    (:meth:`~repro.replay.session.ReplaySession._result`) takes it."""

    end: float
    perf_samples: List[PerfSample]
    analyzer: Any  # the stopped PowerAnalyzer
    frames: list
    #: The run's :class:`~repro.replay.capture.CompletionRecord` — None
    #: on an event replay that kept none (no capture, telemetry off).
    record: Optional[Any] = None
    thermal_samples: List[Any] = field(default_factory=list)
    #: ``(passes, windows)`` of the kernel's RAID-5 read-modify-write
    #: fixpoint for this run — None when it did not run.
    rmw: Optional[Tuple[int, int]] = None
    #: Tie groups the kernel put in event-calendar order — None when
    #: the kernel did not run.
    tie_groups: Optional[int] = None


@dataclass
class ReplayResult:
    """Everything measured during one replay run."""

    trace_label: str
    load_proportion: float
    duration: float
    completed: int
    total_bytes: int
    mean_response: float
    mean_watts: float
    energy_joules: float
    perf_samples: List[PerfSample] = field(default_factory=list)
    power_samples: List[PowerSample] = field(default_factory=list)
    thermal_samples: List[Any] = field(default_factory=list)
    """Per-cycle :class:`~repro.thermal.monitor.ThermalSample` records,
    populated when the session ran with thermal monitoring enabled
    (the paper's future-work temperature metric)."""
    fault_events: List[FaultEvent] = field(default_factory=list)
    """Injected faults that fired during this run (seeded fault
    injection), in simulation-time order.  Empty for clean runs."""
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def iops(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def mbps(self) -> float:
        return (self.total_bytes / 1e6) / self.duration if self.duration > 0 else 0.0

    @property
    def iops_per_watt(self) -> float:
        return iops_per_watt(self.iops, self.mean_watts)

    @property
    def mbps_per_kilowatt(self) -> float:
        return mbps_per_kilowatt(self.mbps, self.mean_watts)

    @property
    def interval_frames(self) -> List[Dict[str, Any]]:
        """Streamed interval-frame dicts, when the session ran with a
        streaming interval (``[]`` otherwise).  Frames live in
        ``metadata`` so they ride the wire protocol unchanged."""
        return list(self.metadata.get("interval_frames", []))

    @property
    def max_temperature(self) -> float:
        """Hottest sampled device temperature (°C); 0.0 if not monitored."""
        if not self.thermal_samples:
            return 0.0
        return max(s.true_celsius for s in self.thermal_samples)

    def cycles(self) -> List[CycleRecord]:
        """Join performance and power samples into aligned cycle records.

        Samples are produced on the same clock with the same cycle, so
        they pair one-to-one; if one series is longer (partial final
        window on one side), the tail pairs with the nearest window.
        """
        records = []
        n = min(len(self.perf_samples), len(self.power_samples))
        for i in range(n):
            perf = self.perf_samples[i]
            power = self.power_samples[i]
            records.append(
                CycleRecord(
                    start=perf.start,
                    end=perf.end,
                    iops=perf.iops,
                    mbps=perf.mbps,
                    mean_response=perf.mean_response,
                    watts=power.watts,
                )
            )
        return records

    def to_dict(self) -> Dict[str, Any]:
        """Flat summary for the database / wire protocol (no series)."""
        return {
            "trace_label": self.trace_label,
            "load_proportion": self.load_proportion,
            "duration": self.duration,
            "completed": self.completed,
            "total_bytes": self.total_bytes,
            "iops": self.iops,
            "mbps": self.mbps,
            "mean_response": self.mean_response,
            "mean_watts": self.mean_watts,
            "energy_joules": self.energy_joules,
            "iops_per_watt": self.iops_per_watt,
            "mbps_per_kilowatt": self.mbps_per_kilowatt,
            "fault_events": [e.to_dict() for e in self.fault_events],
            "metadata": dict(self.metadata),
        }

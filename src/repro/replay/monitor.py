"""Per-cycle performance monitoring.

"the trace replay tool ... monitors and tracks performance information
like I/O throughput (measured in MBPS and IOPS) and average response
time" (§III-A2), sampled on the same configurable cycle as the power
analyzer (default 1 s) so performance and power samples align.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ReplayError
from ..sim.engine import Simulator
from ..storage.base import Completion


@dataclass(frozen=True)
class PerfSample:
    """Performance over one sampling cycle."""

    start: float
    end: float
    completed: int
    total_bytes: int
    total_response: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def iops(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def mbps(self) -> float:
        return (self.total_bytes / 1e6) / self.duration if self.duration > 0 else 0.0

    @property
    def mean_response(self) -> float:
        return self.total_response / self.completed if self.completed else 0.0


class PerformanceMonitor:
    """Counts completions per sampling cycle on the simulation clock.

    Closed cycles accumulate in :attr:`samples`; a live view watches the
    replay's interval frames instead
    (:class:`~repro.replay.console.LiveFrameRenderer`).
    """

    def __init__(self, sampling_cycle: float = 1.0) -> None:
        if sampling_cycle <= 0:
            raise ReplayError(f"sampling_cycle must be > 0, got {sampling_cycle}")
        self.sampling_cycle = float(sampling_cycle)
        self.samples: List[PerfSample] = []
        self._sim: Optional[Simulator] = None
        self._armed = False
        self._cycle_start = 0.0
        self._count = 0
        self._bytes = 0
        self._response = 0.0
        self._pending_event = None

    def start(self, sim: Simulator) -> None:
        if self._armed:
            raise ReplayError("monitor already started")
        self._armed = True
        self._sim = sim
        self._cycle_start = sim.now
        self._count = 0
        self._bytes = 0
        self._response = 0.0
        self.samples = []
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        assert self._sim is not None
        self._pending_event = self._sim.schedule(
            self._cycle_start + self.sampling_cycle, self._tick, priority=10
        )

    def _tick(self) -> None:
        assert self._sim is not None
        self._close_cycle(self._sim.now)
        if self._armed:
            self._schedule_tick()

    def _close_cycle(self, end: float, force: bool = False) -> None:
        # A cycle that saw no time normally stays open (ticks land on
        # boundaries; an empty zero-width window is not a sample).  But
        # on a forced close (stop()) any pending counts must still be
        # emitted, otherwise completions recorded in a zero-duration
        # final window — instant devices, sub-cycle runs — vanish from
        # ``samples`` while the totals still include them.
        if end <= self._cycle_start and not (force and self._count):
            return
        sample = PerfSample(
            start=self._cycle_start,
            end=end,
            completed=self._count,
            total_bytes=self._bytes,
            total_response=self._response,
        )
        self.samples.append(sample)
        self._cycle_start = end
        self._count = 0
        self._bytes = 0
        self._response = 0.0

    def record(self, completion: Completion) -> None:
        """Hook for the replay engine: account one finished request."""
        if not self._armed:
            raise ReplayError("monitor not started")
        self._count += 1
        self._bytes += completion.package.nbytes
        self._response += completion.response_time

    def stop(self) -> None:
        """Disarm; closes the final partial cycle if it saw any time."""
        if not self._armed:
            raise ReplayError("monitor not started")
        self._armed = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        assert self._sim is not None
        self._close_cycle(self._sim.now, force=True)

    # -- Aggregates over all samples --------------------------------------

    @property
    def total_completed(self) -> int:
        return sum(s.completed for s in self.samples) + self._count

    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.samples) + self._bytes

    @property
    def total_response(self) -> float:
        """Summed response time, including any still-open cycle."""
        return sum(s.total_response for s in self.samples) + self._response

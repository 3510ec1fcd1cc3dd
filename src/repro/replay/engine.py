"""Open-loop trace replay on the simulation clock.

"Chosen I/O bunches by the filter algorithm are replayed based on the
original time stamps ... Concurrent I/O requests in a selected bunch
must be replayed in parallel" (§IV-A).  The engine schedules one
dispatch event per bunch at ``origin + (timestamp - first_timestamp)``
and submits every package of the bunch at that instant.

Both trace representations replay here.  A legacy object
:class:`~repro.trace.record.Trace` dispatches bunch objects; a columnar
:class:`~repro.trace.packed.PackedTrace` takes the fast path — all bunch
events enter the calendar through one :meth:`Simulator.schedule_batch`
(single heapify) and each dispatch hands a row range of the package
table to :meth:`StorageDevice.submit_slice` instead of materialising
IOPackage objects up front.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ReplayError
from ..sim.engine import Simulator
from ..storage.base import Completion, StorageDevice
from ..trace.packed import PackedTrace, TraceLike
from ..trace.record import Bunch, IOPackage

CompletionHook = Callable[[Completion], None]


class ReplayEngine:
    """Replays one trace against one device.

    Parameters
    ----------
    trace:
        The (already filtered/scaled) trace to replay — object or packed.
    device:
        Target device; must be attached to the same simulator.
    on_completion:
        Called for every finished request (the monitor's hook).
    on_finished:
        Called once, when the last request of the trace completes.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLike,
        device: StorageDevice,
        on_completion: Optional[CompletionHook] = None,
        on_finished: Optional[Callable[[], None]] = None,
    ) -> None:
        if len(trace) == 0:
            raise ReplayError("cannot replay an empty trace")
        self.sim = sim
        self.trace = trace
        self.device = device
        self.on_completion = on_completion
        self.on_finished = on_finished
        self.issued = 0
        self.completed = 0
        self.total_packages = trace.package_count
        # Resolved once: duck-typed devices that implement ``submit``
        # but not the packed batch hook still replay packed traces —
        # the dispatcher falls back to per-package object dispatch.
        self._submit_slice = getattr(device, "submit_slice", None)
        self._started = False
        self.start_time: float = 0.0
        self.end_time: Optional[float] = None

    @property
    def done(self) -> bool:
        return self._started and self.completed >= self.total_packages

    def start(self) -> None:
        """Schedule every bunch; replay begins at the current sim time."""
        if self._started:
            raise ReplayError("replay already started")
        self._started = True
        self.start_time = self.sim.now
        if isinstance(self.trace, PackedTrace):
            times = self.start_time + (
                self.trace.timestamps - self.trace.timestamps[0]
            )
            self.sim.schedule_batch(
                times,
                self._dispatch_packed,
                args_seq=[(i,) for i in range(len(self.trace))],
                priority=5,
            )
        else:
            origin = self.trace.bunches[0].timestamp
            self.sim.schedule_batch(
                [
                    self.start_time + (bunch.timestamp - origin)
                    for bunch in self.trace
                ],
                self._dispatch_bunch,
                args_seq=[(bunch,) for bunch in self.trace],
                priority=5,
            )

    def _dispatch_bunch(self, bunch: Bunch) -> None:
        for package in bunch.packages:
            self.issued += 1
            self.device.submit(package, self._on_done)

    def _dispatch_packed(self, i: int) -> None:
        offsets = self.trace.offsets
        start = int(offsets[i])
        stop = int(offsets[i + 1])
        self.issued += stop - start
        if self._submit_slice is not None:
            self._submit_slice(self.trace, start, stop, self._on_done)
        else:
            self._dispatch_rows(start, stop)

    def _dispatch_rows(self, start: int, stop: int) -> None:
        """Per-package fallback for devices without ``submit_slice``."""
        submit = self.device.submit
        fast_pkg = IOPackage._from_validated
        on_done = self._on_done
        for sector, nbytes, op in self.trace.packages[start:stop].tolist():
            submit(fast_pkg(sector, nbytes, op), on_done)

    def _on_done(self, completion: Completion) -> None:
        self.completed += 1
        if self.on_completion is not None:
            self.on_completion(completion)
        if self.completed >= self.total_packages:
            self.end_time = self.sim.now
            if self.on_finished is not None:
                self.on_finished()

    def run_to_completion(self, max_events: Optional[int] = None) -> None:
        """Step the simulator until every replayed request completes.

        Tolerates perpetual side events (monitor/analyzer sampling
        ticks) that would make ``sim.run()`` never return.  With
        ``max_events``, at most that many events execute before a
        :class:`ReplayError` is raised.
        """
        if not self._started:
            self.start()
        steps = 0
        while not self.done:
            if max_events is not None and steps >= max_events:
                self._record_stall("replay_max_events", max_events=max_events)
                raise ReplayError(f"exceeded max_events={max_events} during replay")
            if not self.sim.step():
                self._record_stall("replay_drained")
                raise ReplayError(
                    f"simulation drained with {self.total_packages - self.completed} "
                    "requests outstanding — device lost completions"
                )
            steps += 1

    def _record_stall(self, reason: str, **fields) -> None:
        """Flight-record a fatal replay condition and flush any armed dump."""
        from ..telemetry.flightrec import autodump, get_flight_recorder

        get_flight_recorder().record(
            "replay.stall", self.sim.now,
            reason=reason, issued=self.issued, completed=self.completed,
            outstanding=self.total_packages - self.completed, **fields,
        )
        autodump(reason)

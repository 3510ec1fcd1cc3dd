"""The discrete-event simulation engine.

A minimal but complete event-calendar simulator: a binary heap of
:class:`~repro.sim.events.Event` entries, a monotone clock, and run-until
loops.  All storage, power, and replay components in this package are
written against this engine; nothing in the simulation path touches wall
clocks or threads, which is what makes runs reproducible.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..errors import SimulationError
from .events import Event

#: Instrumented stepping samples callback wall time once per this many
#: events — cheap enough to leave on, frequent enough to be meaningful.
_PROFILE_SAMPLE_EVERY = 64


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._calendar: list[Event] = []
        self._sequence = 0
        self._processed = 0
        # Telemetry is a construction-time gate: when disabled (the
        # default) the class-level ``step`` runs and nothing below
        # exists, so the event loop is byte-for-byte the seed hot path.
        # It profiles the event loop itself, so ``sim.*`` is the one
        # instrument family that differs by engine: the analytical
        # kernel and the fused grid step no simulator.
        from ..telemetry import get_registry

        reg = get_registry()
        if reg.enabled:
            self._tele_events = reg.counter("sim.events")
            self._tele_callback = reg.timer("sim.callback_seconds")
            self._tele_now = reg.gauge("sim.now")
            self.step = self._step_instrumented  # type: ignore[method-assign]

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._calendar)

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling *at* the current time is allowed (the event runs within
        the current run loop); scheduling into the past is an error.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(
            time=float(time),
            priority=priority,
            sequence=self._sequence,
            callback=callback,
            args=args,
        )
        self._sequence += 1
        heapq.heappush(self._calendar, event)
        return event

    def schedule_batch(
        self,
        times: Iterable[float],
        callback: Callable[..., Any],
        args_seq: Optional[Iterable[tuple]] = None,
        priority: int = 0,
    ) -> List[Event]:
        """Schedule ``callback(*args)`` at each of ``times`` in one shot.

        The calendar is extended and re-heapified **once** — O(n + m)
        instead of the O(m log(n + m)) of ``m`` individual pushes — which
        is what makes replaying a multi-hundred-thousand-bunch trace
        cheap to set up.  Ordering semantics are identical to equivalent
        :meth:`schedule` calls made in iteration order (sequence numbers
        are assigned in order, so time/priority ties still resolve
        deterministically).

        Parameters
        ----------
        times:
            Absolute simulated times (any iterable of floats, e.g. a
            NumPy array).  All must be ``>= now``; nothing is scheduled
            if any time is invalid.
        args_seq:
            Optional per-event argument tuples, same length as ``times``;
            omitted means every callback fires with no arguments.
        """
        time_list = [float(t) for t in times]
        if args_seq is None:
            args_list: Sequence[tuple] = [()] * len(time_list)
        else:
            args_list = list(args_seq)
            if len(args_list) != len(time_list):
                raise SimulationError(
                    f"schedule_batch: {len(time_list)} times but "
                    f"{len(args_list)} argument tuples"
                )
        if time_list and min(time_list) < self._now:
            raise SimulationError(
                f"cannot schedule event at t={min(time_list)} before "
                f"current time t={self._now}"
            )
        events = []
        seq = self._sequence
        for t, args in zip(time_list, args_list):
            events.append(
                Event(
                    time=t,
                    priority=priority,
                    sequence=seq,
                    callback=callback,
                    args=args,
                )
            )
            seq += 1
        self._sequence = seq
        self._calendar.extend(events)
        heapq.heapify(self._calendar)
        return events

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback, *args, priority=priority)

    def _pop(self) -> Optional[Event]:
        while self._calendar:
            event = heapq.heappop(self._calendar)
            if not event.cancelled:
                return event
        return None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the calendar is empty."""
        event = self._pop()
        if event is None:
            return False
        self._now = event.time
        event.callback(*event.args)
        self._processed += 1
        return True

    def _step_instrumented(self) -> bool:
        """Telemetry variant of :meth:`step`.

        Installed as an instance attribute when the simulator is built
        with telemetry enabled.  All instrument updates happen on the
        deterministic ``_PROFILE_SAMPLE_EVERY`` stride — the off-stride
        path adds only an increment and a modulo to the seed loop, which
        is what keeps the enabled engine within the overhead budget.
        The ``sim.events`` counter advances by the stride per sample, so
        it reads as the processed count rounded down to the stride (the
        exact count stays available as :attr:`events_processed`).
        """
        event = self._pop()
        if event is None:
            return False
        self._now = event.time
        self._processed += 1
        if self._processed % _PROFILE_SAMPLE_EVERY == 0:
            self._tele_events.inc(_PROFILE_SAMPLE_EVERY)
            self._tele_now.set(self._now)
            t0 = _time.perf_counter()
            event.callback(*event.args)
            self._tele_callback.add(
                (_time.perf_counter() - t0) * _PROFILE_SAMPLE_EVERY,
                calls=_PROFILE_SAMPLE_EVERY,
            )
        else:
            event.callback(*event.args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the calendar drains.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the clock
            is then advanced *to* ``until`` (so a monitor sampling at 1 Hz
            and a run ``until=60`` leaves ``now == 60``).
        max_events:
            Safety valve for tests; at most this many events execute —
            the run raises :class:`SimulationError` the moment one more
            would, which catches accidental event storms.
        """
        executed = 0
        while self._calendar:
            nxt = self._calendar[0]
            if nxt.cancelled:
                heapq.heappop(self._calendar)
                continue
            if until is not None and nxt.time > until:
                break
            if max_events is not None and executed >= max_events:
                # Runaway loops are exactly what the flight recorder
                # exists for: capture the tail before raising.
                from ..telemetry.flightrec import autodump, get_flight_recorder

                get_flight_recorder().record(
                    "sim.runaway", self._now,
                    max_events=max_events, pending=len(self._calendar),
                )
                autodump("sim_runaway")
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway event loop?"
                )
            if not self.step():
                break
            executed += 1
        if until is not None and until > self._now:
            self._now = float(until)

    def advance_to(self, time: float) -> None:
        """Advance the clock with no events (idle-period measurement)."""
        if time < self._now:
            raise SimulationError(
                f"cannot move clock backwards from {self._now} to {time}"
            )
        self.run(until=time)

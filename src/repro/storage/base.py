"""Storage device abstractions.

A :class:`StorageDevice` accepts :class:`~repro.trace.record.IOPackage`
requests on the simulation clock and invokes a completion callback when
each finishes.  :class:`QueuedDevice` supplies the FIFO single-server
queueing discipline every concrete device uses (the paper disables the
array controller's cache, so requests hit the media in order).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .queueing import QueueDiscipline

from ..errors import StorageIOError
from ..power.model import PowerTimeline
from ..sim.engine import Simulator
from ..trace.record import IOPackage

CompletionCallback = Callable[["Completion"], None]


@dataclass(frozen=True)
class VectorService:
    """A vectorized service plan for a run of back-to-back requests.

    Produced by :meth:`ServicePlan.full` (and a device's
    ``service_times(sectors, nbytes, ops)``, which serves the rows in
    the given order): per-request service seconds and mean Watts
    computed with arithmetic ordered exactly as the scalar ``_service``
    loop, starting from the device's current cursor state.  Computing
    the plan is pure; calling ``apply_state`` commits the cursor/counter
    mutations (head position, streaming cursors, seek / random-write
    counters) the scalar loop would have made, leaving the device in
    the identical end state.  Consumed by the analytical replay kernel
    (:mod:`repro.sim.kernel`).
    """

    seconds: "object"  # np.ndarray, float64
    watts: "object"  # np.ndarray, float64
    apply_state: Callable[[], None]


class ServicePlan(ABC):
    """A device's service model prepared for one fixed set of requests.

    Produced by a device's ``prepare_service(sectors, nbytes, ops)``
    from its cursor state at that moment.  The per-request terms that do
    not depend on serving order (end sector, write flag, transfer time,
    write-cache factors, op Watts) are computed once; :meth:`seconds`
    and :meth:`full` evaluate only the order-dependent terms for an
    ``order`` — a 1-D index sequence into the prepared rows, or a
    ``(P, k)`` matrix of such sequences, one serving order per row.
    Either way the result is bit-identical to the scalar ``_service``
    loop serving the rows in that order from the prepared cursor state.
    The analytical kernel re-evaluates one plan under many candidate
    orders while solving the RAID-5 read-modify-write fixpoint, one
    window of each serving order at a time: :meth:`seconds` can resume
    a window from the cursor an earlier window left (``after``).
    """

    #: (n,) int64 end sector of each prepared request.
    end_sectors: "object"
    #: (n,) bool: the rows whose service moves the cursor that the next
    #: request's service continues from (every request on a disk, only
    #: writes on an SSD's FTL stream).
    cursor_rows: "object"

    @abstractmethod
    def seconds(self, order, after=None) -> "object":
        """Service seconds of the rows served in ``order`` (same shape).

        ``after`` (one entry per order row) resumes each row from the
        end state of prepared row ``after[i]`` — the last
        :attr:`cursor_rows` row served before it — instead of the
        prepared cursors; ``-1`` keeps the prepared cursors.  Serving
        ``head`` and then ``tail`` this way is bit-identical to serving
        ``head + tail`` in one order.
        """

    @abstractmethod
    def full(self, order) -> VectorService:
        """Seconds, Watts and the cursor commit for serving ``order``.

        ``apply_state`` commits the end state of a 1-D ``order``; for a
        ``(P, k)`` matrix each row ends in its own state, so it raises
        :class:`ValueError`.
        """

    @classmethod
    def stack(cls, plans: Sequence["ServicePlan"]):
        """One plan pricing the rows of several devices' plans at once:
        it has :meth:`seconds` only.

        Plan ``j``'s prepared row ``i`` is row ``offsets[j] + i`` of the
        stack (``offsets`` the running sum of the plans' row counts).
        An order row of :meth:`seconds` serves rows of one plan only,
        from that plan's prepared cursors or ``after`` one of its rows
        (a stack index), bit-identical to that plan serving the same
        rows.  This generic stack prices each plan's order rows with the
        plan itself; a device model whose plans concatenate overrides it
        with one plan over every row, so that one evaluation prices
        them all.
        """
        return _PlanStack(plans)

    #: Row offsets of the stacked plans (None: one device's plan).
    _offsets = None

    def _owner(self, first):
        """Which stacked plan's cursors an order row whose column 0 is
        ``first`` starts from: index into the per-plan cursor columns."""
        if self._offsets is None:
            return 0
        return np.searchsorted(self._offsets, first, side="right") - 1

    @classmethod
    def _concatenate(cls, plans, row_fields, cursor_fields):
        """A ``cls`` plan over ``plans``' rows back to back (no device).

        ``row_fields`` are per-row columns; each plan keeps working on
        views of the stack's, so a row is held once.  ``cursor_fields``
        hold each plan's prepared cursors, one entry per plan.
        """
        out = cls.__new__(cls)
        out._drive = None
        sizes = [p.end_sectors.size for p in plans]
        out._offsets = np.concatenate(([0], np.cumsum(sizes)))
        edges = out._offsets.tolist()
        bounds = list(zip(edges[:-1], edges[1:]))
        for name in row_fields:
            col = np.concatenate([getattr(p, name) for p in plans])
            setattr(out, name, col)
            for p, (a, b) in zip(plans, bounds):
                setattr(p, name, col[a:b])
        for name in cursor_fields:
            setattr(out, name,
                    np.concatenate([getattr(p, name) for p in plans]))
        return out


class _PlanStack:
    """The generic :meth:`ServicePlan.stack`: one call per plan."""

    def __init__(self, plans: Sequence[ServicePlan]) -> None:
        self.plans = list(plans)
        sizes = [p.end_sectors.size for p in self.plans]
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def seconds(self, order, after=None):
        owner = np.searchsorted(self.offsets, order[:, 0], side="right") - 1
        out = np.empty(order.shape)
        for j, plan in enumerate(self.plans):
            mine = np.flatnonzero(owner == j)
            if not mine.size:
                continue
            base = self.offsets[j]
            local = None
            if after is not None:
                local = np.where(after[mine] >= 0, after[mine] - base, -1)
            out[mine] = plan.seconds(order[mine] - base, local)
        return out


def no_row_state() -> None:
    """``apply_state`` of a ``(P, k)`` :class:`VectorService`."""
    raise ValueError("a (P, k) service plan has no single end state")


@dataclass(frozen=True)
class Completion:
    """Result of one finished request."""

    package: IOPackage
    submit_time: float
    start_time: float
    finish_time: float

    @property
    def response_time(self) -> float:
        """Queueing delay plus service time."""
        return self.finish_time - self.submit_time

    @property
    def service_time(self) -> float:
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time


class StorageDevice(ABC):
    """Base class: anything that serves block requests on the sim clock."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional[Simulator] = None

    def attach(self, sim: Simulator) -> None:
        """Bind the device to a simulation before any submit()."""
        self.sim = sim

    def _require_sim(self) -> Simulator:
        if self.sim is None:
            raise StorageIOError(f"{self.name}: attach() a simulator before I/O")
        return self.sim

    @property
    @abstractmethod
    def capacity_sectors(self) -> int:
        """Addressable size in 512-byte sectors."""

    @abstractmethod
    def submit(self, package: IOPackage, on_complete: CompletionCallback) -> None:
        """Accept a request; ``on_complete`` fires when it finishes."""

    def submit_slice(
        self, packed, start: int, stop: int, on_complete: CompletionCallback
    ) -> None:
        """Batch submission hook for the packed replay fast path.

        Accepts rows ``start:stop`` of a
        :class:`~repro.trace.packed.PackedTrace` package table (one
        replay bunch).  The contract is identical to ``stop - start``
        individual :meth:`submit` calls in row order: ``on_complete``
        must eventually fire exactly once per package.  The default
        implementation materialises each row and loops over
        :meth:`submit`; devices with a cheaper bulk path (or test sinks
        that only count) may override it.
        """
        submit = self.submit
        fast_pkg = IOPackage._from_validated
        for sector, nbytes, op in packed.packages[start:stop].tolist():
            submit(fast_pkg(sector, nbytes, op), on_complete)

    @abstractmethod
    def energy_between(self, t0: float, t1: float) -> float:
        """Joules drawn by this device during [t0, t1]."""

    def check_bounds(self, package: IOPackage) -> None:
        """Reject requests outside the addressable range."""
        if package.end_sector > self.capacity_sectors:
            raise StorageIOError(
                f"{self.name}: request {package} ends at sector "
                f"{package.end_sector}, beyond capacity {self.capacity_sectors}"
            )


class QueuedDevice(StorageDevice):
    """FIFO single-server device with a power timeline.

    Subclasses implement :meth:`_service`, returning the service time and
    the mean power drawn while serving; the base class handles queueing,
    completion scheduling, and energy accounting.
    """

    def __init__(
        self,
        name: str,
        idle_watts: float,
        discipline: Optional["QueueDiscipline"] = None,
    ) -> None:
        super().__init__(name)
        from .queueing import FIFOQueue  # local import: queueing imports trace types

        self.timeline = PowerTimeline(idle_watts)
        self._queue = discipline if discipline is not None else FIFOQueue()
        self._busy = False
        self._head_hint = 0
        self.completed_count = 0
        self.queued_high_water = 0

    @abstractmethod
    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        """Return ``(service_seconds, mean_watts_during_service)``.

        Called exactly once per request, at the instant service begins —
        so the device may use (and update) positional state like head
        location.
        """

    def submit(self, package: IOPackage, on_complete: CompletionCallback) -> None:
        sim = self._require_sim()
        self.check_bounds(package)
        if self._busy:
            self._queue.push((package, sim.now, on_complete))
            self.queued_high_water = max(self.queued_high_water, len(self._queue))
        else:
            self._begin(package, sim.now, on_complete)

    def _begin(
        self, package: IOPackage, submit_time: float, on_complete: CompletionCallback
    ) -> None:
        sim = self._require_sim()
        self._busy = True
        start = sim.now
        service_time, watts = self._service(package, start)
        finish = start + service_time
        self.timeline.add_segment(start, finish, watts)
        sim.schedule(
            finish, self._finish, package, submit_time, start, on_complete
        )

    def _finish(
        self,
        package: IOPackage,
        submit_time: float,
        start: float,
        on_complete: CompletionCallback,
    ) -> None:
        sim = self._require_sim()
        self._busy = False
        self.completed_count += 1
        completion = Completion(
            package=package,
            submit_time=submit_time,
            start_time=start,
            finish_time=sim.now,
        )
        # Start the next queued request before delivering the completion,
        # so a callback that submits new I/O sees a consistent queue.
        self._head_hint = package.end_sector
        nxt = self._queue.pop(self._head_hint)
        if nxt is not None:
            nxt_pkg, nxt_submit, nxt_cb = nxt
            self._begin(nxt_pkg, nxt_submit, nxt_cb)
        on_complete(completion)

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def energy_between(self, t0: float, t1: float) -> float:
        return self.timeline.energy_between(t0, t1)

    def energies_between(self, t0, t1):
        return self.timeline.energies_between(t0, t1)

    def utilisation(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1] spent serving requests."""
        if t1 <= t0:
            return 0.0
        return self.timeline.busy_time(t0, t1) / (t1 - t0)

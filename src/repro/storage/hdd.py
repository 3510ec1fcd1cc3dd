"""Mechanical hard-disk model.

Service time decomposes into the classic components (Ruemmler & Wilkes):

* **command overhead** — firmware processing, always paid;
* **seek** — ``settle + coeff * sqrt(distance_fraction)`` when the head
  must move; zero when the request continues sequentially from the last
  one (streaming);
* **rotational latency** — expected half-revolution after any seek;
  zero while streaming (the head is already following the track);
* **turnaround** — switching between reads and writes interrupts
  streaming: the write path must flush / the head re-settles.  This is
  the mechanism behind the paper's U-shaped throughput vs. read-ratio
  curve at low random ratios (Fig. 11);
* **transfer** — request bytes over the zoned media rate.

Power: each phase draws the phase power from the spec; the request's
mean power is the time-weighted blend, recorded as one busy segment.

The drive also implements standby/spin-up transitions (used by the
energy-saving policy extensions, idle in the baseline experiments).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import StorageConfigError, StorageIOError
from ..power.states import PowerState
from ..rng import make_rng
from ..trace.record import IOPackage, WRITE
from ..units import SECTOR_BYTES
from .base import QueuedDevice, ServicePlan, VectorService, no_row_state
from .specs import HDDSpec, SEAGATE_7200_12


class HardDiskDrive(QueuedDevice):
    """One simulated mechanical disk.

    Parameters
    ----------
    spec:
        Mechanical/power parameters (default: the paper's Seagate
        7200.12 500 GB).
    rotational_jitter:
        When ``True``, rotational latency is sampled uniformly in
        [0, rotation_time) from a seeded stream instead of using the
        expected value.  Default off: deterministic expected-value
        latencies keep replay results exactly reproducible.
    seed:
        Seed for the jitter stream.
    """

    def __init__(
        self,
        name: str = "hdd0",
        spec: HDDSpec = SEAGATE_7200_12,
        rotational_jitter: bool = False,
        seed: Optional[int] = None,
        discipline=None,
    ) -> None:
        super().__init__(name, idle_watts=spec.idle_watts, discipline=discipline)
        self.spec = spec
        self.rotational_jitter = rotational_jitter
        # The jitter stream is built on its first draw: most drives never
        # jitter, and make_rng is deterministic per seed.
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._head_sector = 0
        self._last_end_sector: Optional[int] = None
        self._last_op: Optional[int] = None
        self._transition_until = 0.0
        self.state = PowerState.IDLE
        self.seek_count = 0

    @property
    def capacity_sectors(self) -> int:
        return self.spec.capacity_sectors

    # -- Service model ---------------------------------------------------

    def _seek_time(self, target_sector: int) -> float:
        distance = abs(target_sector - self._head_sector)
        if distance == 0:
            return 0.0
        frac = distance / max(self.capacity_sectors, 1)
        return self.spec.settle_time + self.spec.seek_coefficient * math.sqrt(frac)

    def _rotational_latency(self) -> float:
        if self.rotational_jitter:
            if self._rng is None:
                self._rng = make_rng(self._seed)
            return float(self._rng.uniform(0.0, self.spec.rotation_time))
        return self.spec.mean_rotational_latency

    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        if not self.state.ready:
            raise StorageIOError(
                f"{self.name}: request while {self.state.value}; spin up first"
            )
        spec = self.spec
        # Streaming is an *address* property: the drive's track buffer /
        # write cache keeps the head on track across read/write switches
        # (the paper disabled the controller cache, not the drives').
        # Switching op type still pays the electronics turnaround.
        sequential = (
            self._last_end_sector is not None
            and package.sector == self._last_end_sector
        )
        turnaround = 0.0
        if self._last_op is not None and package.op != self._last_op:
            turnaround = (
                spec.read_to_write_turnaround
                if package.is_write
                else spec.write_to_read_turnaround
            )

        if sequential:
            seek = 0.0
            rotation = 0.0
        else:
            seek = self._seek_time(package.sector)
            rotation = self._rotational_latency()
            if package.is_write and spec.write_cache:
                # Write-back cached writes destage in sorted order; their
                # effective positioning cost is a fraction of a cold seek.
                seek *= spec.destage_seek_factor
                rotation *= spec.destage_seek_factor
            if seek > 0:
                self.seek_count += 1

        transfer = package.nbytes / spec.transfer_rate_at(package.sector)
        total = spec.command_overhead + turnaround + seek + rotation + transfer

        # Time-weighted mean power across the phases.  Command overhead and
        # turnaround are electronics-bound: billed at rotate-wait power.
        xfer_watts = spec.write_watts if package.is_write else spec.read_watts
        energy = (
            (spec.command_overhead + turnaround + rotation) * spec.rotate_wait_watts
            + seek * spec.seek_watts
            + transfer * xfer_watts
        )
        mean_watts = energy / total if total > 0 else spec.idle_watts

        self._head_sector = package.end_sector
        self._last_end_sector = package.end_sector
        self._last_op = package.op
        return total, mean_watts

    def prepare_service(self, sectors, nbytes, ops) -> "_HDDServicePlan":
        """Vectorized mirror of :meth:`_service` for the analytical kernel.

        Prepares the rows' order-independent service terms once, from
        the drive's current head/streaming state; the returned
        :class:`~repro.storage.base.ServicePlan` evaluates any serving
        order bit-identically to the scalar path.  Pure: call
        ``apply_state()`` on a 1-D ``plan.full(order)`` to commit the
        head cursor, streaming context, and ``seek_count``.
        """
        if not self.state.ready:
            raise StorageIOError(
                f"{self.name}: request while {self.state.value}; spin up first"
            )
        if self.rotational_jitter:
            raise StorageIOError(
                f"{self.name}: vectorized service requires deterministic "
                f"rotational latency (rotational_jitter draws per request)"
            )
        return _HDDServicePlan(self, sectors, nbytes, ops)

    def service_times(self, sectors, nbytes, ops) -> VectorService:
        """Serve the rows back-to-back in the given order (see
        :meth:`prepare_service`)."""
        plan = self.prepare_service(sectors, nbytes, ops)
        return plan.full(np.arange(plan.end_sectors.size))

    # -- Spin-down support (energy-saving extensions) ---------------------

    def spin_down(self) -> float:
        """Enter standby.  Returns the transition time.

        Only legal when the drive is idle with an empty queue; policies
        are responsible for checking.
        """
        sim = self._require_sim()
        if self._busy or self._queue:
            raise StorageIOError(f"{self.name}: cannot spin down while busy")
        if self.state == PowerState.STANDBY:
            return 0.0
        t = sim.now
        self.timeline.add_segment(t, t + self.spec.spindown_time, self.spec.idle_watts)
        self.timeline.set_baseline(t + self.spec.spindown_time, self.spec.standby_watts)
        self.state = PowerState.STANDBY
        self._transition_until = t + self.spec.spindown_time
        self._last_end_sector = None  # streaming context is lost
        self._last_op = None
        return self.spec.spindown_time

    def spin_up(self) -> float:
        """Leave standby.  Returns the transition time (~seconds).

        The caller must delay I/O submission by the returned time; the
        energy cost of the spin-up burst is recorded here.
        """
        sim = self._require_sim()
        if self.state != PowerState.STANDBY:
            return 0.0
        # A spin-up requested before the spin-down transition finished
        # begins when the platters have actually stopped.
        t = max(sim.now, getattr(self, "_transition_until", sim.now))
        self.timeline.set_baseline(t, self.spec.idle_watts)
        self.timeline.add_segment(t, t + self.spec.spinup_time, self.spec.spinup_watts)
        self.state = PowerState.SPINNING_UP
        ready_at = t + self.spec.spinup_time
        self._transition_until = ready_at

        def _ready() -> None:
            self.state = PowerState.IDLE

        sim.schedule(ready_at, _ready, priority=-1)
        return ready_at - sim.now


class _HDDServicePlan(ServicePlan):
    """:class:`HardDiskDrive` service terms for one set of requests.

    Every expression below is the scalar :meth:`HardDiskDrive._service`
    arithmetic, elementwise and in the same order.  Terms are split by
    what they depend on: the transfer time, the write-cache factors and
    the phase Watts depend on the request alone, so they are computed
    once here; streaming, turnaround and seek depend on the previous
    request served, so :meth:`_terms` evaluates them per order.  A
    term the scalar path skips is multiplied by a 0/1 mask instead
    (``x * 1.0 == x`` and ``x * 0.0 == 0.0`` exactly for finite
    ``x >= 0``), and ``command_overhead + 0.0`` is
    ``command_overhead``, so the split is bit-neutral.
    """

    def __init__(self, drive: HardDiskDrive, sectors, nbytes, ops) -> None:
        spec = drive.spec
        self.spec = spec
        self._drive = drive
        self.sectors = np.asarray(sectors, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        self.ops = np.asarray(ops, dtype=np.int64)
        self.end_sectors = self.sectors + -(-nbytes // SECTOR_BYTES)
        self.cursor_rows = np.ones(self.sectors.shape, dtype=bool)
        is_write = self.ops == WRITE
        # The drive's cursors at preparation, where column 0 of every
        # order starts (-1: no streaming context / no last op); a stack
        # keeps one entry per drive.
        last_end = drive._last_end_sector
        self._head = np.array([drive._head_sector])
        self._stream = np.array([-1 if last_end is None else last_end])
        self._last_op = np.array(
            [-1 if drive._last_op is None else drive._last_op]
        )
        self._cap = max(drive.capacity_sectors, 1)
        self._turnaround = np.where(
            is_write, spec.read_to_write_turnaround, spec.write_to_read_turnaround
        )
        rotation = np.full(is_write.shape, spec.mean_rotational_latency)
        self._destage = None
        if spec.write_cache:
            # Write-back cached writes; 1.0 leaves a read's seek as is.
            self._destage = np.where(is_write, spec.destage_seek_factor, 1.0)
            rotation = np.where(
                is_write, rotation * spec.destage_seek_factor, rotation
            )
        self._rotation = rotation
        frac = np.minimum(
            np.maximum(self.sectors / max(spec.capacity_sectors, 1), 0.0), 1.0
        )
        rate = spec.outer_rate - (spec.outer_rate - spec.inner_rate) * frac
        self._transfer = nbytes / rate
        self._xfer_watts = np.where(is_write, spec.write_watts, spec.read_watts)

    def _terms(self, order, after=None):
        """``(cost, seek, rotation, transfer, total, ends, ops)`` of the
        rows served in ``order``, where ``cost`` is ``command_overhead
        + turnaround`` (``after``: see :meth:`ServicePlan.seconds`)."""
        spec = self.spec
        order = np.asarray(order)
        sectors = np.take(self.sectors, order)
        ends = np.take(self.end_sectors, order)
        ops = np.take(self.ops, order)
        if not ends.shape[-1]:
            empty = np.empty(ends.shape)
            return empty, empty, empty, empty, empty, ends, ops
        # Seek distance from the head, which the scalar path always
        # leaves at the previous request's end sector; a request that
        # starts at the streaming end streams (no seek, no rotation).
        # Column 0 continues from its drive's cursors, or from the end
        # of prepared row ``after``, where that row's service left the
        # head, the streaming end and the last op.
        first = sectors[..., 0]
        own = self._owner(order[..., 0])
        head, stream = self._head[own], self._stream[own]
        last_op = self._last_op[own]
        if after is not None:
            resumed = after >= 0
            prior = np.maximum(after, 0)
            end = np.take(self.end_sectors, prior)
            head = np.where(resumed, end, head)
            stream = np.where(resumed, end, stream)
            last_op = np.where(resumed, np.take(self.ops, prior), last_op)
        distance = np.empty_like(sectors)
        np.subtract(sectors[..., 1:], ends[..., :-1], out=distance[..., 1:])
        distance[..., 0] = first - head
        np.abs(distance, out=distance)
        rotating = distance != 0
        rotating[..., 0] = first != stream
        seeking = rotating.copy()
        seeking[..., 0] &= distance[..., 0] != 0
        # Turnaround on op-type switches (paid even while streaming).
        switched = np.empty(ops.shape, dtype=bool)
        np.not_equal(ops[..., 1:], ops[..., :-1], out=switched[..., 1:])
        switched[..., 0] = (ops[..., 0] != last_op) & (last_op >= 0)
        cost = spec.command_overhead + np.take(self._turnaround, order) * switched
        seek = (
            spec.settle_time
            + spec.seek_coefficient * np.sqrt(distance / self._cap)
        ) * seeking
        if self._destage is not None:
            seek = seek * np.take(self._destage, order)
        rotation = np.take(self._rotation, order) * rotating
        transfer = np.take(self._transfer, order)
        total = cost + seek + rotation + transfer
        return cost, seek, rotation, transfer, total, ends, ops

    def seconds(self, order, after=None):
        return self._terms(order, after)[4]

    @classmethod
    def stack(cls, plans):
        """Drives of one spec concatenate; others price one by one."""
        spec, cap = plans[0].spec, plans[0]._cap
        if any(
            type(p) is not cls or p.spec != spec or p._cap != cap
            for p in plans
        ):
            return super().stack(plans)
        out = cls._concatenate(
            plans,
            ("sectors", "end_sectors", "ops", "_turnaround", "_rotation",
             "_transfer") + (("_destage",) if spec.write_cache else ()),
            ("_head", "_stream", "_last_op"),
        )
        out.spec, out._cap = spec, cap
        if not spec.write_cache:
            out._destage = None
        return out

    def full(self, order) -> VectorService:
        spec = self.spec
        cost, seek, rotation, transfer, total, ends, ops = self._terms(order)
        energy = (
            (cost + rotation) * spec.rotate_wait_watts
            + seek * spec.seek_watts
            + transfer * np.take(self._xfer_watts, order)
        )
        mean_watts = np.full(total.shape, spec.idle_watts)
        np.divide(energy, total, out=mean_watts, where=total > 0)
        if total.ndim > 1:
            return VectorService(total, mean_watts, no_row_state)
        if not total.size:
            return VectorService(total, mean_watts, lambda: None)
        drive = self._drive
        last_end = int(ends[-1])
        last_op = int(ops[-1])
        seeks = int(np.count_nonzero(seek > 0))

        def apply_state() -> None:
            drive._head_sector = last_end
            drive._last_end_sector = last_end
            drive._last_op = last_op
            drive.seek_count += seeks

        return VectorService(total, mean_watts, apply_state)

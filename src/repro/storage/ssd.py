"""Flash solid-state-drive model.

No moving parts: service time is a fixed access latency plus bytes over
the channel rate, with one twist — *random small writes* pay an FTL
read-modify-write overhead when they start mid-page or end mid-page
relative to the flash page size.  The penalty is small next to an HDD
seek (hundreds of microseconds vs. ~13 ms) but is what makes high random
ratios reduce SSD energy efficiency, the trend §VI-G reports.

Power is two-level per the spec: read power during reads, write power
during writes, idle otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..trace.record import IOPackage, WRITE
from ..units import SECTOR_BYTES
from .base import QueuedDevice, ServicePlan, VectorService, no_row_state
from .specs import SSDSpec, MEMORIGHT_SLC_32GB


class SolidStateDrive(QueuedDevice):
    """One simulated SSD."""

    def __init__(
        self,
        name: str = "ssd0",
        spec: SSDSpec = MEMORIGHT_SLC_32GB,
        discipline=None,
    ) -> None:
        super().__init__(name, idle_watts=spec.idle_watts, discipline=discipline)
        self.spec = spec
        # Per-stream cursors: the FTL appends writes into an open block
        # independent of where reads land, so read/write sequentiality
        # is tracked per op type (unlike a disk head).
        self._last_read_end: Optional[int] = None
        self._last_write_end: Optional[int] = None
        self.random_write_count = 0

    @property
    def capacity_sectors(self) -> int:
        return self.spec.capacity_sectors

    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        spec = self.spec
        if package.is_read:
            latency = spec.read_latency
            rate = spec.read_rate
            watts = spec.read_watts
            overhead = 0.0
            self._last_read_end = package.end_sector
        else:
            sequential = (
                self._last_write_end is not None
                and package.sector == self._last_write_end
            )
            latency = spec.write_latency
            rate = spec.write_rate
            watts = spec.write_watts
            overhead = 0.0
            # Non-sequential writes stall the (2008-era, block-mapped)
            # FTL: the drive must merge into an erase block.  Sequential
            # streams append into the open block and stay fast.
            if not sequential:
                overhead = spec.random_write_overhead
                self.random_write_count += 1
            self._last_write_end = package.end_sector

        transfer = package.nbytes / rate
        total = spec.command_overhead + latency + overhead + transfer

        # Non-transfer phases draw close to active power on an SSD (the
        # controller is the consumer); bill the whole service at op power.
        return total, watts

    def prepare_service(self, sectors, nbytes, ops) -> "_SSDServicePlan":
        """Vectorized mirror of :meth:`_service` for the analytical kernel.

        Same contract as :meth:`HardDiskDrive.prepare_service
        <repro.storage.hdd.HardDiskDrive.prepare_service>`: pure compute
        with scalar-ordered arithmetic (bit-identical results) for any
        serving order, and an ``apply_state`` callback on a 1-D
        ``plan.full(order)`` committing the FTL streaming cursors and
        ``random_write_count``.
        """
        return _SSDServicePlan(self, sectors, nbytes, ops)

    def service_times(self, sectors, nbytes, ops) -> VectorService:
        """Serve the rows back-to-back in the given order (see
        :meth:`prepare_service`)."""
        plan = self.prepare_service(sectors, nbytes, ops)
        return plan.full(np.arange(plan.end_sectors.size))


class _SSDServicePlan(ServicePlan):
    """:class:`SolidStateDrive` service terms for one set of requests.

    Latency, transfer and Watts depend on the request alone; only the
    random-write overhead depends on order, because write sequentiality
    is judged against the previous *write* served (reads interleave
    freely through the FTL).  The overhead is added as
    ``random_write_overhead * random`` (0/1 mask), which is the scalar
    path's ``0.0`` or overhead exactly.
    """

    def __init__(self, drive: SolidStateDrive, sectors, nbytes, ops) -> None:
        spec = drive.spec
        self._drive = drive
        self.sectors = np.asarray(sectors, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        self.end_sectors = self.sectors + -(-nbytes // SECTOR_BYTES)
        self.is_write = ops == WRITE
        self.cursor_rows = self.is_write
        # The drive's write stream at preparation, which column 0 of
        # every order continues (-1, below every sector: no FTL context,
        # so the first write is never sequential); a stack keeps one
        # entry per drive.
        last = drive._last_write_end
        self._stream = np.array([-1 if last is None else last])
        is_write = self.is_write
        latency = np.where(is_write, spec.write_latency, spec.read_latency)
        rate = np.where(is_write, spec.write_rate, spec.read_rate)
        self._watts = np.where(is_write, spec.write_watts, spec.read_watts)
        self._overhead = spec.random_write_overhead
        self._cost = spec.command_overhead + latency
        self._transfer = nbytes / rate

    def _random(self, order, after=None):
        """Writes served in ``order`` that do not continue the previous
        write's stream (they pay the FTL merge overhead); ``after``: see
        :meth:`ServicePlan.seconds`."""
        is_write = np.take(self.is_write, order)
        ends = np.take(self.end_sectors, order)
        k = is_write.shape[-1]
        if not k:
            return is_write
        # Index of the last write strictly before each column: a running
        # maximum over write column indices, shifted right.
        wpos = np.where(is_write, np.arange(k, dtype=np.int64), -1)
        last_w = np.maximum.accumulate(wpos, axis=-1)
        prev_w = np.empty_like(last_w)
        prev_w[..., 1:] = last_w[..., :-1]
        prev_w[..., 0] = -1
        gathered = np.take_along_axis(ends, np.maximum(prev_w, 0), axis=-1)
        dev_prev = self._stream[self._owner(np.asarray(order)[..., 0])]
        if after is not None:
            # Resumed rows continue the stream of prepared write ``after``.
            dev_prev = np.where(
                after >= 0, np.take(self.end_sectors, np.maximum(after, 0)),
                dev_prev,
            )
        dev_prev = np.asarray(dev_prev)[..., None]
        w_prev_end = np.where(prev_w >= 0, gathered, dev_prev)
        w_seq = is_write & (np.take(self.sectors, order) == w_prev_end)
        return is_write & ~w_seq

    def _total(self, order, random):
        cost = np.take(self._cost, order) + self._overhead * random
        return cost + np.take(self._transfer, order)

    def seconds(self, order, after=None):
        return self._total(order, self._random(order, after))

    @classmethod
    def stack(cls, plans):
        """Drives of one merge overhead concatenate; others price one
        by one."""
        overhead = plans[0]._overhead
        if any(type(p) is not cls or p._overhead != overhead for p in plans):
            return super().stack(plans)
        out = cls._concatenate(
            plans,
            ("sectors", "end_sectors", "is_write", "_cost", "_transfer"),
            ("_stream",),
        )
        out._overhead = overhead
        return out

    def full(self, order) -> VectorService:
        random = self._random(order)
        total = self._total(order, random)
        watts = np.take(self._watts, order)
        if total.ndim > 1:
            return VectorService(total, watts, no_row_state)
        is_write = np.take(self.is_write, order)
        ends = np.take(self.end_sectors, order)
        r_idx = np.flatnonzero(~is_write)
        w_idx = np.flatnonzero(is_write)
        last_read_end = int(ends[r_idx[-1]]) if r_idx.size else None
        last_write_end = int(ends[w_idx[-1]]) if w_idx.size else None
        rand_writes = int(np.count_nonzero(random))
        drive = self._drive

        def apply_state() -> None:
            if last_read_end is not None:
                drive._last_read_end = last_read_end
            if last_write_end is not None:
                drive._last_write_end = last_write_end
            drive.random_write_count += rand_writes

        return VectorService(total, watts, apply_state)

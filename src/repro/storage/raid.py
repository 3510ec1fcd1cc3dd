"""RAID geometry: logical-extent → per-disk sub-I/O mapping.

Pure address arithmetic, independent of the simulator, so it is testable
exhaustively (property tests verify coverage/non-overlap invariants).

Supported levels:

* **RAID-0** — striping, no redundancy;
* **RAID-1** — mirroring (reads round-robin, writes fan out);
* **RAID-5** — rotating parity (left-asymmetric layout).  Writes that
  cover a full stripe compute parity in-memory and write everything in
  one pass; partial-stripe writes pay the classic read-modify-write:
  read old data + old parity, then write new data + new parity.  The
  RMW penalty is why small random writes on the paper's RAID-5 array are
  so expensive.
* **JBOD** — single-disk passthrough (used by calibration benches).

The paper's array: RAID-5, strip size 128 KB (Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

import numpy as np

from ..errors import StorageConfigError
from ..trace.record import READ, WRITE, IOPackage
from ..units import SECTOR_BYTES


class RaidLevel(Enum):
    JBOD = "jbod"
    RAID0 = "raid0"
    RAID1 = "raid1"
    RAID5 = "raid5"
    RAID10 = "raid10"


@dataclass(frozen=True)
class SubIO:
    """One per-disk operation derived from a logical request."""

    disk: int
    sector: int
    nbytes: int
    op: int

    def to_package(self) -> IOPackage:
        return IOPackage(self.sector, self.nbytes, self.op)


@dataclass(frozen=True)
class IOPlan:
    """Execution plan: ``pre`` (reads) must finish before ``post`` issues.

    Plain reads and full-stripe writes have an empty ``pre`` phase.
    ``reconstruct_reads`` counts the read sub-I/Os a degraded plan issues
    purely to reconstruct data or parity for the failed member (survivor
    reads standing in for a failed-chunk read, and the row reads of a
    reconstruct-write); it is 0 for every clean-mode plan.
    """

    pre: Tuple[SubIO, ...]
    post: Tuple[SubIO, ...]
    reconstruct_reads: int = 0

    @property
    def total_ops(self) -> int:
        return len(self.pre) + len(self.post)


@dataclass(frozen=True)
class _Chunk:
    """A strip-aligned fragment of the logical extent."""

    strip_index: int
    offset_bytes: int   # within the strip
    nbytes: int


class RaidGeometry:
    """Address mapping for one array configuration.

    Parameters
    ----------
    n_disks:
        Member disk count (RAID-5 needs ≥3, RAID-1 exactly 2, JBOD 1).
    strip_bytes:
        Strip (chunk) size per disk; the paper uses 128 KB.
    disk_sectors:
        Capacity of each member disk.
    """

    def __init__(
        self,
        level: RaidLevel,
        n_disks: int,
        strip_bytes: int,
        disk_sectors: int,
    ) -> None:
        if strip_bytes <= 0 or strip_bytes % SECTOR_BYTES:
            raise StorageConfigError(
                f"strip_bytes must be a positive multiple of {SECTOR_BYTES}, "
                f"got {strip_bytes}"
            )
        if disk_sectors <= 0:
            raise StorageConfigError(f"disk_sectors must be > 0, got {disk_sectors}")
        minimum = {
            RaidLevel.JBOD: 1,
            RaidLevel.RAID0: 2,
            RaidLevel.RAID1: 2,
            RaidLevel.RAID5: 3,
            RaidLevel.RAID10: 4,
        }[level]
        if n_disks < minimum:
            raise StorageConfigError(
                f"{level.value} needs >= {minimum} disks, got {n_disks}"
            )
        if level is RaidLevel.RAID1 and n_disks != 2:
            raise StorageConfigError(f"raid1 supports exactly 2 disks, got {n_disks}")
        if level is RaidLevel.JBOD and n_disks != 1:
            raise StorageConfigError(f"jbod is single-disk, got {n_disks}")
        if level is RaidLevel.RAID10 and n_disks % 2:
            raise StorageConfigError(
                f"raid10 needs an even disk count, got {n_disks}"
            )
        self.level = level
        self.n_disks = n_disks
        self.strip_bytes = strip_bytes
        # Usable member capacity truncates to whole strips (as real
        # controllers do) so no stripe row ever spills past the disk.
        strip_sectors = strip_bytes // SECTOR_BYTES
        self.disk_sectors = (disk_sectors // strip_sectors) * strip_sectors
        if self.disk_sectors <= 0:
            raise StorageConfigError(
                f"members of {disk_sectors} sectors cannot hold one "
                f"{strip_bytes}-byte strip"
            )
        self._mirror_next = 0

    # -- Capacity ----------------------------------------------------------

    @property
    def data_disks(self) -> int:
        """Disks' worth of addressable data."""
        if self.level is RaidLevel.RAID5:
            return self.n_disks - 1
        if self.level is RaidLevel.RAID1:
            return 1
        if self.level is RaidLevel.RAID10:
            return self.n_disks // 2
        return self.n_disks

    @property
    def capacity_sectors(self) -> int:
        return self.data_disks * self.disk_sectors

    @property
    def strip_sectors(self) -> int:
        return self.strip_bytes // SECTOR_BYTES

    # -- Internal helpers ---------------------------------------------------

    def _chunks(self, package: IOPackage) -> List[_Chunk]:
        """Split the logical byte extent into strip-aligned chunks."""
        start = package.sector * SECTOR_BYTES
        remaining = package.nbytes
        chunks: List[_Chunk] = []
        while remaining > 0:
            strip_index = start // self.strip_bytes
            offset = start % self.strip_bytes
            take = min(self.strip_bytes - offset, remaining)
            chunks.append(_Chunk(strip_index, offset, take))
            start += take
            remaining -= take
        return chunks

    def parity_disk(self, row: int) -> int:
        """RAID-5 parity disk for stripe ``row`` (rotating, left layout)."""
        return (self.n_disks - 1) - (row % self.n_disks)

    def _raid5_place(self, strip_index: int) -> Tuple[int, int]:
        """Map a data strip index to (disk, row)."""
        per_row = self.n_disks - 1
        row = strip_index // per_row
        position = strip_index % per_row
        pdisk = self.parity_disk(row)
        disk = position if position < pdisk else position + 1
        return disk, row

    def _chunk_sub_io(self, chunk: _Chunk, disk: int, row: int, op: int) -> SubIO:
        sector = row * self.strip_sectors + chunk.offset_bytes // SECTOR_BYTES
        return SubIO(disk=disk, sector=sector, nbytes=chunk.nbytes, op=op)

    # -- Planning ------------------------------------------------------------

    def plan(self, package: IOPackage) -> IOPlan:
        """Build the per-disk execution plan for a logical request."""
        if package.end_sector > self.capacity_sectors:
            raise StorageConfigError(
                f"request {package} exceeds array capacity "
                f"{self.capacity_sectors} sectors"
            )
        if self.level is RaidLevel.JBOD:
            return IOPlan(
                pre=(),
                post=(SubIO(0, package.sector, package.nbytes, package.op),),
            )
        if self.level is RaidLevel.RAID0:
            return self._plan_raid0(package)
        if self.level is RaidLevel.RAID1:
            return self._plan_raid1(package)
        if self.level is RaidLevel.RAID10:
            return self._plan_raid10(package)
        return self._plan_raid5(package)

    def _plan_raid0(self, package: IOPackage) -> IOPlan:
        subs = []
        for chunk in self._chunks(package):
            disk = chunk.strip_index % self.n_disks
            row = chunk.strip_index // self.n_disks
            subs.append(self._chunk_sub_io(chunk, disk, row, package.op))
        return IOPlan(pre=(), post=tuple(subs))

    def _plan_raid1(self, package: IOPackage) -> IOPlan:
        if package.op == READ:
            # Round-robin reads across the mirror pair.
            disk = self._mirror_next
            self._mirror_next = 1 - self._mirror_next
            return IOPlan(
                pre=(),
                post=(SubIO(disk, package.sector, package.nbytes, READ),),
            )
        return IOPlan(
            pre=(),
            post=tuple(
                SubIO(d, package.sector, package.nbytes, WRITE)
                for d in range(self.n_disks)
            ),
        )

    def _plan_raid10(self, package: IOPackage) -> IOPlan:
        """Stripe across mirror pairs: pair ``p`` is disks (2p, 2p+1).

        Reads alternate between the two members of the owning pair;
        writes go to both.
        """
        n_pairs = self.n_disks // 2
        subs: List[SubIO] = []
        for chunk in self._chunks(package):
            pair = chunk.strip_index % n_pairs
            row = chunk.strip_index // n_pairs
            if package.op == READ:
                member = 2 * pair + self._mirror_next
                self._mirror_next = 1 - self._mirror_next
                subs.append(self._chunk_sub_io(chunk, member, row, READ))
            else:
                subs.append(
                    self._chunk_sub_io(chunk, 2 * pair, row, WRITE)
                )
                subs.append(
                    self._chunk_sub_io(chunk, 2 * pair + 1, row, WRITE)
                )
        return IOPlan(pre=(), post=tuple(subs))

    def _plan_raid5(self, package: IOPackage) -> IOPlan:
        chunks = self._chunks(package)
        if package.op == READ:
            subs = []
            for chunk in chunks:
                disk, row = self._raid5_place(chunk.strip_index)
                subs.append(self._chunk_sub_io(chunk, disk, row, READ))
            return IOPlan(pre=(), post=tuple(subs))

        # Writes: group chunks per stripe row.
        per_row = self.n_disks - 1
        rows: Dict[int, List[_Chunk]] = {}
        for chunk in chunks:
            rows.setdefault(chunk.strip_index // per_row, []).append(chunk)
        return self._plan_raid5_write_rows(rows)

    def _plan_raid5_write_rows(self, rows: Dict[int, List[_Chunk]]) -> IOPlan:
        per_row = self.n_disks - 1
        pre: List[SubIO] = []
        post: List[SubIO] = []
        for row, row_chunks in sorted(rows.items()):
            pdisk = self.parity_disk(row)
            covered = sum(c.nbytes for c in row_chunks)
            full_stripe = covered == per_row * self.strip_bytes
            # Parity extent spans the union of the row's data extents.
            lo = min(c.offset_bytes for c in row_chunks)
            hi = max(c.offset_bytes + c.nbytes for c in row_chunks)
            parity_sector = row * self.strip_sectors + lo // SECTOR_BYTES
            parity_nbytes = hi - lo
            if not full_stripe:
                # Read-modify-write: old data + old parity first.
                for chunk in row_chunks:
                    disk, _ = self._raid5_place(chunk.strip_index)
                    pre.append(self._chunk_sub_io(chunk, disk, row, READ))
                pre.append(SubIO(pdisk, parity_sector, parity_nbytes, READ))
            for chunk in row_chunks:
                disk, _ = self._raid5_place(chunk.strip_index)
                post.append(self._chunk_sub_io(chunk, disk, row, WRITE))
            post.append(SubIO(pdisk, parity_sector, parity_nbytes, WRITE))
        return IOPlan(pre=tuple(pre), post=tuple(post))

    # -- Degraded mode (one failed member) ---------------------------------

    def plan_degraded(self, package: IOPackage, failed_disk: int) -> IOPlan:
        """Plan a request with one member disk failed (RAID-5 only).

        * Reads of surviving chunks proceed normally; a chunk on the
          failed disk is *reconstructed* by reading the same extent
          from every other member of the stripe (data + parity).
        * Writes use reconstruct-write: read the row's surviving strips
          that are not being overwritten, then write the surviving
          target chunks plus (when the parity disk survives) the new
          parity.  No sub-I/O ever targets the failed disk.
        """
        if self.level is not RaidLevel.RAID5:
            raise StorageConfigError(
                f"degraded planning requires raid5, not {self.level.value}"
            )
        if not 0 <= failed_disk < self.n_disks:
            raise StorageConfigError(
                f"failed_disk {failed_disk} out of range [0, {self.n_disks})"
            )
        if package.end_sector > self.capacity_sectors:
            raise StorageConfigError(
                f"request {package} exceeds array capacity "
                f"{self.capacity_sectors} sectors"
            )
        chunks = self._chunks(package)
        if package.op == READ:
            return self._plan_degraded_read(chunks, failed_disk)
        return self._plan_degraded_write(chunks, failed_disk)

    def _row_extent(self, chunks: List[_Chunk]) -> Tuple[int, int]:
        lo = min(c.offset_bytes for c in chunks)
        hi = max(c.offset_bytes + c.nbytes for c in chunks)
        return lo, hi

    def _plan_degraded_read(
        self, chunks: List[_Chunk], failed_disk: int
    ) -> IOPlan:
        subs: List[SubIO] = []
        reconstruct_reads = 0
        for chunk in chunks:
            disk, row = self._raid5_place(chunk.strip_index)
            if disk != failed_disk:
                subs.append(self._chunk_sub_io(chunk, disk, row, READ))
                continue
            # Reconstruct: read the same in-strip extent from every
            # surviving member of the stripe (other data strips + parity).
            sector = (
                row * self.strip_sectors + chunk.offset_bytes // SECTOR_BYTES
            )
            for other in range(self.n_disks):
                if other == failed_disk:
                    continue
                subs.append(SubIO(other, sector, chunk.nbytes, READ))
                reconstruct_reads += 1
        return IOPlan(
            pre=(), post=tuple(subs), reconstruct_reads=reconstruct_reads
        )

    def _plan_degraded_write(
        self, chunks: List[_Chunk], failed_disk: int
    ) -> IOPlan:
        per_row = self.n_disks - 1
        rows: Dict[int, List[_Chunk]] = {}
        for chunk in chunks:
            rows.setdefault(chunk.strip_index // per_row, []).append(chunk)

        pre: List[SubIO] = []
        post: List[SubIO] = []
        for row, row_chunks in sorted(rows.items()):
            pdisk = self.parity_disk(row)
            lo, hi = self._row_extent(row_chunks)
            sector = row * self.strip_sectors + lo // SECTOR_BYTES
            nbytes = hi - lo
            written_disks = set()
            for chunk in row_chunks:
                disk, _ = self._raid5_place(chunk.strip_index)
                written_disks.add(disk)
                if disk != failed_disk:
                    post.append(self._chunk_sub_io(chunk, disk, row, WRITE))
            parity_survives = pdisk != failed_disk
            # Reconstruct-write: read every surviving strip of the row
            # that is not fully covered by this write, so the new
            # parity reflects the whole row.  (When parity itself is
            # the casualty there is nothing to maintain.)
            if parity_survives:
                for other in range(self.n_disks):
                    if other == pdisk or other == failed_disk:
                        continue
                    if other in written_disks:
                        continue
                    pre.append(SubIO(other, sector, nbytes, READ))
                post.append(SubIO(pdisk, sector, nbytes, WRITE))
        return IOPlan(
            pre=tuple(pre), post=tuple(post), reconstruct_reads=len(pre)
        )

    def rebuild_rows(self) -> int:
        """Number of stripe rows a full rebuild must reconstruct."""
        return -(-self.disk_sectors // self.strip_sectors)

    def plan_rebuild_row(self, row: int, failed_disk: int) -> IOPlan:
        """One rebuild step: read the row from all survivors, write the
        reconstructed strip to the replacement disk (same index)."""
        if self.level is not RaidLevel.RAID5:
            raise StorageConfigError("rebuild requires raid5")
        sector = row * self.strip_sectors
        nbytes = min(
            self.strip_bytes,
            (self.disk_sectors - sector) * SECTOR_BYTES,
        )
        if nbytes <= 0:
            raise StorageConfigError(f"row {row} beyond disk capacity")
        pre = tuple(
            SubIO(other, sector, nbytes, READ)
            for other in range(self.n_disks)
            if other != failed_disk
        )
        post = (SubIO(failed_disk, sector, nbytes, WRITE),)
        return IOPlan(pre=pre, post=post)


# ---------------------------------------------------------------------------
# Vectorized clean-mode planning (shared by the analytical kernel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlightExpansion:
    """Closed-form :meth:`RaidGeometry.plan` over many requests at once.

    Sub-I/Os are laid out flight-major in *plan order* — for each flight
    the ``pre`` tuple first, then the ``post`` tuple, each exactly as
    the scalar planner emits them.  All columns are int64, so equality
    with the Python loop is exact (property-tested in
    ``tests/property/test_property_raid_vector.py``).
    """

    flight_offsets: np.ndarray  # (n + 1,) CSR offsets into the sub columns
    sub_flight: np.ndarray  # (total,) owning flight per sub-I/O
    disk: np.ndarray  # (total,) member disk index
    sector: np.ndarray  # (total,) member sector
    nbytes: np.ndarray  # (total,)
    op: np.ndarray  # (total,) READ/WRITE
    is_pre: np.ndarray  # (total,) bool: True for pre-phase reads
    pre_counts: np.ndarray  # (n,) pre-phase sub-I/Os per flight

    @property
    def total(self) -> int:
        return int(self.flight_offsets[-1])

    @property
    def has_pre(self) -> bool:
        return bool(self.pre_counts.any())


def expand_flights(
    geom: RaidGeometry,
    sectors: np.ndarray,
    nbytes: np.ndarray,
    ops: np.ndarray,
) -> FlightExpansion:
    """Vectorize :meth:`RaidGeometry.plan` over CSR request columns.

    Supports the kernel-capable clean-mode levels: JBOD, RAID-0 (any op
    mix) and RAID-5 — including writes, which expand to the scalar
    planner's full-stripe (in-memory parity, no pre-reads) or partial
    stripe read-modify-write (pre-read old data chunks + old parity over
    the row's union extent, then write new data + new parity) plans.
    """
    sectors = np.asarray(sectors, dtype=np.int64)
    nbytes = np.asarray(nbytes, dtype=np.int64)
    ops = np.asarray(ops, dtype=np.int64)
    n = sectors.size
    no_pre = np.zeros(n, dtype=np.int64)
    if geom.level is RaidLevel.JBOD:
        flight_offsets = np.arange(n + 1, dtype=np.int64)
        return FlightExpansion(
            flight_offsets,
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            sectors,
            nbytes,
            ops,
            np.zeros(n, dtype=bool),
            no_pre,
        )
    if geom.level not in (RaidLevel.RAID0, RaidLevel.RAID5):
        raise StorageConfigError(
            f"vectorized planning supports jbod/raid0/raid5, "
            f"not {geom.level.value}"
        )

    # Strip-aligned chunk expansion — the closed form of ``_chunks``.
    strip = geom.strip_bytes
    start_bytes = sectors * SECTOR_BYTES
    off = start_bytes % strip
    nch = (off + nbytes + strip - 1) // strip
    chunk_offsets = np.concatenate(([0], np.cumsum(nch))).astype(np.int64)
    totc = int(chunk_offsets[-1])
    c_flight = np.repeat(np.arange(n, dtype=np.int64), nch)
    j = np.arange(totc, dtype=np.int64) - np.repeat(chunk_offsets[:-1], nch)
    si = (start_bytes // strip)[c_flight] + j
    chunk_start = np.maximum(start_bytes[c_flight], si * strip)
    chunk_end = np.minimum((start_bytes + nbytes)[c_flight], (si + 1) * strip)
    c_nbytes = chunk_end - chunk_start
    c_off = chunk_start - si * strip

    if geom.level is RaidLevel.RAID0:
        disk = si % geom.n_disks
        row = si // geom.n_disks
        sector = row * geom.strip_sectors + c_off // SECTOR_BYTES
        return FlightExpansion(
            chunk_offsets, c_flight, disk, sector, c_nbytes,
            ops[c_flight], np.zeros(totc, dtype=bool), no_pre,
        )

    # RAID-5: left-asymmetric rotating parity data placement.
    per_row = geom.n_disks - 1
    row = si // per_row
    pos = si % per_row
    pdisk = (geom.n_disks - 1) - (row % geom.n_disks)
    d_disk = pos + (pos >= pdisk)
    d_sector = row * geom.strip_sectors + c_off // SECTOR_BYTES

    wmask = (ops == WRITE)[c_flight]
    if not bool(wmask.any()):
        return FlightExpansion(
            chunk_offsets, c_flight, d_disk, d_sector, c_nbytes,
            ops[c_flight], np.zeros(totc, dtype=bool), no_pre,
        )

    # Write chunks group per (flight, stripe row).  Chunks ascend the
    # strip index, so rows are already in the scalar planner's
    # ``sorted(rows.items())`` order and groups are contiguous runs.
    widx = np.flatnonzero(wmask)
    wf = c_flight[widx]
    wr = row[widx]
    wk = widx.size
    new = np.empty(wk, dtype=bool)
    new[0] = True
    new[1:] = (wf[1:] != wf[:-1]) | (wr[1:] != wr[:-1])
    gstart = np.flatnonzero(new)
    gid = np.cumsum(new) - 1
    gcnt = np.diff(np.append(gstart, wk)).astype(np.int64)
    gflight = wf[gstart]
    grow = wr[gstart]
    covered = np.add.reduceat(c_nbytes[widx], gstart)
    glo = np.minimum.reduceat(c_off[widx], gstart)
    ghi = np.maximum.reduceat((c_off + c_nbytes)[widx], gstart)
    partial = covered != per_row * strip
    gpdisk = (geom.n_disks - 1) - (grow % geom.n_disks)
    gpsector = grow * geom.strip_sectors + glo // SECTOR_BYTES
    gpnbytes = ghi - glo
    q = np.arange(wk, dtype=np.int64) - gstart[gid]

    # Closed-form placement.  A write flight's plan is its pre block —
    # per partial row group, in row order: old data chunks, then the
    # old parity extent — followed by its post block: per row group,
    # new data chunks, then the new parity extent.  A read flight's
    # plan is its chunks in order.  Each group's offset inside its
    # flight's block is an exclusive running sum restarted at the
    # flight's first group.
    gsize = gcnt + 1
    pre_size = np.where(partial, gsize, 0)
    fstart = np.flatnonzero(np.append(True, gflight[1:] != gflight[:-1]))
    first = np.repeat(fstart, np.diff(np.append(fstart, gflight.size)))
    pre_run = np.cumsum(pre_size) - pre_size
    post_run = np.cumsum(gsize) - gsize
    wflights = gflight[fstart]
    pre_counts = np.zeros(n, dtype=np.int64)
    pre_counts[wflights] = np.add.reduceat(pre_size, fstart)
    counts = nch.astype(np.int64)
    counts[wflights] = pre_counts[wflights] + np.add.reduceat(gsize, fstart)
    flight_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    pre_base = flight_offsets[gflight] + (pre_run - pre_run[first])
    post_base = (
        flight_offsets[gflight] + pre_counts[gflight] + (post_run - post_run[first])
    )

    total = int(flight_offsets[-1])
    disk_out = np.empty(total, dtype=np.int64)
    sector_out = np.empty(total, dtype=np.int64)
    nb_out = np.empty(total, dtype=np.int64)
    op_out = np.empty(total, dtype=np.int64)
    is_pre = np.empty(total, dtype=bool)
    ppre = np.flatnonzero(partial)  # partial (RMW) groups
    dpre = np.flatnonzero(partial[gid])  # their data chunks
    ridx = np.flatnonzero(~wmask)  # read-flight chunks
    w_disk, w_sector, w_nb = d_disk[widx], d_sector[widx], c_nbytes[widx]
    for pos, disk, sector, nb, op, pre in (
        # Read flights: plain data placement, chunk order.
        (
            flight_offsets[c_flight[ridx]] + j[ridx],
            d_disk[ridx], d_sector[ridx], c_nbytes[ridx], READ, False,
        ),
        # RMW pre: old data chunks, then the old parity extent.
        (
            pre_base[gid[dpre]] + q[dpre],
            w_disk[dpre], w_sector[dpre], w_nb[dpre], READ, True,
        ),
        (
            pre_base[ppre] + gcnt[ppre],
            gpdisk[ppre], gpsector[ppre], gpnbytes[ppre], READ, True,
        ),
        # Post: new data chunks, then the new parity extent (all rows).
        (post_base[gid] + q, w_disk, w_sector, w_nb, WRITE, False),
        (post_base + gcnt, gpdisk, gpsector, gpnbytes, WRITE, False),
    ):
        disk_out[pos] = disk
        sector_out[pos] = sector
        nb_out[pos] = nb
        op_out[pos] = op
        is_pre[pos] = pre
    return FlightExpansion(
        flight_offsets,
        np.repeat(np.arange(n, dtype=np.int64), counts),
        disk_out,
        sector_out,
        nb_out,
        op_out,
        is_pre,
        pre_counts,
    )

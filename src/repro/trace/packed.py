"""Columnar trace representation: the one trace form in execution.

:class:`PackedTrace` stores a whole trace as three NumPy arrays instead
of nested Python objects:

* ``packages`` — one contiguous structured table, a row per IO_package
  (``sector`` i8, ``nbytes`` i8, ``op`` i1), in bunch order;
* ``offsets`` — CSR-style int64 array of length ``n_bunches + 1``;
  bunch *i* owns rows ``packages[offsets[i]:offsets[i + 1]]``;
* ``timestamps`` — float64 arrival time of each bunch in seconds.

A multi-hundred-MB trace like cello99 becomes a few flat buffers, so the
proportional filter, the time scaler, and the statistics pass run as
vectorised array operations instead of per-object loops.  The object
:class:`~repro.trace.record.Trace` stays the construction and inspection
surface; every entry point (replay session, grid, sweep, multi-array
evaluation, fleet admission) calls :func:`pack` once, and everything past
it — filter, time scale, replay engine, kernel, grid — takes only a
:class:`PackedTrace`.  Conversion both ways is lossless.

Columns are widened from the on-disk layout (u8/u4/u1) to int64/int64/int8
so that downstream arithmetic — extent sweeps, byte totals, sequentiality
tests — happens in exact integer types.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from ..errors import TraceValidationError
from .record import Bunch, IOPackage, Trace

#: In-memory columnar package layout (widened from the disk layout).
PACKED_PACKAGE_DTYPE = np.dtype(
    [("sector", "<i8"), ("nbytes", "<i8"), ("op", "i1")]
)


class PackedTrace:
    """An immutable columnar trace.

    Construct via :meth:`from_trace`, :func:`repro.trace.blktrace.loads_packed`,
    or :meth:`repro.trace.reader.TraceReader.read_packed`; build derived
    traces with :meth:`select` / :meth:`with_timestamps` (both vectorised).
    """

    __slots__ = ("timestamps", "offsets", "packages", "label")

    def __init__(
        self,
        timestamps: np.ndarray,
        offsets: np.ndarray,
        packages: np.ndarray,
        label: str = "",
        validate: bool = True,
    ) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if packages.dtype != PACKED_PACKAGE_DTYPE:
            widened = np.empty(len(packages), dtype=PACKED_PACKAGE_DTYPE)
            for name in ("sector", "nbytes", "op"):
                widened[name] = packages[name]
            packages = widened
        self.packages = packages
        self.label = label
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.timestamps)
        if self.offsets.shape != (n + 1,):
            raise TraceValidationError(
                f"offsets must have length n_bunches + 1 = {n + 1}, "
                f"got {self.offsets.shape}"
            )
        if n and self.offsets[0] != 0:
            raise TraceValidationError("offsets must start at 0")
        if len(self.offsets) and self.offsets[-1] != len(self.packages):
            raise TraceValidationError(
                f"offsets end at {self.offsets[-1]} but package table has "
                f"{len(self.packages)} rows"
            )
        sizes = np.diff(self.offsets)
        if np.any(sizes <= 0):
            raise TraceValidationError("a bunch must contain at least one IOPackage")
        if n and (not np.all(np.isfinite(self.timestamps)) or self.timestamps.min() < 0):
            raise TraceValidationError("bunch timestamps must be finite and >= 0")
        if len(self.packages):
            if self.packages["sector"].min() < 0:
                raise TraceValidationError("sector must be >= 0")
            if self.packages["nbytes"].min() <= 0:
                raise TraceValidationError("nbytes must be > 0")
            op = self.packages["op"]
            if np.any((op != 0) & (op != 1)):
                raise TraceValidationError("op must be READ(0) or WRITE(1)")

    # ------------------------------------------------------------------
    # conversion

    @classmethod
    def from_trace(cls, trace: Trace) -> "PackedTrace":
        """Pack an object trace (lossless).  Each column is stored from
        one Python list in one bulk conversion — cheaper than a store per
        element, or one ``np.array`` of row tuples."""
        bunches = trace.bunches
        timestamps = np.array([b.timestamp for b in bunches], dtype=np.float64)
        offsets = np.zeros(len(bunches) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(b.packages) for b in bunches])
        pkgs = [pkg for bunch in bunches for pkg in bunch.packages]
        packages = np.empty(len(pkgs), dtype=PACKED_PACKAGE_DTYPE)
        try:
            packages["sector"] = [pkg.sector for pkg in pkgs]
            packages["nbytes"] = [pkg.nbytes for pkg in pkgs]
        except OverflowError as exc:
            raise TraceValidationError(
                "sector and nbytes must be < 2**63 to be packed"
            ) from exc
        packages["op"] = [pkg.op for pkg in pkgs]
        return cls(timestamps, offsets, packages, label=trace.label, validate=False)

    def to_trace(self) -> Trace:
        """Unpack into the object model (lossless)."""
        rows = self.packages.tolist()
        offsets = self.offsets.tolist()
        timestamps = self.timestamps.tolist()
        fast_pkg = IOPackage._from_validated
        fast_bunch = Bunch._from_validated
        bunches = [
            fast_bunch(
                timestamps[i],
                tuple(
                    fast_pkg(s, n, o) for s, n, o in rows[offsets[i]:offsets[i + 1]]
                ),
            )
            for i in range(len(timestamps))
        ]
        return Trace(bunches, label=self.label)

    # ------------------------------------------------------------------
    # bulk accessors (mirror Trace's API)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def package_count(self) -> int:
        return len(self.packages)

    @property
    def nbytes(self) -> int:
        """Total bytes transferred by the whole trace."""
        return int(self.packages["nbytes"].sum()) if len(self.packages) else 0

    @property
    def duration(self) -> float:
        if len(self.timestamps) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def bunch_sizes(self) -> np.ndarray:
        """Packages per bunch (int64, length ``len(self)``)."""
        return np.diff(self.offsets)

    def bunch(self, i: int) -> Bunch:
        """Materialise bunch ``i`` as a legacy object (compat accessor)."""
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"bunch index {i} out of range")
        o0, o1 = int(self.offsets[i]), int(self.offsets[i + 1])
        fast_pkg = IOPackage._from_validated
        packages = tuple(
            fast_pkg(s, n, o) for s, n, o in self.packages[o0:o1].tolist()
        )
        return Bunch._from_validated(float(self.timestamps[i]), packages)

    def iter_bunches(self) -> Iterator[Bunch]:
        """Iterate legacy bunch objects (compat path; materialises lazily)."""
        for i in range(len(self)):
            yield self.bunch(i)

    def __iter__(self) -> Iterator[Bunch]:
        return self.iter_bunches()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (
            np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.packages, other.packages)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedTrace(label={self.label!r}, bunches={len(self)}, "
            f"packages={self.package_count}, duration={self.duration:.3f}s)"
        )

    # ------------------------------------------------------------------
    # vectorised derivations

    def select(
        self,
        which: np.ndarray,
        label: Optional[str] = None,
    ) -> "PackedTrace":
        """Return a new trace keeping the bunches marked by ``which``.

        ``which`` is either a boolean mask over bunches or an array of
        bunch indices (must be sorted and unique to preserve order).
        The whole operation is a pair of NumPy gathers — no per-bunch
        Python loop.
        """
        which = np.asarray(which)
        if which.dtype == bool:
            idx = np.flatnonzero(which)
        else:
            idx = which.astype(np.int64, copy=False)
        counts = self.offsets[idx + 1] - self.offsets[idx]
        new_offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_offsets[1:])
        total = int(new_offsets[-1])
        # Flat package rows: for each kept bunch, its run of row indices.
        starts = np.repeat(self.offsets[idx] - new_offsets[:-1], counts)
        rows = starts + np.arange(total, dtype=np.int64)
        return PackedTrace(
            self.timestamps[idx],
            new_offsets,
            self.packages[rows],
            label=self.label if label is None else label,
            validate=False,
        )

    def with_timestamps(
        self, timestamps: np.ndarray, label: Optional[str] = None
    ) -> "PackedTrace":
        """Return a copy sharing package data but with new bunch times."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if timestamps.shape != self.timestamps.shape:
            raise TraceValidationError(
                f"timestamp array must have shape {self.timestamps.shape}, "
                f"got {timestamps.shape}"
            )
        if len(timestamps) and (
            not np.all(np.isfinite(timestamps)) or timestamps.min() < 0
        ):
            raise TraceValidationError("bunch timestamps must be finite and >= 0")
        return PackedTrace(
            timestamps,
            self.offsets,
            self.packages,
            label=self.label if label is None else label,
            validate=False,
        )

    def with_label(self, label: str) -> "PackedTrace":
        """Return a copy (sharing all arrays) under a new label."""
        return PackedTrace(
            self.timestamps, self.offsets, self.packages, label=label, validate=False
        )


#: Anything an entry point accepts as a trace (packed by :func:`pack`).
TraceLike = Union[Trace, PackedTrace]


def pack(trace: TraceLike) -> PackedTrace:
    """Coerce to the packed representation (no-op when already packed)."""
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_trace(trace)


def unpack(trace: TraceLike) -> Trace:
    """Coerce to the object representation."""
    if isinstance(trace, PackedTrace):
        return trace.to_trace()
    return trace

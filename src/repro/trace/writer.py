"""Streaming trace writer.

The trace collector produces bunches one at a time while a workload runs;
buffering an entire multi-minute trace before writing would double peak
memory.  :class:`TraceWriter` appends bunches incrementally and patches
the header's bunch count on close.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..errors import TraceValidationError
from .blktrace import MAGIC, VERSION, _HEADER, _encode_body
from .packed import PackedTrace
from .record import Bunch, Trace

PathLike = Union[str, Path]


class TraceWriter:
    """Incrementally write bunches to a ``.replay`` file.

    Bunch timestamps must be non-decreasing; the writer enforces this so
    a collector bug cannot produce a trace the replayer would reject.

    Usage::

        with TraceWriter("out.replay") as writer:
            writer.append(bunch)
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._count = 0
        self._last_ts = -1.0
        # Placeholder header; count patched in close().
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(abort=exc_type is not None)

    @property
    def count(self) -> int:
        """Bunches written so far."""
        return self._count

    def append(self, bunch: Bunch) -> None:
        """Append one bunch.  Raises on out-of-order timestamps."""
        if bunch.timestamp < self._last_ts:
            raise TraceValidationError(
                f"bunch timestamp {bunch.timestamp} precedes previous "
                f"{self._last_ts}; traces must be time-ordered"
            )
        self._fh.write(_encode_body(PackedTrace.from_trace(Trace([bunch]))))
        self._last_ts = bunch.timestamp
        self._count += 1

    def close(self, abort: bool = False) -> None:
        """Patch the header with the final bunch count and close the file."""
        if self._fh.closed:
            return
        if not abort:
            self._fh.seek(0)
            self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, self._count))
        self._fh.close()

"""Streaming trace reader.

For the multi-hundred-MB real-world traces (cello99 spans days), loading
the whole file is wasteful when a consumer — e.g. the proportional filter
— walks the trace once.  :class:`TraceReader` yields bunches lazily from
disk with constant memory, or bulk-loads the whole file into the
columnar :class:`~repro.trace.packed.PackedTrace` fast path without
materialising any per-package objects.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Union

from ..errors import TraceFormatError
from .blktrace import (
    _BUNCH_HEADER,
    _HEADER,
    _PACKAGE_SIZE,
    _parse_header,
    _parse_packed_body,
)
from .packed import PackedTrace
from .record import Bunch

PathLike = Union[str, Path]


class TraceReader:
    """Iterate bunches of a ``.replay`` file without loading it whole.

    Usable as a context manager and as an iterable::

        with TraceReader("web.replay") as reader:
            for bunch in reader:
                ...

    A reader is single-pass: the file offset is tracked across reads, and
    starting a second (or resuming a partially consumed) iteration raises
    :class:`~repro.errors.TraceFormatError` instead of silently yielding
    garbage from a mid-stream position — reopen the file to re-read it.

    Attributes
    ----------
    bunch_count:
        Declared number of bunches from the file header.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self.bunch_count = _parse_header(self._fh.read(_HEADER.size))
            self._size = os.fstat(self._fh.fileno()).st_size
        except Exception:
            self._fh.close()
            raise
        self._read = 0
        self._offset = _HEADER.size
        self._iterating = False

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __iter__(self) -> Iterator[Bunch]:
        # Guard eagerly (not inside the generator, which would defer the
        # check to the first next() call).
        if self._read > 0 or self._iterating:
            raise TraceFormatError(
                f"{self.path.name}: reader already consumed "
                f"{self._read}/{self.bunch_count} bunches; a resumed or "
                "repeated iteration would start mid-stream — reopen the file",
                offset=self._offset,
            )
        self._iterating = True
        return self._iter_bunches()

    def _iter_bunches(self) -> Iterator[Bunch]:
        while self._read < self.bunch_count:
            yield self._next_bunch()

    def _next_bunch(self) -> Bunch:
        offset = self._fh.tell()
        if offset != self._offset:
            raise TraceFormatError(
                f"file position {offset} is not at the expected bunch "
                f"boundary {self._offset}; stream was moved externally",
                offset=offset,
            )
        # One bunch goes through the same decoder as a whole file, so
        # streaming gives the same verdicts.  A count past the end of the
        # file reads only what is there.
        raw = self._fh.read(_BUNCH_HEADER.size)
        if len(raw) == _BUNCH_HEADER.size:
            npackages = _BUNCH_HEADER.unpack(raw)[1]
            left = self._size - offset - len(raw)
            raw += self._fh.read(min(npackages * _PACKAGE_SIZE, left))
        bunch = _parse_packed_body(raw, 1, offset).bunch(0)
        self._read += 1
        self._offset = offset + len(raw)
        return bunch

    def read_packed(self) -> PackedTrace:
        """Bulk-load the remainder of the file as a :class:`PackedTrace`.

        This is the fast path: one read, one vectorised parse, zero
        IOPackage/Bunch objects.  Only valid on a fresh reader (the
        packed parse needs the whole body); consumes the reader.
        """
        if self._read > 0 or self._iterating:
            raise TraceFormatError(
                f"{self.path.name}: cannot bulk-load after streaming "
                f"{self._read} bunches; reopen the file",
                offset=self._offset,
            )
        self._iterating = True
        body = self._fh.read()
        packed = _parse_packed_body(body, self.bunch_count, self._offset)
        packed.label = self.path.stem
        self._read = self.bunch_count
        self._offset += len(body)
        return packed

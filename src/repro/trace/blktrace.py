"""Binary codec for the blktrace ``.replay`` file layout (paper Fig. 4).

On-disk layout (little-endian)::

    file   := magic header, bunch*
    header := magic "TRCR" | version u16 | flags u16 | bunch_count u64
    bunch  := timestamp_ns u64 | npackages u32 | package*
    package:= sector u64 | nbytes u32 | op u8 | pad u8[3]

The real blktrace btrecord/btreplay bunch layout is equivalent in content
(timestamp, package count, then fixed-size IO descriptors); we add a
magic/version header so format errors fail fast instead of producing
garbage bunches.

Every record is a whole number of 4-byte words (header 4, bunch header
3, package 4), so the codec works on the file as little-endian ``u32``
words and does no Python work per package: decoding walks the bunch
headers in one tight loop, checks every bunch vectorised, and gathers
each package field straight into its ``PackedTrace`` column; encoding
scatters the words into one preallocated array.  There is one decoder
and one encoder: the object codec :class:`BlktraceCodec` is the packed
one plus ``to_trace()``/``pack()``, so every read path gives the same
verdict, message and offset on the same bytes.
"""

from __future__ import annotations

import io
import struct
from array import array
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from ..errors import TraceFormatError, TraceValidationError
from ..units import NS_PER_S
from .packed import PACKED_PACKAGE_DTYPE, PackedTrace, pack
from .record import Trace

MAGIC = b"TRCR"
VERSION = 1

_HEADER = struct.Struct("<4sHHQ")
_BUNCH_HEADER = struct.Struct("<QI")
#: Bytes per on-disk package record.
_PACKAGE_SIZE = 16

# Record sizes in 4-byte words.
_BUNCH_WORDS = _BUNCH_HEADER.size // 4
_PACKAGE_WORDS = _PACKAGE_SIZE // 4

PathLike = Union[str, Path]


def _parse_header(raw: bytes) -> int:
    """Check a file header's magic and version; return its bunch count."""
    if len(raw) < _HEADER.size:
        raise TraceFormatError("truncated trace header", offset=0)
    magic, version, _flags, bunch_count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TraceFormatError(
            f"bad magic {magic!r}; not a TRACER .replay file", offset=0
        )
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    return bunch_count


def _word_views(buf, nwords: int):
    """``u32`` words of ``buf``, plus a ``u64`` and a ``u8`` view that
    start at every word (element ``k`` reads from byte ``4 * k``)."""
    words = np.frombuffer(buf, dtype="<u4", count=nwords)
    wide = np.ndarray((max(nwords - 1, 0),), "<u8", buffer=words, strides=(4,))
    low = np.ndarray((nwords,), "u1", buffer=words, strides=(4,))
    return words, wide, low


def _package_rows(offsets: np.ndarray) -> np.ndarray:
    """Word index of each package record in a body whose bunches hold
    ``offsets``' packages: row ``r`` of bunch ``i`` sits after ``i + 1``
    bunch headers and ``r`` packages."""
    counts = offsets[1:] - offsets[:-1]
    rows = np.repeat(np.arange(1, len(counts) + 1) * _BUNCH_WORDS, counts)
    rows += np.arange(0, _PACKAGE_WORDS * len(rows), _PACKAGE_WORDS)
    return rows


def _parse_packed_body(body, bunch_count: int, file_offset: int) -> PackedTrace:
    """Parse ``bunch_count`` bunches from ``body`` into a :class:`PackedTrace`.

    ``body`` starts at the first bunch header, which sits at
    ``file_offset`` in the file; bytes after the last bunch are ignored.
    The variable-length framing makes header positions sequential, so
    one walk over the ``u32`` words finds them (``p += 3 + 4 * count``,
    storing only ``p``; a count past the end stops it).  Every check then
    runs vectorised, and the first offending bunch in file order is
    reported at its header's file offset: a truncated header, a zero
    count, a truncated package array, or a field the columns cannot hold
    or the format forbids (sector >= 2**63, nbytes 0, op not READ/WRITE).
    The package columns are word gathers: no per-package object, no
    byte-index matrix.
    """
    nwords = len(body) // 4
    words, wide, low = _word_views(body, nwords)
    # The walk indexes a plain native-order memoryview (no copy on a
    # little-endian host): the cheapest way to get a Python int per bunch.
    count_at = memoryview(words.astype("=u4", copy=False)).cast("B").cast("I")
    walked = array("q")
    append = walked.append
    p = 0
    try:
        for _ in range(bunch_count):
            append(p)
            p += _BUNCH_WORDS + _PACKAGE_WORDS * count_at[p + 2]
    except IndexError:
        pass  # the last walked header is cut short; reported below
    walked = np.frombuffer(walked, dtype=np.int64)

    # Structural checks.  Only the last walked header can be cut short.
    readable = len(walked)
    if readable and walked[-1] + _BUNCH_WORDS > nwords:
        readable -= 1
    heads = walked[:readable]
    counts = words[heads + 2].astype(np.int64)
    ends = heads + _BUNCH_WORDS + _PACKAGE_WORDS * counts
    broken = (counts == 0) | (ends > nwords)
    stop = int(np.argmax(broken)) if broken.any() else readable
    error = None
    if stop < readable:
        zero = counts[stop] == 0
        error = "bunch with zero packages" if zero else "truncated package array"
    elif stop < len(walked):
        error = "truncated bunch header"

    # Gather the complete bunches before the first structural error.
    heads, counts = heads[:stop], counts[:stop]
    offsets = np.zeros(stop + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rows = _package_rows(offsets)
    packages = np.empty(len(rows), dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = wide[rows]  # >= 2**63 wraps negative
    packages["nbytes"] = words[rows + 2]
    op = low[rows + 3]
    packages["op"] = op

    # Field checks: the first bad package's bunch, or an earlier
    # structural error, wins; within one bunch, the order below.
    for name, bad in (
        ("sector must be >= 0", packages["sector"] < 0),
        ("nbytes must be > 0", packages["nbytes"] == 0),
        ("op must be READ(0) or WRITE(1)", op > 1),
    ):
        if bad.any():
            bunch = int(np.searchsorted(offsets, np.argmax(bad), "right")) - 1
            if bunch < stop:
                stop, error = bunch, f"invalid package fields: {name}"
    if error is not None:
        raise TraceFormatError(error, offset=file_offset + 4 * int(walked[stop]))

    timestamps = wide[heads] / NS_PER_S
    return PackedTrace(timestamps, offsets, packages, validate=False)


def _encode_body(packed: PackedTrace) -> np.ndarray:
    """Encode every bunch of ``packed`` as the file's ``u32`` words,
    refusing a field the layout cannot hold rather than wrapping it."""
    n, offsets = len(packed), packed.offsets
    sectors, nbytes, op = (packed.packages[f] for f in ("sector", "nbytes", "op"))
    ts_ns = np.rint(packed.timestamps * NS_PER_S)
    counts = offsets[1:] - offsets[:-1]
    for name, bad in (
        ("a bunch must hold at least one package", counts <= 0),
        ("timestamps must be in [0, 2**64) ns", ~(ts_ns >= 0) | (ts_ns >= 2.0**64)),
        ("sector must be in [0, 2**63)", sectors < 0),
        ("nbytes must be in [1, 2**32)", (nbytes <= 0) | (nbytes >= 1 << 32)),
        ("op must be READ(0) or WRITE(1)", (op != 0) & (op != 1)),
    ):
        if bad.any():
            raise TraceValidationError(f"{name} to be encoded")

    out = np.zeros(_BUNCH_WORDS * n + _PACKAGE_WORDS * len(sectors), dtype="<u4")
    _, wide, _ = _word_views(out, len(out))
    rows = _package_rows(offsets)
    heads = rows[offsets[:-1]] - _BUNCH_WORDS
    wide[heads] = ts_ns.astype(np.uint64)
    out[heads + 2] = counts
    wide[rows] = sectors
    out[rows + 2] = nbytes
    out[rows + 3] = op
    return out


class PackedCodec:
    """Encode/decode :class:`~repro.trace.packed.PackedTrace` without
    materialising per-package objects."""

    def encode(self, packed: PackedTrace, stream: BinaryIO) -> int:
        body = _encode_body(packed)
        header = _HEADER.pack(MAGIC, VERSION, 0, len(packed))
        return stream.write(header) + stream.write(body)

    def decode(self, stream: BinaryIO, label: str = "") -> PackedTrace:
        bunch_count = _parse_header(stream.read(_HEADER.size))
        packed = _parse_packed_body(stream.read(), bunch_count, _HEADER.size)
        packed.label = label
        return packed


class BlktraceCodec:
    """Encode/decode an object :class:`~repro.trace.record.Trace`: the
    packed codec behind :func:`~repro.trace.packed.pack` and
    :meth:`~repro.trace.packed.PackedTrace.to_trace`."""

    def encode(self, trace: Trace, stream: BinaryIO) -> int:
        """Write ``trace`` to a binary stream; returns bytes written."""
        return PackedCodec().encode(pack(trace), stream)

    def decode(self, stream: BinaryIO, label: str = "") -> Trace:
        """Read one trace from a binary stream."""
        return PackedCodec().decode(stream, label=label).to_trace()


def write_trace(trace: Trace, path: PathLike) -> int:
    """Write a trace to ``path`` in ``.replay`` format; returns bytes written."""
    codec = BlktraceCodec()
    with open(path, "wb") as fh:
        return codec.encode(trace, fh)


def read_trace(path: PathLike) -> Trace:
    """Read a ``.replay`` trace file from ``path``."""
    codec = BlktraceCodec()
    path = Path(path)
    with open(path, "rb") as fh:
        return codec.decode(fh, label=path.stem)


def dumps(trace: Trace) -> bytes:
    """Encode a trace to bytes (useful for the wire protocol and tests)."""
    buf = io.BytesIO()
    BlktraceCodec().encode(trace, buf)
    return buf.getvalue()


def loads(data: bytes, label: str = "") -> Trace:
    """Decode a trace from bytes."""
    return BlktraceCodec().decode(io.BytesIO(data), label=label)


def write_trace_packed(packed: PackedTrace, path: PathLike) -> int:
    """Write a packed trace to ``path`` in ``.replay`` format."""
    with open(path, "wb") as fh:
        return PackedCodec().encode(packed, fh)


def read_trace_packed(path: PathLike) -> PackedTrace:
    """Read a ``.replay`` file straight into the packed representation."""
    path = Path(path)
    with open(path, "rb") as fh:
        return PackedCodec().decode(fh, label=path.stem)


def dumps_packed(packed: PackedTrace) -> bytes:
    """Encode a packed trace to bytes."""
    buf = io.BytesIO()
    PackedCodec().encode(packed, buf)
    return buf.getvalue()


def loads_packed(data: bytes, label: str = "") -> PackedTrace:
    """Decode bytes straight into the packed representation."""
    return PackedCodec().decode(io.BytesIO(data), label=label)

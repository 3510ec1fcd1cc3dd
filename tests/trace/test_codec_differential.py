"""Differential tests of the ``.replay`` codec against a reference parser.

The reference below walks the file one bunch and one package at a time
with :mod:`struct`, the plainest reading of the format.  Every read
path (``loads``, ``loads_packed``, ``TraceReader.read_packed`` and
streaming ``TraceReader`` iteration) must return what it returns, or
raise the same :class:`TraceFormatError` message at the same offset.
"""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceFormatError, TraceValidationError
from repro.trace.blktrace import (
    dumps,
    dumps_packed,
    loads,
    loads_packed,
    read_trace,
    read_trace_packed,
    write_trace,
    write_trace_packed,
)
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace, pack, unpack
from repro.trace.reader import TraceReader
from repro.trace.record import READ, Bunch, IOPackage, Trace
from repro.trace.writer import TraceWriter

HEADER = struct.Struct("<4sHHQ")
BUNCH = struct.Struct("<QI")
PACKAGE = struct.Struct("<QIB3x")


def encode_reference(bunches):
    """``bunches`` is a list of ``(ts_ns, [(sector, nbytes, op), ...])``."""
    out = [HEADER.pack(b"TRCR", 1, 0, len(bunches))]
    for ts_ns, rows in bunches:
        out.append(BUNCH.pack(ts_ns, len(rows)))
        out.extend(PACKAGE.pack(*row) for row in rows)
    return b"".join(out)


def parse_reference(data):
    """Return ``(ts_ns, counts, rows)`` or ``("error", message, offset)``."""
    if len(data) < HEADER.size:
        return ("error", "truncated trace header", 0)
    magic, version, _flags, bunch_count = HEADER.unpack_from(data)
    if magic != b"TRCR":
        return ("error", f"bad magic {magic!r}; not a TRACER .replay file", 0)
    if version != 1:
        return ("error", f"unsupported trace version {version}", None)
    ts_ns, counts, rows = [], [], []
    pos = HEADER.size
    for _ in range(bunch_count):
        if pos + BUNCH.size > len(data):
            return ("error", "truncated bunch header", pos)
        ts, count = BUNCH.unpack_from(data, pos)
        if count == 0:
            return ("error", "bunch with zero packages", pos)
        if pos + BUNCH.size + count * PACKAGE.size > len(data):
            return ("error", "truncated package array", pos)
        bunch_rows = [
            PACKAGE.unpack_from(data, pos + BUNCH.size + k * PACKAGE.size)
            for k in range(count)
        ]
        for name, bad in (
            ("sector must be >= 0", lambda s, n, o: s >= 2**63),
            ("nbytes must be > 0", lambda s, n, o: n == 0),
            ("op must be READ(0) or WRITE(1)", lambda s, n, o: o > 1),
        ):
            if any(bad(*row) for row in bunch_rows):
                return ("error", f"invalid package fields: {name}", pos)
        ts_ns.append(ts)
        counts.append(count)
        rows.extend(bunch_rows)
        pos += BUNCH.size + count * PACKAGE.size
    return ts_ns, counts, rows


def verdicts(data):
    """What each read path makes of ``data``: a trace or an error."""
    out = {}

    def attempt(name, read):
        try:
            out[name] = read()
        except TraceFormatError as exc:
            out[name] = ("error", str(exc), exc.offset)

    attempt("loads", lambda: pack(loads(data)))
    attempt("loads_packed", lambda: loads_packed(data))
    fd, path = tempfile.mkstemp(suffix=".replay")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)

        def bulk():
            with TraceReader(path) as reader:
                return reader.read_packed()

        def streamed():
            with TraceReader(path) as reader:
                return pack(Trace(list(reader)))

        attempt("read_packed", bulk)
        attempt("streamed", streamed)
    finally:
        os.remove(path)
    return out


def assert_matches_reference(data):
    expected = parse_reference(data)
    for name, got in verdicts(data).items():
        if expected[0] == "error":
            assert got == expected, name
            continue
        ts_ns, counts, rows = expected
        assert isinstance(got, PackedTrace), (name, got)
        np.testing.assert_array_equal(
            got.timestamps, np.asarray(ts_ns, dtype=np.uint64) / 1e9
        )
        np.testing.assert_array_equal(got.bunch_sizes, counts)
        table = np.array(rows, dtype=PACKED_PACKAGE_DTYPE)
        np.testing.assert_array_equal(got.packages, table)


# Timestamps stay below 2**50 ns (13 days), where ns -> s -> ns is exact.
package = st.tuples(
    st.integers(0, 2**63 - 1), st.integers(1, 2**32 - 1), st.integers(0, 1)
)
bunch = st.tuples(st.integers(0, 2**50), st.lists(package, min_size=1, max_size=4))
bunches = st.lists(bunch, max_size=5).map(
    lambda bs: sorted(bs, key=lambda b: b[0])
)


class TestAgainstReference:
    @given(bunches, st.binary(max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_valid_files_and_trailing_garbage(self, bs, garbage):
        data = encode_reference(bs)
        assert_matches_reference(data + garbage)
        packed = loads_packed(data + garbage)
        assert dumps_packed(packed) == data
        assert dumps_packed(packed) == dumps(unpack(packed))

    @given(bunches.filter(bool), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation(self, bs, data):
        encoded = encode_reference(bs)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        assert_matches_reference(encoded[:cut])

    def test_truncation_at_every_byte(self):
        bs = [(i * 10**6, [(8 * i + k, 512, k % 2) for k in range(3)])
              for i in range(4)]
        encoded = encode_reference(bs)
        for cut in range(len(encoded) + 1):
            assert_matches_reference(encoded[:cut])

    @given(bunches.filter(bool), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_corrupted_count(self, bs, data, count):
        """A zeroed count, or any other (up to 2**32 - 1) at any bunch."""
        count = data.draw(st.sampled_from([0, count]))
        which = data.draw(st.integers(0, len(bs) - 1))
        encoded = bytearray(encode_reference(bs))
        pos = HEADER.size + sum(BUNCH.size + PACKAGE.size * len(rows)
                                for _, rows in bs[:which])
        struct.pack_into("<I", encoded, pos + 8, count)
        assert_matches_reference(bytes(encoded))

    @given(bunches.filter(bool), st.data())
    @settings(max_examples=80, deadline=None)
    def test_corrupted_fields(self, bs, data):
        """One to three bad fields, anywhere (several may share a bunch)."""
        starts, pos = [], HEADER.size
        for _, rows in bs:
            pos += BUNCH.size
            starts += [pos + PACKAGE.size * k for k in range(len(rows))]
            pos += PACKAGE.size * len(rows)
        encoded = bytearray(encode_reference(bs))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.sampled_from(starts))
            fmt, field, value = data.draw(st.sampled_from([
                ("<Q", 0, 2**63), ("<Q", 0, 2**64 - 1), ("<I", 8, 0),
                ("<B", 12, 2), ("<B", 12, 255),
            ]))
            struct.pack_into(fmt, encoded, at + field, value)
        assert_matches_reference(bytes(encoded))

    def test_first_bad_bunch_wins_then_the_field_order(self):
        bs = [(0, [(0, 512, 0)]), (1, [(0, 512, 0), (0, 512, 0)])]
        encoded = bytearray(encode_reference(bs))
        second = HEADER.size + BUNCH.size + PACKAGE.size
        struct.pack_into("<B", encoded, second + BUNCH.size + 12, 7)
        struct.pack_into("<Q", encoded, second + BUNCH.size + PACKAGE.size, 2**63)
        assert_matches_reference(bytes(encoded))
        assert parse_reference(bytes(encoded)) == (
            "error", "invalid package fields: sector must be >= 0", second
        )

    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_random_bodies(self, body):
        header = HEADER.pack(b"TRCR", 1, 0, len(body) % 7)
        assert_matches_reference(header + body)


class TestSectorsBeyondInt64:
    def test_every_read_path_refuses(self, tmp_path):
        data = encode_reference([(0, [(8, 512, READ)]), (1, [(2**63, 512, READ)])])
        path = tmp_path / "big.replay"
        path.write_bytes(data)
        readers = {
            "loads": lambda: loads(data),
            "loads_packed": lambda: loads_packed(data),
            "read_trace": lambda: read_trace(path),
            "read_trace_packed": lambda: read_trace_packed(path),
        }
        for read in readers.values():
            with pytest.raises(TraceFormatError, match="sector") as info:
                read()
            assert info.value.offset == HEADER.size + BUNCH.size + PACKAGE.size
        for bulk in (True, False):
            with TraceReader(path) as reader:
                with pytest.raises(TraceFormatError, match="sector"):
                    reader.read_packed() if bulk else list(reader)


class TestEncodeRefusesUnrepresentableFields:
    def object_trace(self, sector=0, nbytes=512):
        return Trace([Bunch(0.0, [IOPackage(sector, nbytes, READ)])])

    def packed_trace(self, sector=0, nbytes=512):
        packages = np.zeros(1, dtype=PACKED_PACKAGE_DTYPE)
        packages["sector"] = sector
        packages["nbytes"] = nbytes
        return PackedTrace(np.zeros(1), np.array([0, 1]), packages, validate=False)

    def writers(self, tmp_path, **fields):
        trace = self.object_trace(**fields)

        def stream():
            with TraceWriter(tmp_path / "w.replay") as writer:
                writer.append(trace[0])

        return {
            "dumps": lambda: dumps(trace),
            "write_trace": lambda: write_trace(trace, tmp_path / "t.replay"),
            "TraceWriter": stream,
        }

    def test_nbytes_of_2_to_32_or_more(self, tmp_path):
        calls = self.writers(tmp_path, nbytes=2**32 + 512)
        packed = self.packed_trace(nbytes=2**32 + 512)
        calls["dumps_packed"] = lambda: dumps_packed(packed)
        calls["write_trace_packed"] = lambda: write_trace_packed(
            packed, tmp_path / "p.replay"
        )
        for call in calls.values():
            with pytest.raises(TraceValidationError, match="nbytes"):
                call()

    def test_sector_of_2_to_63_or_more(self, tmp_path):
        calls = self.writers(tmp_path, sector=2**63)
        # An int64 column holds a sector >= 2**63 only wrapped negative.
        packed = self.packed_trace(sector=-1)
        calls["dumps_packed"] = lambda: dumps_packed(packed)
        for call in calls.values():
            with pytest.raises(TraceValidationError, match="sector"):
                call()

    def test_limits_themselves_encode(self):
        trace = self.object_trace(sector=2**63 - 1, nbytes=2**32 - 1)
        assert loads(dumps(trace)) == trace

"""Property-based tests: the packed code is bit-identical to the
per-bunch object walks it replaced.

The library runs every filter, the time scaler and the statistics pass
on :class:`~repro.trace.packed.PackedTrace` columns; it is only allowed
to be *fast* — never *different*.  Each vectorised operation must
produce exactly the results of its object walk in
:mod:`tests.object_walks`, including on the awkward shapes:
single-bunch groups, proportion 1.0, empty selections, zero-length
traces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.proportional_filter import (
    ProportionalFilter,
    bernoulli_filter_trace,
    filter_trace,
    random_filter_trace,
)
from repro.core.timescale import scale_trace
from repro.trace.blktrace import dumps, dumps_packed, loads, loads_packed
from repro.trace.packed import PackedTrace, pack, unpack
from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace
from repro.trace.stats import compute_stats
from tests import object_walks as walks


@st.composite
def traces(draw, min_bunches=0, max_bunches=60):
    """Random traces: variable fan-out, 1/64-grid timestamps (exactly
    representable in binary and nanoseconds, so codec round-trips and
    float arithmetic compare bit-for-bit)."""
    n = draw(st.integers(min_value=min_bunches, max_value=max_bunches))
    gaps = draw(
        st.lists(
            st.integers(min_value=0, max_value=64), min_size=n, max_size=n
        )
    )
    bunches = []
    tick = 0
    for i in range(n):
        tick += gaps[i]
        fan = draw(st.integers(min_value=1, max_value=4))
        packages = [
            IOPackage(
                sector=draw(st.integers(min_value=0, max_value=1 << 40)),
                nbytes=512 * draw(st.integers(min_value=1, max_value=2048)),
                op=draw(st.sampled_from([READ, WRITE])),
            )
            for _ in range(fan)
        ]
        bunches.append(Bunch(tick / 64, packages))
    return Trace(bunches, label="prop")


proportions = st.integers(min_value=1, max_value=10).map(lambda k: k / 10)


@st.composite
def group_and_proportion(draw):
    """A group size plus a proportion the filter accepts for it
    (multiples of 1/group_size; group_size=1 exercises single-bunch
    groups, where only proportion 1.0 is legal)."""
    g = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=g))
    return g, k / g


class TestRoundTrip:
    @given(traces())
    @settings(max_examples=80)
    def test_pack_unpack_lossless(self, trace):
        assert unpack(pack(trace)) == trace

    @given(traces())
    @settings(max_examples=80)
    def test_pack_unpack_pack_identical(self, trace):
        """Packing is idempotent through the object form: columns,
        dtypes and label all survive pack → unpack → pack."""
        packed = pack(trace)
        again = pack(unpack(packed))
        assert again == packed
        assert again.packages.dtype == packed.packages.dtype
        assert again.label == packed.label
        assert dumps_packed(again) == dumps_packed(packed)
        assert pack(packed) is packed

    @given(traces())
    @settings(max_examples=80)
    def test_packed_codec_bytes_identical(self, trace):
        assert dumps_packed(pack(trace)) == dumps(trace)

    @given(traces())
    @settings(max_examples=80)
    def test_loads_agree(self, trace):
        data = dumps(trace)
        assert loads_packed(data).to_trace() == loads(data)


class TestFilterEquivalence:
    @given(traces(), group_and_proportion())
    @settings(max_examples=80)
    def test_proportional_filter(self, trace, gp):
        """Covers single-bunch groups (group_size=1), proportion 1.0, and
        empty traces via the strategy bounds."""
        group_size, proportion = gp
        obj = walks.filter_trace(trace, proportion, group_size)
        packed = ProportionalFilter(group_size).apply(trace, proportion)
        assert isinstance(packed, PackedTrace)
        assert packed.to_trace() == obj
        assert packed.label == obj.label

    @given(traces(), proportions, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_random_filter(self, trace, proportion, seed):
        obj = walks.random_filter_trace(trace, proportion, seed=seed)
        packed = random_filter_trace(trace, proportion, seed=seed)
        assert packed.to_trace() == obj

    @given(traces(min_bunches=1), proportions,
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_bernoulli_filter(self, trace, proportion, seed):
        obj = walks.bernoulli_filter_trace(trace, proportion, seed=seed)
        packed = bernoulli_filter_trace(trace, proportion, seed=seed)
        assert packed.to_trace() == obj

    @given(traces(min_bunches=1))
    @settings(max_examples=40)
    def test_proportion_one_keeps_everything(self, trace):
        packed = filter_trace(pack(trace), 1.0)
        assert packed.to_trace() == trace

    @given(traces(min_bunches=1))
    @settings(max_examples=40)
    def test_empty_selection(self, trace):
        packed = pack(trace)
        empty = packed.select(np.zeros(len(packed), dtype=bool))
        assert len(empty) == 0
        assert empty.to_trace() == Trace([])


class TestTimescaleEquivalence:
    @given(traces(), st.sampled_from([0.01, 0.5, 1.0, 2.0, 10.0, 3.7]))
    @settings(max_examples=80)
    def test_scaled_timestamps_bit_identical(self, trace, intensity):
        obj = walks.scale_trace(trace, intensity)
        packed = scale_trace(trace, intensity)
        assert isinstance(packed, PackedTrace)
        # Exact float equality: both paths evaluate the same IEEE-double
        # expression, so == (not approx) is the contract.
        assert packed.timestamps.tolist() == [b.timestamp for b in obj]
        assert packed.to_trace() == obj
        assert packed.label == obj.label


class TestStatsEquivalence:
    @given(traces())
    @settings(max_examples=60)
    def test_stats_bit_identical(self, trace):
        assert compute_stats(trace) == walks.compute_stats(trace)

    @given(traces(min_bunches=1), proportions)
    @settings(max_examples=40)
    def test_stats_of_filtered_trace(self, trace, proportion):
        """Composition: filter, then summarise — still identical to the
        all-object pipeline."""
        obj_stats = walks.compute_stats(walks.filter_trace(trace, proportion))
        packed_stats = compute_stats(filter_trace(trace, proportion))
        assert packed_stats == obj_stats

"""Property-based test: prepared service plans equal the scalar loop.

The analytical kernel evaluates one member's
:class:`~repro.storage.base.ServicePlan` under many candidate serving
orders while it solves the RAID-5 read-modify-write fixpoint, and the
grid evaluates ``(P, k)`` order matrices (one order per cell).  Every
evaluation must be bit-identical to the device's scalar ``_service``
loop serving the same rows in the same order from the same cursor
state — and to ``service_times`` on the permuted columns — including
the cursor/counter end state ``apply_state`` commits — also when an
order is served in two windows, the second resumed from the first's
cursor.  Hypothesis drives HDDs with the write cache on and off and
SSDs with interleaved reads and writes, from fresh and non-fresh
cursors.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.hdd import HardDiskDrive
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.record import READ, WRITE, IOPackage
from repro.units import SECTOR_BYTES

_HDD_STATE = ("_head_sector", "_last_end_sector", "_last_op", "seek_count")
_SSD_STATE = ("_last_read_end", "_last_write_end", "random_write_count")


@st.composite
def plan_cases(draw):
    kind = draw(st.sampled_from(["hdd-cache", "hdd-nocache", "ssd"]))
    n = draw(st.integers(min_value=1, max_value=16))
    sectors, nbytes, ops = [], [], []
    for i in range(n):
        nb = draw(st.integers(min_value=1, max_value=64)) * 512
        if i and draw(st.booleans()):
            # Continue the previous row so some orders stream.
            sector = sectors[-1] + -(-nbytes[-1] // SECTOR_BYTES)
        else:
            sector = draw(st.integers(min_value=0, max_value=1 << 20))
        sectors.append(sector)
        nbytes.append(nb)
        ops.append(draw(st.sampled_from([READ, WRITE])))
    cursor = None
    if draw(st.booleans()):
        # A non-fresh cursor: sometimes exactly where a row starts.
        at = draw(
            st.one_of(
                st.sampled_from(sectors),
                st.integers(min_value=0, max_value=1 << 20),
            )
        )
        cursor = (at, draw(st.sampled_from([READ, WRITE])))
    perms = draw(
        st.lists(st.permutations(range(n)), min_size=1, max_size=4)
    )
    return kind, cursor, sectors, nbytes, ops, np.array(perms, dtype=np.int64)


def _device(kind, cursor):
    if kind == "ssd":
        dev = SolidStateDrive()
        if cursor is not None:
            dev._last_write_end = cursor[0]
            dev._last_read_end = cursor[0] + 8
            dev.random_write_count = 3
        return dev
    spec = dataclasses.replace(
        SEAGATE_7200_12, write_cache=(kind == "hdd-cache")
    )
    dev = HardDiskDrive(spec=spec)
    if cursor is not None:
        dev._head_sector = cursor[0] + 16
        dev._last_end_sector = cursor[0]
        dev._last_op = cursor[1]
        dev.seek_count = 5
    return dev


def _state(dev):
    names = _SSD_STATE if isinstance(dev, SolidStateDrive) else _HDD_STATE
    return {name: getattr(dev, name) for name in names}


def _scalar(kind, cursor, sectors, nbytes, ops, order):
    """The event path's per-request loop: seconds, Watts, end state."""
    dev = _device(kind, cursor)
    out = [
        dev._service(IOPackage(sectors[i], nbytes[i], ops[i]), 0.0)
        for i in order.tolist()
    ]
    seconds = np.array([s for s, _ in out], dtype=np.float64)
    watts = np.array([w for _, w in out], dtype=np.float64)
    return seconds, watts, _state(dev)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(plan_cases())
def test_plan_matches_scalar_loop_and_service_times(case):
    kind, cursor, sectors, nbytes, ops, perms = case
    cols = [np.array(c, dtype=np.int64) for c in (sectors, nbytes, ops)]
    dev = _device(kind, cursor)
    plan = dev.prepare_service(*cols)

    # (P, k): one serving order per row, each row its own sequence.
    sec2d = plan.seconds(perms)
    full2d = plan.full(perms)
    assert _bits(full2d.seconds) == _bits(sec2d)
    with pytest.raises(ValueError):
        full2d.apply_state()
    for i, order in enumerate(perms):
        ref_s, ref_w, _ = _scalar(kind, cursor, sectors, nbytes, ops, order)
        assert _bits(sec2d[i]) == _bits(ref_s)
        assert _bits(full2d.watts[i]) == _bits(ref_w)

    # 1-D: the same numbers plus the committed end state.
    order = perms[0]
    ref_s, ref_w, ref_state = _scalar(kind, cursor, sectors, nbytes, ops, order)
    assert _bits(plan.seconds(order)) == _bits(ref_s)
    svc = plan.full(order)
    assert _bits(svc.seconds) == _bits(ref_s)
    assert _bits(svc.watts) == _bits(ref_w)
    twin = _device(kind, cursor)
    vec = twin.service_times(*(c[order] for c in cols))
    assert _bits(vec.seconds) == _bits(ref_s)
    assert _bits(vec.watts) == _bits(ref_w)
    assert _state(dev) == _state(_device(kind, cursor))  # preparing is pure
    svc.apply_state()
    vec.apply_state()
    assert _state(dev) == ref_state
    assert _state(twin) == ref_state


@settings(max_examples=300, deadline=None)
@given(plan_cases(), st.data())
def test_resumed_windows_match_one_order(case, data):
    """Serving a head and then resuming the tail ``after`` the head's
    last cursor row equals serving the whole order, bit for bit — how
    the RMW solver carries a member's service plan across a window
    cut.  Each row of a ``(P, k)`` order cuts at its own column."""
    kind, cursor, sectors, nbytes, ops, perms = case
    cols = [np.array(c, dtype=np.int64) for c in (sectors, nbytes, ops)]
    plan = _device(kind, cursor).prepare_service(*cols)
    k = perms.shape[1]
    cut = data.draw(st.integers(min_value=0, max_value=k - 1))
    full = plan.seconds(perms)
    head, tail = perms[:, :cut], perms[:, cut:]
    after = np.full(perms.shape[0], -1, dtype=np.int64)
    for i, row in enumerate(head):
        moved = row[plan.cursor_rows[row]]
        if moved.size:
            after[i] = moved[-1]
    assert _bits(plan.seconds(tail, after)) == _bits(full[:, cut:])
    # -1 keeps the prepared cursors: the uncut order.
    none = np.full(perms.shape[0], -1, dtype=np.int64)
    assert _bits(plan.seconds(perms, none)) == _bits(full)


def test_empty_plan():
    for dev in (HardDiskDrive(), SolidStateDrive()):
        empty = np.empty(0, dtype=np.int64)
        before = _state(dev)
        svc = dev.service_times(empty, empty, empty)
        assert svc.seconds.size == 0 and svc.watts.size == 0
        svc.apply_state()
        assert _state(dev) == before


@settings(max_examples=200, deadline=None)
@given(st.lists(plan_cases(), min_size=1, max_size=4), st.data())
def test_stacked_plans_match_each_plan(cases, data):
    """A stack of several drives' plans prices each order row as the
    plan owning it would, bit for bit: from that plan's prepared
    cursors, or resumed after one of its rows.  Drives of one kind and
    spec concatenate into one plan; mixed ones take the generic stack."""
    plans = []
    for kind, cursor, sectors, nbytes, ops, _ in cases:
        cols = [np.array(c, dtype=np.int64) for c in (sectors, nbytes, ops)]
        plans.append(_device(kind, cursor).prepare_service(*cols))
    stack = type(plans[0]).stack(plans)
    kinds = {case[0] for case in cases}
    assert (type(stack) is type(plans[0])) == (len(kinds) == 1)
    offsets = np.cumsum([0] + [p.end_sectors.size for p in plans])
    orders, afters, expect = [], [], []
    for j, (plan, case) in enumerate(zip(plans, cases)):
        for order in case[5]:
            after = -1
            if data.draw(st.booleans()):
                after = data.draw(st.integers(0, order.size - 1))
                if not plan.cursor_rows[after]:
                    after = -1
            expect.append(plan.seconds(order[None, :], np.array([after]))[0])
            orders.append(order + offsets[j])
            afters.append(after + offsets[j] if after >= 0 else -1)
    width = max(o.size for o in orders)
    # Rows pad with their own plan's last row, as the RMW solver does.
    padded = np.array([
        np.concatenate((o, np.full(width - o.size, o.max()))) for o in orders
    ])
    got = stack.seconds(padded, np.array(afters))
    for i, ref in enumerate(expect):
        assert _bits(got[i, :ref.size]) == _bits(ref)
    none = stack.seconds(padded)
    for i, order in enumerate(orders):
        j = int(np.searchsorted(offsets, order[0], side="right")) - 1
        ref = plans[j].seconds(order - offsets[j])
        assert _bits(none[i, :ref.size]) == _bits(ref)

"""Analytical (closed-form) replay kernel.

The event-driven replay path costs one heap pop per bunch dispatch plus
one per completion — for a 100k-bunch packed trace that is hundreds of
thousands of Python callbacks even though the *math* of a fault-free
FCFS replay is a handful of recurrences.  This module computes an entire
qualifying replay in bulk over the :class:`~repro.trace.packed.PackedTrace`
CSR arrays:

* bunch dispatch times (vectorised rebase, identical to
  :meth:`ReplayEngine.start`),
* the array controller's link-serialisation chain
  (``dispatch = max(arrival, link_busy) + overhead``),
* RAID-0/5/JBOD chunk expansion in closed form (bit-for-bit the
  :class:`~repro.storage.raid.RaidGeometry` loop),
* per-device FCFS queue waits via a segmented Lindley recurrence
  (``finish_k = max(submit_k, finish_{k-1}) + service_k``),
* per-request service times and Watts from each device model's
  prepared service plan (``prepare_service``), evaluated per serving
  order,
* and the sampled outputs — :class:`~repro.replay.monitor.PerfSample`
  series, :class:`~repro.power.analyzer.PowerAnalyzer` windows, latency
  histograms, and :class:`~repro.telemetry.stream.IntervalFrame` series.

**Bit-identity is the contract.**  Every floating-point expression here
is ordered exactly as the event path orders it: seeded ``np.cumsum``
chains reproduce left-to-right scalar addition, ``np.maximum`` is a
selection (exact), window sums re-run the monitor's Python-float
accumulation over ``.tolist()`` slices, and the power analyzer /
interval recorder are fed through their *real* implementations after
the device timelines are committed.  Events tied at one instant are
ordered as the event calendar orders them (:class:`_Calendar`).
Anything the closed form cannot reproduce exactly — unsorted dispatch
times, out-of-range requests (the event path raises mid-run),
pathological sampling cycles — raises :class:`_Fallback` *before any
state is mutated* and the caller falls back to the event engine.

One path serves a single replay and a fused grid sweep
(:mod:`repro.sim.grid`): :func:`_prepare_plane` does the time-independent
work once per (trace, device); :func:`_solve_plane` solves ``(P, n)``
rows of submit instants — one row for a replay, one per grid cell;
:func:`try_kernel_replay` commits its one row to the live device
(:func:`_commit`) while the grid freezes its rows into power columns;
:func:`_assemble` builds the sampled outputs for both.

The public entry point is :func:`try_kernel_replay`; qualification rules
are documented in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import StorageIOError
from ..power.analyzer import PowerAnalyzer
from ..power.states import PowerState
from ..replay.capture import CompletionRecord
from ..replay.monitor import PerfSample
from ..replay.results import ReplayOutcome
from ..storage.array import DiskArray
from ..storage.base import (
    QueuedDevice,
    ServicePlan,
    StorageDevice,
    VectorService,
)
from ..storage.hdd import HardDiskDrive
from ..storage.queueing import FIFOQueue
from ..storage.raid import FlightExpansion, RaidLevel, expand_flights
from ..storage.ssd import SolidStateDrive
from ..trace.packed import PackedTrace
from ..units import SECTOR_BYTES
from .engine import Simulator

#: Segmented-solver refinement passes before a row falls back to the
#: exact scalar loop.  Each pass only *adds* idle-start heads, and more
#: heads only raise the evaluated finish times (``max`` and ``+`` are
#: monotone), so the second pass finds no violation the first did not
#: already turn into a head: two passes suffice and the cap is a guard.
_MAX_PASSES = 10

#: Sampling-window count cap: beyond this the closed-form window walk
#: costs more than the event path saves.
_MAX_WINDOWS = 2_000_000

#: The RMW fixpoint's work unit is one sub-I/O served in one pass.  A
#: pass also costs a fixed amount of it (the NumPy calls of one stacked
#: pass over every member, and its share of the window's set-up), and
#: an event replay costs about this much per sub-I/O it serves.  Both
#: are medians of five least-squares fits of kernel solve time against
#: (columns served, passes) and of event replay time per sub-I/O, on 11
#: kernel/event replay pairs of saturated, chained and sequential
#: small-write traces (2-vCPU Intel Xeon VM: a sub-I/O pass takes
#: 0.24-0.42 us, a pass 0.47-0.63 ms, an event replay 25-36 us per
#: sub-I/O).
_PASS_WORK = 1700
_EVENT_WORK_PER_SUBIO = 85

#: A stacked RMW pass serves its rows in blocks of about this many
#: columns, or of as many rows as the window has cells (one member's
#: rows) if that is more.  Stacking pays while a pass's NumPy calls
#: are short, so that their fixed cost dominates; past this size it no
#: longer does, and bigger blocks only hold bigger temporaries (a pass
#: keeps about twenty of a block's size alive at once).
_PASS_BLOCK = 1 << 12

_NEG_INF = float("-inf")
_EMPTY = np.empty(0, dtype=np.float64)


class _Fallback(Exception):
    """The configuration (or computed schedule) needs the event engine."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Exact FCFS queue solver (Lindley recurrence)
# ---------------------------------------------------------------------------


def _lindley_scalar(submit: np.ndarray, sv: np.ndarray, prev: float) -> np.ndarray:
    """Reference solver: the event path's arithmetic, request by request."""
    out = []
    cur = prev
    for t, s in zip(submit.tolist(), sv.tolist()):
        start = t if t > cur else cur
        cur = start + s
        out.append(cur)
    return np.array(out, dtype=np.float64)


def _head_flags(heads: np.ndarray, n: int) -> list:
    """``heads`` as a list of ``n`` flags, for the float loops."""
    flags = np.zeros(n, dtype=bool)
    flags[heads] = True
    return flags.tolist()


def _eval_lindley_segments_loop(
    submit: np.ndarray, sv: np.ndarray, heads: np.ndarray,
    prev: np.ndarray, width: int, scalar: bool,
) -> np.ndarray:
    """Sequential evaluation over busy runs.

    ``submit``/``sv`` hold rows of ``width`` requests back to back; the
    idle-start positions ``heads`` include every row start.  Each
    segment [a, b) is a busy run: its first request starts at
    ``max(submit[a], previous finish)`` (exact selection; the row's
    ``prev`` entry at a row start) and the rest chain by addition —
    ``scalar``: one plain float loop over ``.tolist()`` columns, else
    one seeded cumulative sum per run; either way the same
    left-to-right additions the scalar recurrence performs
    (:func:`_busy_run_regime` picks).
    """
    n = submit.size
    prev_l = prev.tolist()
    if scalar:
        sub, svl, head = submit.tolist(), sv.tolist(), _head_flags(heads, n)
        out: List[float] = []
        put = out.append
        for r, a in enumerate(range(0, n, width)):
            cur = prev_l[r]
            b = a + width
            for t, s, h in zip(sub[a:b], svl[a:b], head[a:b]):
                if h and t > cur:
                    cur = t
                cur += s
                put(cur)
        return np.array(out, dtype=np.float64)
    bounds = heads.tolist() + [n]
    f = np.empty(n, dtype=np.float64)
    cur = _NEG_INF
    for a, b in zip(bounds, bounds[1:]):
        if a % width == 0:
            cur = prev_l[a // width]
        sa = submit[a]
        seed = sa if sa > cur else cur
        f[a:b] = np.cumsum(np.concatenate(([seed], sv[a:b])))[1:]
        cur = float(f[b - 1])
    return f


#: Offset-sweep eligibility: below this many segments a sequential
#: loop beats the sweep machinery's fixed cost.
_SWEEP_MIN_SEGMENTS = 256

#: Segments longer than this are evaluated with one seeded cumsum each
#: (a handful of numpy calls) instead of joining the offset sweep, which
#: would otherwise pay one sweep step per element of the longest run.
_SWEEP_MAX_LEN = 64

#: The sequential loop's crossover.  The float loop costs about 0.1 us
#: a request, a seeded cumsum about 4 us of NumPy calls a run whatever
#: its length (2-vCPU Intel Xeon VM), so the float loop is cheaper
#: until runs average about 40 requests.
_SCALAR_MAX_RUN = 32

#: Seed-repair waves before falling back to the sequential loop.  Each
#: wave finalises at least one more segment of every chain of busy runs
#: that merge (a head whose submit lands inside the previous run), so
#: only adversarially long merge chains hit the cap.
_MAX_SWEEP_WAVES = 40


def _busy_run_regime(n: int, heads: np.ndarray, sweep: bool = True) -> str:
    """How to evaluate ``n`` requests split into busy runs at ``heads``:
    ``"sweep"`` (the offset sweep), ``"scalar"`` (one float loop) or
    ``"cumsum"`` (one seeded cumsum per run).

    The one cost rule of the Lindley and link-chain evaluators.  A
    sweep costs a few NumPy calls per offset, whatever the run count,
    so it pays once there are ``_SWEEP_MIN_SEGMENTS`` runs, most of
    them at most ``_SWEEP_MAX_LEN`` long (``sweep=False`` rules it
    out).  Otherwise the runs go one by one: in a float loop while
    they average under ``_SCALAR_MAX_RUN`` requests, else by cumsum.
    """
    n_seg = heads.size
    if sweep and n_seg >= _SWEEP_MIN_SEGMENTS:
        lens = np.diff(heads, append=n)
        if np.count_nonzero(lens > _SWEEP_MAX_LEN) * 8 <= n_seg:
            return "sweep"
    return "scalar" if n < _SCALAR_MAX_RUN * n_seg else "cumsum"


def _eval_lindley_segments(
    submit: np.ndarray, sv: np.ndarray, heads: np.ndarray,
    prev: np.ndarray, width: int,
) -> np.ndarray:
    """Evaluate finish times given idle-start positions ``heads``.

    Rows of ``width`` requests lie back to back and every row start is
    a head (see :func:`_eval_lindley_segments_loop`).  Lightly loaded
    schedules split into tens of thousands of short busy runs;
    evaluating them one Python-loop iteration apiece dominates the
    solver.  Instead, sweep *by offset within segment*: seed every
    segment at its own ``submit[a]`` (the true seed whenever the head is
    a genuine idle restart; ``max(submit[a], prev)`` at a row start,
    with the row's own ``prev`` entry),
    then chain ``f[a + j] = f[a + j - 1] + sv[a + j]`` for all segments
    at once, one vectorized step per offset.  The additions and their
    dependency order are exactly the per-segment cumsum's, so the values
    are bit-identical.  Heads whose run actually merges with the
    previous one (``submit[a]`` below the previous run's finish) are
    then re-seeded at ``max(submit[a], previous finish)`` and re-swept —
    values only grow, and each wave finalises the next segment of every
    merge chain, so the iteration reaches the sequential evaluation's
    unique answer; if a pathological chain outlives the wave cap, fall
    back to the sequential loop.  Row starts never take a seed from the
    previous row's tail.
    """
    n = submit.size
    n_seg = heads.size
    regime = _busy_run_regime(n, heads)
    if regime != "sweep":
        return _eval_lindley_segments_loop(
            submit, sv, heads, prev, width, regime == "scalar"
        )
    bounds = np.append(heads, n)
    lens = np.diff(bounds)
    long_seg = np.flatnonzero(lens > _SWEEP_MAX_LEN)

    f = np.empty(n, dtype=np.float64)
    first = np.flatnonzero(heads % width == 0)
    seed = submit[heads]
    seed[first] = np.maximum(seed[first], prev[heads[first] // width])

    def _sweep(sel: np.ndarray) -> None:
        """(Re)evaluate the selected segments from their current seeds."""
        if long_seg.size:
            is_long = lens[sel] > _SWEEP_MAX_LEN
            for si in sel[is_long].tolist():
                a, b = int(bounds[si]), int(bounds[si + 1])
                f[a:b] = np.cumsum(
                    np.concatenate(([seed[si]], sv[a:b]))
                )[1:]
            sel = sel[~is_long]
            if not sel.size:
                return
        hs = heads[sel]
        ls = lens[sel]
        f[hs] = seed[sel] + sv[hs]
        for j in range(1, int(ls.max())):
            live = ls > j
            if not np.all(live):
                hs, ls = hs[live], ls[live]
            pos = hs + j
            f[pos] = f[pos - 1] + sv[pos]

    _sweep(np.arange(n_seg))
    tails = heads - 1
    for _ in range(_MAX_SWEEP_WAVES):
        want = np.maximum(submit[heads], f[tails])
        want[first] = seed[first]
        stale = np.flatnonzero(want != seed)
        if not stale.size:
            return f
        seed[stale] = want[stale]
        _sweep(stale)
    return _eval_lindley_segments_loop(
        submit, sv, heads, prev, width,
        _busy_run_regime(n, heads, sweep=False) == "scalar",
    )


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` for sorted unique row indices, without a copy when
    ``idx`` selects every row."""
    return a if idx.size == a.shape[0] else a[idx]


def _solve_lindley(
    submit: np.ndarray, sv: np.ndarray, prev=_NEG_INF
) -> np.ndarray:
    """Finish times of ``finish_k = max(submit_k, finish_{k-1}) + sv_k``.

    ``submit`` is ``(P, n)``: one independent FCFS queue per row, each
    starting after ``prev`` — one instant for every row, or a ``(P,)``
    vector (the RMW fixpoint resumes each row where its last window
    left the server) — with ``P = 1`` for a single replay, one row per
    grid cell in a fused sweep.  ``sv`` is one shared ``(n,)`` service
    vector (service depends on request geometry and fresh device state,
    never on arrival times) or ``(P, n)`` per-row service times (the RMW
    fixpoint, where every row serves in its own order).

    Every row is bit-identical to the scalar recurrence.  Two O(1)-pass
    whole-row fast paths cover the common regimes (server never queues
    / server never idles: one elementwise add, or one seeded row-wise
    cumsum — a strict left-to-right chain per row).  The remaining rows
    are laid out flat, row after row; each row's idle-start heads are
    guessed from its own arrival slack, its start is a forced head, and
    the heads are refined until the evaluation is self-consistent, which
    by induction makes it exact.  A row still adding heads after
    ``_MAX_PASSES`` takes the scalar loop.
    """
    n_rows, n = submit.shape
    f = submit + sv
    if n == 0:
        return f
    prev = np.asarray(prev, dtype=np.float64)
    # Fully-idle rows: every request starts at its own submit time.
    ok = (submit[:, 0] >= prev) & np.all(submit[:, 1:] >= f[:, :-1], axis=1)
    rest = np.flatnonzero(~ok)
    if not rest.size:
        return f
    sub = _rows(submit, rest)
    sv_rest = sv if sv.ndim == 1 else _rows(sv, rest)
    if prev.ndim:
        prev = _rows(prev, rest)
    # Fully-busy rows: one seeded cumsum chain each.
    chain = np.empty((rest.size, n + 1), dtype=np.float64)
    np.maximum(sub[:, 0], prev, out=chain[:, 0])
    chain[:, 1:] = sv_rest
    busy = np.cumsum(chain, axis=1)[:, 1:]
    ok = np.all(sub[:, 1:] <= busy[:, :-1], axis=1)
    if ok.sum() == n_rows:
        return busy
    f[rest[ok]] = busy[ok]
    gen = np.flatnonzero(~ok)
    if not gen.size:
        return f
    # General rows: guess heads from arrival slack, refine to fixpoint.
    sub = _rows(sub, gen)
    sv_gen = sv if sv.ndim == 1 else _rows(sv_rest, gen)
    prev = np.broadcast_to(prev if not prev.ndim else _rows(prev, gen),
                           (gen.size,))
    approx = sub.copy()
    approx[:, 1:] -= np.cumsum(sv_gen, axis=-1)[..., :-1]
    is_head = approx >= np.maximum.accumulate(approx, axis=1)
    is_head[:, 0] = True
    is_head = is_head.ravel()
    flat = sub.ravel()
    if sv_gen.ndim == 1 and gen.size > 1:
        flat_sv = np.tile(sv, gen.size)
    else:
        flat_sv = sv_gen.ravel()
    for _ in range(_MAX_PASSES):
        heads = np.flatnonzero(is_head)
        fg = _eval_lindley_segments(flat, flat_sv, heads, prev, n)
        viol = np.flatnonzero(flat[1:] > fg[:-1]) + 1
        new = viol[~is_head[viol]]
        if not new.size:
            break
        is_head[new] = True
    else:
        for r in np.unique(new // n).tolist():
            row = slice(r * n, (r + 1) * n)
            fg[row] = _lindley_scalar(flat[row], flat_sv[row], float(prev[r]))
    if gen.size == n_rows:
        return fg.reshape(n_rows, n)
    f[rest[gen]] = fg.reshape(gen.size, n)
    return f


# ---------------------------------------------------------------------------
# Exact link-serialisation solver (controller dispatch chain)
# ---------------------------------------------------------------------------


def _chain_scalar(
    t: np.ndarray, c: float, p: np.ndarray, prev: float
) -> Tuple[np.ndarray, np.ndarray]:
    d, link = [], []
    cur = prev
    for ti, pi in zip(t.tolist(), p.tolist()):
        disp = ti if ti > cur else cur
        disp = disp + c
        d.append(disp)
        cur = disp + pi
        link.append(cur)
    return np.array(d, dtype=np.float64), np.array(link, dtype=np.float64)


def _chain_run(
    seed: float, c: float, p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dispatch and link-free times of one busy run seeded at ``seed``.

    The run interleaves the per-request overhead and payload additions
    into one cumulative sum — element order ``seed, +c, +p_0, +c,
    +p_1…`` matches the event path's ``dispatch += overhead; link =
    dispatch + payload`` exactly.
    """
    arr = np.empty(2 * p.size + 1, dtype=np.float64)
    arr[0] = seed
    arr[1::2] = c
    arr[2::2] = p
    cs = np.cumsum(arr)
    return cs[1::2], cs[2::2]


def _eval_chain_segments_loop(
    t: np.ndarray, c: float, p: np.ndarray, heads: np.ndarray,
    prev: float, width: int, scalar: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sequential evaluation of the dispatch chain, over rows laid out
    as in :func:`_eval_lindley_segments_loop` (``scalar`` likewise)."""
    n = t.size
    if scalar:
        tl, pl, head = t.tolist(), p.tolist(), _head_flags(heads, n)
        d_out: List[float] = []
        l_out: List[float] = []
        put_d, put_l = d_out.append, l_out.append
        for a in range(0, n, width):
            cur = prev
            b = a + width
            for ta, pi, h in zip(tl[a:b], pl[a:b], head[a:b]):
                if h and ta > cur:
                    cur = ta
                cur += c
                put_d(cur)
                cur += pi
                put_l(cur)
        return (np.array(d_out, dtype=np.float64),
                np.array(l_out, dtype=np.float64))
    bounds = heads.tolist() + [n]
    d = np.empty(n, dtype=np.float64)
    link = np.empty(n, dtype=np.float64)
    cur = _NEG_INF
    for a, b in zip(bounds, bounds[1:]):
        if a % width == 0:
            cur = prev
        ta = t[a]
        seed = ta if ta > cur else cur
        d[a:b], link[a:b] = _chain_run(seed, c, p[a:b])
        cur = float(link[b - 1])
    return d, link


def _eval_chain_segments(
    t: np.ndarray, c: float, p: np.ndarray, heads: np.ndarray,
    prev: float, width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the dispatch chain given idle-link positions ``heads``.

    Same flat row layout and offset-sweep scheme as
    :func:`_eval_lindley_segments` (which see): segments are seeded
    independently at their own submit times and chained one vectorized
    step per offset — ``d[k] = link[k - 1] + c``; ``link[k] = d[k] +
    p[k]``, the interleaved cumsum's exact additions — then heads that
    actually merge with the previous busy run are re-seeded and re-swept
    until the evaluation is self-consistent.
    """
    n = t.size
    n_seg = heads.size
    regime = _busy_run_regime(n, heads)
    if regime != "sweep":
        return _eval_chain_segments_loop(
            t, c, p, heads, prev, width, regime == "scalar"
        )
    bounds = np.append(heads, n)
    lens = np.diff(bounds)
    long_seg = np.flatnonzero(lens > _SWEEP_MAX_LEN)

    d = np.empty(n, dtype=np.float64)
    link = np.empty(n, dtype=np.float64)
    first = np.flatnonzero(heads % width == 0)
    seed = t[heads]
    seed[first] = np.maximum(seed[first], prev)

    def _sweep(sel: np.ndarray) -> None:
        if long_seg.size:
            is_long = lens[sel] > _SWEEP_MAX_LEN
            for si in sel[is_long].tolist():
                a, b = int(bounds[si]), int(bounds[si + 1])
                d[a:b], link[a:b] = _chain_run(seed[si], c, p[a:b])
            sel = sel[~is_long]
            if not sel.size:
                return
        hs = heads[sel]
        ls = lens[sel]
        d[hs] = seed[sel] + c
        link[hs] = d[hs] + p[hs]
        for j in range(1, int(ls.max())):
            live = ls > j
            if not np.all(live):
                hs, ls = hs[live], ls[live]
            pos = hs + j
            d[pos] = link[pos - 1] + c
            link[pos] = d[pos] + p[pos]

    _sweep(np.arange(n_seg))
    tails = heads - 1
    for _ in range(_MAX_SWEEP_WAVES):
        want = np.maximum(t[heads], link[tails])
        want[first] = seed[first]
        stale = np.flatnonzero(want != seed)
        if not stale.size:
            return d, link
        seed[stale] = want[stale]
        _sweep(stale)
    return _eval_chain_segments_loop(
        t, c, p, heads, prev, width,
        _busy_run_regime(n, heads, sweep=False) == "scalar",
    )


def _solve_link_chain(
    t: np.ndarray, c: float, p: np.ndarray, prev: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Dispatch/link-free times of the array controller chain.

    ``d_k = max(t_k, link_{k-1}) + c``; ``link_k = d_k + p_k`` — the
    arithmetic of :meth:`DiskArray.submit`, reproduced bit-for-bit on
    every row of the ``(P, n)`` submit times ``t``.  The controller
    overhead ``c`` and the ``(n,)`` payload serialisation times ``p``
    are shared by all rows.  Same scheme as :func:`_solve_lindley`:
    whole-row idle and busy fast paths (the busy path interleaves
    ``seed, +c, +p_0, +c, +p_1…`` into one row-wise cumsum), then the
    remaining rows laid out flat with per-row heads refined to a
    fixpoint, and the scalar loop for a row that exhausts the passes.
    """
    n_rows, n = t.shape
    d = t + c
    link = d + p
    if n == 0:
        return d, link
    ok = (t[:, 0] >= prev) & np.all(t[:, 1:] >= link[:, :-1], axis=1)
    rest = np.flatnonzero(~ok)
    if not rest.size:
        return d, link
    sub = _rows(t, rest)
    arr = np.empty((rest.size, 2 * n + 1), dtype=np.float64)
    np.maximum(sub[:, 0], prev, out=arr[:, 0])
    arr[:, 1::2] = c
    arr[:, 2::2] = p
    cs = np.cumsum(arr, axis=1)
    d_busy, l_busy = cs[:, 1::2], cs[:, 2::2]
    ok = np.all(sub[:, 1:] <= l_busy[:, :-1], axis=1)
    if ok.sum() == n_rows:
        return d_busy, l_busy
    d[rest[ok]] = d_busy[ok]
    link[rest[ok]] = l_busy[ok]
    gen = np.flatnonzero(~ok)
    if not gen.size:
        return d, link
    sub = _rows(sub, gen)
    approx = sub.copy()
    approx[:, 1:] -= np.cumsum(c + p)[:-1]
    is_head = approx >= np.maximum.accumulate(approx, axis=1)
    is_head[:, 0] = True
    is_head = is_head.ravel()
    flat = sub.ravel()
    flat_p = p if gen.size == 1 else np.tile(p, gen.size)
    for _ in range(_MAX_PASSES):
        heads = np.flatnonzero(is_head)
        dg, lg = _eval_chain_segments(flat, c, flat_p, heads, prev, n)
        viol = np.flatnonzero(flat[1:] > lg[:-1]) + 1
        new = viol[~is_head[viol]]
        if not new.size:
            break
        is_head[new] = True
    else:
        for r in np.unique(new // n).tolist():
            row = slice(r * n, (r + 1) * n)
            dg[row], lg[row] = _chain_scalar(flat[row], c, flat_p[row], prev)
    if gen.size == n_rows:
        return dg.reshape(n_rows, n), lg.reshape(n_rows, n)
    d[rest[gen]] = dg.reshape(gen.size, n)
    link[rest[gen]] = lg.reshape(gen.size, n)
    return d, link


# ---------------------------------------------------------------------------
# Qualification
# ---------------------------------------------------------------------------


def _qualify_member(dev: StorageDevice) -> Optional[str]:
    """None if ``dev`` is kernel-capable, else the human-readable reason."""
    if type(dev) is HardDiskDrive:
        if dev.rotational_jitter:
            return "hdd rotational jitter draws per request"
        if dev.state is not PowerState.IDLE:
            return f"hdd power state {dev.state.value}"
    elif type(dev) is SolidStateDrive:
        pass
    else:
        return f"device model {type(dev).__name__} has no kernel contract"
    if dev._busy:
        return "device busy at replay start"
    if type(dev._queue) is not FIFOQueue:
        return f"queue discipline {type(dev._queue).__name__}"
    if len(dev._queue):
        return "device queue not empty at replay start"
    return None


def _qualify_device(device: StorageDevice) -> Optional[str]:
    """None if the target qualifies for the analytical kernel.

    Checks run in a documented, deterministic order so the recorded
    fallback reason is stable when several apply: array-level structure
    first (subclass, empty enclosure, degraded state, RAID level), then
    the member disks in disk-index order.  A RAID-5 array that cannot
    take the kernel for a structural reason therefore reports *that*
    reason — never whichever member check happens to fire first (see
    ``tests/sim/test_kernel.py``).
    """
    if isinstance(device, DiskArray):
        if type(device) is not DiskArray:
            return f"array subclass {type(device).__name__}"
        if device.geometry is None:
            return "array has no disks installed"
        if device.failed_disk is not None or device.rebuilding:
            return "array degraded or rebuilding"
        level = device.geometry.level
        if level not in (RaidLevel.JBOD, RaidLevel.RAID0, RaidLevel.RAID5):
            # RAID-1/10 round-robin mirror reads through planner state.
            return f"raid level {level.value} mutates planner state"
        for disk in device.disks:
            reason = _qualify_member(disk)
            if reason is not None:
                return f"{disk.name}: {reason}"
        return None
    if isinstance(device, QueuedDevice):
        reason = _qualify_member(device)
        if reason is not None:
            return f"{device.name}: {reason}"
        return None
    return f"device model {type(device).__name__} has no kernel contract"


# ---------------------------------------------------------------------------
# Schedule computation: prepare -> solve -> commit (replay) or freeze (grid)
# ---------------------------------------------------------------------------
#
# A replay of one trace on one device is prepared once — package
# columns, capacity checks, stripe expansion, member rows and service
# plans (:func:`_prepare_plane`) — then solved for ``(P, n)`` rows of
# submit instants (:func:`_solve_plane`): one row for a single replay,
# one per cell in a fused grid.  A replay commits its row to the live
# device (:func:`_commit`); the grid freezes every row into power
# columns (:mod:`repro.sim.grid`).  Both feed the same sampled-output
# assembler (:func:`_assemble`).  Everything before the commit is pure.


def _bunch_times(trace: PackedTrace, t0: float) -> np.ndarray:
    """Bunch dispatch instants rebased to ``t0`` — the packed engine's
    arithmetic; unsorted instants would reorder dispatch."""
    times = t0 + (trace.timestamps - trace.timestamps[0])
    if times.size > 1 and bool(np.any(np.diff(times) < 0)):
        raise _Fallback("unsorted bunch timestamps reorder dispatch")
    return times


def _columns(trace: PackedTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    pk = trace.packages
    sectors = pk["sector"].astype(np.int64, copy=False)
    nbytes = pk["nbytes"].astype(np.int64, copy=False)
    ops = pk["op"].astype(np.int64)
    if sectors.size == 0:
        raise _Fallback("trace has no packages")
    if bool(np.any(nbytes <= 0)) or bool(np.any(sectors < 0)):
        raise _Fallback("invalid package geometry")
    return sectors, nbytes, ops


def _check_timeline_clear(dev: QueuedDevice, first_start: float) -> None:
    """The event path appends segments after the timeline's last end;
    a stale timeline would make it raise mid-run — fall back instead."""
    timeline = dev.timeline
    n = timeline.segment_count
    if n and first_start < timeline._ends[n - 1] - 1e-12:
        raise _Fallback(f"{dev.name}: power timeline extends past replay start")


def _member_rows(exp: FlightExpansion, n_disks: int) -> List[np.ndarray]:
    """Each member disk's sub-I/O indices in plan order — the member
    queue's arrival order whenever every sub-I/O arrives at dispatch."""
    order = np.argsort(exp.disk, kind="stable")
    cuts = np.searchsorted(
        exp.disk[order], np.arange(n_disks + 1, dtype=np.int64)
    )
    return [order[int(cuts[di]):int(cuts[di + 1])] for di in range(n_disks)]


@dataclass
class _RmwMember:
    """One member disk's RMW sub-I/Os in member-local index space.

    Local index ``j`` is the member's ``j``-th sub-I/O in plan order
    (global index ``rows[j]``); plan order is flight-major, so each
    flight's rows are a local range (:meth:`start`).  *Fixed* rows — pre
    reads and the sub-I/Os of flights without a barrier — enter the
    queue at their flight's dispatch instant; *post* writes enter at
    their flight's barrier instant, the one quantity the fixpoint
    iterates.

    The ``(P, ·)`` arrays hold one row per cell, solved window by
    window (:func:`_solve_two_phase`): the first ``filled`` entries of
    ``order`` / ``arrivals`` / ``fin`` (None until a window freezes) are
    the frozen serving order (local indices), its arrivals and its
    finishes.  ``prev`` is the finish of the last frozen request and
    ``cursor`` the last frozen
    :attr:`~repro.storage.base.ServicePlan.cursor_rows` row (-1: none
    yet): where the next window resumes the server and its service
    plan.  ``carry_loc`` / ``carry_arr`` are the posts of frozen flights
    that land past the cut — final arrivals the next window serves —
    ascending, padded with ``k`` / ``+inf``.
    """

    rows: np.ndarray  # (k,) global sub-I/O indices, plan order
    plan: ServicePlan  # the member's service plan over ``rows``
    flight: np.ndarray  # (k,) flight of every local row
    is_post: np.ndarray  # (k,) local post mask
    post_barrier: np.ndarray  # (k,) each post's barrier column
    pre: np.ndarray  # local positions of pre reads
    pre_slot: np.ndarray  # their columns in the barrier slot matrix
    filled: np.ndarray  # (P,)
    prev: np.ndarray  # (P,)
    cursor: np.ndarray  # (P,)
    carry_loc: np.ndarray  # (P, c)
    carry_arr: np.ndarray  # (P, c)
    order: Optional[np.ndarray] = None  # (P, k)
    arrivals: Optional[np.ndarray] = None  # (P, k)
    fin: Optional[np.ndarray] = None  # (P, k)

    def start(self, f: int) -> int:
        """The first local row of flight ``f`` or a later one."""
        return int(np.searchsorted(self.flight, f))

    def mark(self) -> tuple:
        """The solve state at a cut, for :meth:`restore`.  Freezing
        only writes the schedule past ``filled``, so the schedule up to
        the cut needs no copy."""
        return (
            self.filled.copy(), self.prev.copy(), self.cursor.copy(),
            self.carry_loc.copy(), self.carry_arr.copy(),
        )

    def restore(self, state: tuple) -> None:
        """Go back to the cut :meth:`mark` saw."""
        (
            self.filled, self.prev, self.cursor, self.carry_loc,
            self.carry_arr,
        ) = state

    def freeze(
        self, rows: np.ndarray, loc: np.ndarray, a: np.ndarray,
        f: np.ndarray, cut: int, dispatch: np.ndarray, whole: bool,
    ) -> None:
        """Freeze a window's schedule of cells ``rows`` below flight
        ``cut``: ``loc`` / ``a`` / ``f`` are each row's serving order
        (local indices, ``k`` for padding), arrivals and finishes.
        Append every request that sorts before the flight's first
        sub-I/O here (key ``(arrival, local)``; all of them when ``cut``
        is the trace end) to the schedule, move ``prev`` and ``cursor``
        to the cut, and carry the posts of earlier flights still
        unserved.  ``whole``: the window served every one of its rows."""
        k = self.rows.size
        n = dispatch.shape[1]
        edge = self.start(cut)
        if cut == n:
            keep = loc < k
        else:
            at_cut = dispatch[rows, cut][:, None]
            keep = (a < at_cut) | ((a == at_cut) & (loc < edge))
        count = keep.sum(axis=1)
        if (
            self.order is None and whole and rows.size == self.filled.size
            and bool(np.all(count == k))
        ):
            # The window served every row whole (padding sorts last):
            # its schedule is the member's.
            self.order, self.arrivals, self.fin = (
                loc[:, :k], a[:, :k], f[:, :k]
            )
        else:
            if self.order is None:
                shape = (self.filled.size, k)
                self.order = np.empty(shape, dtype=np.int64)
                self.arrivals = np.empty(shape)
                self.fin = np.empty(shape)
            r, col = np.nonzero(keep)
            dest = self.filled[rows][r] + col
            self.order[rows[r], dest] = loc[r, col]
            self.arrivals[rows[r], dest] = a[r, col]
            self.fin[rows[r], dest] = f[r, col]
        if cut == n:
            return
        self.filled[rows] += count
        some = count > 0
        self.prev[rows[some]] = f[some, count[some] - 1]
        moves = keep & self.plan.cursor_rows[np.minimum(loc, k - 1)]
        some = moves.any(axis=1)
        last = moves.shape[1] - 1 - np.argmax(moves[:, ::-1], axis=1)
        self.cursor[rows[some]] = loc[some, last[some]]
        left = np.where(~keep & (loc < edge), loc, k)
        c = int(np.max(np.sum(left < k, axis=1), initial=0))
        grow = c - self.carry_loc.shape[1]
        if grow > 0:
            self.carry_loc = np.pad(self.carry_loc, ((0, 0), (0, grow)),
                                    constant_values=k)
            self.carry_arr = np.pad(self.carry_arr, ((0, 0), (0, grow)),
                                    constant_values=np.inf)
        take = np.argsort(left, axis=1, kind="stable")[:, :c]
        carried = _take_rows(left, take)
        self.carry_loc[rows] = k
        self.carry_arr[rows] = np.inf
        self.carry_loc[rows, :c] = carried
        self.carry_arr[rows, :c] = np.where(
            carried < k, _take_rows(a, take), np.inf
        )


def _merge_posts(
    fixed_arr: np.ndarray,
    post_arr: np.ndarray,
    fixed: np.ndarray,
    posts: np.ndarray,
    post_rank: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row serving order and sorted arrivals of one member.

    ``fixed_arr`` ``(R, f)`` and ``post_arr`` ``(R, q)`` are the
    arrivals of the local rows ``fixed`` and ``posts`` — ``(f,)`` /
    ``(q,)`` shared by every row, or ``(R, f)`` / ``(R, q)`` per row
    (each row a permutation of ``f + q`` local rows).  Returns
    ``(order, arrivals)``, both ``(R, f + q)``: ``order`` is exactly
    ``np.argsort(a, kind="stable")`` of each row's local arrival vector
    ``a``, and ``arrivals`` is ``a`` in that order — except among
    ``+inf`` arrivals (padding), whose order is unspecified.

    Fixed arrivals are dispatch instants, nondecreasing in plan order,
    so only the posts need a real sort; the stable sort of
    ``[fixed | sorted posts]`` then merges two sorted runs.  Within
    each part, equal arrivals keep local order, as the full sort keeps
    them.  Across parts the concatenation puts a fixed row before an
    equal post, where the full sort goes by local index — so a row with
    an exact fixed/post tie is re-sorted in full.  Correctness rests on
    the tie check alone: unsorted fixed arrivals only make the merge
    sort slower.

    ``post_rank`` ``(R, q)``, when given, orders equal post arrivals
    before local order (their barriers' calendar order, see
    :func:`_solve_two_phase`); a post still precedes an equal fixed row,
    as local order puts it (its flight dispatched first).
    """
    n_rows, f = fixed_arr.shape
    q = post_arr.shape[1]
    if fixed.ndim == 1:
        fixed = np.broadcast_to(fixed, (n_rows, f))
        posts = np.broadcast_to(posts, (n_rows, q))
    if post_rank is None:
        po = np.argsort(post_arr, axis=1, kind="stable")
    else:
        po = np.lexsort((post_rank, post_arr))
    both = np.concatenate((fixed_arr, _take_rows(post_arr, po)), axis=1)
    mo = np.argsort(both, axis=1, kind="stable")
    arrivals = _take_rows(both, mo)
    local = np.concatenate((fixed, _take_rows(posts, po)), axis=1)
    order = _take_rows(local, mo)
    equal = (arrivals[:, 1:] == arrivals[:, :-1]) & (arrivals[:, 1:] < np.inf)
    if not equal.any():
        return order, arrivals
    row, col = np.nonzero(equal)
    cross = (mo[row, col] >= f) != (mo[row, col + 1] >= f)
    for i in np.unique(row[cross]).tolist():
        a = np.empty(f + q, dtype=np.float64)
        a[fixed[i]] = fixed_arr[i]
        a[posts[i]] = post_arr[i]
        if post_rank is None:
            order[i] = np.argsort(a, kind="stable")
        else:
            sec = np.full(a.size, np.iinfo(np.int64).max)
            sec[posts[i]] = post_rank[i]
            order[i] = np.lexsort((sec, a))
        arrivals[i] = a[order[i]]
    return order, arrivals


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)``; a single row takes the
    flat gather, several times cheaper."""
    if a.shape[0] == 1:
        return np.take(a, idx)
    return np.take_along_axis(a, idx, axis=1)


def _put_rows(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``np.put_along_axis(out, idx, values, axis=1)``, flat for one row."""
    if out.shape[0] == 1:
        np.put(out, idx, values)
    else:
        np.put_along_axis(out, idx, values, axis=1)


@dataclass
class _TwoPhase:
    """The RMW fixpoint of ``P`` rows (cells).

    ``members`` follows the member disks (None where a member serves
    nothing); each member's ``order``, ``arrivals`` and ``fin`` rows are
    its solved schedule, ready to commit (a placeholder on ``costly``
    rows).  ``sub_fin`` is ``(P, total)`` finishes by global sub-I/O.
    ``passes`` and ``windows`` count each row's fixpoint passes and the
    windows they ran in.  ``rank`` is the post tie order the solve
    ended with (None: flight order throughout).
    """

    members: List[Optional[_RmwMember]]
    costly: np.ndarray  # (P,) bool: the solve outgrew an event replay
    tied: np.ndarray  # (P,) bool: arrival ties only sequence numbers break
    sub_fin: np.ndarray
    passes: np.ndarray  # (P,)
    windows: np.ndarray  # (P,)
    rank: Optional[np.ndarray] = None  # (P, barriers)


class _Window:
    """Every serving member's share of one window, stacked into one
    ``(R * M, K)`` problem: stacked row ``r * M + j`` is window row
    ``r`` (cell ``rows[r]``) on member ``j``, so a pass is one merge,
    one pricing of the stacked service plan and one Lindley solve per
    block of ``_PASS_BLOCK`` columns.

    Member ``j``'s columns are its carried posts (``c`` per row,
    padded), then every local row of the window's flights, local rows
    ``a`` onwards, in local order, then padding up to ``K`` columns.
    Among equal arrivals serving order is column order, which is local
    order, so a window sorts exactly as the whole member would.
    Padding arrives at ``+inf``, so it sorts last: it is priced as the
    member's last row and frozen as local index ``k`` (none).  Each
    stacked row starts from its member's server and plan state at the
    cut: ``prev`` and ``after`` (the stacked plan's row, -1: the
    member's prepared cursors).  ``stack()`` returns every member's
    plan concatenated (``ServicePlan.stack``).
    """

    def __init__(
        self, members: List[_RmwMember], stack: Callable[[], object],
        rows: np.ndarray,
        lo: int, hi: int, dispatch: np.ndarray, bars: Tuple[int, int],
        slot0: int, rank: Optional[np.ndarray] = None,
    ) -> None:
        self.members = members
        self.rows = rows
        # Past the first cut each row resumes its server and plan.
        self.resumed = lo > 0
        self.bars = bars
        n_mem, n_rows, n = len(members), rows.size, dispatch.shape[1]
        spans = []
        for m in members:
            a, b = m.start(lo), m.start(hi)
            k = m.rows.size
            c = (
                int(np.max(np.sum(m.carry_loc[rows] < k, axis=1)))
                if m.carry_loc.shape[1] else 0
            )
            own_post = m.is_post[a:b]
            spans.append((a, b, c, np.flatnonzero(~own_post),
                          np.flatnonzero(own_post)))
        n_fix = max(s[3].size for s in spans)
        n_post = max(s[2] + s[4].size for s in spans)
        width = n_fix + n_post
        self.n_mem, self.width = n_mem, width
        # Rows are served in blocks of ``step`` (see ``_PASS_BLOCK``).  A
        # block of one row is one member's, priced by its own plan; only
        # a window whose blocks mix members needs the concatenated plan.
        self.step = max(n_rows, _PASS_BLOCK // max(width, 1))
        self.plan = stack() if self.step > 1 else None
        # Post arrivals come from one source matrix per pass: the
        # window's barrier columns, one ``+inf`` column (padding), then
        # every member's carried arrivals.
        n_bar = bars[1] - bars[0]
        carried = [np.full((n_rows, 1), np.inf)]
        fixed_cols, post_cols, fixed_src, post_src = [], [], [], []
        col_loc, post_rank, pre_src, pre_slot = [], [], [], []
        # Window columns map to member-local rows through ``col_loc``;
        # with no carried posts that is arithmetic (:meth:`_local`).
        carries = any(s[2] for s in spans)
        span = []
        last = []
        at = n_bar + 1
        ranks = None if rank is None else rank[rows]
        for j, (m, (a, b, c, fix, own)) in enumerate(zip(members, spans)):
            k = m.rows.size
            w = c + b - a
            pad = np.arange(w, width)
            fixed_cols.append(
                np.concatenate((c + fix, pad[:n_fix - fix.size]))
            )
            post_cols.append(np.concatenate(
                (np.arange(c), c + own, pad[n_fix - fix.size:])
            ))
            fixed_src.append(np.concatenate(
                (m.flight[a + fix], np.full(n_fix - fix.size, n))
            ))
            own_bar = m.post_barrier[a + own]
            post_src.append(np.concatenate((
                at + np.arange(c), own_bar - bars[0],
                np.full(n_post - c - own.size, n_bar),
            )))
            carried.append(m.carry_arr[rows, :c])
            at += c
            col_loc.append(np.concatenate(
                (
                    m.carry_loc[rows, :c],
                    np.broadcast_to(np.arange(a, b), (n_rows, b - a)),
                    np.full((n_rows, width - w), k),
                ),
                axis=1,
            ) if carries else None)
            span.append((a, w, k))
            if ranks is not None:
                # Each post column's rank among equal arrivals (carried
                # posts by their own barrier; padding takes any).
                post_rank.append(np.concatenate(
                    (
                        _take_rows(ranks, m.post_barrier[
                            np.minimum(m.carry_loc[rows, :c], k - 1)
                        ]),
                        ranks[:, own_bar],
                        np.zeros((n_rows, n_post - c - own.size), np.int64),
                    ),
                    axis=1,
                ))
            p0, p1 = np.searchsorted(m.pre, (a, b))
            pre_src.append(j * width + c + m.pre[p0:p1] - a)
            pre_slot.append(m.pre_slot[p0:p1] - slot0)
            last.append(k - 1)
        stack = n_rows * n_mem
        self.fixed_cols = np.array(fixed_cols, np.int64).reshape(n_mem, n_fix)
        self.post_cols = np.array(post_cols, np.int64).reshape(n_mem, n_post)
        self.post_src = np.concatenate(post_src)
        self.carried = np.concatenate(carried, axis=1)
        dsp = np.concatenate(
            (_rows(dispatch, rows), np.full((n_rows, 1), np.inf)), axis=1
        )
        self.fixed_arr = dsp[:, np.concatenate(fixed_src)].reshape(
            stack, n_fix
        )
        self.col_loc = (
            np.stack(col_loc, axis=1).reshape(stack, width) if carries
            else None
        )
        self.span = np.array(span, dtype=np.int64)  # (a, w, k) per member
        self.post_rank = (
            None if rank is None
            else np.stack(post_rank, axis=1).reshape(stack, n_post)
        )
        self.pre_src = np.concatenate(pre_src)
        self.pre_slot = np.concatenate(pre_slot)
        self.last = np.array(last, dtype=np.int64)
        # Member ``j``'s rows start at stacked plan row ``base[j]``.
        self.base = np.cumsum([0] + [m.rows.size for m in members[:-1]])
        if self.resumed:
            self.prev = np.stack(
                [m.prev[rows] for m in members], axis=1
            ).ravel()
            self.after = np.stack(
                [m.cursor[rows] for m in members], axis=1
            ).ravel()
        shape = (stack, width)
        self.post_seen = np.empty((stack, n_post))
        self.order = np.full(shape, -1, dtype=np.int64)
        self.arrivals = np.empty(shape)
        self.seconds = np.empty(shape)
        self.col_fin = np.empty(shape)  # finishes by window column

    def serve(
        self, act: np.ndarray, barrier: np.ndarray, pre_fin: np.ndarray,
        first: bool,
    ) -> None:
        """One pass over window rows ``act``: serve the current post
        arrivals and scatter the pre-read finishes into ``pre_fin``.
        Stacked rows whose posts did not move keep their schedule;
        rows whose serving order did not change keep their seconds."""
        n_mem, width = self.n_mem, self.width
        b0, b1 = self.bars
        src = np.concatenate(
            (barrier[self.rows[act], b0:b1], self.carried[act]), axis=1
        )
        st = (act[:, None] * n_mem + np.arange(n_mem)).ravel()
        cell = np.arange(act.size).repeat(n_mem)[:, None]  # src row
        post_src = self.post_src.reshape(n_mem, -1)
        served = False
        for i in range(0, st.size, self.step):
            sel = st[i:i + self.step]
            post_arr = src[cell[i:i + self.step], post_src[sel % n_mem]]
            if not first:
                moved = np.any(post_arr != self.post_seen[sel], axis=1)
                sel, post_arr = sel[moved], post_arr[moved]
                if not sel.size:
                    continue
            self.post_seen[sel] = post_arr
            self._serve_rows(sel, post_arr)
            served = True
        if served and self.pre_src.size:
            cells = self.col_fin.reshape(self.rows.size, n_mem * width)
            cell = act[:, None]
            pre_fin[cell, self.pre_slot] = cells[cell, self.pre_src]

    def _serve_rows(self, sel: np.ndarray, post_arr: np.ndarray) -> None:
        """Serve stacked rows ``sel`` at post arrivals ``post_arr``."""
        mem = sel % self.n_mem
        o, a = _merge_posts(
            self.fixed_arr[sel], post_arr, self.fixed_cols[mem],
            self.post_cols[mem],
            None if self.post_rank is None else self.post_rank[sel],
        )
        sec = self.seconds[sel]
        redo = ~np.all(o == self.order[sel], axis=1)
        if redo.any():
            again, mem = sel[redo], mem[redo]
            sec[redo] = self._price(
                np.minimum(self._local(o[redo], again), self.last[mem, None]),
                mem, self.after[again] if self.resumed else None,
            )
        # Padding (``+inf``) trails every row: chained onto the last busy
        # run instead of each opening a run of its own, it cannot delay
        # a real request either way.
        f = _solve_lindley(
            np.where(a == np.inf, _NEG_INF, a), sec,
            self.prev[sel] if self.resumed else _NEG_INF,
        )
        self.order[sel] = o
        self.arrivals[sel] = a
        self.seconds[sel] = sec
        by_col = np.empty_like(f)
        _put_rows(by_col, o, f)
        self.col_fin[sel] = by_col

    def _price(
        self, loc: np.ndarray, mem: np.ndarray, after: Optional[np.ndarray]
    ) -> np.ndarray:
        """Service seconds of member-local orders ``loc`` on members
        ``mem``, resumed ``after`` member-local rows (-1: none)."""
        if self.plan is None:
            return self.members[int(mem[0])].plan.seconds(loc, after)
        base = self.base[mem]
        if after is not None:
            after = np.where(after >= 0, after + base, -1)
        return self.plan.seconds(loc + base[:, None], after)

    def _local(self, o: np.ndarray, st: np.ndarray) -> np.ndarray:
        """Member-local rows of window columns ``o`` of stacked rows
        ``st`` (``k``: padding)."""
        if self.col_loc is not None:
            return _take_rows(self.col_loc[st], o)
        a, w, k = self.span[st % self.n_mem].T[..., None]
        return np.where(o < w, o + a, k)

    def freeze(self, at: np.ndarray, cut: int, dispatch: np.ndarray) -> None:
        """Freeze window rows ``at`` below flight ``cut`` on every
        member (:meth:`_RmwMember.freeze`)."""
        rows = self.rows[at]
        whole = at.size == self.rows.size
        shape = (self.rows.size, self.n_mem, self.width)
        for j, m in enumerate(self.members):
            st = at * self.n_mem + j
            if whole:
                # The window is done: member ``j``'s rows become its
                # schedule in place (local order, finishes in serving
                # order), so the member can share them.
                o, a, f = (
                    x.reshape(shape)[:, j]
                    for x in (self.order, self.arrivals, self.col_fin)
                )
                f[...] = _take_rows(f, o)
                o[...] = self._local(o, st)
            else:
                o = self.order[st]
                a, f = self.arrivals[st], _take_rows(self.col_fin[st], o)
                o = self._local(o, st)
            m.freeze(rows, o, a, f, cut, dispatch, whole)


def _next_window(lo: int, hi: int, cut: int, peak: int, n: int) -> int:
    """End of the window after ``[lo, hi)`` was frozen below ``cut``.

    A stationary window (``cut == hi``) is followed by one twice as
    long; a cut one by four of the largest one-pass frontier advances
    (``peak``) it saw — never less than one flight, the exact
    sequential floor, and never past the trace end ``n``.
    """
    if cut == hi:
        return min(n, hi + 2 * (hi - lo))
    return min(n, cut + max(4 * peak, 1))


def _rmw_members(
    exp: FlightExpansion,
    rows: List[np.ndarray],
    plans: List[Optional[ServicePlan]],
    n_rows: int,
) -> Tuple[List[Optional[_RmwMember]], np.ndarray, int]:
    """Each member's RMW rows, fresh for ``n_rows`` cells (None where a
    member serves nothing), the barrier-column prefix ``bar_at`` and
    the pre-read slot ``width`` (see :func:`_solve_two_phase`)."""
    n = exp.pre_counts.size
    has_pre = exp.pre_counts > 0
    post_mask = ~exp.is_pre & has_pre[exp.sub_flight]
    # ``bar_at[f]`` counts the barrier flights before flight ``f``: the
    # barrier column of a barrier flight, and a window's column range.
    bar_at = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(has_pre, out=bar_at[1:])
    # Each barrier flight's pre-read finishes fill a row of ``width``
    # slots (a flight's pre block leads its plan), padded with -inf, so
    # the barrier is a few elementwise maxima over the slot columns.
    width = int(exp.pre_counts.max())
    members: List[Optional[_RmwMember]] = []
    for r, plan in zip(rows, plans):
        if plan is None:
            members.append(None)
            continue
        flight = exp.sub_flight[r]
        is_post = post_mask[r]
        pre = np.flatnonzero(exp.is_pre[r])
        pre_flight = flight[pre]
        members.append(
            _RmwMember(
                rows=r,
                plan=plan,
                flight=flight,
                is_post=is_post,
                post_barrier=np.where(is_post, bar_at[flight], -1),
                pre=pre,
                pre_slot=bar_at[pre_flight] * width
                + (r[pre] - exp.flight_offsets[pre_flight]),
                filled=np.zeros(n_rows, dtype=np.int64),
                prev=np.full(n_rows, _NEG_INF),
                cursor=np.full(n_rows, -1, dtype=np.int64),
                carry_loc=np.empty((n_rows, 0), dtype=np.int64),
                carry_arr=np.empty((n_rows, 0)),
            )
        )
    return members, bar_at, width


def _solve_two_phase(
    exp: FlightExpansion,
    rows: List[np.ndarray],
    plans: List[Optional[ServicePlan]],
    dispatch: np.ndarray,
    rank: Optional[np.ndarray] = None,
) -> _TwoPhase:
    """Solve the per-flight two-phase (RMW) barrier exactly, in sliding
    windows of flights.

    The event path issues a flight's ``pre`` reads at its dispatch
    instant and its ``post`` writes the moment the last pre read
    completes (:meth:`DiskArray._pre_done` runs inside that completion
    callback).  Post arrivals therefore feed back into the member FIFO
    orders, which determine the order-dependent service times (seek
    chains, write-stream cursors), which determine the pre completion
    times — a fixpoint.  A *pass* evaluates the map once: (a) order
    each member's sub-I/Os by arrival (stable, so plan order breaks
    ties exactly like the event calendar: completion-issued posts carry
    lower flight indices than any dispatch tied with them, and a
    flight's pre block precedes its post block; two flights' tied posts
    go by ``rank``, else flight order), (b) evaluate that
    order's service seconds and Lindley finishes, (c) reduce each
    flight's pre block to its barrier instant.  Causality (service
    times are positive, posts issue strictly after their pre reads)
    makes the event engine's schedule the *unique* fixpoint, so a
    stationary barrier vector is bit-identical to the event path's.

    **Causality frontier.**  A request's finish depends only on the
    requests served before it, which arrived no later.  Seed every
    barrier at its flight's dispatch; every later iterate lies strictly
    after it.  After a pass, let ``tau`` be the smallest ``min(old,
    new)`` over the barriers that moved.  Every arrival below ``tau`` is
    the same in both iterates, so every flight dispatched before ``tau``
    has its final barrier, no such flight moves again, and ``tau`` never
    decreases; the schedule the *next* pass computes is final for every
    request that sorts before the first flight dispatched at or after
    ``tau``.  Ordering the barrier flights by dispatch, the first one
    not yet final waits only on final arrivals, so each pass finalises
    at least one more: a window with ``b`` barrier flights is
    stationary after at most ``b + 1`` passes.  There is no pass cap;
    the one limit is on work (the cost bound below).

    **Windows.**  A window is a range of flights ``[lo, hi)``; dispatch
    is nondecreasing in flight index, so one range is a time window in
    every row.  It serves, per member, the posts carried in from
    earlier flights, then every sub-I/O of its own flights, from the
    server's finish and service-plan cursor at the cut (``prev``,
    ``after``); requests of later flights sort after everything it must
    get right.  A window ends stationary — its schedule is frozen below
    ``hi`` and the next window is twice as long — or it is cut at the
    frontier the previous pass proved, and the next window starts
    there.  Posts of frozen flights that land past the cut are carried
    into the next window as fixed arrivals.  A pass serves every member
    at once (:class:`_Window`): the members' rows are stacked into one
    problem, priced by one stacked service plan (``ServicePlan.stack``)
    and solved by one Lindley call (per block of ``_PASS_BLOCK``
    columns).

    **Sizing.**  The first window is the whole trace: fixpoints whose
    errors settle in parallel see the frontier at least double every
    pass and finish there.  It is cut once it has run as many passes
    as such a frontier needs to cross it (the bit length of its flight
    count).  A later window is cut once its first half is proven, and
    the next one holds four of the largest one-pass frontier advances
    the solve observed in it: the frontier, at most one advance past
    the cut, stays clear of the window's end until the next cut.  Both
    sizes come from what the solve observes, never from a setting.  A
    one-flight window is the exact sequential path, so the solve
    always ends, and always exactly.

    **Cost bound.**  A frontier that crawls a few flights per pass
    (same-stripe or sequential small writes at saturation) makes many
    small windows, each pass paying a fixed NumPy overhead, and such a
    solve can cost several event replays.  So work is counted per row,
    in stacked columns served per pass plus ``_PASS_WORK`` per pass
    (shared by the rows of a pass; a pass's fixed NumPy cost no longer
    grows with the member count).  Past its first window — at most the
    bit length of the trace's flight count in whole-trace passes — a
    row may spend as much again as that window, or as an event replay
    would (``_EVENT_WORK_PER_SUBIO`` per sub-I/O), whichever is more.  At
    each window's end, a row whose work so far plus the rest of the
    trace at the pace of its windows since the first would pass that
    budget is ``costly``: it stops, and callers refuse it.  A crawling
    frontier then costs little more than the first window and one event
    replay, and a trace whose solve beats the event replay keeps the
    kernel.

    ``rows``/``plans`` are each member's sub-I/Os in plan order
    (:func:`_member_rows`) and their service plan (None for members
    that serve nothing).  ``dispatch`` is ``(P, n)``: one row per grid
    cell (``P = 1`` for a single replay).  Rows share windows; a row
    whose window is stationary rests until the window ends, and a row
    is done once a window ending at the trace end is stationary for it.

    ``rank`` ``(P, barriers)``, when given, orders two flights' posts
    that reach one member at one instant (two barriers releasing
    together); flight order otherwise.  The event calendar breaks that
    tie by schedule sequence numbers, which depend on the schedule
    before the tie — frozen by the time the tie is.  So each window
    checks the ties it froze (:func:`_window_tie_order`); a row whose
    ties went against calendar order gets that order in ``rank``, and
    the solve goes back to the last window start before the earliest
    such tie and serves it again, keeping the barrier iterate (final
    below the tie).  The caller still checks the whole schedule
    (:func:`_rmw_calendar_solve`).  ``tied`` flags the rows where such a
    tie occurred.
    """
    n_rows, n = dispatch.shape
    has_pre = exp.pre_counts > 0
    members, bar_at, width = _rmw_members(exp, rows, plans, n_rows)
    live = [m for m in members if m is not None]
    stacked: list = []

    def stack() -> object:
        """Every member's plan concatenated (``ServicePlan.stack``),
        built on first use."""
        if not stacked:
            stacked.append(type(live[0].plan).stack([m.plan for m in live]))
        return stacked[0]

    barrier = dispatch[:, has_pre]
    passes = np.zeros(n_rows, dtype=np.int64)
    windows = np.zeros(n_rows, dtype=np.int64)
    event_work = _EVENT_WORK_PER_SUBIO * exp.total
    spent = np.zeros(n_rows)
    costly = np.zeros(n_rows, dtype=bool)
    # Per row: the next pass's schedule is final below this flight.
    proven = np.zeros(n_rows, dtype=np.int64)
    todo = np.arange(n_rows)
    lo, hi = 0, n
    first = None
    # Each window's start: (lo, hi, todo, every member's mark), so a
    # window that froze a post tie against calendar order can be served
    # again (:func:`_window_tie_order`); at most one rewind per barrier.
    marks: list = []
    rewinds = int(bar_at[n])
    while todo.size:
        marks.append((lo, hi, todo, [m.mark() for m in live]))
        windows[todo] += 1
        b0, b1 = int(bar_at[lo]), int(bar_at[hi])
        win = _Window(
            live, stack, todo, lo, hi, dispatch, (b0, b1), b0 * width, rank
        )
        pre_fin = np.full((todo.size, (b1 - b0) * width), _NEG_INF)
        # The whole-trace window is cut after ``bits`` passes at the
        # earliest.
        bits = n.bit_length() if first is None else 0
        span = dispatch[todo, lo:hi]
        act = np.arange(todo.size)  # window rows still moving
        solved = np.zeros(todo.size, dtype=bool)  # frozen to the trace end
        peak = 0  # the frontier's largest one-pass advance in this window
        pass_no = 0
        cols = win.order.shape[1] * len(live)
        while True:
            at = todo[act]
            spent[at] += cols + _PASS_WORK / act.size
            passes[at] += 1
            win.serve(act, barrier, pre_fin, pass_no == 0)
            pass_no += 1
            slots = pre_fin[act].reshape(act.size, b1 - b0, width)
            new = slots[..., 0].copy()
            for c in range(1, width):
                np.maximum(new, slots[..., c], out=new)
            old = barrier[at, b0:b1]
            moved = new != old
            barrier[at, b0:b1] = new
            still = moved.any(axis=1)
            if not still.all():
                proven[at[~still]] = hi
                if hi == n:
                    # Stationary through the trace end: these rows are solved.
                    win.freeze(act[~still], n, dispatch)
                    solved[act[~still]] = True
                act, at = act[still], at[still]
                old, new, moved = old[still], new[still], moved[still]
            if not act.size:
                cut = hi  # stationary: freeze it all
                break
            # This pass's schedule is final below each row's frontier
            # from the pass before.
            safe = int(proven[at].min())
            tau = np.where(moved, np.minimum(old, new), np.inf).min(axis=1)
            front = lo + np.sum(span[act] < tau[:, None], axis=1)
            peak = max(peak, int((front - proven[at]).max()))
            proven[at] = front
            if safe > lo and (
                pass_no >= bits if bits else 2 * (safe - lo) >= hi - lo
            ):
                cut = safe  # where this pass's schedule is proven final
                break
        if first is None:
            first = spent.copy()
            limit = first + np.maximum(first, event_work)
            first_cut = cut
        elif first_cut < cut < n:
            # Spent so far, plus the rest of the trace at the pace of the
            # windows since the first: past the budget?
            pace = (spent[todo] - first[todo]) / (cut - first_cut)
            costly[todo] |= spent[todo] + pace * (n - cut) > limit[todo]
        rest = np.flatnonzero(~solved & ~costly[todo])
        if rest.size:
            win.freeze(rest, cut, dispatch)
        done = np.flatnonzero(~costly[todo])
        if rewinds and done.size:
            # Two flights' posts tie only where two of the window's post
            # instants (its barriers and carried posts) are equal.
            inst = np.sort(np.concatenate(
                (barrier[todo[done], b0:b1], win.carried[done]), axis=1
            ), axis=1)
            same = (inst[:, 1:] == inst[:, :-1]) & (inst[:, 1:] < np.inf)
            done = done[np.any(same, axis=1)]
        if rewinds and done.size:
            rank, back = _window_tie_order(
                exp, live, marks[-1][3], todo[done], solved[done],
                dispatch, rank, bar_at,
            )
            if back:
                # Serve again from the last window start before the
                # earliest tie whose order changed: everything frozen
                # there arrived earlier, so it stands.  The barrier
                # iterate is kept: below the tie it is final.
                rewinds -= 1
                at = min(back.values())
                w = max(j for j, mk in enumerate(marks) if mk[0] < at)
                lo, hi, todo, state = marks[w]
                del marks[w:]
                for m, st in zip(live, state):
                    m.restore(st)
                todo = todo[~costly[todo]]
                for i, f in back.items():
                    proven[i] = min(proven[i], f)
                proven[todo] = np.minimum(proven[todo], hi)
                continue
        lo, hi = cut, _next_window(lo, hi, cut, peak, n)
        todo = todo[rest]
    if costly.any():
        # Costly rows are refused; a placeholder keeps them committable.
        for m in live:
            m.order[costly] = np.arange(m.rows.size)
            m.arrivals[costly] = 0.0
            m.fin[costly] = 0.0

    # Equal arrivals at one member keep plan order within a flight, and
    # a completion-issued post precedes a later flight's equal dispatch
    # (completions outrank dispatch events) — both encoded by local
    # order.  Only two flights' posts can tie otherwise; ``rank`` (or
    # flight order) decided them, and the caller checks that choice.
    tied = np.zeros(n_rows, dtype=bool)
    sub_fin = np.empty((n_rows, exp.total), dtype=np.float64)
    every = np.arange(n_rows)[:, None]
    for m in live:
        o, a = m.order, m.arrivals
        sub_fin[every, m.rows[o]] = m.fin
        if m.rows.size >= 2:
            tied |= np.any(_post_ties(m, o, a), axis=1)
    return _TwoPhase(members, costly, tied, sub_fin, passes, windows, rank)


def _post_ties(m: _RmwMember, o: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``(R, k - 1)``: serving positions ``j`` whose post shares its
    arrival with the post at ``j + 1`` of another flight."""
    fl = m.flight[o]
    pm = m.is_post[o]
    return (
        (a[..., 1:] == a[..., :-1]) & (fl[..., 1:] != fl[..., :-1])
        & pm[..., 1:] & pm[..., :-1]
    )


@dataclass
class _Member:
    """One member device's share of a prepared plane.

    ``rows`` are the requests it serves — sub-I/O indices on an array,
    package indices on a single device — in plan order, its serving
    order whenever every request arrives at dispatch.  On the RAID-5
    read-modify-write path the serving order varies per row, so the
    ``plan`` is kept and priced per order.  Otherwise it is priced once
    in plan order (``svc``) and dropped, so no two members' plans are
    alive at once; ``end_sectors`` keeps the one column of it a commit
    needs.
    """

    dev: QueuedDevice
    rows: np.ndarray
    end_sectors: Optional[np.ndarray] = None
    plan: Optional[ServicePlan] = None
    svc: Optional[VectorService] = None


@dataclass
class _Plane:
    """The time-independent half of replaying one trace on one device:
    which requests run against which device state, not when.

    ``members`` holds the device itself, or the array's disks in disk
    order (a disk that serves nothing has empty ``rows``).
    """

    nbytes: np.ndarray  # (n,) package bytes, row order
    members: List[_Member]
    array: Optional[DiskArray] = None
    exp: Optional[FlightExpansion] = None
    payload: Optional[np.ndarray] = None  # (n,) host-link seconds


def _prepare_member(
    dev: QueuedDevice,
    rows: np.ndarray,
    sectors: np.ndarray,
    nbytes: np.ndarray,
    ops: np.ndarray,
    keep_plan: bool,
) -> _Member:
    if not rows.size:
        return _Member(dev, rows)
    try:
        plan = dev.prepare_service(sectors, nbytes, ops)
    except StorageIOError as exc:
        raise _Fallback(str(exc))
    if int(plan.end_sectors.max()) > dev.capacity_sectors:
        raise _Fallback(f"{dev.name}: request beyond capacity")
    if keep_plan:
        return _Member(dev, rows, plan=plan)
    return _Member(
        dev, rows, plan.end_sectors, svc=plan.full(np.arange(rows.size))
    )


def _prepare_plane(trace: PackedTrace, device: StorageDevice) -> _Plane:
    """Prepare ``trace`` against ``device``'s current cursors, or raise
    :class:`_Fallback`.

    Stripe planning is closed form: :func:`expand_flights` returns the
    sub-I/Os flight-major in plan order (``pre`` block, then ``post``),
    exactly as :meth:`RaidGeometry.plan` emits them, in exact int64
    arithmetic.  Member plans are prepared one disk at a time.
    """
    sectors, nbytes, ops = _columns(trace)
    if not isinstance(device, DiskArray):
        member = _prepare_member(
            device, np.arange(nbytes.size), sectors, nbytes, ops,  # type: ignore[arg-type]
            keep_plan=False,
        )
        return _Plane(nbytes, [member])
    geom = device.geometry
    assert geom is not None
    end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
    if int(end_sectors.max()) > geom.capacity_sectors:
        raise _Fallback("request beyond array capacity")
    exp = expand_flights(geom, sectors, nbytes, ops)
    members = [
        _prepare_member(
            disk, r, exp.sector[r], exp.nbytes[r], exp.op[r], exp.has_pre
        )
        for disk, r in zip(device.disks, _member_rows(exp, len(device.disks)))
    ]
    return _Plane(
        nbytes, members, device, exp, nbytes / device.enclosure.link_rate
    )


@dataclass
class _Served:
    """One member's solved schedule, ``P`` rows in serving order."""

    arrivals: np.ndarray  # (P, k) queue-entry instants
    starts: np.ndarray  # (P, k) service starts: power-segment starts
    fin: np.ndarray  # (P, k) finishes: power-segment ends
    watts: np.ndarray  # (k,) shared by every row, or (P, k)
    apply_state: Callable[[], None]  # when P = 1: commit the cursors
    order: Optional[np.ndarray]  # (P, k) local serving order; None: plan order
    #: (P, k) requests queued though they wait for nothing (see
    #: :func:`_mark_tie_pushes`); None: there are none.
    tie_push: Optional[np.ndarray] = None

    def row_watts(self, i: int) -> np.ndarray:
        return self.watts if self.watts.ndim == 1 else self.watts[i]


def _served(
    arrivals: np.ndarray,
    fin: np.ndarray,
    watts: np.ndarray,
    apply_state: Callable[[], None],
    order: Optional[np.ndarray] = None,
) -> _Served:
    """Each request starts at ``max(arrival, previous finish)``."""
    starts = np.empty_like(fin)
    starts[:, 0] = arrivals[:, 0]
    np.maximum(arrivals[:, 1:], fin[:, :-1], out=starts[:, 1:])
    return _Served(arrivals, starts, fin, watts, apply_state, order)


@dataclass
class _Solution:
    """``P`` solved rows of a plane.

    ``fin``/``resp``/``nbytes`` are in *completion-event order* (the
    order the monitor saw completions on the event path).  ``served``
    follows the plane's members (None where a member serves nothing).
    ``record_rows`` holds each request's submit and start instants in
    completion order — the rest of its completion record — when the
    solve was asked to keep them.  ``rmw`` holds each row's RMW
    fixpoint passes and windows (None off the read-modify-write path),
    ``ties`` each row's tie groups put in calendar order.
    """

    fin: np.ndarray  # (P, n)
    resp: np.ndarray  # (P, n)
    nbytes: np.ndarray  # (n,) when completions keep row order, else (P, n)
    served: List[Optional[_Served]]
    link_end: Optional[np.ndarray]  # (P,) link-free instant, arrays only
    record_rows: Optional[Tuple[np.ndarray, np.ndarray]]  # (P, n) each
    rmw: Optional[Tuple[np.ndarray, np.ndarray]] = None  # (P,) each
    ties: Optional[np.ndarray] = None  # (P,)

    def row_bytes(self, i: int) -> np.ndarray:
        return self.nbytes if self.nbytes.ndim == 1 else self.nbytes[i]

    def row_record(self, i: int) -> Optional[CompletionRecord]:
        if self.record_rows is None:
            return None
        submit, start = self.record_rows
        return CompletionRecord(submit[i], start[i], self.fin[i])

    def row_rmw(self, i: int) -> Optional[Tuple[int, int]]:
        if self.rmw is None:
            return None
        passes, windows = self.rmw
        return int(passes[i]), int(windows[i])

    def row_ties(self, i: int) -> int:
        return 0 if self.ties is None else int(self.ties[i])


#: How deeply one calendar-order question may nest inside another (a
#: tie in the cause of a tie) before the row is refused.
_MAX_TIE_DEPTH = 64


class _Calendar:
    """The event calendar's order among one solved row's tied events.

    The calendar runs events by ``(time, priority, sequence)``, and a
    sequence number is given out inside the callback that schedules the
    event.  So among events at one instant the order is that of their
    causes, then the event's position within its cause's callback.
    Events are sub-I/O completions (ids ``0 .. total - 1``, priority 0)
    and flight dispatches (``total + f``, priority 1).  A completion is
    scheduled when its service starts, by:

    * the member's previous completion, at position 0
      (:meth:`QueuedDevice._finish` begins the next queued request
      before it delivers ``on_complete``), if the sub-I/O waited;
    * its arrival event otherwise — its flight's dispatch for a fixed
      row (position: its index in the phase block), or the completion
      of its flight's last-processed pre read for a post (position 1 +
      its index in the post block).  When the previous finish equals
      the arrival, the later-processed of the two is the cause.

    Service times are positive, so a completion's cause lies strictly
    earlier; dispatches are scheduled in flight order.  Causes and
    pairwise answers are memoised, so a walk costs O(events it reaches).

    ``schedules`` holds each serving member's ``(rows, order,
    arrivals)``: its sub-I/Os in plan order, its ``(P, k)`` serving
    order (None: plan order) and its arrivals in serving order; ``i``
    picks the row.
    """

    def __init__(
        self, exp: FlightExpansion, schedules: list, dispatch: np.ndarray,
        sub_fin: np.ndarray, i: int,
    ) -> None:
        arrival = np.empty(exp.total)
        prev = np.full(exp.total, -1, dtype=np.int64)
        for rows, order, arrivals in schedules:
            g = rows if order is None else rows[order[i]]
            arrival[g] = arrivals[i]
            prev[g[1:]] = g[:-1]
        pre = exp.pre_counts[exp.sub_flight]
        pos = np.arange(exp.total) - exp.flight_offsets[exp.sub_flight]
        post = ~exp.is_pre & (pre > 0)
        pos[post] += 1 - pre[post]
        self.total = exp.total
        self.offsets = exp.flight_offsets.tolist()
        self.pre_counts = exp.pre_counts.tolist()
        self.flight = exp.sub_flight.tolist()
        self.pos = pos.tolist()
        self.is_post = post.tolist()
        self.dispatch = dispatch[i].tolist()
        self.fin = sub_fin[i].tolist()
        self.arrival = arrival.tolist()
        self.prev = prev.tolist()
        self._cause: dict = {}
        self._lastpre: dict = {}
        self._before: dict = {}
        self._depth = 0

    def _key(self, e: int) -> Tuple[float, int]:
        if e < self.total:
            return self.fin[e], 0
        return self.dispatch[e - self.total], 1

    def last(self, subs: range) -> int:
        """The last-processed completion among ``subs`` at their latest
        finish."""
        fin = self.fin
        top = max(fin[s] for s in subs)
        best = -1
        for s in subs:
            if fin[s] == top and (best < 0 or self.before(best, s)):
                best = s
        return best

    def barrier(self, f: int) -> int:
        """The completion that issues flight ``f``'s posts: its
        last-processed pre read."""
        got = self._lastpre.get(f)
        if got is None:
            o = self.offsets[f]
            got = self._lastpre[f] = self.last(range(o, o + self.pre_counts[f]))
        return got

    def cause(self, s: int) -> Tuple[int, int]:
        """``(event, position)`` that scheduled sub-I/O ``s``'s completion."""
        got = self._cause.get(s)
        if got is not None:
            return got
        f = self.flight[s]
        a = self.barrier(f) if self.is_post[s] else self.total + f
        got = (a, self.pos[s])
        p = self.prev[s]
        if p >= 0 and p != a:
            fp, arr = self.fin[p], self.arrival[s]
            if fp > arr or (fp == arr and a < self.total and self.before(a, p)):
                got = (p, 0)
        self._cause[s] = got
        return got

    def before(self, x: int, y: int) -> bool:
        """Does event ``x`` run before ``y``?  Both distinct, at one
        ``(time, priority)``."""
        self._depth += 1
        if self._depth > _MAX_TIE_DEPTH:
            raise _Fallback("calendar tie order nests too deep")
        memo = self._before
        seen = []
        while True:
            got = memo.get((x, y))
            if got is not None:
                break
            seen.append((x, y))
            if x >= self.total:
                got = x < y  # dispatches are scheduled in flight order
                break
            cx, px = self.cause(x)
            cy, py = self.cause(y)
            if cx == cy:
                got = px < py
                break
            kx, ky = self._key(cx), self._key(cy)
            if kx != ky:
                got = kx < ky
                break
            x, y = cx, cy
        for a, b in seen:
            memo[(a, b)] = got
            memo[(b, a)] = not got
        self._depth -= 1
        return got


def _calendar_sorted(cal: _Calendar, flights, event) -> list:
    """``flights`` in the calendar order of their events ``event(f)``."""
    return sorted(flights, key=cmp_to_key(
        lambda f, g: -1 if cal.before(event(f), event(g)) else 1
    ))


def _post_tie_groups(
    cal: _Calendar, spans: list, i: int
) -> Tuple[dict, set]:
    """Row ``i``'s groups of flights whose posts tie at some member, by
    instant, over the serving positions ``spans`` (``(member, begin,
    end)``), and the instants whose ties went against calendar order."""
    groups: dict = {}
    wrong = set()
    for m, b, e in spans:
        o, a = m.order[i, b:e], m.arrivals[i, b:e]
        fl = m.flight[o]
        for j in np.flatnonzero(_post_ties(m, o, a)).tolist():
            f, g = int(fl[j]), int(fl[j + 1])
            t = float(a[j])
            groups.setdefault(t, set()).update((f, g))
            if not cal.before(cal.barrier(f), cal.barrier(g)):
                wrong.add(t)
    return groups, wrong


def _rank_in_calendar_order(
    cal: _Calendar, groups: dict, wrong: set, rank: Optional[np.ndarray],
    i: int, bar_at: np.ndarray, n_rows: int,
) -> np.ndarray:
    """``rank`` (flight order if None) with row ``i``'s ``wrong`` tie
    groups sorted into calendar order."""
    if rank is None:
        rank = np.tile(np.arange(bar_at[-1]), (n_rows, 1))
    for t in wrong:
        cols = bar_at[_calendar_sorted(cal, groups[t], cal.barrier)]
        rank[i, cols] = np.sort(rank[i, cols])
    return rank


def _window_tie_order(
    exp: FlightExpansion,
    live: List[_RmwMember],
    marked: list,
    cells: np.ndarray,
    solved: np.ndarray,
    dispatch: np.ndarray,
    rank: Optional[np.ndarray],
    bar_at: np.ndarray,
) -> Tuple[Optional[np.ndarray], dict]:
    """Check the post ties a window just froze against calendar order.

    ``cells`` are the rows the window froze (``solved``: to the trace
    end), ``marked`` each member's :meth:`_RmwMember.mark` from the
    window's start.  A tie's calendar order depends only on events
    before it, all of them frozen, so the frozen part of a row is enough
    to answer it.  Returns ``rank`` — with every group of flights whose
    tied posts went against calendar order sorted into it (created on
    first need) — and, for each row that changed, the first flight
    dispatched at or after its earliest such tie.  A row whose walk
    nests too deep is left to the check after the solve.
    """
    seen: dict = {}  # row -> [(member, begin, end)]: new posts that tie
    for m, st in zip(live, marked):
        k = m.rows.size
        end = np.where(solved, k, m.filled[cells])
        begin = np.maximum(st[0][cells] - 1, 0)
        a0, a1 = int(begin.min()), int(end.max())
        if a1 - a0 < 2:
            continue
        pos = np.arange(a0, a1 - 1)
        # Past a row's end the arrays hold no schedule yet.
        o = np.clip(m.order[cells, a0:a1], 0, k - 1)
        tie = _post_ties(m, o, m.arrivals[cells, a0:a1]) & (
            (pos >= begin[:, None]) & (pos + 1 < end[:, None])
        )
        for r in np.flatnonzero(tie.any(axis=1)).tolist():
            seen.setdefault(r, []).append((m, int(begin[r]), int(end[r])))
    back = {}
    for r, got in seen.items():
        i = int(cells[r])
        fin = np.full(exp.total, np.nan)
        schedules = []
        for m in live:
            e = k = m.rows.size
            if not solved[r]:
                e = int(m.filled[i])
            o = m.order[i:i + 1, :e]
            schedules.append((m.rows, o, m.arrivals[i:i + 1, :e]))
            fin[m.rows[o[0]]] = m.fin[i, :e]
        try:
            cal = _Calendar(exp, schedules, dispatch[i:i + 1], fin[None], 0)
            groups, wrong = _post_tie_groups(cal, got, i)
            if not wrong:
                continue
            rank = _rank_in_calendar_order(
                cal, groups, wrong, rank, i, bar_at, dispatch.shape[0]
            )
        except _Fallback:
            continue
        back[i] = int(np.searchsorted(dispatch[i], min(wrong)))
    return rank, back


def _order_tied_completions(
    cal: _Calendar, comp: np.ndarray, fin: np.ndarray
) -> int:
    """Reorder each run of equal flight completions in ``comp`` (one
    row of the completion order, ``fin`` its sorted finishes) into
    calendar order; returns the number of runs.  A flight completes at
    its last-processed final-phase sub-I/O."""
    offsets, pre = cal.offsets, cal.pre_counts
    runs = np.flatnonzero(np.diff(fin) != 0) + 1
    bounds = np.concatenate(([0], runs, [fin.size]))
    long = np.flatnonzero(np.diff(bounds) > 1)
    for r in long.tolist():
        a, b = int(bounds[r]), int(bounds[r + 1])
        flights = comp[a:b].tolist()
        event = {
            f: cal.last(range(offsets[f] + pre[f], offsets[f + 1]))
            for f in flights
        }
        comp[a:b] = _calendar_sorted(cal, flights, event.__getitem__)
    return int(long.size)


def _rmw_calendar_solve(
    plane: _Plane, dispatch: np.ndarray, reasons: list, ties: np.ndarray
) -> _TwoPhase:
    """The RMW fixpoint with post ties in calendar order.

    The solve orders two flights' equal post arrivals at one member by
    ``rank`` — flight order until shown otherwise — and already puts
    the ties each window froze in calendar order (see
    :func:`_solve_two_phase`).  A solved row whose tied posts still went
    against the calendar order of its own schedule (a window's walk
    nested too deep, or its rewinds ran out) gets that order as its
    rank and is solved again.  A schedule is exact once they agree: each
    tie's calendar order depends only on what ran before it, which the
    agreeing order served exactly.  Each re-solve settles at least the
    earliest disagreeing tie, so the loop ends.
    Rows whose calendar walk nests too deep are refused in ``reasons``;
    ``ties`` counts each row's post tie groups.
    """
    exp = plane.exp
    rows = [m.rows for m in plane.members]
    plans = [m.plan for m in plane.members]
    two = _solve_two_phase(exp, rows, plans, dispatch)
    bar_at = np.zeros(exp.pre_counts.size + 1, dtype=np.int64)
    np.cumsum(exp.pre_counts > 0, out=bar_at[1:])
    spans = [(m, 0, m.rows.size) for m in two.members if m is not None]
    rank = two.rank
    while True:
        redo = []
        for i in np.flatnonzero(two.tied & ~two.costly).tolist():
            if reasons[i] is not None:
                continue
            try:
                cal = _Calendar(
                    exp,
                    [(m.rows, m.order, m.arrivals)
                     for m in two.members if m is not None],
                    dispatch, two.sub_fin, i,
                )
                groups, wrong = _post_tie_groups(cal, spans, i)
                if not wrong:
                    ties[i] += len(groups)
                    continue
                rank = _rank_in_calendar_order(
                    cal, groups, wrong, rank, i, bar_at, len(reasons)
                )
            except _Fallback as exc:
                reasons[i] = exc.reason
                continue
            redo.append(i)
        if not redo:
            return two
        again = _solve_two_phase(exp, rows, plans, dispatch[redo], rank[redo])
        for m, r in zip(two.members, again.members):
            if m is not None:
                m.order[redo], m.arrivals[redo], m.fin[redo] = (
                    r.order, r.arrivals, r.fin
                )
        for name in ("costly", "tied", "sub_fin"):
            getattr(two, name)[redo] = getattr(again, name)
        rank[redo] = again.rank
        two.passes[redo] += again.passes
        two.windows[redo] += again.windows


def _solve_plane(
    plane: _Plane, submit: np.ndarray, keep_record: bool = False
) -> Tuple[List[Optional[str]], Optional[_Solution]]:
    """Solve the ``(P, n)`` package submit instants ``submit`` on ``plane``.

    Runs the controller link chain from the array's current link-free
    instant, expands each flight's dispatch to its sub-I/Os, solves each
    member's FCFS queue (the Lindley solver, or the RMW barrier fixpoint
    :func:`_solve_two_phase`), and reduces sub-I/O finishes to flight
    completions.  Returns one refusal reason per row (None where the row
    solved) and the solution, None when every row is refused.  A row
    keeps its first refusal in this order: a calendar walk that nests
    too deep while ordering tied RMW posts, an RMW fixpoint that would
    cost more than an event replay (it has no pass cap; see
    :func:`_solve_two_phase`), non-monotone member schedules in disk
    order, a calendar walk that nests too deep while ordering tied
    flight completions.  Ties themselves are never refused: tied posts
    and tied completions go in event-calendar order (:class:`_Calendar`).
    ``keep_record`` keeps the rows' completion records (for a capture
    or telemetry).
    """
    n_rows = submit.shape[0]
    reasons: List[Optional[str]] = [None] * n_rows
    ties = np.zeros(n_rows, dtype=np.int64)

    def refuse(bad: np.ndarray, reason: str) -> bool:
        """Mark the ``bad`` rows; True once every row is refused."""
        for i in np.flatnonzero(bad).tolist():
            if reasons[i] is None:
                reasons[i] = reason
        return None not in reasons

    exp = plane.exp
    array = plane.array
    link_end = None
    if array is None:
        dispatch = submit
    else:
        # Controller dispatch: overhead plus host-link payload serialisation.
        dispatch, link = _solve_link_chain(
            submit, array.enclosure.controller_overhead, plane.payload,
            array._link_busy_until,
        )
        link_end = link[:, -1]
    served: List[Optional[_Served]] = []
    rmw = None
    if exp is not None and exp.has_pre:
        # RAID-5 read-modify-write: post writes barrier on their pre
        # reads, so each row serves in its own converged order.
        two = _rmw_calendar_solve(plane, dispatch, reasons, ties)
        rmw = (two.passes, two.windows)
        if refuse(two.costly, "rmw fixpoint costs more than an event replay"):
            return reasons, None
        sub_fin = two.sub_fin
        for m in two.members:
            if m is None:
                served.append(None)
                continue
            svc = m.plan.full(m.order[0] if n_rows == 1 else m.order)
            served.append(
                _served(m.arrivals, m.fin, svc.watts, svc.apply_state, m.order)
            )
        _mark_tie_pushes(exp, two.members, served, dispatch, sub_fin, reasons)
    else:
        # Every request arrives at its flight's dispatch, so each member
        # serves in plan order.
        sub_fin = None if exp is None else np.empty((n_rows, exp.total))
        for member in plane.members:
            if not member.rows.size:
                served.append(None)
                continue
            arrivals = (
                dispatch if exp is None
                else dispatch[:, exp.sub_flight[member.rows]]
            )
            svc = member.svc
            fin = _solve_lindley(arrivals, svc.seconds)
            if sub_fin is not None:
                sub_fin[:, member.rows] = fin
            served.append(_served(arrivals, fin, svc.watts, svc.apply_state))
    for member, s in zip(plane.members, served):
        if s is not None and s.fin.shape[1] > 1:
            refuse(
                np.any(np.diff(s.fin, axis=1) < 0, axis=1),
                f"{member.dev.name}: non-monotone completion schedule",
            )
    if None not in reasons:
        return reasons, None
    if exp is None:
        # Single-server FIFO completes in row order (finish events are
        # scheduled in serving order, ties resolve by sequence), so the
        # monitor saw completions exactly in row order.
        fin = served[0].fin
        return reasons, _Solution(
            fin, fin - submit, plane.nbytes, served, None,
            (submit, served[0].starts) if keep_record else None,
        )
    # A flight completes when its last sub-I/O finishes; the monitor
    # accumulates tied completions in calendar order.
    fl_fin = np.maximum.reduceat(sub_fin, exp.flight_offsets[:-1], axis=1)
    comp_order = np.argsort(fl_fin, axis=1, kind="stable")
    fin = _take_rows(fl_fin, comp_order)
    tied = np.any(fin[:, 1:] == fin[:, :-1], axis=1)
    for i in np.flatnonzero(tied).tolist():
        if reasons[i] is not None:
            continue
        try:
            cal = _Calendar(
                exp,
                [
                    (member.rows, s.order, s.arrivals)
                    for member, s in zip(plane.members, served)
                    if s is not None
                ],
                dispatch, sub_fin, i,
            )
            ties[i] += _order_tied_completions(cal, comp_order[i], fin[i])
        except _Fallback as exc:
            reasons[i] = exc.reason
    if None not in reasons:
        return reasons, None
    return reasons, _Solution(
        fin, _take_rows(fl_fin - submit, comp_order),
        plane.nbytes[comp_order], served, link_end,
        (
            (_take_rows(submit, comp_order), _take_rows(dispatch, comp_order))
            if keep_record else None
        ),
        rmw, ties,
    )


def _mark_tie_pushes(
    exp: FlightExpansion,
    members: list,
    served: List[Optional[_Served]],
    dispatch: np.ndarray,
    sub_fin: np.ndarray,
    reasons: List[Optional[str]],
) -> None:
    """Mark the RMW posts the event engine queues though they wait for
    nothing.

    A post that arrives at the instant its member's previous request
    finishes starts then either way, but when its barrier's completion
    runs first on the calendar the member is still busy: the post is
    pushed, and popped at once by that finish.  A previous request of
    the post's own flight is one of its pre reads, whose completion the
    post's arrival follows: those are never pushed.  Rows whose
    calendar walk nests too deep are refused in ``reasons``.
    """
    pairs = [(m, s) for m, s in zip(members, served) if m is not None]
    rows = set()
    for m, s in pairs:
        # Arriving at the previous finish, a request starts there.
        r, j = np.nonzero(s.arrivals[:, 1:] == s.fin[:, :-1])
        loc, prev = m.order[r, j + 1], m.order[r, j]
        keep = m.is_post[loc] & (m.flight[loc] != m.flight[prev])
        if keep.any():
            s.tie_push = np.zeros(s.arrivals.shape, dtype=bool)
            s.tie_push[r[keep], j[keep] + 1] = True
            rows.update(r[keep].tolist())
    tied = [(m, s) for m, s in pairs if s.tie_push is not None]
    for i in sorted(rows):
        if reasons[i] is not None:
            continue
        try:
            cal = _Calendar(
                exp, [(m.rows, m.order, m.arrivals) for m, _ in pairs],
                dispatch, sub_fin, i,
            )
            for m, s in tied:
                for j in np.flatnonzero(s.tie_push[i]).tolist():
                    g = int(m.rows[m.order[i, j]])
                    s.tie_push[i, j] = cal.cause(g) == (cal.prev[g], 0)
        except _Fallback as exc:
            reasons[i] = exc.reason
    for _, s in tied:
        if not s.tie_push.any():
            s.tie_push = None


def _queued(s: _Served, i: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """One member row's queue-entry and queue-exit instants of the
    requests the event engine queues, and the peak queue length.

    A push counts the pops at or before its instant: a completion pops
    before a dispatch at one instant adds to the queue — except a tie
    push's own pop, which follows it (:func:`_mark_tie_pushes`).
    """
    arrivals, starts = s.arrivals[i], s.starts[i]
    pushed = starts > arrivals
    tie = None
    if s.tie_push is not None:
        tie = s.tie_push[i]
        pushed |= tie
    push, pop = arrivals[pushed], starts[pushed]
    if not push.size:
        return push, pop, 0
    popped = np.searchsorted(pop, push, side="right")
    if tie is not None:
        popped -= tie[pushed]
    ranks = np.arange(1, push.size + 1, dtype=np.int64)
    return push, pop, int((ranks - popped).max())


def _commit(plane: _Plane, sol: _Solution, queued: list) -> None:
    """Apply a one-row solution to the live device — every device,
    queue and power-timeline mutation the event path would have made.

    ``queued`` holds each member's ``(push, pop, high_water)`` (None
    where it served nothing), computed in the fallible phase: this
    helper must be infallible.
    """
    for member, s, q in zip(plane.members, sol.served, queued):
        if s is None:
            continue
        dev = member.dev
        n = int(member.rows.size)
        push, _pop, high = q
        dev.timeline.extend_segments(s.starts[0], s.fin[0], s.watts)
        s.apply_state()
        dev.completed_count += n
        last = n - 1 if s.order is None else int(s.order[0, -1])
        ends = member.end_sectors if member.plan is None else \
            member.plan.end_sectors
        dev._head_hint = int(ends[last])
        dev._queue.pushed_total += int(push.size)
        dev._queue.popped_total += int(push.size)
        if high > dev.queued_high_water:
            dev.queued_high_water = high
    array = plane.array
    if array is not None:
        array.completed_count += int(plane.nbytes.size)
        array.subio_count += plane.exp.total
        array._link_busy_until = float(sol.link_end[0])


# ---------------------------------------------------------------------------
# Sampled-output synthesis
# ---------------------------------------------------------------------------


def _tick_boundaries(t0: float, t_end: float, cycle: float) -> List[float]:
    """Fired sampling-tick instants, reproducing the event chain.

    Boundaries accumulate as Python floats (``b += cycle``) exactly like
    the rescheduling tick events; a tick landing at or after the final
    completion never fires (completions carry priority 0, ticks 10/11,
    and the run loop exits on the final completion).
    """
    bounds = [t0]
    b = t0
    while True:
        nb = b + cycle
        if nb >= t_end:
            break
        if nb <= b:
            raise _Fallback("sampling cycle vanishes below float resolution")
        bounds.append(nb)
        b = nb
        if len(bounds) > _MAX_WINDOWS:
            raise _Fallback("too many sampling windows for the kernel")
    return bounds


def _window_cuts(bounds: List[float], fin: np.ndarray) -> np.ndarray:
    """Completion-array cut indices per window (boundary ties close the
    window: completion events outrank sampling ticks at equal times)."""
    edges = np.asarray(bounds[1:], dtype=np.float64)
    mid = np.searchsorted(fin, edges, side="right")
    return np.concatenate(([0], mid, [fin.size])).astype(np.int64)


def _perf_series(
    bounds: List[float],
    end: float,
    fin: np.ndarray,
    resp: np.ndarray,
    nbytes: np.ndarray,
) -> List[PerfSample]:
    cuts = _window_cuts(bounds, fin)
    resp_list = resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(nbytes)))
    starts = bounds
    ends = bounds[1:] + [end]
    samples: List[PerfSample] = []
    for i in range(len(starts)):
        a, b = int(cuts[i]), int(cuts[i + 1])
        s, e = starts[i], ends[i]
        cnt = b - a
        if e <= s and not cnt:
            continue  # the monitor's forced close flushes counts only
        samples.append(
            PerfSample(
                start=float(s),
                end=float(e),
                completed=int(cnt),
                total_bytes=int(byte_prefix[b] - byte_prefix[a]),
                total_response=float(sum(resp_list[a:b])),
            )
        )
    return samples


def _power_windows(
    analyzer: PowerAnalyzer, bounds: List[float], end: float
) -> None:
    """Replay the analyzer's sampling windows through its real
    ``_record_window``: one batched energy query for every window (the
    scalar query's bits), then the sensor read window by window, in
    order."""
    t0 = np.asarray(bounds, dtype=np.float64)
    t1 = np.append(t0[1:], end)
    live = t1 > t0  # the analyzer skips empty windows
    t0, t1 = t0[live], t1[live]
    energies = analyzer.source.energies_between(t0, t1).tolist()
    for a, b, e in zip(t0.tolist(), t1.tolist(), energies):
        analyzer._record_window(a, b, e)


def _frame_series(
    bounds: List[float],
    end: float,
    fin: np.ndarray,
    resp: np.ndarray,
    nbytes: np.ndarray,
    push: np.ndarray,
    pop: np.ndarray,
    power_source,
) -> list:
    from ..telemetry.flightrec import get_flight_recorder
    from ..telemetry.registry import DEFAULT_TIME_BUCKETS
    from ..telemetry.stream import IntervalFrame

    buckets = tuple(float(b) for b in DEFAULT_TIME_BUCKETS)
    barr = np.asarray(buckets, dtype=np.float64)
    cuts = _window_cuts(bounds, fin)
    resp_list = resp.tolist()
    byte_prefix = np.concatenate(([0], np.cumsum(nbytes)))
    starts = bounds
    ends = bounds[1:] + [end]
    energies = (
        power_source.energies_between(
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
        ).tolist()
        if power_source is not None
        else [0.0] * len(starts)
    )
    flightrec = get_flight_recorder()
    frames = []
    for i in range(len(starts)):
        a, b = int(cuts[i]), int(cuts[i + 1])
        s, e = starts[i], ends[i]
        cnt = b - a
        if e <= s and not cnt:
            continue
        if cnt:
            counts = np.bincount(
                np.searchsorted(barr, resp[a:b], side="right"),
                minlength=barr.size + 1,
            )
        else:
            counts = np.zeros(barr.size + 1, dtype=np.int64)
        depth = int(
            np.searchsorted(push, e, side="right")
            - np.searchsorted(pop, e, side="right")
        )
        frame = IntervalFrame(
            index=len(frames),
            start=float(s),
            end=float(e),
            completed=int(cnt),
            total_bytes=int(byte_prefix[b] - byte_prefix[a]),
            response_sum=float(sum(resp_list[a:b])),
            energy_joules=float(energies[i]),
            queue_depth=depth,
            latency_buckets=buckets,
            latency_counts=tuple(int(x) for x in counts),
        )
        frames.append(frame)
        flightrec.record(
            "stream.interval", frame.end,
            index=frame.index, completed=frame.completed,
            queue_depth=frame.queue_depth,
        )
    return frames


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _sampling_bounds(
    t0: float, end: float, sampling_cycle: float, stream_interval: float
) -> Tuple[List[float], Optional[List[float]]]:
    """Monitor window boundaries, and interval-frame boundaries when
    streaming is on (None otherwise)."""
    bounds = _tick_boundaries(t0, end, float(sampling_cycle))
    if stream_interval > 0:
        return bounds, _tick_boundaries(t0, end, float(stream_interval))
    return bounds, None


def _assemble(
    sol: _Solution,
    i: int,
    queued: list,
    source,
    bounds: List[float],
    frame_bounds: Optional[List[float]],
    sampling_cycle: float,
    sensor,
) -> ReplayOutcome:
    """Solved row ``i``'s sampled outputs, through the real samplers.

    ``queued`` lists each served member's ``(push, pop, ...)`` queue
    instants (only read for interval frames); ``source`` is the
    committed device or array meter, or the grid's frozen equivalent.
    """
    fin, resp, nbytes = sol.fin[i], sol.resp[i], sol.row_bytes(i)
    end = float(fin[-1])
    perf_samples = _perf_series(bounds, end, fin, resp, nbytes)
    analyzer = PowerAnalyzer(
        source, sampling_cycle=float(sampling_cycle), sensor=sensor
    )
    _power_windows(analyzer, bounds, end)
    frames = []
    if frame_bounds is not None:
        pushes = [q[0] for q in queued if q[0].size]
        pops = [q[1] for q in queued if q[0].size]
        frames = _frame_series(
            frame_bounds, end, fin, resp, nbytes,
            np.sort(np.concatenate(pushes)) if pushes else _EMPTY,
            np.sort(np.concatenate(pops)) if pops else _EMPTY,
            source,
        )
    return ReplayOutcome(
        end=end,
        perf_samples=perf_samples,
        analyzer=analyzer,
        frames=frames,
        record=sol.row_record(i),
        rmw=sol.row_rmw(i),
        tie_groups=sol.row_ties(i),
    )


def try_kernel_replay(
    sim: Simulator,
    trace: PackedTrace,
    device: StorageDevice,
    *,
    sampling_cycle: float,
    sensor=None,
    stream_interval: float = 0.0,
    keep_record: bool = False,
) -> Tuple[Optional[ReplayOutcome], Optional[str]]:
    """Attempt the closed-form replay of ``trace`` against ``device``.

    Returns ``(outcome, None)`` on success — with all device, queue,
    and power-timeline state committed and the simulation clock
    advanced to the final completion — or ``(None, reason)`` when the
    configuration does not qualify, in which case *nothing* has been
    mutated and the caller must run the event engine.

    The replay is a one-row solve of the live device: submit instants
    rebased to ``sim.now``, the array link from its current link-free
    instant, and service plans from the members' current cursors.
    ``keep_record`` puts the completion record in ``outcome.record``.
    """
    if sim.pending:
        return None, "simulator calendar not empty"
    reason = _qualify_device(device)
    if reason is not None:
        return None, reason

    t0 = sim.now
    try:
        times = _bunch_times(trace, t0)
        plane = _prepare_plane(trace, device)
        reasons, sol = _solve_plane(
            plane, np.repeat(times, np.diff(trace.offsets))[None, :],
            keep_record,
        )
        if sol is None:
            raise _Fallback(reasons[0])
        queued: list = []
        for member, s in zip(plane.members, sol.served):
            if s is None:
                queued.append(None)
                continue
            _check_timeline_clear(member.dev, float(s.starts[0, 0]))
            queued.append(_queued(s, 0))
        bounds, frame_bounds = _sampling_bounds(
            t0, float(sol.fin[0, -1]), sampling_cycle, stream_interval
        )
    except _Fallback as exc:
        return None, exc.reason

    # ---- Commit: infallible from here on. ----
    _commit(plane, sol, queued)
    outcome = _assemble(
        sol, 0, [q for q in queued if q is not None],
        device.meter if isinstance(device, DiskArray) else device,
        bounds, frame_bounds, sampling_cycle, sensor,
    )
    sim.advance_to(outcome.end)
    return outcome, None

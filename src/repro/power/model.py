"""Power/energy accounting primitives.

:class:`PowerTimeline` is how every simulated device reports its power
draw: the device appends *busy segments* — ``(start, end, watts)`` — as
it serves requests, and time not covered by a segment is billed at a
(piecewise-constant) baseline power.  Queries integrate energy over
arbitrary windows, which is exactly the operation a sampling power meter
performs.

Segments must be appended in non-decreasing start order and must not
overlap (devices serve serially); this keeps queries O(log n) via
prefix sums, per the HPC guide's advice to precompute instead of
re-scanning.

The record is columnar: segment starts, ends, Watts and the excess
prefix sums are NumPy ``float64`` columns that grow by doubling, so a
bulk commit (:meth:`PowerTimeline.extend_segments`) is a few array
copies, and a sampler integrates every window of a run in one call
(:meth:`PowerTimeline.energies_between`) with the scalar query's bits.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..errors import PowerAnalyzerError

if TYPE_CHECKING:
    from .analyzer import EnergySource


#: The columns of a fresh timeline: zero capacity, so the first append
#: grows (copies) before it writes and these are never modified.
_NO_ROWS = np.empty(0, dtype=np.float64)
_CUM_SEED = np.zeros(1, dtype=np.float64)

#: Batches of fewer windows are answered by the scalar loop, which is
#: cheaper than the vector set-up there (and gives the same bits).
_VECTOR_WINDOWS = 8


class PowerTimeline:
    """Append-only record of busy power segments over a baseline.

    Parameters
    ----------
    baseline_watts:
        Power drawn whenever no busy segment covers an instant (idle
        power).  Can be changed over time with :meth:`set_baseline`
        (used by spin-down policies).
    columns:
        Already-validated ``(starts, ends, watts)`` segment rows to
        adopt as they are, without a copy (a fused grid cell, a policy
        program), optionally with their excess prefix sums (leading
        0.0) as a fourth; computed with :meth:`extend_segments`'
        arithmetic otherwise.  The columns are full, so a later append
        copies them out first: the caller's arrays are never written.
    """

    def __init__(self, baseline_watts: float, columns=None) -> None:
        if baseline_watts < 0:
            raise PowerAnalyzerError(
                f"baseline power must be >= 0, got {baseline_watts}"
            )
        # Baseline power changes: (time, watts); first entry covers -inf.
        self._base_times: List[float] = [0.0]
        self._base_watts: List[float] = [baseline_watts]
        # Busy segments, time-ordered and non-overlapping: rows [0, _n)
        # of columns with spare capacity, plus the excess prefix sums
        # (``_cum``, _n + 1 rows of (w - baseline)*dt).
        self._n = 0
        if columns is None:
            self._set_columns(_NO_ROWS, _NO_ROWS, _NO_ROWS, _CUM_SEED)
            return
        starts, ends, watts, *cum = columns
        if not cum:
            durations = ends - starts
            excess = watts * durations - baseline_watts * durations
            cum = [np.cumsum(np.concatenate((_CUM_SEED, excess)))]
        self._n = int(starts.shape[0])
        self._set_columns(starts, ends, watts, cum[0])

    def _set_columns(self, starts, ends, watts, cum) -> None:
        self._starts, self._ends, self._watts, self._cum = starts, ends, watts, cum
        # Buffer views for the scalar paths: indexing one yields a Python
        # float, and bisect over one beats a NumPy call per query.
        self._rows = (
            memoryview(starts), memoryview(ends), memoryview(watts),
            memoryview(cum),
        )

    @property
    def segment_count(self) -> int:
        return self._n

    def segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the committed ``(starts, ends, watts)`` columns."""
        n = self._n
        return (
            self._starts[:n].copy(), self._ends[:n].copy(),
            self._watts[:n].copy(),
        )

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` more rows, doubling the capacity."""
        n = self._n
        cap = self._starts.shape[0]
        if n + extra <= cap:
            return
        cap = max(n + extra, 2 * cap, 16)
        cols = [np.empty(cap) for _ in range(3)] + [np.empty(cap + 1)]
        for new, old in zip(cols, (self._starts, self._ends, self._watts)):
            new[:n] = old[:n]
        cols[3][:n + 1] = self._cum[:n + 1]
        self._set_columns(*cols)

    def set_baseline(self, time: float, watts: float) -> None:
        """Change the baseline power from ``time`` onward."""
        if watts < 0:
            raise PowerAnalyzerError(f"baseline power must be >= 0, got {watts}")
        if time < self._base_times[-1]:
            raise PowerAnalyzerError(
                f"baseline change at {time} precedes previous at "
                f"{self._base_times[-1]}"
            )
        if time == self._base_times[-1]:
            self._base_watts[-1] = watts
        else:
            self._base_times.append(time)
            self._base_watts.append(watts)

    def _baseline_energy(self, t0: float, t1: float) -> float:
        """Integral of the piecewise-constant baseline over [t0, t1]."""
        energy = 0.0
        times = self._base_times
        watts = self._base_watts
        if len(times) == 1:  # the walk below, in one step
            return energy + watts[0] * (t1 - t0) if t0 < t1 else energy
        # Index of the baseline level in force at t0.
        i = bisect.bisect_right(times, t0) - 1
        i = max(i, 0)
        cursor = t0
        while cursor < t1:
            seg_end = times[i + 1] if i + 1 < len(times) else t1
            upto = min(seg_end, t1)
            energy += watts[i] * (upto - cursor)
            cursor = upto
            i += 1
        return energy

    def _baseline_at(self, time: float) -> float:
        i = bisect.bisect_right(self._base_times, time) - 1
        return self._base_watts[max(i, 0)]

    def baseline_watts_at(self, time: float) -> float:
        """Baseline (idle) power in force at ``time``."""
        return self._baseline_at(time)

    def add_segment(self, start: float, end: float, watts: float) -> None:
        """Append a busy segment drawing ``watts`` total during [start, end].

        ``watts`` is *total* device power during the segment (not an
        increment over idle); zero-length segments are ignored.
        """
        if end < start:
            raise PowerAnalyzerError(f"segment end {end} precedes start {start}")
        if watts < 0:
            raise PowerAnalyzerError(f"segment power must be >= 0, got {watts}")
        if end == start:
            return
        n = self._n
        if n and start < self._rows[1][n - 1] - 1e-12:
            raise PowerAnalyzerError(
                f"segment at {start} overlaps previous ending "
                f"{self._rows[1][n - 1]}"
            )
        if n == self._starts.shape[0]:
            self._reserve(1)
        starts, ends, watts_col, cum = self._rows
        starts[n] = start
        ends[n] = end
        watts_col[n] = watts
        base = self._baseline_energy(start, end)
        excess = watts * (end - start) - base
        cum[n + 1] = cum[n] + excess
        self._n = n + 1

    def extend_segments(self, starts, ends, watts) -> None:
        """Bulk-append many busy segments (the analytical kernel's path).

        Semantically identical to calling :meth:`add_segment` once per
        row in order — same validation, same arithmetic (the prefix-sum
        chain is seeded with the current cumulative excess, so every
        float matches the sequential path bit for bit).  Requires a
        single-level baseline; timelines whose baseline has changed
        (spin-down) fall back to the per-segment loop.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        watts = np.asarray(watts, dtype=np.float64)
        if len(self._base_times) > 1:
            for s, e, w in zip(starts.tolist(), ends.tolist(), watts.tolist()):
                self.add_segment(s, e, w)
            return
        if starts.size == 0:
            return
        durations = ends - starts
        if np.any(durations < 0):
            i = int(np.argmax(durations < 0))
            raise PowerAnalyzerError(
                f"segment end {ends[i]} precedes start {starts[i]}"
            )
        if np.any(watts < 0):
            raise PowerAnalyzerError(
                f"segment power must be >= 0, got {watts[watts < 0][0]}"
            )
        keep = durations > 0  # zero-length segments are ignored
        if not keep.all():
            starts = starts[keep]
            ends = ends[keep]
            watts = watts[keep]
            durations = durations[keep]
            if starts.size == 0:
                return
        n = self._n
        if n and starts[0] < self._ends[n - 1] - 1e-12:
            raise PowerAnalyzerError(
                f"segment at {starts[0]} overlaps previous ending "
                f"{self._ends[n - 1]}"
            )
        if np.any(starts[1:] < ends[:-1] - 1e-12):
            i = int(np.argmax(starts[1:] < ends[:-1] - 1e-12)) + 1
            raise PowerAnalyzerError(
                f"segment at {starts[i]} overlaps previous ending {ends[i - 1]}"
            )
        # Single-level baseline: per-segment baseline energy is exactly
        # ``0.0 + base_watts * (end - start)`` — the one-iteration walk
        # _baseline_energy performs.
        base = self._base_watts[0] * durations
        excess = watts * durations - base
        k = starts.size
        self._reserve(k)
        self._starts[n:n + k] = starts
        self._ends[n:n + k] = ends
        self._watts[n:n + k] = watts
        np.cumsum(
            np.concatenate((self._cum[n:n + 1], excess)),
            out=self._cum[n:n + k + 1],
        )
        self._n = n + k

    def _excess_upto(self, t: float) -> float:
        """Cumulative excess energy of segments (or parts) before time t."""
        starts, ends, watts_col, cum = self._rows
        idx = bisect.bisect_right(starts, t, 0, self._n)
        total = cum[idx]
        # The segment at idx-1 may extend past t; subtract the tail.
        if idx > 0:
            end = ends[idx - 1]
            if end > t:
                watts = watts_col[idx - 1]
                tail_base = self._baseline_energy(t, end)
                tail_excess = watts * (end - t) - tail_base
                total -= tail_excess
        return total

    def energy_between(self, t0: float, t1: float) -> float:
        """Energy in Joules consumed during [t0, t1]."""
        if t1 < t0:
            raise PowerAnalyzerError(f"window end {t1} precedes start {t0}")
        if t1 == t0:
            return 0.0
        base = self._baseline_energy(t0, t1)
        return base + self._excess_upto(t1) - self._excess_upto(t0)

    def energies_between(self, t0, t1) -> np.ndarray:
        """Joules over each window ``[t0[k], t1[k]]``: the batched
        :meth:`energy_between`.

        Every element goes through the scalar query's float operations
        in the same order, so element ``k`` equals
        ``energy_between(t0[k], t1[k])`` bit for bit.  A timeline whose
        baseline changed answers window by window through the scalar
        baseline walk, and so does a batch of fewer than
        ``_VECTOR_WINDOWS`` windows, where the vector set-up costs more
        than the loop.
        """
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        if len(self._base_times) > 1 or t0.size < _VECTOR_WINDOWS:
            return np.array(
                [self.energy_between(a, b)
                 for a, b in zip(t0.tolist(), t1.tolist())],
                dtype=np.float64,
            )
        if (t1 < t0).any():
            k = int(np.argmax(t1 < t0))
            raise PowerAnalyzerError(
                f"window end {t1[k]} precedes start {t0[k]}"
            )
        # Single-level baseline: the walk is ``0.0 + w * (t1 - t0)``.  An
        # empty window needs no special case: ``x - x`` is +0.0, the
        # scalar query's answer.
        bw = self._base_watts[0]
        return (
            (0.0 + bw * (t1 - t0))
            + self._excesses_upto(t1, bw)
            - self._excesses_upto(t0, bw)
        )

    def _excesses_upto(self, t: np.ndarray, bw: float) -> np.ndarray:
        """:meth:`_excess_upto` at every instant of ``t`` (single-level
        baseline ``bw``)."""
        n = self._n
        if not n:
            return np.zeros(t.shape)
        idx = self._starts[:n].searchsorted(t, "right")
        prev = idx - 1
        # ``end - t > 0`` exactly when ``end > t``.  The tail excess is
        # subtracted where the segment at ``prev`` runs past ``t``; every
        # other element subtracts 0.0, which leaves its bits alone.
        left = self._ends[:n][prev] - t
        tail = (left > 0.0) & (idx > 0)
        excess = self._watts[:n][prev] * left - (0.0 + bw * left)
        return self._cum[idx] - np.where(tail, excess, 0.0)

    def power_at(self, time: float) -> float:
        """Instantaneous Watts at ``time``: segment power if a busy
        segment covers the instant, the baseline otherwise."""
        idx = bisect.bisect_right(self._rows[0], time, 0, self._n)
        if idx > 0 and self._rows[1][idx - 1] > time:
            return self._rows[2][idx - 1]
        return self._baseline_at(time)

    def mean_power(self, t0: float, t1: float) -> float:
        """Average Watts over [t0, t1]."""
        if t1 <= t0:
            return self._baseline_at(t0)
        if t1 - t0 < 16.0 * math.ulp(max(abs(t0), abs(t1), 1.0)):
            # The excess-energy difference in energy_between carries
            # ~1 ULP of the *cumulative* totals; divided by a window at
            # float resolution that is watts-scale noise (it can even
            # go negative).  The honest answer at that width is the
            # instantaneous power.
            return self.power_at(t0)
        return self.energy_between(t0, t1) / (t1 - t0)

    def busy_time(self, t0: float, t1: float) -> float:
        """Total busy-segment time overlapping [t0, t1] (utilisation)."""
        n = self._n
        if not n or t1 <= t0:
            return 0.0
        overlap = np.minimum(self._ends[:n], t1) - np.maximum(self._starts[:n], t0)
        return float(np.clip(overlap, 0.0, None).sum())


class EnergyMeter:
    """Aggregates several timelines plus a constant overhead into one view.

    A disk array's power is the sum of its disks' timelines plus the
    non-disk components (controller, fans, backplane) — Section VI-A.
    ``energy_between`` needs only each timeline's own
    ``energy_between`` (and :meth:`energies_between` each timeline's
    batched one), so any energy source works there: committed device
    timelines, the fused grid's adopted columns, a policy's power
    programs.
    """

    def __init__(
        self, timelines: Sequence["EnergySource"], overhead_watts: float = 0.0
    ):
        if overhead_watts < 0:
            raise PowerAnalyzerError(
                f"overhead power must be >= 0, got {overhead_watts}"
            )
        self.timelines = list(timelines)
        self.overhead_watts = float(overhead_watts)

    def energy_between(self, t0: float, t1: float) -> float:
        total = self.overhead_watts * (t1 - t0)
        for timeline in self.timelines:
            total += timeline.energy_between(t0, t1)
        return total

    def energies_between(self, t0, t1) -> np.ndarray:
        """The batched :meth:`energy_between`: the same per-element
        operations in the same order, over arrays of window bounds."""
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        total = self.overhead_watts * (t1 - t0)
        for timeline in self.timelines:
            total = total + timeline.energies_between(t0, t1)
        return total

    def mean_power(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return self.overhead_watts + sum(
                tl.mean_power(t0, t1) for tl in self.timelines
            )
        if t1 - t0 < 16.0 * math.ulp(max(abs(t0), abs(t1), 1.0)):
            # Same degenerate-window guard as PowerTimeline.mean_power.
            return self.overhead_watts + sum(
                tl.power_at(t0) for tl in self.timelines
            )
        return self.energy_between(t0, t1) / (t1 - t0)

"""The proportional filter: uniform bunch selection for load control.

Implements the four-step filter algorithm of Section IV-A:

1. partition the trace's bunches into groups of ten (configurable);
2. take the configured replay percentage (10 %, 20 %, ... 100 %);
3. uniformly select that portion of bunches within each group
   (:func:`repro.core.selection.uniform_positions`);
4. replay selected bunches at their *original* timestamps and ignore the
   rest.

Because every group contributes the same number of bunches, the filtered
trace preserves the temporal shape of the original workload (Fig. 12
demonstrates this on a web-server trace).

``random_filter_trace`` implements the strawman the paper argues
against — random bunch selection — for the ablation benchmark.

Every filter accepts either trace representation and returns a
:class:`~repro.trace.packed.PackedTrace`: the selection mask is applied
as a single vectorised gather over the packed columns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import FilterError
from ..rng import make_rng
from ..trace.packed import PackedTrace, TraceLike, pack
from .selection import proportion_to_count, selection_mask


def _apply_mask(trace: TraceLike, mask: np.ndarray, label: str) -> PackedTrace:
    """Keep the bunches marked by ``mask``."""
    return pack(trace).select(mask, label=label)


class ProportionalFilter:
    """Reusable filter bound to a group size.

    Parameters
    ----------
    group_size:
        Bunches per group; the paper fixes 10, giving a 10 % load
        granularity.  Larger groups give finer granularity at the cost
        of coarser temporal interleaving — the group-size ablation
        benchmark explores this trade-off.
    """

    def __init__(self, group_size: int = 10) -> None:
        if group_size < 1:
            raise FilterError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size

    def levels(self) -> tuple:
        """The configurable load proportions this group size supports."""
        return tuple((i + 1) / self.group_size for i in range(self.group_size))

    def apply(self, trace: TraceLike, proportion: float) -> PackedTrace:
        """Return the filtered trace replaying ``proportion`` of bunches.

        ``proportion == 1.0`` returns a same-content trace (still a new
        object, so callers can mutate labels safely), filtered by one
        vectorised gather.
        """
        mask = selection_mask(len(trace), proportion, self.group_size)
        label = f"{trace.label}@{round(proportion * 100)}%"
        return _apply_mask(trace, mask, label)

    def selected_count(self, n_bunches: int, proportion: float) -> int:
        """How many bunches :meth:`apply` would keep, without building them."""
        return int(selection_mask(n_bunches, proportion, self.group_size).sum())


def filter_trace(
    trace: TraceLike, proportion: float, group_size: int = 10
) -> PackedTrace:
    """One-shot convenience wrapper around :class:`ProportionalFilter`."""
    return ProportionalFilter(group_size).apply(trace, proportion)


def random_filter_trace(
    trace: TraceLike,
    proportion: float,
    group_size: int = 10,
    seed: Optional[int] = None,
) -> PackedTrace:
    """Randomly select ``k`` bunches per group (the rejected alternative).

    Matches the proportional filter's per-group quota so throughput
    scaling is identical in expectation, but the *positions* within each
    group are random.  The paper predicts this distorts the replayed
    workload's temporal features; ``bench_ablation_selection`` measures
    the distortion as the variance of per-window replay intensity.
    """
    k = proportion_to_count(proportion, group_size)
    rng = make_rng(seed)
    n = len(trace)
    mask = np.zeros(n, dtype=bool)
    for base in range(0, n, group_size):
        size = min(group_size, n - base)
        take = min(k, size)
        idx = rng.choice(size, size=take, replace=False)
        mask[base + idx] = True
    return _apply_mask(
        trace, mask, f"{trace.label}@rand{round(proportion * 100)}%"
    )


def bernoulli_filter_trace(
    trace: TraceLike,
    proportion: float,
    seed: Optional[int] = None,
) -> PackedTrace:
    """Globally random (unstratified) selection: keep each bunch with
    probability ``proportion``.

    The naive sampling approach with no per-group quota at all — the
    strongest form of the "random filtering" the paper rejects.  Both
    the selected count and its temporal spread fluctuate, producing the
    wave crests and troughs of §IV-A.
    """
    if not 0.0 < proportion <= 1.0:
        raise FilterError(f"proportion must be in (0, 1], got {proportion!r}")
    rng = make_rng(seed)
    keep = rng.random(len(trace)) < proportion
    return _apply_mask(
        trace, keep, f"{trace.label}@bern{round(proportion * 100)}%"
    )

"""The combined load controller.

Glues the proportional filter (which bunches) and the time scaler (when)
into the single knob the replay session exposes.  The controller accepts
any target intensity:

* intensities that land on the filter grid (k / group_size, k integer)
  use pure bunch filtering — the paper's preferred mechanism because it
  preserves original timestamps;
* intensities above 1.0 use pure time scaling (the filter cannot add
  load);
* off-grid intensities below 1.0 combine the nearest-above filter level
  with a gentle time stretch, e.g. 25 % = filter to 30 % then stretch
  time by 30/25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import FilterError
from ..trace.packed import PackedTrace, TraceLike, pack
from .proportional_filter import ProportionalFilter
from .timescale import TimeScaler


@dataclass(frozen=True)
class LoadPlan:
    """How a target intensity decomposes into filter + time-scale parts."""

    target: float
    filter_proportion: float
    time_intensity: float

    @property
    def pure_filter(self) -> bool:
        return math.isclose(self.time_intensity, 1.0)


class LoadController:
    """Scale a trace's I/O load to any positive intensity.

    Parameters
    ----------
    group_size:
        Group size handed to the proportional filter (default 10).
    """

    def __init__(self, group_size: int = 10) -> None:
        self.filter = ProportionalFilter(group_size)
        self.group_size = group_size

    def plan(self, intensity: float) -> LoadPlan:
        """Decompose ``intensity`` into (filter proportion, time factor)."""
        if intensity <= 0:
            raise FilterError(f"intensity must be > 0, got {intensity!r}")
        g = self.group_size
        if intensity > 1.0:
            return LoadPlan(intensity, 1.0, intensity)
        scaled = intensity * g
        k = round(scaled)
        if k >= 1 and abs(scaled - k) < 1e-9:
            return LoadPlan(intensity, k / g, 1.0)
        k_above = min(g, math.ceil(scaled)) or 1
        k_above = max(k_above, 1)
        proportion = k_above / g
        return LoadPlan(intensity, proportion, intensity / proportion)

    def apply(self, trace: TraceLike, intensity: float) -> PackedTrace:
        """Return the packed trace scaled to ``intensity`` per :meth:`plan`.

        The trace is packed once; filter and scale are vectorised.
        """
        plan = self.plan(intensity)
        trace = pack(trace)
        out = trace
        if plan.filter_proportion < 1.0:
            out = self.filter.apply(out, plan.filter_proportion)
        if not math.isclose(plan.time_intensity, 1.0):
            out = TimeScaler(plan.time_intensity).apply(out)
        if math.isclose(plan.filter_proportion, 1.0) and math.isclose(
            plan.time_intensity, 1.0
        ):
            out = trace.with_label(f"{trace.label}@100%")
        return out

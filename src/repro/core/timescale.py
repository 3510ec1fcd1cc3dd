"""Inter-arrival-time scaling.

The GUI walkthrough (Fig. 2) adds "the function of scaling inter-arrival
times between requests ... as a supplement for trace entries filtering",
so replay intensity can be scaled to 200 %, 1000 %, or 1 % of the
original.  Where the proportional filter changes *which* bunches replay,
the time scaler changes *when*: an intensity factor ``s`` divides every
inter-bunch gap by ``s`` (``s > 1`` compresses the trace, raising load).

Scaling keeps the first bunch's timestamp as the origin so warm-up
offsets in a trace are preserved proportionally.
"""

from __future__ import annotations

from ..errors import FilterError
from ..trace.packed import PackedTrace, TraceLike, pack


class TimeScaler:
    """Scale a trace's I/O intensity by compressing or stretching time.

    Parameters
    ----------
    intensity:
        Target intensity relative to the original: ``2.0`` doubles the
        arrival rate (gaps halve); ``0.01`` slows it to 1 %.
    """

    def __init__(self, intensity: float) -> None:
        if intensity <= 0:
            raise FilterError(f"intensity must be > 0, got {intensity!r}")
        self.intensity = float(intensity)

    @property
    def time_factor(self) -> float:
        """Multiplier applied to inter-arrival gaps (1 / intensity)."""
        return 1.0 / self.intensity

    def apply(self, trace: TraceLike) -> PackedTrace:
        """Return a new packed trace with scaled timestamps.

        The timestamp column is rescaled in one vectorised expression,
        ``origin + (t - origin) * factor`` in IEEE double.
        """
        trace = pack(trace)
        if len(trace) == 0 or self.intensity == 1.0:
            return trace.with_label(trace.label)
        origin = float(trace.timestamps[0])
        timestamps = origin + (trace.timestamps - origin) * self.time_factor
        return trace.with_timestamps(
            timestamps, label=f"{trace.label}x{self.intensity:g}"
        )


def scale_trace(trace: TraceLike, intensity: float) -> PackedTrace:
    """One-shot convenience wrapper around :class:`TimeScaler`."""
    return TimeScaler(intensity).apply(trace)

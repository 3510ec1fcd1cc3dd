"""Per-bunch object walks: the reference the packed code is checked against.

Past the API boundary every filter, the time scaler, the statistics
pass and the replay engine run only on
:class:`~repro.trace.packed.PackedTrace` columns.  These functions are
their object-trace counterparts: each walks a
:class:`~repro.trace.record.Trace` bunch by bunch, the way the library
did before it packed at entry, and must agree with the vectorised code
to the last bit.  They carry the library's names so a test can swap one
module for the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.core.selection import proportion_to_count, selection_mask
from repro.errors import FilterError, ReplayError
from repro.replay.engine import ReplayEngine
from repro.rng import make_rng
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace, unpack
from repro.trace.record import Bunch, Trace
from repro.trace.stats import TraceStats
from repro.trace.stats import compute_stats as _packed_stats


def _apply_mask(trace: Trace, mask, label: str) -> Trace:
    bunches = [b for b, keep in zip(trace.bunches, mask) if keep]
    return Trace(bunches, label=label)


def filter_trace(trace: Trace, proportion: float, group_size: int = 10) -> Trace:
    mask = selection_mask(len(trace), proportion, group_size)
    return _apply_mask(trace, mask, f"{trace.label}@{round(proportion * 100)}%")


def random_filter_trace(
    trace: Trace,
    proportion: float,
    group_size: int = 10,
    seed: Optional[int] = None,
) -> Trace:
    k = proportion_to_count(proportion, group_size)
    rng = make_rng(seed)
    n = len(trace)
    mask = np.zeros(n, dtype=bool)
    for base in range(0, n, group_size):
        size = min(group_size, n - base)
        idx = rng.choice(size, size=min(k, size), replace=False)
        mask[base + idx] = True
    return _apply_mask(
        trace, mask, f"{trace.label}@rand{round(proportion * 100)}%"
    )


def bernoulli_filter_trace(
    trace: Trace, proportion: float, seed: Optional[int] = None
) -> Trace:
    if not 0.0 < proportion <= 1.0:
        raise FilterError(f"proportion must be in (0, 1], got {proportion!r}")
    keep = make_rng(seed).random(len(trace)) < proportion
    return _apply_mask(
        trace, keep, f"{trace.label}@bern{round(proportion * 100)}%"
    )


def scale_trace(trace: Trace, intensity: float) -> Trace:
    if intensity <= 0:
        raise FilterError(f"intensity must be > 0, got {intensity!r}")
    if len(trace) == 0 or intensity == 1.0:
        return Trace(trace.bunches, label=trace.label)
    origin = trace.bunches[0].timestamp
    factor = 1.0 / float(intensity)
    bunches = [
        Bunch(origin + (b.timestamp - origin) * factor, b.packages)
        for b in trace
    ]
    return Trace(bunches, label=f"{trace.label}x{float(intensity):g}")


def compute_stats(trace: Trace) -> TraceStats:
    """The statistics over columns gathered by walking every package."""
    rows, timestamps, offsets = [], [], [0]
    for bunch in trace:
        timestamps.append(bunch.timestamp)
        rows.extend((p.sector, p.nbytes, p.op) for p in bunch.packages)
        offsets.append(len(rows))
    packages = np.array(rows, dtype=PACKED_PACKAGE_DTYPE)
    return _packed_stats(PackedTrace(timestamps, offsets, packages))


class ObjectDispatchEngine(ReplayEngine):
    """The replay engine's bunch-object dispatch: one calendar event per
    :class:`Bunch`, one ``device.submit`` per package, instead of row
    ranges handed to ``submit_slice``."""

    def start(self) -> None:
        if self._started:
            raise ReplayError("replay already started")
        self._started = True
        self.start_time = self.sim.now
        bunches = unpack(self.trace).bunches
        origin = bunches[0].timestamp
        self.sim.schedule_batch(
            [self.start_time + (b.timestamp - origin) for b in bunches],
            self._dispatch_bunch,
            args_seq=[(b,) for b in bunches],
            priority=5,
        )

    def _dispatch_bunch(self, bunch: Bunch) -> None:
        for package in bunch.packages:
            self.issued += 1
            self.device.submit(package, self._on_done)


@contextmanager
def object_dispatch():
    """Run the replay session's event replays on :class:`ObjectDispatchEngine`."""
    import repro.replay.session as session

    prior = session.ReplayEngine
    session.ReplayEngine = ObjectDispatchEngine
    try:
        yield
    finally:
        session.ReplayEngine = prior


def replay_trace(trace, device, load_proportion: float = 1.0, **kwargs):
    """An event-engine replay whose engine dispatches bunch objects."""
    from repro.replay.session import replay_trace as _replay

    with object_dispatch():
        return _replay(trace, device, load_proportion, engine="event", **kwargs)

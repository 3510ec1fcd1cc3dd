"""Trace statistics (the quantities of the paper's Table III).

``compute_stats`` summarises a trace into the characteristics the paper
reports for the FIU web-server trace — dataset size, read ratio, average
request size — plus the extra distributional facts the workload
synthesisers are calibrated against (randomness, bunch fan-out,
inter-arrival behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, Iterable

import numpy as np

from ..units import GiB, KiB
from .packed import TraceLike, pack


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace.

    Attributes mirror Table III where applicable:

    * ``dataset_bytes`` — bytes of *unique* device area touched (the
      paper's "DataSet (GB)").
    * ``read_ratio`` — fraction of packages that are reads.
    * ``mean_request_bytes`` — the paper's "Average Req_size (KB)".
    """

    bunch_count: int
    package_count: int
    total_bytes: int
    dataset_bytes: int
    read_ratio: float
    mean_request_bytes: float
    max_request_bytes: int
    min_request_bytes: int
    duration: float
    random_ratio: float
    mean_bunch_size: float
    mean_interarrival: float
    iops: float
    mbps: float

    @property
    def dataset_gib(self) -> float:
        return self.dataset_bytes / GiB

    @property
    def mean_request_kib(self) -> float:
        return self.mean_request_bytes / KiB

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


def _unique_extent_bytes(starts: np.ndarray, ends: np.ndarray) -> int:
    """Total sectors covered by the union of [start, end) intervals."""
    if len(starts) == 0:
        return 0
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = ends[order]
    # Sweep the sorted intervals, merging overlaps.
    total = 0
    cur_start = int(starts[0])
    cur_end = int(ends[0])
    for s, e in zip(starts[1:], ends[1:]):
        s = int(s)
        e = int(e)
        if s > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    total += cur_end - cur_start
    return total * 512


def compute_stats(trace: TraceLike) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace``.

    Randomness is estimated as the fraction of packages (in issue order)
    that do *not* start at the previous package's end sector — the same
    notion IOmeter's random ratio controls.

    Accepts either representation; the statistics are computed over the
    packed columns.
    """
    trace = pack(trace)
    sec = trace.packages["sector"]
    size = trace.packages["nbytes"]
    op = trace.packages["op"]
    ts = trace.timestamps
    if len(sec) == 0:
        return TraceStats(
            bunch_count=0,
            package_count=0,
            total_bytes=0,
            dataset_bytes=0,
            read_ratio=0.0,
            mean_request_bytes=0.0,
            max_request_bytes=0,
            min_request_bytes=0,
            duration=0.0,
            random_ratio=0.0,
            mean_bunch_size=0.0,
            mean_interarrival=0.0,
            iops=0.0,
            mbps=0.0,
        )

    size_sectors = -(-size // 512)
    ends = sec + size_sectors
    dataset = _unique_extent_bytes(sec, ends)

    if len(sec) > 1:
        sequential = sec[1:] == ends[:-1]
        random_ratio = 1.0 - (np.count_nonzero(sequential) / (len(sec) - 1))
    else:
        random_ratio = 0.0

    duration = float(ts[-1] - ts[0]) if len(ts) > 1 else 0.0
    interarrivals = np.diff(ts) if len(ts) > 1 else np.array([0.0])
    total_bytes = int(size.sum())
    # Rates over the trace span; a zero-duration trace reports 0 rather
    # than dividing by zero.
    iops = len(sec) / duration if duration > 0 else 0.0
    mbps = (total_bytes / 1e6) / duration if duration > 0 else 0.0

    return TraceStats(
        bunch_count=len(trace),
        package_count=len(sec),
        total_bytes=total_bytes,
        dataset_bytes=int(dataset),
        read_ratio=float(np.count_nonzero(op == 0) / len(op)),
        mean_request_bytes=float(size.mean()),
        max_request_bytes=int(size.max()),
        min_request_bytes=int(size.min()),
        duration=duration,
        random_ratio=float(random_ratio),
        mean_bunch_size=float(np.mean(trace.bunch_sizes)),
        mean_interarrival=float(interarrivals.mean()),
        iops=iops,
        mbps=mbps,
    )

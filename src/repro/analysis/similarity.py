"""Statistical similarity of two traces.

Section IV-A's central claim is that the uniform filter scales a
trace's intensity "without significantly changing the characteristics
of the original I/O traces".  This module makes that claim testable —
and maps out where it does and does not hold:

* **content characteristics** (request sizes, read mix, spatial
  locality) are carried by the selected bunches and survive filtering
  essentially intact;
* **microscopic arrival shape** (the inter-bunch gap *distribution*)
  is deliberately coarsened by uniform selection: gaps between
  selected bunches are sums of ``group_size/k`` original gaps, so the
  distribution is CLT-smoothed.  Bernoulli thinning preserves the gap
  shape instead — but fluctuates the macroscopic waveform, which is the
  distortion the paper actually cares about (quantified by
  ``benchmarks/bench_ablation_selection.py``);
* **sequential-run structure** shortens at low levels: dropping bunches
  breaks inter-bunch address continuity, so the measured random ratio
  of a heavily filtered trace rises.  This is inherent to any bunch
  subsetting, uniform or not.

Distribution distances are two-sample Kolmogorov-Smirnov statistics;
spatial locality uses total-variation distance between the region
histograms; scalar characteristics are absolute deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import stats as _scipy_stats

from ..errors import TracerError
from ..trace.packed import PackedTrace, TraceLike, pack
from ..trace.stats import compute_stats


class SimilarityError(TracerError):
    """Traces unsuitable for comparison (e.g. empty)."""


@dataclass(frozen=True)
class TraceSimilarity:
    """Distributional distances between two traces (0 = identical)."""

    size_ks: float
    """KS distance between request-size distributions."""
    interarrival_ks: float
    """KS distance between (mean-normalised) inter-bunch gap
    distributions.  Expect this to be *large* for uniform filtering at
    low levels — see the module docstring; it measures microscopic gap
    shape, not load waveform."""
    read_ratio_delta: float
    random_ratio_delta: float
    """Rises at low filter levels because bunch dropping breaks
    sequential runs — inherent to subsetting, not a filter defect."""
    locality_tv: float
    """Total-variation distance between spatial region histograms
    (0 = accesses spread identically, 1 = disjoint)."""

    @property
    def content_distortion(self) -> float:
        """Worst drift among the content characteristics the paper's
        claim covers (sizes, op mix, locality)."""
        return max(self.size_ks, self.read_ratio_delta, self.locality_tv)


def _sizes(trace: PackedTrace) -> np.ndarray:
    return trace.packages["nbytes"].astype(np.float64)


def _gaps(trace: PackedTrace) -> np.ndarray:
    gaps = np.diff(trace.timestamps)
    gaps = gaps[gaps > 0]
    if gaps.size and gaps.mean() > 0:
        gaps = gaps / gaps.mean()
    return gaps


def _region_histogram(
    trace: PackedTrace, lo: int, span: int, n_regions: int = 50
) -> np.ndarray:
    starts = trace.packages["sector"]
    region = np.clip((starts - lo) * n_regions // span, 0, n_regions - 1)
    counts = np.bincount(region, minlength=n_regions).astype(np.float64)
    total = counts.sum()
    return counts / total if total else counts


def _ks(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else 1.0
    return float(_scipy_stats.ks_2samp(a, b).statistic)


def compare_traces(
    original: TraceLike, manipulated: TraceLike
) -> TraceSimilarity:
    """Measure how far ``manipulated`` drifted from ``original``
    (either representation)."""
    if len(original) == 0 or len(manipulated) == 0:
        raise SimilarityError("cannot compare empty traces")
    original = pack(original)
    manipulated = pack(manipulated)
    orig_stats = compute_stats(original)
    manip_stats = compute_stats(manipulated)

    # Shared spatial frame: the original's extent.
    starts = original.packages["sector"]
    lo = int(starts.min())
    span = max(int(starts.max()) + 1 - lo, 1)
    hist_a = _region_histogram(original, lo, span)
    hist_b = _region_histogram(manipulated, lo, span)
    locality_tv = float(0.5 * np.abs(hist_a - hist_b).sum())

    return TraceSimilarity(
        size_ks=_ks(_sizes(original), _sizes(manipulated)),
        interarrival_ks=_ks(_gaps(original), _gaps(manipulated)),
        read_ratio_delta=abs(orig_stats.read_ratio - manip_stats.read_ratio),
        random_ratio_delta=abs(
            orig_stats.random_ratio - manip_stats.random_ratio
        ),
        locality_tv=locality_tv,
    )


def format_similarity(sim: TraceSimilarity) -> str:
    """One-line-per-characteristic rendering."""
    return "\n".join(
        [
            f"request size KS      : {sim.size_ks:.4f}",
            f"inter-arrival KS     : {sim.interarrival_ks:.4f}",
            f"read ratio drift     : {sim.read_ratio_delta:.4f}",
            f"random ratio drift   : {sim.random_ratio_delta:.4f}",
            f"locality TV distance : {sim.locality_tv:.4f}",
            f"content distortion   : {sim.content_distortion:.4f}",
        ]
    )

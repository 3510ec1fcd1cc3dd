"""The process-wide metrics registry.

TRACER's value is *measurement*: the paper's evaluation host records
workload mode, power, performance, and efficiency for every test.  This
module gives the replay engine itself the same treatment — counters,
gauges, and histograms describing where simulated I/O time goes — so the
"fast as the hardware allows" claim is verifiable and regressions are
visible at the metric level rather than only in end-to-end numbers.

Design rules (see ``docs/observability.md``):

* **Zero cost when disabled, no engine change when enabled.**  A replay
  records its instruments once, after it finishes
  (:mod:`repro.replay.instruments`); the simulator, fault injector,
  cache and multichannel meter consult :func:`telemetry_enabled` *at
  construction* and instrument themselves only when it is on.
* **Deterministic snapshots.**  Counters, gauges, histograms, and spans
  are driven exclusively by simulation-clock quantities and deterministic
  sampling (every Nth observation), so two identically seeded runs
  produce identical :meth:`MetricsRegistry.snapshot` outputs.  Wall-clock
  timers are kept in a separate section that is excluded from snapshots
  by default.
* **Fixed histogram buckets.**  Bucket boundaries are part of the metric
  definition, never derived from data, so histograms compare exactly
  across runs and hosts.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TracerError
from .spans import SpanRecorder

#: Environment variable that force-enables telemetry for the process.
TELEMETRY_ENV = "TRACER_TELEMETRY"

#: Default bucket boundaries (seconds) for latency-style histograms.
#: Chosen to span controller overheads (~tens of µs) through degraded
#: multi-second responses; fixed so snapshots are comparable run-to-run.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default boundaries for size-style histograms (bytes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    512.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
)


class TelemetryError(TracerError):
    """Misuse of the telemetry layer (bad metric names, bucket specs)."""


def _metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical metric identity: ``name`` plus sorted label pairs."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, packages, faults)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (queue high-water, residency fraction)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with an exact sum and count.

    ``buckets`` are upper bounds of each bin; observations above the
    last boundary land in the implicit overflow bin.  Boundaries are
    frozen at construction so two runs bucket identically.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram bounds must strictly increase, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bin
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class Timer:
    """Accumulated *wall-clock* seconds (profiling only).

    Wall time is inherently non-deterministic, so timers live in their
    own registry section and are excluded from deterministic snapshots.
    """

    __slots__ = ("total_seconds", "calls")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0

    def add(self, seconds: float, calls: int = 1) -> None:
        self.total_seconds += seconds
        self.calls += calls


class MetricsRegistry:
    """Holds every instrument created by instrumented components.

    One registry exists per process (see :func:`get_registry`); tests may
    construct private registries.  Instrument accessors are idempotent:
    asking for the same ``(name, labels)`` twice returns the same object,
    so components need not coordinate.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}
        self.spans = SpanRecorder()

    # -- Instrument accessors -------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(buckets)
            elif tuple(float(b) for b in buckets) != inst.buckets:
                raise TelemetryError(
                    f"histogram {key!r} re-registered with different buckets"
                )
        return inst

    def timer(self, name: str, **labels: str) -> Timer:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._timers.get(key)
            if inst is None:
                inst = self._timers[key] = Timer()
        return inst

    # -- Snapshots -------------------------------------------------------

    def snapshot(self, include_timers: bool = False) -> Dict[str, Any]:
        """Deterministic state of every instrument, sorted by key.

        The returned structure is plain JSON types only, so it can ride
        the distributed wire protocol and land in the host's run ledger
        unchanged.  ``include_timers`` adds the wall-clock profiling
        section (non-deterministic; off by default).
        """
        with self._lock:
            snap: Dict[str, Any] = {
                "counters": {
                    k: self._counters[k].value for k in sorted(self._counters)
                },
                "gauges": {
                    k: self._gauges[k].value for k in sorted(self._gauges)
                },
                "histograms": {
                    k: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in sorted(self._histograms.items())
                },
                "spans": self.spans.snapshot(),
            }
            if include_timers:
                snap["timers"] = {
                    k: {
                        "total_seconds": t.total_seconds,
                        "calls": t.calls,
                    }
                    for k, t in sorted(self._timers.items())
                }
        return snap

    def mark(self) -> Dict[str, Any]:
        """Opaque marker for :meth:`collect` (a snapshot plus span cursor)."""
        snap = self.snapshot()
        snap["_span_cursor"] = self.spans.total_recorded
        return snap

    def collect(self, since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Deterministic snapshot, optionally as a delta from a mark.

        The registry is process-wide and cumulative; a replay session
        that wants *its own* numbers marks the registry when it starts
        and collects the delta when it finishes.  Counter and histogram
        values are subtracted; gauges and spans report their final state
        (spans: only those recorded after the mark, subject to the
        recorder's cap).
        """
        after = self.snapshot()
        if since is None:
            return after
        counters = {}
        for key, value in after["counters"].items():
            delta = value - since["counters"].get(key, 0)
            if delta:
                counters[key] = delta
        histograms = {}
        for key, hist in after["histograms"].items():
            prev = since["histograms"].get(key)
            if prev is None:
                # Registered during the window: report even with zero
                # samples, so every delta carries every live histogram
                # and Prometheus scrape schemas stay stable across runs
                # (a quiet run still exports its empty bucket lines).
                histograms[key] = hist
                continue
            counts = [a - b for a, b in zip(hist["counts"], prev["counts"])]
            histograms[key] = {
                "buckets": hist["buckets"],
                "counts": counts,
                "sum": hist["sum"] - prev["sum"],
                "count": hist["count"] - prev["count"],
            }
        cursor = since.get("_span_cursor", 0)
        return {
            "counters": counters,
            "gauges": after["gauges"],
            "histograms": histograms,
            "spans": self.spans.snapshot(since=cursor),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot (or delta) into this one.

        The fleet aggregation primitive: every worker heartbeat carries
        a telemetry delta from its process, and the scheduler merges
        them all into its own registry, so fleet-wide metrics read as if
        one registry had observed everything.  Semantics per instrument
        (property-tested in ``tests/telemetry/test_registry_merge.py``):

        * **counters** sum;
        * **gauges** last-write-wins (the incoming value replaces ours,
          matching what a single registry would hold after the same
          final ``set``);
        * **histograms** add bucket-wise — bucket *boundaries* must
          match (they are part of the metric definition), else
          :class:`TelemetryError`;
        * **timers** (when present) accumulate seconds and calls.

        Span sections are ignored: spans are per-process narratives, and
        the fleet's causal story lives in ``repro.telemetry.dtrace``.
        """
        with self._lock:
            for key, value in (snapshot.get("counters") or {}).items():
                inst = self._counters.get(key)
                if inst is None:
                    inst = self._counters[key] = Counter()
                inst.value += int(value)
            for key, value in (snapshot.get("gauges") or {}).items():
                ginst = self._gauges.get(key)
                if ginst is None:
                    ginst = self._gauges[key] = Gauge()
                ginst.value = float(value)
            for key, hist in (snapshot.get("histograms") or {}).items():
                bounds = tuple(float(b) for b in hist["buckets"])
                hinst = self._histograms.get(key)
                if hinst is None:
                    hinst = self._histograms[key] = Histogram(bounds)
                elif hinst.buckets != bounds:
                    raise TelemetryError(
                        f"histogram {key!r} merged with different buckets"
                    )
                hinst.counts = [
                    a + b for a, b in zip(hinst.counts, hist["counts"])
                ]
                hinst.sum += float(hist["sum"])
                hinst.count += int(hist["count"])
            for key, timer in (snapshot.get("timers") or {}).items():
                tinst = self._timers.get(key)
                if tinst is None:
                    tinst = self._timers[key] = Timer()
                tinst.total_seconds += float(timer["total_seconds"])
                tinst.calls += int(timer["calls"])

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived generator nodes)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timers.clear()
            self.spans = SpanRecorder()


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


_REGISTRY = MetricsRegistry(enabled=_env_enabled())


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented component uses."""
    return _REGISTRY


def telemetry_enabled() -> bool:
    """Whether components built *now* should install instrumentation."""
    return _REGISTRY.enabled


def set_enabled(enabled: bool) -> None:
    """Toggle instrumentation for replays started and components
    constructed afterwards (built components keep their decision, which
    keeps their disabled paths free of per-event checks)."""
    _REGISTRY.enabled = bool(enabled)


@contextmanager
def enabled_telemetry(reset: bool = True) -> Iterator[MetricsRegistry]:
    """Enable telemetry for a scope (tests, CLI runs); restores on exit.

    ``reset`` clears the registry on entry so the scope observes only
    its own activity.
    """
    prior = _REGISTRY.enabled
    if reset:
        _REGISTRY.reset()
    _REGISTRY.enabled = True
    try:
        yield _REGISTRY
    finally:
        _REGISTRY.enabled = prior

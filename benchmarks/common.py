"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at
simulation scale.  The paper collects ~2-minute traces and replays each
ten times; we default to shorter collection windows (seconds) so the
whole harness runs in minutes — the relationships under test are scale-
invariant (see EXPERIMENTS.md).  Set ``TRACER_BENCH_SCALE`` to grow all
durations (e.g. ``TRACER_BENCH_SCALE=10`` approaches paper scale).

Collected traces are cached per (device, mode, duration) so sweeps that
reuse a trace don't pay collection repeatedly.  The cache is bounded by
*estimated bytes*, not entry count: trace footprint grows linearly with
``TRACER_BENCH_SCALE``, so at paper scale a 256-entry cache of
multi-hundred-thousand-package traces would otherwise exhaust memory.
Tune the bound with ``TRACER_BENCH_CACHE_BYTES`` (default 256 MiB); the
most recently used trace is always retained so a running benchmark never
loses its own working set.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Tuple

from repro.config import WorkloadMode
from repro.replay.session import replay_trace
from repro.replay.results import ReplayResult
from repro.rng import derive_seed
from repro.storage.array import build_hdd_raid5, build_ssd_raid5
from repro.trace.record import Trace
from repro.workload.matrix import collect_trace

SCALE = float(os.environ.get("TRACER_BENCH_SCALE", "1.0"))

#: Base trace-collection window in simulated seconds (paper: ~120 s).
COLLECT_SECONDS = 3.0 * SCALE

#: Byte budget for the collected-trace cache (see module docstring).
CACHE_MAX_BYTES = int(
    float(os.environ.get("TRACER_BENCH_CACHE_BYTES", 256 * 1024 * 1024))
)

# functools.partial, not lambdas: grid sweeps ship factories across
# process boundaries when a pool is worth it.
from functools import partial

FACTORIES: dict = {
    "hdd": partial(build_hdd_raid5, 6),
    "ssd": partial(build_ssd_raid5, 4),
}


def _trace_cost_bytes(trace: Trace) -> int:
    """Rough in-memory footprint of an object trace.

    A frozen IOPackage dataclass plus its three boxed ints is ~200 bytes
    on CPython; a Bunch adds ~150 for the object, tuple, and timestamp.
    Exactness doesn't matter — the estimate only has to scale with the
    real footprint so eviction keeps total memory bounded.
    """
    return 200 * trace.package_count + 150 * len(trace)


class BoundedTraceCache:
    """LRU trace cache evicting by estimated bytes, not entry count."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, Trace]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def get_or_create(self, key: tuple, factory: Callable[[], Trace]) -> Trace:
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        trace = factory()
        self._entries[key] = trace
        self._bytes += _trace_cost_bytes(trace)
        # Evict least-recently-used entries, but never the one just added.
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _trace_cost_bytes(evicted)
        return trace

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


_TRACE_CACHE = BoundedTraceCache(CACHE_MAX_BYTES)


def peak_trace(
    device: str,
    request_size: int,
    random_pct: int,
    read_pct: int,
    duration: float = COLLECT_SECONDS,
) -> Trace:
    """Collect (and cache) a peak trace for one workload mode."""
    key = (device, request_size, random_pct, read_pct, duration)

    def collect() -> Trace:
        mode = WorkloadMode(
            request_size=request_size,
            random_ratio=random_pct / 100.0,
            read_ratio=read_pct / 100.0,
        )
        return collect_trace(
            FACTORIES[device],
            mode,
            duration,
            # Python's hash() of strings is salted per process; derive_seed
            # is stable, keeping every benchmark run identical.
            seed=derive_seed(
                0, "bench", device, str(request_size), str(random_pct),
                str(read_pct),
            ),
        )

    return _TRACE_CACHE.get_or_create(key, collect)


def run_replay(
    device: str, trace: Trace, load: float, time_scale: float = 1.0
) -> ReplayResult:
    """Replay on a fresh device of the given type."""
    if time_scale == 1.0:
        return replay_trace(trace, FACTORIES[device](), load)
    from repro.config import ReplayConfig

    return replay_trace(
        trace, FACTORIES[device](), load,
        config=ReplayConfig(time_scale=time_scale),
    )


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_rows(header: str, rows) -> None:
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)


def once(benchmark, fn: Callable[[], object]):
    """Run the experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

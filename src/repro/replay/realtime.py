"""Best-effort wall-clock replay (the paper's actual modality).

The calibration notes for this reproduction flag the obvious problem:
timing-accurate block replay from pure Python fights the GIL, the OS
scheduler, and ``time.sleep`` granularity.  The deterministic DES path
(:mod:`repro.replay.engine`) is therefore the default everywhere.  This
module exists to demonstrate the architecture end-to-end in real time:
it replays bunches against any callable target using a thread pool for
intra-bunch concurrency, and *measures its own timing error* so users
can see exactly how (im)precise wall-clock replay is on their host.

The target is a plain callable ``handle(package) -> None`` executed for
each request (e.g. writes against a file, or a no-op sink); simulated
:class:`~repro.storage.base.StorageDevice` objects live on the DES clock
and are not valid targets here.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ReplayError
from ..trace.packed import TraceLike, unpack
from ..trace.record import IOPackage

RequestHandler = Callable[[IOPackage], None]


@dataclass(frozen=True)
class RealtimeReport:
    """Timing fidelity of one wall-clock replay."""

    bunches: int
    packages: int
    wall_duration: float
    trace_duration: float
    mean_lateness: float
    max_lateness: float

    @property
    def slowdown(self) -> float:
        """Wall time over trace time (1.0 = perfectly on schedule)."""
        if self.trace_duration <= 0:
            return 1.0
        return self.wall_duration / self.trace_duration


class RealtimeReplayer:
    """Wall-clock, thread-pooled trace replayer.

    Parameters
    ----------
    handler:
        Called once per IOPackage, from worker threads.
    workers:
        Thread-pool width for intra-bunch concurrency.
    speedup:
        >1 compresses the schedule (like the time scaler, but applied
        at dispatch).
    """

    def __init__(
        self,
        handler: RequestHandler,
        workers: int = 8,
        speedup: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ReplayError(f"workers must be >= 1, got {workers}")
        if speedup <= 0:
            raise ReplayError(f"speedup must be > 0, got {speedup}")
        self.handler = handler
        self.workers = workers
        self.speedup = speedup

    def replay(self, trace: TraceLike) -> RealtimeReport:
        """Replay the whole trace (either representation; it is walked
        as bunch objects); blocks until every request returns."""
        if len(trace) == 0:
            raise ReplayError("cannot replay an empty trace")
        trace = unpack(trace)
        origin_ts = trace.bunches[0].timestamp
        latenesses: List[float] = []
        lock = threading.Lock()
        packages = 0

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            start_wall = time.perf_counter()
            futures = []
            for bunch in trace:
                target = (bunch.timestamp - origin_ts) / self.speedup
                while True:
                    now = time.perf_counter() - start_wall
                    remaining = target - now
                    if remaining <= 0:
                        break
                    # Sleep coarsely, then spin the final millisecond —
                    # the standard trick to beat sleep() granularity.
                    if remaining > 0.002:
                        time.sleep(remaining - 0.001)
                late = (time.perf_counter() - start_wall) - target
                with lock:
                    latenesses.append(max(late, 0.0))
                for pkg in bunch.packages:
                    packages += 1
                    futures.append(pool.submit(self.handler, pkg))
            wait(futures)
            wall = time.perf_counter() - start_wall
        # Surface handler exceptions.
        for fut in futures:
            exc = fut.exception()
            if exc is not None:
                raise ReplayError(f"request handler failed: {exc!r}") from exc
        return RealtimeReport(
            bunches=len(trace),
            packages=packages,
            wall_duration=wall,
            trace_duration=trace.duration / self.speedup,
            mean_lateness=sum(latenesses) / len(latenesses) if latenesses else 0.0,
            max_lateness=max(latenesses) if latenesses else 0.0,
        )

"""The evaluation host: the full §III-B test procedure, headless.

Ties the pieces together:

1. *Setting up the environment* — construct the host with a device
   under test (or a device factory), a trace repository, a run ledger
   (the results database), and a multichannel meter;
2. *Building a trace repository* — :meth:`EvaluationHost.build_repository`
   collects the synthetic matrix via the workload generator;
3. *Testing energy efficiency* — :meth:`EvaluationHost.run_test` applies
   a :class:`~repro.config.TestRequest`: look up the trace, arm monitor
   and power channel, replay at the configured load proportion, record
   the test as one ledger row, and return it as a
   :class:`~repro.host.records.TestRecord`.

A fresh simulator and device per test keeps tests independent, exactly
as the paper resets the array between runs.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..config import LOAD_LEVELS, ReplayConfig, TestRequest, WorkloadMode
from ..replay.session import ReplaySession
from ..storage.base import StorageDevice
from ..trace.record import Trace
from ..trace.repository import TraceRepository
from ..workload.matrix import build_matrix
from .ledger import RunLedger, record_test
from .records import TestRecord

DeviceFactory = Callable[[], StorageDevice]


class EvaluationHost:
    """Headless evaluation host.

    Parameters
    ----------
    device_factory:
        Builds a fresh device under test for each run.
    device_label:
        Repository/ledger label for this device (e.g. ``hdd-raid5``).
    repository:
        Trace repository to collect into / replay from.
    clock:
        Source of record timestamps (injectable for deterministic tests).
    ledger:
        Results store, one row per test; an in-memory one if omitted.
    frames_dir:
        Where streamed interval frames of a test are written.
    """

    def __init__(
        self,
        device_factory: DeviceFactory,
        device_label: str,
        repository: TraceRepository,
        clock: Callable[[], float] = _time.time,
        ledger: Optional[RunLedger] = None,
        frames_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.device_factory = device_factory
        self.device_label = device_label
        self.repository = repository
        self.clock = clock
        self.ledger = ledger if ledger is not None else RunLedger()
        self.frames_dir = frames_dir

    # -- §III-B step 2: build the trace repository -------------------------

    def build_repository(
        self,
        modes: Optional[Iterable[WorkloadMode]] = None,
        duration: float = 5.0,
        outstanding: int = 16,
        overwrite: bool = False,
    ) -> int:
        """Collect peak traces for ``modes`` (default: the 125 matrix).

        Returns the number of traces now available.
        """
        build_matrix(
            self.device_factory,
            self.repository,
            self.device_label,
            duration=duration,
            modes=modes,
            outstanding=outstanding,
            overwrite=overwrite,
        )
        return len(self.repository)

    # -- §III-B step 3: run measured tests ---------------------------------

    def _load_trace(self, mode: WorkloadMode) -> Trace:
        name = self.repository.lookup(self.device_label, mode)
        return self.repository.load(name)

    def run_test(
        self,
        request: TestRequest,
        trace: Optional[Trace] = None,
        store_cycles: bool = False,
        stream_interval: Optional[float] = None,
        on_frame: Optional[Callable] = None,
    ) -> TestRecord:
        """Execute one test and record it as one ledger row.

        ``trace`` overrides the repository lookup (used for real-world
        traces that are not part of the synthetic matrix).
        ``store_cycles`` additionally attaches the per-cycle series
        (the GUI's real-time curves) to the row.
        ``stream_interval``/``on_frame`` enable interval-frame streaming
        for this run (see :class:`~repro.replay.session.ReplaySession`).
        """
        if trace is None:
            trace = self._load_trace(request.mode)
        device = self.device_factory()
        session = ReplaySession(
            device,
            config=request.replay,
            stream_interval=stream_interval,
            on_frame=on_frame,
        )
        result = session.run(trace, load_proportion=request.mode.load_proportion)
        return record_test(
            self.ledger,
            result.to_dict(),
            request,
            self.device_label,
            origin="local",
            created=self.clock(),
            frames_dir=self.frames_dir,
            cycles=result.cycles() if store_cycles else None,
        )

    def run_load_sweep(
        self,
        mode: WorkloadMode,
        levels: Sequence[float] = LOAD_LEVELS,
        replay: Optional[ReplayConfig] = None,
        trace: Optional[Trace] = None,
        label: str = "",
    ) -> List[TestRecord]:
        """Replay one trace at each load level (the paper's 10 runs/trace)."""
        records = []
        for level in levels:
            request = TestRequest(
                mode=mode.at_load(level),
                replay=replay if replay is not None else ReplayConfig(),
                label=label,
            )
            records.append(self.run_test(request, trace=trace))
        return records

    def run_matrix_evaluation(
        self,
        modes: Optional[Iterable[WorkloadMode]] = None,
        levels: Sequence[float] = LOAD_LEVELS,
        replay: Optional[ReplayConfig] = None,
        collect_duration: float = 5.0,
        label: str = "matrix",
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> int:
        """The paper's §VI step 1 in one call: collect every requested
        mode's peak trace (if missing) and replay it at every level.

        The full 125 × 10 grid is 1250 tests ("we had to perform more
        than 1250 experiments"); pass ``modes``/``levels`` subsets for
        anything interactive.  Returns the number of records stored.
        ``progress(done, total)`` is invoked after each test.
        """
        mode_list = list(modes) if modes is not None else None
        self.build_repository(modes=mode_list, duration=collect_duration)
        if mode_list is None:
            from ..workload.matrix import matrix_modes

            mode_list = matrix_modes()
        total = len(mode_list) * len(levels)
        done = 0
        for mode in mode_list:
            for level in levels:
                request = TestRequest(
                    mode=mode.at_load(level),
                    replay=replay if replay is not None else ReplayConfig(),
                    label=label,
                )
                self.run_test(request)
                done += 1
                if progress is not None:
                    progress(done, total)
        return done

    # -- Queries -------------------------------------------------------------

    def query(self, **kwargs) -> List[TestRecord]:
        """This device's stored tests (see :meth:`RunLedger.tests`)."""
        return self.ledger.tests(device_label=self.device_label, **kwargs)

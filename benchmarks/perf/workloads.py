"""The five perf workloads: seeded input generators and one op each.

Every workload builds its inputs from ``seed`` alone, so the same seed
gives byte-identical inputs on any commit.  Inputs are generated here
rather than taken from ``repro`` helpers or other benchmark files, so a
change to the library cannot shift what the benchmark measures.  Only
the public ``repro`` API is called, and always through its module
attributes, so the layer wrappers in ``spans.py`` see every call.

An op's output is reduced to a SHA-256 digest of
``repro.fleet.jobs.canonical_result_bytes`` minus ``metadata.engine``;
the event engine and the fast paths must agree on it bit for bit.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.storage.array as storage_array
import repro.trace.blktrace as blktrace
import repro.workload.matrix as matrix
import repro.workload.parallel as parallel
from repro.config import LOAD_LEVELS, ReplayConfig, WorkloadMode
from repro.energysaving import DRPMPolicy, MAIDPolicy
from repro.fleet import (
    EvaluationContext,
    FleetScheduler,
    JobSpec,
    LocalWorker,
    canonical_result_bytes,
)
from repro.host.ledger import RunLedger
from repro.replay.session import replay_trace
from repro.storage.array import RaidLevel
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace


def digest(payload: Any) -> str:
    """SHA-256 of the canonical result bytes, engine label removed."""
    data = json.loads(canonical_result_bytes(payload))
    _drop_engine(data)
    return hashlib.sha256(canonical_result_bytes(data)).hexdigest()


def _drop_engine(node: Any) -> None:
    if isinstance(node, dict):
        if isinstance(node.get("metadata"), dict):
            node["metadata"].pop("engine", None)
        for value in node.values():
            _drop_engine(value)
    elif isinstance(node, list):
        for value in node:
            _drop_engine(value)


@dataclass
class OpRecord:
    """One op as the harness saw it."""

    op_id: int
    seconds: float
    key: str = ""
    digest: Optional[str] = None
    packages: int = 0
    error: Optional[str] = None
    cache_hit: Optional[bool] = None  # fleet jobs only


# ---------------------------------------------------------------------------
# Input generators


def random_trace(rng: np.random.Generator, n_bunches: int, write_frac: float,
                 gap: float, label: str) -> PackedTrace:
    """Bunches of 1–8 packages of 0.5–31.5 KiB anywhere in 128 GiB."""
    sizes = rng.integers(1, 9, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 28, total)
    packages["nbytes"] = rng.integers(1, 64, total) * 512
    packages["op"] = (rng.random(total) < write_frac).astype(np.int64)
    timestamps = np.cumsum(rng.random(n_bunches)) * gap
    return PackedTrace(timestamps, offsets, packages, label=label)


def grid_trace(rng: np.random.Generator, n_bunches: int, read_frac: float,
               label: str) -> PackedTrace:
    """Bunches of three 64 KiB packages with Poisson arrivals (4 ms)."""
    sizes = np.full(n_bunches, 3, dtype=np.int64)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 22, total)
    packages["nbytes"] = 65536
    packages["op"] = (rng.random(total) >= read_frac).astype(np.int64)
    timestamps = np.cumsum(rng.exponential(0.004, n_bunches))
    return PackedTrace(timestamps, offsets, packages, label=label)


# Device factories look the array constructor up at call time, so a
# wrapped one is seen; the harness passes parallel=False, so they never
# need to pickle.


def hdd_raid5() -> Any:
    return storage_array.build_hdd_raid5(6)


def hdd_raid0() -> Any:
    return storage_array.build_hdd_raid5(
        6, name="hdd-raid0", level=RaidLevel.RAID0
    )


def ssd_raid5() -> Any:
    return storage_array.build_ssd_raid5(4)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, rounds of ops, and reference digests.

    ``setup`` may run several times; each run rebuilds every input and
    fixture from the seed.  ``run_round`` runs one round, a fixed block
    of work (one op here; a batch of jobs on the fleet), and returns its
    records and wall seconds.  With a recorder, each op runs inside its
    root span.
    """

    name = ""

    def __init__(self, seed: int, engine: str = "auto",
                 workdir: Optional[str] = None) -> None:
        self.seed = seed
        self.engine = engine
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def input_bytes(self) -> bytes:
        raise NotImplementedError

    def op(self, rec=None) -> Tuple[Dict[str, Any], int]:
        """Run one op; return its output payload and replayed packages."""
        raise NotImplementedError

    def run_round(self, ops: Iterator[int], rec=None
                  ) -> Tuple[List[OpRecord], float]:
        op_id = next(ops)
        record = OpRecord(op_id, 0.0, key=self.name)
        payload = None
        with rec.op(op_id) if rec is not None else nullcontext():
            start = time.perf_counter()
            try:
                payload, record.packages = self.op(rec)
            except Exception as exc:  # an op failure is a result, not a crash
                record.error = f"{type(exc).__name__}: {exc}"
            record.seconds = time.perf_counter() - start
        if payload is not None:
            record.digest = digest(payload)
        return [record], record.seconds

    def warmup(self) -> List[OpRecord]:
        return self.run_round(iter([-1]))[0]

    def reference(self) -> Dict[str, str]:
        """Digests of this seed's outputs, computed by the event engine."""
        [record], _ = self.run_round(iter([0]))
        if record.error is not None:
            raise RuntimeError(record.error)
        return {record.key: record.digest}

    def close(self) -> None:
        pass


class ReplayRead(Workload):
    """Decode a packed all-read trace from bytes and replay it at load
    1.0 on a fresh HDD RAID-5 x6: the 1-D Lindley/link-chain kernel."""

    name = "replay-read"
    N_BUNCHES = 50_000
    WRITE_FRAC = 0.0
    GAP = 2e-3

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.data = blktrace.dumps_packed(random_trace(
            rng, self.N_BUNCHES, self.WRITE_FRAC, self.GAP, self.name
        ))

    def input_bytes(self) -> bytes:
        return self.data

    def op(self, rec=None) -> Tuple[Dict[str, Any], int]:
        trace = blktrace.loads_packed(self.data)
        devices = [hdd_raid5()]
        result = replay_trace(trace, devices[0], 1.0, engine=self.engine)
        # Freeing the replayed array's committed state is ~3% of the op:
        # time it as the storage layer's span, not as unaccounted time.
        with rec.span("storage.release") if rec is not None else nullcontext():
            devices.clear()
        return result.to_dict(), result.completed


class ReplayRMW(ReplayRead):
    """The same op with 40% writes: sub-stripe writes run the two-phase
    RAID-5 read-modify-write fixpoint."""

    name = "replay-rmw"
    N_BUNCHES = 15_000
    WRITE_FRAC = 0.4
    GAP = 5e-3


class SearchGrid(Workload):
    """One MAID/DRPM policy search over 2 traces x 2 arrays x 3 loads x 8
    time scales: the fused grid, policy scoring, and the per-point
    fallback for the cell that does not fuse."""

    name = "search-grid"
    N_BUNCHES = 3000
    LOADS = (0.4, 0.7, 1.0)
    # Whether the RMW fixpoint converges flips from trace to trace when
    # load x time scale is within about 0.44-0.59, so the time scales
    # keep every cell out of that band but one: load 1.0 at scale 0.5,
    # its centre, falls back on every seed tried (1-80).  The op's cost
    # then does not depend on the seed.
    TIME_SCALES = (0.5, 0.9, 1.0, 1.5, 1.6, 1.75, 1.9, 2.0)
    CONFIG = ReplayConfig(sampling_cycle=1000.0)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.traces = {
            "read100": grid_trace(rng, self.N_BUNCHES, 1.0, "read100"),
            "read70": grid_trace(rng, self.N_BUNCHES, 0.7, "read70"),
        }

    def input_bytes(self) -> bytes:
        return b"".join(
            blktrace.dumps_packed(t) for t in self.traces.values()
        )

    def op(self, rec=None) -> Tuple[Dict[str, Any], int]:
        outcome = parallel.run_policy_search(
            self.traces,
            {"hdd-raid5": hdd_raid5, "hdd-raid0": hdd_raid0},
            [MAIDPolicy(idle_timeout=1.0), DRPMPolicy(step_timeout=0.5)],
            loads=self.LOADS, time_scales=self.TIME_SCALES,
            config=self.CONFIG, engine=self.engine, parallel=False,
        )
        packages = sum(c.result.completed for c in outcome.grid.cells)
        return {c.key: c.metrics.to_dict() for c in outcome.cells}, packages


class PaperSweep(Workload):
    """The Fig. 8/9 loop a user script runs: 8 collected object traces x
    the 10 load levels, each replayed on a fresh array (event engine)."""

    name = "paper-sweep"
    #: (request size, random ratio, read ratio) of the four IOmeter modes.
    MODES = (
        (4096, 0.5, 0.5),     # 4 KiB, 50% random, 50% read
        (65536, 0.0, 1.0),    # 64 KiB sequential read
        (16384, 1.0, 0.0),    # 16 KiB random write
        (4096, 1.0, 1.0),     # 4 KiB random read
    )
    DURATION = 0.25  # simulated seconds collected per trace

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.traces = []
        for factory in (hdd_raid5, ssd_raid5):
            for size, random_ratio, read_ratio in self.MODES:
                mode = WorkloadMode(size, random_ratio, read_ratio)
                trace = matrix.collect_trace(
                    factory, mode, self.DURATION,
                    seed=int(rng.integers(1 << 31)),
                )
                self.traces.append((factory, trace))

    def input_bytes(self) -> bytes:
        return b"".join(blktrace.dumps(t) for _, t in self.traces)

    def op(self, rec=None) -> Tuple[Dict[str, Any], int]:
        results = [
            replay_trace(trace, factory(), load, engine=self.engine)
            for factory, trace in self.traces
            for load in LOAD_LEVELS
        ]
        return (
            {"results": [r.to_dict() for r in results]},
            sum(r.completed for r in results),
        )


class FleetMix(Workload):
    """Two closed-loop tenants feeding one thread worker.

    Each client submits its next job only after its previous result
    arrives.  An op is one job; a round is a batch of 28 jobs with the
    same mix in the same order every time: each (trace, load) class
    three times with fresh seeds, plus 4 repeats of jobs from earlier
    rounds, which the ledger cache serves (a 14% dedup share).
    """

    name = "fleet-mix"
    N_BUNCHES = 3000
    LOADS = (0.25, 0.5, 0.75, 1.0)
    TRACES = ("read", "mix")
    FRESH_PER_CLASS = 3
    REPEATS = 4
    WARMUP_SEED = 10 ** 6  # above any round's seeds

    def __init__(self, seed: int, engine: str = "auto",
                 workdir: Optional[str] = None) -> None:
        super().__init__(seed, engine, workdir)
        self.scheduler = None

    def _traces(self, rng: np.random.Generator) -> Dict[str, PackedTrace]:
        # Both at a 2 ms gap: at 5 ms the mixed trace's load-0.25 replay
        # fell back to the event engine on about one seed in ten.
        return {
            "read": random_trace(rng, self.N_BUNCHES, 0.0, 2e-3, "read"),
            "mix": random_trace(rng, self.N_BUNCHES, 0.3, 2e-3, "mix"),
        }

    def _classes(self) -> List[Tuple[str, float]]:
        return [(t, l) for t in self.TRACES for l in self.LOADS]

    def _warmup_jobs(self) -> List[Tuple[str, float, int]]:
        return [(t, l, self.WARMUP_SEED + i)
                for i, (t, l) in enumerate(self._classes())]

    def _rounds(self, rng: np.random.Generator
                ) -> Iterator[List[Tuple[str, float, int]]]:
        done = self._warmup_jobs()
        seeds = itertools.count()
        while True:
            fresh = [(t, l, next(seeds))
                     for t, l in self._classes() * self.FRESH_PER_CLASS]
            picks = rng.choice(len(done), self.REPEATS, replace=False)
            repeats = [done[i] for i in picks]
            done.extend(fresh)
            # The same order every round and every seed: runs of fresh
            # jobs through the classes, each run followed by a repeat.
            step = len(fresh) // self.REPEATS
            yield [job for k, repeat in enumerate(repeats)
                   for job in fresh[k * step:(k + 1) * step] + [repeat]]

    def setup(self) -> None:
        self.close()
        rng = np.random.default_rng(self.seed)
        self.traces = self._traces(rng)
        self.rounds = self._rounds(rng)
        self.loop = asyncio.new_event_loop()
        self.tmp = tempfile.mkdtemp(prefix="fleet-", dir=self.workdir)
        self.ledger = RunLedger(os.path.join(self.tmp, "ledger.sqlite"))
        self.context = EvaluationContext(self.traces)
        self.scheduler = FleetScheduler(
            [LocalWorker("w0", self.context)],
            context=self.context, ledger=self.ledger,
        )
        self.loop.run_until_complete(self.scheduler.start())

    def input_bytes(self) -> bytes:
        rng = np.random.default_rng(self.seed)
        traces = self._traces(rng)
        rounds = self._rounds(rng)
        jobs = [next(rounds) for _ in range(20)]
        return b"".join(
            blktrace.dumps_packed(t) for t in traces.values()
        ) + json.dumps(jobs).encode()

    @staticmethod
    def key(trace: str, load: float) -> str:
        return f"{trace}@{load:g}"

    def _run_jobs(self, jobs: List[Tuple[str, float, int]],
                  ops: Iterator[int], rec=None
                  ) -> Tuple[List[OpRecord], float]:
        # A fresh spec object per job, even for repeats: the tracer
        # follows a job through the scheduler by its spec's identity.
        specs = iter([
            JobSpec(trace=t, load=l, seed=s, engine=self.engine)
            for t, l, s in jobs
        ])
        done: List[Tuple[OpRecord, Any]] = []

        async def client(tenant: str) -> None:
            for spec in specs:
                record = OpRecord(next(ops), 0.0,
                                  key=self.key(spec.trace, spec.load))
                result = None
                with rec.op(record.op_id) if rec is not None else nullcontext():
                    start = time.perf_counter()
                    try:
                        job = await self.scheduler.submit(spec, tenant)
                        result = await job.future
                    except Exception as exc:
                        record.error = f"{type(exc).__name__}: {exc}"
                    record.seconds = time.perf_counter() - start
                done.append((record, result))

        async def both() -> None:
            await asyncio.gather(client("tenant-a"), client("tenant-b"))

        start = time.perf_counter()
        self.loop.run_until_complete(both())
        wall = time.perf_counter() - start
        records = []
        for record, result in sorted(done, key=lambda d: d[0].op_id):
            if result is not None:
                payload = json.loads(result.result_bytes)
                record.digest = digest(payload)
                record.cache_hit = result.cache_hit
                record.packages = 0 if result.cache_hit else payload["completed"]
            records.append(record)
        return records, wall

    def run_round(self, ops: Iterator[int], rec=None
                  ) -> Tuple[List[OpRecord], float]:
        return self._run_jobs(next(self.rounds), ops, rec)

    def warmup(self) -> List[OpRecord]:
        """One job per (trace, load) class; the rounds repeat these."""
        jobs = self._warmup_jobs()
        return self._run_jobs(jobs, iter(range(-len(jobs), 0)))[0]

    def reference(self) -> Dict[str, str]:
        return {
            self.key(t, l): digest(self.context.execute(
                JobSpec(trace=t, load=l, engine=self.engine)
            ))
            for t, l in self._classes()
        }

    def close(self) -> None:
        if self.scheduler is None:
            return
        try:
            self.loop.run_until_complete(self.scheduler.drain())
            self.loop.run_until_complete(self.scheduler.stop())
        finally:
            self.ledger.close()
            self.loop.close()
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.scheduler = None


WORKLOADS = {
    w.name: w for w in (ReplayRead, ReplayRMW, SearchGrid, PaperSweep, FleetMix)
}

"""Evaluation workers: local pool and remote hosts behind one interface.

A :class:`FleetWorker` accepts one job at a time and returns a
``concurrent.futures.Future`` resolving to the job's raw result payload
(a JSON-safe dict).  The scheduler owns placement — a worker never
queues; it is either idle or executing exactly one job.

Two families:

* :class:`LocalWorker` — executes in-process.  ``mode="thread"`` runs
  on a single-thread executor against a shared
  :class:`EvaluationContext`; ``mode="process"`` owns a one-process
  pool seeded with the context's traces via an initializer, so the
  trace bytes ship once per worker, not once per job.  A process
  worker's child dying (``kill()``, OOM, crash) surfaces as
  :class:`~repro.errors.WorkerDied`.
* :class:`RemoteWorker` — dispatches replay jobs to a generator node
  through :class:`~repro.distributed.RemoteEvaluationHost`'s
  ``run_test_raw``, passing the job id as the wire ``request_id`` so a
  job retried against the *same node* after a link death is served from
  the node's result cache instead of replaying.  Link failures map to
  :class:`~repro.errors.WorkerDied`.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from ..config import ReplayConfig, TestRequest, WorkloadMode
from ..errors import FleetError, ProtocolError, TracerError, WorkerDied
from ..trace.blktrace import dumps_packed, loads_packed
from ..trace.packed import PackedTrace, pack
from .jobs import FleetJob, JobSpec, trace_fingerprint

#: Optional per-dispatch chaos hook: ``chaos(worker_name, job)`` runs
#: before execution; raising :class:`WorkerDied` simulates the worker
#: dying mid-job (the chaos tests and the CI smoke use this to induce
#: deterministic failures without real process kills).
ChaosFn = Callable[[str, FleetJob], None]

#: Mid-replay interval-frame callback (replay jobs only).
FrameFn = Callable[[Dict[str, Any]], None]


def device_factory(kind: str, n_disks: int) -> Callable:
    """Picklable storage-array factory for a fleet device label."""
    from ..storage.array import (
        RaidLevel,
        build_hdd_raid5,
        build_ssd_raid5,
    )

    if kind == "hdd-raid5":
        return partial(build_hdd_raid5, n_disks)
    if kind == "ssd-raid5":
        return partial(build_ssd_raid5, n_disks)
    if kind == "hdd-raid0":
        return partial(
            build_hdd_raid5, n_disks, name="hdd-raid0", level=RaidLevel.RAID0
        )
    if kind == "ssd-raid0":
        return partial(
            build_ssd_raid5, n_disks, name="ssd-raid0", level=RaidLevel.RAID0
        )
    raise FleetError(
        f"unknown device type {kind!r} "
        "(hdd-raid5 | ssd-raid5 | hdd-raid0 | ssd-raid0)"
    )


class EvaluationContext:
    """What a local worker needs to run any job: traces plus execution.

    Holds the label → :class:`PackedTrace` map, caches trace fingerprints,
    and counts actual executions (the dedup tests assert on this — a
    cache hit must *not* bump it).
    """

    def __init__(self, traces: Optional[Dict[str, Any]] = None) -> None:
        self._traces: Dict[str, PackedTrace] = {}
        self._fps: Dict[str, str] = {}
        self._lock = threading.Lock()
        self.executions = 0
        for label, trace in (traces or {}).items():
            self.add_trace(label, trace)

    @staticmethod
    def _normalize(label: str, trace: Any) -> PackedTrace:
        """Round-trip through the packed wire codec.

        Bit-identity across worker kinds demands that every worker
        replay *exactly* the same trace: the codec quantizes timestamps
        to nanoseconds, so a freshly collected in-memory trace and its
        decoded wire form differ at the ULP level.  Normalising at
        admission (and pinning the label) makes thread workers, process
        children, and serial comparison replays all see the canonical
        quantized form — the one the fingerprint hashes.
        """
        return loads_packed(dumps_packed(pack(trace)), label=label)

    def add_trace(self, label: str, trace: Any) -> None:
        normalized = self._normalize(label, trace)
        with self._lock:
            self._traces[label] = normalized
            self._fps.pop(label, None)

    def labels(self) -> List[str]:
        return sorted(self._traces)

    def trace(self, label: str) -> PackedTrace:
        try:
            return self._traces[label]
        except KeyError:
            raise FleetError(
                f"unknown trace {label!r}; have {self.labels()}"
            ) from None

    def trace_fp(self, label: str) -> str:
        with self._lock:
            fp = self._fps.get(label)
            if fp is None:
                fp = self._fps[label] = trace_fingerprint(self.trace(label))
            return fp

    def encoded_traces(self) -> Dict[str, bytes]:
        """Serialised traces, for shipping to process-worker children."""
        return {
            label: dumps_packed(trace)
            for label, trace in self._traces.items()
        }

    def execute(
        self,
        spec: JobSpec,
        on_frame: Optional[FrameFn] = None,
        stream_interval: Optional[float] = None,
        trace_context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run one job spec to completion; return its raw result dict.

        With a ``trace_context`` (a ``repro.telemetry.dtrace`` context
        dict) the execution runs inside a tracing scope: a
        ``worker.execute`` span wraps the run, the replay session's
        phase spans nest under it, and the finished span list rides the
        payload home (``metadata["dtrace"]`` for replay results, a
        top-level ``dtrace`` key for grid/search).  The span carrier is
        stripped by :func:`~repro.fleet.jobs.canonical_result_bytes`,
        so traced and untraced executions stay bit-identical.
        """
        if trace_context is None:
            return self._execute(spec, on_frame, stream_interval)
        from ..telemetry import dtrace

        ctx = dtrace.TraceContext.from_dict(trace_context)
        with dtrace.tracing_scope(ctx) as sink:
            with dtrace.span(dtrace.SPAN_EXECUTE, kind=spec.kind,
                             trace=spec.trace):
                payload = self._execute(spec, on_frame, stream_interval)
        payload = dict(payload)
        if spec.kind == "replay":
            metadata = dict(payload.get("metadata") or {})
            metadata["dtrace"] = sink
            payload["metadata"] = metadata
        else:
            payload["dtrace"] = sink
        return payload

    def _execute(
        self,
        spec: JobSpec,
        on_frame: Optional[FrameFn] = None,
        stream_interval: Optional[float] = None,
    ) -> Dict[str, Any]:
        with self._lock:
            self.executions += 1
        config = ReplayConfig(
            sampling_cycle=spec.sampling_cycle,
            time_scale=spec.time_scale,
            seed=spec.seed,
            engine=spec.engine,
        )
        trace = self.trace(spec.trace)
        factory = device_factory(spec.device, spec.n_disks)
        if spec.kind == "replay":
            from ..replay.session import replay_trace

            # Watchers get wire dicts from every worker kind, local or
            # remote (``FrameFn``), never the session's frame objects.
            deliver = None
            if on_frame is not None:
                def deliver(frame) -> None:
                    on_frame(frame.to_dict())

            result = replay_trace(
                trace,
                factory(),
                spec.load,
                config=config,
                faults=spec.fault_schedule(),
                stream_interval=stream_interval,
                on_frame=deliver,
                engine=spec.engine,
            )
            return result.to_dict()
        if spec.kind == "grid":
            from ..workload.parallel import run_grid

            outcome = run_grid(
                {spec.trace: trace},
                {spec.device: factory},
                loads=spec.loads,
                time_scales=spec.time_scales,
                config=config,
                engine=spec.engine,
                parallel=False,
            )
            return outcome.to_dict(deterministic=True)
        # kind == "search" (JobSpec validated the kind at construction)
        from ..search import build_policies
        from ..workload.parallel import run_policy_search

        outcome = run_policy_search(
            {spec.trace: trace},
            {spec.device: factory},
            build_policies(list(spec.policies)),
            loads=spec.loads,
            time_scales=spec.time_scales,
            config=config,
            engine=spec.engine,
            parallel=False,
        )
        return outcome.to_dict(deterministic=True)


# -- process-worker child entry points (module level: picklable) ------------

_CHILD_CONTEXT: Optional[EvaluationContext] = None


def _child_init(encoded: Dict[str, bytes]) -> None:
    global _CHILD_CONTEXT
    _CHILD_CONTEXT = EvaluationContext(
        {
            label: loads_packed(blob, label=label)
            for label, blob in encoded.items()
        }
    )


def _child_execute(
    spec_dict: Dict[str, Any],
    trace_context: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    assert _CHILD_CONTEXT is not None, "process worker not initialised"
    return _CHILD_CONTEXT.execute(
        JobSpec.from_dict(spec_dict), trace_context=trace_context
    )


def _child_pid() -> int:
    return os.getpid()


def _translated(source: "Future[Any]",
                translate: Callable[[BaseException], BaseException]
                ) -> "Future[Any]":
    """Chain a future, mapping its exception through ``translate``."""
    out: "Future[Any]" = Future()

    def _done(f: "Future[Any]") -> None:
        exc = f.exception()
        if exc is None:
            out.set_result(f.result())
        else:
            out.set_exception(translate(exc))

    source.add_done_callback(_done)
    return out


class FleetWorker:
    """Interface every worker implements."""

    name: str = "?"
    alive: bool = True
    jobs_done: int = 0

    def submit(
        self,
        job: FleetJob,
        on_frame: Optional[FrameFn] = None,
        stream_interval: Optional[float] = None,
    ) -> "Future[Dict[str, Any]]":
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        self.alive = False

    def heartbeat(self) -> Dict[str, Any]:
        """Liveness + load probe, polled by the scheduler's heartbeat
        loop from an executor thread.

        Returns a JSON-safe beat dict (``worker``/``alive``/
        ``jobs_done`` at minimum; remote workers add node identity and
        a telemetry delta).  Raising — any exception — counts as a
        missed beat and walks the worker's health toward ``suspect``
        and ``dead``.
        """
        if not self.alive:
            raise WorkerDied(f"worker {self.name} is dead")
        return {
            "worker": self.name,
            "alive": True,
            "jobs_done": self.jobs_done,
        }

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "alive": self.alive,
            "jobs_done": self.jobs_done,
        }


class LocalWorker(FleetWorker):
    """One in-process evaluation slot (thread- or process-backed)."""

    def __init__(
        self,
        name: str,
        context: EvaluationContext,
        mode: str = "thread",
        chaos: Optional[ChaosFn] = None,
    ) -> None:
        if mode not in ("thread", "process"):
            raise FleetError(f"worker mode must be thread|process, not {mode!r}")
        self.name = name
        self.mode = mode
        self.context = context
        self.chaos = chaos
        self.alive = True
        self.jobs_done = 0
        if mode == "thread":
            self._executor: Any = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"fleet-{name}"
            )
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_child_init,
                initargs=(context.encoded_traces(),),
            )

    def submit(
        self,
        job: FleetJob,
        on_frame: Optional[FrameFn] = None,
        stream_interval: Optional[float] = None,
    ) -> "Future[Dict[str, Any]]":
        if not self.alive:
            failed: "Future[Dict[str, Any]]" = Future()
            failed.set_exception(WorkerDied(f"worker {self.name} is dead"))
            return failed
        if self.mode == "thread":
            fut = self._executor.submit(
                self._run_threaded, job, on_frame, stream_interval
            )
        else:
            # Streaming needs a same-process callback; process workers
            # run unstreamed (the scheduler documents this trade-off).
            fut = _translated(
                self._executor.submit(
                    _child_execute, job.spec.to_dict(), job.trace_context
                ),
                self._translate,
            )
        return fut

    def _run_threaded(
        self,
        job: FleetJob,
        on_frame: Optional[FrameFn],
        stream_interval: Optional[float],
    ) -> Dict[str, Any]:
        if self.chaos is not None:
            self.chaos(self.name, job)
        payload = self.context.execute(
            job.spec, on_frame=on_frame, stream_interval=stream_interval,
            trace_context=job.trace_context,
        )
        self.jobs_done += 1
        return payload

    def _translate(self, exc: BaseException) -> BaseException:
        if isinstance(exc, BrokenProcessPool):
            return WorkerDied(f"worker {self.name} process died: {exc}")
        if isinstance(exc, WorkerDied) or not isinstance(exc, Exception):
            return exc
        self.jobs_done += 1  # the child survived; the *job* failed
        return exc

    def kill(self) -> None:
        """Violently kill a process worker's child (chaos injection)."""
        if self.mode != "process":
            self.alive = False
            return
        try:
            pid = self._executor.submit(_child_pid).result(timeout=30)
            os.kill(pid, signal.SIGKILL)
        except (BrokenProcessPool, OSError, RuntimeError):
            pass
        self.alive = False

    def close(self) -> None:
        self.alive = False
        self._executor.shutdown(wait=False)


class RemoteWorker(FleetWorker):
    """A generator node serving replay jobs over the wire.

    Only ``kind="replay"`` jobs are routable here: the wire protocol's
    ``run_test`` carries a single workload-mode request, and the node
    picks its trace from its own repository by (device, mode).  Grid
    and search jobs stay on local workers.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        retry: Optional[Any] = None,
        timeout: float = 60.0,
        heartbeat_timeout: float = 5.0,
    ) -> None:
        from ..distributed.host_node import RemoteEvaluationHost

        self.name = name
        self.alive = True
        self.jobs_done = 0
        self._addr = (host, port)
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"fleet-{name}"
        )
        self._host = RemoteEvaluationHost(
            host, port, timeout=timeout, retry=retry
        )

    @property
    def node_id(self) -> str:
        return self._host.node_id

    def submit(
        self,
        job: FleetJob,
        on_frame: Optional[FrameFn] = None,
        stream_interval: Optional[float] = None,
    ) -> "Future[Dict[str, Any]]":
        if not self.alive:
            failed: "Future[Dict[str, Any]]" = Future()
            failed.set_exception(WorkerDied(f"worker {self.name} is dead"))
            return failed
        return self._executor.submit(
            self._run_remote, job, on_frame, stream_interval
        )

    def _run_remote(
        self,
        job: FleetJob,
        on_frame: Optional[FrameFn],
        stream_interval: Optional[float],
    ) -> Dict[str, Any]:
        spec = job.spec
        if spec.kind != "replay":
            raise FleetError(
                f"remote workers serve replay jobs only, not {spec.kind!r}"
            )
        if spec.mode is None:
            raise FleetError(
                "remote replay jobs need a workload mode "
                "(the node selects its trace by it)"
            )
        if spec.faults:
            raise FleetError("fault-injected jobs run on local workers only")
        request = TestRequest(
            mode=WorkloadMode.from_dict(spec.mode).at_load(spec.load),
            replay=ReplayConfig(
                sampling_cycle=spec.sampling_cycle,
                time_scale=spec.time_scale,
                seed=spec.seed,
                engine=spec.engine,
            ),
            label=f"fleet:{job.job_id}",
        )
        try:
            body = self._host.run_test_raw(
                request,
                request_id=job.request_id,
                on_progress=on_frame,
                stream_interval=stream_interval,
                trace_context=job.trace_context,
            )
        except (ProtocolError, OSError) as exc:
            self.alive = False
            raise WorkerDied(
                f"worker {self.name} (node {self.node_id}) lost: {exc}"
            ) from exc
        except TracerError:
            self.jobs_done += 1  # node is healthy; the job itself failed
            raise
        self.jobs_done += 1
        return body

    def heartbeat(self) -> Dict[str, Any]:
        """Probe the generator node over a *dedicated* connection.

        The worker's main connection (and its single-thread executor)
        may be busy streaming a replay, so heartbeats dial their own
        short-timeout, no-retry connection per probe — a hung or dead
        node fails the beat fast instead of queueing behind a job.
        """
        if not self.alive:
            raise WorkerDied(f"worker {self.name} is dead")
        from ..host.communicator import NO_RETRY, Communicator
        from ..host.protocol import KIND_ACK, KIND_HEARTBEAT, Frame

        comm = Communicator(
            self._addr[0], self._addr[1],
            timeout=self._heartbeat_timeout, retry=NO_RETRY,
        )
        try:
            reply = comm.request(Frame(KIND_HEARTBEAT, {}))
        finally:
            comm.close()
        if reply.kind != KIND_ACK:
            raise ProtocolError(
                f"node {self.node_id} heartbeat answered {reply.kind!r}: "
                f"{reply.body.get('message')}"
            )
        beat = {
            "worker": self.name,
            "alive": True,
            "jobs_done": self.jobs_done,
            "node": reply.body.get("node_id"),
            "tests_served": reply.body.get("tests_served"),
        }
        if reply.body.get("telemetry") is not None:
            beat["telemetry"] = reply.body["telemetry"]
        return beat

    def close(self) -> None:
        self.alive = False
        self._executor.shutdown(wait=False)
        self._host.close()


def local_worker_pool(
    n: int,
    context: EvaluationContext,
    mode: str = "thread",
    chaos: Optional[ChaosFn] = None,
    name_prefix: str = "local",
) -> List[LocalWorker]:
    """Build ``n`` local workers sharing one evaluation context."""
    if n < 1:
        raise FleetError(f"need at least one worker, got {n}")
    return [
        LocalWorker(f"{name_prefix}-{i}", context, mode=mode, chaos=chaos)
        for i in range(n)
    ]

"""Fleet job specifications, fingerprints, and canonical result bytes.

A :class:`JobSpec` is the *work order* a tenant submits: which kind of
evaluation (single replay, grid sweep, policy search), against which
trace and device, under which workload mode and replay configuration.
It is a frozen value object with a canonical JSON form, so two tenants
submitting "the same" job produce byte-identical spec dicts and hence
the same dedup cache key.

The dedup key is ``(trace fingerprint, config fingerprint)``: the trace
fingerprint hashes the trace *bytes* (two traces with the same label but
different contents never collide), the config fingerprint hashes the
spec's canonical dict.  :func:`canonical_result_bytes` is the other half
of the contract: it serialises a result payload with non-deterministic
keys stripped (wall-clock timings, node identity, telemetry snapshots),
so a cache hit can be byte-compared against a fresh execution.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..errors import FleetError
from ..faults.schedule import DiskFailFault, FaultSchedule
from ..trace.blktrace import dumps_packed
from ..trace.packed import pack

JOB_KINDS = ("replay", "grid", "search")

#: Result-payload keys that vary run-to-run without changing the
#: evaluation (wall clock, node identity); stripped before hashing or
#: byte-comparing results.  ``dtrace`` is the distributed-tracing span
#: list (wall-clock timestamps and random span ids) that rides home in
#: the payload — stripping it at every dict level keeps results
#: bit-identical with tracing on or off.
_NONDETERMINISTIC_KEYS = ("node_id", "elapsed_seconds", "dtrace")
#: ``engine_fallback`` says why ``auto`` declined the analytical kernel;
#: stripping it keeps such a run byte-identical to the same spec forced
#: onto the event engine, which records no reason.
_NONDETERMINISTIC_METADATA = ("telemetry", "interval_frames",
                              "engine_fallback")


def trace_fingerprint(trace: Any) -> str:
    """Content hash of a trace (its serialised bytes).

    Accepts both representations — a bunch-list :class:`Trace` and a
    columnar :class:`~repro.trace.packed.PackedTrace` — hashing the
    packed wire encoding either way, so the fingerprint depends only on
    the trace's *contents*, not on which form happened to be in memory.
    """
    return hashlib.sha256(dumps_packed(pack(trace))).hexdigest()[:16]


def faults_to_dict(schedule: FaultSchedule) -> Dict[str, Any]:
    """Serialise the fault-schedule subset fleet jobs may carry.

    Timed disk failures plus the schedule seed cover the chaos-test
    surface; richer schedules stay an in-process API.
    """
    return {
        "seed": schedule.seed,
        "disk_failures": [
            {"at": f.at, "member": f.member} for f in schedule.disk_failures
        ],
    }


def faults_from_dict(payload: Dict[str, Any]) -> FaultSchedule:
    return FaultSchedule(
        seed=int(payload.get("seed", 0)),
        disk_failures=tuple(
            DiskFailFault(at=float(f["at"]), member=int(f["member"]))
            for f in payload.get("disk_failures", [])
        ),
    )


@dataclass(frozen=True)
class JobSpec:
    """One evaluation work order, canonically serialisable.

    ``kind`` selects the execution path: ``replay`` runs one
    :func:`~repro.replay.session.replay_trace`; ``grid`` runs
    :func:`~repro.workload.parallel.run_grid` over ``loads`` ×
    ``time_scales``; ``search`` runs
    :func:`~repro.workload.parallel.run_policy_search` over the same
    axes × ``policies`` (policy spec strings, e.g. ``"threshold:2.0"``).
    """

    kind: str = "replay"
    trace: str = ""
    device: str = "hdd-raid5"
    n_disks: int = 6
    #: Workload-mode dict (:meth:`~repro.config.WorkloadMode.to_dict`)
    #: — required when the job may land on a *remote* worker, whose
    #: generator node selects its trace by (device, mode); local
    #: workers resolve ``trace`` by label instead.
    mode: Optional[Dict[str, Any]] = None
    load: float = 1.0
    loads: Tuple[float, ...] = (1.0,)
    time_scales: Tuple[float, ...] = (1.0,)
    policies: Tuple[str, ...] = ()
    sampling_cycle: float = 60.0
    time_scale: float = 1.0
    seed: int = 0
    engine: str = "auto"
    faults: Optional[Dict[str, Any]] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise FleetError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if not self.trace:
            raise FleetError("job spec needs a trace label")
        if self.kind == "search" and not self.policies:
            raise FleetError("search jobs need at least one policy spec")
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "time_scales", tuple(self.time_scales))
        object.__setattr__(self, "policies", tuple(self.policies))

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe form (stable key order via sort at dump)."""
        return {
            "kind": self.kind,
            "trace": self.trace,
            "device": self.device,
            "n_disks": self.n_disks,
            "mode": dict(self.mode) if self.mode is not None else None,
            "load": self.load,
            "loads": list(self.loads),
            "time_scales": list(self.time_scales),
            "policies": list(self.policies),
            "sampling_cycle": self.sampling_cycle,
            "time_scale": self.time_scale,
            "seed": self.seed,
            "engine": self.engine,
            "faults": dict(self.faults) if self.faults is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise FleetError(f"unknown job spec keys: {sorted(unknown)}")
        kwargs = dict(payload)
        for key in ("loads", "time_scales", "policies"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def fault_schedule(self) -> Optional[FaultSchedule]:
        return faults_from_dict(self.faults) if self.faults else None

    def config_fingerprint(self) -> str:
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def cache_key(self, trace_fp: str) -> str:
        """The dedup key: trace content × full configuration."""
        return f"{trace_fp}:{self.config_fingerprint()}"


def _strip(payload: Any) -> Any:
    """Drop non-deterministic keys from a result payload, recursively."""
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if key in _NONDETERMINISTIC_KEYS:
                continue
            if key == "metadata" and isinstance(value, dict):
                value = {
                    k: v for k, v in value.items()
                    if k not in _NONDETERMINISTIC_METADATA
                }
            out[key] = _strip(value)
        return out
    if isinstance(payload, list):
        return [_strip(v) for v in payload]
    return payload


def canonical_result_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic byte form of a result payload.

    Sorted keys, compact separators, wall-clock / node-identity /
    telemetry keys stripped — two executions of the same
    :class:`JobSpec` serialise to *identical* bytes, which is what the
    dedup cache stores and what the chaos tests bit-compare against a
    serial replay.
    """
    return json.dumps(
        _strip(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


_job_sequence = itertools.count()


@dataclass
class FleetJob:
    """One admitted job: the spec plus its scheduling lifecycle.

    ``request_id`` equals ``job_id`` and is *stable across retry
    attempts*: a job reassigned to another worker after a worker death
    re-dispatches under the same id, so a generator node that already
    executed it serves its cached result instead of replaying
    (exactly-once execution on top of at-least-once dispatch).
    """

    job_id: str
    spec: JobSpec
    tenant: str
    priority: float = 0.0
    enqueue_tick: int = 0
    enqueue_seq: int = 0
    attempts: int = 0
    future: Any = None  # asyncio.Future, attached by the scheduler
    #: Distributed-tracing context (``trace_id``/``span_id`` dict) the
    #: *current attempt's* worker execution should parent its spans to.
    #: Set by the scheduler per dispatch; never fingerprinted — tracing
    #: must not change the dedup key.
    trace_context: Optional[Dict[str, Any]] = None
    #: Path of the flight-recorder dump taken when a worker died while
    #: holding this job (recorded into the job's ledger row).
    dump_path: str = ""

    @property
    def request_id(self) -> str:
        return self.job_id

    def effective_priority(self, tenant_priority: float,
                           aging_rate: float, tick: int) -> float:
        waited = max(0, tick - self.enqueue_tick)
        return tenant_priority + self.priority + aging_rate * waited


@dataclass(frozen=True)
class FleetResult:
    """What a submitter gets back: canonical bytes plus provenance."""

    job_id: str
    result_bytes: bytes
    cache_hit: bool
    attempts: int
    worker: str = ""

    @property
    def payload(self) -> Dict[str, Any]:
        return json.loads(self.result_bytes.decode("utf-8"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "result": self.payload,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "worker": self.worker,
        }

"""Replay captures: the frozen observable record a policy oracle consumes.

A :class:`ReplayCapture` is everything an *analytic* energy policy needs
to re-score a finished replay — per-member busy segments (exactly the
raw ``PowerTimeline`` segments the replay committed), per-request
response/finish times in completion-event order, and the integer
workload totals.  All three replay paths (event engine, per-point
kernel, fused grid) can produce one, and by the kernel contract the
arrays are bit-identical across paths for qualifying cells.  That is
what makes the policy post-pass an *oracle*: the same pure function
over the same bits yields the same metrics, no matter which engine
produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..trace.packed import pack
from ..trace.record import READ

__all__ = [
    "CompletionRecord",
    "MemberProfile",
    "ReplayCapture",
    "CaptureSink",
    "workload_totals",
]


@dataclass(frozen=True)
class CompletionRecord:
    """Each request's submit, start and finish instant in completion
    order, as the engine's completion hook saw them (``starts``: service
    start on a device, controller dispatch on an array).  Replay
    telemetry is recorded from it (:mod:`repro.replay.instruments`)."""

    submits: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray


@dataclass(frozen=True)
class MemberProfile:
    """One device's committed busy segments plus its baseline draw."""

    name: str
    starts: np.ndarray
    ends: np.ndarray
    watts: np.ndarray
    base_watts: float

    @property
    def busy_seconds(self) -> float:
        return float(np.sum(self.ends - self.starts))


@dataclass(frozen=True)
class ReplayCapture:
    """Frozen record of one replay, sufficient for policy re-scoring."""

    end: float
    finishes: np.ndarray
    responses: np.ndarray
    members: Tuple[MemberProfile, ...]
    #: Enclosure overhead watts for arrays; ``None`` for bare devices.
    overhead_watts: Optional[float]
    reads: int
    writes: int
    read_bytes: int
    write_bytes: int

    @property
    def completed(self) -> int:
        return int(self.finishes.shape[0])

    def arrivals(self) -> np.ndarray:
        """Request arrival instants, reconstructed identically on every
        path as ``finishes - responses`` (never from submit times)."""
        return self.finishes - self.responses


class CaptureSink:
    """Mutable receptacle a session fills with the run's capture.

    The event path streams completions into it via :meth:`observe`
    (a session with telemetry on keeps one for the completion record
    alone); every path calls :meth:`finish` once with the member
    snapshot.
    """

    def __init__(self) -> None:
        self.capture: Optional[ReplayCapture] = None
        self._submit: List[float] = []
        self._start: List[float] = []
        self._fin: List[float] = []

    def observe(self, completion) -> None:
        self._submit.append(completion.submit_time)
        self._start.append(completion.start_time)
        self._fin.append(completion.finish_time)

    def observed_record(self) -> CompletionRecord:
        return CompletionRecord(
            np.asarray(self._submit, dtype=np.float64),
            np.asarray(self._start, dtype=np.float64),
            np.asarray(self._fin, dtype=np.float64),
        )

    def finish(
        self,
        device,
        *,
        end: float,
        record: CompletionRecord,
        trace,
    ) -> ReplayCapture:
        members = snapshot_members(device)
        meter = getattr(device, "meter", None)
        overhead = float(meter.overhead_watts) if meter is not None else None
        reads, writes, read_bytes, write_bytes = workload_totals(trace)
        self.capture = ReplayCapture(
            end=float(end),
            finishes=record.finishes,
            responses=record.finishes - record.submits,
            members=members,
            overhead_watts=overhead,
            reads=reads,
            writes=writes,
            read_bytes=read_bytes,
            write_bytes=write_bytes,
        )
        return self.capture


def snapshot_members(device) -> Tuple[MemberProfile, ...]:
    """Copy each member's committed timeline out of ``device`` (copies,
    so later appends to the live columns cannot alias the capture)."""
    disks = getattr(device, "disks", None)
    members = list(disks) if disks is not None else [device]
    profiles = []
    for member in members:
        timeline = member.timeline
        starts, ends, watts = timeline.segments()
        profiles.append(
            MemberProfile(
                name=member.name,
                starts=starts,
                ends=ends,
                watts=watts,
                base_watts=float(timeline._base_watts[0]),
            )
        )
    return tuple(profiles)


def workload_totals(trace) -> Tuple[int, int, int, int]:
    """(reads, writes, read_bytes, write_bytes) of a replayed trace —
    every package completes, so these are the run's totals too."""
    packed = pack(trace)
    ops = packed.packages["op"]
    nbytes = packed.packages["nbytes"]
    is_read = ops == READ
    return (
        int(np.count_nonzero(is_read)),
        int(ops.shape[0] - np.count_nonzero(is_read)),
        int(nbytes[is_read].sum()),
        int(nbytes[~is_read].sum()),
    )

"""Remote evaluation host: dispatches tests to generator nodes over TCP.

Mirrors :class:`~repro.host.evaluation.EvaluationHost`'s test surface but
executes replays on remote generator nodes, recording each returned
summary as one ``remote:<node>`` row of a local run ledger (the paper's
host machine keeps the database; generators do the I/O).

Failure semantics: the underlying :class:`~repro.host.communicator.Communicator`
retries each request over a fresh connection with exponential backoff,
so transient connection drops are absorbed within the configured
attempt budget and anything worse surfaces as a clean
:class:`~repro.errors.ProtocolError`.  Every ``run_test`` dispatch
carries a unique ``request_id``, which the generator node uses to
deduplicate retried dispatches — a replay never runs twice because its
reply got lost on the wire.
"""

from __future__ import annotations

import itertools
import time as _time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..config import LOAD_LEVELS, ReplayConfig, TestRequest, WorkloadMode
from ..errors import ProtocolError
from ..host.communicator import Communicator, RetryPolicy
from ..host.ledger import RunLedger, record_test
from ..host.protocol import (
    Frame,
    KIND_ERROR,
    KIND_HELLO,
    KIND_LIST_TRACES,
    KIND_RUN_TEST,
    KIND_TEST_RESULT,
    KIND_TRACE_LIST,
)
from ..host.records import TestRecord

#: Callback for streamed interval frames: ``on_progress(frame_dict)``
#: receives each interval frame's wire dict, in order, at most once.
ProgressFn = Callable[[Dict], None]


class RemoteEvaluationHost:
    """Client-side evaluation host for one generator node.

    Construction connects and performs the HELLO handshake; if either
    step fails the socket is closed before the error propagates (no
    leaked connections from refused handshakes).
    """

    def __init__(
        self,
        host: str,
        port: int,
        clock: Callable[[], float] = _time.time,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        ledger: Optional[RunLedger] = None,
        frames_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.clock = clock
        self.ledger = ledger if ledger is not None else RunLedger()
        self.frames_dir = frames_dir
        self.node_id = "?"
        self.device_label = "?"
        self.comm: Optional[Communicator] = None
        self._client_id = uuid.uuid4().hex[:12]
        self._sequence = itertools.count()
        comm = self._connect(host, port, timeout, retry)
        try:
            self._handshake(comm)
        except BaseException:
            comm.close()
            raise
        self.comm = comm

    @staticmethod
    def _connect(
        host: str, port: int, timeout: float, retry: Optional[RetryPolicy]
    ) -> Communicator:
        """Dial the node (retried/bounded inside the communicator)."""
        return Communicator(host, port, timeout=timeout, retry=retry)

    def _handshake(self, comm: Communicator) -> None:
        """HELLO dialogue: learn the node's identity and device label."""
        reply = comm.request(Frame(KIND_HELLO, {}))
        if reply.kind == KIND_ERROR:
            raise ProtocolError(
                f"node refused hello: {reply.body.get('message')}"
            )
        self.node_id = reply.body.get("node_id", "?")
        self.device_label = reply.body.get("device", "?")

    def close(self) -> None:
        if self.comm is not None:
            self.comm.close()

    def __enter__(self) -> "RemoteEvaluationHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_comm(self) -> Communicator:
        if self.comm is None:
            raise ProtocolError("remote host is closed")
        return self.comm

    def list_traces(self) -> List[str]:
        reply = self._require_comm().request(Frame(KIND_LIST_TRACES, {}))
        if reply.kind != KIND_TRACE_LIST:
            raise ProtocolError(f"unexpected reply {reply.kind!r}")
        return list(reply.body.get("traces", []))

    def run_test(
        self,
        request: TestRequest,
        on_progress: Optional[ProgressFn] = None,
        stream_interval: Optional[float] = None,
    ) -> TestRecord:
        """Run one test remotely; record it as one ledger row and return it.

        The dispatch is tagged with a unique request id, so if the reply
        is lost and the communicator retries, the node returns the
        cached result of the first execution instead of replaying again.

        With ``stream_interval`` set, the node pushes one ``progress``
        frame per interval mid-replay; each interval frame's wire dict
        is handed to ``on_progress`` exactly once and in order (frames
        for other request ids, replays after a retried dispatch, and
        out-of-order duplicates are dropped by sequence number).
        """
        request_id = f"{self._client_id}-{next(self._sequence)}"
        body = self.run_test_raw(
            request,
            request_id=request_id,
            on_progress=on_progress,
            stream_interval=stream_interval,
        )
        # A telemetry snapshot or interval frames riding the wire in the
        # result metadata are kept with the row, as for a local test.
        return record_test(
            self.ledger,
            body,
            request,
            self.device_label,
            origin=f"remote:{self.node_id}",
            run_id=request_id,
            created=self.clock(),
            frames_dir=self.frames_dir,
        )

    def run_test_raw(
        self,
        request: TestRequest,
        request_id: Optional[str] = None,
        on_progress: Optional[ProgressFn] = None,
        stream_interval: Optional[float] = None,
        trace_context: Optional[Dict] = None,
    ) -> Dict:
        """Run one test remotely; return the raw result-wire body.

        Unlike :meth:`run_test` this does not touch the ledger — the
        caller owns persistence.  ``request_id``
        may be supplied by the caller (the fleet scheduler passes its
        job id so a job reassigned to a *new* connection against the
        same node is still served from the node's result cache instead
        of replaying); when omitted a fresh unique id is generated.
        ``trace_context`` (a ``repro.telemetry.dtrace`` context dict)
        rides the wire so the node's execution spans parent into the
        caller's distributed trace.
        """
        if request_id is None:
            request_id = f"{self._client_id}-{next(self._sequence)}"
        body_out: Dict = {
            "request": request.to_dict(),
            "request_id": request_id,
        }
        if trace_context is not None:
            body_out["trace_context"] = dict(trace_context)
        consume = None
        if stream_interval is not None and stream_interval > 0:
            body_out["stream"] = {
                "progress": on_progress is not None,
                "interval": float(stream_interval),
            }
            if on_progress is not None:
                seen_up_to = [-1]

                def consume(progress: Frame) -> None:
                    pbody = progress.body
                    if pbody.get("request_id") != request_id:
                        return
                    seq = pbody.get("seq")
                    frame = pbody.get("frame")
                    if not isinstance(seq, int) or not isinstance(frame, dict):
                        return
                    if seq <= seen_up_to[0]:
                        return
                    seen_up_to[0] = seq
                    emitted = pbody.get("emitted_at")
                    if emitted is not None:
                        # Surface the node's wall-clock emit time beside
                        # the sim-clock fields so watchers can compute
                        # replay lag (now - wall_emitted).  Injected
                        # host-side: the IntervalFrame dict schema
                        # itself stays golden-pinned.
                        frame = dict(frame)
                        frame["wall_emitted"] = float(emitted)
                    on_progress(frame)

        reply = self._require_comm().request(
            Frame(KIND_RUN_TEST, body_out), on_progress=consume
        )
        if reply.kind == KIND_ERROR:
            raise ProtocolError(f"remote test failed: {reply.body.get('message')}")
        if reply.kind != KIND_TEST_RESULT:
            raise ProtocolError(f"unexpected reply {reply.kind!r}")
        return dict(reply.body)

    def run_load_sweep(
        self,
        mode: WorkloadMode,
        levels: Sequence[float] = LOAD_LEVELS,
        replay: Optional[ReplayConfig] = None,
        label: str = "",
    ) -> List[TestRecord]:
        """Sweep load levels on the remote node."""
        records = []
        for level in levels:
            request = TestRequest(
                mode=mode.at_load(level),
                replay=replay if replay is not None else ReplayConfig(),
                label=label,
            )
            records.append(self.run_test(request))
        return records

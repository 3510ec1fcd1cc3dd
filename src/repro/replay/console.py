"""Live console view — the paper's GUI, as a terminal stream.

"The users are allowed to view real-time energy dissipation, I/O
throughput (IOPS and MBPS), and energy-efficiency values of a tested
storage system using the graphic user interface" (§III-B step 3).  The
:class:`LiveFrameRenderer` provides the headless equivalent: one line
per streamed interval frame with throughput, power, and the combined
efficiency metrics.

It is a view of the replay's record, never a reason to replay
differently: the event engine hands each frame over as it closes, the
analytical kernel hands over the same frames once the run is solved.
Wire it in via :class:`~repro.replay.session.ReplaySession`'s
``on_frame`` argument, ``tracer replay --live`` (one row per sampling
cycle unless ``--stream-interval`` says otherwise) or ``tracer watch``.
"""

from __future__ import annotations

import sys
import time as _time
from typing import Callable, Optional, TextIO

from ..metrics.efficiency import iops_per_watt, mbps_per_kilowatt


class LiveFrameRenderer:
    """Renders streamed interval frames, one line each.

    Consumes interval-frame wire dicts (what
    :meth:`~repro.distributed.host_node.RemoteEvaluationHost.run_test`
    hands its ``on_progress`` callback) or
    :class:`~repro.telemetry.stream.IntervalFrame` objects, printing one
    line per frame: throughput, response time, power, IOPS/W and
    MBPS/kW, queue depth, and the cumulative fault/degraded counters.
    Frame index 0 starts a run, so a renderer reused across runs prints
    one header per run.

    Frames that crossed the wire carry a ``wall_emitted`` timestamp
    (the node's wall clock at push time, injected host-side); when
    present a ``lag ms`` column shows how far behind the live replay
    each delivered frame is — queueing plus transit delay, the
    fleet-top view of streaming freshness.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = _time.time) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.clock = clock
        self._header_printed = False
        self._show_lag = False
        self.frames_rendered = 0
        self.last_lag_seconds: Optional[float] = None

    def _print_header(self) -> None:
        lag = f" {'lag ms':>7}" if self._show_lag else ""
        print(
            f"{'#':>4} {'t(s)':>8} {'IOPS':>9} {'MBPS':>8} {'resp ms':>8} "
            f"{'Watts':>8} {'IOPS/W':>7} {'MBPS/kW':>8} "
            f"{'qdepth':>6} {'faults':>6} {'degr':>5}" + lag,
            file=self.stream,
        )
        self._header_printed = True

    def on_frame(self, frame) -> None:
        """Render one interval frame (wire dict or IntervalFrame)."""
        if not isinstance(frame, dict):
            frame = frame.to_dict()
        if not self._header_printed or frame["index"] == 0:
            # Lag column appears only for wire frames that carry the
            # emit timestamp; decided at a run's first frame so local
            # replays keep the historical layout.
            self._show_lag = "wall_emitted" in frame
            self._print_header()
        duration = max(frame["end"] - frame["start"], 1e-12)
        completed = frame["completed"]
        iops = completed / duration
        mbps = (frame["total_bytes"] / 1e6) / duration
        resp = frame["response_sum"] / completed if completed else 0.0
        watts = frame["energy_joules"] / duration
        faults = sum(frame.get("faults", {}).values())
        line = (
            f"{frame['index']:>4} {frame['end']:>8.2f} {iops:>9.1f} "
            f"{mbps:>8.2f} {resp * 1000:>8.2f} {watts:>8.2f} "
            f"{iops_per_watt(iops, watts):>7.2f} "
            f"{mbps_per_kilowatt(mbps, watts):>8.1f} "
            f"{frame['queue_depth']:>6} {faults:>6} "
            f"{frame.get('degraded_requests', 0):>5}"
        )
        if self._show_lag and "wall_emitted" in frame:
            self.last_lag_seconds = max(
                0.0, self.clock() - float(frame["wall_emitted"])
            )
            line += f" {self.last_lag_seconds * 1000:>7.1f}"
        print(line, file=self.stream)
        self.frames_rendered += 1

"""Span-style tracing of the replay pipeline.

A span is one interval on the *simulation* clock attributed to a stage
of the pipeline: a bunch entering the calendar, a request waiting in a
device queue, media service, fault-injected delay.  Because spans carry
simulated times only, a seeded run reproduces its span log exactly.

The recorder is bounded: after ``max_spans`` entries only the drop
counter advances, so span tracing never turns a long replay into a
memory leak.  TraceTracker-style layer reconstruction (PAPERS.md) needs
the *shape* of where time goes, which the first few hundred spans plus
the exhaustive histograms provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default cap on retained span records per recorder.
DEFAULT_MAX_SPANS = 512

#: Span categories used by the built-in instrumentation, in pipeline
#: order.  Components may add their own; these names are the catalog
#: documented in docs/observability.md.
SPAN_DISPATCH = "replay.dispatch"
SPAN_QUEUE = "io.queue"
SPAN_SERVICE = "io.service"
SPAN_FAULT = "fault.delay"
SPAN_STAGE = "session.stage"


@dataclass(frozen=True)
class Span:
    """One attributed interval on the simulation clock."""

    category: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Bounded, append-only span log."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = int(max_spans)
        self._spans: List[Span] = []
        self.total_recorded = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def record(
        self,
        category: str,
        start: float,
        end: float,
        **attrs: Any,
    ) -> None:
        """Append one span; silently counts drops past the cap."""
        self.total_recorded += 1
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return
        self._spans.append(Span(category, float(start), float(end), attrs))

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def snapshot(self, since: int = 0) -> Dict[str, Any]:
        """JSON-safe view; ``since`` skips spans recorded before a mark.

        ``since`` counts *recorded* spans (including dropped ones), so a
        delta taken after the cap was reached reports only drop counts —
        deterministic either way.
        """
        retained_cursor = min(since, len(self._spans))
        spans = [s.to_dict() for s in self._spans[retained_cursor:]]
        return {
            "spans": spans,
            "total_recorded": self.total_recorded - since,
            "dropped": max(
                self.dropped - max(since - self.max_spans, 0), 0
            ),
        }

"""Comparable views of replay results whose telemetry may be on.

Every engine records the same replay instruments, once, at the end of
the run.  Two parts of a ``metadata["telemetry"]`` delta still depend
on more than the replay itself:

* the ``sim.*`` family profiles the event loop, so it exists only where
  the event engine (or a ``Simulator``) ran;
* the span log is capped process-wide, so the retained spans depend on
  what the registry held before the run, and a delta's histogram sum is
  the difference of two running sums, so its last bits do too.

These helpers drop ``sim.*`` and keep only the span count (and, for a
registry that was not fresh, the histogram counts without their sums),
so results compare across engines, grid cells, and
``TRACER_TELEMETRY`` settings.
"""

import json


def _without_sim(section: dict) -> dict:
    return {k: v for k, v in section.items() if not k.startswith("sim.")}


def telemetry_view(snapshot: dict, fresh: bool = True) -> dict:
    """Counters, gauges and histograms minus ``sim.*``, plus the number
    of spans the run recorded.  Unless the delta was taken from a
    ``fresh`` registry, histogram sums are left out."""
    histograms = _without_sim(snapshot["histograms"])
    if not fresh:
        histograms = {
            k: {f: v for f, v in h.items() if f != "sum"}
            for k, h in histograms.items()
        }
    return {
        "counters": _without_sim(snapshot["counters"]),
        "gauges": _without_sim(snapshot["gauges"]),
        "histograms": histograms,
        "spans_recorded": snapshot["spans"]["total_recorded"],
    }


def canon(result, engine_neutral: bool = False) -> str:
    """``result`` as sorted JSON with its telemetry as a non-fresh
    :func:`telemetry_view`; ``engine_neutral`` also drops the engine
    provenance keys."""
    payload = result.to_dict()
    metadata = dict(payload["metadata"])
    if engine_neutral:
        metadata = {
            k: v for k, v in metadata.items() if not k.startswith("engine")
        }
    if "telemetry" in metadata:
        metadata["telemetry"] = telemetry_view(
            metadata["telemetry"], fresh=False
        )
    payload["metadata"] = metadata
    return json.dumps(payload, sort_keys=True)

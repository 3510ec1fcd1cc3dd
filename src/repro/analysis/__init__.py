"""Analysis and reporting utilities.

Turning the framework's raw outputs into the artefacts an evaluation
actually ships:

* :mod:`~repro.analysis.profile` — workload characterisation of a trace
  (size/seek/arrival distributions, locality, hot regions) — the
  numbers one quotes when describing a trace, à la Table III;
* :mod:`~repro.analysis.export` — CSV export of test records and
  per-cycle series for external plotting;
* :mod:`~repro.analysis.report` — a markdown evaluation report straight
  from the run ledger's test records.
"""

from .profile import WorkloadProfile, profile_trace, format_profile
from .export import export_records_csv, export_cycles_csv
from .report import database_report
from .similarity import TraceSimilarity, compare_traces, format_similarity
from .headroom import HeadroomResult, find_headroom

__all__ = [
    "HeadroomResult",
    "find_headroom",
    "WorkloadProfile",
    "profile_trace",
    "format_profile",
    "export_records_csv",
    "export_cycles_csv",
    "database_report",
    "TraceSimilarity",
    "compare_traces",
    "format_similarity",
]

"""Markdown evaluation report from the run ledger's test records.

"The users are able to send queries to the database to access results
after the testing processes are done" (§III-A1) — this module is the
query that writes the whole story down: per device, per workload mode,
the load sweep with throughput / power / efficiency, plus cross-device
efficiency comparisons.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from ..host.ledger import RunLedger
from ..host.records import TestRecord
from .export import render_table

ModeKey = Tuple[int, float, float]


def _group_by_mode(records: List[TestRecord]) -> Dict[ModeKey, List[TestRecord]]:
    grouped: Dict[ModeKey, List[TestRecord]] = defaultdict(list)
    for rec in records:
        key = (
            rec.mode.request_size,
            rec.mode.random_ratio,
            rec.mode.read_ratio,
        )
        grouped[key].append(rec)
    for rows in grouped.values():
        rows.sort(key=lambda r: r.mode.load_proportion)
    return dict(grouped)


def _mode_heading(key: ModeKey) -> str:
    rs, rnd, rd = key
    return (
        f"request {rs} B · random {rnd * 100:.0f} % · read {rd * 100:.0f} %"
    )


def database_report(ledger: RunLedger, title: str = "TRACER evaluation") -> str:
    """Render every test in the ledger as a markdown report."""
    lines = [f"# {title}", ""]
    records = ledger.tests()
    devices = sorted({rec.device_label for rec in records})
    if not devices:
        lines.append("_No records._")
        return "\n".join(lines)

    lines.append(f"{len(records)} test records across "
                 f"{len(devices)} device(s): {', '.join(devices)}.")
    lines.append("")

    best: List[Tuple[float, str, str]] = []
    for device in devices:
        lines.append(f"## {device}")
        lines.append("")
        mine = [rec for rec in records if rec.device_label == device]
        for key, rows in sorted(_group_by_mode(mine).items()):
            lines.append(f"### {_mode_heading(key)}")
            lines.append("")
            lines.append(
                "| load % | IOPS | MBPS | resp (ms) | Watts | "
                "IOPS/W | MBPS/kW |"
            )
            lines.append("|---|---|---|---|---|---|---|")
            for rec in rows:
                lines.append(
                    f"| {rec.mode.load_proportion * 100:.0f} "
                    f"| {rec.iops:.1f} | {rec.mbps:.2f} "
                    f"| {rec.mean_response * 1000:.3f} "
                    f"| {rec.mean_watts:.2f} | {rec.iops_per_watt:.2f} "
                    f"| {rec.mbps_per_kilowatt:.1f} |"
                )
            lines.append("")
            full = [r for r in rows if abs(r.mode.load_proportion - 1.0) < 1e-9]
            if full:
                best.append(
                    (full[0].mbps_per_kilowatt, device, _mode_heading(key))
                )

    if best:
        best.sort(reverse=True)
        lines.append("## Efficiency ranking (full load, MBPS/kW)")
        lines.append("")
        lines.append("| rank | device | workload | MBPS/kW |")
        lines.append("|---|---|---|---|")
        for rank, (eff, device, heading) in enumerate(best, start=1):
            lines.append(f"| {rank} | {device} | {heading} | {eff:.1f} |")
        lines.append("")

    return "\n".join(lines)


def _search_row(rank: int, cell) -> List[str]:
    m = cell.metrics
    saving = m.energy_saving if m.energy_saving is not None else 0.0
    penalty = (
        m.response_penalty if m.response_penalty is not None else 0.0
    )
    return [
        str(rank),
        cell.key,
        f"{m.iops_per_watt:.3f}",
        f"{m.energy_joules:.3f}",
        f"{saving * 100:.1f}%",
        f"{m.mean_response * 1000:.3f}",
        f"{m.p99_response * 1000:.3f}",
        f"{penalty * 100:.1f}%",
    ]


SEARCH_HEADERS = (
    "rank", "cell", "IOPS/W", "energy J",
    "saving%", "resp ms", "p99 ms", "penalty%",
)


def search_report(
    outcome,
    title: str = "TRACER policy search",
    top: int = 10,
    deterministic: bool = False,
) -> str:
    """Ranked recommendation report for a policy search.

    Renders the :class:`~repro.search.SearchOutcome` as markdown: the
    IOPS/Watt ranking (the paper's headline efficiency metric), the
    exact Pareto frontier (energy vs. mean response), and a one-line
    recommendation.  ``deterministic=True`` omits engine provenance and
    wall-clock so the text is byte-identical across runs and telemetry
    settings — the form the golden tests pin.
    """
    lines = [f"# {title}", ""]
    n_dev, n_trace, n_load, n_scale, n_pol = outcome.shape
    lines.append(
        f"{outcome.base_cells} base cell(s) "
        f"({n_dev} device(s) × {n_trace} trace(s) × {n_load} load(s) × "
        f"{n_scale} time-scale(s)) × {n_pol} policies = "
        f"{len(outcome.cells)} scored cells."
    )
    lines.append("")
    if not deterministic:
        mix = ", ".join(
            f"{k}×{v}" for k, v in sorted(outcome.engines.items())
        )
        lines.append(
            f"Engine mix: {mix}; {outcome.fused_cells} cell(s) fused; "
            f"{outcome.elapsed_seconds:.2f} s."
        )
        lines.append("")

    ranked = outcome.ranked()
    shown = ranked[: max(0, top)]
    lines.append(f"## Efficiency ranking (IOPS/Watt, top {len(shown)})")
    lines.append("")
    lines.append(
        render_table(
            SEARCH_HEADERS,
            [_search_row(i, c) for i, c in enumerate(shown, start=1)],
        )
    )
    lines.append("")

    front = outcome.frontier()
    lines.append("## Pareto frontier (energy vs. mean response)")
    lines.append("")
    lines.append(
        render_table(
            ("cell", "energy J", "resp ms", "p99 ms", "IOPS/W"),
            [
                [
                    c.key,
                    f"{c.metrics.energy_joules:.3f}",
                    f"{c.metrics.mean_response * 1000:.3f}",
                    f"{c.metrics.p99_response * 1000:.3f}",
                    f"{c.metrics.iops_per_watt:.3f}",
                ]
                for c in front
            ],
        )
    )
    lines.append("")

    if ranked:
        best = ranked[0]
        m = best.metrics
        saving = (m.energy_saving or 0.0) * 100
        penalty = (m.response_penalty or 0.0) * 100
        lines.append("## Recommendation")
        lines.append("")
        lines.append(
            f"`{best.key}` delivers the best efficiency at "
            f"{m.iops_per_watt:.3f} IOPS/Watt "
            f"(energy saving {saving:.1f}%, "
            f"response penalty {penalty:.1f}% vs. always-on)."
        )
        lines.append("")

    return "\n".join(lines)

"""Golden regression suite: frozen policy-search artifacts.

Two fixed (trace × device × policy-set) search scenarios, each frozen
as the *deterministic* form of the outcome — the scored matrix, the
Pareto frontier, the IOPS/Watt ranking, and the ranked markdown report
byte for byte.  The deterministic form excludes engine provenance and
wall-clock, so the artifact is identical whether the base grid fused
through the kernel or fell back to per-point event replay; the
telemetry on/off test pins that instrumenting the search moves not a
byte.

Regenerate after an intentional model change with::

    pytest tests/golden --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.report import search_report
from repro.config import ReplayConfig
from repro.search import build_policies
from repro.storage.array import RaidLevel, build_hdd_raid5
from repro.trace.packed import pack
from repro.workload.cello import generate_cello_trace
from repro.workload.parallel import run_policy_search
from repro.workload.webserver import generate_webserver_trace

DATA_DIR = Path(__file__).resolve().parent / "data"

#: name -> (trace builder, disks, policy specs, loads, time-scales)
SEARCH_SCENARIOS = {
    "search_webserver_maid_drpm": (
        lambda: generate_webserver_trace(duration=3.0, seed=11),
        6,
        ["maid:idle_timeout=2", "drpm:step_timeout=1"],
        (0.5, 1.0),
        (1.0, 2.0),
    ),
    "search_cello_pdc_eraid": (
        lambda: generate_cello_trace(duration=3.0, seed=7),
        4,
        ["pdc:idle_timeout=1", "eraid:utilization_threshold=0.6"],
        (0.4, 1.0),
        (1.0,),
    ),
}


def _run_scenario(name: str):
    build, disks, specs, loads, scales = SEARCH_SCENARIOS[name]
    trace = pack(build())
    outcome = run_policy_search(
        {name: trace},
        {"hdd-raid0": lambda: build_hdd_raid5(disks, level=RaidLevel.RAID0)},
        build_policies(specs),
        loads=loads,
        time_scales=scales,
        config=ReplayConfig(sampling_cycle=0.5),
    )
    return {
        "outcome": outcome.to_dict(deterministic=True),
        "report": search_report(
            outcome, title=f"golden search — {name}", deterministic=True
        ),
    }


def _golden_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(SEARCH_SCENARIOS))
def test_golden_search(name, update_golden):
    got = _run_scenario(name)
    path = _golden_path(name)
    if update_golden:
        DATA_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"{path} missing — run `pytest tests/golden --update-golden`"
        )
    want = json.loads(path.read_text())
    assert got["report"] == want["report"]
    assert got["outcome"] == want["outcome"]


def test_search_artifact_byte_identical_telemetry_on_off():
    """Instrumentation observes the same fused replays; the
    deterministic artifact must not change by a single byte."""
    from repro.telemetry import enabled_telemetry

    name = "search_webserver_maid_drpm"
    plain = json.dumps(_run_scenario(name), indent=2, sort_keys=True)
    with enabled_telemetry():
        instrumented = json.dumps(
            _run_scenario(name), indent=2, sort_keys=True
        )
    assert instrumented == plain

"""Golden regression suite: frozen numbers for the paper's scenarios.

Each scenario is a miniature, fully seeded version of one figure or
table from the paper (the shape tests in ``tests/integration`` pin the
*directions*; these pin the *exact values*).  Results are compared
bit-for-bit against JSON files under ``tests/golden/data/`` — floats
round-trip exactly through ``json``, so ``==`` on the decoded structures
is an exact comparison and any numeric drift, however small, fails.

Regenerate after an intentional model change with::

    pytest tests/golden --update-golden

and review the diff of ``tests/golden/data/`` like any other code change.

The scenarios deliberately freeze only simulation-clock outputs (never
wall-clock, never telemetry metadata), so they pass identically with
``TRACER_TELEMETRY=1`` — CI runs them both ways.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.config import ReplayConfig, WorkloadMode
from repro.replay.session import replay_trace
from repro.storage.array import build_hdd_raid5, build_ssd_raid5
from repro.storage.hdd import HardDiskDrive
from repro.trace.stats import compute_stats
from repro.workload.cello import generate_cello_trace
from repro.workload.matrix import collect_trace
from repro.workload.webserver import generate_webserver_trace

DATA_DIR = Path(__file__).resolve().parent / "data"


def _result_fields(result) -> dict:
    """The frozen scalar outputs of one replay (JSON-exact floats)."""
    return {
        "duration": float(result.duration),
        "completed": int(result.completed),
        "total_bytes": int(result.total_bytes),
        "iops": float(result.iops),
        "mbps": float(result.mbps),
        "mean_response": float(result.mean_response),
        "mean_watts": float(result.mean_watts),
        "energy_joules": float(result.energy_joules),
        "iops_per_watt": float(result.iops_per_watt),
        "mbps_per_kilowatt": float(result.mbps_per_kilowatt),
    }


def _stats_fields(stats) -> dict:
    return {
        "bunch_count": int(stats.bunch_count),
        "package_count": int(stats.package_count),
        "duration": float(stats.duration),
        "total_bytes": int(stats.total_bytes),
        "read_ratio": float(stats.read_ratio),
        "random_ratio": float(stats.random_ratio),
        "mean_request_kib": float(stats.mean_request_kib),
        "iops": float(stats.iops),
        "mbps": float(stats.mbps),
    }


def _measure(rs, rnd, rd, device="hdd", duration=0.6, load=1.0, seed=17):
    factory = (
        (lambda: build_hdd_raid5(6))
        if device == "hdd"
        else (lambda: build_ssd_raid5(4))
    )
    mode = WorkloadMode(request_size=rs, random_ratio=rnd, read_ratio=rd)
    trace = collect_trace(factory, mode, duration, seed=seed)
    return replay_trace(trace, factory(), load)


# -- Scenarios --------------------------------------------------------------


def fig7_idle_power() -> dict:
    """Idle power vs member count (Fig. 7's flat left edge)."""
    from repro.storage.array import DiskArray
    from repro.storage.raid import RaidLevel

    powers = {}
    for n in (3, 4, 6, 8):
        disks = [HardDiskDrive(f"d{i}") for i in range(n)]
        powers[str(n)] = float(
            DiskArray(disks, level=RaidLevel.RAID5).idle_watts
        )
    return {"idle_watts_by_disks": powers}


def fig8_load_accuracy() -> dict:
    """Proportional-filter accuracy at three load levels (Fig. 8)."""
    factory = lambda: build_hdd_raid5(6)
    mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
    trace = collect_trace(factory, mode, 1.2, seed=23)
    full = replay_trace(trace, factory(), 1.0)
    out = {"full": _result_fields(full)}
    for level in (0.2, 0.5, 0.8):
        part = replay_trace(trace, factory(), level)
        out[f"load_{int(level * 100)}"] = _result_fields(part)
    return out


def fig9_load_efficiency() -> dict:
    """Energy efficiency rising with load proportion (Fig. 9)."""
    return {
        f"load_{int(lp * 100)}": _result_fields(
            _measure(4096, 0.25, 0.25, load=lp)
        )
        for lp in (0.2, 0.6, 1.0)
    }


def fig10_random_ratio() -> dict:
    """Efficiency falling with random ratio (Fig. 10)."""
    return {
        f"random_{int(rnd * 100)}": _result_fields(
            _measure(16384, rnd, 0.0)
        )
        for rnd in (0.0, 0.5, 1.0)
    }


def fig11_read_ratio() -> dict:
    """Throughput vs read ratio at sequential access (Fig. 11)."""
    return {
        f"read_{int(rd * 100)}": _result_fields(_measure(16384, 0.0, rd))
        for rd in (0.0, 0.5, 1.0)
    }


def fig12_webserver_filtered() -> dict:
    """Filtered replay of the synthetic webserver trace (Fig. 12)."""
    trace = generate_webserver_trace(duration=4.0, seed=41)
    out = {"stats": _stats_fields(compute_stats(trace))}
    for level in (0.5, 1.0):
        result = replay_trace(
            trace,
            build_hdd_raid5(6),
            level,
            config=ReplayConfig(sampling_cycle=0.5),
        )
        out[f"load_{int(level * 100)}"] = _result_fields(result)
    return out


def table3_webserver_stats() -> dict:
    """Table III-style characteristics of the webserver workload."""
    trace = generate_webserver_trace(duration=6.0, seed=5)
    return {"stats": _stats_fields(compute_stats(trace))}


def table5_cello() -> dict:
    """Cello-like trace characteristics and replay (Table V)."""
    trace = generate_cello_trace(duration=5.0, seed=29)
    result = replay_trace(trace, build_hdd_raid5(6), 1.0)
    return {
        "stats": _stats_fields(compute_stats(trace)),
        "replay": _result_fields(result),
    }


def raid5_write_engines() -> dict:
    """Write-heavy RAID-5 under both engines: cello-style RMW mix and
    full-stripe-aligned writes (PR 10's two-phase kernel path).

    The frozen numbers are engine-independent by the kernel's
    bit-identity contract; the scenario additionally asserts that the
    auto engine fused with zero ``engine_fallback``.
    """
    from repro.storage.raid import RaidLevel
    from repro.trace.packed import pack
    from repro.trace.record import WRITE, Bunch, IOPackage, Trace

    factory = lambda: build_hdd_raid5(6)
    geom = factory().geometry
    stripe_bytes = (geom.n_disks - 1) * geom.strip_bytes
    stripe_sectors = stripe_bytes // 512
    full_stripe = Trace(
        [
            Bunch(
                i / 32,
                [IOPackage(i * stripe_sectors, stripe_bytes, WRITE)],
            )
            for i in range(12)
        ],
        label="full-stripe",
    )
    cello = generate_cello_trace(duration=3.0, seed=31)
    out = {}
    for key, trace in (("cello_rmw", cello), ("full_stripe", full_stripe)):
        packed = pack(trace)
        event = replay_trace(packed, factory(), 1.0, engine="event")
        auto = replay_trace(packed, factory(), 1.0, engine="auto")
        assert auto.metadata["engine"] == "kernel", auto.metadata
        assert "engine_fallback" not in auto.metadata
        fields = _result_fields(auto)
        assert fields == _result_fields(event)
        out[key] = fields
    return out


SCENARIOS = {
    "fig7_idle_power": fig7_idle_power,
    "raid5_write_engines": raid5_write_engines,
    "fig8_load_accuracy": fig8_load_accuracy,
    "fig9_load_efficiency": fig9_load_efficiency,
    "fig10_random_ratio": fig10_random_ratio,
    "fig11_read_ratio": fig11_read_ratio,
    "fig12_webserver_filtered": fig12_webserver_filtered,
    "table3_webserver_stats": table3_webserver_stats,
    "table5_cello": table5_cello,
}


def _golden_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario(name, update_golden):
    got = SCENARIOS[name]()
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
    assert got == want, (
        f"{name} drifted from its golden file; if the change is "
        "intentional, regenerate with --update-golden and review the diff"
    )


# -- Sensitivity meta-test ---------------------------------------------------


def _float_paths(obj, prefix=()):
    """Every (path, value) of a finite float leaf in a JSON structure."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _float_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _float_paths(value, prefix + (i,))
    elif isinstance(obj, float) and math.isfinite(obj):
        yield prefix, obj


def _apply(obj, path, value):
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_ulp_perturbation_is_detected(name):
    """The golden comparison is exact: one ULP on any frozen float fails.

    This is what distinguishes the suite from tolerance-based checks —
    it guards against silently 'close enough' numeric drift.
    """
    path = _golden_path(name)
    if not path.exists():
        pytest.fail(
            f"{path} missing — run `pytest tests/golden --update-golden`"
        )
    want = json.loads(path.read_text())
    paths = list(_float_paths(want))
    assert paths, f"{name} froze no float fields"
    # Deterministically seeded choice of which field to perturb.
    from repro.rng import derive_seed, make_rng

    rng = make_rng(derive_seed(0, "golden-ulp", name))
    for idx in rng.permutation(len(paths))[: min(len(paths), 5)]:
        field_path, value = paths[int(idx)]
        perturbed = copy.deepcopy(want)
        _apply(perturbed, field_path, math.nextafter(value, math.inf))
        assert perturbed != want, f"perturbing {field_path} went unnoticed"

"""Structural zero-overhead guarantees of the disabled telemetry path.

No wall-clock budget is asserted anywhere; these tests pin the
*mechanism* that makes the disabled path free: instrumentation is a
construction-time gate that shadows methods via instance attributes, so
a component built with telemetry disabled runs the exact class bytecode
of an uninstrumented build — not even a flag check sits on the hot
path.  Replay results must agree with the gate on and off.
"""

import pytest

from repro.replay.engine import ReplayEngine
from repro.replay.monitor import PerformanceMonitor
from repro.replay.session import replay_trace
from repro.sim.engine import Simulator
from repro.storage.array import build_hdd_raid5
from repro.storage.hdd import HardDiskDrive
from repro.telemetry import enabled_telemetry, get_registry, set_enabled


@pytest.fixture
def forced(request):
    """Parametrized construction-time flag, restored afterwards."""
    prior = get_registry().enabled
    set_enabled(request.param)
    yield request.param
    set_enabled(prior)


def _build_pipeline(small_trace):
    sim = Simulator()
    array = build_hdd_raid5(4)
    array.attach(sim)
    engine = ReplayEngine(sim, small_trace, array)
    return sim, array, engine


# The methods that carry instrumented variants, per component.
SHADOWED = {
    "sim": ("step",),
    "disk": ("_finish",),
    "array": ("_plan",),
    "engine": ("_dispatch_bunch", "_dispatch_packed", "_on_done"),
}


@pytest.mark.parametrize("forced", [False], indirect=True)
class TestDisabledPathIsStructurallyClean:
    def test_no_method_shadowing_when_disabled(self, forced, small_trace):
        sim, array, engine = _build_pipeline(small_trace)
        for name in SHADOWED["sim"]:
            assert name not in sim.__dict__
        for disk in array.disks:
            for name in SHADOWED["disk"]:
                assert name not in disk.__dict__
        for name in SHADOWED["array"]:
            assert name not in array.__dict__
        for name in SHADOWED["engine"]:
            assert name not in engine.__dict__

    def test_guarded_components_carry_none_sentinel(self, forced):
        # Off the packed hot path the gate is a stored None (one
        # attribute load per rare event), never a registry lookup.
        monitor = PerformanceMonitor(sampling_cycle=1.0)
        assert monitor._tele is None
        disk = HardDiskDrive("d0")
        assert "_finish" not in disk.__dict__

    def test_registry_untouched_by_disabled_replay(self, forced, small_trace):
        reg = get_registry()
        before = reg.snapshot(include_timers=True)
        result = replay_trace(small_trace, build_hdd_raid5(4), 1.0)
        assert result.completed > 0
        assert "telemetry" not in result.metadata
        assert reg.snapshot(include_timers=True) == before


@pytest.mark.parametrize("forced", [True], indirect=True)
class TestEnabledPathInstalls:
    def test_methods_shadowed_when_enabled(self, forced, small_trace):
        sim, array, engine = _build_pipeline(small_trace)
        for name in SHADOWED["sim"]:
            assert name in sim.__dict__
        for disk in array.disks:
            for name in SHADOWED["disk"]:
                assert name in disk.__dict__
        for name in SHADOWED["array"]:
            assert name in array.__dict__
        for name in SHADOWED["engine"]:
            assert name in engine.__dict__

    def test_shadow_points_at_instrumented_variant(self, forced, small_trace):
        sim, _, engine = _build_pipeline(small_trace)
        assert sim.step.__func__ is Simulator._step_instrumented
        assert (
            engine._on_done.__func__ is ReplayEngine._on_done_instrumented
        )


class TestGateIsPerConstruction:
    def test_objects_keep_their_construction_decision(self, small_trace):
        prior = get_registry().enabled
        try:
            set_enabled(False)
            cold = Simulator()
            set_enabled(True)
            hot = Simulator()
        finally:
            set_enabled(prior)
        assert "step" not in cold.__dict__
        assert "step" in hot.__dict__

    def test_replay_results_agree_across_gate(self, small_trace):
        import json

        def run():
            result = replay_trace(small_trace, build_hdd_raid5(4), 1.0)
            d = result.to_dict()
            md = d.get("metadata", {})
            md.pop("telemetry", None)
            # Engine provenance differs by design: the analytical kernel
            # defers to the event engine while instrumentation is on.
            md.pop("engine", None)
            md.pop("engine_fallback", None)
            return json.dumps(d, sort_keys=True)

        prior = get_registry().enabled
        try:
            set_enabled(False)
            off = run()
        finally:
            set_enabled(prior)
        with enabled_telemetry():
            on = run()
        assert off == on

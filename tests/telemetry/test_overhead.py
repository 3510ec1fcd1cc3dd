"""Structural zero-overhead guarantees of the disabled telemetry path.

No wall-clock budget is asserted anywhere; these tests pin the
*mechanism* that makes the disabled path free.  Replay instruments are
recorded once, after the replay, so no replay component carries a
telemetry twin; the one remaining construction-time gate is the
simulator's profiled ``step``, which shadows the class method via an
instance attribute only when enabled.  Replay results — engine choice
included — must agree with the gate on and off.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.power.meter import MultiChannelMeter
from repro.replay.engine import ReplayEngine
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
}

# Replay-path methods no gate may shadow: replay telemetry is recorded
# after the run, never by a hot-path variant.
UNSHADOWED = {
    "disk": ("_finish",),
    "engine": ("_dispatch_packed", "_dispatch_rows", "_on_done"),
}


def _assert_replay_path_unshadowed(array, engine):
    for disk in array.disks:
        for name in UNSHADOWED["disk"]:
            assert name not in disk.__dict__
    for name in UNSHADOWED["engine"]:
        assert name not in engine.__dict__


@pytest.mark.parametrize("forced", [False], indirect=True)
class TestDisabledPathIsStructurallyClean:
    def test_no_method_shadowing_when_disabled(self, forced, small_trace):
        sim, array, engine = _build_pipeline(small_trace)
        for name in SHADOWED["sim"]:
            assert name not in sim.__dict__
        _assert_replay_path_unshadowed(array, engine)

    def test_guarded_components_carry_none_sentinel(self, forced):
        # Off the packed hot path the gate is a stored None (one
        # attribute load per rare event), never a registry lookup.
        injector = FaultInjector(HardDiskDrive("d0"), FaultSchedule())
        assert injector._tele is None
        assert MultiChannelMeter()._tele is None

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
        _assert_replay_path_unshadowed(array, engine)

    def test_shadow_points_at_instrumented_variant(self, forced, small_trace):
        sim, _, _ = _build_pipeline(small_trace)
        assert sim.step.__func__ is Simulator._step_instrumented


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

        from repro.trace.packed import pack

        def run():
            # The object trace replays on the event engine and the
            # packed one on the kernel, with telemetry on or off.
            out = []
            for trace in (small_trace, pack(small_trace)):
                result = replay_trace(trace, build_hdd_raid5(4), 1.0)
                d = result.to_dict()
                d.get("metadata", {}).pop("telemetry", None)
                out.append(json.dumps(d, sort_keys=True))
            return out

        prior = get_registry().enabled
        try:
            set_enabled(False)
            off = run()
        finally:
            set_enabled(prior)
        with enabled_telemetry():
            on = run()
        assert off == on

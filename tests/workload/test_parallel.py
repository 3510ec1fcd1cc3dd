"""Parallel matrix builder and sweep runner tests.

``device_factory`` and sweep workers must be picklable, hence the
module-level functions.
"""

import pytest

from repro.rng import derive_seed
from repro.storage.array import build_hdd_raid5
from repro.workload.matrix import build_matrix, matrix_modes
from repro.workload.parallel import build_matrix_parallel, run_sweep


def hdd_factory():
    return build_hdd_raid5(6)


def echo_worker(point, seed):
    return (point, seed)


MODES = matrix_modes(
    request_sizes=[4096, 65536],
    read_ratios=[0.0, 1.0],
    random_ratios=[0.5],
)


class TestParallelBuild:
    def test_builds_all_cells(self, repo):
        results = build_matrix_parallel(
            hdd_factory, repo, "hdd-raid5",
            duration=0.2, modes=MODES, max_workers=2,
        )
        assert len(results) == 4
        assert len(repo) == 4

    def test_identical_to_serial(self, repo, tmp_path):
        from repro.trace.repository import TraceRepository

        serial_repo = TraceRepository(tmp_path / "serial")
        build_matrix(
            hdd_factory, serial_repo, "hdd-raid5",
            duration=0.2, modes=MODES,
        )
        build_matrix_parallel(
            hdd_factory, repo, "hdd-raid5",
            duration=0.2, modes=MODES, max_workers=2,
        )
        for name in serial_repo.names():
            assert repo.load(name) == serial_repo.load(name)

    def test_skips_existing(self, repo):
        first = build_matrix_parallel(
            hdd_factory, repo, "hdd-raid5",
            duration=0.2, modes=MODES[:1], max_workers=2,
        )
        second = build_matrix_parallel(
            hdd_factory, repo, "hdd-raid5",
            duration=0.2, modes=MODES[:1], max_workers=2,
        )
        assert first == second
        assert len(repo) == 1


class TestRunSweep:
    def test_parallel_identical_to_serial(self):
        points = list(range(8))
        parallel = run_sweep(echo_worker, points, max_workers=2)
        serial = run_sweep(echo_worker, points, parallel=False)
        assert parallel == serial

    def test_results_in_point_order(self):
        points = ["a", "b", "c", "d"]
        results = run_sweep(echo_worker, points, max_workers=2)
        assert [r[0] for r in results] == points

    def test_seeds_derive_from_labels_not_position(self):
        """Two sweeps sharing a labelled point must hand it the same
        seed even when the point sits at different positions — seeds are
        point-identity, never scheduling- or worker-identity."""
        first = run_sweep(
            echo_worker, ["x", "y"], labels=["px", "py"], parallel=False
        )
        second = run_sweep(
            echo_worker, ["z", "y"], labels=["pz", "py"], parallel=False
        )
        assert first[1][1] == second[1][1]
        assert first[0][1] != second[0][1]

    def test_default_seeds_are_positional(self):
        from repro.rng import DEFAULT_SEED

        results = run_sweep(echo_worker, ["a", "b"], parallel=False)
        expected = [
            derive_seed(DEFAULT_SEED, "sweep", "0"),
            derive_seed(DEFAULT_SEED, "sweep", "1"),
        ]
        assert [seed for _, seed in results] == expected

    def test_base_seed_changes_all_seeds(self):
        a = run_sweep(echo_worker, [0], base_seed=1, parallel=False)
        b = run_sweep(echo_worker, [0], base_seed=2, parallel=False)
        assert a[0][1] != b[0][1]

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(echo_worker, [1, 2], labels=["only-one"], parallel=False)

    def test_empty_sweep(self):
        assert run_sweep(echo_worker, []) == []


# ---------------------------------------------------------------------------
# Zero-copy shared-memory trace publication


def _shm_trace():
    from repro.trace.packed import pack
    from repro.trace.record import READ, WRITE, Bunch, IOPackage, Trace

    bunches = [
        Bunch(
            i / 64,
            [
                IOPackage(1024 * i + j, 4096, READ if j % 2 else WRITE)
                for j in range(3)
            ],
        )
        for i in range(16)
    ]
    return pack(Trace(bunches, label="shm-test"))


def shm_replay_worker(point, seed):
    import json

    from repro.replay.session import replay_trace
    from repro.workload.parallel import get_shared_trace

    _device, load = point
    result = replay_trace(get_shared_trace(), build_hdd_raid5(4), load)
    return json.dumps(result.to_dict(), sort_keys=True)


def shm_hash_worker(point, seed):
    import hashlib

    from repro.workload.parallel import get_shared_trace

    trace = get_shared_trace()
    h = hashlib.sha256()
    for col in (trace.timestamps, trace.offsets, trace.packages):
        h.update(col.tobytes())
    return h.hexdigest()


class TestSharedMemorySweep:
    POINTS = [("hdd", 0.5), ("hdd", 1.0)]

    def test_parallel_byte_identical_to_serial(self):
        trace = _shm_trace()
        parallel = run_sweep(
            shm_replay_worker, self.POINTS, max_workers=2,
            shared_trace=trace,
        )
        serial = run_sweep(
            shm_replay_worker, self.POINTS, parallel=False,
            shared_trace=trace,
        )
        assert parallel == serial

    def test_workers_see_the_exact_column_bytes(self):
        import hashlib

        trace = _shm_trace()
        h = hashlib.sha256()
        for col in (trace.timestamps, trace.offsets, trace.packages):
            h.update(col.tobytes())
        hashes = run_sweep(
            shm_hash_worker, self.POINTS, max_workers=2,
            shared_trace=trace,
        )
        assert hashes == [h.hexdigest()] * len(self.POINTS)

    def test_trace_columns_never_pickled(self, monkeypatch):
        """Acceptance gate: the zero-copy path must not serialise the
        trace.  Pickling is booby-trapped in the parent; forked workers
        inherit the trap, so any column crossing a pipe would raise."""
        import pickle

        from repro.trace.packed import PackedTrace

        def _no_pickle(self, *args, **kwargs):
            raise AssertionError("PackedTrace must not be pickled")

        monkeypatch.setattr(PackedTrace, "__reduce_ex__", _no_pickle)
        trace = _shm_trace()
        with pytest.raises(AssertionError):
            pickle.dumps(trace)  # the trap is armed
        results = run_sweep(
            shm_replay_worker, self.POINTS, max_workers=2,
            shared_trace=trace,
        )
        assert len(results) == len(self.POINTS)

    def test_get_shared_trace_requires_publication(self):
        from repro.workload.parallel import get_shared_trace

        with pytest.raises(RuntimeError, match="shared_trace"):
            get_shared_trace()

    def test_serial_mode_restores_prior_publication(self):
        import repro.workload.parallel as par

        outer, inner = _shm_trace(), _shm_trace()
        par._SHARED_TRACE = outer
        try:
            run_sweep(
                shm_hash_worker, self.POINTS[:1], parallel=False,
                shared_trace=inner,
            )
            assert par._SHARED_TRACE is outer
        finally:
            par._SHARED_TRACE = None

    def test_publication_unlinks_on_exit(self):
        from multiprocessing import shared_memory

        from repro.trace.shm import SharedTracePublication

        with SharedTracePublication(_shm_trace()) as pub:
            name = pub.descriptor["columns"]["timestamps"]["name"]
            probe = shared_memory.SharedMemory(name=name)
            probe.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# Kernel-aware scheduling and the grid front-end


def _packed_read_trace(n=16):
    from repro.trace.packed import pack
    from repro.trace.record import READ, Bunch, IOPackage, Trace

    bunches = [
        Bunch(i / 64, [IOPackage(1024 * i, 4096, READ)]) for i in range(n)
    ]
    return pack(Trace(bunches, label="grid-front"))


def _packed_write_trace(n=16):
    from repro.trace.packed import pack
    from repro.trace.record import WRITE, Bunch, IOPackage, Trace

    bunches = [
        Bunch(i / 64, [IOPackage(1024 * i, 4096, WRITE)]) for i in range(n)
    ]
    return pack(Trace(bunches, label="grid-front-w"))


class TestKernelAwareScheduling:
    def test_kernel_eligible_points_stay_in_process(self, monkeypatch):
        from repro.workload.parallel import _use_pool

        assert _use_pool("auto", 100, kernel_eligible=True) is False
        # Explicit booleans always win over the probe verdict.
        assert _use_pool(True, 2, kernel_eligible=True) is True
        assert _use_pool(False, 100, kernel_eligible=False) is False

        # run_sweep itself consults the verdict: a pool would raise.
        def no_pool(*args, **kwargs):
            raise AssertionError("kernel-eligible sweep forked a pool")

        monkeypatch.setattr(
            "repro.workload.parallel.ProcessPoolExecutor", no_pool
        )
        points = list(range(8))
        assert run_sweep(
            echo_worker, points, parallel="auto", kernel_eligible=True
        ) == run_sweep(echo_worker, points, parallel=False)

    def test_probe_accepts_kernel_qualifying_sweep(self):
        from repro.workload.parallel import kernel_sweep_eligible

        assert kernel_sweep_eligible(_packed_read_trace(), hdd_factory)

    def test_probe_rejects_object_trace_accepts_parity_writes(self):
        from repro.trace.record import READ, Bunch, IOPackage, Trace
        from repro.workload.parallel import kernel_sweep_eligible

        obj = Trace(
            [Bunch(0.0, [IOPackage(0, 4096, READ)])], label="obj"
        )
        assert not kernel_sweep_eligible(obj, hdd_factory)
        # RAID-5 parity writes plan as two-phase RMW flights and
        # qualify for the kernel; degraded arrays stay event-driven.
        assert kernel_sweep_eligible(_packed_write_trace(), hdd_factory)

        def degraded_factory():
            device = hdd_factory()
            device.fail_disk(0)
            return device

        assert not kernel_sweep_eligible(
            _packed_write_trace(), degraded_factory
        )

    def test_probe_accepts_under_telemetry(self):
        """Telemetry does not choose the engine, so it does not change
        the probe's verdict either."""
        from repro.telemetry import enabled_telemetry
        from repro.workload.parallel import kernel_sweep_eligible

        with enabled_telemetry():
            assert kernel_sweep_eligible(_packed_read_trace(), hdd_factory)

    def test_probe_never_raises(self):
        from repro.workload.parallel import kernel_sweep_eligible

        def broken_factory():
            raise RuntimeError("no device for you")

        assert not kernel_sweep_eligible(_packed_read_trace(), broken_factory)

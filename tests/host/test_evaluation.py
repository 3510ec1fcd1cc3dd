"""Evaluation host end-to-end tests (the §III-B procedure)."""

import pytest

from repro.config import ReplayConfig, TestRequest, WorkloadMode
from repro.errors import RepositoryError
from repro.host.evaluation import EvaluationHost
from repro.storage.array import build_hdd_raid5


@pytest.fixture
def host(repo):
    clock = iter(float(i) for i in range(1000))
    return EvaluationHost(
        device_factory=lambda: build_hdd_raid5(6),
        device_label="hdd-raid5",
        repository=repo,
        clock=lambda: next(clock),
    )


MODE = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)


class TestBuildRepository:
    def test_collects_requested_modes(self, host):
        count = host.build_repository(modes=[MODE], duration=0.3)
        assert count == 1
        name = host.repository.lookup("hdd-raid5", MODE)
        assert len(host.repository.load(name)) > 0

    def test_idempotent(self, host):
        host.build_repository(modes=[MODE], duration=0.3)
        count = host.build_repository(modes=[MODE], duration=0.3)
        assert count == 1


class TestRunTest:
    def test_stores_record(self, host):
        host.build_repository(modes=[MODE], duration=0.3)
        request = TestRequest(mode=MODE.at_load(0.5), label="demo")
        record = host.run_test(request)
        assert record.iops > 0
        assert record.mean_watts > 90
        assert host.ledger.count() == 1
        stored = host.ledger.tests(load_proportion=0.5)
        assert stored[0].label == "demo"

    def test_missing_trace_raises(self, host):
        request = TestRequest(mode=MODE.at_load(0.5))
        with pytest.raises(RepositoryError):
            host.run_test(request)

    def test_explicit_trace_bypasses_repository(self, host, collected_trace):
        request = TestRequest(mode=MODE.at_load(0.5))
        record = host.run_test(request, trace=collected_trace)
        assert record.iops > 0


class TestLoadSweep:
    def test_sweep_stores_all_levels(self, host, collected_trace):
        levels = (0.2, 0.6, 1.0)
        records = host.run_load_sweep(
            MODE, levels=levels, trace=collected_trace, label="sweep"
        )
        assert len(records) == 3
        assert host.ledger.count() == 3
        iops = [r.iops for r in records]
        assert iops == sorted(iops)  # monotone in load

    def test_sweep_uses_repository_when_no_trace(self, host):
        host.build_repository(modes=[MODE], duration=0.3)
        records = host.run_load_sweep(MODE, levels=(0.5, 1.0))
        assert len(records) == 2

    def test_query_helper(self, host, collected_trace):
        host.run_load_sweep(MODE, levels=(0.5,), trace=collected_trace)
        rows = host.query(load_proportion=0.5)
        assert len(rows) == 1
        assert rows[0].device_label == "hdd-raid5"


class TestMatrixEvaluation:
    def test_small_grid(self, host):
        modes = [
            MODE,
            WorkloadMode(request_size=65536, random_ratio=0.0, read_ratio=1.0),
        ]
        progress = []
        count = host.run_matrix_evaluation(
            modes=modes,
            levels=(0.5, 1.0),
            collect_duration=0.3,
            label="grid",
            progress=lambda done, total: progress.append((done, total)),
        )
        assert count == 4
        assert host.ledger.count() == 4
        assert progress == [(1, 4), (2, 4), (3, 4), (4, 4)]
        # Every (mode, level) cell queryable.
        for mode in modes:
            for level in (0.5, 1.0):
                rows = host.query(
                    request_size=mode.request_size, load_proportion=level
                )
                assert len(rows) == 1

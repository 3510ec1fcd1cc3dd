"""Distributed generator/host node tests (loopback TCP)."""

import pytest

from repro.config import ReplayConfig, TestRequest, WorkloadMode
from repro.errors import ProtocolError
from repro.distributed.generator_node import GeneratorNode
from repro.distributed.host_node import RemoteEvaluationHost
from repro.storage.array import build_hdd_raid5
from repro.trace.repository import TraceName

MODE = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)


@pytest.fixture
def node(repo, collected_trace):
    repo.store(
        TraceName("hdd-raid5", MODE.request_size, MODE.random_ratio, MODE.read_ratio),
        collected_trace,
    )
    with GeneratorNode(
        lambda: build_hdd_raid5(6), "hdd-raid5", repo, node_id="gen-1"
    ) as node:
        yield node


class TestRemoteEvaluation:
    def test_hello_identifies_node(self, node):
        with RemoteEvaluationHost("127.0.0.1", node.port) as host:
            assert host.node_id == "gen-1"
            assert host.device_label == "hdd-raid5"

    def test_list_traces(self, node):
        with RemoteEvaluationHost("127.0.0.1", node.port) as host:
            traces = host.list_traces()
            assert len(traces) == 1
            assert traces[0].startswith("hdd-raid5_rs4096")

    def test_remote_run_test(self, node):
        clock = iter(float(i) for i in range(100))
        with RemoteEvaluationHost(
            "127.0.0.1", node.port, clock=lambda: next(clock)
        ) as host:
            record = host.run_test(TestRequest(mode=MODE.at_load(0.5)))
            assert record.iops > 0
            assert record.mean_watts > 90
            assert host.ledger.count() == 1
            assert host.ledger.get(record.record_id).origin == "remote:gen-1"
            assert node.tests_served == 1

    def test_remote_sweep_monotone(self, node):
        with RemoteEvaluationHost("127.0.0.1", node.port) as host:
            records = host.run_load_sweep(MODE, levels=(0.2, 1.0))
            assert records[0].iops < records[1].iops

    def test_remote_error_for_missing_trace(self, node):
        missing = WorkloadMode(request_size=512, random_ratio=0.0, read_ratio=1.0)
        with RemoteEvaluationHost("127.0.0.1", node.port) as host:
            with pytest.raises(ProtocolError, match="remote test failed"):
                host.run_test(TestRequest(mode=missing))

    def test_node_survives_bad_request(self, node):
        """After a failed request the node must keep serving."""
        missing = WorkloadMode(request_size=512, random_ratio=0.0, read_ratio=1.0)
        with RemoteEvaluationHost("127.0.0.1", node.port) as host:
            with pytest.raises(ProtocolError):
                host.run_test(TestRequest(mode=missing))
            record = host.run_test(TestRequest(mode=MODE.at_load(1.0)))
            assert record.iops > 0

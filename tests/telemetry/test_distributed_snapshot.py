"""Telemetry snapshots ride the wire and land in the host's run ledger.

A generator node running with telemetry enabled embeds its registry
delta in the test-result metadata; the host (local or remote) attaches
it to the test's ledger row, read back by run id.  The round trip must
survive the protocol's retry machinery — a lost reply may not duplicate
or drop the snapshot.
"""

import threading

import pytest

from repro.config import TestRequest, WorkloadMode
from repro.distributed.generator_node import GeneratorNode
from repro.distributed.host_node import RemoteEvaluationHost
from repro.faults.network import FlakyLink, LinkFault
from repro.host.communicator import RetryPolicy
from repro.host.evaluation import EvaluationHost
from repro.host.protocol import Frame, KIND_ACK, encode_frame
from repro.storage.array import build_hdd_raid5
from repro.telemetry import enabled_telemetry, get_registry, set_enabled
from repro.trace.repository import TraceName

MODE = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02)
DEADLINE = 30.0


def bounded(fn, deadline=DEADLINE):
    """Daemon-thread deadline guard (same idiom as the protocol fuzz)."""
    outcome = {}

    def runner():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(deadline)
    assert not thread.is_alive(), f"operation hung past {deadline}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@pytest.fixture
def stocked_repo(repo, collected_trace):
    repo.store(
        TraceName(
            "hdd-raid5", MODE.request_size, MODE.random_ratio, MODE.read_ratio
        ),
        collected_trace,
    )
    return repo


@pytest.fixture
def node(stocked_repo):
    with GeneratorNode(
        lambda: build_hdd_raid5(6), "hdd-raid5", stocked_repo, node_id="gen-tele"
    ) as node:
        yield node


def _snapshot(host, record):
    """The telemetry attached to ``record``'s ledger row, or None."""
    return host.ledger.attachment(record.record_id, "telemetry")


def _assert_replay_snapshot(snapshot):
    """The stored blob is a real registry delta from a replay."""
    assert snapshot is not None
    counters = snapshot["counters"]
    bunches = [v for k, v in counters.items() if k.startswith("replay.bunches")]
    assert bunches and bunches[0] > 0
    completed = [
        v
        for k, v in counters.items()
        if k.startswith("replay.packages_completed")
    ]
    assert completed and completed[0] > 0
    assert counters.get("monitor.cycles", 0) > 0
    # Wall-clock timers never ride the deterministic snapshot.
    assert "timers" not in snapshot


class TestLocalHost:
    def test_evaluation_host_stores_snapshot(self, stocked_repo):
        host = EvaluationHost(
            lambda: build_hdd_raid5(6), "hdd-raid5", stocked_repo
        )
        with enabled_telemetry():
            record = host.run_test(TestRequest(mode=MODE.at_load(0.5)))
        assert record.iops > 0
        _assert_replay_snapshot(_snapshot(host, record))

    def test_disabled_run_stores_nothing(self, stocked_repo):
        host = EvaluationHost(
            lambda: build_hdd_raid5(6), "hdd-raid5", stocked_repo
        )
        prior = get_registry().enabled
        set_enabled(False)
        try:
            record = host.run_test(TestRequest(mode=MODE.at_load(0.5)))
        finally:
            set_enabled(prior)
        assert _snapshot(host, record) is None


class TestRemoteRoundTrip:
    def test_snapshot_rides_the_wire(self, node):
        with enabled_telemetry():
            def dialogue():
                with RemoteEvaluationHost(
                    "127.0.0.1", node.port, retry=FAST_RETRY, timeout=5.0
                ) as host:
                    record = host.run_test(TestRequest(mode=MODE.at_load(0.5)))
                    return record, _snapshot(host, record)

            record, snapshot = bounded(dialogue)
        assert record.iops > 0
        _assert_replay_snapshot(snapshot)

    def test_snapshot_survives_lost_reply_retry(self, node):
        # Drop the server→client stream right after the hello reply so
        # the run_test reply is lost; the retried dispatch hits the
        # node's request-id cache and the *same* snapshot is stored once.
        hello_len = len(
            encode_frame(
                Frame(KIND_ACK, {"node_id": node.node_id, "device": "hdd-raid5"})
            )
        )
        with enabled_telemetry():
            plan = [LinkFault(drop_s2c_after=hello_len)]
            with FlakyLink("127.0.0.1", node.port, plan=plan) as link:
                def dialogue():
                    with RemoteEvaluationHost(
                        "127.0.0.1", link.port, retry=FAST_RETRY, timeout=5.0
                    ) as host:
                        record = host.run_test(
                            TestRequest(mode=MODE.at_load(0.5))
                        )
                        return (record, _snapshot(host, record),
                                host.ledger.count())

                record, snapshot, rows = bounded(dialogue)
        assert record.iops > 0
        assert node.tests_served == 1  # cache hit, not a second replay
        assert rows == 1  # one test, one ledger row
        _assert_replay_snapshot(snapshot)

    def test_disabled_node_sends_no_snapshot(self, node):
        def dialogue():
            with RemoteEvaluationHost(
                "127.0.0.1", node.port, retry=FAST_RETRY, timeout=5.0
            ) as host:
                record = host.run_test(TestRequest(mode=MODE.at_load(0.5)))
                return _snapshot(host, record)

        prior = get_registry().enabled
        set_enabled(False)
        try:
            assert bounded(dialogue) is None
        finally:
            set_enabled(prior)

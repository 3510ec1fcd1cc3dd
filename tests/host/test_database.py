"""The results database: the paper's test records as run-ledger rows."""

import dataclasses
import sqlite3
import threading

import pytest

from repro.config import TestRequest, WorkloadMode
from repro.errors import DatabaseError
from repro.host.ledger import RunLedger, record_test
from repro.host.records import TestRecord


def result_dict(load=0.5):
    return {
        "trace_label": "trace-a",
        "duration": 10.0,
        "completed": int(1500 * load),
        "iops": 150.0 * load,
        "mbps": 0.6 * load,
        "mean_response": 0.012,
        "mean_watts": 99.0,
        "energy_joules": 990.0,
        "iops_per_watt": 1.5 * load,
        "mbps_per_kilowatt": 6.0 * load,
    }


def record(ledger, load=0.5, device="hdd-raid5", rs=4096, label="",
           origin="local"):
    """Record one synthetic test; returns its TestRecord."""
    request = TestRequest(
        mode=WorkloadMode(rs, 0.5, 0.25, load_proportion=load), label=label
    )
    return record_test(
        ledger, result_dict(load), request, device, origin=origin,
        created=1000.0 + load,
    )


class TestInsertAndGet:
    def test_roundtrip(self):
        with RunLedger() as ledger:
            stored = record(ledger)
            (restored,) = ledger.tests()
            assert restored == stored
            assert restored.mode == WorkloadMode(
                4096, 0.5, 0.25, load_proportion=0.5
            )
            assert restored.mean_watts == 99.0
            assert restored.test_time == 1000.5
            assert restored.record_id == stored.record_id
            # The record is the ledger row of that run id.
            run = ledger.get(stored.record_id)
            assert TestRecord.from_run(run) == stored
            assert run.origin == "local"

    def test_missing_id(self):
        with RunLedger() as ledger:
            with pytest.raises(DatabaseError):
                ledger.get("42")

    def test_count(self):
        with RunLedger() as ledger:
            for i in range(5):
                record(ledger, load=(i + 1) / 10)
            assert ledger.count() == 5
            assert len(ledger.tests()) == 5

    def test_file_persistence(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with RunLedger(path) as ledger:
            stored = record(ledger)
        with RunLedger(path) as ledger:
            assert ledger.count() == 1
            assert ledger.tests() == [stored]


class TestQuery:
    def test_by_device(self):
        with RunLedger() as ledger:
            record(ledger, device="hdd-raid5")
            record(ledger, device="ssd-raid5")
            rows = ledger.tests(device_label="ssd-raid5")
            assert len(rows) == 1
            assert rows[0].device_label == "ssd-raid5"

    def test_by_mode_fields(self):
        with RunLedger() as ledger:
            for load in (0.1, 0.5, 1.0):
                record(ledger, load=load)
            rows = ledger.tests(load_proportion=0.5)
            assert len(rows) == 1
            assert rows[0].mode.load_proportion == 0.5
            # Ratios match within 1e-9, not bit-for-bit.
            assert len(ledger.tests(random_ratio=0.5 + 1e-12)) == 3
            assert len(ledger.tests(read_ratio=0.25)) == 3
            assert ledger.tests(read_ratio=0.26) == []

    def test_by_request_size(self):
        with RunLedger() as ledger:
            record(ledger, rs=4096)
            record(ledger, rs=65536)
            assert len(ledger.tests(request_size=65536)) == 1

    def test_by_label(self):
        with RunLedger() as ledger:
            record(ledger, label="fig9")
            record(ledger, label="fig10")
            assert len(ledger.tests(label="fig9")) == 1

    def test_order_by(self):
        with RunLedger() as ledger:
            for load in (1.0, 0.1, 0.5):
                record(ledger, load=load)
            rows = ledger.tests(order_by="load_proportion")
            loads = [r.mode.load_proportion for r in rows]
            assert loads == sorted(loads)
            rows = ledger.tests(order_by="id")
            assert [r.mode.load_proportion for r in rows] == [1.0, 0.1, 0.5]

    def test_bad_order_column_rejected(self):
        with RunLedger() as ledger:
            with pytest.raises(DatabaseError):
                ledger.tests(order_by="mean_watts; DROP TABLE run_ledger")

    def test_devices_listing(self):
        with RunLedger() as ledger:
            record(ledger, device="b")
            record(ledger, device="a")
            record(ledger, device="a", origin="remote:gen-1")
            assert ledger.devices() == ["a", "b"]

    def test_other_row_kinds_are_not_tests(self):
        from repro.host.ledger import build_record

        with RunLedger() as ledger:
            record(ledger)
            ledger.append(build_record(
                result_dict(), origin="fleet/job:j1",
                mode={"trace": "t"}, run_id="j1",
            ))
            # A provenance-only host row, as older ledger files hold.
            ledger.append(build_record(
                result_dict(), origin="local", mode={"trace": "t"},
                run_id="old",
            ))
            assert ledger.count() == 3
            assert len(ledger.tests()) == 1
            assert ledger.devices() == ["hdd-raid5"]


class TestCycleStorage:
    def test_insert_and_fetch_cycles(self, collected_trace):
        from repro.config import ReplayConfig
        from repro.replay.session import replay_trace
        from repro.storage.array import build_hdd_raid5

        result = replay_trace(
            collected_trace, build_hdd_raid5(6), 1.0,
            config=ReplayConfig(sampling_cycle=0.1),
        )
        request = TestRequest(mode=WorkloadMode(4096, 0.5, 0.0))
        with RunLedger() as ledger:
            rec = record_test(
                ledger, result.to_dict(), request, "hdd-raid5",
                origin="local", cycles=result.cycles(),
            )
            rows = ledger.attachment(rec.record_id, "cycles")
            assert len(rows) == len(result.cycles()) >= 3
            assert rows[0]["cycle_index"] == 0
            assert rows[0]["watts"] > 90.0
            # Ordered by cycle index / time.
            starts = [r["start"] for r in rows]
            assert starts == sorted(starts)

    def test_cycles_empty_for_unknown_record(self):
        with RunLedger() as ledger:
            assert ledger.attachment("12345", "cycles") is None
            stored = record(ledger)
            # Cycles are attached on request only.
            assert ledger.attachment(stored.record_id, "cycles") is None

    def test_host_stores_cycles_on_request(self, collected_trace, tmp_path):
        from repro.host.evaluation import EvaluationHost
        from repro.storage.array import build_hdd_raid5
        from repro.trace.repository import TraceRepository

        host = EvaluationHost(
            device_factory=lambda: build_hdd_raid5(6),
            device_label="hdd-raid5",
            repository=TraceRepository(tmp_path / "repo"),
            clock=lambda: 0.0,
        )
        mode = WorkloadMode(4096, 0.5, 0.0, load_proportion=1.0)
        rec = host.run_test(
            TestRequest(mode=mode), trace=collected_trace, store_cycles=True
        )
        rows = host.ledger.attachment(rec.record_id, "cycles")
        assert rows  # the series landed under the record's run id


class TestRecordConversion:
    def test_from_result(self, collected_trace):
        from repro.replay.session import replay_trace
        from repro.storage.array import build_hdd_raid5

        result = replay_trace(collected_trace, build_hdd_raid5(6), 0.5)
        mode = WorkloadMode(4096, 0.5, 0.0, load_proportion=0.5)
        with RunLedger() as ledger:
            rec = record_test(
                ledger, result.to_dict(), TestRequest(mode=mode),
                "hdd-raid5", origin="local", created=123.0,
            )
            assert rec.iops == result.iops
            assert rec.mean_watts == result.mean_watts
            assert rec.test_time == 123.0
            assert rec.mean_volts == pytest.approx(220.0)
            assert rec.mean_amperes == pytest.approx(
                result.mean_watts / 220.0, rel=0.01
            )
            assert ledger.tests()[0].iops == pytest.approx(result.iops)

    def test_corrupt_mode_json(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with RunLedger(path) as ledger:
            stored = record(ledger)
            run = ledger.get(stored.record_id)
        # A mode vector missing its fields is not a test record.
        run = dataclasses.replace(run, mode={"request_size": 1})
        with pytest.raises(DatabaseError):
            TestRecord.from_run(run)
        # Nor is a row whose mode JSON does not parse.
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE run_ledger SET mode_json = '{not json'")
        conn.close()
        with RunLedger(path) as ledger:
            with pytest.raises(DatabaseError):
                ledger.tests()
            with pytest.raises(DatabaseError):
                ledger.tests(load_proportion=0.5)


class TestLegacyFile:
    def test_test_records_table_refused(self, tmp_path):
        path = tmp_path / "old-results.sqlite"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE test_records (id INTEGER PRIMARY KEY)")
        conn.close()
        with pytest.raises(DatabaseError, match="test_records"):
            RunLedger(path)


class TestOneRowPerTest:
    """A local and a remote test of one request record the same test."""

    def test_local_and_remote_records_agree(self, repo, collected_trace):
        from repro.distributed.generator_node import GeneratorNode
        from repro.distributed.host_node import RemoteEvaluationHost
        from repro.host.evaluation import EvaluationHost
        from repro.storage.array import build_hdd_raid5
        from repro.trace.repository import TraceName

        mode = WorkloadMode(4096, 0.5, 0.0)
        repo.store(TraceName("hdd-raid5", 4096, 0.5, 0.0), collected_trace)
        request = TestRequest(mode=mode.at_load(0.5), label="parity")
        ledger = RunLedger()
        local = EvaluationHost(
            lambda: build_hdd_raid5(6), "hdd-raid5", repo, ledger=ledger,
        ).run_test(request)
        with GeneratorNode(
            lambda: build_hdd_raid5(6), "hdd-raid5", repo, node_id="gen-eq"
        ) as node:
            outcome = {}

            def dialogue():
                with RemoteEvaluationHost(
                    "127.0.0.1", node.port, ledger=ledger, timeout=10.0
                ) as host:
                    outcome["record"] = host.run_test(request)

            thread = threading.Thread(target=dialogue, daemon=True)
            thread.start()
            thread.join(30.0)
            assert not thread.is_alive(), "remote test hung"
        remote = outcome["record"]

        def metrics(rec):
            return dataclasses.replace(rec, test_time=0.0, record_id=None)

        assert metrics(local) == metrics(remote)
        assert ledger.count() == 2
        origins = {ledger.get(rec.record_id).origin for rec in (local, remote)}
        assert origins == {"local", "remote:gen-eq"}
        assert sorted(ledger.tests(), key=lambda r: r.record_id) == sorted(
            [local, remote], key=lambda r: r.record_id
        )

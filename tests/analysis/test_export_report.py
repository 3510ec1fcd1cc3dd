"""CSV export and markdown report tests."""

import csv

import pytest

from repro.analysis.export import export_cycles_csv, export_records_csv
from repro.analysis.report import database_report
from repro.config import TestRequest, WorkloadMode
from repro.host.ledger import RunLedger, record_test
from repro.host.records import TestRecord


def make_record(device="hdd-raid5", load=1.0, rs=4096, eff=50.0):
    return TestRecord(
        test_time=0.0,
        device_label=device,
        mode=WorkloadMode(rs, 0.5, 0.25, load_proportion=load),
        mean_amperes=0.45,
        mean_volts=220.0,
        mean_watts=100.0,
        energy_joules=1000.0,
        iops=200.0 * load,
        mbps=eff * load * 0.1,
        mean_response=0.01,
        duration=10.0,
        iops_per_watt=2.0 * load,
        mbps_per_kilowatt=eff * load,
        label="t",
    )


def store(ledger, rec):
    """Record ``rec``'s test in ``ledger`` as a host would."""
    result = {
        name: getattr(rec, name)
        for name in (
            "duration", "iops", "mbps", "mean_response", "mean_watts",
            "energy_joules", "iops_per_watt", "mbps_per_kilowatt",
        )
    }
    record_test(
        ledger, result, TestRequest(mode=rec.mode, label=rec.label),
        rec.device_label, origin="local", created=rec.test_time,
    )


class TestRecordExport:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        records = [make_record(load=lp) for lp in (0.5, 1.0)]
        assert export_records_csv(records, path) == 2
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["load_proportion"]) == 0.5
        assert rows[0]["device_label"] == "hdd-raid5"
        assert float(rows[1]["iops"]) == 200.0

    def test_empty_export(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert export_records_csv([], path) == 0
        with open(path) as fh:
            assert len(list(csv.reader(fh))) == 1  # header only


class TestCycleExport:
    def test_cycles_csv(self, tmp_path, collected_trace):
        from repro.config import ReplayConfig
        from repro.replay.session import replay_trace
        from repro.storage.array import build_hdd_raid5

        result = replay_trace(
            collected_trace, build_hdd_raid5(6), 1.0,
            config=ReplayConfig(sampling_cycle=0.1),
        )
        path = tmp_path / "cycles.csv"
        n = export_cycles_csv(result, path)
        assert n >= 3
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n
        assert float(rows[0]["watts"]) > 90.0


class TestDatabaseReport:
    def test_empty_database(self):
        with RunLedger() as ledger:
            text = database_report(ledger)
        assert "_No records._" in text

    def test_report_structure(self):
        with RunLedger() as ledger:
            for device, eff in (("hdd-raid5", 50.0), ("ssd-raid5", 150.0)):
                for load in (0.5, 1.0):
                    store(ledger, make_record(device=device, load=load, eff=eff))
            text = database_report(ledger, title="demo run")
        assert text.startswith("# demo run")
        assert "## hdd-raid5" in text
        assert "## ssd-raid5" in text
        assert "| load % |" in text
        # Ranking section orders ssd (150) above hdd (50).
        ranking = text[text.index("Efficiency ranking"):]
        assert ranking.index("ssd-raid5") < ranking.index("hdd-raid5")

    def test_sweep_rows_ordered_by_load(self):
        with RunLedger() as ledger:
            for load in (1.0, 0.2, 0.6):
                store(ledger, make_record(load=load))
            text = database_report(ledger)
        i20 = text.index("| 20 |")
        i60 = text.index("| 60 |")
        i100 = text.index("| 100 |")
        assert i20 < i60 < i100

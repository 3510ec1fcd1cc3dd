"""CLI tests (driven through main() with argv lists)."""

import pytest

from repro.cli import main
from repro.trace.blktrace import read_trace, write_trace
from repro.trace.srt import write_srt


@pytest.fixture
def trace_file(tmp_path, collected_trace):
    path = tmp_path / "demo.replay"
    write_trace(collected_trace, path)
    return path


class TestStats:
    def test_stats_output(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "read ratio" in out
        assert "bunches" in out


class TestConvert:
    def test_convert_srt(self, tmp_path, small_trace, capsys):
        src = tmp_path / "in.srt"
        write_srt(small_trace, src)
        dst = tmp_path / "out.replay"
        assert main(["convert", str(src), str(dst)]) == 0
        assert read_trace(dst) == small_trace
        assert "converted" in capsys.readouterr().out


class TestCollectAndRepo:
    def test_collect_limited(self, tmp_path, capsys):
        repo_dir = tmp_path / "repo"
        rc = main([
            "collect", str(repo_dir), "--duration", "0.2", "--limit", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repository now holds 2 traces" in out
        assert main(["repo", str(repo_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 traces" in out


class TestReplay:
    def test_replay_at_load(self, trace_file, capsys):
        rc = main([
            "replay", str(trace_file), "--load", "50", "--cycle", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50%" in out
        assert "IOPS/W" in out

    def test_replay_with_time_scale(self, trace_file, capsys):
        rc = main([
            "replay", str(trace_file), "--load", "100", "--time-scale", "2.0",
        ])
        assert rc == 0

    def test_bad_device_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main(["replay", str(trace_file), "--device", "floppy"])


class TestTelemetry:
    def test_profiles_the_engine_replay_runs(
        self, trace_file, tmp_path, capsys
    ):
        """The trace loads packed, as for ``tracer replay``'s auto
        engine, so the profile is of the kernel that command runs."""
        import json

        jsonl = tmp_path / "t.jsonl"
        rc = main(["telemetry", str(trace_file), "--jsonl", str(jsonl)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine: kernel\n" in out
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        completed = [
            r for r in records
            if r["name"] == "replay.packages_completed"
        ]
        assert len(completed) == 1
        assert completed[0]["labels"] == {"path": "packed"}
        assert completed[0]["value"] == read_trace(trace_file).package_count


class TestProfile:
    def test_profile_output(self, trace_file, capsys):
        assert main(["profile", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "workload profile" in out
        assert "burstiness" in out


class TestSliceAndFit:
    def test_slice_window(self, trace_file, tmp_path, capsys):
        out = tmp_path / "window.replay"
        rc = main([
            "slice", str(trace_file), str(out), "--start", "0.1",
            "--end", "0.3",
        ])
        assert rc == 0
        window = read_trace(out)
        assert len(window) > 0
        assert window[0].timestamp == 0.0  # rebased

    def test_slice_empty_window_fails(self, trace_file, tmp_path):
        rc = main([
            "slice", str(trace_file), str(tmp_path / "x.replay"),
            "--start", "900", "--end", "901",
        ])
        assert rc == 1

    def test_fit_to_smaller_device(self, trace_file, tmp_path, capsys):
        out = tmp_path / "fitted.replay"
        rc = main(["fit", str(trace_file), str(out), "100000"])
        assert rc == 0
        fitted = read_trace(out)
        assert all(p.end_sector <= 100000 for p in fitted.packages())


class TestDeterminism:
    def test_full_pipeline_bit_identical(self, tmp_path, collected_trace):
        """Same inputs ⇒ identical database contents, end to end."""
        from repro.config import WorkloadMode
        from repro.host.evaluation import EvaluationHost
        from repro.storage.array import build_hdd_raid5
        from repro.trace.repository import TraceRepository

        def run(tag):
            host = EvaluationHost(
                device_factory=lambda: build_hdd_raid5(6),
                device_label="hdd-raid5",
                repository=TraceRepository(tmp_path / tag),
                clock=lambda: 0.0,
            )
            mode = WorkloadMode(4096, 0.5, 0.0)
            records = host.run_load_sweep(
                mode, levels=(0.3, 0.7), trace=collected_trace
            )
            return [
                (r.iops, r.mbps, r.mean_watts, r.energy_joules,
                 r.mean_response)
                for r in records
            ]

        assert run("a") == run("b")


class TestServe:
    def test_serve_max_tests(self, tmp_path, collected_trace, capsys):
        """Start a node via the CLI in a thread, drive one remote test,
        and watch it exit after --max-tests."""
        import re
        import threading

        from repro.config import TestRequest, WorkloadMode
        from repro.distributed.host_node import RemoteEvaluationHost
        from repro.trace.repository import TraceName, TraceRepository

        repo_dir = tmp_path / "repo"
        repo = TraceRepository(repo_dir)
        mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
        repo.store(
            TraceName("hdd-raid5", 4096, 0.5, 0.0), collected_trace
        )

        rc = {}

        def run_server():
            rc["value"] = main([
                "serve", str(repo_dir), "--max-tests", "1",
                "--node-id", "cli-node",
            ])

        thread = threading.Thread(target=run_server)
        thread.start()
        # The CLI prints the ephemeral port; poll captured stdout for it.
        port = None
        for _ in range(100):
            out = capsys.readouterr().out
            m = re.search(r"on 127\.0\.0\.1:(\d+)", out)
            if m:
                port = int(m.group(1))
                break
            threading.Event().wait(0.05)
        assert port is not None
        with RemoteEvaluationHost("127.0.0.1", port) as host:
            record = host.run_test(TestRequest(mode=mode.at_load(0.5)))
            assert record.iops > 0
        thread.join(timeout=30)
        assert rc["value"] == 0


class TestHeadroom:
    def test_headroom_search(self, tmp_path, capsys):
        from repro.trace.blktrace import write_trace
        from repro.trace.record import READ, Bunch, IOPackage, Trace

        light = Trace(
            [Bunch(i * 0.05, [IOPackage(i * 8, 4096, READ)])
             for i in range(60)]
        )
        path = tmp_path / "light.replay"
        write_trace(light, path)
        rc = main([
            "headroom", str(path), "--slo-ms", "50",
            "--max-intensity", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "intensity" in out
        assert "headroom" in out or "sustains" in out

    def test_headroom_impossible_slo(self, tmp_path, capsys):
        from repro.trace.blktrace import write_trace
        from repro.trace.record import READ, Bunch, IOPackage, Trace

        trace = Trace(
            [Bunch(i * 0.05, [IOPackage(i * 10**6, 4096, READ)])
             for i in range(20)]
        )
        path = tmp_path / "t.replay"
        write_trace(trace, path)
        rc = main(["headroom", str(path), "--slo-ms", "0.0001"])
        assert rc == 1
        assert "failed" in capsys.readouterr().out


class TestCompare:
    def test_compare_traces(self, tmp_path, collected_trace, capsys):
        from repro.core.proportional_filter import filter_trace
        from repro.trace.blktrace import write_trace

        a = tmp_path / "a.replay"
        b = tmp_path / "b.replay"
        write_trace(collected_trace, a)
        write_trace(filter_trace(collected_trace, 0.5), b)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "request size KS" in out
        assert "content distortion" in out


class TestReportAndExport:
    @pytest.fixture
    def populated_db(self, tmp_path, trace_file):
        db = tmp_path / "results.sqlite"
        main(["sweep", str(trace_file), "--database", str(db)])
        return db

    def test_report_to_stdout(self, populated_db, capsys):
        capsys.readouterr()
        assert main(["report", str(populated_db)]) == 0
        out = capsys.readouterr().out
        assert "# TRACER evaluation" in out
        assert "| load % |" in out

    def test_report_to_file(self, populated_db, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main([
            "report", str(populated_db), "--output", str(out_file),
            "--title", "my run",
        ]) == 0
        assert out_file.read_text().startswith("# my run")

    def test_export_csv(self, populated_db, tmp_path, capsys):
        csv_file = tmp_path / "records.csv"
        assert main(["export", str(populated_db), str(csv_file)]) == 0
        out = capsys.readouterr().out
        assert "exported 10 records" in out
        assert csv_file.exists()

    @pytest.mark.parametrize("command", [
        ["report"], ["export"], ["runs", "list"], ["trace", "jobs"],
    ])
    def test_missing_ledger_fails_without_creating_it(
        self, command, tmp_path
    ):
        missing = tmp_path / "mistyped.sqlite"
        argv = [*command, str(missing)]
        if command == ["export"]:
            argv.append(str(tmp_path / "out.csv"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        assert "no ledger at" in str(exc.value.code)
        assert not missing.exists()
        assert not (tmp_path / "out.csv").exists()


class TestSweep:
    def test_grid_sweep_records_ledger(self, trace_file, tmp_path, capsys):
        ledger = tmp_path / "runs.sqlite"
        rc = main([
            "sweep", str(trace_file), "--grid",
            "--loads", "0.5,1.0", "--time-scales", "1.0,2.0",
            "--ledger", str(ledger),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid 1x1x2x2 (4 cells" in out
        assert "recorded as run" in out

        assert main(["runs", "list", str(ledger), "--origin", "grid"]) == 0
        listing = capsys.readouterr().out
        parent_id = listing.splitlines()[1].split()[0]
        assert main([
            "runs", "list", str(ledger), "--origin", f"cell:{parent_id}",
        ]) == 0
        cell_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if "cell:" in line
        ]
        assert len(cell_lines) == 4

    def test_grid_sweep_rejects_bad_axis(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", str(trace_file), "--grid", "--loads", "hot,cold",
            ])

    def test_sweep_with_database(self, trace_file, tmp_path, capsys):
        db = tmp_path / "results.sqlite"
        rc = main([
            "sweep", str(trace_file), "--database", str(db),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100%" in out and "10%" in out
        from repro.host.ledger import RunLedger

        with RunLedger(db) as ledger:
            assert ledger.count() == 10
            assert len(ledger.tests()) == 10

    def test_sweep_rows_list_as_local_runs(self, trace_file, tmp_path, capsys):
        db = tmp_path / "results.sqlite"
        assert main(["sweep", str(trace_file), "--database", str(db)]) == 0
        capsys.readouterr()
        assert main(["runs", "list", str(db), "--origin", "local"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if " local " in line]
        assert len(rows) == 10
        assert lines[-1].startswith("10 of 10 runs")
        from repro.host.ledger import RunLedger

        with RunLedger(db) as ledger:
            loads = sorted(
                ledger.get(line.split()[0]).mode["load_proportion"]
                for line in rows
            )
        assert loads == pytest.approx([i / 10 for i in range(1, 11)])


class TestSearch:
    def test_search_report(self, trace_file, capsys):
        rc = main([
            "search", str(trace_file), "--device", "hdd-raid0",
            "--policies", "maid:idle_timeout=1,drpm:step_timeout=0.5",
            "--loads", "0.5,1.0", "--cycle", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Efficiency ranking" in out
        assert "Pareto frontier" in out
        assert "Recommendation" in out
        assert "#maid" in out and "#drpm" in out

    def test_search_frontier_only(self, trace_file, capsys):
        rc = main([
            "search", str(trace_file), "--device", "hdd-raid0",
            "--policies", "maid", "--loads", "1.0", "--frontier",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy=" in out and "iops_per_watt=" in out
        assert "Efficiency ranking" not in out

    def test_search_verify_and_provenance(
        self, trace_file, tmp_path, capsys,
    ):
        ledger = tmp_path / "runs.sqlite"
        out_json = tmp_path / "search.json"
        rc = main([
            "search", str(trace_file), "--device", "hdd-raid0",
            "--policies", "maid:idle_timeout=1", "--loads", "0.5,1.0",
            "--cycle", "0.5", "--verify",
            "--json", str(out_json), "--ledger", str(ledger),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified: 2 base cell(s)" in out
        assert "bit-identical" in out

        import json as _json

        payload = _json.loads(out_json.read_text())
        assert payload["policies"] == ["baseline", "maid"]
        assert len(payload["cells"]) == 4

        assert main([
            "runs", "list", str(ledger), "--origin", "search",
        ]) == 0
        listing = capsys.readouterr().out
        parent_id = listing.splitlines()[1].split()[0]
        assert main([
            "runs", "list", str(ledger), "--origin", f"cell:{parent_id}",
        ]) == 0
        cell_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if "cell:" in line
        ]
        assert len(cell_lines) == 4

    def test_search_rejects_bad_policy(self, trace_file):
        with pytest.raises(SystemExit):
            main([
                "search", str(trace_file), "--device", "hdd-raid0",
                "--policies", "turbo",
            ])

    def test_policy_spec_splitting_keeps_params_attached(self):
        from repro.cli import _split_policy_specs

        assert _split_policy_specs(
            "maid:idle_timeout=1,transition_time=2,drpm,pdc:idle_timeout=3"
        ) == ["maid:idle_timeout=1,transition_time=2", "drpm",
              "pdc:idle_timeout=3"]
        assert _split_policy_specs("maid, drpm ") == ["maid", "drpm"]
        assert _split_policy_specs("") == []


class TestFleet:
    def test_serve_submit_status_roundtrip(self, tmp_path, trace_file,
                                           capsys):
        """Serve a fleet via the CLI in a thread, drive it with submit /
        status / runs-list, and watch it exit after --max-jobs."""
        import json
        import re
        import threading

        db = str(tmp_path / "fleet.sqlite")
        rc = {}

        def run_server():
            rc["value"] = main([
                "fleet", "serve", "--trace", str(trace_file),
                "--workers", "2", "--db", db, "--max-jobs", "3",
                "--tenant", "alice:2:1.0", "--tenant", "bob",
            ])

        thread = threading.Thread(target=run_server)
        thread.start()
        port = None
        for _ in range(100):
            out = capsys.readouterr().out
            m = re.search(r"on 127\.0\.0\.1:(\d+)", out)
            if m:
                port = int(m.group(1))
                break
            threading.Event().wait(0.05)
        assert port is not None

        # 1. alice executes; the filtered --wait output keeps the flat
        # metrics plus provenance.
        assert main([
            "fleet", "submit", "--port", str(port), "--tenant", "alice",
            "--job-trace", "demo", "--load", "0.5", "--seed", "7",
            "--wait",
        ]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache_hit"] is False
        assert first["result"]["iops"] > 0
        assert "metadata" not in first["result"]

        # 2. bob submits the identical spec and is served from cache.
        assert main([
            "fleet", "submit", "--port", str(port), "--tenant", "bob",
            "--job-trace", "demo", "--load", "0.5", "--seed", "7",
            "--wait", "--full",
        ]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hit"] is True
        assert second["result"]["metadata"] is not None

        assert main(["fleet", "status", "--port", str(port)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["jobs"]["completed"] == 2
        assert status["queue"]["tenants"]["alice"]["quota"] == 2

        # 3. a --spec-json submit completes the --max-jobs budget and
        # the server exits on its own.
        assert main([
            "fleet", "submit", "--port", str(port), "--tenant", "bob",
            "--spec-json",
            '{"kind": "replay", "trace": "demo", "load": 0.2}',
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j")

        thread.join(timeout=30)
        assert rc["value"] == 0
        assert "fleet served 3 jobs" in capsys.readouterr().out

        # Provenance survives in the ledger file, origin-prefix query.
        assert main(["runs", "list", db, "--origin", "fleet"]) == 0
        listing = capsys.readouterr().out
        assert "3 of 3 runs" in listing
        assert f"fleet/job:{job_id}"[:18] in listing

"""Run ledger: provenance rows, queries, diffs, and host wiring."""

import pytest

from repro.config import ReplayConfig, TestRequest, WorkloadMode
from repro.errors import DatabaseError
from repro.host.ledger import (
    GIT_SHA_ENV,
    RunLedger,
    RunRecord,
    SUMMARY_KEYS,
    build_record,
    config_fingerprint,
    current_git_sha,
    new_run_id,
    record_test,
    summary_from_result,
)
from repro.host.records import TestRecord

MODE = {"request_size": 4096, "random_ratio": 0.0, "read_ratio": 0.5,
        "load_proportion": 0.5}
REPLAY = {"sampling_cycle": 1.0, "time_scale": 1.0, "group_size": 1,
          "seed": 23}


def result_dict(iops=100.0, watts=80.0, label="trace-a"):
    return {
        "trace_label": label,
        "duration": 2.0,
        "completed": 200,
        "iops": iops,
        "mbps": 0.8,
        "mean_response": 0.01,
        "mean_watts": watts,
        "energy_joules": watts * 2.0,
        "iops_per_watt": iops / watts,
        "mbps_per_kilowatt": 10.0,
    }


class TestFingerprints:
    def test_fingerprint_is_stable_and_config_sensitive(self):
        a = config_fingerprint(MODE, REPLAY)
        assert a == config_fingerprint(dict(MODE), dict(REPLAY))
        assert a != config_fingerprint({**MODE, "load_proportion": 0.6}, REPLAY)
        assert a != config_fingerprint(MODE, {**REPLAY, "seed": 24})
        assert len(a) == 16

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv(GIT_SHA_ENV, "abc123")
        assert current_git_sha() == "abc123"

    def test_git_sha_ignores_the_callers_checkout(self, tmp_path, monkeypatch):
        """A run started inside another git repo records this package's
        code identity, not that repo's HEAD."""
        import subprocess

        import repro.host.ledger as ledger_module

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, capture_output=True, text=True, check=True,
            ).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "another project")
        other_head = git("rev-parse", "--short", "HEAD")
        monkeypatch.delenv(GIT_SHA_ENV, raising=False)
        monkeypatch.setattr(ledger_module, "_GIT_SHA_CACHE", None)
        monkeypatch.chdir(tmp_path)
        record = build_record(result_dict(), origin="local", mode=MODE)
        assert record.git_sha
        assert record.git_sha != other_head

    def test_summary_extraction_covers_all_keys(self):
        summary = summary_from_result(result_dict())
        assert set(summary) == set(SUMMARY_KEYS)
        assert summary_from_result({})["iops"] == 0.0

    def test_new_run_ids_unique(self):
        assert new_run_id() != new_run_id()


class TestBuildRecord:
    def test_build_record_fields(self):
        record = build_record(
            result_dict(), origin="local", mode=MODE, replay=REPLAY,
            run_id="run-1", frames_path="/tmp/f.jsonl", created=123.0,
        )
        assert record.run_id == "run-1"
        assert record.created == 123.0
        assert record.origin == "local"
        assert record.trace_label == "trace-a"
        assert record.seed == 23
        assert record.frames_path == "/tmp/f.jsonl"
        assert record.config_hash == config_fingerprint(MODE, REPLAY)
        assert record.summary["iops"] == 100.0

    def test_seedless_replay_records_null_seed(self):
        record = build_record(result_dict(), origin="local", mode=MODE,
                              replay={**REPLAY, "seed": None})
        assert record.seed is None

    def test_row_roundtrip(self):
        record = build_record(result_dict(), origin="o", mode=MODE,
                              replay=REPLAY, run_id="r", created=1.0)
        assert RunRecord.from_row(record.to_row()) == record


class TestLedgerStore:
    def make(self, ledger, run_id, created=1.0, label="trace-a",
             origin="local", iops=100.0):
        ledger.append(
            build_record(result_dict(iops=iops, label=label), origin=origin,
                         mode=MODE, replay=REPLAY, run_id=run_id,
                         created=created)
        )

    def test_append_get_roundtrip(self):
        with RunLedger() as ledger:
            self.make(ledger, "abcdef0123456789")
            record = ledger.get("abcdef0123456789")
            assert record.trace_label == "trace-a"
            assert ledger.count() == 1

    def test_duplicate_id_rejected(self):
        with RunLedger() as ledger:
            self.make(ledger, "dup")
            with pytest.raises(DatabaseError, match="append failed"):
                self.make(ledger, "dup")

    def test_prefix_lookup(self):
        with RunLedger() as ledger:
            self.make(ledger, "abcd-1")
            self.make(ledger, "abxy-2")
            assert ledger.get("abc").run_id == "abcd-1"
            with pytest.raises(DatabaseError, match="ambiguous"):
                ledger.get("ab")
            with pytest.raises(DatabaseError, match="no run"):
                ledger.get("zzz")

    def test_list_newest_first_with_filters(self):
        with RunLedger() as ledger:
            self.make(ledger, "r1", created=1.0, label="a")
            self.make(ledger, "r2", created=2.0, label="b", origin="remote:n")
            self.make(ledger, "r3", created=3.0, label="a")
            assert [r.run_id for r in ledger.list()] == ["r3", "r2", "r1"]
            assert [r.run_id for r in ledger.list(trace_label="a")] == ["r3", "r1"]
            assert [r.run_id for r in ledger.list(origin="remote:n")] == ["r2"]
            assert [r.run_id for r in ledger.list(limit=1)] == ["r3"]

    def test_diff_reports_deltas(self):
        with RunLedger() as ledger:
            self.make(ledger, "a", iops=100.0)
            self.make(ledger, "b", iops=110.0)
            diff = ledger.diff("a", "b")
            assert diff["same_config"] and diff["same_trace"]
            assert diff["metrics"]["iops"]["delta"] == pytest.approx(10.0)
            assert diff["metrics"]["iops"]["pct"] == pytest.approx(10.0)

    def test_diff_compares_engine_provenance_by_equality(self):
        """`tracer runs diff` across engines: equality, not delta."""
        with RunLedger() as ledger:
            ledger.append(build_record(
                {**result_dict(), "metadata": {"engine": "event"}},
                origin="local", mode=MODE, replay=REPLAY, run_id="ev",
                created=1.0,
            ))
            ledger.append(build_record(
                {**result_dict(), "metadata": {"engine": "kernel"}},
                origin="local", mode=MODE, replay=REPLAY, run_id="kn",
                created=2.0,
            ))
            diff = ledger.diff("ev", "kn")
            row = diff["metrics"]["engine"]
            assert row == {"a": "event", "b": "kernel", "equal": False}
            # Numeric metrics still diff numerically alongside.
            assert diff["metrics"]["iops"]["delta"] == pytest.approx(0.0)
            assert ledger.diff("ev", "ev")["metrics"]["engine"]["equal"]

    def test_summary_carries_engine_when_present(self):
        summary = summary_from_result(
            {**result_dict(), "metadata": {"engine": "kernel"}}
        )
        assert summary["engine"] == "kernel"
        assert set(summary) == set(SUMMARY_KEYS) | {"engine"}

    def test_persists_to_disk(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            self.make(ledger, "persisted")
        with RunLedger(path) as reopened:
            assert reopened.get("persisted").run_id == "persisted"

    def test_test_rows_share_the_ledger_file(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        ledger = RunLedger(path)
        record = record_test(
            ledger, result_dict(), TestRequest(mode=WorkloadMode(
                **MODE)), "hdd-raid5", origin="local",
        )
        other = RunLedger(path)
        # Same sqlite file: a second handle sees the test's row, by its
        # run id, both as a run and as the paper's test record.
        assert other.count() == 1
        assert other.get(record.record_id).origin == "local"
        assert other.tests() == [record]
        ledger.close()  # closing one handle must not kill the other
        assert other.count() == 1
        assert TestRecord.from_run(other.get(record.record_id)) == record
        other.close()


class TestHostWiring:
    """EvaluationHost appends a ledger row (and frames file) per test."""

    def test_local_run_lands_in_ledger(self, repo, collected_trace, tmp_path):
        from repro.host.evaluation import EvaluationHost
        from repro.storage.array import build_hdd_raid5
        from repro.trace.repository import TraceName

        mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
        repo.store(TraceName("hdd-raid5", 4096, 0.5, 0.0), collected_trace)
        ledger = RunLedger()
        host = EvaluationHost(
            lambda: build_hdd_raid5(6), "hdd-raid5", repo,
            ledger=ledger, frames_dir=tmp_path / "frames",
        )
        host.run_test(
            TestRequest(mode=mode.at_load(0.5), replay=ReplayConfig(seed=5)),
            stream_interval=0.25,
        )
        assert ledger.count() == 1
        record = ledger.list()[0]
        assert record.origin == "local"
        assert record.seed == 5
        frames_file = tmp_path / "frames" / f"run-{record.run_id}.jsonl"
        assert str(frames_file) == record.frames_path
        assert frames_file.read_text().strip()

    def test_unstreamed_run_has_no_frames_file(self, repo, collected_trace):
        from repro.host.evaluation import EvaluationHost
        from repro.storage.array import build_hdd_raid5
        from repro.trace.repository import TraceName

        mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
        repo.store(TraceName("hdd-raid5", 4096, 0.5, 0.0), collected_trace)
        ledger = RunLedger()
        host = EvaluationHost(
            lambda: build_hdd_raid5(6), "hdd-raid5", repo, ledger=ledger,
        )
        host.run_test(TestRequest(mode=mode.at_load(0.5)))
        record = ledger.list()[0]
        assert record.frames_path == ""


class TestGridRecord:
    """Grid sweeps land as one parent row plus one row per cell."""

    def _outcome(self):
        from repro.storage.array import build_hdd_raid5
        from repro.trace.packed import pack
        from repro.trace.record import READ, Bunch, IOPackage, Trace
        from repro.workload.parallel import run_grid

        trace = pack(
            Trace(
                [
                    Bunch(i / 64, [IOPackage(1024 * i, 4096, READ)])
                    for i in range(12)
                ],
                label="ledger-grid",
            )
        )
        return run_grid(
            {"t": trace}, {"hdd": build_hdd_raid5},
            loads=(0.5, 1.0), time_scales=(1.0, 2.0), parallel=False,
        )

    def test_parent_and_cell_rows(self):
        from repro.host.ledger import record_grid_run

        outcome = self._outcome()
        with RunLedger() as ledger:
            parent_id = record_grid_run(
                ledger, outcome, config=ReplayConfig(seed=7)
            )
            assert ledger.count() == 1 + len(outcome.cells)
            parent = ledger.get(parent_id)
            assert parent.origin == "grid"
            assert parent.mode["shape"] == [1, 1, 2, 2]
            assert parent.summary["cells"] == 4.0
            assert parent.summary["fused_cells"] == float(
                outcome.fused_cells
            )
            cells = ledger.list(origin=f"cell:{parent_id}")
            assert len(cells) == 4
            coords = {
                (r.mode["load"], r.mode["time_scale"]) for r in cells
            }
            assert coords == {(0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0)}
            assert all(r.mode["device"] == "hdd" for r in cells)

    def test_cell_rows_diffable(self):
        from repro.host.ledger import record_grid_run

        outcome = self._outcome()
        with RunLedger() as ledger:
            parent_id = record_grid_run(ledger, outcome)
            cells = [
                r for r in ledger.list(origin=f"cell:{parent_id}")
                if r.mode["time_scale"] == 1.0
            ]
            assert len(cells) == 2
            diff = ledger.diff(cells[0].run_id, cells[1].run_id)
            # The replayed label carries the load distortion and the
            # cell coordinates feed the config fingerprint, so two
            # different cells never claim to be the same run setup.
            assert not diff["same_trace"]
            assert not diff["same_config"]
            assert "iops" in diff["metrics"]
            assert diff["metrics"]["engine"]["equal"]

    def test_explicit_run_id_and_seed(self):
        from repro.host.ledger import record_grid_run

        outcome = self._outcome()
        with RunLedger() as ledger:
            got = record_grid_run(
                ledger, outcome, config=ReplayConfig(seed=99),
                run_id="grid-fixed-id",
            )
            assert got == "grid-fixed-id"
            assert ledger.get("grid-fixed-id").seed == 99


class TestResultCache:
    """The fleet's dedup cache rides in the same sqlite file."""

    def test_put_get_roundtrip(self):
        with RunLedger() as ledger:
            assert ledger.cache_get("fp:cfg") is None
            ledger.cache_put("fp:cfg", '{"iops": 1.0}', "run-1")
            hit = ledger.cache_get("fp:cfg")
            assert hit == {"run_id": "run-1", "result_json": '{"iops": 1.0}'}
            assert ledger.cache_size() == 1

    def test_first_entry_wins(self):
        # INSERT OR IGNORE: a racing second writer cannot clobber the
        # bytes the first execution published.
        with RunLedger() as ledger:
            ledger.cache_put("k", '{"v": 1}', "run-1")
            ledger.cache_put("k", '{"v": 2}', "run-2")
            hit = ledger.cache_get("k")
            assert hit["run_id"] == "run-1"
            assert hit["result_json"] == '{"v": 1}'
            assert ledger.cache_size() == 1

    def test_cache_persists_to_disk(self, tmp_path):
        db = str(tmp_path / "cache.db")
        with RunLedger(db) as ledger:
            ledger.cache_put("k", '{"v": 1}', "run-1")
        with RunLedger(db) as ledger:
            assert ledger.cache_get("k")["run_id"] == "run-1"


class TestOriginPrefixFilter:
    def _seed(self, ledger):
        for i, origin in enumerate(
            ["local", "fleet/job:a", "fleet/job:b", "fleetish", "remote:n1"]
        ):
            ledger.append(
                build_record(
                    result_dict(), origin, MODE, REPLAY,
                    run_id=f"run-{i}",
                )
            )

    def test_exact_match_still_exact(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            assert [r.origin for r in ledger.list(origin="local")] == ["local"]
            rows = ledger.list(origin="fleet/job:a")
            assert [r.run_id for r in rows] == ["run-1"]

    def test_prefix_matches_the_segment_not_the_string(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            fleet = {r.origin for r in ledger.list(origin="fleet")}
            # "fleetish" must NOT match: the prefix is path-segmented.
            assert fleet == {"fleet/job:a", "fleet/job:b"}

    def test_fleet_rows_round_trip_through_record_helper(self):
        from repro.host.ledger import record_fleet_job

        spec = {"kind": "replay", "trace": "t1", "load": 0.5, "seed": 7}
        with RunLedger() as ledger:
            record_fleet_job(
                ledger, "j000001-aaaa", "alice", spec, result_dict(),
                cache_hit=False, attempts=2, worker="local-0",
            )
            rows = ledger.list(origin="fleet")
            assert len(rows) == 1
            row = rows[0]
            assert row.run_id == "j000001-aaaa"
            assert row.origin == "fleet/job:j000001-aaaa"
            assert row.mode["tenant"] == "alice"
            assert row.mode["worker"] == "local-0"
            assert row.summary["attempts"] == 2.0
            assert row.summary["cache_hit"] == 0.0

    def test_fleet_row_carries_flightrec_dump_path(self):
        from repro.host.ledger import record_fleet_job

        spec = {"kind": "replay", "trace": "t1", "load": 0.5, "seed": 7}
        with RunLedger() as ledger:
            record_fleet_job(
                ledger, "j000002-bbbb", "alice", spec, result_dict(),
                cache_hit=False, attempts=2, worker="local-1",
                dump_path="/tmp/flightrec-0001.jsonl",
            )
            record_fleet_job(
                ledger, "j000003-cccc", "alice", spec, result_dict(),
                cache_hit=True, attempts=1,
            )
            dumped = ledger.get("j000002-bbbb")
            assert dumped.mode["flightrec_dump"] == "/tmp/flightrec-0001.jsonl"
            # No death, no dump: the key is absent, not empty.
            clean = ledger.get("j000003-cccc")
            assert "flightrec_dump" not in clean.mode


def span_dict(span_id, name, parent_id=None, trace_id="t" * 8,
              wall_start=1.0, **extra):
    base = {
        "span_id": span_id,
        "trace_id": trace_id,
        "parent_id": parent_id,
        "name": name,
        "status": "ok",
        "wall_start": wall_start,
        "wall_end": wall_start + 0.5,
        "sim_start": None,
        "sim_end": None,
        "energy_joules": None,
        "attrs": {},
    }
    base.update(extra)
    return base


class TestSpansTable:
    def _seed_job(self, ledger, job_id, trace_id="trace-a"):
        ledger.spans_put(job_id, [
            span_dict(f"{job_id}-root", "fleet.job", trace_id=trace_id,
                      wall_start=1.0),
            span_dict(f"{job_id}-att", "fleet.attempt",
                      parent_id=f"{job_id}-root", trace_id=trace_id,
                      wall_start=2.0, attrs={"attempt": 1},
                      sim_start=0.0, sim_end=0.5, energy_joules=12.5),
        ])

    def test_spans_round_trip_all_fields(self):
        with RunLedger() as ledger:
            self._seed_job(ledger, "job-1")
            spans = ledger.spans_for_job("job-1")
            assert [s["name"] for s in spans] == [
                "fleet.job", "fleet.attempt",
            ]
            attempt = spans[1]
            assert attempt["parent_id"] == "job-1-root"
            assert attempt["trace_id"] == "trace-a"
            assert attempt["job_id"] == "job-1"
            assert attempt["attrs"] == {"attempt": 1}
            assert attempt["sim_start"] == 0.0
            assert attempt["sim_end"] == 0.5
            assert attempt["energy_joules"] == 12.5
            assert attempt["wall_end"] == attempt["wall_start"] + 0.5

    def test_spans_put_is_idempotent_per_span_id(self):
        with RunLedger() as ledger:
            self._seed_job(ledger, "job-1")
            # A re-flush (e.g. a retried ledger write) replaces, never
            # duplicates.
            self._seed_job(ledger, "job-1")
            assert ledger.spans_count() == 2

    def test_unique_prefix_resolves_ambiguous_raises(self):
        with RunLedger() as ledger:
            self._seed_job(ledger, "j00000001-aaaa")
            self._seed_job(ledger, "j00000002-bbbb", trace_id="trace-b")
            # Unique prefix resolves to the full job.
            spans = ledger.spans_for_job("j00000001")
            assert len(spans) == 2
            assert spans[0]["job_id"] == "j00000001-aaaa"
            # Shared prefix is ambiguous.
            with pytest.raises(DatabaseError):
                ledger.spans_for_job("j0000000")
            # Unknown id is simply empty.
            assert ledger.spans_for_job("nope") == []

    def test_span_jobs_enumerates_traced_jobs(self):
        with RunLedger() as ledger:
            assert ledger.span_jobs() == []
            assert ledger.spans_count() == 0
            self._seed_job(ledger, "job-b")
            self._seed_job(ledger, "job-a")
            assert ledger.span_jobs() == ["job-a", "job-b"]
            assert ledger.spans_count() == 4

    def test_spans_persist_to_disk(self, tmp_path):
        db = str(tmp_path / "spans.db")
        with RunLedger(db) as ledger:
            self._seed_job(ledger, "job-1")
        with RunLedger(db) as ledger:
            assert len(ledger.spans_for_job("job-1")) == 2


class TestFleetMetricsTable:
    def _seed(self, ledger):
        ledger.metrics_put([
            {"created": 10.0, "scope": "fleet", "metric": "queue_depth",
             "value": 4.0},
            {"created": 10.0, "scope": "local-0", "metric": "worker.beats",
             "value": 1.0},
            {"created": 20.0, "scope": "fleet", "metric": "queue_depth",
             "value": 2.0},
            {"created": 20.0, "scope": "local-0", "metric": "worker.beats",
             "value": 2.0},
            {"created": 30.0, "scope": "tenant:acme", "metric": "tenant.depth",
             "value": 1.0},
        ])

    def test_series_filters_by_metric_and_scope(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            assert ledger.metrics_count() == 5
            depth = ledger.metrics_series(metric="queue_depth")
            assert [r["value"] for r in depth] == [4.0, 2.0]
            beats = ledger.metrics_series(scope="local-0")
            assert [r["value"] for r in beats] == [1.0, 2.0]
            both = ledger.metrics_series(
                metric="worker.beats", scope="local-0"
            )
            assert len(both) == 2

    def test_limit_tails_the_series(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            tail = ledger.metrics_series(metric="queue_depth", limit=1)
            # Most recent sample survives, oldest-first ordering holds.
            assert [r["value"] for r in tail] == [2.0]

    def test_series_since_and_ordering(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            recent = ledger.metrics_series(since=20.0)
            assert [r["created"] for r in recent] == [20.0, 20.0, 30.0]
            everything = ledger.metrics_series()
            assert [r["created"] for r in everything] == sorted(
                r["created"] for r in everything
            )

    def test_scopes_enumerated(self):
        with RunLedger() as ledger:
            self._seed(ledger)
            assert ledger.metrics_scopes() == [
                "fleet", "local-0", "tenant:acme",
            ]

    def test_metrics_persist_to_disk(self, tmp_path):
        db = str(tmp_path / "metrics.db")
        with RunLedger(db) as ledger:
            self._seed(ledger)
        with RunLedger(db) as ledger:
            assert ledger.metrics_count() == 5

"""The run ledger: every measured run, queryable forever.

The paper's evaluation host keeps a database so "users are able to send
queries ... after the testing processes are done" (§III-A1).  This is
that database, and the only one: each row is one run, keyed by one run
id, carrying its metrics (``summary``) beside its provenance — which
trace, which mode vector, which seed, which configuration (hashed),
where its interval-frame file landed, which code (git SHA) produced it
— so any number in any report can be traced back to an exactly
reproducible invocation and compared against any other run.

A host test (:func:`record_test`) is one row with origin ``local`` or
``remote:<node>``; :meth:`RunLedger.tests` reads those rows back as the
paper's :class:`~repro.host.records.TestRecord`, and its per-cycle
series and telemetry snapshot sit in the ``run_attachments`` side
table under the same run id.  Grid sweeps, policy searches and fleet
jobs write their own row kinds to the same file.

Rows are append-only.  ``tracer runs list/show/diff``, ``tracer
report`` and ``tracer export`` all read the same file.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time as _time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..config import TestRequest
from ..errors import DatabaseError
from .records import TestRecord

PathLike = Union[str, Path]

#: Environment variable overriding the recorded git SHA (CI sets this
#: when the working tree is not a checkout).
GIT_SHA_ENV = "TRACER_GIT_SHA"

LEDGER_SCHEMA = """
CREATE TABLE IF NOT EXISTS run_ledger (
    run_id TEXT PRIMARY KEY,
    created REAL NOT NULL,
    origin TEXT NOT NULL,
    trace_label TEXT NOT NULL,
    mode_json TEXT NOT NULL,
    seed INTEGER,
    config_hash TEXT NOT NULL,
    frames_path TEXT NOT NULL DEFAULT '',
    git_sha TEXT NOT NULL DEFAULT '',
    summary_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_ledger_created ON run_ledger (created);
CREATE INDEX IF NOT EXISTS idx_ledger_trace ON run_ledger (trace_label);
CREATE TABLE IF NOT EXISTS run_attachments (
    run_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    PRIMARY KEY (run_id, kind)
);
CREATE TABLE IF NOT EXISTS result_cache (
    cache_key TEXT PRIMARY KEY,
    run_id TEXT NOT NULL,
    created REAL NOT NULL,
    result_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    span_id TEXT PRIMARY KEY,
    trace_id TEXT NOT NULL,
    parent_id TEXT,
    job_id TEXT NOT NULL,
    name TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'ok',
    wall_start REAL NOT NULL DEFAULT 0,
    wall_end REAL NOT NULL DEFAULT 0,
    sim_start REAL,
    sim_end REAL,
    energy_joules REAL,
    attrs_json TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_spans_trace ON spans (trace_id);
CREATE INDEX IF NOT EXISTS idx_spans_job ON spans (job_id);
CREATE TABLE IF NOT EXISTS fleet_metrics (
    created REAL NOT NULL,
    scope TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_fleet_metrics ON fleet_metrics (metric, created);
"""

#: Summary metrics a ledger row carries (flat floats, diffable).
SUMMARY_KEYS = (
    "duration", "completed", "iops", "mbps", "mean_response",
    "mean_watts", "energy_joules", "iops_per_watt", "mbps_per_kilowatt",
)

#: The nominal supply voltage of the power stack (``SensorSpec``'s
#: default); a test's mean current is its mean power at this voltage.
SUPPLY_VOLTS = 220.0

#: The rows :func:`record_test` writes: the paper's test records.  A
#: host row without a device label is an older provenance-only row.
_TEST_ROWS = (
    "(origin = 'local' OR origin LIKE 'remote:%') "
    "AND json_extract(summary_json, '$.device_label') IS NOT NULL"
)

#: ``RunLedger.tests`` orderings, by the paper record's field names.
_TEST_ORDER = {
    "test_time": "created",
    "load_proportion": "json_extract(mode_json, '$.load_proportion')",
    "iops": "json_extract(summary_json, '$.iops')",
    "mbps": "json_extract(summary_json, '$.mbps')",
    "mean_watts": "json_extract(summary_json, '$.mean_watts')",
    "id": "rowid",
}

_GIT_SHA_CACHE: Optional[str] = None


def current_git_sha() -> str:
    """The code identity recorded with each run.

    ``TRACER_GIT_SHA`` wins; otherwise git is asked once per process,
    in this package's own directory (never the caller's working
    directory, which may be some other checkout).  "unknown" when the
    package is not a tracked file of a git checkout, or git fails.
    """
    global _GIT_SHA_CACHE
    import os

    env = os.environ.get(GIT_SHA_ENV, "").strip()
    if env:
        return env
    if _GIT_SHA_CACHE is None:
        import subprocess

        here = Path(__file__).resolve()
        try:
            # A package installed inside some other checkout (a venv in
            # a project repo) is not tracked there: refuse its SHA.
            subprocess.run(
                ["git", "ls-files", "--error-unmatch", here.name],
                cwd=here.parent, capture_output=True, timeout=5.0,
                check=True,
            )
            _GIT_SHA_CACHE = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=here.parent, capture_output=True, text=True,
                timeout=5.0, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE = "unknown"
    return _GIT_SHA_CACHE


def config_fingerprint(
    mode: Dict[str, Any], replay: Optional[Dict[str, Any]] = None
) -> str:
    """Stable hash of a run's full configuration vector."""
    canonical = json.dumps(
        {"mode": mode, "replay": replay or {}},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def summary_from_result(result_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Extract a ledger summary from a flat result dict (wire or local).

    Besides the flat metric floats, the replay's engine provenance
    (``metadata.engine``: analytical kernel vs event-driven) is carried
    when present, so ``tracer runs diff`` can compare runs *across*
    engines and show which path produced each number.
    """
    summary: Dict[str, Any] = {k: result_dict.get(k, 0.0) for k in SUMMARY_KEYS}
    engine = (result_dict.get("metadata") or {}).get("engine")
    if engine:
        summary["engine"] = str(engine)
    return summary


@dataclass(frozen=True)
class RunRecord:
    """One ledger row."""

    run_id: str
    created: float
    origin: str
    trace_label: str
    mode: Dict[str, Any]
    seed: Optional[int]
    config_hash: str
    frames_path: str = ""
    git_sha: str = ""
    summary: Dict[str, float] = field(default_factory=dict)

    def to_row(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "created": self.created,
            "origin": self.origin,
            "trace_label": self.trace_label,
            "mode_json": json.dumps(self.mode, sort_keys=True),
            "seed": self.seed,
            "config_hash": self.config_hash,
            "frames_path": self.frames_path,
            "git_sha": self.git_sha,
            "summary_json": json.dumps(self.summary, sort_keys=True),
        }

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "RunRecord":
        try:
            mode = json.loads(row["mode_json"])
            summary = json.loads(row["summary_json"])
        except json.JSONDecodeError as exc:
            raise DatabaseError(
                f"corrupt JSON in run {row['run_id']!r}: {exc}"
            ) from exc
        return cls(
            run_id=row["run_id"],
            created=row["created"],
            origin=row["origin"],
            trace_label=row["trace_label"],
            mode=mode,
            seed=row["seed"],
            config_hash=row["config_hash"],
            frames_path=row["frames_path"],
            git_sha=row["git_sha"],
            summary=summary,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (``tracer runs show`` prints exactly this)."""
        return {
            "run_id": self.run_id,
            "created": self.created,
            "origin": self.origin,
            "trace_label": self.trace_label,
            "mode": dict(self.mode),
            "seed": self.seed,
            "config_hash": self.config_hash,
            "frames_path": self.frames_path,
            "git_sha": self.git_sha,
            "summary": dict(self.summary),
        }


def new_run_id() -> str:
    """A fresh globally unique run id."""
    return uuid.uuid4().hex[:16]


def build_record(
    result_dict: Dict[str, Any],
    origin: str,
    mode: Dict[str, Any],
    replay: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    frames_path: str = "",
    created: Optional[float] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a flat result summary."""
    seed = (replay or {}).get("seed")
    return RunRecord(
        run_id=run_id if run_id is not None else new_run_id(),
        created=created if created is not None else _time.time(),
        origin=origin,
        trace_label=str(result_dict.get("trace_label", "")),
        mode=dict(mode),
        seed=int(seed) if seed is not None else None,
        config_hash=config_fingerprint(mode, replay),
        frames_path=str(frames_path),
        git_sha=current_git_sha(),
        summary=summary_from_result(result_dict),
    )


class RunLedger:
    """sqlite-backed append-only store of :class:`RunRecord`."""

    def __init__(self, path: PathLike = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        legacy = self._conn.execute(
            "SELECT 1 FROM sqlite_master "
            "WHERE type = 'table' AND name = 'test_records'"
        ).fetchone()
        if legacy is not None:
            # A results file from before the ledger held the test
            # records: opening it as a ledger would report none.
            self._conn.close()
            raise DatabaseError(
                f"{self.path} is a legacy results database (table "
                "test_records); its records are not run-ledger rows"
            )
        with self._conn:
            self._conn.executescript(LEDGER_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def append(self, record: RunRecord) -> str:
        """Store one run; returns its id.  Duplicate ids are an error."""
        row = record.to_row()
        columns = ", ".join(row)
        placeholders = ", ".join(f":{k}" for k in row)
        try:
            with self._conn:
                self._conn.execute(
                    f"INSERT INTO run_ledger ({columns}) "
                    f"VALUES ({placeholders})",
                    row,
                )
        except sqlite3.Error as exc:
            raise DatabaseError(f"ledger append failed: {exc}") from exc
        return record.run_id

    def get(self, run_id: str) -> RunRecord:
        """Fetch by exact id, or by unique prefix (CLI convenience)."""
        cur = self._conn.execute(
            "SELECT * FROM run_ledger WHERE run_id = ?", (run_id,)
        )
        row = cur.fetchone()
        if row is None:
            cur = self._conn.execute(
                "SELECT * FROM run_ledger WHERE run_id LIKE ? "
                "ORDER BY run_id LIMIT 3",
                (run_id + "%",),
            )
            rows = cur.fetchall()
            if len(rows) == 1:
                row = rows[0]
            elif len(rows) > 1:
                raise DatabaseError(
                    f"run id prefix {run_id!r} is ambiguous"
                )
        if row is None:
            raise DatabaseError(f"no run with id {run_id!r}")
        return RunRecord.from_row(dict(row))

    def list(
        self,
        trace_label: Optional[str] = None,
        origin: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Runs newest-first, optionally filtered."""
        clauses = []
        params: list = []
        if trace_label is not None:
            clauses.append("trace_label = ?")
            params.append(trace_label)
        if origin is not None:
            # Exact origin, or any origin nested under it: ``fleet``
            # matches every ``fleet/job:<id>`` row while ``cell:<id>``
            # and ``fleet/job:<id>`` still filter exactly.
            clauses.append("(origin = ? OR origin LIKE ? || '/%')")
            params.extend([origin, origin])
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            f"SELECT * FROM run_ledger {where} "
            "ORDER BY created DESC, run_id DESC"
        )
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        cur = self._conn.execute(sql, params)
        return [RunRecord.from_row(dict(row)) for row in cur.fetchall()]

    def count(self) -> int:
        cur = self._conn.execute("SELECT COUNT(*) AS n FROM run_ledger")
        return int(cur.fetchone()["n"])

    # -- The paper's test records --------------------------------------------
    #
    # A host test is one ``local`` / ``remote:<node>`` row (see
    # :func:`record_test`); these read those rows back as TestRecords.

    def tests(
        self,
        device_label: Optional[str] = None,
        request_size: Optional[int] = None,
        random_ratio: Optional[float] = None,
        read_ratio: Optional[float] = None,
        load_proportion: Optional[float] = None,
        label: Optional[str] = None,
        order_by: str = "test_time",
    ) -> List[TestRecord]:
        """Filtered retrieval; any combination of workload-mode fields.

        Ratios match within 1e-9; rows tie-break in insertion order.
        """
        if order_by not in _TEST_ORDER:
            raise DatabaseError(f"cannot order by {order_by!r}")
        clauses = [_TEST_ROWS]
        params: list = []
        for column, value in (
            ("json_extract(summary_json, '$.device_label')", device_label),
            ("json_extract(mode_json, '$.request_size')", request_size),
            ("json_extract(summary_json, '$.label')", label),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        for key, value in (
            ("random_ratio", random_ratio),
            ("read_ratio", read_ratio),
            ("load_proportion", load_proportion),
        ):
            if value is not None:
                clauses.append(
                    f"ABS(json_extract(mode_json, '$.{key}') - ?) < 1e-9"
                )
                params.append(value)
        try:
            rows = self._conn.execute(
                f"SELECT * FROM run_ledger WHERE {' AND '.join(clauses)} "
                f"ORDER BY {_TEST_ORDER[order_by]}, rowid",
                params,
            ).fetchall()
        except sqlite3.Error as exc:  # e.g. malformed JSON in a row
            raise DatabaseError(f"test query failed: {exc}") from exc
        return [
            TestRecord.from_run(RunRecord.from_row(dict(row))) for row in rows
        ]

    def devices(self) -> List[str]:
        """Distinct device labels of the stored tests."""
        cur = self._conn.execute(
            "SELECT DISTINCT json_extract(summary_json, '$.device_label') "
            f"AS device FROM run_ledger WHERE {_TEST_ROWS} ORDER BY device"
        )
        return [row["device"] for row in cur.fetchall()]

    def attach(self, run_id: str, kind: str, payload: Any) -> None:
        """Store one JSON payload of a run (``cycles``, ``telemetry``)."""
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO run_attachments "
                    "(run_id, kind, payload_json) VALUES (?, ?, ?)",
                    (run_id, kind, json.dumps(payload, sort_keys=True)),
                )
        except sqlite3.Error as exc:
            raise DatabaseError(f"attach failed: {exc}") from exc

    def attachment(self, run_id: str, kind: str) -> Optional[Any]:
        """A run's stored payload of one kind, or None."""
        cur = self._conn.execute(
            "SELECT payload_json FROM run_attachments "
            "WHERE run_id = ? AND kind = ?",
            (run_id, kind),
        )
        row = cur.fetchone()
        return json.loads(row["payload_json"]) if row is not None else None

    # -- Result cache --------------------------------------------------------
    #
    # The fleet scheduler dedupes identical (trace fingerprint, config
    # fingerprint) jobs against this table: the first execution stores
    # its canonical result bytes, every later identical submission is
    # served from here — byte-identical — without replaying.

    def cache_put(
        self, cache_key: str, result_json: str, run_id: str,
        created: Optional[float] = None,
    ) -> None:
        """Store one job's canonical result under its dedup key.

        Idempotent: re-putting an existing key keeps the first entry
        (the cache is a record of the *first* execution; identical jobs
        produce identical bytes anyway).
        """
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT OR IGNORE INTO result_cache "
                    "(cache_key, run_id, created, result_json) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        cache_key, run_id,
                        created if created is not None else _time.time(),
                        result_json,
                    ),
                )
        except sqlite3.Error as exc:
            raise DatabaseError(f"result-cache put failed: {exc}") from exc

    def cache_get(self, cache_key: str) -> Optional[Dict[str, Any]]:
        """Look a dedup key up; ``{"run_id", "result_json"}`` or None."""
        cur = self._conn.execute(
            "SELECT run_id, result_json FROM result_cache WHERE cache_key = ?",
            (cache_key,),
        )
        row = cur.fetchone()
        if row is None:
            return None
        return {"run_id": row["run_id"], "result_json": row["result_json"]}

    def cache_size(self) -> int:
        cur = self._conn.execute("SELECT COUNT(*) AS n FROM result_cache")
        return int(cur.fetchone()["n"])

    # -- Span store ----------------------------------------------------------
    #
    # The fleet's distributed traces (repro.telemetry.dtrace): one row
    # per span, keyed by span id, indexed by trace id and fleet job id.
    # ``tracer trace show <job>`` renders a job's rows as a tree.

    def spans_put(self, job_id: str, spans: List[Dict[str, Any]]) -> int:
        """Store one job's span dicts; idempotent per span id."""
        rows = [
            (
                s["span_id"], s["trace_id"], s.get("parent_id"), job_id,
                s.get("name", "?"), s.get("status", "ok"),
                float(s.get("wall_start") or 0.0),
                float(s.get("wall_end") or 0.0),
                s.get("sim_start"), s.get("sim_end"),
                s.get("energy_joules"),
                json.dumps(s.get("attrs") or {}, sort_keys=True),
            )
            for s in spans
        ]
        try:
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO spans (span_id, trace_id, "
                    "parent_id, job_id, name, status, wall_start, wall_end, "
                    "sim_start, sim_end, energy_joules, attrs_json) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
        except sqlite3.Error as exc:
            raise DatabaseError(f"span put failed: {exc}") from exc
        return len(rows)

    @staticmethod
    def _span_from_row(row: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "span_id": row["span_id"],
            "trace_id": row["trace_id"],
            "parent_id": row["parent_id"],
            "job_id": row["job_id"],
            "name": row["name"],
            "status": row["status"],
            "wall_start": row["wall_start"],
            "wall_end": row["wall_end"],
            "sim_start": row["sim_start"],
            "sim_end": row["sim_end"],
            "energy_joules": row["energy_joules"],
            "attrs": json.loads(row["attrs_json"]),
        }

    def spans_for_job(self, job_id: str) -> List[Dict[str, Any]]:
        """A job's spans by exact id or unique prefix, oldest first."""
        cur = self._conn.execute(
            "SELECT * FROM spans WHERE job_id = ? "
            "ORDER BY wall_start, span_id",
            (job_id,),
        )
        rows = cur.fetchall()
        if not rows:
            cur = self._conn.execute(
                "SELECT DISTINCT job_id FROM spans WHERE job_id LIKE ? "
                "ORDER BY job_id LIMIT 3",
                (job_id + "%",),
            )
            matches = [r["job_id"] for r in cur.fetchall()]
            if len(matches) > 1:
                raise DatabaseError(
                    f"job id prefix {job_id!r} is ambiguous: {matches}"
                )
            if matches:
                return self.spans_for_job(matches[0])
        return [self._span_from_row(dict(row)) for row in rows]

    def span_jobs(self) -> List[str]:
        """Every job id with at least one stored span."""
        cur = self._conn.execute(
            "SELECT DISTINCT job_id FROM spans ORDER BY job_id"
        )
        return [row["job_id"] for row in cur.fetchall()]

    def spans_count(self) -> int:
        cur = self._conn.execute("SELECT COUNT(*) AS n FROM spans")
        return int(cur.fetchone()["n"])

    # -- Fleet metrics time-series -------------------------------------------
    #
    # The heartbeat plane: each scheduler heartbeat round appends one
    # row per (scope, metric) sample.  ``scope`` is a worker name, a
    # ``tenant:<name>`` label, or ``fleet`` for scheduler-wide series.

    def metrics_put(self, rows: List[Dict[str, Any]]) -> int:
        """Append fleet-metric samples (``created/scope/metric/value``)."""
        try:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO fleet_metrics (created, scope, metric, "
                    "value) VALUES (?, ?, ?, ?)",
                    [
                        (
                            float(r["created"]), str(r["scope"]),
                            str(r["metric"]), float(r["value"]),
                        )
                        for r in rows
                    ],
                )
        except sqlite3.Error as exc:
            raise DatabaseError(f"fleet-metrics put failed: {exc}") from exc
        return len(rows)

    def metrics_series(
        self,
        metric: Optional[str] = None,
        scope: Optional[str] = None,
        since: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Samples oldest-first, optionally filtered."""
        clauses = []
        params: list = []
        if metric is not None:
            clauses.append("metric = ?")
            params.append(metric)
        if scope is not None:
            clauses.append("scope = ?")
            params.append(scope)
        if since is not None:
            clauses.append("created >= ?")
            params.append(float(since))
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            f"SELECT * FROM fleet_metrics {where} "
            "ORDER BY created, scope, metric"
        )
        if limit is not None:
            # A limited query tails the series: keep the most recent N
            # samples, still returned oldest-first.
            sql = (
                f"SELECT * FROM (SELECT * FROM fleet_metrics {where} "
                "ORDER BY created DESC, scope, metric LIMIT ?) "
                "ORDER BY created, scope, metric"
            )
            params.append(int(limit))
        cur = self._conn.execute(sql, params)
        return [dict(row) for row in cur.fetchall()]

    def metrics_scopes(self) -> List[str]:
        cur = self._conn.execute(
            "SELECT DISTINCT scope FROM fleet_metrics ORDER BY scope"
        )
        return [row["scope"] for row in cur.fetchall()]

    def metrics_count(self) -> int:
        cur = self._conn.execute("SELECT COUNT(*) AS n FROM fleet_metrics")
        return int(cur.fetchone()["n"])

    def diff(self, run_a: str, run_b: str) -> Dict[str, Any]:
        """Compare two runs' summary metrics (b relative to a).

        Non-numeric summary entries (e.g. ``engine``) diff by equality
        instead of delta/percent.
        """
        a = self.get(run_a)
        b = self.get(run_b)
        metrics: Dict[str, Dict[str, Any]] = {}
        for key in sorted(set(a.summary) | set(b.summary)):
            va = a.summary.get(key, 0.0)
            vb = b.summary.get(key, 0.0)
            try:
                fa = float(va)
                fb = float(vb)
            except (TypeError, ValueError):
                metrics[key] = {"a": va, "b": vb, "equal": va == vb}
                continue
            metrics[key] = {
                "a": fa,
                "b": fb,
                "delta": fb - fa,
                "pct": ((fb - fa) / fa * 100.0) if fa else 0.0,
            }
        return {
            "a": a.run_id,
            "b": b.run_id,
            "same_config": a.config_hash == b.config_hash,
            "same_trace": a.trace_label == b.trace_label,
            "metrics": metrics,
        }


def record_test(
    ledger: RunLedger,
    result_dict: Dict[str, Any],
    request: TestRequest,
    device_label: str,
    origin: str,
    *,
    run_id: Optional[str] = None,
    created: Optional[float] = None,
    frames_dir: Optional[PathLike] = None,
    cycles: Optional[Sequence[Any]] = None,
) -> TestRecord:
    """Record one evaluation-host test as one ledger row.

    ``result_dict`` is the replay's flat summary
    (:meth:`~repro.replay.results.ReplayResult.to_dict`, or the same
    dict off the wire); ``request`` the
    :class:`~repro.config.TestRequest` it ran; ``origin`` ``local`` or
    ``remote:<node>``.  The summary carries the paper's record fields:
    the replay metrics, the mean current and voltage, the device label
    and the request label.  Interval frames (when streamed and
    ``frames_dir`` is set) land in ``frames_dir/run-<run_id>.jsonl``;
    ``cycles`` (the :class:`~repro.replay.results.CycleRecord` series)
    and the telemetry snapshot riding in the result metadata are
    attached under the run id.  Returns the stored row as a
    :class:`~repro.host.records.TestRecord`.
    """
    run_id = run_id if run_id is not None else new_run_id()
    metadata = result_dict.get("metadata") or {}
    frames_path = ""
    frames = metadata.get("interval_frames")
    if frames and frames_dir is not None:
        from ..telemetry.stream import frames_to_jsonl

        path = Path(frames_dir) / f"run-{run_id}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(frames_to_jsonl(frames), encoding="utf-8")
        frames_path = str(path)
    record = build_record(
        result_dict,
        origin=origin,
        mode=request.mode.to_dict(),
        replay=request.to_dict()["replay"],
        run_id=run_id,
        frames_path=frames_path,
        created=created,
    )
    record.summary.update(
        mean_amperes=float(record.summary["mean_watts"]) / SUPPLY_VOLTS,
        mean_volts=SUPPLY_VOLTS,
        device_label=device_label,
        label=request.label,
    )
    ledger.append(record)
    if cycles is not None:
        ledger.attach(
            run_id, "cycles",
            [{"cycle_index": i, **asdict(c)} for i, c in enumerate(cycles)],
        )
    if metadata.get("telemetry"):
        ledger.attach(run_id, "telemetry", metadata["telemetry"])
    return TestRecord.from_run(record)


def record_grid_run(
    ledger: RunLedger,
    outcome,
    config=None,
    run_id: Optional[str] = None,
) -> str:
    """Record a grid sweep: one parent row plus one row per cell.

    The parent row (``origin="grid"``) carries the sweep's axes and
    shape in ``mode`` and the engine mix / timing in ``summary``; each
    cell lands as its own row with ``origin="cell:<parent_id>"`` and the
    cell coordinates as its mode vector, so ``tracer runs list
    --origin cell:<id>`` walks a sweep and ``tracer runs diff`` compares
    any two cells (within or across sweeps).

    ``outcome`` is a :class:`repro.workload.parallel.GridOutcome`;
    ``config`` the sweep's :class:`~repro.config.ReplayConfig` (hashed
    into every row's config fingerprint).  Returns the parent run id.
    """
    replay = asdict(config) if config is not None else None
    parent_id = run_id if run_id is not None else new_run_id()
    mode = {
        "devices": list(outcome.devices),
        "traces": list(outcome.traces),
        "loads": list(outcome.loads),
        "time_scales": list(outcome.time_scales),
        "shape": list(outcome.shape),
    }
    summary: Dict[str, Any] = {
        "cells": float(len(outcome.cells)),
        "fused_cells": float(outcome.fused_cells),
        "fallback_cells": float(len(outcome.fallback_reasons)),
        "elapsed_seconds": float(outcome.elapsed_seconds),
    }
    for engine, count in sorted(outcome.engines.items()):
        summary[f"{engine}_cells"] = float(count)
    parent = RunRecord(
        run_id=parent_id,
        created=_time.time(),
        origin="grid",
        trace_label=",".join(outcome.traces),
        mode=mode,
        seed=(replay or {}).get("seed"),
        config_hash=config_fingerprint(mode, replay),
        git_sha=current_git_sha(),
        summary=summary,
    )
    ledger.append(parent)
    for cell in outcome.cells:
        cell_mode = {
            "device": cell.device,
            "trace": cell.trace,
            "load": cell.load,
            "time_scale": cell.time_scale,
            "fused": cell.fused,
        }
        record = build_record(
            cell.result.to_dict(),
            origin=f"cell:{parent_id}",
            mode=cell_mode,
            replay=replay,
        )
        ledger.append(record)
    return parent_id


def record_search_run(
    ledger: RunLedger,
    outcome,
    config=None,
    run_id: Optional[str] = None,
) -> str:
    """Record a policy search: one parent row plus one row per scored cell.

    The parent row (``origin="search"``) carries the search axes —
    devices, traces, loads, time-scales, *and policies* — plus the
    engine mix and timing, so ``tracer runs list --origin search``
    enumerates searches.  Every (base cell × policy) point lands as its
    own row with ``origin="cell:<parent_id>"``, the policy name and
    parameters in its mode vector, and the policy metrics as its
    diffable summary, so ``tracer runs list --origin cell:<id>`` walks
    one search's full matrix and ``tracer runs diff`` compares any two
    policy cells.

    ``outcome`` is a :class:`repro.search.SearchOutcome`; ``config`` the
    search's :class:`~repro.config.ReplayConfig`.  Returns the parent
    run id.
    """
    replay = asdict(config) if config is not None else None
    parent_id = run_id if run_id is not None else new_run_id()
    mode = {
        "devices": list(outcome.devices),
        "traces": list(outcome.traces),
        "loads": list(outcome.loads),
        "time_scales": list(outcome.time_scales),
        "policies": list(outcome.policies),
        "shape": list(outcome.shape),
        "sampling_cycle": outcome.sampling_cycle,
    }
    summary: Dict[str, Any] = {
        "base_cells": float(outcome.base_cells),
        "cells": float(len(outcome.cells)),
        "frontier_cells": float(len(outcome.frontier())),
        "fused_cells": float(outcome.fused_cells),
        "fallback_cells": float(len(outcome.fallback_reasons)),
        "elapsed_seconds": float(outcome.elapsed_seconds),
    }
    for engine, count in sorted(outcome.engines.items()):
        summary[f"{engine}_cells"] = float(count)
    parent = RunRecord(
        run_id=parent_id,
        created=_time.time(),
        origin="search",
        trace_label=",".join(outcome.traces),
        mode=mode,
        seed=(replay or {}).get("seed"),
        config_hash=config_fingerprint(mode, replay),
        git_sha=current_git_sha(),
        summary=summary,
    )
    ledger.append(parent)
    for cell in outcome.cells:
        m = cell.metrics
        cell_mode = {
            "device": cell.device,
            "trace": cell.trace,
            "load": cell.load,
            "time_scale": cell.time_scale,
            "policy": cell.policy,
            "params": dict(sorted(m.params.items())),
            "fused": cell.fused,
        }
        cell_summary: Dict[str, Any] = {
            "energy_joules": m.energy_joules,
            "mean_watts": m.mean_watts,
            "energy_per_io": m.energy_per_io,
            "iops": m.iops,
            "iops_per_watt": m.iops_per_watt,
            "mean_response": m.mean_response,
            "p99_response": m.p99_response,
            "transitions": float(m.transitions),
            "on_frontier": 1.0 if cell.on_frontier else 0.0,
        }
        if m.energy_saving is not None:
            cell_summary["energy_saving"] = m.energy_saving
        if m.response_penalty is not None:
            cell_summary["response_penalty"] = m.response_penalty
        ledger.append(
            RunRecord(
                run_id=new_run_id(),
                created=_time.time(),
                origin=f"cell:{parent_id}",
                trace_label=cell.trace,
                mode=cell_mode,
                seed=(replay or {}).get("seed"),
                config_hash=config_fingerprint(cell_mode, replay),
                git_sha=current_git_sha(),
                summary=cell_summary,
            )
        )
    return parent_id


def record_fleet_job(
    ledger: RunLedger,
    job_id: str,
    tenant: str,
    spec_dict: Dict[str, Any],
    result_dict: Dict[str, Any],
    cache_hit: bool,
    attempts: int,
    worker: str = "",
    dump_path: str = "",
) -> str:
    """Record one fleet job's provenance row.

    Every fleet job — executed or served from the dedup cache — lands as
    its own row with ``origin="fleet/job:<job_id>"``, so ``tracer runs
    list --origin fleet`` enumerates the fleet's whole history (origin
    prefix matching) while ``--origin fleet/job:<id>`` pins one job.
    The mode vector carries the full job spec plus tenancy; the summary
    carries the replay metrics (when the job is a replay) alongside
    scheduling provenance: how many dispatch ``attempts`` the job took
    (>1 means a worker died mid-job) and whether it was a cache hit.
    """
    summary = summary_from_result(result_dict)
    summary["attempts"] = float(attempts)
    summary["cache_hit"] = 1.0 if cache_hit else 0.0
    mode = dict(spec_dict)
    mode["tenant"] = tenant
    if worker:
        mode["worker"] = worker
    if dump_path:
        # A worker died during this job and the flight recorder dumped
        # its ring buffer; the path makes the black box findable from
        # the job's provenance row.
        mode["flightrec_dump"] = dump_path
    seed = spec_dict.get("seed")
    record = RunRecord(
        run_id=job_id,
        created=_time.time(),
        origin=f"fleet/job:{job_id}",
        trace_label=str(spec_dict.get("trace", "")),
        mode=mode,
        seed=int(seed) if seed is not None else None,
        config_hash=config_fingerprint(mode, None),
        git_sha=current_git_sha(),
        summary=summary,
    )
    ledger.append(record)
    return job_id

"""CI streaming-observability smoke.

Exercises the full streaming stack end-to-end the way CI drives it:

1. a short **remote** replay (real TCP, in-process ``GeneratorNode``)
   streams live PROGRESS frames under ``TRACER_TELEMETRY_INTERVAL``,
   persisting the interval-frame JSONL and a run-ledger row;
2. the ledger row round-trips through a ``tracer runs show`` subprocess,
   and the same row reads back as the test's record through a ``tracer
   report`` subprocess;
3. a fault-injected local replay fails a RAID-5 member mid-run, which
   autodumps the **armed** flight recorder (``TRACER_FLIGHTREC``);
4. a local ``tracer replay --live`` of the same trace stays on the
   analytical kernel, and its frames file and live rows are
   byte-identical to an ``--engine event`` run's.

Run from the repository root::

    TRACER_TELEMETRY_INTERVAL=1 TRACER_FLIGHTREC=artifacts/flightrec.jsonl \
        PYTHONPATH=src python scripts/ci_streaming_smoke.py artifacts

Artifacts land under the given directory (default ``artifacts/``):
``frames/run-<id>.jsonl``, ``runs.sqlite``, the flightrec dump, and
``live-auto.jsonl`` / ``live-event.jsonl``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


def main(workdir: str = "artifacts") -> None:
    out = Path(workdir)
    out.mkdir(parents=True, exist_ok=True)

    from repro.config import ReplayConfig, TestRequest, WorkloadMode
    from repro.distributed.generator_node import GeneratorNode
    from repro.distributed.host_node import RemoteEvaluationHost
    from repro.faults import DiskFailFault, FaultSchedule
    from repro.host.ledger import RunLedger
    from repro.replay.session import replay_trace
    from repro.storage.array import build_hdd_raid5
    from repro.telemetry.stream import resolve_interval
    from repro.trace.blktrace import write_trace
    from repro.trace.repository import TraceName, TraceRepository
    from repro.workload.matrix import collect_trace

    interval = resolve_interval(None) or 1.0
    mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
    trace = collect_trace(lambda: build_hdd_raid5(6), mode, 2.0, seed=23)

    repo = TraceRepository(out / "repo")
    repo.store(TraceName("hdd-raid5", 4096, 0.5, 0.0), trace, overwrite=True)

    # 1. Remote streamed replay: live frames + frames file + ledger row.
    ledger_path = out / "runs.sqlite"
    live = []
    with GeneratorNode(
        lambda: build_hdd_raid5(6), "hdd-raid5", repo, node_id="ci-gen"
    ) as node:
        with RemoteEvaluationHost(
            "127.0.0.1",
            node.port,
            ledger=RunLedger(ledger_path),
            frames_dir=out / "frames",
        ) as host:
            record = host.run_test(
                TestRequest(
                    mode=mode.at_load(0.5),
                    replay=ReplayConfig(seed=23),
                    label="ci-smoke",
                ),
                on_progress=live.append,
                stream_interval=interval,
            )
    assert live, "no live PROGRESS frames delivered"
    assert record.iops > 0, "remote replay produced no throughput"

    with RunLedger(ledger_path) as ledger:
        assert ledger.count() == 1, "remote run did not land in the ledger"
        row = ledger.list()[0]
    frames_file = Path(row.frames_path)
    assert frames_file.exists() and frames_file.read_text().strip(), (
        "interval-frame JSONL missing or empty"
    )
    print(
        f"streamed {len(live)} live frames from {row.origin}; "
        f"persisted {frames_file}"
    )

    # 2. The ledger row round-trips through the CLI (unique prefix).
    shown = json.loads(
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "runs", "show",
             str(ledger_path), row.run_id[:8]],
            check=True, capture_output=True, text=True,
        ).stdout
    )
    assert shown["run_id"] == row.run_id
    assert shown["summary"]["iops"] == row.summary["iops"]
    assert shown["config_hash"] == row.config_hash
    print(f"ledger row {row.run_id} round-trips through `tracer runs show`")

    # The test's record is that same row: `tracer report` renders it.
    assert record.record_id == row.run_id
    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "report", str(ledger_path)],
        check=True, capture_output=True, text=True,
    ).stdout
    assert "1 test records across 1 device(s): hdd-raid5." in report, report
    assert f"| 50 | {record.iops:.1f} | {record.mbps:.2f} |" in report, report
    print(f"ledger row {row.run_id} reads back through `tracer report`")

    # 3. Armed flight recorder autodumps on a mid-replay disk failure.
    dump_path = os.environ.get("TRACER_FLIGHTREC", "").strip()
    assert dump_path, "run with TRACER_FLIGHTREC=<path> to arm the recorder"
    faults = FaultSchedule(
        seed=1, disk_failures=(DiskFailFault(at=0.3, member=1),)
    )
    replay_trace(
        trace, build_hdd_raid5(6), 0.5,
        config=ReplayConfig(seed=23), faults=faults,
    )
    dump = Path(dump_path)
    assert dump.exists(), "armed flight recorder did not dump on disk failure"
    header = json.loads(dump.read_text().splitlines()[0])
    assert header.get("reason") == "disk_failure", header
    print(f"flight recorder dumped {dump} (reason={header['reason']})")

    # 4. Watching a local replay does not choose its engine.
    trace_file = out / "smoke.replay"
    write_trace(trace, trace_file)
    outputs = {}
    for engine in ("auto", "event"):
        outputs[engine] = subprocess.run(
            [sys.executable, "-m", "repro.cli", "replay", str(trace_file),
             "--load", "50", "--live", "--stream-interval", "0.25",
             "--engine", engine,
             "--frames", str(out / f"live-{engine}.jsonl")],
            check=True, capture_output=True, text=True,
        ).stdout
    assert "engine: kernel\n" in outputs["auto"], outputs["auto"]
    assert "engine: event\n" in outputs["event"], outputs["event"]
    auto_frames = (out / "live-auto.jsonl").read_bytes()
    assert auto_frames, "live replay wrote no interval frames"
    assert auto_frames == (out / "live-event.jsonl").read_bytes(), (
        "kernel and event frame files differ"
    )
    rows = {e: o.split("replay of")[0] for e, o in outputs.items()}
    assert rows["auto"] == rows["event"], "live rows differ between engines"
    print(f"`tracer replay --live` stayed on the kernel; "
          f"{len(auto_frames.splitlines())} frames byte-identical to the "
          "event engine's")
    print("streaming smoke OK")


if __name__ == "__main__":
    main(*sys.argv[1:2])

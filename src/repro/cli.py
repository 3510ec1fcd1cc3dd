"""Command-line interface: ``python -m repro`` / ``tracer``.

Subcommands mirror the evaluation workflow of §III-B:

* ``collect``  — build (part of) the synthetic trace matrix into a repository;
* ``convert``  — transform an HP ``.srt`` text trace to ``.replay``;
* ``stats``    — print Table-III-style statistics of a trace file;
* ``replay``   — replay a trace at a load proportion (``--live`` streams
  interval-frame rows, the GUI stand-in);
* ``sweep``    — full load sweep (10 %..100 %), one ledger row per level;
* ``repo``     — list a trace repository;
* ``profile``  — distributional workload characterisation;
* ``compare``  — statistical similarity of two traces;
* ``headroom`` — SLO-bounded intensity bisection (the Fig. 2 knob);
* ``telemetry`` — instrumented replay with a metrics dump (JSONL /
  Prometheus exports, see ``docs/observability.md``);
* ``serve``    — run a workload-generator node (Fig. 3);
* ``watch``    — live view of a remote replay (streamed interval frames);
* ``flightrec`` — dump the in-process flight recorder;
* ``runs``     — query the run ledger (``list`` / ``show`` / ``diff``);
* ``search``   — energy-policy Pareto search: one fused replay grid,
  every cell re-scored under each policy, ranked by IOPS/Watt
  (``--verify`` re-derives every cell per point and diffs bit-for-bit);
* ``report`` / ``export`` — markdown report / CSV of a ledger's test rows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional

from .config import ReplayConfig, TestRequest, WorkloadMode, LOAD_LEVELS
from .host.evaluation import EvaluationHost
from .host.ledger import RunLedger
from .metrics.summary import format_table, summarize
from .replay.session import ReplaySession
from .storage.array import build_hdd_raid5, build_ssd_raid5
from .trace.blktrace import read_trace, read_trace_packed
from .trace.repository import TraceRepository
from .trace.srt import convert_srt_file
from .trace.stats import compute_stats
from .workload.matrix import build_matrix, matrix_modes


def _device_factory(kind: str, n_disks: int) -> Callable:
    # functools.partial, not a lambda: grid/pool paths ship the factory
    # across process boundaries.
    from functools import partial

    from .storage.array import RaidLevel

    if kind == "hdd-raid5":
        return partial(build_hdd_raid5, n_disks)
    if kind == "ssd-raid5":
        return partial(build_ssd_raid5, n_disks)
    if kind == "hdd-raid0":
        return partial(
            build_hdd_raid5, n_disks, name="hdd-raid0", level=RaidLevel.RAID0
        )
    if kind == "ssd-raid0":
        return partial(
            build_ssd_raid5, n_disks, name="ssd-raid0", level=RaidLevel.RAID0
        )
    raise SystemExit(
        f"unknown device type {kind!r} "
        "(hdd-raid5 | ssd-raid5 | hdd-raid0 | ssd-raid0)"
    )


def _add_device_args(parser: argparse.ArgumentParser, default_disks: int = 6) -> None:
    parser.add_argument(
        "--device",
        default="hdd-raid5",
        choices=["hdd-raid5", "ssd-raid5", "hdd-raid0", "ssd-raid0"],
        help="simulated device under test",
    )
    parser.add_argument(
        "--disks", type=int, default=default_disks, help="member disk count"
    )


def cmd_collect(args: argparse.Namespace) -> int:
    repo = TraceRepository(args.repository)
    modes = matrix_modes()
    if args.limit:
        modes = modes[: args.limit]
    results = build_matrix(
        _device_factory(args.device, args.disks),
        repo,
        args.device,
        duration=args.duration,
        modes=modes,
        overwrite=args.overwrite,
    )
    for name, bunches in results:
        print(f"{name.filename}: {bunches} bunches")
    print(f"repository now holds {len(repo)} traces at {repo.root}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    trace = convert_srt_file(args.src, args.dst, device=args.srt_device)
    print(f"converted {args.src} -> {args.dst}: {len(trace)} bunches, "
          f"{trace.package_count} packages")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    st = compute_stats(trace)
    print(f"trace           : {args.trace}")
    print(f"bunches         : {st.bunch_count}")
    print(f"packages        : {st.package_count}")
    print(f"duration        : {st.duration:.3f} s")
    print(f"total data      : {st.total_bytes / 1e6:.2f} MB")
    print(f"dataset         : {st.dataset_gib:.3f} GiB")
    print(f"read ratio      : {st.read_ratio * 100:.2f} %")
    print(f"random ratio    : {st.random_ratio * 100:.2f} %")
    print(f"mean req size   : {st.mean_request_kib:.2f} KiB")
    print(f"mean bunch size : {st.mean_bunch_size:.2f}")
    print(f"offered IOPS    : {st.iops:.1f}")
    print(f"offered MBPS    : {st.mbps:.2f}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .replay.console import LiveFrameRenderer
    from .telemetry.flightrec import arm_autodump
    from .telemetry.stream import write_frames_jsonl

    if args.flightrec:
        arm_autodump(args.flightrec)
    trace = read_trace_packed(args.trace)
    device = _device_factory(args.device, args.disks)()
    interval = args.stream_interval if args.stream_interval > 0 else None
    if interval is None and args.live:
        interval = args.cycle
    renderer = LiveFrameRenderer() if args.live else None
    session = ReplaySession(
        device,
        config=ReplayConfig(
            sampling_cycle=args.cycle,
            time_scale=args.time_scale,
            engine=args.engine,
        ),
        stream_interval=interval,
        on_frame=renderer.on_frame if renderer is not None else None,
    )
    result = session.run(trace, load_proportion=args.load / 100.0)
    print(format_table(summarize([result]), title=f"replay of {args.trace}"))
    _print_engine(result)
    if args.frames and result.interval_frames:
        write_frames_jsonl(result.interval_frames, args.frames)
        print(f"interval frames written to {args.frames}")
    return 0


def _print_engine(result) -> None:
    engine = result.metadata.get("engine", "event")
    fallback = result.metadata.get("engine_fallback")
    print(f"engine: {engine}" + (f" (fell back: {fallback})" if fallback else ""))


def _parse_axis(text: str, flag: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated numbers: {text!r}")
    if not values:
        raise SystemExit(f"{flag} expects at least one value")
    return values


def cmd_sweep_grid(args: argparse.Namespace) -> int:
    from .workload.parallel import run_grid

    trace = read_trace_packed(args.trace)
    loads = _parse_axis(args.loads, "--loads")
    time_scales = _parse_axis(args.time_scales, "--time-scales")
    factory = _device_factory(args.device, args.disks)
    outcome = run_grid(
        {Path(args.trace).stem: trace},
        {args.device: factory},
        loads=loads,
        time_scales=time_scales,
        config=ReplayConfig(engine=args.engine),
        engine=args.engine,
    )
    print(f"{'load%':>6} {'scale':>6} {'IOPS':>10} {'MBPS':>9} "
          f"{'Watts':>8} {'IOPS/W':>8} {'engine':>7}")
    for cell in outcome.cells:
        r = cell.result
        print(
            f"{cell.load * 100:>5.0f}% {cell.time_scale:>6g} "
            f"{r.iops:>10.1f} {r.mbps:>9.2f} {r.mean_watts:>8.2f} "
            f"{r.iops_per_watt:>8.2f} {cell.engine:>7}"
        )
    d, t, l, s = outcome.shape
    mix = ", ".join(f"{k}={v}" for k, v in sorted(outcome.engines.items()))
    print(f"grid {d}x{t}x{l}x{s} ({len(outcome.cells)} cells, "
          f"{outcome.fused_cells} fused) in {outcome.elapsed_seconds:.2f}s; "
          f"engines: {mix}")
    for key, reason in outcome.fallback_reasons.items():
        print(f"  fallback {key}: {reason}")
    if args.ledger:
        from .host.ledger import record_grid_run

        with RunLedger(args.ledger) as ledger:
            run_id = record_grid_run(
                ledger, outcome, config=ReplayConfig(engine=args.engine)
            )
        print(f"recorded as run {run_id} (+{len(outcome.cells)} cell rows) "
              f"in {args.ledger}")
    return 0


def _split_policy_specs(text: str) -> List[str]:
    """Split ``--policies`` into specs, keeping params with their policy.

    Commas separate policies *and* parameters, so a segment containing
    ``=`` but no ``:`` continues the previous spec:
    ``maid:idle_timeout=5,drpm:step_timeout=1,transition_time=0.5``
    is two specs, the second with two parameters.
    """
    specs: List[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if specs and "=" in part and ":" not in part:
            specs[-1] += "," + part
        else:
            specs.append(part)
    return specs


def cmd_search(args: argparse.Namespace) -> int:
    from .analysis.export import render_json
    from .analysis.report import search_report
    from .energysaving.policy import PolicyError
    from .search import build_policies, verify_search
    from .workload.parallel import run_policy_search

    trace = read_trace_packed(args.trace)
    loads = _parse_axis(args.loads, "--loads")
    time_scales = _parse_axis(args.time_scales, "--time-scales")
    try:
        policies = build_policies(_split_policy_specs(args.policies))
    except PolicyError as exc:
        raise SystemExit(str(exc))
    if not policies:
        raise SystemExit("--policies expects at least one policy spec")
    traces = {Path(args.trace).stem: trace}
    devices = {args.device: _device_factory(args.device, args.disks)}
    config = ReplayConfig(sampling_cycle=args.cycle, engine=args.engine)
    try:
        outcome = run_policy_search(
            traces,
            devices,
            policies,
            loads=loads,
            time_scales=time_scales,
            config=config,
            engine=args.engine,
        )
    except PolicyError as exc:
        raise SystemExit(str(exc))

    if args.frontier:
        # Machine-friendly frontier listing instead of the full report.
        for cell in outcome.frontier():
            m = cell.metrics
            print(f"{cell.key} energy={m.energy_joules:.3f}J "
                  f"resp={m.mean_response * 1000:.3f}ms "
                  f"iops_per_watt={m.iops_per_watt:.3f}")
    else:
        print(search_report(outcome, top=args.top))
    if args.output:
        Path(args.output).write_text(search_report(outcome, top=args.top))
        print(f"report written to {args.output}")
    if args.json:
        Path(args.json).write_text(render_json(outcome.to_dict()))
        print(f"search outcome written to {args.json}")
    if args.ledger:
        from .host.ledger import record_search_run

        with RunLedger(args.ledger) as ledger:
            run_id = record_search_run(ledger, outcome, config=config)
        print(f"recorded as run {run_id} (+{len(outcome.cells)} cell rows) "
              f"in {args.ledger}")
    if args.verify:
        mismatches = verify_search(
            outcome, traces, devices, policies, config=config
        )
        if mismatches:
            print(f"VERIFY FAILED: {len(mismatches)} mismatch(es)")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print(f"verified: {outcome.base_cells} base cell(s) x "
              f"{len(outcome.policies)} policies re-derived per point, "
              "bit-identical")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid:
        return cmd_sweep_grid(args)
    trace = read_trace(args.trace)
    repo = TraceRepository(args.repository) if args.repository else TraceRepository(
        Path(args.trace).parent
    )
    st = compute_stats(trace)
    mode = WorkloadMode(
        request_size=max(int(st.mean_request_bytes), 512),
        random_ratio=min(max(st.random_ratio, 0.0), 1.0),
        read_ratio=min(max(st.read_ratio, 0.0), 1.0),
    )
    with RunLedger(args.database or ":memory:") as ledger:
        host = EvaluationHost(
            _device_factory(args.device, args.disks),
            args.device,
            repository=repo,
            ledger=ledger,
        )
        records = host.run_load_sweep(
            mode, trace=trace, label=Path(args.trace).stem
        )
    print(f"{'load%':>6} {'IOPS':>10} {'MBPS':>9} {'Watts':>8} "
          f"{'IOPS/W':>8} {'MBPS/kW':>9}")
    for rec in records:
        print(
            f"{rec.mode.load_proportion * 100:>5.0f}% {rec.iops:>10.1f} "
            f"{rec.mbps:>9.2f} {rec.mean_watts:>8.2f} "
            f"{rec.iops_per_watt:>8.2f} {rec.mbps_per_kilowatt:>9.1f}"
        )
    if args.database:
        print(f"records stored in {args.database}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.profile import format_profile, profile_trace

    trace = read_trace(args.trace)
    profile = profile_trace(trace)
    print(format_profile(profile, title=f"workload profile — {args.trace}"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import database_report

    with _open_ledger(args.database) as ledger:
        text = database_report(ledger, title=args.title)
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_records_csv

    with _open_ledger(args.database) as ledger:
        count = export_records_csv(ledger.tests(), args.csv)
    print(f"exported {count} records to {args.csv}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.similarity import compare_traces, format_similarity

    original = read_trace(args.original)
    manipulated = read_trace(args.manipulated)
    sim = compare_traces(original, manipulated)
    print(f"similarity of {args.manipulated} vs {args.original}:")
    print(format_similarity(sim))
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    """Cut a time window out of a trace and rebase it to t=0."""
    from .trace.blktrace import write_trace
    from .trace.ops import rebase, time_window

    trace = read_trace(args.trace)
    window = rebase(time_window(trace, args.start, args.end))
    if len(window) == 0:
        print(f"window [{args.start}, {args.end}) selects no bunches")
        return 1
    write_trace(window, args.output)
    print(f"{args.output}: {len(window)} bunches / "
          f"{window.package_count} packages "
          f"({window.duration:.3f} s)")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """Remap a trace's addresses into a smaller device's range."""
    from .trace.blktrace import write_trace
    from .trace.ops import fit_to_capacity

    trace = read_trace(args.trace)
    fitted = fit_to_capacity(trace, args.capacity_sectors, mode=args.mode)
    write_trace(fitted, args.output)
    print(f"{args.output}: fitted to {args.capacity_sectors} sectors "
          f"({args.mode} mode), {fitted.package_count} packages")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a workload-generator node (Fig. 3's generator machine)."""
    import threading

    from .distributed.generator_node import GeneratorNode

    repo = TraceRepository(args.repository)
    node = GeneratorNode(
        _device_factory(args.device, args.disks),
        args.device,
        repo,
        host=args.bind,
        port=args.port,
        node_id=args.node_id,
    )
    node.start()
    print(f"generator node {args.node_id!r} serving {args.device} "
          f"on {args.bind}:{node.port} "
          f"({len(repo)} traces in {repo.root})")
    try:
        if args.max_tests:
            # Scriptable mode: exit once N tests have been served.
            while node.tests_served < args.max_tests:
                threading.Event().wait(0.05)
        else:  # pragma: no cover - interactive mode
            threading.Event().wait()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        node.stop()
    print(f"served {node.tests_served} tests; shutting down")
    return 0


def cmd_headroom(args: argparse.Namespace) -> int:
    from .analysis.headroom import HeadroomError, find_headroom

    trace = read_trace(args.trace)
    factory = _device_factory(args.device, args.disks)
    try:
        result = find_headroom(
            trace,
            factory,
            response_slo=args.slo_ms / 1000.0,
            metric=args.metric,
            max_intensity=args.max_intensity,
        )
    except HeadroomError as exc:
        print(f"headroom search failed: {exc}")
        return 1
    print(f"{'intensity':>10} {'resp ms':>9} {'IOPS':>9} {'Watts':>8}")
    for p in sorted(result.probes, key=lambda p: p.intensity):
        print(
            f"{p.intensity:>9.2f}x {p.mean_response * 1000:>9.2f} "
            f"{p.iops:>9.1f} {p.mean_watts:>8.2f}"
        )
    if result.first_violation == float("inf"):
        print(f"sustains >= {result.saturation_intensity:.1f}x the recorded "
              f"load (search cap {args.max_intensity:g}x reached)")
    else:
        print(f"headroom: {result.saturation_intensity:.1f}x "
              f"(SLO violated at {result.first_violation:.1f}x)")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Replay a trace with instrumentation on and print/export metrics."""
    from .telemetry import enabled_telemetry
    from .telemetry.exporters import (
        format_table as telemetry_table,
        to_prometheus,
        write_jsonl,
    )

    # The same load as ``tracer replay``, so the profile is of the
    # engine that command runs.
    trace = read_trace_packed(args.trace)
    with enabled_telemetry() as reg:
        device = _device_factory(args.device, args.disks)()
        session = ReplaySession(
            device,
            config=ReplayConfig(
                sampling_cycle=args.cycle, time_scale=args.time_scale
            ),
        )
        result = session.run(trace, load_proportion=args.load / 100.0)
        snapshot = reg.snapshot(include_timers=args.timers)
    print(format_table(summarize([result]), title=f"replay of {args.trace}"))
    _print_engine(result)
    print()
    print(telemetry_table(snapshot))
    if args.jsonl:
        write_jsonl(snapshot, args.jsonl)
        print(f"telemetry written to {args.jsonl}")
    if args.prometheus:
        Path(args.prometheus).write_text(to_prometheus(snapshot))
        print(f"prometheus text written to {args.prometheus}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Live view of a remote replay: streamed interval frames."""
    from .distributed.host_node import RemoteEvaluationHost
    from .replay.console import LiveFrameRenderer

    mode = WorkloadMode(
        request_size=args.request_size,
        random_ratio=args.random,
        read_ratio=args.read,
    ).at_load(args.load / 100.0)
    request = TestRequest(
        mode=mode,
        replay=ReplayConfig(seed=args.seed),
        label=args.label,
    )
    ledger = RunLedger(args.ledger) if args.ledger else None
    renderer = LiveFrameRenderer()
    with RemoteEvaluationHost(
        args.host,
        args.port,
        ledger=ledger,
        frames_dir=args.frames_dir or None,
    ) as host:
        print(f"watching {host.device_label} on node {host.node_id} "
              f"({args.host}:{args.port}), interval {args.interval}s")
        record = host.run_test(
            request,
            on_progress=renderer.on_frame,
            stream_interval=args.interval,
        )
    print(f"\n{renderer.frames_rendered} frames; final: "
          f"{record.iops:.1f} IOPS, {record.mbps:.2f} MBPS, "
          f"{record.mean_watts:.2f} W, "
          f"{record.iops_per_watt:.2f} IOPS/W")
    if ledger is not None:
        print(f"ledger: run {record.record_id} recorded in {args.ledger}")
        ledger.close()
    return 0


def cmd_flightrec_dump(args: argparse.Namespace) -> int:
    """Dump the in-process flight recorder to JSONL."""
    from .telemetry.flightrec import get_flight_recorder

    recorder = get_flight_recorder()
    path = recorder.dump(args.output, reason="manual")
    print(f"{len(recorder)} events ({recorder.total_recorded} recorded) "
          f"dumped to {path}")
    return 0


def _open_ledger(path: str) -> RunLedger:
    if not Path(path).exists():
        raise SystemExit(f"no ledger at {path}")
    return RunLedger(path)


def cmd_runs_list(args: argparse.Namespace) -> int:
    with _open_ledger(args.ledger) as ledger:
        records = ledger.list(
            trace_label=args.trace or None,
            origin=args.origin or None,
            limit=args.limit or None,
        )
        total = ledger.count()
    print(f"{'run_id':<16} {'origin':<18} {'trace':<34} "
          f"{'seed':>6} {'IOPS':>9} {'Watts':>8}")
    for rec in records:
        print(
            f"{rec.run_id:<16} {rec.origin:<18} {rec.trace_label:<34.34} "
            f"{rec.seed if rec.seed is not None else '-':>6} "
            f"{rec.summary.get('iops', 0.0):>9.1f} "
            f"{rec.summary.get('mean_watts', 0.0):>8.2f}"
        )
    print(f"{len(records)} of {total} runs in {args.ledger}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    from .analysis.export import render_json

    with _open_ledger(args.ledger) as ledger:
        record = ledger.get(args.run_id)
    print(render_json(record.to_dict()))
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    with _open_ledger(args.ledger) as ledger:
        diff = ledger.diff(args.run_a, args.run_b)
    print(f"{diff['a']} vs {diff['b']}  "
          f"(same config: {diff['same_config']}, "
          f"same trace: {diff['same_trace']})")
    print(f"{'metric':<18} {'a':>12} {'b':>12} {'delta':>12} {'pct':>8}")
    for key, row in diff["metrics"].items():
        if "equal" in row:
            # Non-numeric provenance (e.g. engine): equality, not delta.
            marker = "same" if row["equal"] else "DIFFERS"
            print(
                f"{key:<18} {str(row['a']):>12} {str(row['b']):>12} "
                f"{marker:>12}"
            )
            continue
        print(
            f"{key:<18} {row['a']:>12.4f} {row['b']:>12.4f} "
            f"{row['delta']:>12.4f} {row['pct']:>7.2f}%"
        )
    return 0


def cmd_repo(args: argparse.Namespace) -> int:
    repo = TraceRepository(args.repository)
    names = list(repo.names())
    for name in names:
        print(name.filename)
    print(f"{len(names)} traces in {repo.root}")
    return 0


def _fleet_request(args: argparse.Namespace, kind: str, body: dict):
    from .host.communicator import Communicator
    from .host.protocol import Frame

    comm = Communicator(args.host, args.port, timeout=args.timeout)
    try:
        return comm.request(Frame(kind, body))
    finally:
        comm.close()


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Run the replay-as-a-service fleet endpoint."""
    import threading

    from .fleet import (
        EvaluationContext,
        FleetScheduler,
        FleetService,
        TenantSpec,
        local_worker_pool,
    )

    context = EvaluationContext()
    for path in args.trace:
        context.add_trace(Path(path).stem, read_trace_packed(path))
    if not context.labels():
        raise SystemExit("fleet serve needs at least one --trace")
    ledger = RunLedger(args.db if args.db else ":memory:")
    workers = local_worker_pool(
        args.workers, context, mode=args.worker_mode
    )
    scheduler = FleetScheduler(
        workers,
        context=context,
        ledger=ledger,
        aging_rate=args.aging_rate,
        default_quota=args.quota,
        tracing=True if args.tracing else None,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    for entry in args.tenant:
        parts = entry.split(":")
        if not 1 <= len(parts) <= 3:
            raise SystemExit(
                f"bad --tenant {entry!r} (name[:quota[:priority]])"
            )
        scheduler.register_tenant(TenantSpec(
            name=parts[0],
            quota=int(parts[1]) if len(parts) > 1 else args.quota,
            priority=float(parts[2]) if len(parts) > 2 else 0.0,
        ))
    service = FleetService(scheduler, host=args.bind, port=args.port)
    service.start()
    print(f"fleet serving {len(workers)} {args.worker_mode} workers, "
          f"traces {context.labels()} on {args.bind}:{service.port} "
          f"(ledger: {args.db or 'in-memory'})")
    try:
        if args.max_jobs:
            # Scriptable mode: exit once N jobs have completed.
            while scheduler.completed + scheduler.failed < args.max_jobs:
                threading.Event().wait(0.05)
        else:  # pragma: no cover - interactive mode
            threading.Event().wait()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        service.close()
        ledger.close()
    print(f"fleet served {scheduler.completed} jobs "
          f"({scheduler.failed} failed); shutting down")
    return 0


def cmd_fleet_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running fleet endpoint."""
    import json as _json
    import uuid as _uuid

    from .analysis.export import render_json
    from .host.protocol import KIND_ERROR, KIND_FLEET_SUBMIT

    if args.spec_json:
        spec = _json.loads(args.spec_json)
    else:
        spec = {
            "kind": args.kind,
            "trace": args.job_trace,
            "device": args.device,
            "n_disks": args.disks,
            "load": args.load,
            "seed": args.seed,
            "engine": args.engine,
        }
        if args.policies:
            spec["policies"] = [
                p.strip() for p in args.policies.split(";") if p.strip()
            ]
    reply = _fleet_request(args, KIND_FLEET_SUBMIT, {
        "spec": spec,
        "tenant": args.tenant,
        "priority": args.priority,
        "wait": args.wait,
        "submit_id": _uuid.uuid4().hex,
    })
    if reply.kind == KIND_ERROR:
        raise SystemExit(f"fleet refused: {reply.body.get('message')}")
    if not args.wait:
        print(reply.body.get("job_id", "?"))
        return 0
    body = dict(reply.body)
    if not args.full:
        # The full result payload can be large; default to provenance
        # plus the flat metrics.
        result = body.get("result") or {}
        body["result"] = {
            k: v for k, v in result.items() if not isinstance(v, (dict, list))
        }
    print(render_json(body))
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    from .analysis.export import render_json
    from .host.protocol import KIND_ERROR, KIND_FLEET_STATUS

    reply = _fleet_request(args, KIND_FLEET_STATUS, {})
    if reply.kind == KIND_ERROR:
        raise SystemExit(f"fleet error: {reply.body.get('message')}")
    print(render_json(reply.body))
    return 0


def cmd_fleet_drain(args: argparse.Namespace) -> int:
    from .analysis.export import render_json
    from .host.protocol import KIND_ERROR, KIND_FLEET_DRAIN

    reply = _fleet_request(args, KIND_FLEET_DRAIN, {})
    if reply.kind == KIND_ERROR:
        raise SystemExit(f"fleet error: {reply.body.get('message')}")
    print(render_json(reply.body))
    return 0


def cmd_fleet_top(args: argparse.Namespace) -> int:
    """Live fleet view: poll fleet_status and repaint."""
    import time as _time

    from .fleet.top import render_top, status_snapshot
    from .host.protocol import KIND_ERROR, KIND_FLEET_STATUS
    from .telemetry.exporters import to_jsonl, to_prometheus

    iterations = args.iterations if args.iterations > 0 else None
    shown = 0
    while True:
        reply = _fleet_request(args, KIND_FLEET_STATUS, {})
        if reply.kind == KIND_ERROR:
            raise SystemExit(f"fleet error: {reply.body.get('message')}")
        status = reply.body
        if shown and iterations is None:  # pragma: no cover - interactive
            print("\033[2J\033[H", end="")
        print(render_top(status), end="")
        if args.prometheus or args.jsonl:
            snapshot = status_snapshot(status)
            if args.prometheus:
                Path(args.prometheus).write_text(to_prometheus(snapshot))
            if args.jsonl:
                Path(args.jsonl).write_text(to_jsonl(snapshot))
        shown += 1
        if iterations is not None and shown >= iterations:
            return 0
        _time.sleep(args.interval)


def cmd_trace_show(args: argparse.Namespace) -> int:
    """Render one fleet job's distributed-trace span tree."""
    from .telemetry.dtrace import build_tree, render_tree

    with _open_ledger(args.ledger) as ledger:
        spans = ledger.spans_for_job(args.job_id)
    if not spans:
        print(f"no spans recorded for job {args.job_id!r}", file=sys.stderr)
        return 1
    print(render_tree(spans), end="")
    tree = build_tree(spans)
    if tree["orphans"]:
        print(f"warning: {len(tree['orphans'])} orphan span(s)",
              file=sys.stderr)
    return 0


def cmd_trace_jobs(args: argparse.Namespace) -> int:
    """List jobs that have recorded span trees."""
    with _open_ledger(args.ledger) as ledger:
        jobs = ledger.span_jobs()
        count = ledger.spans_count()
    for job_id in jobs:
        print(job_id)
    print(f"{len(jobs)} traced jobs, {count} spans")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracer",
        description="TRACER: load-controllable trace replay for storage "
        "energy-efficiency evaluation (CLUSTER 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="collect synthetic traces into a repository")
    _add_device_args(p)
    p.add_argument("repository", help="repository directory")
    p.add_argument("--duration", type=float, default=2.0, help="seconds per trace")
    p.add_argument("--limit", type=int, default=0, help="collect only first N modes")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("convert", help="convert HP .srt text trace to .replay")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--srt-device", type=int, default=None,
                   help="keep only this SRT device number")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="print trace statistics (Table III style)")
    p.add_argument("trace")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("replay", help="replay a trace at a load proportion")
    _add_device_args(p)
    p.add_argument("trace")
    p.add_argument("--load", type=float, default=100.0, help="load percent (10..100)")
    p.add_argument("--cycle", type=float, default=1.0, help="sampling cycle seconds")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="inter-arrival intensity scale (e.g. 2.0 = 200%%)")
    p.add_argument("--engine", choices=("auto", "event", "kernel"),
                   default="auto",
                   help="replay engine: auto picks the analytical kernel "
                   "when the run qualifies, else the event engine")
    p.add_argument("--live", action="store_true",
                   help="print one row per interval frame (GUI stand-in); "
                   "frames close every --cycle unless --stream-interval "
                   "is set; the engine is chosen as without --live")
    p.add_argument("--stream-interval", type=float, default=0.0,
                   help="emit interval frames every N sim seconds "
                   "(0 = off, or --cycle with --live)")
    p.add_argument("--frames", default="",
                   help="write streamed interval frames to this JSONL file")
    p.add_argument("--flightrec", default="",
                   help="arm the flight recorder to dump here on failure")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sweep", help="replay a trace at 10%%..100%% load levels")
    _add_device_args(p)
    p.add_argument("trace")
    p.add_argument("--database", default="",
                   help="sqlite run ledger for the test records")
    p.add_argument("--repository", default="", help="trace repository directory")
    p.add_argument("--grid", action="store_true",
                   help="grid-fused sweep: evaluate the whole "
                   "(load x time-scale) matrix as one batched kernel "
                   "computation")
    p.add_argument("--loads", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                   help="comma-separated load proportions (with --grid)")
    p.add_argument("--time-scales", default="1.0",
                   help="comma-separated time-scale factors (with --grid)")
    p.add_argument("--engine", choices=("auto", "event", "kernel"),
                   default="auto", help="engine for grid cells (with --grid)")
    p.add_argument("--ledger", default="",
                   help="record the grid run (parent + per-cell rows) in "
                   "this sqlite ledger (with --grid)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("repo", help="list a trace repository")
    p.add_argument("repository")
    p.set_defaults(func=cmd_repo)

    p = sub.add_parser("profile", help="characterise a trace (distributions)")
    p.add_argument("trace")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "compare", help="statistical similarity of two traces (e.g. "
        "original vs filtered)"
    )
    p.add_argument("original")
    p.add_argument("manipulated")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("slice", help="cut a time window out of a trace")
    p.add_argument("trace")
    p.add_argument("output")
    p.add_argument("--start", type=float, default=0.0, help="window start (s)")
    p.add_argument("--end", type=float, required=True, help="window end (s)")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser(
        "fit", help="remap trace addresses into a smaller device"
    )
    p.add_argument("trace")
    p.add_argument("output")
    p.add_argument("capacity_sectors", type=int)
    p.add_argument("--mode", choices=["scale", "wrap"], default="scale")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "serve", help="run a workload-generator node (TCP server, Fig. 3)"
    )
    _add_device_args(p)
    p.add_argument("repository", help="trace repository to serve from")
    p.add_argument("--bind", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed on start)")
    p.add_argument("--node-id", default="generator-0")
    p.add_argument("--max-tests", type=int, default=0,
                   help="exit after serving N tests (0 = run until Ctrl-C)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "headroom",
        help="bisect the intensity a device sustains under a response SLO",
    )
    _add_device_args(p)
    p.add_argument("trace")
    p.add_argument("--slo-ms", type=float, default=50.0,
                   help="mean-response SLO in milliseconds")
    p.add_argument("--metric", choices=["mean", "p95"], default="mean")
    p.add_argument("--max-intensity", type=float, default=64.0)
    p.set_defaults(func=cmd_headroom)

    p = sub.add_parser(
        "telemetry",
        help="replay a trace with instrumentation on and dump metrics",
    )
    _add_device_args(p)
    p.add_argument("trace")
    p.add_argument("--load", type=float, default=100.0, help="load percent (10..100)")
    p.add_argument("--cycle", type=float, default=1.0, help="sampling cycle seconds")
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--timers", action="store_true",
                   help="include wall-clock profiling timers (non-deterministic)")
    p.add_argument("--jsonl", default="", help="write JSON-lines metrics here")
    p.add_argument("--prometheus", default="",
                   help="write Prometheus text-format metrics here")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "watch",
        help="live view of a remote replay (streamed interval frames)",
    )
    p.add_argument("host", help="generator node address")
    p.add_argument("port", type=int, help="generator node port")
    p.add_argument("--request-size", type=int, default=4096)
    p.add_argument("--random", type=float, default=0.0,
                   help="random ratio (0..1)")
    p.add_argument("--read", type=float, default=0.5,
                   help="read ratio (0..1)")
    p.add_argument("--load", type=float, default=100.0,
                   help="load percent (10..100)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="interval-frame cadence in sim seconds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--label", default="watch")
    p.add_argument("--ledger", default="",
                   help="append this run to a sqlite run ledger")
    p.add_argument("--frames-dir", default="",
                   help="persist streamed frames as JSONL in this directory")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "flightrec", help="flight recorder (bounded event ring)"
    )
    fr_sub = p.add_subparsers(dest="flightrec_command", required=True)
    fp = fr_sub.add_parser("dump", help="dump the in-process ring to JSONL")
    fp.add_argument("--output", default="flightrec.jsonl")
    fp.set_defaults(func=cmd_flightrec_dump)

    p = sub.add_parser("runs", help="query the run ledger")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    rp = runs_sub.add_parser("list", help="list runs, newest first")
    rp.add_argument("ledger", help="ledger sqlite file")
    rp.add_argument("--trace", default="", help="filter by trace label")
    rp.add_argument("--origin", default="",
                    help="filter by origin, exact or prefix "
                         "(local / remote:<node> / fleet / "
                         "fleet/job:<id>)")
    rp.add_argument("--limit", type=int, default=0)
    rp.set_defaults(func=cmd_runs_list)
    rp = runs_sub.add_parser("show", help="print one run record as JSON")
    rp.add_argument("ledger")
    rp.add_argument("run_id", help="run id (or unique prefix)")
    rp.set_defaults(func=cmd_runs_show)
    rp = runs_sub.add_parser("diff", help="compare two runs' summary metrics")
    rp.add_argument("ledger")
    rp.add_argument("run_a")
    rp.add_argument("run_b")
    rp.set_defaults(func=cmd_runs_diff)

    p = sub.add_parser(
        "fleet", help="replay-as-a-service: multi-tenant evaluation fleet"
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    fp = fleet_sub.add_parser("serve", help="run a fleet endpoint")
    fp.add_argument("--trace", action="append", default=[],
                    help=".replay trace file to serve (repeatable; "
                         "the label is the file stem)")
    fp.add_argument("--workers", type=int, default=4)
    fp.add_argument("--worker-mode", default="thread",
                    choices=("thread", "process"))
    fp.add_argument("--bind", default="127.0.0.1")
    fp.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral, printed on start)")
    fp.add_argument("--db", default="",
                    help="run-ledger sqlite file (default: in-memory)")
    fp.add_argument("--quota", type=int, default=4,
                    help="default per-tenant in-flight quota")
    fp.add_argument("--aging-rate", type=float, default=0.1,
                    help="priority gained per tick while waiting")
    fp.add_argument("--tenant", action="append", default=[],
                    help="pre-register name[:quota[:priority]] (repeatable)")
    fp.add_argument("--max-jobs", type=int, default=0,
                    help="exit after N jobs complete (0 = until Ctrl-C)")
    fp.add_argument("--tracing", action="store_true",
                    help="record a distributed span tree per job "
                         "(also TRACER_DTRACE=1)")
    fp.add_argument("--heartbeat-interval", type=float, default=0.0,
                    help="probe workers every N seconds (0 = off); silent "
                         "workers go suspect, then dead")
    fp.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    help="per-probe reply deadline in seconds")
    fp.set_defaults(func=cmd_fleet_serve)
    fp = fleet_sub.add_parser(
        "top", help="live fleet view (queue, workers, rolling IOPS/W)"
    )
    fp.add_argument("--host", default="127.0.0.1")
    fp.add_argument("--port", type=int, required=True)
    fp.add_argument("--timeout", type=float, default=30.0)
    fp.add_argument("--interval", type=float, default=2.0,
                    help="poll cadence in seconds")
    fp.add_argument("--iterations", type=int, default=0,
                    help="exit after N repaints (0 = until Ctrl-C)")
    fp.add_argument("--prometheus", default="",
                    help="also write the snapshot in Prometheus text "
                         "format to this file each repaint")
    fp.add_argument("--jsonl", default="",
                    help="also write the snapshot as JSONL to this file "
                         "each repaint")
    fp.set_defaults(func=cmd_fleet_top)
    for name, fn in (("submit", cmd_fleet_submit),
                     ("status", cmd_fleet_status),
                     ("drain", cmd_fleet_drain)):
        fp = fleet_sub.add_parser(name, help=f"{name} against a fleet endpoint")
        fp.add_argument("--host", default="127.0.0.1")
        fp.add_argument("--port", type=int, required=True)
        fp.add_argument("--timeout", type=float, default=120.0)
        if name == "submit":
            fp.add_argument("--spec-json", default="",
                            help="full job spec as JSON (overrides flags)")
            fp.add_argument("--kind", default="replay",
                            choices=("replay", "grid", "search"))
            fp.add_argument("--job-trace", default="",
                            help="trace label on the fleet")
            _add_device_args(fp)
            fp.add_argument("--load", type=float, default=1.0)
            fp.add_argument("--seed", type=int, default=0)
            fp.add_argument("--engine", default="auto",
                            choices=("auto", "event", "analytical"))
            fp.add_argument("--policies", default="",
                            help="';'-separated policy specs (search jobs)")
            fp.add_argument("--tenant", default="default")
            fp.add_argument("--priority", type=float, default=0.0)
            fp.add_argument("--wait", action="store_true",
                            help="block until the result and print it")
            fp.add_argument("--full", action="store_true",
                            help="print the full result payload")
        fp.set_defaults(func=fn)

    p = sub.add_parser(
        "trace", help="distributed traces recorded by a tracing fleet"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    tp = trace_sub.add_parser("show", help="render one job's span tree")
    tp.add_argument("ledger", help="run-ledger sqlite file")
    tp.add_argument("job_id", help="fleet job id (or unique prefix)")
    tp.set_defaults(func=cmd_trace_show)
    tp = trace_sub.add_parser("jobs", help="list jobs with recorded spans")
    tp.add_argument("ledger", help="run-ledger sqlite file")
    tp.set_defaults(func=cmd_trace_jobs)

    p = sub.add_parser(
        "search",
        help="energy-policy Pareto search over a fused replay grid",
    )
    _add_device_args(p)
    p.add_argument("trace")
    p.add_argument("--policies", default="maid,drpm",
                   help="comma-separated policy specs, e.g. "
                   "'maid:idle_timeout=5,drpm,pdc' (a baseline is always "
                   "evaluated implicitly)")
    p.add_argument("--loads", default="0.5,1.0",
                   help="comma-separated load proportions")
    p.add_argument("--time-scales", default="1.0",
                   help="comma-separated time-scale factors")
    p.add_argument("--cycle", type=float, default=1.0,
                   help="sampling cycle seconds")
    p.add_argument("--engine", choices=("auto", "event", "kernel"),
                   default="auto", help="engine for the base replay grid")
    p.add_argument("--top", type=int, default=10,
                   help="ranking rows in the report")
    p.add_argument("--frontier", action="store_true",
                   help="print only the Pareto-frontier cells, one per line")
    p.add_argument("--verify", action="store_true",
                   help="re-derive every cell per point (kernel/event) and "
                   "fail on any bitwise metric difference")
    p.add_argument("--output", default="",
                   help="write the full markdown report to this file")
    p.add_argument("--json", default="",
                   help="write the full search outcome as JSON to this file")
    p.add_argument("--ledger", default="",
                   help="record the search (parent + per-cell rows) in this "
                   "sqlite ledger")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="markdown report of a ledger's tests")
    p.add_argument("database", help="sqlite run ledger")
    p.add_argument("--output", default="", help="write to file instead of stdout")
    p.add_argument("--title", default="TRACER evaluation")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="export a ledger's tests to CSV")
    p.add_argument("database", help="sqlite run ledger")
    p.add_argument("csv")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .telemetry.flightrec import install_excepthook

    # A crash in any subcommand dumps the flight recorder when armed
    # (TRACER_FLIGHTREC=<path> or a --flightrec flag).
    install_excepthook()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

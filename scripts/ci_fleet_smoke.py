"""CI fleet smoke: replay-as-a-service under multi-tenant load.

Drives the fleet the way CI does, end to end:

1. ≥1000 jobs from 4 tenants land on an asyncio :class:`FleetScheduler`
   over 5 local workers, one of which is chaos-killed on its first
   dispatch (the job is reassigned and completes);
2. per-tenant quotas hold at every instant (peak in-flight ≤ quota);
3. dedup collapses the job stream to its unique specs — the hit rate is
   asserted, not just reported;
4. fleet results are spot-checked bit-identical to serial replays of
   the same specs;
5. every job's provenance row round-trips through a
   ``tracer runs list --origin fleet`` subprocess.

Run from the repository root::

    PYTHONPATH=src python scripts/ci_fleet_smoke.py artifacts

Artifacts land under the given directory (default ``artifacts/``):
``fleet.sqlite`` (ledger + dedup cache) and
``frames/fleet-<job>.jsonl`` (streamed interval frames).
"""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

N_JOBS = 1000
TENANTS = {"alice": 3, "bob": 2, "carol": 2, "dave": 1}
LOADS = [round(0.1 + 0.1 * i, 1) for i in range(8)]
SEEDS = list(range(6))


def main(workdir: str = "artifacts") -> None:
    out = Path(workdir)
    (out / "frames").mkdir(parents=True, exist_ok=True)

    from repro.errors import WorkerDied
    from repro.fleet import (
        EvaluationContext,
        FleetScheduler,
        JobSpec,
        TenantSpec,
        canonical_result_bytes,
        local_worker_pool,
    )
    from repro.host.ledger import RunLedger
    from repro.storage.array import build_hdd_raid5
    from repro.workload.matrix import collect_trace
    from repro.config import WorkloadMode

    mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
    trace = collect_trace(lambda: build_hdd_raid5(6), mode, 1.0, seed=23)
    context = EvaluationContext({"smoke": trace})

    specs = [
        JobSpec(trace="smoke", load=load, seed=seed)
        for load in LOADS
        for seed in SEEDS
    ]
    unique = len(specs)

    killed = []

    def chaos(worker, job):
        # Exactly one induced worker death, on the victim's first job.
        if worker == "local-4" and not killed:
            killed.append(job.job_id)
            raise WorkerDied(f"{worker} chaos-killed mid-replay")

    ledger_path = out / "fleet.sqlite"
    ledger_path.unlink(missing_ok=True)

    async def drive():
        ledger = RunLedger(ledger_path)
        workers = local_worker_pool(5, context, chaos=chaos)
        sched = FleetScheduler(workers, context=context, ledger=ledger)
        for name, quota in TENANTS.items():
            sched.register_tenant(TenantSpec(name, quota=quota))
        await sched.start()

        tenants = list(TENANTS)
        jobs = []
        frames = []
        for i in range(N_JOBS):
            job = await sched.submit(
                specs[i % unique],
                tenants[i % len(tenants)],
                stream_interval=0.2 if i == 0 else None,
            )
            if i == 0:
                sched.watch(frames.append, job_id=job.job_id)
            jobs.append(job)
        results = await asyncio.gather(*(j.future for j in jobs))
        status = await sched.drain()
        await sched.stop()
        ledger.close()
        return jobs, results, status, frames

    jobs, results, status, frames = asyncio.run(drive())

    # 1. Everything completed, including the chaos-killed job.
    assert status["jobs"]["completed"] == N_JOBS, status["jobs"]
    assert status["jobs"]["failed"] == 0
    assert killed, "chaos never fired: no worker death induced"
    assert status["jobs"]["worker_deaths"] == 1
    assert len(status["dead_workers"]) == 1
    assert len(status["workers"]) == 4
    victim = next(j for j in jobs if j.job_id == killed[0])
    assert victim.future.result().attempts == 2
    print(
        f"{N_JOBS} jobs from {len(TENANTS)} tenants completed on "
        f"{len(status['workers'])} surviving workers "
        f"(1 chaos death recovered, job {killed[0]} on attempt 2)"
    )

    # 2. Quotas held at every instant.
    for name, quota in TENANTS.items():
        peak = status["queue"]["tenants"][name]["peak_in_flight"]
        assert peak <= quota, f"{name} peaked at {peak} > quota {quota}"
        print(f"tenant {name}: quota {quota}, peak in-flight {peak}")

    # 3. Dedup collapsed the stream to its unique specs.
    executions = context.executions
    hits = status["dedup"]["cache_hits"] + status["dedup"]["inflight_hits"]
    assert executions == unique, (executions, unique)
    assert hits == N_JOBS - unique
    rate = hits / N_JOBS
    assert rate == status["dedup"]["hit_rate"]
    print(f"dedup: {executions} executions for {N_JOBS} jobs "
          f"(hit rate {rate:.1%})")

    # 4. Fleet results are bit-identical to serial replays.
    by_key = {}
    for job, result in zip(jobs, results):
        by_key.setdefault(job.spec.cache_key("x"), (job.spec, result))
    for spec, result in list(by_key.values())[:5]:
        serial = canonical_result_bytes(context.execute(spec))
        assert result.result_bytes == serial, (
            f"fleet result for {spec.to_dict()} diverged from serial replay"
        )
    print("5 fleet results spot-checked bit-identical to serial replays")

    # Streamed frames for the watched job become an artifact.
    assert frames, "no interval frames streamed for the watched job"
    frames_file = out / "frames" / f"fleet-{jobs[0].job_id}.jsonl"
    frames_file.write_text(
        "".join(
            json.dumps(f, sort_keys=True) + "\n"
            for f in frames
        )
    )
    print(f"streamed {len(frames)} frames -> {frames_file}")

    # 5. Provenance rows round-trip through the CLI.
    listing = subprocess.run(
        [sys.executable, "-m", "repro.cli", "runs", "list",
         str(ledger_path), "--origin", "fleet"],
        check=True, capture_output=True, text=True,
    ).stdout
    footer = listing.strip().splitlines()[-1]
    shown = int(footer.split(" of ")[0].rsplit(None, 1)[-1])
    assert shown == N_JOBS, f"CLI listed {shown} fleet rows, want {N_JOBS}"
    one = subprocess.run(
        [sys.executable, "-m", "repro.cli", "runs", "list",
         str(ledger_path), "--origin", f"fleet/job:{jobs[0].job_id}"],
        check=True, capture_output=True, text=True,
    ).stdout
    assert jobs[0].job_id[:16].strip() in one
    print(f"{shown} fleet rows round-trip through `tracer runs list "
          f"--origin fleet` ({ledger_path})")
    print("fleet smoke OK")


if __name__ == "__main__":
    main(*sys.argv[1:2])

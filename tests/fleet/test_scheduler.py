"""Integration tests: the asyncio scheduler over local workers."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import FleetError, WorkerDied
from repro.fleet import (
    FleetScheduler,
    JobSpec,
    TenantSpec,
    local_worker_pool,
)
from repro.host.ledger import RunLedger


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 120))


async def _drained(sched):
    status = await sched.drain()
    await sched.stop()
    return status


class TestEndToEnd:
    def test_many_jobs_share_few_workers(self, context, monkeypatch):
        # Tracing off (the default with TRACER_DTRACE unset) is the
        # seed fleet path: no spans and no dtrace keys anywhere.
        monkeypatch.delenv("TRACER_DTRACE", raising=False)

        async def flow():
            ledger = RunLedger()
            sched = FleetScheduler(
                local_worker_pool(3, context), context=context, ledger=ledger
            )
            await sched.start()
            jobs = []
            for i in range(24):
                spec = JobSpec(trace="t1", load=0.1 + 0.05 * (i % 8))
                jobs.append(await sched.submit(spec, f"tenant-{i % 3}"))
            results = await asyncio.gather(*(j.future for j in jobs))
            status = await _drained(sched)
            return jobs, results, status, ledger

        jobs, results, status, ledger = run(flow())
        assert status["jobs"]["completed"] == 24
        assert status["jobs"]["failed"] == 0
        # Every job landed a provenance row queryable by origin prefix.
        assert len(ledger.list(origin="fleet")) == 24
        one = ledger.list(origin=f"fleet/job:{jobs[0].job_id}")
        assert len(one) == 1
        assert one[0].mode["tenant"] == jobs[0].tenant
        # 8 unique specs across 24 jobs: dedup collapsed the rest.
        assert context.executions == 8
        hits = status["dedup"]["cache_hits"] + status["dedup"]["inflight_hits"]
        assert hits == 16
        assert ledger.spans_count() == 0
        for r in results:
            assert "dtrace" not in r.payload
            assert "dtrace" not in (r.payload.get("metadata") or {})

    def test_quotas_enforced_under_load(self, context):
        async def flow():
            sched = FleetScheduler(
                local_worker_pool(4, context), context=context
            )
            sched.register_tenant(TenantSpec("greedy", quota=1))
            sched.register_tenant(TenantSpec("modest", quota=3))
            await sched.start()
            jobs = []
            for i in range(12):
                # Distinct seeds defeat dedup so every job really runs.
                spec = JobSpec(trace="t1", load=0.3, seed=i)
                jobs.append(
                    await sched.submit(spec, "greedy" if i % 2 else "modest")
                )
            await asyncio.gather(*(j.future for j in jobs))
            return await _drained(sched)

        status = run(flow())
        tenants = status["queue"]["tenants"]
        assert tenants["greedy"]["peak_in_flight"] <= 1
        assert tenants["modest"]["peak_in_flight"] <= 3

    def test_grid_and_search_jobs(self, context):
        async def flow():
            sched = FleetScheduler(
                local_worker_pool(2, context), context=context
            )
            await sched.start()
            grid = await sched.submit(
                JobSpec(kind="grid", trace="t1", loads=(0.2, 0.5)), "t"
            )
            search = await sched.submit(
                JobSpec(kind="search", trace="t1", loads=(0.5,),
                        policies=("maid", "drpm")),
                "t",
            )
            results = await asyncio.gather(grid.future, search.future)
            await _drained(sched)
            return results

        grid_result, search_result = run(flow())
        grid_payload = grid_result.payload
        assert [c["load"] for c in grid_payload["cells"]] == [0.2, 0.5]
        search_payload = search_result.payload
        # The baseline rides along implicitly in every search.
        assert set(search_payload["policies"]) == {"baseline", "maid", "drpm"}

    def test_lifecycle_events_fan_out(self, context):
        async def flow():
            sched = FleetScheduler(
                local_worker_pool(1, context), context=context
            )
            events_a, events_b = [], []
            sched.watch(events_a.append)
            sched.watch(events_b.append)
            await sched.start()
            job = await sched.submit(JobSpec(trace="t1", load=0.4), "t")
            await job.future
            await _drained(sched)
            return job, events_a, events_b

        job, events_a, events_b = run(flow())
        assert events_a == events_b
        kinds = [e["event"] for e in events_a if e["job_id"] == job.job_id]
        assert kinds[0] == "admitted"
        assert "dispatched" in kinds and kinds[-1] == "completed"

    def test_submit_while_draining_rejected(self, context):
        async def flow():
            sched = FleetScheduler(
                local_worker_pool(1, context), context=context
            )
            await sched.start()
            await sched.drain()
            with pytest.raises(FleetError):
                await sched.submit(JobSpec(trace="t1"), "t")
            await sched.stop()

        run(flow())

    def test_unknown_trace_fails_job_not_fleet(self, context):
        async def flow():
            sched = FleetScheduler(
                local_worker_pool(1, context), context=context
            )
            await sched.start()
            bad = await sched.submit(JobSpec(trace="nope"), "t")
            with pytest.raises(FleetError):
                await bad.future
            good = await sched.submit(JobSpec(trace="t1", load=0.3), "t")
            result = await good.future
            status = await _drained(sched)
            return result, status

        result, status = run(flow())
        assert result.cache_hit is False
        assert status["jobs"]["failed"] == 1
        assert status["jobs"]["completed"] == 1


class TestRetry:
    def test_worker_death_reassigns_job(self, context):
        dead = []

        def chaos(worker, job):
            # The first worker to pick anything up dies mid-job, once.
            if not dead:
                dead.append(worker)
                raise WorkerDied(f"{worker} chaos-killed")

        async def flow():
            workers = local_worker_pool(2, context, chaos=chaos)
            sched = FleetScheduler(workers, context=context)
            await sched.start()
            job = await sched.submit(JobSpec(trace="t1", load=0.5), "t")
            result = await job.future
            status = await _drained(sched)
            return result, status

        result, status = run(flow())
        assert result.attempts == 2
        assert status["jobs"]["worker_deaths"] == 1
        assert status["jobs"]["retries"] == 1
        assert len(status["workers"]) == 1
        assert len(status["dead_workers"]) == 1
        assert status["dead_workers"][0]["name"] == dead[0]

    def test_retries_exhausted_fails_job(self, context):
        def chaos(worker, job):
            raise WorkerDied(f"{worker} always dies")

        async def flow():
            workers = local_worker_pool(4, context, chaos=chaos)
            sched = FleetScheduler(workers, context=context, max_attempts=3)
            await sched.start()
            job = await sched.submit(JobSpec(trace="t1"), "t")
            with pytest.raises(FleetError):
                await job.future
            return await _drained(sched)

        status = run(flow())
        assert status["jobs"]["failed"] == 1
        assert status["jobs"]["worker_deaths"] == 3

    def test_process_worker_kill_recovers(self, context):
        async def flow():
            workers = local_worker_pool(2, context, mode="process")
            sched = FleetScheduler(workers, context=context)
            await sched.start()
            # Warm both children so the kill has a real process target.
            warm = await sched.submit(JobSpec(trace="t1", load=0.2), "t")
            await warm.future
            workers[0].kill()
            jobs = [
                await sched.submit(JobSpec(trace="t1", load=0.3, seed=i), "t")
                for i in range(4)
            ]
            results = await asyncio.gather(*(j.future for j in jobs))
            status = await _drained(sched)
            return results, status

        results, status = run(flow())
        assert all(not r.cache_hit for r in results)
        assert status["jobs"]["completed"] == 5
        # The killed worker died on (at most) its first dispatch; every
        # job still completed on the survivor.
        assert len(status["workers"]) >= 1

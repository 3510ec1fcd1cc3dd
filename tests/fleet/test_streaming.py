"""Streaming a fleet job is a view of its run, not a different run.

A streamed job and its unstreamed twin run on the same engine and
serialise to the same canonical bytes; the streamed job's interval
frames reach its watcher exactly once, in order.  On the analytical
kernel they arrive in one burst after the solve.
"""

from __future__ import annotations

import asyncio

from repro.fleet import FleetScheduler, JobSpec, LocalWorker

SPEC = JobSpec(trace="t1", load=0.6, seed=5)


def run_once(context, stream_interval):
    """One job on a fresh single-thread fleet; returns (result, raw
    payload, frames its watcher saw)."""
    payloads = []
    execute = context.execute

    def recording_execute(*args, **kwargs):
        payload = execute(*args, **kwargs)
        payloads.append(payload)
        return payload

    context.execute = recording_execute

    async def flow():
        sched = FleetScheduler([LocalWorker("w0", context)], context=context)
        await sched.start()
        frames = []
        job = await sched.submit(SPEC, "alice",
                                 stream_interval=stream_interval)
        sched.watch(frames.append, job_id=job.job_id)
        result = await job.future
        await sched.drain()
        await sched.stop()
        return result, frames

    try:
        result, frames = asyncio.run(asyncio.wait_for(flow(), 120))
    finally:
        del context.execute
    (payload,) = payloads
    return result, payload, frames


class TestStreamedTwin:
    def test_streamed_job_matches_unstreamed_twin(self, context):
        streamed, raw, frames = run_once(context, 0.2)
        plain, _, no_frames = run_once(context, None)

        assert streamed.cache_hit is False and plain.cache_hit is False
        assert streamed.result_bytes == plain.result_bytes
        assert streamed.payload["metadata"]["engine"] == "kernel"
        assert plain.payload["metadata"]["engine"] == "kernel"
        assert "engine_fallback" not in raw["metadata"]

        # A local worker delivers wire dicts, as a remote one does.
        assert all(type(f) is dict for f in frames)
        recorded = raw["metadata"]["interval_frames"]
        assert len(recorded) > 1
        # Exactly once, in order, and the same frames the run recorded.
        assert [f["index"] for f in frames] == list(range(len(recorded)))
        assert frames == recorded
        assert no_frames == []

"""Tests of the perf harness (run: PYTHONPATH=src python -m pytest benchmarks/perf -q)."""

import itertools
import json
import sys
import threading

import pytest

import run
import workloads
from spans import OP, SpanRecorder, Tracer, fold, layer_metrics

#: Input sizes small enough for a unit test, by workload class constant.
SMALL = {
    "replay-read": {"N_BUNCHES": 2000},
    "replay-rmw": {"N_BUNCHES": 2000},
    "search-grid": {"N_BUNCHES": 200, "TIME_SCALES": (0.5, 1.0)},
    "paper-sweep": {"DURATION": 0.2},
    "fleet-mix": {"N_BUNCHES": 300},
}


def small(monkeypatch, name, seed, engine="auto", workdir=None):
    """A workload with its inputs shrunk to ``SMALL``."""
    cls = workloads.WORKLOADS[name]
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(cls, attr, value)
    return cls(seed, engine=engine, workdir=workdir)


def span(span_id, start, end, parent=None, name="x", op=0):
    return {"name": name, "start": start, "end": end, "span_id": span_id,
            "parent_id": parent, "op_id": op}


# -- self-time fold ----------------------------------------------------------


def test_fold_subtracts_the_union_of_children():
    spans = [
        span(1, 0.0, 10.0, name=OP),
        span(2, 1.0, 6.0, parent=1),
        span(3, 2.0, 4.0, parent=2),
        span(4, 3.0, 5.0, parent=2),   # overlaps its sibling: counted once
        span(5, 7.0, 11.0, parent=1),  # ends after its parent: clipped
    ]
    self_times = fold(spans)
    assert self_times[2] == pytest.approx(2.0)
    assert self_times[3] == pytest.approx(2.0)
    assert self_times[4] == pytest.approx(2.0)
    assert self_times[5] == pytest.approx(4.0)
    assert self_times[1] == pytest.approx(10.0 - 5.0 - 3.0)


def test_spans_nest_per_thread_and_follow_their_op():
    rec = SpanRecorder()
    inner_open = threading.Event()
    release = threading.Event()

    def worker():
        with rec.bind(7):
            with rec.span("worker.outer"):
                with rec.span("worker.inner"):
                    inner_open.set()
                    release.wait(5)

    with rec.op(7):
        with rec.span("main.outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            assert inner_open.wait(5)
            # Opened while the worker's spans are open: must not nest
            # under them.
            with rec.span("main.inner"):
                pass
            release.set()
            thread.join(5)
            assert not thread.is_alive()

    by_name = {s["name"]: s for s in rec.spans}
    root = by_name[OP]["span_id"]
    assert by_name["main.outer"]["parent_id"] == root
    assert by_name["worker.outer"]["parent_id"] == root
    assert by_name["main.inner"]["parent_id"] == by_name["main.outer"]["span_id"]
    assert (by_name["worker.inner"]["parent_id"]
            == by_name["worker.outer"]["span_id"])
    assert {s["op_id"] for s in rec.spans} == {7}
    self_times = fold(rec.spans)
    for s in rec.spans:
        assert self_times[s["span_id"]] >= 0.0
    # Every instant of the op is under some span but the op's own.
    assert self_times[root] < 0.5 * (by_name[OP]["end"] - by_name[OP]["start"])


def test_recorder_loses_no_span_under_contention():
    rec = SpanRecorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(op):
            with rec.bind(op):
                for _ in range(300):
                    with rec.span("outer"):
                        with rec.span("inner"):
                            pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(rec.spans) == 6 * 300 * 2
    assert len({s["span_id"] for s in rec.spans}) == len(rec.spans)
    by_id = {s["span_id"]: s for s in rec.spans}
    for s in rec.spans:
        if s["name"] == "inner":
            parent = by_id[s["parent_id"]]
            assert parent["name"] == "outer" and parent["op_id"] == s["op_id"]


# -- outside-in wrappers -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_match_untraced_and_wrappers_come_back(name, tmp_path,
                                                          monkeypatch):
    wl = small(monkeypatch, name, seed=1, workdir=str(tmp_path))
    rec = SpanRecorder()
    ops = itertools.count()
    try:
        wl.setup()
        plain, _ = wl.run_round(ops)
        tracer = Tracer(rec)
        targets = tracer.targets()
        with tracer:
            traced, _ = wl.run_round(ops, rec)
        again, _ = wl.run_round(ops)
    finally:
        wl.close()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in targets)
    assert not [r for r in plain + traced + again if r.error]
    digests = {r.key: r.digest for r in plain}
    assert all(digests.get(r.key, r.digest) == r.digest for r in traced + again)
    assert {s["op_id"] for s in rec.spans} == {r.op_id for r in traced}
    assert len([s for s in rec.spans if s["name"] == OP]) == len(traced)
    metrics = layer_metrics(rec.spans)
    assert set(metrics) <= set(run.declared_units("per_layer"))
    assert metrics["unaccounted_frac"] < 0.25
    assert metrics["storage.build_s"] > 0 and metrics["core.filter_s"] > 0


def test_wrappers_restored_when_traced_code_raises():
    import repro.trace.blktrace as blktrace

    original = blktrace.loads_packed
    tracer = Tracer(SpanRecorder())
    with pytest.raises(RuntimeError):
        with tracer:
            assert blktrace.loads_packed is not original
            raise RuntimeError("boom")
    assert blktrace.loads_packed is original
    assert all(vars(owner)[attr] is orig
               for owner, attr, orig in tracer.targets())


# -- correctness oracle ------------------------------------------------------


def test_corrupted_or_failed_ops_count_as_errors(monkeypatch):
    reference = small(monkeypatch, "replay-rmw", seed=2, engine="event")
    reference.setup()
    expected = reference.reference()

    wl = small(monkeypatch, "replay-rmw", seed=2)
    wl.setup()
    real_op = wl.op
    calls = itertools.count()

    def flaky_op(rec=None):
        n = next(calls)
        payload, packages = real_op(rec)
        if n == 1:
            payload["completed"] += 1
        if n == 2:
            raise ValueError("replay blew up")
        return payload, packages

    monkeypatch.setattr(wl, "op", flaky_op)
    ops = itertools.count()
    records = [r for _ in range(4) for r in wl.run_round(ops)[0]]
    failed = run.check(records, expected)
    assert [r.op_id for r in failed] == [1, 2]
    assert failed[1].error == "ValueError: replay blew up"
    # Without reference digests the first output is the yardstick.
    assert [r.op_id for r in run.check(records, None)] == [1, 2]


def test_kernel_outputs_match_the_event_engine_reference(monkeypatch):
    for name in ("replay-read", "search-grid"):
        expected = small(monkeypatch, name, seed=3, engine="event")
        expected.setup()
        wl = small(monkeypatch, name, seed=3)
        wl.setup()
        records, _ = wl.run_round(itertools.count())
        assert not run.check(records, expected.reference()), name


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name, tmp_path, monkeypatch):
    def inputs(seed):
        wl = small(monkeypatch, name, seed, workdir=str(tmp_path))
        try:
            wl.setup()
            return wl.input_bytes()
        finally:
            wl.close()

    first = inputs(5)
    assert inputs(5) == first
    assert inputs(6) != first


# -- the command -------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace, capsys, tmp_path):
    out_json = tmp_path / "result.json"
    code = run.main([
        "--workload", "fleet-mix", "--seed", "1", "--seconds", "0.5",
        "--trace", str(trace), "--json", str(out_json),
    ])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = run.declared_units("per_layer" if trace else "end_to_end")
    assert declared == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    record = json.loads(out_json.read_text())
    assert record["workload"] == "fleet-mix" and record["seed"] == 1
    timed = sum(len(r["op_seconds"]) for r in record["rounds"])
    assert record["attempted"] - timed == 8  # the warm-up's jobs
    assert len(record["setup"]["setups_s"]) == run.SETUP_REPEATS
    for key in ("git_sha", "host", "nproc", "python", "numpy"):
        assert key in record

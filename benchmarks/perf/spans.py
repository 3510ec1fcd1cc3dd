"""Outside-in layer tracing for the perf harness.

:class:`SpanRecorder` keeps wall-clock spans in memory: name, start,
end, span id, parent id and op id.  :class:`Tracer` wraps the public
entry points of each layer of ``repro`` (module functions wherever a
``repro`` module has bound them, and class methods) so that every call
records a span, and puts the original attributes back on exit, even when
the traced code raises.  Nothing under ``src/`` is edited.

:func:`fold` turns spans into self times (a span's duration minus the
part of it its children cover) and :func:`layer_metrics` turns those
into the per-op values the harness reports.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span name of the harness's own per-op root span.
OP = "op"

# The open-span stack and the current op live in context variables, not
# thread-locals: the fleet workload runs two client coroutines on one
# thread, and each asyncio task gets its own copy of the context.
_stack: contextvars.ContextVar[Tuple[int, ...]] = contextvars.ContextVar(
    "perf_span_stack", default=()
)
_op: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perf_op", default=None
)


class SpanRecorder:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op_roots: Dict[int, int] = {}
        self.spans: List[Dict[str, Any]] = []

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _add(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(span)

    @staticmethod
    def current_op() -> Optional[int]:
        return _op.get()

    def _parent(self, op: Optional[int]) -> Optional[int]:
        stack = _stack.get()
        if stack:
            return stack[-1]
        return self._op_roots.get(op) if op is not None else None

    @contextmanager
    def op(self, op_id: int):
        """Time one op as the root span of everything recorded inside."""
        span_id = self._next_id()
        with self._lock:
            self._op_roots[op_id] = span_id
        start = time.perf_counter()
        with self.bind(op_id, base=span_id):
            try:
                yield
            finally:
                self._add({
                    "name": OP, "start": start, "end": time.perf_counter(),
                    "span_id": span_id, "parent_id": None, "op_id": op_id,
                })

    @contextmanager
    def bind(self, op_id: Optional[int], base: Optional[int] = None):
        """Attribute spans opened in this context (e.g. on a worker
        thread) to ``op_id``, as children of its root span."""
        if base is None and op_id is not None:
            base = self._op_roots.get(op_id)
        op_token = _op.set(op_id)
        stack_token = _stack.set((base,) if base is not None else ())
        try:
            yield
        finally:
            _stack.reset(stack_token)
            _op.reset(op_token)

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        """Record one span around the body.

        Yields a dict the body may update: ``name`` renames the span
        when it closes (an outcome known only then) and any other key is
        kept as an attribute.
        """
        op = _op.get() if op is None else op
        span_id = self._next_id()
        parent = self._parent(op)
        info: Dict[str, Any] = {"name": name}
        token = _stack.set(_stack.get() + (span_id,))
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            _stack.reset(token)
            info.update(
                start=start, end=end, span_id=span_id,
                parent_id=parent, op_id=op,
            )
            self._add(info)

    def interval(self, name: str, start: float, end: float,
                 op: Optional[int]) -> None:
        """Record a span measured elsewhere (a wait between two calls)."""
        self._add({
            "name": name, "start": start, "end": end,
            "span_id": self._next_id(),
            "parent_id": self._op_roots.get(op) if op is not None else None,
            "op_id": op,
        })

    def write_jsonl(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Self-time fold


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's cover.

    Children come from any thread; overlapping children count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(
                (s["start"], s["end"])
            )
    return {
        s["span_id"]: (s["end"] - s["start"]) - _covered(
            children.get(s["span_id"], ()), s["start"], s["end"]
        )
        for s in spans
    }


# ---------------------------------------------------------------------------
# Layer metrics

#: Per-layer metrics: self seconds per traced op, keyed by span name.
SELF_TIME_METRICS = {
    "trace.decode": "trace.decode_s",
    "storage.build": "storage.build_s",
    "storage.release": "storage.release_s",
    "core.filter": "core.filter_s",
    "replay.session": "replay.session.self_s",
    "sim.kernel.solve": "sim.kernel.solve_s",
    "sim.kernel.wasted": "sim.kernel.wasted_s",
    "replay.engine.event": "replay.engine.event_s",
    "sim.grid.eval": "sim.grid.eval_s",
    "workload.parallel": "workload.parallel.self_s",
    "search.score": "search.score_s",
    "fleet.admit": "fleet.admit_s",
    "fleet.queue_wait": "fleet.queue_wait_s",
    "fleet.execute": "fleet.execute_s",
    "fleet.cache_write": "fleet.cache_write_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics over the traced ops in ``spans``.

    Self times and counts are means per traced op; a layer the workload
    never calls reads 0.  ``unaccounted_frac`` is the share of traced op
    wall time that no wrapped call covers.
    """
    self_times = fold(spans)
    op_spans = [s for s in spans if s["name"] == OP]
    n_ops = len(op_spans)
    if n_ops == 0:
        raise ValueError("no traced ops recorded")
    seconds: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    counts: Dict[str, float] = dict.fromkeys(
        ("fallbacks", "subios", "events", "cells", "fused"), 0.0
    )
    for s in spans:
        if s["name"] == OP:
            continue
        seconds[s["name"]] += self_times[s["span_id"]]
        for key in counts:
            counts[key] += s.get(key, 0)
    out = {
        metric: seconds[name] / n_ops
        for name, metric in SELF_TIME_METRICS.items()
    }
    out.update({
        "sim.kernel.fallbacks": counts["fallbacks"] / n_ops,
        "sim.kernel.subios_per_s": _ratio(
            counts["subios"], seconds["sim.kernel.solve"]
        ),
        "sim.engine.events": counts["events"] / n_ops,
        "sim.engine.events_per_s": _ratio(
            counts["events"], seconds["replay.engine.event"]
        ),
        "sim.grid.s_per_cell": _ratio(
            seconds["sim.grid.eval"], counts["cells"]
        ),
        "sim.grid.fused_frac": _ratio(counts["fused"], counts["cells"]),
        "unaccounted_frac": _ratio(
            sum(self_times[s["span_id"]] for s in op_spans),
            sum(s["end"] - s["start"] for s in op_spans),
        ),
    })
    return out


# ---------------------------------------------------------------------------
# Outside-in wrappers


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    return getattr(sys.modules[module], attr)


def _bindings(func: Callable) -> List[Tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``func``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                found.append((module, attr))
    return found


def _subios(device: Any) -> int:
    members = getattr(device, "disks", None) or [device]
    return sum(getattr(m, "completed_count", 0) for m in members)


class Tracer:
    """Installs the layer wrappers on enter and restores them on exit.

    The fleet wrappers follow a job across the scheduler's threads: the
    admit wrapper maps the job and its spec to the submitting op, so the
    queue-wait, execute and cache-write spans land on that op.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        import repro.core.loadcontrol
        import repro.core.timescale
        import repro.fleet.scheduler
        import repro.fleet.workers
        import repro.host.ledger
        import repro.replay.engine
        import repro.replay.session
        import repro.search.driver
        import repro.sim.grid
        import repro.sim.kernel
        import repro.storage.array
        import repro.trace.blktrace
        import repro.workload.parallel

        self._job_ops: Dict[str, Optional[int]] = {}
        self._spec_ops: Dict[int, Optional[int]] = {}
        self._admitted: Dict[str, float] = {}
        rec = recorder
        self._patches: List[Tuple[Any, str, Any, Any]] = []

        def plain(name: str) -> Callable:
            def make(orig):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    with rec.span(name):
                        return orig(*args, **kwargs)
                return wrapper
            return make

        def kernel(orig):
            @functools.wraps(orig)
            def wrapper(sim, trace, device, *args, **kwargs):
                before = _subios(device)
                with rec.span("sim.kernel.solve") as info:
                    outcome, reason = orig(sim, trace, device, *args, **kwargs)
                    if outcome is None:
                        info.update(name="sim.kernel.wasted", fallbacks=1,
                                    reason=reason)
                    else:
                        info["subios"] = _subios(device) - before
                return outcome, reason
            return wrapper

        def event_loop(orig):
            @functools.wraps(orig)
            def wrapper(engine, *args, **kwargs):
                before = engine.sim.events_processed
                with rec.span("replay.engine.event") as info:
                    try:
                        return orig(engine, *args, **kwargs)
                    finally:
                        info["events"] = engine.sim.events_processed - before
            return wrapper

        def grid(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with rec.span("sim.grid.eval") as info:
                    evals = orig(*args, **kwargs)
                    info["cells"] = len(evals)
                    info["fused"] = sum(ev.result is not None for ev in evals)
                return evals
            return wrapper

        def admit(orig):
            @functools.wraps(orig)
            async def wrapper(sched, spec, *args, **kwargs):
                op = rec.current_op()
                with rec.span("fleet.admit"):
                    job = await orig(sched, spec, *args, **kwargs)
                self._job_ops[job.job_id] = op
                if not job.future.done():  # not served from the cache
                    self._spec_ops[id(spec)] = op
                    self._admitted[job.job_id] = time.perf_counter()
                return job
            return wrapper

        def dispatch(orig):
            @functools.wraps(orig)
            def wrapper(worker, job, *args, **kwargs):
                admitted = self._admitted.pop(job.job_id, None)
                if admitted is not None:
                    rec.interval("fleet.queue_wait", admitted,
                                 time.perf_counter(),
                                 self._job_ops.get(job.job_id))
                return orig(worker, job, *args, **kwargs)
            return wrapper

        def execute(orig):
            @functools.wraps(orig)
            def wrapper(context, spec, *args, **kwargs):
                with rec.bind(self._spec_ops.pop(id(spec), None)):
                    with rec.span("fleet.execute"):
                        return orig(context, spec, *args, **kwargs)
            return wrapper

        def cache_write(job_id_of: Callable) -> Callable:
            def make(orig):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    op = self._job_ops.get(job_id_of(args, kwargs),
                                           rec.current_op())
                    with rec.span("fleet.cache_write", op=op):
                        return orig(*args, **kwargs)
                return wrapper
            return make

        functions = [
            ("repro.trace.blktrace:loads_packed", plain("trace.decode")),
            ("repro.storage.array:build_hdd_raid5", plain("storage.build")),
            ("repro.storage.array:build_ssd_raid5", plain("storage.build")),
            ("repro.sim.kernel:try_kernel_replay", kernel),
            ("repro.sim.grid:evaluate_grid_cells", grid),
            ("repro.workload.parallel:run_grid", plain("workload.parallel")),
            ("repro.search.driver:evaluate_search", plain("search.score")),
            ("repro.fleet.scheduler:record_fleet_job", cache_write(
                lambda a, k: k.get("job_id", a[1] if len(a) > 1 else None)
            )),
        ]
        methods = [
            (repro.core.loadcontrol.LoadController, "apply",
             plain("core.filter")),
            (repro.core.timescale.TimeScaler, "apply", plain("core.filter")),
            (repro.replay.session.ReplaySession, "run",
             plain("replay.session")),
            (repro.replay.engine.ReplayEngine, "run_to_completion",
             event_loop),
            (repro.fleet.scheduler.FleetScheduler, "submit", admit),
            (repro.fleet.workers.LocalWorker, "submit", dispatch),
            (repro.fleet.workers.EvaluationContext, "execute", execute),
            (repro.host.ledger.RunLedger, "cache_put", cache_write(
                lambda a, k: k.get("run_id", a[3] if len(a) > 3 else None)
            )),
        ]
        for path, make in functions:
            orig = _resolve(path)
            wrapper = make(orig)
            for owner, attr in _bindings(orig):
                self._patches.append((owner, attr, orig, wrapper))
        for cls, attr, make in methods:
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig, make(orig)))

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def targets(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every wrapped binding."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._patches]

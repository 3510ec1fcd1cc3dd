"""Perf harness: run one seeded workload and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload replay-read --seed 1
    python3 benchmarks/perf/run.py --workload fleet-mix --seed 1 --trace 1
    python3 benchmarks/perf/run.py --workload search-grid --seed 2 \\
        --traced spans.jsonl --json result.json
    python3 benchmarks/perf/run.py --reference

A run builds its inputs and fixtures several times, runs one warm-up
op, then runs rounds of ops for ``--seconds`` and checks every output
against the event-engine digests in ``reference.json`` (or, for a seed
without digests, against the run's own first output of the same kind).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a traced run, which
alternates traced and untraced rounds.  The metric names and units are
the ones ``BENCHMARK.json`` declares.  See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
#: Fleet ledgers and other temporary files; removed when the run ends.
WORKDIR = ROOT / ".perf_tmp"
SETUP_REPEATS = 3
MIN_ROUNDS = 4
MAX_UNACCOUNTED = 0.05
#: Seeds ``--reference`` fills when reference.json has none for a workload.
REFERENCE_SEEDS = tuple(range(1, 11))


def benchmark():
    return json.loads(BENCHMARK.read_text())


def declared_units(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


def import_repro():
    """Import ``repro`` from this checkout's ``src``, never elsewhere."""
    # One thread per process for BLAS; the fleet adds one worker thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not {src}")


def provenance(workload, seed, inputs):
    """Code, host and input identity for the ``--json`` record."""
    import numpy

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "inputs_sha256": hashlib.sha256(inputs).hexdigest(),
    }


def load_reference():
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def check(records, expected):
    """Mark each record ok or failed; return the failed ones.

    With ``expected`` digests (keyed like ``record.key``) every output
    must match them.  Without, every output must match the first output
    of the same key: the run must at least be deterministic.
    """
    seen = dict(expected or {})
    failed = []
    for r in records:
        if r.error is None and r.key not in seen:
            seen[r.key] = r.digest
        if r.error is not None or r.digest != seen.get(r.key):
            failed.append(r)
    return failed


def rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_p50(rounds):
    """Median latency over every op of ``rounds``."""
    return statistics.median(r.seconds for recs, _ in rounds for r in recs)


def rate(rounds, per_op):
    """``per_op`` summed over every op of ``rounds``, per wall second."""
    return (sum(per_op(r) for recs, _ in rounds for r in recs)
            / sum(wall for _, wall in rounds))


def upper_percentile(values):
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None, None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def run(args):
    import workloads
    from spans import SpanRecorder, Tracer, layer_metrics

    import_s = time.perf_counter() - START
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir=args.workdir)
    recorder = SpanRecorder() if args.traced else None
    try:
        # Each set-up rebuilds inputs and fixtures from the seed; the
        # last one stays for the warm-up op and the timed rounds.
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = wl.warmup()
        warmup_s = time.perf_counter() - t0
        setup_s = import_s + statistics.median(setups) + warmup_s
        # Sampled here: later ops only add allocator fragmentation, which
        # varies from run to run by up to 15%.
        peak_rss_mb = rss_mib()

        tracer = Tracer(recorder) if recorder is not None else None
        ops = itertools.count()
        rounds = []  # (records, wall seconds, traced)
        t_start = time.perf_counter()
        for n in itertools.count():
            if (time.perf_counter() - t_start >= args.seconds
                    and n >= MIN_ROUNDS):
                break
            if tracer is not None and n % 2 == 1:
                with tracer:
                    rounds.append((*wl.run_round(ops, recorder), True))
            else:
                rounds.append((*wl.run_round(ops), False))
    finally:
        wl.close()
        if recorder is not None and args.spans:
            recorder.write_jsonl(args.spans)

    plain = [(recs, wall) for recs, wall, t in rounds if not t]
    traced = [(recs, wall) for recs, wall, t in rounds if t]
    timed = [r for recs, _, _ in rounds for r in recs]
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    checked = warm + timed
    failed = check(checked, expected)
    out = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
    }
    if recorder is None:
        metrics = {
            "op_p50_s": op_p50(plain),
            "packages_per_s": rate(plain, lambda r: r.packages),
            "ops_per_s": rate(plain, lambda r: 1),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_units("end_to_end")
    else:
        jobs = [r for r in timed if r.cache_hit is not None]
        latencies = [r.seconds for recs, _ in plain for r in recs
                     if r.cache_hit is not None]
        metrics = layer_metrics(recorder.spans)
        metrics.update({
            "fleet.dedup_hit_frac": (
                sum(r.cache_hit for r in jobs) / len(jobs) if jobs else 0.0
            ),
            "fleet.job_p95_s": (
                statistics.quantiles(latencies, n=20)[18]
                if len(latencies) >= 20 else 0.0
            ),
            "tracing_overhead_frac": op_p50(traced) / op_p50(plain) - 1.0,
        })
        units = declared_units("per_layer")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"BENCHMARK.json declares metrics this run does not compute: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    out["metrics"] = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
    }

    seconds = [r.seconds for r in timed]
    pct, upper = upper_percentile(seconds)
    print(f"{args.workload} seed {args.seed}: {len(timed)} ops in "
          f"{len(rounds)} rounds ({len(traced)} traced); "
          f"op median {statistics.median(seconds):.6g} s"
          + (f", p{pct} {upper:.6g} s" if pct else "")
          + "; checked against "
          + ("reference digests" if expected else "the first output"))
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    for r in failed:
        print(f"  FAILED op {r.op_id} ({r.key}): "
              f"{r.error or 'digest mismatch'}")

    if args.json:
        record = provenance(args.workload, args.seed, wl.input_bytes())
        record.update(out)
        record.update({
            "seconds": args.seconds,
            "traced": recorder is not None,
            "error_rate": len(failed) / len(checked),
            "rounds": [
                {"traced": t, "wall_s": wall,
                 "op_seconds": [r.seconds for r in recs]}
                for recs, wall, t in rounds
            ],
            "setup": {"import_s": import_s, "setups_s": setups,
                      "warmup_s": warmup_s},
        })
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")

    if recorder is not None and metrics["unaccounted_frac"] > MAX_UNACCOUNTED:
        print(f"unaccounted_frac {metrics['unaccounted_frac']:.3f} exceeds "
              f"{MAX_UNACCOUNTED}: a layer is missing from the trace",
              file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


def regenerate_reference(args):
    """Recompute event-engine digests for the named workloads and seeds."""
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    reference = load_reference()
    for name in names:
        # By default every seed the file already has, so none goes stale.
        seeds = args.seeds or sorted(
            int(s) for s in reference.get(name, {})
        ) or REFERENCE_SEEDS
        for seed in seeds:
            wl = workloads.WORKLOADS[name](
                seed, engine="event", workdir=args.workdir
            )
            t0 = time.perf_counter()
            try:
                wl.setup()
                digests = wl.reference()
            finally:
                wl.close()
            reference.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests in "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
            REFERENCE.write_text(
                json.dumps(reference, indent=2, sort_keys=True) + "\n"
            )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long to run timed rounds "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--traced", metavar="SPANS_JSONL", dest="spans",
                        help="traced run that also writes its spans here")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result with provenance here")
    parser.add_argument("--reference", action="store_true",
                        help="regenerate reference.json on the event engine")
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="seeds for --reference (default: the seeds "
                             "reference.json has, else 1-10)")
    args = parser.parse_args(argv)
    args.traced = bool(args.trace or args.spans)
    if args.seconds is None:
        args.seconds = benchmark()["run_seconds"]

    try:
        import_repro()
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS and not (
            args.reference and args.workload is None):
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    args.workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        if args.reference:
            return regenerate_reference(args)
        return run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload natality-cube --seed 1 \\
        --seconds 20 --trace 0

Set-up (input generation from ``--seed`` plus warm-up) runs
``SETUP_REPEATS`` times and ``setup_s`` is the median.  The timed ops
then run as a closed loop with one client for ``--seconds``; every
op's output is checked.  Every time reported is host-normalised
against a fixed reference unit timed beside it
(:mod:`perfbench.reference`); the raw clock readings are printed on
comment lines.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` alternates untraced cycles of ops with cycles traced by
spans around each layer's entry points (:mod:`perfbench.tracing`), and
prints the per-layer metrics.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402  (none imports numpy or repro)
from perfbench.reference import REFERENCE_S, Reference  # noqa: E402
from perfbench.stats import (  # noqa: E402
    OpRecord,
    by_kind,
    class_percentile,
    failed_ratio,
    kind_balanced_mean,
    layer_self_time,
    median,
    normalise,
    self_times,
    shares,
)

SETUP_REPEATS = 3


def _clean_environment() -> None:
    """Run before numpy or repro is imported.

    ``REPRO_*`` knobs that CI legs export (shards, strategy, refresh
    mode) would change what is measured, and native thread pools would
    make a single-client run measure the scheduler.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[name] = "1"


def _host() -> dict:
    import importlib.util

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "duckdb": importlib.util.find_spec("duckdb") is not None,
    }


def _setup(workload_cls, seed: int, reference):
    """Set up *SETUP_REPEATS* times.

    Returns the last workload, the normalised set-up times and the raw
    ones.  The reference unit runs once before and once after each
    set-up, and every set-up is normalised by the median of all those
    timings: one set-up lasts seconds, so the two timings right beside
    it say less about the host's speed during it than the whole
    phase's do.  Each timing follows other work, as between ops: run
    back to back, the unit would find its data in cache and read fast.
    """

    first = len(reference.walls)
    raw = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        reference.time()
        t0 = time.perf_counter()
        workload = workload_cls(seed)
        raw.append(time.perf_counter() - t0)
        reference.time()
    gc.collect()
    ref = median(reference.walls[first:])
    return workload, [normalise(t, ref, ref, REFERENCE_S) for t in raw], raw


class _Between:
    """The reference unit, timed between consecutive ops.

    :meth:`next` times it once more and returns the timings on both
    sides of the op that just ended.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.last = reference.time()

    def next(self):
        before, self.last = self.last, self.reference.time()
        return before, self.last


def _run_op(workload, i: int, between: _Between, tracer=None):
    """Run, time and check op *i*; an op that raises counts as failed."""

    kind, cls, run = workload.op(i)
    root = tracer.begin_op() if tracer is not None else None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        output = run()
        raised = False
    except Exception as exc:  # counted as a failed op; the run goes on
        print(f"op {i} ({kind}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
        raised = True
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.end_op(root)
    ok = not raised and workload.check(kind, output)
    if not ok and not raised:
        print(f"op {i} ({kind}) returned a wrong output", file=sys.stderr)
    (ref_wall0, ref_cpu0), (ref_wall1, ref_cpu1) = between.next()
    return OpRecord(
        kind,
        cls,
        normalise(wall, ref_wall0, ref_wall1, REFERENCE_S),
        normalise(cpu, ref_cpu0, ref_cpu1, REFERENCE_S),
        ok,
        wall,
    )


def _measure(workload, seconds: float, between: _Between):
    """Untraced ops for *seconds*."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(_run_op(workload, len(records), between))
    return records


def _measure_traced(workload, seconds: float, between: _Between, tracer):
    """Alternate one untraced and one traced cycle of ops for *seconds*.

    A cycle (``workload.cycle`` ops) holds the workload's op mix once,
    so both sides see the same mix, and alternating them keeps slow
    drift of the host's speed out of the overhead ratio.  Returns the
    untraced records, the traced ones, and the cache (hits, misses)
    counted during traced cycles.
    """

    untraced, traced = [], []
    hits = misses = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for _ in range(workload.cycle):
            untraced.append(_run_op(workload, i, between))
            i += 1
        installed = tracing.install(tracer)
        hits0, misses0 = workload.cache_counts()
        try:
            for _ in range(workload.cycle):
                traced.append(_run_op(workload, i, between, tracer))
                i += 1
        finally:
            tracing.uninstall(installed)
        hits1, misses1 = workload.cache_counts()
        hits, misses = hits + hits1 - hits0, misses + misses1 - misses0
    return untraced, traced, (hits, misses)


def end_to_end(records, setup_times, peak_rss_mb):

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    return {
        "setup_s": (median(setup_times), "s"),
        "op_s_mean": (kind_balanced_mean(records, "wall_s"), "s"),
        "op_cpu_s_mean": (kind_balanced_mean(records, "cpu_s"), "s"),
        "ops_per_s": (attempted / sum(r.wall_s for r in records), "1/s"),
        "success_ratio": (1.0 - failed_ratio(attempted, failed), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _span_scale(traced, tracer):
    """Each span's op's host normalisation, so layer times match op times."""
    factors = [r.wall_s / r.raw_wall_s if r.raw_wall_s > 0 else 1.0 for r in traced]
    return [factors[op_id] for op_id in tracer.op_of_span]


def per_layer(untraced, traced, tracer, cache_delta):

    n = len(traced)
    totals = layer_self_time(tracer.spans, _span_scale(traced, tracer))
    op_time = sum(r.wall_s for r in traced)
    share = shares(totals, op_time)
    counts = tracer.counts
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[tracing.BUSY_METRIC[layer]] = (totals.get(layer, 0.0) / n, "s")
    for layer in tracing.LAYERS + ("bench.op",):
        metrics[f"{layer}.self_share"] = (share.get(layer, 0.0), "ratio")
    for name in (
        "core.numquery.filter_calls",
        "core.intervention.calls",
        "core.intervention.iterations",
        "engine.reduction.calls",
        "core.topk.rows_scanned",
        "backends.sqlbase.calls",
        "engine.database.fingerprint_calls",
    ):
        metrics[name] = (counts[name] / n, "count")
    refreshes = counts["incremental.session.refreshes"]
    metrics["incremental.session.patched_ratio"] = (
        counts["incremental.session.patched"] / refreshes if refreshes else 0.0,
        "ratio",
    )
    hits, misses = cache_delta
    metrics["service.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0,
        "ratio",
    )
    for cls in ("read", "write"):
        for q in (50, 90):
            metrics[f"{cls}_s_p{q}"] = (class_percentile(untraced, cls, q), "s")
    metrics["bench.trace_overhead_ratio"] = (
        kind_balanced_mean(traced) / kind_balanced_mean(untraced),
        "ratio",
    )
    return metrics


def _print_breakdown(traced, tracer) -> None:
    """Self-time share of each layer, per op class, for the log."""

    own = self_times(tracer.spans)
    scale = _span_scale(traced, tracer)
    by_cls = {}
    for (layer, *_), t, f, op_id in zip(tracer.spans, own, scale, tracer.op_of_span):
        table = by_cls.setdefault(traced[op_id].cls, {})
        table[layer] = table.get(layer, 0.0) + t * f
    for cls, table in sorted(by_cls.items()):
        total = sum(table.values())
        count = sum(1 for r in traced if r.cls == cls)
        print(f"# self-time share, {cls} ops (n={count}, {total / count:.4f} s/op):")
        for layer, t in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:<24} {t / total:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _clean_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("# host: " + json.dumps(_host(), sort_keys=True))
    reference = Reference()
    workload, setup_times, setup_raw = _setup(
        WORKLOADS[args.workload], args.seed, reference
    )
    print("# setup_s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("# setup_s, raw clock: " + " ".join(f"{t:.4f}" for t in setup_raw))

    between = _Between(reference)
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, cache_delta = _measure_traced(
            workload, args.seconds, between, tracer
        )
        metrics = per_layer(untraced, traced, tracer, cache_delta)
        _print_breakdown(traced, tracer)
        records = untraced + traced
    else:
        records = _measure(workload, args.seconds, between)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(records, setup_times, peak_kb / 1024)

    failed = sum(not r.ok for r in records)
    raw = by_kind(records, "raw_wall_s")
    for kind, walls in sorted(by_kind(records, "wall_s").items()):
        print(
            f"# {kind}: n={len(walls)} mean {sum(walls) / len(walls):.4f} s,"
            f" median {median(walls):.4f} s;"
            f" raw clock mean {sum(raw[kind]) / len(walls):.4f} s"
        )
    print(
        f"# reference unit: median {median(reference.walls):.5f} s"
        f" over {len(reference.walls)} runs"
    )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

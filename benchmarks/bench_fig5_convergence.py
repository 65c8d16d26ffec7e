"""E4/E14 — Figure 5 / Example 3.7: fixpoint convergence behaviour.

Three series:

* the Θ(n) chain: iterations grow linearly with n (tightness of
  Proposition 3.4);
* the single-back-and-forth chain: iterations stay ≤ 2s + 2 = 4
  regardless of n (Proposition 3.11);
* the no-back-and-forth running example: 2 iterations (Proposition 3.5).

Plus the accelerator gate: on the worst-case chain the closure index
(``strategy="closure"``) replaces the Θ(n) per-φ iteration of the
naive simultaneous schedule (the ``naive_fixpoint`` oracle) with index
probes, so Δ^φ must come out ≥ 5× faster than that schedule at the
full preset (≥ 3× at the CI smoke preset) — byte-identical deltas
either way.  The default ``fixpoint`` strategy, which computes the
same schedule by support counting, is timed beside them and recorded.
Run with ``--strategy closure`` to put the whole module on the closure
axis.
"""

import time
from dataclasses import asdict

import pytest
from conftest import print_series

from repro.core import compute_intervention, parse_explanation
from repro.core.intervention import make_strategy, naive_fixpoint
from repro.datasets import chains
from repro.datasets import running_example as rex


def test_fig5_chain_iterations(benchmark, strategy_option):
    sizes = [1, 2, 4, 8, 16]

    def sweep():
        out = []
        for p in sizes:
            db, phi = chains.example_37(p)
            result = compute_intervention(db, phi, strategy=strategy_option)
            out.append((db.total_rows(), result.iterations))
        return out

    series = benchmark(sweep)
    print_series("Figure 5: chain size n vs fixpoint iterations", series)
    benchmark.extra_info["series"] = series
    benchmark.extra_info["strategy"] = strategy_option or "fixpoint"
    for n, iters in series:
        if strategy_option == "closure":
            # Closure repair rounds are bounded by the fixpoint count
            # but collapse to 1 on the pure chain.
            assert iters <= n - 2
        else:
            assert iters == n - 2  # 4p - 1 with n = 4p + 1 (see chains.py)


def test_fig5_single_bf_constant_iterations(benchmark, strategy_option):
    sizes = [1, 4, 16]

    def sweep():
        out = []
        for p in sizes:
            db, phi = chains.single_back_and_forth_chain(p)
            result = compute_intervention(db, phi, strategy=strategy_option)
            out.append((db.total_rows(), result.iterations))
        return out

    series = benchmark(sweep)
    print_series(
        "Prop 3.11: single b&f chain, n vs iterations (bound = 4)", series
    )
    assert all(iters <= 4 for _, iters in series)


def test_fig5_no_bf_two_iterations(benchmark, strategy_option):
    db = rex.database(back_and_forth=False)
    phi = parse_explanation("Author.dom = 'com'")

    def run():
        return compute_intervention(db, phi, strategy=strategy_option)

    result = benchmark(run)
    print(f"\n== Prop 3.5: no b&f keys -> {result.iterations} iterations ==")
    assert result.iterations <= 2


def test_fig5_fixpoint_cost_scales(benchmark, strategy_option):
    """Wall-clock of one full fixpoint on the largest chain."""
    db, phi = chains.example_37(32)  # n = 129
    result = benchmark(
        lambda: compute_intervention(db, phi, strategy=strategy_option)
    )
    benchmark.extra_info["iterations"] = result.iterations
    if strategy_option == "closure":
        assert result.iterations == 1
    else:
        assert result.iterations == chains.expected_iterations(32)


def _best_of(fn, reps):
    """(min, median) wall-clock seconds over *reps* calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[0], times[len(times) // 2]


def test_fig5_closure_speedup(preset, json_record):
    """The accelerator gate: closure probes beat the Θ(n) fixpoint.

    Worst-case chain (Example 3.7 shape, p=3): the naive simultaneous
    fixpoint pays 4p - 1 iterations per φ, each a pass over the whole
    database; the closure index answers from precomputed reachability
    (one productive round).  The index build is amortized across the
    many candidate φ of a cube, so it is warmed outside the timed
    region and reported separately.  The counting engine (the default
    ``fixpoint`` strategy) runs the same 4p - 1 layers at a cost per
    layer that follows what it deletes; its time is recorded, not
    gated.  The assertion is cpu-guarded: on a machine too noisy to
    trust the ratio (median ≫ min) the numbers are still recorded but
    the gate self-skips.
    """
    p = 3
    reps = 60 if preset == "small" else 200
    floor = 3.0 if preset == "small" else 5.0
    db, phi = chains.example_37(p)
    fixpoint = make_strategy(db, strategy="fixpoint")
    closure = make_strategy(db, strategy="closure")

    t0 = time.perf_counter()
    closure.compute(phi)  # builds + caches the ClosureIndex
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    fixpoint.compute(phi)  # builds the support counts
    counting_build_seconds = time.perf_counter() - t0

    fix_min, fix_med = _best_of(lambda: naive_fixpoint(fixpoint, phi), reps)
    clo_min, clo_med = _best_of(lambda: closure.compute(phi), reps)
    cnt_min, cnt_med = _best_of(lambda: fixpoint.compute(phi), reps)

    fix_result = naive_fixpoint(fixpoint, phi)
    clo_result = closure.compute(phi)
    cnt_result = fixpoint.compute(phi)
    assert fix_result.delta == clo_result.delta  # byte-identical Δ^φ
    assert cnt_result.delta == fix_result.delta
    assert clo_result.iterations == 1

    speedup = fix_min / clo_min
    json_record(
        "fig5_closure_speedup",
        preset=preset,
        p=p,
        rows=db.total_rows(),
        speedup=round(speedup, 2),
        fixpoint={
            "iterations": fix_result.iterations,
            "min_s": fix_min,
            "median_s": fix_med,
            "trace": [asdict(t) for t in fix_result.trace],
        },
        closure={
            "rounds": clo_result.iterations,
            "build_s": build_seconds,
            "min_s": clo_min,
            "median_s": clo_med,
            "trace": [asdict(t) for t in clo_result.trace],
        },
        counting={
            "iterations": cnt_result.iterations,
            "build_s": counting_build_seconds,
            "min_s": cnt_min,
            "median_s": cnt_med,
        },
    )
    print(
        f"\n== Closure gate (p={p}): naive fixpoint {fix_min * 1e6:.0f}us "
        f"({fix_result.iterations} iters) vs closure {clo_min * 1e6:.0f}us "
        f"(build {build_seconds * 1e6:.0f}us) -> {speedup:.1f}x; "
        f"counting {cnt_min * 1e6:.0f}us =="
    )
    noisy = fix_med > 2 * fix_min or clo_med > 2 * clo_min
    if noisy:
        pytest.skip(
            f"cpu too noisy for the speedup gate (median/min ratio "
            f"fixpoint {fix_med / fix_min:.2f}, closure "
            f"{clo_med / clo_min:.2f}); measured {speedup:.1f}x"
        )
    assert speedup >= floor, (
        f"closure strategy only {speedup:.1f}x faster than fixpoint "
        f"(need >= {floor}x at preset {preset!r})"
    )

"""Columnar execution core: speedup gates for the vectorized hot path.

The engine's cube/group-by/join operators run column-at-a-time; the
original row-at-a-time implementations are retained as oracles
(``cube_rowwise``, ``group_by_rowwise``).  This module is the gate for
the refactor, on the Figure 12-style workload (natality, Q_Race-shaped
count aggregates over explanation attributes):

* the columnar single-pass ``cube`` must be **>= 3x** faster than the
  row-at-a-time cube on the count-only workload Algorithm 1 issues;
* mixed-aggregate cube and plain group-by speedups are recorded (gated
  only against outright regression);
* the intervention fixpoint (program P), whose Rule (i) now runs over
  zero-copy column slices, must still produce the identical Δ and
  iteration trace — timed for the JSON trajectory, not wall-clock
  gated;
* the selection kernel (``Table.selection``) must select exactly the
  rows the row-wise ``Expression.evaluate`` accepts on the Q_Race and
  Q_Marital WHERE predicates, and be **>= 3x** faster doing it.

Run small (the CI smoke preset) with::

    pytest benchmarks/bench_columnar.py --preset small --json columnar.json
"""

import time

from conftest import print_series

from repro.core import compute_intervention, parse_explanation
from repro.datasets import natality
from repro.engine.aggregates import AggregateSpec, agg_min, agg_sum, count_star
from repro.engine.cube import cube, cube_rowwise
from repro.engine.groupby import group_by, group_by_rowwise
from repro.engine.universal import universal_table

PRESET_ROWS = {"small": 4_000, "full": 20_000}
DIMENSIONS = ["Birth.marital", "Birth.prenatal", "Birth.tobacco"]

# Q_Race's Algorithm 1 cube aggregates are all counts (one per
# numerator/denominator aggregate); this mirrors that shape.
COUNT_AGGS = [count_star("n_num"), count_star("n_den")]
MIXED_AGGS = [
    count_star("n"),
    AggregateSpec("count", "Birth.age", "n_age"),
    agg_sum("x", "sum_x"),
    agg_min("x", "min_x"),
]


def _with_measure(u):
    """The universal table plus a synthetic numeric measure column
    (natality is all-categorical; SUM/MIN need numbers to chew on)."""
    from repro.engine.table import Table

    x = [i % 97 for i in range(len(u))]
    return Table.from_columns(
        list(u.columns) + ["x"], u.column_arrays() + [x]
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_columnar_cube_speedup(preset, benchmark, json_record):
    """The refactor's headline gate: columnar cube >= 3x row cube."""
    db = natality.generate(rows=PRESET_ROWS[preset], seed=7)
    u = universal_table(db)
    um = _with_measure(u)

    def measure():
        t_col, fast = _best_of(lambda: cube(u, DIMENSIONS, COUNT_AGGS))
        t_row, slow = _best_of(lambda: cube_rowwise(u, DIMENSIONS, COUNT_AGGS))
        assert fast == slow
        t_col_mixed, fast_m = _best_of(lambda: cube(um, DIMENSIONS, MIXED_AGGS))
        t_row_mixed, slow_m = _best_of(
            lambda: cube_rowwise(um, DIMENSIONS, MIXED_AGGS)
        )
        assert fast_m == slow_m
        return t_col, t_row, t_col_mixed, t_row_mixed

    t_col, t_row, t_col_mixed, t_row_mixed = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    count_speedup = t_row / t_col
    mixed_speedup = t_row_mixed / t_col_mixed
    print_series(
        f"Columnar cube, natality {PRESET_ROWS[preset]} rows x 3 dims",
        [
            ("row (counts)", t_row),
            ("columnar (counts)", t_col),
            ("speedup (counts)", count_speedup),
            ("row (mixed)", t_row_mixed),
            ("columnar (mixed)", t_col_mixed),
            ("speedup (mixed)", mixed_speedup),
        ],
    )
    benchmark.extra_info["count_speedup"] = count_speedup
    benchmark.extra_info["mixed_speedup"] = mixed_speedup
    json_record(
        "columnar_cube",
        preset=preset,
        count_speedup=count_speedup,
        mixed_speedup=mixed_speedup,
    )
    assert count_speedup >= 3.0, (
        f"columnar cube only {count_speedup:.2f}x over row-at-a-time"
    )
    assert mixed_speedup >= 1.0, "mixed-aggregate cube regressed"


def test_columnar_group_by_speedup(preset, benchmark, json_record):
    """Plain group-by must not regress (recorded, loosely gated)."""
    db = natality.generate(rows=PRESET_ROWS[preset], seed=7)
    u = universal_table(db)

    def measure():
        t_col, fast = _best_of(lambda: group_by(u, DIMENSIONS, COUNT_AGGS))
        t_row, slow = _best_of(
            lambda: group_by_rowwise(u, DIMENSIONS, COUNT_AGGS)
        )
        assert fast == slow
        return t_col, t_row

    t_col, t_row = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = t_row / t_col
    print_series(
        f"Columnar group-by, natality {PRESET_ROWS[preset]} rows",
        [("row", t_row), ("columnar", t_col), ("speedup", speedup)],
    )
    benchmark.extra_info["speedup"] = speedup
    json_record("columnar_group_by", preset=preset, speedup=speedup)
    assert speedup >= 0.8, "columnar group-by regressed"


def test_columnar_filter_speedup(preset, benchmark, json_record):
    """Selection kernel vs row-wise evaluation of the WHERE predicates."""
    db = natality.generate(rows=PRESET_ROWS[preset], seed=7)
    u = universal_table(db)
    wheres = [
        q.where
        for question in (
            natality.q_race_question(),
            natality.q_marital_question(),
        )
        for q in question.query.aggregates
    ]

    def kernel():
        return [u.selection(w) for w in wheres]

    def rowwise():
        envs = list(u.iter_environments())
        return [
            [i for i, env in enumerate(envs) if w.evaluate(env)]
            for w in wheres
        ]

    def measure():
        t_kernel, fast = _best_of(kernel)
        t_row, slow = _best_of(rowwise)
        assert fast == slow
        return t_kernel, t_row

    t_kernel, t_row = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = t_row / t_kernel
    print_series(
        f"Selection kernel, natality {PRESET_ROWS[preset]} rows x "
        f"{len(wheres)} WHERE predicates",
        [("row-wise", t_row), ("kernel", t_kernel), ("speedup", speedup)],
    )
    benchmark.extra_info["speedup"] = speedup
    json_record(
        "columnar_filter",
        preset=preset,
        kernel_s=t_kernel,
        rowwise_s=t_row,
        speedup=speedup,
    )
    assert speedup >= 3.0, (
        f"selection kernel only {speedup:.2f}x over row-wise evaluation"
    )


def test_fixpoint_unchanged_and_timed(preset, benchmark, json_record):
    """Program P on the columnar core: same Δ, same trace, timed."""
    db = natality.generate(rows=PRESET_ROWS[preset] // 4, seed=7)
    phi = parse_explanation(
        "Birth.marital = 'married' AND Birth.tobacco = 'smoking'"
    )

    def run():
        return compute_intervention(db, phi)

    result = benchmark(run)
    # The natality schema has no foreign keys, so program P converges
    # in one productive iteration: the seeds already leave a reduced,
    # φ-free residue.  A second iteration would mean the columnar
    # Rule (i) diverged from the row semantics.
    assert result.iterations == 1
    assert result.size == result.seeds.size()
    removed = result.delta.rows_for("Birth")
    survivors = db.relation("Birth").rows() - removed
    marital = db.schema.relation("Birth").attribute_names.index("marital")
    tobacco = db.schema.relation("Birth").attribute_names.index("tobacco")
    assert all(
        not (row[marital] == "married" and row[tobacco] == "smoking")
        for row in survivors
    )
    assert all(
        row[marital] == "married" and row[tobacco] == "smoking"
        for row in removed
    )
    json_record(
        "fixpoint",
        preset=preset,
        delta_size=result.size,
        iterations=result.iterations,
    )

"""Repo-specific configuration consumed by the RL checks.

Everything a check needs to know about *this* codebase — layer order,
allowed third-party roots, oracle quarantine, which modules are allowed
to author SQL text, metric naming rules — lives here rather than inside
the checks, so policy changes are one-line diffs with history.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, Set, Tuple

# -- RL001: layering ---------------------------------------------------------

#: repro subpackage -> layer rank.  A module may import (at module level)
#: only from its own layer or below.  ``obs`` sits below everything: any
#: layer may instrument itself.
LAYERS: Dict[str, int] = {
    "obs": -1,
    "engine": 0,
    "parallel": 1,
    "incremental": 2,
    "core": 3,
    "analysis": 4,
    "backends": 5,
    "datasets": 5,
    "bench": 6,
    "service": 6,
}

#: Top-level repro modules treated as the topmost layer (they may import
#: anything).
TOP_LEVEL_MODULES: Set[str] = {"cli", "__main__", "__init__"}

#: Slow reference implementations: importable only from their defining
#: module and the parity tests that pin the fast paths against them.
ORACLES: Set[str] = {
    "cube_rowwise",
    "cube_bruteforce",
    "group_by_rowwise",
    "naive_fixpoint",
}

ORACLE_ALLOWLIST: Set[str] = {
    "src/repro/engine/cube.py",
    "src/repro/engine/groupby.py",
    "src/repro/core/intervention.py",
    "tests/engine/test_cube.py",
    "tests/property/test_engine_properties.py",
    "tests/property/test_columnar_properties.py",
    "tests/property/test_intervention_properties.py",
    "tests/core/test_cube_algorithm.py",
    "tests/core/test_intervention.py",
    # The speedup benchmarks time the fast paths *against* the oracles;
    # like the parity tests, measuring them is what quarantine is for.
    "benchmarks/bench_columnar.py",
    "benchmarks/bench_example41_cube.py",
    "benchmarks/bench_fig5_convergence.py",
}

# -- RL002: stdlib purity ----------------------------------------------------

#: repro subpackages that must import only the stdlib (and repro itself)
#: at module level.  ``backends`` is the integration layer and exempt;
#: everything else degrades gracefully or not at all.
STDLIB_ONLY_EXEMPT_SUBPACKAGES: Set[str] = {"backends"}

#: (subpackage, filename) -> third-party roots that one file may import
#: at module level despite the purity rule (always behind a guard).
THIRD_PARTY_EXEMPTIONS: Dict[Tuple[str, str], Set[str]] = {
    ("engine", "fastpath.py"): {"numpy"},
    # The natality generator is numpy-vectorized end to end; unlike
    # fastpath it has no scalar fallback, so the dependency is honest.
    ("datasets", "natality.py"): {"numpy"},
}


def stdlib_names() -> FrozenSet[str]:
    names = getattr(sys, "stdlib_module_names", None)
    if names is None:  # pragma: no cover - requires Python < 3.10
        raise SystemExit("reprolint requires Python >= 3.10 (stdlib_module_names)")
    return frozenset(names) | {"__future__"}


# -- RL003: subscriber notification ------------------------------------------

#: Methods on subscriber-bearing classes that mutate the row store one
#: row at a time; batch methods are expected to wrap loops over these in
#: try/finally with the ``_notify`` call in the finally block.
MUTATION_PRIMITIVE_PREFIXES: Tuple[str, ...] = ("_insert_row", "_delete_row")

# -- RL004: cache staleness --------------------------------------------------

#: Attribute-name fragments that mark a memo/cache slot.
CACHE_NAME_FRAGMENTS: Tuple[str, ...] = ("cache", "cached", "memo", "memoized")

#: Name fragment whose presence in a guard expression counts as a
#: mutation-version check.
VERSION_FRAGMENT = "version"

# -- RL005: spawn safety -----------------------------------------------------

#: Importing these names marks a module as a process-pool *driver*.
SPAWN_POOL_NAMES: Set[str] = {"ProcessPoolExecutor"}

# -- RL006: SQL hygiene ------------------------------------------------------

#: Modules allowed to build SQL text from fragments.  Everyone else must
#: call into these (or keep SQL as pure literals).
SQL_AUTHORING_MODULES: Set[str] = {
    "src/repro/core/sqlgen.py",
    "src/repro/backends/sqlbase.py",
    "src/repro/backends/sqlite_backend.py",
    "src/repro/backends/duckdb_backend.py",
}

#: Interpolated names with these suffixes are treated as pre-rendered,
#: already-sanitized SQL fragments.
SQL_FRAGMENT_SUFFIXES: Tuple[str, ...] = ("_sql", "sql")

# -- RL007: metrics ----------------------------------------------------------

METRIC_NAME_PREFIX = "repro_"

#: Unit suffixes a histogram family must end with.
HISTOGRAM_SUFFIXES: Tuple[str, ...] = (
    "_seconds",
    "_bytes",
    "_rows",
    "_nodes",
    "_iterations",
    "_rounds",
)

#: Synthetic per-family series Prometheus exposes for histograms —
#: references to <family> + one of these resolve to the family.
HISTOGRAM_SERIES_SUFFIXES: Tuple[str, ...] = ("_count", "_sum", "_bucket")

# -- RL008: code-table sync --------------------------------------------------

RS_LINTER_MODULE = "src/repro/analysis/linter.py"
RS_DOC = "docs/analysis.md"
RL_DOC = "docs/static_analysis.md"

"""Span tracing around the public entry points of each ``repro`` layer.

The benchmark never edits the program: :func:`install` replaces each
entry point listed in :data:`ENTRY_POINTS` with a wrapper that records
a span ``(layer, start, end, parent)`` for the op in flight, plus the
counts named beside it, and :func:`uninstall` puts the originals back.
A module-level function is replaced wherever a loaded ``repro`` module
holds it (``from x import f`` copies the reference); a method is
replaced on its class.  Spans stay in memory until the run ends.

Only calls made on the thread that owns the tracer, while an op is
open, are recorded; the benchmark drives one op at a time from its
main thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .stats import Span

Hook = Callable[[Dict[str, float], tuple, Any], None]


def _iterations(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["core.intervention.iterations"] += result.iterations


def _rows_scanned(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["core.topk.rows_scanned"] += len(args[0])


def _refreshed(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["incremental.session.patched"] += result.strategy == "patched"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped entry point: ``attr`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    attr: str
    calls: Optional[str] = None
    hook: Optional[Hook] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("engine.universal", "repro.engine.universal", "universal_table"),
    # Both filter the universal table: ``evaluate`` for q_original,
    # ``filtered`` for each cube's input.
    EntryPoint(
        "core.numquery",
        "repro.core.numquery",
        "AggregateQuery.evaluate",
        calls="core.numquery.filter_calls",
    ),
    EntryPoint(
        "core.numquery",
        "repro.core.numquery",
        "AggregateQuery.filtered",
        calls="core.numquery.filter_calls",
    ),
    EntryPoint("engine.cube", "repro.engine.cube", "cube"),
    EntryPoint("engine.cube", "repro.engine.fastpath", "cube_numpy"),
    EntryPoint("engine.cube", "repro.engine.cube", "cube_from_base_states"),
    EntryPoint("engine.joins", "repro.engine.joins", "full_outer_join_many"),
    EntryPoint(
        "core.cube_algorithm",
        "repro.core.cube_algorithm",
        "finalize_explanation_table",
    ),
    EntryPoint("analysis.analyzer", "repro.analysis.analyzer", "analyze_plan"),
    EntryPoint(
        "core.intervention",
        "repro.core.intervention",
        "FixpointStrategy.compute",
        calls="core.intervention.calls",
        hook=_iterations,
    ),
    EntryPoint(
        "core.intervention",
        "repro.core.intervention",
        "ClosureStrategy.compute",
        calls="core.intervention.calls",
        hook=_iterations,
    ),
    EntryPoint(
        "engine.reduction",
        "repro.engine.reduction",
        "reduce_row_sets",
        calls="engine.reduction.calls",
    ),
    EntryPoint(
        "core.iterative",
        "repro.core.iterative",
        "IndexedInterventionEvaluator.build_table",
    ),
    EntryPoint(
        "core.topk", "repro.core.topk", "top_k_explanations", hook=_rows_scanned
    ),
    EntryPoint(
        "backends.sqlbase",
        "repro.backends.sqlbase",
        "SQLBackend.build_explanation_table",
        calls="backends.sqlbase.calls",
    ),
    EntryPoint(
        "backends.sqlbase",
        "repro.backends.sqlbase",
        "SQLBackend.top_k",
        calls="backends.sqlbase.calls",
    ),
    EntryPoint(
        "engine.database",
        "repro.engine.database",
        "Database.content_fingerprint",
        calls="engine.database.fingerprint_calls",
    ),
    EntryPoint(
        "engine.database",
        "repro.engine.database",
        "Database.fingerprint_from_digests",
        calls="engine.database.fingerprint_calls",
    ),
    EntryPoint(
        "service.engine", "repro.service.engine", "ExplanationService.table_for"
    ),
    EntryPoint(
        "service.cache", "repro.service.cache", "ExplanationTableCache.put"
    ),
    EntryPoint(
        "incremental.session",
        "repro.incremental.session",
        "IncrementalSession.refresh",
        calls="incremental.session.refreshes",
        hook=_refreshed,
    ),
)

#: Every layer a span can carry, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))

#: The metric that reports each layer's self time per op.
BUSY_METRIC: Dict[str, str] = {
    "engine.universal": "engine.universal.busy_s",
    "core.numquery": "core.numquery.filter_busy_s",
    "engine.cube": "engine.cube.busy_s",
    "engine.joins": "engine.joins.busy_s",
    "core.cube_algorithm": "core.cube_algorithm.finalize_busy_s",
    "analysis.analyzer": "analysis.analyzer.busy_s",
    "core.intervention": "core.intervention.busy_s",
    "engine.reduction": "engine.reduction.busy_s",
    "core.iterative": "core.iterative.busy_s",
    "core.topk": "core.topk.busy_s",
    "backends.sqlbase": "backends.sqlbase.busy_s",
    "engine.database": "engine.database.fingerprint_busy_s",
    "service.engine": "service.engine.table_for_busy_s",
    "service.cache": "service.cache.put_busy_s",
    "incremental.session": "incremental.session.refresh_busy_s",
}

#: Every count the hooks and call counters can bump.
COUNTS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [e.calls for e in ENTRY_POINTS if e.calls]
        + [
            "core.intervention.iterations",
            "core.topk.rows_scanned",
            "incremental.session.patched",
        ]
    )
)


class Tracer:
    """In-memory spans and counts for the ops of one traced run.

    Ops are numbered from 0 in the order they begin; ``op_of_span[i]``
    is the number of the op that span ``i`` belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_of_span: List[int] = []
        self.ops = 0
        self.counts: Dict[str, float] = {name: 0 for name in COUNTS}
        self._owner = threading.get_ident()
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def recording(self) -> bool:
        return self._op is not None and threading.get_ident() == self._owner

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((layer, time.perf_counter(), 0.0, parent))
        self.op_of_span.append(self.ops - 1)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        layer, start, _, parent = self.spans[index]
        self.spans[index] = (layer, start, time.perf_counter(), parent)
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the next op's root span; returns its index."""
        self._op = self.ops
        self.ops += 1
        return self.open("bench.op")

    def end_op(self, root: int) -> None:
        """Close the op's root span."""
        self.close(root)
        self._op = None


def _wrap(tracer: Tracer, entry: EntryPoint, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording():
            return fn(*args, **kwargs)
        index = tracer.open(entry.layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if entry.calls:
            tracer.counts[entry.calls] += 1
        if entry.hook is not None:
            entry.hook(tracer.counts, args, result)
        return result

    return traced


#: ``(owner, attribute name, original)`` for every replacement made.
Installed = List[Tuple[object, str, Callable]]


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    installed: Installed = []
    for entry in ENTRY_POINTS:
        module = importlib.import_module(entry.module)
        if "." in entry.attr:
            cls_name, name = entry.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[name]
            installed.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, entry, original))
            continue
        original = getattr(module, entry.attr)
        wrapped = _wrap(tracer, entry, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    installed.append((mod, name, original))
                    setattr(mod, name, wrapped)
    return installed


def uninstall(installed: Installed) -> None:
    for owner, name, original in reversed(installed):
        setattr(owner, name, original)

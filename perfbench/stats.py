"""Arithmetic of the benchmark: percentiles, op summaries, span self time.

Pure functions over plain numbers and tuples, so they can be tested
without running a workload and without importing :mod:`repro`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100), linear between closest ranks.

    The same rule as numpy's default: position ``q/100 * (n - 1)`` in
    the sorted sample, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def normalise(
    seconds: float, ref_before: float, ref_after: float, reference_s: float
) -> float:
    """*seconds* on a host that runs the reference unit in *reference_s*.

    The reference unit was timed just before (*ref_before*) and just
    after (*ref_after*) the measured work; their mean is the host's
    speed while it ran.
    """
    ref = (ref_before + ref_after) / 2.0
    if ref <= 0.0:
        raise ValueError(f"reference time must be positive, got {ref}")
    return seconds * reference_s / ref


@dataclass(frozen=True)
class OpRecord:
    """One timed op: its kind (question or request type) and class.

    ``cls`` is ``"question"`` for the batch workloads and ``"read"`` /
    ``"write"`` for the service workload.  ``wall_s`` and ``cpu_s`` are
    host-normalised (:func:`normalise`); ``raw_wall_s`` is the wall
    time as the clock read it, kept for the log.
    """

    kind: str
    cls: str
    wall_s: float
    cpu_s: float
    ok: bool
    raw_wall_s: float = 0.0


def by_kind(ops: Iterable[OpRecord], field: str) -> Dict[str, List[float]]:
    groups: Dict[str, List[float]] = {}
    for op in ops:
        groups.setdefault(op.kind, []).append(getattr(op, field))
    return groups


def kind_balanced_mean(ops: Sequence[OpRecord], field: str = "wall_s") -> float:
    """The mean of each op kind, averaged over kinds with equal weight.

    Equal weights keep the figure from moving when a run happens to end
    with one more op of a costly kind.  Means, not medians: on a shared
    host an op kind's times split into a fast and a slow group with the
    host's load, and a median jumps between the groups where a mean
    moves with the share of slow ops only.
    """
    groups = by_kind(ops, field)
    if not groups:
        raise ValueError("no ops")
    return sum(sum(v) / len(v) for v in groups.values()) / len(groups)


def failed_ratio(attempted: int, failed: int) -> float:
    """Ops that raised or returned a wrong output, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def class_percentile(ops: Sequence[OpRecord], cls: str, q: float) -> float:
    """Pooled percentile of one op class; 0.0 when the class is absent."""
    values = [op.wall_s for op in ops if op.cls == cls]
    return percentile(values, q) if values else 0.0


# -- spans -------------------------------------------------------------------

#: ``(layer, start, end, parent)`` — *parent* indexes the enclosing
#: span in the same list, or is ``None`` for an op's root span.
Span = Tuple[str, float, float, Optional[int]]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def layer_self_time(
    spans: Sequence[Span], scale: Optional[Sequence[float]] = None
) -> Dict[str, float]:
    """Total self time per layer name.

    *scale*, if given, holds one factor per span that its self time is
    multiplied by: the benchmark passes each op's host normalisation.
    """
    totals: Dict[str, float] = {}
    factors = scale if scale is not None else [1.0] * len(spans)
    for (layer, *_), own, factor in zip(spans, self_times(spans), factors):
        totals[layer] = totals.get(layer, 0.0) + own * factor
    return totals


def shares(totals: Mapping[str, float], op_time: float) -> Dict[str, float]:
    """Each layer's self time as a share of total op time."""
    if op_time <= 0:
        return {layer: 0.0 for layer in totals}
    return {layer: t / op_time for layer, t in totals.items()}

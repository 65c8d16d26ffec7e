"""Program **P**: computing the minimal intervention Δ^φ (Section 3).

Given a database D and a candidate explanation φ, the intervention
Δ^φ (Definition 2.6) is the unique minimal Δ such that

1. Δ is *closed* under the causal semantics of the foreign keys
   (standard cascade, back-and-forth cascade — Definition 2.5),
2. the residual database ``D − Δ`` is semijoin-reduced,
3. no tuple of ``U(D − Δ)`` satisfies φ.

Theorem 3.3 identifies Δ^φ with the least fixpoint of the recursive
program **P**:

* Rule (i)  — *seeds*: ``Δ_i ⊇ R_i − Π_{A_i}(σ_{¬φ} U(D))``
  (first iteration only);
* Rule (ii) — *semijoin reduction*:
  ``Δ_i ⊇ R_i − Π_{A_i}[(R_1−Δ_1) ⋈ … ⋈ (R_k−Δ_k)]``;
* Rule (iii) — *backward cascade*: for each back-and-forth foreign key
  ``R_j.fk ↔ R_i.pk``: ``Δ_i ⊇ R_i ⋉ Δ_j``.

The program is monotone in the Δ's (Proposition 3.1), so *any* fair
evaluation schedule reaches the same least fixpoint.  This module
offers two interchangeable schedules behind the
:class:`InterventionStrategy` protocol:

* :class:`FixpointStrategy` — naive simultaneous evaluation (apply all
  rules to Δ^t, union the results into Δ^{t+1}, stop when nothing
  changes), computed as a layered worklist over support counts built
  once per strategy: each layer is one iteration, and costs what it
  deletes instead of a pass over D.  Its iteration counter matches the
  convergence statements of Propositions 3.4, 3.5, 3.10 and 3.11 and
  the n−1 lower bound of Example 3.7.  (:data:`InterventionEngine`
  remains an alias for backward compatibility.)  The literal
  whole-database loop survives as the test oracle
  :func:`naive_fixpoint`.
* :class:`ClosureStrategy` — probes the precomputed FK cascade closure
  index (:mod:`repro.engine.closure`): Δ^φ is the union of the seeds'
  transitive deletion closures plus a bounded semijoin repair loop.
  The delta is byte-identical; ``iterations`` counts repair rounds,
  which never exceed the fixpoint count (each round dominates one
  naive iteration) and collapse the Example 3.7 zig-zag to one.

Pick a schedule explicitly (``strategy="fixpoint"|"closure"``), via
the ``REPRO_STRATEGY`` environment variable, or let the static plan
certificate recommend one (``strategy="auto"``, which boils down to
:func:`recommended_strategy_for_schema`).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from ..engine.closure import ClosureIndex
from ..engine.database import Database, Delta
from ..engine.expressions import Not
from ..engine.reduction import RowSets, is_semijoin_reduced, reduce_row_sets
from ..engine.schema import DatabaseSchema
from ..engine.table import Table
from ..engine.types import Row
from ..engine.universal import JoinTree, universal_table
from ..errors import AnalysisInvariantError, ConvergenceError, ExplanationError
from ..obs import get_registry, phase
from .predicates import Predicate

#: The interchangeable program-P evaluation schedules.
STRATEGIES = ("fixpoint", "closure")

#: Pseudo-strategy: let the plan certificate (or, data-free, the
#: schema's back-and-forth key count) pick the schedule.
AUTO_STRATEGY = "auto"

DEFAULT_STRATEGY = "fixpoint"

#: Productive iterations per fixpoint run — makes the convergence
#: bounds of Props 3.4/3.5/3.10/3.11 observable in ``/v1/metrics``.
_P_ITERATIONS = get_registry().histogram(
    "repro_program_p_iterations",
    buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0),
    help="Productive program-P iterations per fixpoint run.",
)


def _strategy_counter(name: str) -> None:
    get_registry().counter(
        "repro_intervention_strategy_total",
        labels={"strategy": name},
        help="Δ^φ computations per intervention strategy.",
    ).inc()


@dataclass(frozen=True)
class IterationTrace:
    """What one fixpoint iteration (or closure repair round) discovered.

    ``new_by_rule`` maps rule labels ("seed", "reduce", "backward" for
    the fixpoint schedule; "seed", "closure", "reduce" for the closure
    schedule) to the number of tuples that rule contributed *new* to Δ
    in this iteration; ``delta_size`` is |Δ| after the iteration.
    """

    iteration: int
    new_by_rule: Dict[str, int]
    delta_size: int

    @property
    def new_total(self) -> int:
        """Total new tuples discovered this iteration."""
        return sum(self.new_by_rule.values())


@dataclass(frozen=True)
class InterventionResult:
    """The computed intervention plus its provenance.

    ``iterations`` counts productive iterations (the final quiescent
    check is excluded), matching the counting used by the paper's
    convergence propositions; under the closure strategy it counts
    productive repair rounds instead, which the same certified bounds
    dominate.
    """

    delta: Delta
    seeds: Delta
    iterations: int
    trace: Tuple[IterationTrace, ...]

    @property
    def size(self) -> int:
        """|Δ^φ| — total tuples deleted."""
        return self.delta.size()


class InterventionStrategy(Protocol):
    """One evaluation schedule for program P over one fixed database."""

    name: str
    database: Database
    universal: Table
    certified_bound: Optional[int]

    def seed_delta(self, phi: Predicate) -> Delta:
        """Δ¹: the Rule (i) seed tuples for *phi*."""
        ...

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Δ^φ — the least fixpoint of program P for *phi*."""
        ...


class _StrategyBase:
    """Shared plumbing: the universal table, join tree and Rule (i).

    The universal table is materialized once and reused for every
    explanation (Rule (i) only needs ``σ_{¬φ}(U)``), which is the
    dominant cost; pass ``universal`` if the caller already has it.
    """

    name = "base"

    def __init__(
        self,
        database: Database,
        *,
        universal: Optional[Table] = None,
        join_tree: Optional[JoinTree] = None,
        certified_bound: Optional[int] = None,
    ) -> None:
        self.database = database
        self.schema = database.schema
        self.join_tree = join_tree or JoinTree(self.schema)
        self.universal = (
            universal
            if universal is not None
            else universal_table(database, self.join_tree)
        )
        #: When set (by the static analyzer), every run asserts that
        #: its productive iteration count stays within this bound;
        #: a violation raises AnalysisInvariantError (analyzer bug).
        self.certified_bound = certified_bound

    # -- Rule (i) ---------------------------------------------------------

    def seed_delta(self, phi: Predicate) -> Delta:
        """Δ¹: the seed tuples (Rule (i)).

        ``Δ_i¹ = R_i − Π_{A_i}(σ_{¬φ}(U))`` — the minimum deletions
        that leave no φ-satisfying universal tuple, before closure and
        reduction are enforced.
        """
        # Survivors are the universal rows where φ is not true — rows
        # where φ is NULL survive — kept as a zero-copy selection.
        survivors = self.universal.filter(Not(phi.to_expression()))
        parts: Dict[str, Set[Row]] = {}
        for name in self.schema.relation_names:
            rs = self.schema.relation(name)
            # Π_{A_i}: zip the relation's qualified survivor columns
            # straight into a deduplicating set — no re-tupling of
            # whole universal rows.
            proj_cols = [
                survivors.column(f"{name}.{a}") for a in rs.attribute_names
            ]
            keep: Set[Row] = set(zip(*proj_cols))
            parts[name] = set(self.database.relation(name).rows()) - keep
        return Delta(self.schema, parts)

    def _assert_certified(self, iterations: int) -> None:
        if (
            self.certified_bound is not None
            and iterations > self.certified_bound
        ):
            raise AnalysisInvariantError(
                f"program P ({self.name} strategy) converged after "
                f"{iterations} productive iterations, exceeding the "
                f"statically certified bound of {self.certified_bound}; "
                f"the convergence analyzer (repro.analysis.fkgraph) "
                f"mis-certified this schema"
            )


class _Side(NamedTuple):
    """One side of one foreign-key edge, seen from the relation R on it."""

    #: R's join key on the edge.
    key: Callable[[Row], Hashable]
    #: The number of counted R tuples per key value.
    counts: Dict[Hashable, int]
    #: The index of this side's decrement overlay.
    slot: int
    #: The relation on the other side, and its tuples per key value.
    partner: str
    partners: Dict[Hashable, List[Row]]


def _group(
    rows: FrozenSet[Row], key: Callable[[Row], Hashable]
) -> Dict[Hashable, List[Row]]:
    index: Dict[Hashable, List[Row]] = {}
    for row in rows:
        index.setdefault(key(row), []).append(row)
    return index


def _absorb(
    deleted: Dict[str, Set[Row]], new: Mapping[str, AbstractSet[Row]]
) -> int:
    """Add *new* to *deleted*; returns how many tuples were not there."""
    added = 0
    for name, rows in new.items():
        fresh = rows - deleted[name]
        added += len(fresh)
        deleted[name].update(fresh)
    return added


class _SupportCounts:
    """Program P's support counts over one database, built once.

    For every foreign-key edge (join-tree and residual) and each of its
    two sides: the number of tuples on that side per join-key value,
    and a join-key → tuples index.  A tuple keeps its support on an
    edge while the other side still counts a tuple with its key, so a
    residual is semijoin-reduced exactly when no counted tuple depends
    on a zero count: Rule (ii) is the counting algorithm of view
    maintenance.  Construction cascades the zero counts of ``D`` itself
    and keeps what that removed as ``dangling`` — the tuples Rule (ii)
    deletes in the first iteration.  The stored counts then describe
    ``reduce(D)``; each run of program P decrements a private overlay
    of them (:meth:`overlays`), so a run costs what it deletes.
    """

    def __init__(self, database: Database) -> None:
        schema = database.schema
        names = schema.relation_names
        self.rows: Dict[str, FrozenSet[Row]] = {
            name: database.relation(name).rows() for name in names
        }
        self.sides: Dict[str, List[_Side]] = {name: [] for name in names}
        #: Rule (iii) probes, one per back-and-forth key: ``(source,
        #: source key, target, target tuples per key)``.
        self.backward_keys: List[
            Tuple[str, Callable[[Row], Hashable], str, Dict[Hashable, List[Row]]]
        ] = []
        self.slots = 0
        for fk in schema.foreign_keys:
            keys = (
                itemgetter(*schema.relation(fk.source).indexes_of(fk.source_attrs)),
                itemgetter(*schema.relation(fk.target).indexes_of(fk.target_attrs)),
            )
            ends = (fk.source, fk.target)
            groups = [_group(self.rows[end], key) for end, key in zip(ends, keys)]
            for this, other in ((0, 1), (1, 0)):
                counts = {k: len(rows) for k, rows in groups[this].items()}
                self.sides[ends[this]].append(
                    _Side(keys[this], counts, self.slots, ends[other], groups[other])
                )
                self.slots += 1
            if fk.back_and_forth:
                self.backward_keys.append((fk.source, keys[0], fk.target, groups[1]))

        dangling: Dict[str, Set[Row]] = {name: set() for name in names}
        stack = [
            (name, row)
            for name, sides in self.sides.items()
            for row in self.rows[name]
            if any(side.key(row) not in side.partners for side in sides)
        ]
        for name, row in stack:
            dangling[name].add(row)
        overlays = self.overlays()
        self.cascade(stack, dangling, overlays)
        for sides in self.sides.values():
            for side in sides:
                for k, d in overlays[side.slot].items():
                    side.counts[k] -= d
        self.dangling: Dict[str, FrozenSet[Row]] = {
            name: frozenset(rows) for name, rows in dangling.items()
        }

    def overlays(self) -> List[Dict[Hashable, int]]:
        """Fresh per-run decrements, one dict per side of every edge."""
        return [{} for _ in range(self.slots)]

    def counted(self, name: str, row: Row) -> bool:
        """True iff *row* is a tuple of ``reduce(D)`` (it has counts)."""
        return row in self.rows[name] and row not in self.dangling[name]

    def cascade(
        self,
        stack: List[Tuple[str, Row]],
        deleted: Dict[str, Set[Row]],
        overlays: List[Dict[Hashable, int]],
    ) -> Dict[str, Set[Row]]:
        """Rule (ii): withdraw the support of the tuples on *stack*.

        The stacked tuples are already in *deleted*.  Every count that
        drops to zero deletes the tuples on the other side of its edge
        that carry its key, and withdraws their support in turn.
        Returns the tuples this deleted, which are added to *deleted*.
        """
        found: Dict[str, Set[Row]] = {name: set() for name in deleted}
        sides = self.sides
        while stack:
            name, row = stack.pop()
            for key, counts, slot, partner, partners in sides[name]:
                k = key(row)
                overlay = overlays[slot]
                gone = overlay.get(k, 0) + 1
                overlay[k] = gone
                if gone != counts[k]:
                    continue
                dead = deleted[partner]
                new = found[partner]
                for other in partners.get(k, ()):
                    if other not in dead:
                        dead.add(other)
                        new.add(other)
                        stack.append((partner, other))
        return found

    def backward(
        self, fresh: Mapping[str, AbstractSet[Row]], deleted: Dict[str, Set[Row]]
    ) -> Dict[str, Set[Row]]:
        """Rule (iii): the targets of the newly deleted source tuples.

        Returns the targets not yet in *deleted*, and adds them to it.
        """
        found: Dict[str, Set[Row]] = {name: set() for name in deleted}
        for source, key, target, targets in self.backward_keys:
            dead = deleted[target]
            new = found[target]
            for row in fresh.get(source, ()):
                for other in targets.get(key(row), ()):
                    if other not in dead:
                        dead.add(other)
                        new.add(other)
        return found


class FixpointStrategy(_StrategyBase):
    """Program P's naive-simultaneous schedule, computed by counting.

    Each layer of the worklist is one iteration of naive simultaneous
    evaluation (:func:`naive_fixpoint`): it first applies the support
    decrements the previous layer deferred — its Rule (i) seeds and
    Rule (iii) targets — and cascades "count hits zero → delete", which
    is Rule (ii) over ``D − Δ^{t−1}``; it then probes the back-and-forth
    indexes with the previous layer's new tuples only, which is
    Rule (iii) over ``Δ^{t−1}``.  Δ^φ, ``iterations`` and the trace are
    therefore those of the naive schedule, at a per-layer cost
    proportional to what the layer deletes rather than to |D|.
    """

    name = "fixpoint"

    _support: Optional[_SupportCounts] = None

    def _support_counts(self) -> _SupportCounts:
        """The support counts (built on first use, then reused).

        Like the universal table, they describe the database as it was
        when first needed; build a new strategy after a mutation.
        """
        if self._support is None:
            self._support = _SupportCounts(self.database)
        return self._support

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Run program **P** to its least fixpoint for *phi*.

        ``max_iterations`` defaults to ``n + 2`` (Proposition 3.4 plus
        slack for the seed and final check); exceeding it raises
        :class:`~repro.errors.ConvergenceError`, which indicates an
        internal bug, not a user error.  ``seeds`` lets callers supply
        a precomputed Rule (i) result (the indexed evaluator of
        :mod:`repro.core.iterative` derives seeds from posting lists
        instead of re-scanning the universal table per explanation).
        """
        budget = (
            max_iterations
            if max_iterations is not None
            else self.database.total_rows() + 2
        )
        if seeds is None:
            seeds = self.seed_delta(phi)
        support = self._support_counts()
        overlays = support.overlays()
        deleted: Dict[str, Set[Row]] = {
            name: set() for name in self.schema.relation_names
        }
        # Deleted in the previous layer, support not yet withdrawn.
        deferred: List[Tuple[str, Row]] = []
        # Everything the previous layer deleted (Rule (iii) probes).
        fresh: Mapping[str, AbstractSet[Row]] = {}
        trace: List[IterationTrace] = []
        iteration = 0
        _strategy_counter(self.name)

        with phase("program_p") as run_ph:
            while True:
                iteration += 1
                if iteration > budget:
                    raise ConvergenceError(
                        f"program P exceeded {budget} iterations; "
                        "this is a bug"
                    )
                with phase("program_p.iteration") as iter_ph:
                    new_by_rule: Dict[str, int] = {}
                    if iteration == 1:
                        # Rule (ii) over D deletes the dangling tuples,
                        # which the counts already exclude.
                        seeded = seeds.parts()
                        new_by_rule["seed"] = _absorb(deleted, seeded)
                        new_by_rule["reduce"] = _absorb(
                            deleted, support.dangling
                        )
                        new_by_rule["backward"] = 0
                        deferred = [
                            (name, row)
                            for name, rows in seeded.items()
                            for row in rows
                            if support.counted(name, row)
                        ]
                        fresh = {
                            name: set(rows) for name, rows in deleted.items()
                        }
                    else:
                        reduced = support.cascade(deferred, deleted, overlays)
                        backward = support.backward(fresh, deleted)
                        new_by_rule["reduce"] = sum(map(len, reduced.values()))
                        new_by_rule["backward"] = sum(
                            map(len, backward.values())
                        )
                        deferred = [
                            (name, row)
                            for name, rows in backward.items()
                            for row in rows
                        ]
                        fresh = {
                            name: reduced[name] | backward[name]
                            for name in deleted
                        }
                    total_new = sum(new_by_rule.values())
                    delta_size = sum(len(rows) for rows in deleted.values())
                    iter_ph.annotate(
                        iteration=iteration,
                        seed=new_by_rule.get("seed", 0),
                        reduce=new_by_rule["reduce"],
                        backward=new_by_rule["backward"],
                        delta_size=delta_size,
                    )
                if total_new == 0:
                    # Quiescent iteration: not counted as productive.
                    iteration -= 1
                    break
                trace.append(
                    IterationTrace(
                        iteration,
                        {k: v for k, v in new_by_rule.items() if v},
                        delta_size,
                    )
                )
            _P_ITERATIONS.observe(iteration)
            run_ph.annotate(
                iterations=iteration, certified_bound=self.certified_bound
            )

        self._assert_certified(iteration)
        return InterventionResult(
            delta=Delta(self.schema, deleted),
            seeds=seeds,
            iterations=iteration,
            trace=tuple(trace),
        )


#: Backward-compatible name: the fixpoint schedule is the original
#: (and default) intervention engine.
InterventionEngine = FixpointStrategy


class ClosureStrategy(_StrategyBase):
    """Program P by FK cascade closure probes plus semijoin repair.

    Uses the per-database :class:`~repro.engine.closure.ClosureIndex`
    (built lazily on first use, shared across strategies and
    explanations, invalidated on mutation).  The computed delta is the
    same least fixpoint the :class:`FixpointStrategy` reaches — byte
    identical — while ``iterations`` reports productive repair rounds.
    """

    name = "closure"

    def __init__(
        self,
        database: Database,
        *,
        universal: Optional[Table] = None,
        join_tree: Optional[JoinTree] = None,
        certified_bound: Optional[int] = None,
    ) -> None:
        super().__init__(
            database,
            universal=universal,
            join_tree=join_tree,
            certified_bound=certified_bound,
        )

    @property
    def index(self) -> ClosureIndex:
        """The current (version-cached) closure index for the database."""
        return ClosureIndex.for_database(self.database)

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Δ^φ via closure-index probes.

        ``max_iterations`` bounds the repair rounds (default ``n + 2``,
        matching the fixpoint budget; repair rounds can only be fewer).
        """
        budget = (
            max_iterations
            if max_iterations is not None
            else self.database.total_rows() + 2
        )
        if seeds is None:
            seeds = self.seed_delta(phi)
        _strategy_counter(self.name)
        with phase("program_p", strategy=self.name) as run_ph:
            closure_delta = self.index.delta_from_seeds(
                seeds, join_tree=self.join_tree
            )
            if closure_delta.rounds > budget:
                raise ConvergenceError(
                    f"closure repair exceeded {budget} rounds; this is a bug"
                )
            trace: List[IterationTrace] = []
            delta_size = 0
            for i, new_by_rule in enumerate(closure_delta.new_by_round, 1):
                delta_size += sum(new_by_rule.values())
                trace.append(IterationTrace(i, dict(new_by_rule), delta_size))
            run_ph.annotate(
                iterations=closure_delta.rounds,
                probes=closure_delta.probes,
                certified_bound=self.certified_bound,
            )
        self._assert_certified(closure_delta.rounds)
        return InterventionResult(
            delta=closure_delta.delta,
            seeds=seeds,
            iterations=closure_delta.rounds,
            trace=tuple(trace),
        )


# -- strategy selection -----------------------------------------------------


def recommended_strategy_for_schema(schema: DatabaseSchema) -> str:
    """The schedule the static analyzer would pick for *schema*.

    Back-and-forth keys are what make the fixpoint slow (Example 3.7's
    Θ(n) zig-zag needs them); without any, Proposition 3.5 bounds the
    fixpoint at 2 iterations and the closure index cannot help — its
    repair loop *is* those 2 iterations.  This is the data-free core
    of :attr:`repro.analysis.analyzer.PlanCertificate.recommended_strategy`.
    """
    return "closure" if schema.back_and_forth_keys else "fixpoint"


def resolve_strategy_setting(name: Optional[str]) -> str:
    """The configured strategy: explicit arg, else ``REPRO_STRATEGY``,
    else :data:`DEFAULT_STRATEGY`.  May return :data:`AUTO_STRATEGY`
    unresolved — config layers (service, CLI) keep "auto" symbolic and
    resolve it per plan."""
    if name is None:
        raw = os.environ.get("REPRO_STRATEGY", "").strip()
        if raw and raw not in STRATEGIES and raw != AUTO_STRATEGY:
            warnings.warn(
                f"ignoring unknown REPRO_STRATEGY={raw!r}; choose from "
                f"{STRATEGIES + (AUTO_STRATEGY,)}",
                RuntimeWarning,
            )
            raw = ""
        name = raw or DEFAULT_STRATEGY
    if name != AUTO_STRATEGY and name not in STRATEGIES:
        raise ExplanationError(
            f"unknown intervention strategy {name!r}; choose from "
            f"{STRATEGIES + (AUTO_STRATEGY,)}"
        )
    return name


def resolve_strategy(
    name: Optional[str], *, schema: Optional[DatabaseSchema] = None
) -> str:
    """The effective strategy: :func:`resolve_strategy_setting` with
    :data:`AUTO_STRATEGY` resolved via *schema* (required then)."""
    name = resolve_strategy_setting(name)
    if name == AUTO_STRATEGY:
        if schema is None:
            raise ExplanationError(
                "strategy 'auto' needs a schema (or a plan certificate) "
                "to resolve against"
            )
        return recommended_strategy_for_schema(schema)
    return name


def make_strategy(
    database: Database,
    *,
    strategy: Optional[str] = None,
    universal: Optional[Table] = None,
    join_tree: Optional[JoinTree] = None,
    certified_bound: Optional[int] = None,
) -> InterventionStrategy:
    """Construct the resolved :class:`InterventionStrategy` for *database*."""
    resolved = resolve_strategy(strategy, schema=database.schema)
    cls = ClosureStrategy if resolved == "closure" else FixpointStrategy
    return cls(
        database,
        universal=universal,
        join_tree=join_tree,
        certified_bound=certified_bound,
    )


def compute_intervention(
    database: Database,
    phi: Predicate,
    *,
    universal: Optional[Table] = None,
    strategy: Optional[str] = None,
) -> InterventionResult:
    """One-shot Δ^φ computation (convenience wrapper)."""
    return make_strategy(
        database, strategy=strategy, universal=universal
    ).compute(phi)


# -- test oracle ------------------------------------------------------------


def _naive_reduce(
    strategy: _StrategyBase, residual: RowSets
) -> Dict[str, Set[Row]]:
    """Rule (ii): tuples dropped by semijoin-reducing the residual."""
    probe = {name: set(rows) for name, rows in residual.items()}
    reduce_row_sets(strategy.schema, probe, strategy.join_tree)
    return {
        name: residual[name] - probe[name] for name in residual
    }


def _naive_backward(
    strategy: _StrategyBase, deleted: Dict[str, Set[Row]]
) -> Dict[str, Set[Row]]:
    """Rule (iii): backward cascade along back-and-forth FKs.

    For ``R_j.fk ↔ R_i.pk``: every R_i tuple whose primary key is
    referenced by a *deleted* R_j tuple must be deleted.
    """
    schema = strategy.schema
    found: Dict[str, Set[Row]] = {
        name: set() for name in schema.relation_names
    }
    for fk in schema.back_and_forth_keys:
        source_schema = schema.relation(fk.source)
        target_rel = strategy.database.relation(fk.target)
        src_pos = source_schema.indexes_of(fk.source_attrs)
        referenced = {
            tuple(row[i] for i in src_pos) for row in deleted[fk.source]
        }
        if not referenced:
            continue
        tgt_pos = target_rel.schema.indexes_of(fk.target_attrs)
        for row in target_rel:
            if tuple(row[i] for i in tgt_pos) in referenced:
                found[fk.target].add(row)
    return found


def naive_fixpoint(
    strategy: _StrategyBase,
    phi: Predicate,
    *,
    max_iterations: Optional[int] = None,
    seeds: Optional[Delta] = None,
) -> InterventionResult:
    """Program **P** by literal naive simultaneous evaluation (oracle).

    Every iteration applies all three rules to Δ^{t−1} and unions the
    results into Δ^t: Rule (ii) semijoin-reduces a copy of the whole
    residual ``D − Δ^{t−1}`` and Rule (iii) scans every back-and-forth
    target relation, so an iteration costs O(|D|) however little it
    deletes.  Quarantined as the test oracle that
    :class:`FixpointStrategy` is pinned against (same Δ^φ,
    ``iterations`` and trace), and as the Θ(n) baseline of the closure
    speedup benchmark.  *strategy* supplies the database, join tree,
    Rule (i) and the certified bound.
    """
    budget = (
        max_iterations
        if max_iterations is not None
        else strategy.database.total_rows() + 2
    )
    deleted: Dict[str, Set[Row]] = {
        name: set() for name in strategy.schema.relation_names
    }
    all_rows: Dict[str, FrozenSet[Row]] = {
        name: strategy.database.relation(name).rows()
        for name in strategy.schema.relation_names
    }

    if seeds is None:
        seeds = strategy.seed_delta(phi)
    trace: List[IterationTrace] = []
    iteration = 0

    def residual() -> RowSets:
        return {
            name: set(all_rows[name]) - deleted[name]
            for name in all_rows
        }

    with phase("program_p") as run_ph:
        while True:
            iteration += 1
            if iteration > budget:
                raise ConvergenceError(
                    f"program P exceeded {budget} iterations; "
                    "this is a bug"
                )
            with phase("program_p.iteration") as iter_ph:
                new_by_rule: Dict[str, int] = {}
                # Rules (ii) and (iii) evaluate against the Δ of
                # the *previous* iteration (naive simultaneous
                # semantics): take snapshots before absorbing any
                # rule's output, including the seeds — in iteration
                # 1 rules (ii)/(iii) see Δ⁰ = ∅, which is the
                # counting used by Example 3.7 / Prop 3.5.
                snapshot_residual = residual()
                snapshot_deleted = {
                    name: set(rows) for name, rows in deleted.items()
                }
                if iteration == 1:
                    new_by_rule["seed"] = _absorb(
                        deleted,
                        {
                            name: set(rows)
                            for name, rows in seeds.parts().items()
                        },
                    )
                reduce_new = _naive_reduce(strategy, snapshot_residual)
                backward_new = _naive_backward(strategy, snapshot_deleted)
                new_by_rule["reduce"] = _absorb(deleted, reduce_new)
                new_by_rule["backward"] = _absorb(deleted, backward_new)
                total_new = sum(new_by_rule.values())
                delta_size = sum(
                    len(rows) for rows in deleted.values()
                )
                iter_ph.annotate(
                    iteration=iteration,
                    seed=new_by_rule.get("seed", 0),
                    reduce=new_by_rule["reduce"],
                    backward=new_by_rule["backward"],
                    delta_size=delta_size,
                )
            if total_new == 0:
                # Quiescent iteration: not counted as productive.
                iteration -= 1
                break
            trace.append(
                IterationTrace(
                    iteration,
                    {k: v for k, v in new_by_rule.items() if v},
                    delta_size,
                )
            )
        run_ph.annotate(
            iterations=iteration, certified_bound=strategy.certified_bound
        )

    strategy._assert_certified(iteration)
    return InterventionResult(
        delta=Delta(strategy.schema, deleted),
        seeds=seeds,
        iterations=iteration,
        trace=tuple(trace),
    )


# -- validity checking (Definition 2.6) ------------------------------------


def is_closed(database: Database, delta: Delta) -> bool:
    """Definition 2.5: Δ is closed under cascade and backward cascade."""
    for fk in database.schema.foreign_keys:
        source = database.relation(fk.source)
        target = database.relation(fk.target)
        src_pos = source.schema.indexes_of(fk.source_attrs)
        tgt_pos = target.schema.indexes_of(fk.target_attrs)
        deleted_target_keys = {
            tuple(row[i] for i in tgt_pos) for row in delta.rows_for(fk.target)
        }
        # Forward cascade: deleting the referenced tuple deletes all
        # referencing tuples.
        for row in source:
            key = tuple(row[i] for i in src_pos)
            if key in deleted_target_keys and row not in delta.rows_for(fk.source):
                return False
        if fk.back_and_forth:
            deleted_source_keys = {
                tuple(row[i] for i in src_pos)
                for row in delta.rows_for(fk.source)
            }
            # Backward cascade: deleting the referencing tuple deletes
            # the referenced tuple.
            for row in target:
                key = tuple(row[i] for i in tgt_pos)
                if key in deleted_source_keys and row not in delta.rows_for(
                    fk.target
                ):
                    return False
    return True


def is_valid_intervention(
    database: Database, phi: Predicate, delta: Delta
) -> bool:
    """All three conditions of Definition 2.6 (not necessarily minimal)."""
    if not is_closed(database, delta):
        return False
    residual = database.subtract(delta)
    rowsets: RowSets = {
        name: set(rel.rows()) for name, rel in residual.relations.items()
    }
    if not is_semijoin_reduced(database.schema, rowsets):
        return False
    residual_universal = universal_table(residual)
    return not residual_universal.selection(phi.to_expression())

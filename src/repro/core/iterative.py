"""Optimized exact evaluation for all candidates (Section 6(i)).

When the numerical query is *not* intervention-additive, Algorithm 1
does not apply and the paper's prototype falls back to a naive loop it
acknowledges is "too slow"; Section 6(i) lists optimizing that loop as
future work.  This module is one such optimization.  It computes the
**exact** (program-P) intervention degree for every candidate
explanation, sharing work across candidates:

* the universal table is materialized once and every row gets an id;
* per relevant attribute, a **posting list** maps each value to the
  ids of the universal rows carrying it, so ``σ_φ(U)`` is a set
  intersection, not a scan;
* per relation, each tuple's universal row ids are precomputed, so
  Rule (i) seeds (``tuples all of whose rows satisfy φ``) come from
  counting occurrences inside ``σ_φ(U)`` only, and the tuples with no
  universal row (seeded for every φ) are found once;
* ``Q(D − Δ^φ)`` is evaluated by row survival (a universal row
  survives iff none of its projections were deleted): the rows of the
  deleted tuples are subtracted from precomputed per-aggregate
  row-id sets and value counts, so the cost follows |Δ^φ|, not |U| —
  no joins are re-run.

The candidate set equals the cube algorithm's (every combination of
attribute values with support), so the output table is directly
comparable to — and validated against — both the cube table (on
additive queries) and the per-candidate exact evaluator.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..engine.cube import grouping_sets
from ..engine.database import Database, Delta
from ..engine.table import Table
from ..engine.types import DUMMY, Row, Value, is_null
from ..engine.universal import JoinTree, universal_table
from ..errors import QueryError
from ..obs import phase
from .cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from .intervention import make_strategy
from .numquery import AggregateQuery
from .question import UserQuestion


class IndexedInterventionEvaluator:
    """Exact degrees for all candidate explanations over ``attributes``.

    Usable for any numerical query (additive or not).  Per candidate,
    σ_φ(U) and the seeds are posting-list work and program P and the
    survival count cost what Δ^φ deletes.  ``support_threshold`` drops
    every non-trivial candidate none of whose aggravation values
    ``q_j(D_φ)`` reaches it, as the naive evaluator does.
    """

    def __init__(
        self,
        database: Database,
        question: UserQuestion,
        attributes: Sequence[str],
        *,
        universal: Optional[Table] = None,
        strategy: Optional[str] = None,
        support_threshold: Optional[float] = None,
    ) -> None:
        self.database = database
        self.question = question
        self.attributes = tuple(attributes)
        self.support_threshold = support_threshold
        self.join_tree = JoinTree(database.schema)
        self.universal = (
            universal
            if universal is not None
            else universal_table(database, self.join_tree)
        )
        # Certify the convergence bound statically and assert it as a
        # runtime invariant on every per-candidate fixpoint run: program
        # P exceeding the certified bound means the analyzer (or the
        # engine) is wrong, and must be raised loudly, not absorbed.
        from ..analysis.fkgraph import certify_convergence

        self.convergence = certify_convergence(
            database.schema, total_rows=database.total_rows()
        )
        self.engine = make_strategy(
            database,
            strategy=strategy,
            universal=self.universal,
            join_tree=self.join_tree,
            certified_bound=self.convergence.bound,
        )
        self._n = len(self.universal)
        self._build_posting_lists()
        self._build_projection_cache()
        self._build_aggregate_indexes()

    # -- index construction ------------------------------------------------

    def _build_posting_lists(self) -> None:
        """attribute -> value -> frozenset of universal row ids.

        Built by a single scan of each attribute's *column* — the
        universal table's rows are never re-tupled.
        """
        self.postings: Dict[str, Dict[Value, Set[int]]] = {}
        for attr in self.attributes:
            lists: Dict[Value, Set[int]] = {}
            for idx, value in enumerate(self.universal.column(attr)):
                if is_null(value):
                    raise QueryError(
                        f"attribute {attr!r} contains NULL; explanation "
                        "attributes must be non-null"
                    )
                lists.setdefault(value, set()).add(idx)
            self.postings[attr] = lists

    def _build_projection_cache(self) -> None:
        """Per relation: row id -> tuple, tuple -> row ids, and the
        tuples with no universal row."""
        schema = self.database.schema
        self.row_tuples: Dict[str, List[Row]] = {}
        self.tuple_rows: Dict[str, Dict[Row, List[int]]] = {}
        self.unmatched: Dict[str, FrozenSet[Row]] = {}
        for name in schema.relation_names:
            rs = schema.relation(name)
            cols = [
                self.universal.column(f"{name}.{a}")
                for a in rs.attribute_names
            ]
            projected = list(zip(*cols)) if cols else [()] * self._n
            rows_of: Dict[Row, List[int]] = {}
            for idx, t in enumerate(projected):
                rows_of.setdefault(t, []).append(idx)
            self.row_tuples[name] = projected
            self.tuple_rows[name] = rows_of
            self.unmatched[name] = frozenset(
                t for t in self.database.relation(name).rows() if t not in rows_of
            )

    def _build_aggregate_indexes(self) -> None:
        """Per aggregate: its WHERE row-id set, its argument column and
        the multiplicity of each non-null argument value in that set."""
        from ..engine.expressions import compile_predicate

        self.agg_rows: Dict[str, FrozenSet[int]] = {}
        self.agg_arg_col: Dict[str, Optional[List[Value]]] = {}
        self.agg_value_counts: Dict[str, Counter[Value]] = {}
        for q in self.question.query.aggregates:
            if q.where is None:
                ids: FrozenSet[int] = frozenset(range(self._n))
            else:
                needed = tuple(q.where.columns())
                fn = compile_predicate(q.where, needed)
                if not needed:
                    ids = (
                        frozenset(range(self._n))
                        if fn(())
                        else frozenset()
                    )
                else:
                    cols = [self.universal.column(c) for c in needed]
                    ids = frozenset(
                        idx
                        for idx, vals in enumerate(zip(*cols))
                        if fn(vals)
                    )
            self.agg_rows[q.name] = ids
            if q.aggregate.argument is None:
                self.agg_arg_col[q.name] = None
            else:
                arg_col = self.universal.column(q.aggregate.argument)
                self.agg_arg_col[q.name] = arg_col
                self.agg_value_counts[q.name] = _value_counts(arg_col, ids)

    # -- per-candidate machinery --------------------------------------------

    def phi_row_ids(self, assignment: Dict[str, Value]) -> Set[int]:
        """σ_φ(U) as row ids, by posting-list intersection."""
        if not assignment:
            return set(range(self._n))
        lists = sorted(
            (self.postings[attr].get(value, set()) for attr, value in assignment.items()),
            key=len,
        )
        result = set(lists[0])
        for other in lists[1:]:
            result &= other
            if not result:
                break
        return result

    def seeds_from_rows(self, phi_rows: Set[int]) -> Delta:
        """Rule (i) seeds: tuples whose *every* U occurrence satisfies φ.

        Tuples with no U occurrence at all (possible only on a
        non-semijoin-reduced input) are seeded too, matching the
        literal ``R_i − Π_{A_i}(σ_¬φ U)``.
        """
        parts: Dict[str, Set[Row]] = {}
        for name in self.database.schema.relation_names:
            projected = self.row_tuples[name]
            inside = Counter(projected[idx] for idx in phi_rows)
            rows_of = self.tuple_rows[name]
            seeded = {t for t, c in inside.items() if c == len(rows_of[t])}
            seeded.update(self.unmatched[name])
            parts[name] = seeded
        return Delta(self.database.schema, parts)

    def dead_row_ids(self, delta: Delta) -> Set[int]:
        """U rows that project onto a tuple of Δ."""
        dead: Set[int] = set()
        for name in self.database.schema.relation_names:
            rows_of = self.tuple_rows[name]
            for t in delta.rows_for(name):
                dead.update(rows_of.get(t, ()))
        return dead

    def surviving_row_ids(self, delta: Delta) -> Set[int]:
        """U rows whose projections all survive ``D − Δ``.

        By construction of program P (closure + reduction) these are
        exactly the rows of ``U(D − Δ^φ)``.
        """
        return set(range(self._n)) - self.dead_row_ids(delta)

    def _aggregate_over(self, q: AggregateQuery, row_ids: Set[int]) -> Value:
        relevant = self.agg_rows[q.name] & row_ids
        kind = _check_supported(q)
        if kind in ("count_star", "count"):
            return len(relevant)
        arg_col = self.agg_arg_col[q.name]
        assert arg_col is not None
        return len(_value_counts(arg_col, relevant))

    def _aggregate_without(self, q: AggregateQuery, dead: Set[int]) -> Value:
        """The aggregate over every U row except *dead*."""
        rows = self.agg_rows[q.name]
        removed = rows & dead
        kind = _check_supported(q)
        if kind in ("count_star", "count"):
            return len(rows) - len(removed)
        arg_col = self.agg_arg_col[q.name]
        assert arg_col is not None
        counts = self.agg_value_counts[q.name]
        gone = sum(
            1
            for value, c in _value_counts(arg_col, removed).items()
            if c == counts[value]
        )
        return len(counts) - gone

    def aggravation_values(
        self, phi_rows: Set[int]
    ) -> Dict[str, Value]:
        """``q_j(D_φ)`` for every aggregate, over σ_φ(U) as row ids."""
        return {
            q.name: self._aggregate_over(q, phi_rows)
            for q in self.question.query.aggregates
        }

    def degrees_for(
        self,
        assignment: Dict[str, Value],
        phi_rows: Set[int],
        aggr_values: Dict[str, Value],
    ) -> Tuple[Value, Value]:
        """(μ_interv, μ_aggr) for one candidate, given its σ_φ(U) row
        ids and :meth:`aggravation_values`."""
        query = self.question.query
        mu_a = query.evaluate_environment(aggr_values)
        if not is_null(mu_a):
            mu_a = self.question.aggravation_sign * mu_a

        from .predicates import Explanation

        phi = Explanation.equality(self.database.schema, assignment)
        seeds = self.seeds_from_rows(phi_rows)
        delta = self.engine.compute(phi, seeds=seeds).delta
        dead = self.dead_row_ids(delta)
        interv_values = {
            q.name: self._aggregate_without(q, dead)
            for q in query.aggregates
        }
        mu_i = query.evaluate_environment(interv_values)
        if not is_null(mu_i):
            mu_i = self.question.intervention_sign * mu_i
        return mu_i, mu_a

    def _supported(self, aggr_values: Dict[str, Value]) -> bool:
        """The naive evaluator's support filter for a non-trivial φ
        (the values here are counts, never NULL)."""
        threshold = self.support_threshold
        if threshold is None:
            return True
        return any(
            isinstance(v, (int, float)) and v >= threshold
            for v in aggr_values.values()
        )

    # -- the full table --------------------------------------------------------

    def candidate_assignments(self) -> List[Dict[str, Value]]:
        """Every attribute-value combination with support in U,
        including partial ('don't care') combinations and the trivial
        one — the same candidate set the cube materializes."""
        attr_cols = [self.universal.column(a) for a in self.attributes]
        cells: Set[Tuple[Tuple[str, Value], ...]] = set()
        masks = [
            tuple(a in s for a in self.attributes)
            for s in grouping_sets(self.attributes)
        ]
        for values in set(zip(*attr_cols)):
            for mask in masks:
                cells.add(
                    tuple(
                        (a, v)
                        for a, v, keep in zip(self.attributes, values, mask)
                        if keep
                    )
                )
        return [dict(cell) for cell in sorted(cells, key=_cell_key)]

    def build_table(self) -> ExplanationTable:
        """The exact table *M* for all candidates."""
        query = self.question.query
        value_columns = [f"v_{q.name}" for q in query.aggregates]
        columns = list(self.attributes) + value_columns + [MU_INTERV, MU_AGGR]
        rows_out: List[Row] = []
        with phase(
            "indexed_table", certified_bound=self.convergence.bound
        ) as ph:
            for assignment in self.candidate_assignments():
                phi_rows = self.phi_row_ids(assignment)
                aggr_values = self.aggravation_values(phi_rows)
                if assignment and not self._supported(aggr_values):
                    continue
                mu_i, mu_a = self.degrees_for(assignment, phi_rows, aggr_values)
                attr_values = tuple(
                    assignment.get(attr, DUMMY) for attr in self.attributes
                )
                v_values = tuple(
                    aggr_values[q.name] for q in query.aggregates
                )
                rows_out.append(attr_values + v_values + (mu_i, mu_a))
            ph.annotate(candidates=len(rows_out))
        return ExplanationTable(
            table=Table(columns, rows_out),
            attributes=self.attributes,
            aggregate_names=tuple(query.names),
            q_original={
                q.name: self._aggregate_over(q, set(range(self._n)))
                for q in query.aggregates
            },
        )


def _cell_key(
    cell: Tuple[Tuple[str, Value], ...]
) -> Tuple[int, Tuple[Tuple[str, Tuple[int, Any]], ...]]:
    from ..engine.types import sort_key

    return (len(cell), tuple((a, sort_key(v)) for a, v in cell))


def _check_supported(q: AggregateQuery) -> str:
    kind = q.aggregate.kind
    if kind not in ("count_star", "count", "count_distinct"):
        raise QueryError(
            f"indexed evaluator supports count aggregates, not {kind!r}"
        )
    return kind


def _value_counts(column: Sequence[Value], row_ids: AbstractSet[int]) -> Counter[Value]:
    """Multiplicity of each non-null value of *column* over *row_ids*."""
    values = (column[idx] for idx in row_ids)
    return Counter(v for v in values if not is_null(v))

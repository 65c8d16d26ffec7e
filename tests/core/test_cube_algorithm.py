"""Tests for Algorithm 1 — degrees via the data cube."""

import pytest

from repro.core.cube_algorithm import (
    MU_AGGR,
    MU_INTERV,
    build_explanation_table,
)
from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, ratio_query, single_query
from repro.core.question import UserQuestion
from repro.datasets import natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct, count_star
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.types import is_dummy
from repro.errors import NotAdditiveError, QueryError


def sigmod_question(direction="high"):
    q = single_query(
        AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
    )
    return UserQuestion.high(q) if direction == "high" else UserQuestion.low(q)


ATTRS = ["Author.name", "Publication.year"]


class TestBuildTable:
    def test_columns(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        assert list(m.table.columns) == ATTRS + ["v_q", MU_INTERV, MU_AGGR]

    def test_row_count_matches_cube(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        # name x year combos present in SIGMOD rows: (JG,2001),(RR,2001),
        # (CM,2001) + 3 name-only + 1 year-only + grand total = 8
        assert len(m) == 8

    def test_additivity_enforced(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        with pytest.raises(NotAdditiveError):
            build_explanation_table(db, question, ATTRS)

    def test_additivity_check_can_be_skipped(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        m = build_explanation_table(
            db, question, ATTRS, check_additivity=False
        )
        assert len(m) > 0

    def test_unknown_attribute_rejected(self):
        db = rex.database()
        with pytest.raises(QueryError):
            build_explanation_table(db, sigmod_question(), ["Author.zzz"])

    def test_explanation_of_row(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        for row in m.table.rows():
            phi = m.explanation_of(row)
            dummies = sum(
                1 for i in m.table.positions(ATTRS) if is_dummy(row[i])
            )
            assert phi.size == len(ATTRS) - dummies

    def test_q_original_stored(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        assert m.q_original == {"q": 2}


class TestDegreesMatchNaive:
    """The core soundness claim: on intervention-additive queries the
    cube degrees equal the ground-truth (program P) degrees."""

    @pytest.mark.parametrize("direction", ["high", "low"])
    def test_running_example_all_rows(self, direction):
        db = rex.database()
        question = sigmod_question(direction)
        explainer = Explainer(db, question, ATTRS)
        cube_m = explainer.explanation_table("cube")
        exact_m = explainer.explanation_table("exact")

        def degree_map(m, column):
            out = {}
            for row in m.table.rows():
                phi = m.explanation_of(row)
                out[str(phi)] = row[m.table.position(column)]
            return out

        cube_interv = degree_map(cube_m, MU_INTERV)
        exact_interv = degree_map(exact_m, MU_INTERV)
        for phi_text, degree in cube_interv.items():
            assert exact_interv[phi_text] == pytest.approx(degree), phi_text

    def test_natality_count_star(self):
        db = natality.generate(rows=400, seed=11)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.tobacco"]
        explainer = Explainer(db, question, attrs)
        cube_m = explainer.explanation_table("cube")
        exact_m = explainer.explanation_table("exact")

        def degree_map(m):
            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        cube_map, exact_map = degree_map(cube_m), degree_map(exact_m)
        # The cube only materializes explanations with support in the
        # filtered (Asian) sub-population; compare on the intersection.
        shared = set(cube_map) & set(exact_map)
        assert len(shared) >= 6
        for key in shared:
            assert cube_map[key] == pytest.approx(exact_map[key]), key

    def test_naive_equals_cube_on_additive(self):
        db = natality.generate(rows=300, seed=5)
        question = natality.q_marital_question()
        attrs = ["Birth.tobacco", "Birth.prenatal"]
        explainer = Explainer(db, question, attrs)
        cube_m = explainer.explanation_table("cube")
        naive_m = explainer.explanation_table("naive")

        def degree_map(m):
            return {
                str(m.explanation_of(row)): (
                    row[m.table.position(MU_INTERV)],
                    row[m.table.position(MU_AGGR)],
                )
                for row in m.table.rows()
            }

        cube_map, naive_map = degree_map(cube_m), degree_map(naive_m)
        assert set(cube_map) == set(naive_map)
        for key, (ci, ca) in cube_map.items():
            ni, na = naive_map[key]
            assert ci == pytest.approx(ni)
            assert ca == pytest.approx(na)


class TestOptions:
    def test_dummy_rewrite_ablation_same_result(self):
        db = natality.generate(rows=200, seed=3)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.tobacco"]
        fast = build_explanation_table(db, question, attrs)
        slow = build_explanation_table(
            db, question, attrs, use_dummy_rewrite=False
        )
        # The null-aware variant leaves NULL markers; compare via
        # explanation identity and degrees.
        def norm(m):
            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        fast_map, slow_map = norm(fast), norm(slow)
        assert set(fast_map) == set(slow_map)
        for key in fast_map:
            assert fast_map[key] == pytest.approx(slow_map[key])

    def test_brute_force_cube_same_result(self):
        # Inject the retained 2^d-group-bys oracle as the cube
        # implementation; production code never imports it.
        from repro.engine.cube import cube_bruteforce

        db = natality.generate(rows=200, seed=3)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.prenatal"]
        fast = build_explanation_table(db, question, attrs)
        brute = build_explanation_table(
            db, question, attrs, cube_impl=cube_bruteforce
        )
        assert fast.table == brute.table

    def test_support_threshold_filters(self):
        db = natality.generate(rows=500, seed=3)
        question = natality.q_race_question()
        attrs = ["Birth.marital"]
        all_rows = build_explanation_table(db, question, attrs)
        filtered = build_explanation_table(
            db, question, attrs, support_threshold=10
        )
        assert len(filtered) <= len(all_rows)
        v_pos = filtered.table.positions(["v_q1", "v_q2"])
        for row in filtered.table.rows():
            assert any(row[i] >= 10 for i in v_pos)

    def test_missing_explanations_get_zero(self):
        """An explanation appearing in one cube but not another gets 0
        for the missing aggregate (Algorithm 1, full outer join)."""
        db = rex.database()
        q_sigmod = AggregateQuery(
            "qs",
            count_distinct("Publication.pubid", "qs"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
        q_vldb = AggregateQuery(
            "qv",
            count_distinct("Publication.pubid", "qv"),
            Comparison("=", Col("Publication.venue"), Const("VLDB")),
        )
        question = UserQuestion.high(ratio_query(q_sigmod, q_vldb, epsilon=0.5))
        m = build_explanation_table(db, question, ["Publication.year"])
        rows = {
            row[0]: (row[1], row[2])
            for row in m.table.rows()
        }
        # year=2001 appears only in the SIGMOD cube: v_qv filled with 0.
        assert rows[2001] == (2, 0)
        # year=2011 appears only in the VLDB cube: v_qs filled with 0.
        assert rows[2011] == (0, 1)


#: q_original and content fingerprints of table M, recorded from the
#: two-pass Algorithm 1 (q_original filtered U once more through
#: ``AggregateQuery.evaluate``).  Filtering once must not move them.
FILTER_ONCE_GOLDEN = {
    "natality-race": (
        {"q1": 201, "q2": 2},
        "2130cc51cf8d8fc91145ee791271a05631c7bc6a1627757832d817340092f37c",
    ),
    "natality-marital": (
        {"q1": 1716, "q2": 28, "q3": 1213, "q4": 43},
        "c11333c8fdf8fe94a68ae1170790b26b14ad5a67312a1b182002b91f2649ed66",
    ),
    "dblp-bump": (
        {"q1": 37, "q2": 6, "q3": 26, "q4": 55},
        "5075918eb172f523b6685830affee37fe4d87d7667d5d5df85cb522915077891",
    ),
    "tpch-europe-bump": (
        {"q1": 186, "q2": 102, "q3": 85, "q4": 111},
        "e696ce2534bc010c121ef3125e4a1a2e13ec3f7c4e205bede5cd206f1682bc4e",
    ),
}


def _filter_once_case(name):
    from repro.datasets import dblp, tpch

    if name == "natality-race":
        return (
            natality.generate(rows=3000, seed=7),
            natality.q_race_question(),
            natality.default_attributes("race"),
        )
    if name == "natality-marital":
        return (
            natality.generate(rows=3000, seed=7),
            natality.q_marital_question(),
            natality.default_attributes("marital"),
        )
    if name == "dblp-bump":
        return (
            dblp.generate(scale=0.25, seed=2014),
            dblp.bump_question(),
            ["Author.inst", "Publication.venue"],
        )
    return (
        tpch.generate(sf=0.01, seed=2014),
        tpch.question("europe-bump"),
        tpch.question_attributes("europe-bump"),
    )


class TestFilterOnce:
    """The serial memory path filters σ_{w_j}(U) once per aggregate and
    reuses it for both q_original and the cube."""

    @pytest.mark.parametrize("name", sorted(FILTER_ONCE_GOLDEN))
    def test_one_filter_per_aggregate_and_same_table(self, name, monkeypatch):
        from repro.obs import get_tracer

        db, question, attrs = _filter_once_case(name)
        calls = {"filtered": 0, "evaluate": 0}
        filtered = AggregateQuery.filtered

        def spy_filtered(self, universal):
            calls["filtered"] += 1
            return filtered(self, universal)

        def spy_evaluate(self, universal):
            calls["evaluate"] += 1
            raise AssertionError("Algorithm 1 must not re-filter U")

        monkeypatch.setattr(AggregateQuery, "filtered", spy_filtered)
        monkeypatch.setattr(AggregateQuery, "evaluate", spy_evaluate)
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            m = build_explanation_table(
                db, question, attrs, check_additivity=False, shards=1
            )
        finally:
            tracer.disable()
        filter_spans = [s for s in tracer.spans() if s.name == "filter"]
        tracer.reset()

        aggregates = question.query.aggregates
        assert calls == {"filtered": len(aggregates), "evaluate": 0}
        assert [s.payload["aggregate"] for s in filter_spans] == [
            q.name for q in aggregates
        ]
        for span in filter_spans:
            assert span.payload["rows_out"] <= span.payload["rows_in"]
        q_original, fingerprint = FILTER_ONCE_GOLDEN[name]
        assert m.q_original == q_original
        assert m.content_fingerprint() == fingerprint

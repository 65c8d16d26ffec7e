"""Tests of the benchmark's own arithmetic, metric names and tracing.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

from perfbench import run, stats, tracing
from perfbench.stats import OpRecord

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
README = (ROOT / "perfbench" / "README.md").read_text()


class TestPercentile:
    def test_linear_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert stats.percentile(values, 0) == 1.0
        assert stats.percentile(values, 50) == 2.5
        assert stats.percentile(values, 90) == pytest.approx(3.7)
        assert stats.percentile(values, 100) == 4.0

    def test_single_value(self):
        assert stats.percentile([0.25], 90) == 0.25

    def test_odd_count_median_is_middle_value(self):
        assert stats.median([5.0, 1.0, 3.0]) == 3.0

    @pytest.mark.parametrize("values, q", [([], 50), ([1.0], -1), ([1.0], 101)])
    def test_rejects_bad_input(self, values, q):
        with pytest.raises(ValueError):
            stats.percentile(values, q)


def _op(kind, wall, cls="question", ok=True):
    return OpRecord(kind, cls, wall, wall, ok)


class TestKindBalancedMean:
    def test_one_kind_is_plain_mean(self):
        ops = [_op("a", t) for t in (3.0, 1.0, 5.0)]
        assert stats.kind_balanced_mean(ops) == 3.0

    def test_does_not_move_with_kind_counts(self):
        fast = [_op("race", t) for t in (1.0, 1.1, 0.9)]
        slow = [_op("marital", t) for t in (3.0, 3.1, 2.9)]
        even = stats.kind_balanced_mean(fast + slow)
        odd = stats.kind_balanced_mean(fast + slow + [_op("race", 1.0)])
        assert even == pytest.approx(2.0)
        assert odd == pytest.approx(2.0)


class TestNormalise:
    def test_scales_by_the_reference_around_the_op(self):
        # The reference ran in 0.02 s and 0.04 s around the op: the host
        # ran at a third of the nominal 0.01 s speed, so 3 s reads 1 s.
        assert stats.normalise(3.0, 0.02, 0.04, 0.01) == pytest.approx(1.0)

    def test_rejects_a_zero_reference(self):
        with pytest.raises(ValueError):
            stats.normalise(1.0, 0.0, 0.0, 0.01)

    def test_class_percentile_absent_class_is_zero(self):
        assert stats.class_percentile([_op("a", 1.0)], "write", 50) == 0.0


class TestFailedRatio:
    def test_counts(self):
        assert stats.failed_ratio(10, 0) == 0.0
        assert stats.failed_ratio(8, 2) == 0.25

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.failed_ratio(attempted, failed)

    def test_success_ratio_counts_wrong_outputs(self):
        records = [_op("a", 1.0), _op("a", 1.0, ok=False)]
        metrics = run.end_to_end(records, [1.0], 10.0)
        assert metrics["success_ratio"][0] == 0.5


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            ("bench.op", 0.0, 10.0, None),
            ("engine.cube", 1.0, 4.0, 0),
            ("engine.joins", 2.0, 3.0, 1),
            ("core.topk", 5.0, 6.0, 0),
        ]
        assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
        totals = stats.layer_self_time(spans)
        assert totals == {
            "bench.op": 6.0,
            "engine.cube": 2.0,
            "engine.joins": 1.0,
            "core.topk": 1.0,
        }
        assert sum(totals.values()) == 10.0

    def test_scaled_self_time(self):
        spans = [("bench.op", 0.0, 4.0, None), ("core.topk", 1.0, 2.0, 0)]
        totals = stats.layer_self_time(spans, [0.5, 0.5])
        assert totals == {"bench.op": 1.5, "core.topk": 0.5}

    def test_overlapping_children_counted_once(self):
        assert stats.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0

    def test_children_clipped_to_parent(self):
        assert stats.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0

    def test_shares(self):
        assert stats.shares({"a": 1.0, "b": 3.0}, 4.0) == {"a": 0.25, "b": 0.75}
        assert stats.shares({"a": 1.0}, 0.0) == {"a": 0.0}


class TestTracer:
    def test_records_only_inside_an_op(self):
        tracer = tracing.Tracer()
        entry = tracing.EntryPoint("engine.cube", "m", "f", calls="engine.reduction.calls")
        traced = tracing._wrap(tracer, entry, lambda x: x + 1)
        assert traced(1) == 2
        assert tracer.spans == []
        root = tracer.begin_op()
        assert traced(2) == 3
        tracer.end_op(root)
        assert [s[0] for s in tracer.spans] == ["bench.op", "engine.cube"]
        assert tracer.spans[1][3] == root
        assert tracer.op_of_span == [0, 0]
        assert tracer.counts["engine.reduction.calls"] == 1

    def test_install_and_uninstall_restore_every_entry_point(self):
        pytest.importorskip("numpy")
        import importlib

        def resolve(entry):
            module = importlib.import_module(entry.module)
            if "." in entry.attr:
                cls, name = entry.attr.split(".")
                return getattr(module, cls).__dict__[name]
            return getattr(module, entry.attr)

        originals = [resolve(e) for e in tracing.ENTRY_POINTS]
        installed = tracing.install(tracing.Tracer())
        try:
            assert all(
                resolve(e) is not o for e, o in zip(tracing.ENTRY_POINTS, originals)
            )
        finally:
            tracing.uninstall(installed)
        assert all(resolve(e) is o for e, o in zip(tracing.ENTRY_POINTS, originals))

    def test_every_layer_has_a_busy_metric(self):
        assert set(tracing.BUSY_METRIC) == set(tracing.LAYERS)


class TestBenchmarkJson:
    def _names(self, group):
        return [m["name"] for m in SPEC[group]]

    def test_metric_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += self._names("end_to_end") + self._names("per_layer")
        name_rule = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        assert all(name_rule.fullmatch(n) for n in names), names
        assert len(names) == len(set(names))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    def test_workloads_match_the_runner(self):
        from perfbench.workloads import WORKLOADS

        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_end_to_end_output_matches_spec(self):
        records = [_op("a", 1.0), _op("b", 2.0)]
        metrics = run.end_to_end(records, [1.0, 2.0, 3.0], 50.0)
        assert sorted(metrics) == sorted(self._names("end_to_end"))
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: u for k, (_, u) in metrics.items()} == units

    def test_per_layer_output_matches_spec(self):
        tracer = tracing.Tracer()
        root = tracer.begin_op()
        tracer.end_op(root)
        records = [_op("a", 1.0, cls="read")]
        metrics = run.per_layer(records, records, tracer, (1, 0))
        assert sorted(metrics) == sorted(self._names("per_layer"))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: u for k, (_, u) in metrics.items()} == units

    def test_readme_maps_every_per_layer_metric(self):
        for name in self._names("per_layer"):
            assert f"`{name}`" in README, name

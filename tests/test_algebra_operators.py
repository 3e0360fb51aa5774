"""Unit tests for binding tuples and core algebra operators."""

import ast as pyast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

from repro.algebra import (
    BindingTuple,
    CallbackScan,
    Compute,
    Construct,
    ConstructTemplate,
    HashJoin,
    NestedLoopJoin,
    Operator,
    Plan,
    Select,
    Sort,
    TemplateVar,
    dedup_rows,
)
from repro.algebra.construct import TemplateAggregate
from repro.algebra.grouping import _aggregate
from repro.algebra.joins import DependentJoin
from repro.query import ast
from repro.xmldm import serialize
from repro.xmldm.values import NULL

from .conftest import Rows, scan


def tuples(*dicts):
    return [BindingTuple(d) for d in dicts]


class TestBindingTuple:
    def test_extend_new_variable(self):
        row = BindingTuple({"a": 1})
        extended = row.extend("b", 2)
        assert extended["b"] == 2
        assert "b" not in row

    def test_extend_same_value_is_noop(self):
        row = BindingTuple({"a": 1})
        assert row.extend("a", 1) is row

    def test_extend_conflict_fails(self):
        assert BindingTuple({"a": 1}).extend("a", 2) is None

    def test_extend_numeric_equivalence(self):
        # 1 == 1.0 in the model, so rebinding is consistent
        assert BindingTuple({"a": 1}).extend("a", 1.0) is not None

    def test_merge_disjoint(self):
        merged = BindingTuple({"a": 1}).merge(BindingTuple({"b": 2}))
        assert merged.as_dict() == {"a": 1, "b": 2}

    def test_merge_conflicting(self):
        assert BindingTuple({"a": 1}).merge(BindingTuple({"a": 2})) is None

    def test_project(self):
        row = BindingTuple({"a": 1, "b": 2, "c": 3})
        assert row.project(["a", "c", "zz"]).as_dict() == {"a": 1, "c": 3}

    def test_contains_and_get(self):
        row = BindingTuple({"a": 1})
        assert "a" in row
        assert row.get("missing") is None


class TestScans:
    def test_collection_scan(self):
        rows = list(scan("x", [1, 2, 3]))
        assert [r["x"] for r in rows] == [1, 2, 3]

    def test_callback_scan_lazy(self):
        calls = []

        def fetch():
            calls.append(1)
            return ["a"]

        source = CallbackScan("v", fetch)
        assert not calls
        assert [r["v"] for r in source] == ["a"]
        assert calls == [1]


class TestBasicOperators:
    def test_select(self):
        out = list(Select(scan("x", range(5)), lambda r: r["x"] % 2 == 0))
        assert [r["x"] for r in out] == [0, 2, 4]

    def test_compute(self):
        out = list(Compute(scan("x", [2]), "y", lambda r: r["x"] * 10))
        assert out[0]["y"] == 20

    def test_distinct_all_vars(self):
        # construct's grouping and the shard merge keep the first row per key
        rows = tuples({"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 2, "b": 2})
        assert len(dedup_rows(rows, ["a", "b"])) == 2

    def test_distinct_on_subset(self):
        rows = tuples({"a": 1, "b": 1}, {"a": 1, "b": 2})
        assert dedup_rows(rows, ["a"]) == rows[:1]

    def test_sort_asc_desc(self):
        src = Rows(tuples({"a": 2, "b": "x"}, {"a": 1, "b": "y"},
                                    {"a": 2, "b": "a"}))
        out = list(Sort(src, [(lambda r: r["a"], True), (lambda r: r["b"], False)]))
        assert [(r["a"], r["b"]) for r in out] == [(2, "a"), (2, "x"), (1, "y")]

    def test_rows_out_counter(self):
        source = scan("x", [1, 2, 3])
        select = Select(source, lambda r: r["x"] > 1)
        list(select)
        assert source.rows_out == 3
        assert select.rows_out == 2
        select.reset_counters()
        assert source.rows_out == 0

    def test_explain_tree(self):
        plan = Select(scan("x", []), lambda r: True, label="x>1")
        text = plan.explain()
        assert "Select(x>1)" in text
        assert "CallbackScan" in text


class TestJoins:
    def test_hash_join_natural(self):
        left = Rows(tuples({"k": 1, "l": "a"}, {"k": 2, "l": "b"}))
        right = Rows(tuples({"k": 2, "r": "x"}, {"k": 3, "r": "y"}))
        out = list(HashJoin(left, right, ("k",)))
        assert len(out) == 1
        assert out[0].as_dict() == {"k": 2, "l": "b", "r": "x"}

    def test_hash_join_missing_var_never_matches(self):
        left = Rows(tuples({"l": "a"}))
        right = Rows(tuples({"k": 1}))
        assert list(HashJoin(left, right, ("k",))) == []

    def test_hash_join_numeric_key_equivalence(self):
        left = Rows(tuples({"k": 1}))
        right = Rows(tuples({"k": 1.0, "r": "x"}))
        assert len(list(HashJoin(left, right, ("k",)))) == 1

    def test_nested_loop_cross_product(self):
        left = scan("a", [1, 2])
        right = scan("b", [10, 20])
        assert len(list(NestedLoopJoin(left, right))) == 4

    def test_nested_loop_with_predicate(self):
        left = scan("a", [1, 2])
        right = scan("b", [1, 2])
        out = list(NestedLoopJoin(left, right, lambda r: r["a"] < r["b"]))
        assert [(r["a"], r["b"]) for r in out] == [(1, 2)]

    def test_nested_loop_unifies_shared_vars(self):
        left = Rows(tuples({"k": 1}))
        right = Rows(tuples({"k": 1}, {"k": 2}))
        assert len(list(NestedLoopJoin(left, right))) == 1

    def test_dependent_join(self):
        left = scan("a", [1, 2])

        def factory(row):
            return Rows(tuples({"b": row["a"] * 10}))

        out = list(DependentJoin(left, factory))
        assert [(r["a"], r["b"]) for r in out] == [(1, 10), (2, 20)]


def grouped(template, rows):
    return [serialize(r["out"]) for r in Construct(Rows(rows), template, "out")]


class TestGrouping:
    """Grouping runs in Construct: one element per distinct combination
    of the template's direct variables, aggregates folded per group."""

    def test_group_by_count(self):
        template = ConstructTemplate(
            "r",
            attributes=(("g", TemplateVar("g")),),
            children=(TemplateAggregate("count", "g"),),
        )
        rows = tuples({"g": "x"}, {"g": "x"}, {"g": "y"})
        assert grouped(template, rows) == ['<r g="x">2</r>', '<r g="y">1</r>']

    def test_group_by_sum_avg_min_max(self):
        values = [10, 20]
        assert [_aggregate(kind, values) for kind in ("sum", "avg", "min", "max")] == [
            30, 15, 10, 20
        ]

    def test_aggregates_skip_null(self):
        assert _aggregate("sum", [NULL, 5]) == 5
        assert _aggregate("count", [NULL, 5]) == 1

    def test_group_nesting_collects_records(self):
        template = ConstructTemplate(
            "g",
            attributes=(("k", TemplateVar("g")),),
            children=(ConstructTemplate("v", children=(TemplateVar("v"),)),),
        )
        rows = tuples({"g": "x", "v": 1}, {"g": "x", "v": 2})
        assert grouped(template, rows) == ['<g k="x"><v>1</v><v>2</v></g>']

    def test_global_aggregate_on_empty(self):
        assert _aggregate("count", []) == 0
        assert _aggregate("sum", []) is NULL

    def test_bad_aggregate_kind(self):
        with pytest.raises(ValueError):
            ast.AggregateRef("median", "x")


class TestPlan:
    def test_results_with_output_var(self):
        plan = Plan(scan("x", [1, 2]), "x")
        assert plan.results() == [1, 2]

    def test_operator_stats(self):
        plan = Plan(Select(scan("x", [1, 2, 3]), lambda r: r["x"] > 2))
        plan.execute()
        stats = dict(plan.operator_stats())
        assert stats["CallbackScan($x, callback)"] == 3


class TestEveryOperatorIsPlanned:
    """An operator class no code under ``src/repro`` constructs is an
    operator no plan runs: the algebra holds only what is planned."""

    @staticmethod
    def operator_classes():
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        pending, found = [Operator], set()
        while pending:
            for subclass in pending.pop().__subclasses__():
                if subclass.__module__.startswith("repro.") and subclass not in found:
                    found.add(subclass)
                    pending.append(subclass)
        return found

    @staticmethod
    def constructed_names():
        names = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, pyast.Call):
                    if isinstance(node.func, pyast.Name):
                        names.add(node.func.id)
                    elif isinstance(node.func, pyast.Attribute):
                        names.add(node.func.attr)
        return names

    def test_every_operator_subclass_is_constructed_in_src(self):
        classes = self.operator_classes()
        assert {cls.__name__ for cls in classes} >= {"TopK", "FragmentScan"}
        unplanned = sorted(
            cls.__name__ for cls in classes
            if cls.__name__ not in self.constructed_names()
        )
        assert unplanned == []

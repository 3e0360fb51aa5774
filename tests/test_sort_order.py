"""ORDER BY evaluates each key once per row and sorts natively.

The reference is the comparator Sort used to run through
``cmp_to_key`` — ``compare_values`` per pair of key values, per
comparison.  It lives here only, to pin ties, DESC, mixed types and
Null for every operator that shares the decorated sort.
"""

import datetime
from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.algebra.operators import (
    Limit, Select, Sort, TopK, fuse_sort_limit, sort_rows,
)
from repro.algebra.tuples import BindingTuple
from repro.query import ast
from repro.query.exprs import compile_sort_key
from repro.xmldm.values import NULL, compare_values

from .conftest import Rows

VARS = ["a", "b", "c"]

values = st.one_of(
    st.just(NULL),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 1)),
    st.sampled_from(["", "1", "1.0", "-2", "b", "B", " b", "10", "9"]),
    st.dates(datetime.date(2001, 1, 1), datetime.date(2001, 1, 4)),
)
rows = st.lists(
    st.fixed_dictionaries({}, optional={var: values for var in VARS})
    .map(BindingTuple),
    max_size=12,
)
key_specs = st.lists(
    st.tuples(st.sampled_from(VARS), st.booleans()), min_size=1, max_size=3
)


def compiled(specs):
    return [(compile_sort_key(ast.Var(var)), descending)
            for var, descending in specs]


def comparator_sort(rows, keys):
    def compare(a, b):
        for fn, descending in keys:
            result = compare_values(fn(a), fn(b))
            if result != 0:
                return -result if descending else result
        return 0

    return sorted(rows, key=cmp_to_key(compare))


def identities(rows):
    return [id(row) for row in rows]


class TestDecoratedSort:
    @given(rows, key_specs)
    def test_sort_rows_matches_the_comparator(self, rows, specs):
        keys = compiled(specs)
        assert identities(sort_rows(rows, keys)) == identities(
            comparator_sort(rows, keys)
        )

    @given(rows, key_specs)
    def test_sort_operator_matches_the_comparator(self, rows, specs):
        keys = compiled(specs)
        sort = Sort(Rows(rows), keys)
        assert list(sort) == comparator_sort(rows, keys)

    @given(rows, key_specs, st.integers(0, 13))
    def test_topk_is_the_sorted_prefix(self, rows, specs, count):
        keys = compiled(specs)
        fused = fuse_sort_limit(Limit(Sort(Rows(rows), keys), count))
        assert isinstance(fused, TopK)
        assert identities(list(fused)) == identities(
            comparator_sort(rows, keys)[:count]
        )

    def test_ties_keep_arrival_order_in_both_directions(self):
        rows = [BindingTuple({"a": 1, "b": tag}) for tag in "wxyz"]
        rows.insert(2, BindingTuple({"a": "1.0", "b": "text one"}))
        for descending in (False, True):
            keys = compiled([("a", descending)])
            assert [row["b"] for row in sort_rows(rows, keys)] == [
                "w", "x", "text one", "y", "z"
            ]

    def test_each_key_is_evaluated_once_per_row(self):
        calls = []

        def key(row):
            calls.append(row["a"])
            return row["a"]

        rows = [BindingTuple({"a": n % 7}) for n in range(50)]
        assert [r["a"] for r in sort_rows(rows, [(key, True)])] == sorted(
            (n % 7 for n in range(50)), reverse=True
        )
        assert len(calls) == 50


# -- Limit(Sort) fused into TopK -----------------------------------------------

tie_values = st.one_of(
    st.integers(-20, 20),
    st.sampled_from(["ada", "bob", "cy", "", "7"]),
    st.booleans(),
)
# heterogeneous rows: each binds a subset of {a, b, c}, and the sort key
# "c" has six distinct values, so duplicate keys are the common case
tie_rows = st.lists(
    st.fixed_dictionaries(
        {"a": tie_values},
        optional={"b": tie_values, "c": st.integers(0, 5)},
    ).map(BindingTuple),
    max_size=40,
)


def by_c():
    return [(lambda row: row.get("c", -1), False)]


def materialize(root):
    """Rows as order-insensitive (var, value) item tuples."""
    return [tuple(sorted(row.as_dict().items())) for row in root]


class TestTopKFusion:
    @given(tie_rows, st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_fused_topk_pins_order_and_ties(self, rows, limit):
        # the fused TopK must keep the stable sort's tie order exactly
        unfused = Limit(Sort(Rows(rows), by_c()), limit)
        expected = materialize(unfused)
        fused = fuse_sort_limit(
            Limit(Sort(Rows(rows), by_c()), limit)
        )
        assert isinstance(fused, TopK)
        assert materialize(fused) == expected

    def test_fusion_only_rewrites_adjacent_pairs(self):
        source = Rows([BindingTuple({"a": 1})])
        root = Limit(Select(Sort(source, by_c()), lambda row: True), 1)
        assert fuse_sort_limit(root) is root  # Select in between: no fusion

"""``repro.sql`` against stdlib ``sqlite3``: an independent oracle.

The first slice of the oracle ROADMAP asks for: the statement family
:func:`repro.sources.sqlgen.generate_sql` emits — projection,
conjunctive and disjunctive range conditions, ``LIKE``, ``NOT``, an
equi-join, ``GROUP BY`` with the five aggregates — over random tables
with NULLs.  Statements are generated *by* ``generate_sql`` from random
fragments, run on both engines, and compared as multisets (SQLite
orders groups by key, ``repro.sql`` by first appearance; neither order
is part of SQL).
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro.query.parser import parse_query
from repro.query.translate import pattern_to_tree
from repro.sources.base import Access, Fragment, Grouping
from repro.sources.sqlgen import generate_sql
from repro.sql import Database

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

SCHEMA = (
    "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT)",
    "CREATE TABLE u (j INTEGER PRIMARY KEY, a INTEGER, w INTEGER)",
)
T_PATTERN = '<t><k>$k</k><a>$a</a><b>$b</b><c>$c</c></t> IN "t"'
U_PATTERN = '<u><a>$a</a><w>$w</w></u> IN "u"'
CONDITIONS = [
    "$a > 0", "$a <= 1", "$b < 1.5", "$b >= 0.25", '$c = "x"', '$c != "y"',
    '$c LIKE "x%"', '$c LIKE "_b%"', "$a < 0 OR $a > 1", "NOT $a = 1",
    "$k >= 2 AND $b > 0", "$a + 1 > $k", "$a * 2 = $k", "$a != $k",
]
KINDS = ["count", "sum", "avg", "min", "max"]
NUMERIC = ["k", "a", "b"]


def fragment_for(joined, conditions, grouping=None) -> Fragment:
    text = ("WHERE " + ", ".join([T_PATTERN] + ([U_PATTERN] if joined else [])
                                 + list(conditions)) + " CONSTRUCT <x/>")
    query = parse_query(text)
    accesses = tuple(
        Access(clause.source, pattern_to_tree(clause.pattern))
        for clause in query.pattern_clauses
    )
    return Fragment(
        "db", accesses, tuple(c.expr for c in query.condition_clauses),
        grouping=grouping,
    )


def both_engines(t_rows, u_rows):
    ours = Database("db")
    theirs = sqlite3.connect(":memory:")
    theirs.execute("PRAGMA case_sensitive_like = ON")  # ours is, too
    for statement in SCHEMA:
        ours.execute(statement)
        theirs.execute(statement)
    ours.insert_rows("t", [list(row) for row in t_rows])
    ours.insert_rows("u", [list(row) for row in u_rows])
    theirs.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t_rows)
    theirs.executemany("INSERT INTO u VALUES (?, ?, ?)", u_rows)
    return ours, theirs


def _rank(value):
    if value is None:
        return (0, 0)
    if isinstance(value, str):
        return (2, value)
    return (1, value)


def same_multiset(ours: list[tuple], theirs: list[tuple]) -> bool:
    if len(ours) != len(theirs):
        return False
    order = lambda row: tuple(_rank(value) for value in row)  # noqa: E731
    for mine, other in zip(sorted(ours, key=order), sorted(theirs, key=order)):
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(
                    a, b, rel_tol=1e-9, abs_tol=1e-9
                ):
                    return False
            elif a != b:
                return False
    return True


def assert_agree(fragment: Fragment, t_rows, u_rows=()):
    sql = generate_sql(fragment).text
    ours, theirs = both_engines(t_rows, u_rows)
    expected = theirs.execute(sql).fetchall()
    assert same_multiset(ours.execute(sql).rows, expected), sql


T_ROWS = [(0, 1, 0.5, "x"), (1, None, 1.25, "xb"), (2, 2, None, None),
          (3, 1, -0.25, "y"), (4, 0, 2.0, "ab"), (5, None, None, "x")]
U_ROWS = [(0, 1, 10), (1, 1, None), (2, 2, 5), (3, None, 1)]


class TestFixedStatements:
    def test_projection_with_every_condition(self):
        for condition in CONDITIONS:
            assert_agree(fragment_for(False, [condition]), T_ROWS)

    def test_equi_join(self):
        assert_agree(fragment_for(True, ["$w > 1"]), T_ROWS, U_ROWS)

    def test_group_by_with_the_five_aggregates(self):
        grouping = Grouping(("a",), tuple(
            (kind, "b", f"__agg_{index}") for index, kind in enumerate(KINDS)
        ))
        assert_agree(fragment_for(False, [], grouping), T_ROWS)
        assert_agree(fragment_for(True, ["$k < 4"], grouping), T_ROWS, U_ROWS)

    def test_null_logic(self):
        rows = [(0, None, None, None), (1, None, 1.0, "x")]
        grouping = Grouping(("a", "c"), (("count", "b", "n"),
                                         ("sum", "b", "s"), ("max", "a", "m")))
        assert_agree(fragment_for(False, [], grouping), rows)
        assert_agree(fragment_for(False, ["NOT $a = 1", '$c != "x"']), rows)


if HAVE_HYPOTHESIS:
    INTS = st.one_of(st.none(), st.integers(-2, 3))
    REALS = st.one_of(st.none(), st.integers(-8, 8).map(lambda n: n / 4))
    TEXTS = st.one_of(st.none(), st.sampled_from(["", "x", "xb", "ab", "y"]))


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestGeneratedStatements:
    @given(
        t_rows=st.lists(st.tuples(INTS, REALS, TEXTS), max_size=12).map(
            lambda rows: [(i,) + row for i, row in enumerate(rows)]
        ) if HAVE_HYPOTHESIS else None,
        u_rows=st.lists(st.tuples(INTS, INTS), max_size=6).map(
            lambda rows: [(i,) + row for i, row in enumerate(rows)]
        ) if HAVE_HYPOTHESIS else None,
        joined=st.booleans() if HAVE_HYPOTHESIS else None,
        conditions=st.lists(st.sampled_from(CONDITIONS), max_size=3,
                            unique=True) if HAVE_HYPOTHESIS else None,
        group_vars=st.lists(st.sampled_from(["a", "b", "c", "k"]), max_size=2,
                            unique=True) if HAVE_HYPOTHESIS else None,
        aggregates=st.lists(
            st.tuples(st.sampled_from(KINDS), st.sampled_from(NUMERIC)),
            min_size=1, max_size=4) if HAVE_HYPOTHESIS else None,
    )
    @settings(max_examples=150, deadline=None)
    def test_repro_sql_agrees_with_sqlite(self, t_rows, u_rows, joined,
                                          conditions, group_vars, aggregates):
        grouping = None
        if group_vars:
            grouping = Grouping(tuple(group_vars), tuple(
                (kind, var, f"__agg_{index}")
                for index, (kind, var) in enumerate(aggregates)
            ))
        assert_agree(fragment_for(joined, conditions, grouping),
                     t_rows, u_rows if joined else ())

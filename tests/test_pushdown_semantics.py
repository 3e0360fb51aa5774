"""Condition pushdown keeps the mediator's meaning.

A relational source compares with SQL's typed rules: a TEXT column
against a number raises ``SQLTypeError``, a BOOLEAN counts as 0/1, a DATE
equals its ISO text, ``NOT`` keeps NULL unknown.  The mediator coerces a
numeric string towards a number per row and orders other mixes by type
rank.  The decomposer may push a condition only where both rules agree,
so the default engine answers exactly as the ``pushdown=False`` engine,
which evaluates every condition at the mediator.
"""

from __future__ import annotations

import datetime

import pytest

from repro.core.engine import NimbleEngine
from repro.errors import ReproError
from repro.mediator.catalog import Catalog
from repro.simtime import SimClock
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sql.database import Database
from repro.xmldm.serializer import serialize

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

PATTERN = ('<t><k>$k</k><a>$a</a><b>$b</b><c>$c</c><f>$f</f><d>$d</d></t> '
           'IN "t"')
#: column variable -> SQL type
COLUMNS = {"a": "INTEGER", "b": "REAL", "c": "TEXT", "f": "BOOLEAN",
           "d": "DATE"}
ROWS = [
    (1, 2, 1.5, "x", True, datetime.date(2024, 1, 2)),
    (2, 1, 2.25, "y", False, datetime.date(2023, 5, 1)),
    (3, 2, 0.1, "x", None, None),
    (4, None, 0.2, None, True, datetime.date(2024, 1, 2)),
    (5, 1, None, "10", False, None),
    (6, None, 7.0, "2.5", None, datetime.date(2025, 12, 31)),
]


class Deployment:
    """One relational table, the default engine and the mediator-only
    reference over the same catalog."""

    def __init__(self, rows):
        db = Database("db")
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, "
                   + ", ".join(f"{name} {kind}" for name, kind in COLUMNS.items())
                   + ")")
        db.insert_rows("t", [list(row) for row in rows])
        self.source = RelationalSource("db", db)
        registry = SourceRegistry(SimClock())
        registry.register(self.source)
        catalog = Catalog(registry)
        catalog.map_relation("t", "db", "t")
        self.engine = NimbleEngine(catalog)
        self.reference = NimbleEngine(catalog, pushdown=False)

    @staticmethod
    def _answer(engine, text):
        try:
            return [serialize(e) for e in engine.query(text).elements]
        except ReproError as exc:
            return type(exc)

    def agree(self, condition: str) -> None:
        text = (f"WHERE {PATTERN}, {condition} "
                "CONSTRUCT <r><k>$k</k></r> ORDER BY $k")
        assert self._answer(self.engine, text) == \
            self._answer(self.reference, text), (condition, self.source.last_sql)


@pytest.mark.parametrize("condition, expected", [
    ("$c < 5", [6]),
    ("$c = 10", [5]),
    ('$a = "2"', [1, 3]),
])
def test_reproductions_answer_as_the_mediator(condition, expected):
    deployment = Deployment(ROWS)
    result = deployment.engine.query(
        f"WHERE {PATTERN}, {condition} CONSTRUCT <r><k>$k</k></r> ORDER BY $k"
    )
    assert [serialize(e) for e in result.elements] == [
        f"<r><k>{k}</k></r>" for k in expected
    ]


def test_numeric_string_becomes_a_number_at_plan_time():
    deployment = Deployment(ROWS)
    deployment.engine.query(
        f'WHERE {PATTERN}, $a = "2" CONSTRUCT <r><k>$k</k></r>'
    )
    assert "t0.a = 2.0" in deployment.source.last_sql


@pytest.mark.parametrize("condition", [
    "$c < 5", '$a = "x"', '$f = 1', '$d = "2024-01-02"', '$a LIKE "1%"',
    "NOT $a = 1", '$a = $c', '$a < "1e400"',
])
def test_disagreeing_conditions_stay_at_the_mediator(condition):
    deployment = Deployment(ROWS)
    deployment.engine.query(
        f"WHERE {PATTERN}, {condition} CONSTRUCT <r><k>$k</k></r>"
    )
    assert "WHERE" not in deployment.source.last_sql
    deployment.agree(condition)


@pytest.mark.parametrize("condition", [
    "$a < 2", "$b >= 1", '$c = "x"', '$c LIKE "x%"', "$a = $b",
    "$f = true", "$a > 0 AND $b < 5.5", '$c = "y" OR $a = 2',
])
def test_agreeing_conditions_are_still_pushed(condition):
    deployment = Deployment(ROWS)
    deployment.engine.query(
        f"WHERE {PATTERN}, {condition} CONSTRUCT <r><k>$k</k></r>"
    )
    assert "WHERE" in deployment.source.last_sql
    deployment.agree(condition)


if HAVE_HYPOTHESIS:
    TEXTS = ["x", "y", "10", "2.5", "2", " 3 ", "1e3", "abc%", "-1", ""]
    LITERALS = st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from(["0.5", "2.5", "2.0", "1e3"]),
        st.sampled_from(TEXTS + ["1e400", "nan", "x%", "_"]).map(
            lambda text: f'"{text}"'),
        st.sampled_from(["true", "false"]),
    )
    OPERATORS = st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "LIKE"])
    OPERANDS = st.one_of(
        st.sampled_from([f"${name}" for name in COLUMNS] + ["$k"]), LITERALS
    )
    COMPARISONS = st.builds(
        lambda left, op, right: f"{left} {op} {right}",
        st.sampled_from([f"${name}" for name in COLUMNS]), OPERATORS, OPERANDS,
    )
    CONDITIONS = st.one_of(
        COMPARISONS,
        st.builds(lambda c: f"NOT {c}", COMPARISONS),
        st.builds(lambda x, op, y: f"{x} {op} {y}",
                  COMPARISONS, st.sampled_from(["AND", "OR"]), COMPARISONS),
    )
    TABLES = st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-3, 12)),
            st.one_of(st.none(), st.sampled_from([0.5, 2.0, 2.5, 1000.0])),
            st.one_of(st.none(), st.sampled_from(TEXTS)),
            st.one_of(st.none(), st.booleans()),
            st.one_of(st.none(), st.sampled_from([
                datetime.date(2024, 1, 2), datetime.date(2023, 5, 1)])),
        ),
        max_size=6,
    ).map(lambda rows: [(k,) + row for k, row in enumerate(rows, 1)])

    @given(TABLES, CONDITIONS)
    def test_pushdown_answers_as_the_mediator(rows, condition):
        """(column type, literal type, operator): the default engine
        answers as ``pushdown=False``; where one raises, both raise the
        same ``repro.errors`` type."""
        Deployment(rows).agree(condition)

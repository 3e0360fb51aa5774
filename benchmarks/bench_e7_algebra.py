"""E7 — one physical algebra for relational and XML shapes.

Paper claims (sections 3.1 and 4): the data model and algebra were
designed so that "the algebra supported the operations on standard data
models efficiently, and supported operations that combine data from
multiple models efficiently as well"; required XML features include
document order, navigation, and recursion.

These are genuine wall-clock microbenchmarks (pytest-benchmark measures
them): the same operators over Records (relational shape) and over
element trees (XML shape), plus grouped construction.  Only operators
the planners build are measured; the navigation, fixpoint and GroupBy
rows were retired with those operators, which no plan used.

Expected shape: record-shaped and element-shaped joins are within a
small constant factor of each other (one engine, no model tax), and
grouped construction runs in linear-ish time.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.algebra import (
    AttributePattern,
    BindingTuple,
    CallbackScan,
    Construct,
    ConstructTemplate,
    HashJoin,
    PatternMatch,
    TemplateVar,
    TreePattern,
)
from repro.xmldm import Document, Element, Record

from common import Rows

N = 4_000


def make_records():
    left = [Record({"k": i, "name": f"name{i}"}) for i in range(N)]
    right = [Record({"k": i, "city": f"city{i % 50}"}) for i in range(0, N, 2)]
    return left, right


def make_document(n: int = N) -> Document:
    root = Element("feed")
    for i in range(n):
        item = Element("item", {"k": str(i)})
        item.append(Element("name", children=[f"name{i}"]))
        item.append(Element("city", children=[f"city{i % 50}"]))
        root.append(item)
    return Document(root)


def record_join() -> int:
    left, right = make_records()
    left_scan = PatternMatch(
        CallbackScan("row", lambda: left),
        "row",
        TreePattern("r", children=(TreePattern("k", text_var="k"),
                                   TreePattern("name", text_var="n"))),
    )
    right_scan = PatternMatch(
        CallbackScan("row2", lambda: right),
        "row2",
        TreePattern("r", children=(TreePattern("k", text_var="k"),
                                   TreePattern("city", text_var="c"))),
    )
    return sum(1 for _ in HashJoin(left_scan, right_scan, ("k",)))


_DOC = make_document()


def element_match_and_join() -> int:
    pattern = TreePattern(
        "item",
        attributes=(AttributePattern("k", var="k"),),
        children=(TreePattern("name", text_var="n"),),
    )
    left = PatternMatch(CallbackScan("d", lambda: [_DOC]), "d", pattern)
    right_pattern = TreePattern(
        "item",
        attributes=(AttributePattern("k", var="k"),),
        children=(TreePattern("city", text_var="c"),),
    )
    right = PatternMatch(CallbackScan("d2", lambda: [_DOC]), "d2", right_pattern)
    return sum(1 for _ in HashJoin(left, right, ("k",)))


def grouped_construct() -> int:
    rows = [
        BindingTuple({"city": f"city{i % 50}", "name": f"name{i}"})
        for i in range(N)
    ]
    template = ConstructTemplate(
        "city",
        attributes=(("name", TemplateVar("city")),),
        children=(ConstructTemplate("p", children=(TemplateVar("name"),)),),
    )
    return sum(1 for _ in Construct(Rows(rows), template, "out"))


def test_e7_record_join(benchmark):
    assert benchmark(record_join) == N // 2


def test_e7_element_join(benchmark):
    assert benchmark(element_match_and_join) == N


def test_e7_grouped_construct(benchmark):
    assert benchmark(grouped_construct) == 50


def report():
    import time

    from common import BenchStats, print_table, write_bench_json

    rows = []
    for label, fn in (
        ("hash join, records (4k x 2k)", record_join),
        ("hash join, element trees (4k x 4k)", element_match_and_join),
        ("grouped construct (4k rows -> 50 groups)", grouped_construct),
    ):
        started = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - started) * 1000
        rows.append([label, result, round(elapsed, 1)])
    print_table(
        "E7: algebra microbenchmarks (wall clock)",
        ["operation", "output rows", "wall ms"],
        rows,
    )
    write_bench_json(
        "e7_algebra",
        ["operation", "output rows", "wall ms"],
        rows,
        headline={"total_wall_ms": round(sum(row[2] for row in rows), 1)},
        # the algebra microbenchmarks run no engine queries; the all-zero
        # counter union keeps the BENCH_*.json schema uniform
        stats=BenchStats(),
    )
    return rows


if __name__ == "__main__":
    report()

"""The compiled CONSTRUCT builder against a reference interpreter.

``reference_build`` below is the per-row template interpreter that
``build_elements`` used to be, kept here (and only here) as the oracle:
it re-derives the grouping variables on every call, keys groups with
the full ``typename`` ladder and appends through ``Element.append``.
The builder must produce the same trees, ``parent`` links included, and
raise the same errors.
"""

from __future__ import annotations

import copy
import datetime
import pickle
from typing import Any

import pytest

import repro.algebra.construct as construct
from repro.algebra.construct import (
    ConstructTemplate,
    TemplateAggregate,
    TemplateText,
    TemplateVar,
    _numeric_or_self,
    build_elements,
)
from repro.algebra.grouping import _aggregate
from repro.algebra.tuples import BindingTuple
from repro.core import NimbleEngine
from repro.mediator.schema import MediatedSchema
from repro.xmldm.nodes import Element, Text
from repro.xmldm.schema import atomic_to_text
from repro.xmldm.serializer import serialize
from repro.xmldm.values import (
    _TYPE_ORDER,
    NULL,
    Collection,
    Null,
    Record,
    _comparison_key,
    typename,
)

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- the reference interpreter ------------------------------------------------


def ladder_key(value: Any) -> tuple:
    """The comparison key computed through ``typename`` alone."""
    kind = typename(value)
    rank = _TYPE_ORDER[kind]
    if kind == "null":
        return (rank, 0)
    if kind == "boolean":
        return (rank, int(value))
    if kind == "number":
        return (rank, float(value))
    if kind == "string":
        return (rank, value)
    if kind in ("date", "datetime"):
        if isinstance(value, datetime.datetime):
            return (rank, value.isoformat())
        return (rank, datetime.datetime.combine(value, datetime.time()).isoformat())
    if kind == "record":
        return (rank, tuple((k, ladder_key(v)) for k, v in sorted(value.items())))
    if kind == "collection":
        return (rank, tuple(ladder_key(v) for v in value))
    return (rank, value.document_order)


def reference_build(
    template: ConstructTemplate, rows: list[BindingTuple]
) -> list[Element]:
    group_vars = template.direct_vars() or template.all_vars()
    groups: dict[tuple, list[BindingTuple]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(ladder_key(row.get(var, NULL)) for var in group_vars)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    elements: list[Element] = []
    for key in order:
        members = groups[key]
        representative = members[0]
        element = Element(template.tag)
        for name, value in template.attributes:
            if isinstance(value, TemplateVar):
                bound = representative.get(value.var, NULL)
                element.attributes[name] = (
                    "" if isinstance(bound, Null) else atomic_to_text(bound)
                    if not isinstance(bound, (Element, Record, Collection))
                    else str(bound)
                )
            else:
                element.attributes[name] = value
        for item in template.children:
            if isinstance(item, TemplateText):
                if item.text:
                    element.append(Text(item.text))
            elif isinstance(item, TemplateVar):
                reference_append(element, representative.get(item.var, NULL))
            elif isinstance(item, TemplateAggregate):
                values = [member.get(item.var, NULL) for member in members]
                if item.kind != "count":
                    values = [_numeric_or_self(v) for v in values]
                reference_append(element, _aggregate(item.kind, values))
            else:
                for child in reference_build(item, members):
                    element.append(child)
        elements.append(element)
    return elements


def reference_append(element: Element, value: Any) -> None:
    if isinstance(value, Null):
        return
    if isinstance(value, Element):
        element.append(value.copy())
        return
    if isinstance(value, Record):
        for name, field_value in value.items():
            wrapper = Element(name)
            reference_append(wrapper, field_value)
            element.append(wrapper)
        return
    if isinstance(value, Collection):
        for item in value:
            reference_append(element, item)
        return
    text = atomic_to_text(value)
    if text:
        element.append(Text(text))


# -- comparing outcomes --------------------------------------------------------


def shape(node) -> tuple:
    """Everything a tree says, ``parent`` links and hash caches included."""
    if isinstance(node, Text):
        return ("text", node.value, node.document_order, node._subtree_hash)
    for child in node.children:
        assert child.parent is node
    return (
        node.tag, tuple(node.attributes.items()), node.document_order,
        node._subtree_hash, tuple(shape(child) for child in node.children),
    )


def outcome(build, template, rows):
    try:
        elements = build(template, rows)
    except Exception as error:  # the two sides must fail alike
        return ("raised", type(error), str(error))
    assert all(element.parent is None for element in elements)
    return (
        [serialize(element) for element in elements],
        [shape(element) for element in elements],
    )


def fresh_template(template: ConstructTemplate) -> ConstructTemplate:
    """An equal template whose builder has not run yet."""
    return pickle.loads(pickle.dumps(template))


# -- examples ------------------------------------------------------------------

ITEM = ConstructTemplate(
    "item",
    (("sku", TemplateVar("s")), ("kind", "stock")),
    (
        ConstructTemplate("name", (), (TemplateVar("n"),)),
        TemplateText("-"),
        ConstructTemplate("price", (), (TemplateVar("p"),)),
        ConstructTemplate("total", (), (TemplateAggregate("sum", "p"),)),
    ),
)


def rows_of(*dicts) -> list[BindingTuple]:
    return [BindingTuple(d) for d in dicts]


class TestBuilderExamples:
    def test_equal_values_of_different_types_group_apart(self):
        template = ConstructTemplate("g", (), (TemplateVar("x"),
                                               TemplateAggregate("count", "y")))
        rows = rows_of(
            {"x": 1, "y": "a"}, {"x": 1.0, "y": "b"}, {"x": "1", "y": "c"},
            {"x": True, "y": "d"}, {"x": NULL, "y": "e"}, {"x": "", "y": "f"},
        )
        built = build_elements(template, rows)
        assert [serialize(e) for e in built] == [
            "<g>12</g>", "<g>11</g>", "<g>true1</g>", "<g>1</g>", "<g>1</g>",
        ]
        assert outcome(build_elements, template, rows) == outcome(
            reference_build, template, rows)

    def test_one_row_and_many_rows_match_the_reference(self):
        rows = rows_of(
            {"s": "a", "n": "Ann", "p": 3}, {"s": "b", "n": "Bo", "p": 2.5},
            {"s": "a", "n": "Al", "p": "4"},
        )
        for subset in (rows[:1], rows, []):
            assert outcome(build_elements, ITEM, subset) == outcome(
                reference_build, ITEM, subset)

    def test_children_link_to_their_element(self):
        (item,) = build_elements(ITEM, rows_of({"s": "a", "n": "Ann", "p": 3}))
        for child in item.children:
            assert child.parent is item
        assert item.children[0].children[0].parent is item.children[0]

    def test_template_pickles_and_copies_after_its_builder_ran(self):
        rows = rows_of({"s": "a", "n": "Ann", "p": 3})
        expected = outcome(build_elements, ITEM, rows)
        assert "builder" in vars(ITEM)
        for clone in (pickle.loads(pickle.dumps(ITEM)), copy.deepcopy(ITEM),
                      copy.copy(ITEM)):
            assert clone == ITEM and hash(clone) == hash(ITEM)
            assert "builder" not in vars(clone)
            assert outcome(build_elements, clone, rows) == expected

    def test_builder_is_kept_with_the_template(self):
        assert ITEM.builder is ITEM.builder
        assert ITEM.children[0].builder is ITEM.children[0].builder


class TestCompiledOnce:
    @pytest.fixture
    def compiles(self, monkeypatch):
        seen: list[str] = []
        compile_template = construct._compile

        def counting(template):
            seen.append(template.tag)
            return compile_template(template)

        monkeypatch.setattr(construct, "_compile", counting)
        return seen

    def test_cached_plan_run_ten_times_compiles_once(self, catalog, compiles):
        engine = NimbleEngine(catalog)
        query = (
            'WHERE <c><name>$n</name><city>$c</city></c> IN "customers" '
            "CONSTRUCT <city name=$c><who>$n</who></city> ORDER BY $c"
        )
        answers = [
            [serialize(e) for e in engine.query(query).elements]
            for _ in range(10)
        ]
        assert engine.plan_cache_hits == 9
        assert sorted(compiles) == ["city", "who"]
        assert all(answer == answers[0] for answer in answers)

    def test_view_fetched_ten_times_compiles_once(self, catalog, compiles):
        schema = MediatedSchema("m")
        schema.define_view(
            "v", 'WHERE <c><name>$n</name></c> IN "customers" '
            "CONSTRUCT <x><y>$n</y></x> LIMIT 3"
        )
        catalog.add_schema(schema)
        engine = NimbleEngine(catalog)
        for _ in range(10):
            result = engine.query('WHERE <x><y>$a</y></x> IN "v" CONSTRUCT <o>$a</o>')
            assert len(result.elements) == 3
        assert sorted(compiles) == ["o", "x", "y"]


# -- the differential property -------------------------------------------------

VARS = ("x", "y", "z")


def _element_value() -> Element:
    element = Element("e", {"k": "v"})
    element.append(Text("1"))
    element.append(Element("f"))
    return element


ATOMS = (
    1, 1.0, "1", True, False, NULL, "", 0, 2.5, "2.5", "abc", " pad ",
    2**60, 2**60 + 1, -3, datetime.date(2001, 4, 2),
    datetime.datetime(2001, 4, 2, 9, 30),
)


if HAVE_HYPOTHESIS:
    atoms = st.sampled_from(ATOMS)
    values = st.one_of(
        atoms,
        atoms,
        st.builds(lambda a, b: Record({"r": a, "s": b}), atoms, atoms),
        st.builds(lambda items: Collection(items), st.lists(atoms, max_size=3)),
        st.builds(_element_value),
    )
    template_vars = st.builds(TemplateVar, st.sampled_from(VARS))
    aggregates = st.builds(
        TemplateAggregate,
        st.sampled_from(("count", "sum", "avg", "min", "max")),
        st.sampled_from(VARS),
    )
    texts = st.builds(TemplateText, st.sampled_from(("", "t", " ")))
    attributes = st.lists(
        st.tuples(st.sampled_from(("p", "q", "r")),
                  st.one_of(template_vars, st.sampled_from(("", "lit")))),
        max_size=2, unique_by=lambda pair: pair[0],
    ).map(tuple)

    def _templates(children):
        return st.builds(
            ConstructTemplate,
            st.sampled_from(("a", "b")),
            attributes,
            st.lists(children, max_size=4).map(tuple),
        )

    leaves = st.one_of(texts, template_vars, aggregates)
    templates = st.recursive(
        _templates(leaves),
        lambda inner: _templates(st.one_of(leaves, inner)),
        max_leaves=8,
    )
    rows = st.lists(
        st.dictionaries(st.sampled_from(VARS), values).map(BindingTuple),
        max_size=6,
    )


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBuilderMatchesReference:
    if HAVE_HYPOTHESIS:

        @given(template=templates, rows=rows)
        def test_same_trees_as_the_reference(self, template, rows):
            expected = outcome(reference_build, template, rows)
            assert outcome(build_elements, fresh_template(template), rows) == expected
            # a second run reuses the compiled builder
            assert outcome(build_elements, template, rows) == expected
            assert outcome(build_elements, template, rows) == expected

        @given(value=values)
        def test_fast_key_equals_the_ladder(self, value):
            assert repr(_comparison_key(value)) == repr(ladder_key(value))

        @given(a=values, b=values)
        def test_fast_key_orders_like_the_ladder(self, a, b):
            fast = (_comparison_key(a) < _comparison_key(b),
                    _comparison_key(a) == _comparison_key(b))
            assert fast == (ladder_key(a) < ladder_key(b),
                            ladder_key(a) == ladder_key(b))

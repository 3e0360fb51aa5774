"""Unit tests for tree-pattern matching and construction."""

import pytest

from repro.algebra import (
    AttributePattern,
    BindingTuple,
    Construct,
    ConstructTemplate,
    PatternMatch,
    TemplateText,
    TemplateVar,
    TreePattern,
    build_elements,
)
from repro.algebra.pattern import match_pattern
from repro.xmldm import parse_document, serialize
from repro.xmldm.values import Collection, Record

from .conftest import Rows, scan


@pytest.fixture
def doc():
    return parse_document(
        '<bib><book year="1998"><title>A</title><author>Smith</author>'
        '<author>Lee</author></book>'
        '<book year="2001"><title>B</title><author>Smith</author></book></bib>'
    )


class TestElementMatching:
    def test_leaf_text_binding(self, doc):
        pattern = TreePattern("title", text_var="t")
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert [r["t"] for r in out] == ["A", "B"]

    def test_attribute_binding_and_literal(self, doc):
        pattern = TreePattern(
            "book", attributes=(AttributePattern("year", var="y"),)
        )
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert [r["y"] for r in out] == ["1998", "2001"]
        literal = TreePattern(
            "book", attributes=(AttributePattern("year", literal="2001"),),
            children=(TreePattern("title", text_var="t"),),
        )
        out = list(PatternMatch(scan("d", [doc]), "d", literal))
        assert [r["t"] for r in out] == ["B"]

    def test_missing_attribute_no_match(self, doc):
        pattern = TreePattern("title", attributes=(AttributePattern("id", var="i"),))
        assert list(PatternMatch(scan("d", [doc]), "d", pattern)) == []

    def test_nested_children_product(self, doc):
        pattern = TreePattern(
            "book",
            children=(
                TreePattern("title", text_var="t"),
                TreePattern("author", text_var="a"),
            ),
        )
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert [(r["t"], r["a"]) for r in out] == [
            ("A", "Smith"), ("A", "Lee"), ("B", "Smith"),
        ]

    def test_text_literal_constraint(self, doc):
        pattern = TreePattern(
            "book",
            children=(
                TreePattern("author", text_literal="Lee"),
                TreePattern("title", text_var="t"),
            ),
        )
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert [r["t"] for r in out] == ["A"]

    def test_element_var_binds_node(self, doc):
        pattern = TreePattern("book", element_var="e")
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert out[0]["e"].tag == "book"

    def test_wildcard_tag(self, doc):
        pattern = TreePattern("*", children=(TreePattern("title", text_var="t"),))
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert {r["t"] for r in out} == {"A", "B"}

    def test_descendant_child_pattern(self):
        doc = parse_document("<a><wrap><x>1</x></wrap><x>2</x></a>")
        direct = TreePattern("a", children=(TreePattern("x", text_var="v"),))
        out = list(PatternMatch(scan("d", [doc]), "d", direct))
        assert [r["v"] for r in out] == ["2"]
        deep = TreePattern(
            "a", children=(TreePattern("x", text_var="v", descendant=True),)
        )
        out = list(PatternMatch(scan("d", [doc]), "d", deep))
        assert sorted(r["v"] for r in out) == ["1", "2"]

    def test_shared_variable_unification(self):
        doc = parse_document(
            "<r><p><a>1</a><b>1</b></p><p><a>1</a><b>2</b></p></r>"
        )
        pattern = TreePattern(
            "p",
            children=(TreePattern("a", text_var="x"), TreePattern("b", text_var="x")),
        )
        out = list(PatternMatch(scan("d", [doc]), "d", pattern))
        assert len(out) == 1  # only the p where a == b


class TestRecordMatching:
    def test_fields_as_children(self):
        records = [Record({"id": 1, "name": "Ann"}), Record({"id": 2, "name": "Bob"})]
        pattern = TreePattern(
            "customer",
            children=(TreePattern("id", text_var="i"), TreePattern("name", text_var="n")),
        )
        out = list(PatternMatch(scan("c", records), "c", pattern))
        assert [(r["i"], r["n"]) for r in out] == [(1, "Ann"), (2, "Bob")]

    def test_field_literal(self):
        records = [Record({"city": "Sea"}), Record({"city": "PDX"})]
        pattern = TreePattern("c", children=(TreePattern("city", text_literal="Sea"),))
        out = list(PatternMatch(scan("c", records), "c", pattern))
        assert len(out) == 1

    def test_missing_field_no_match(self):
        pattern = TreePattern("c", children=(TreePattern("zzz", text_var="v"),))
        out = list(match_pattern(pattern, Record({"a": 1}), BindingTuple()))
        assert out == []

    def test_collection_iterates(self):
        collection = Collection([Record({"v": 1}), Record({"v": 2})])
        pattern = TreePattern("item", children=(TreePattern("v", text_var="x"),))
        out = list(match_pattern(pattern, collection, BindingTuple()))
        assert [r["x"] for r in out] == [1, 2]

    def test_nested_record_field(self):
        record = Record({"who": Record({"name": "Ann"})})
        pattern = TreePattern(
            "r",
            children=(
                TreePattern("who", children=(TreePattern("name", text_var="n"),)),
            ),
        )
        out = list(match_pattern(pattern, record, BindingTuple()))
        assert out[0]["n"] == "Ann"


class TestConstruct:
    def rows(self, doc):
        pattern = TreePattern(
            "book",
            attributes=(AttributePattern("year", var="y"),),
            children=(
                TreePattern("title", text_var="t"),
                TreePattern("author", text_var="a"),
            ),
        )
        return list(PatternMatch(scan("d", [doc]), "d", pattern))

    def test_per_binding_when_no_direct_vars(self, doc):
        template = ConstructTemplate(
            "m",
            children=(
                ConstructTemplate("t", children=(TemplateVar("t"),)),
                ConstructTemplate("a", children=(TemplateVar("a"),)),
            ),
        )
        out = list(Construct(Rows(self.rows(doc)), template, "r"))
        assert len(out) == 3

    def test_grouping_by_direct_vars(self, doc):
        template = ConstructTemplate(
            "writer",
            attributes=(("name", TemplateVar("a")),),
            children=(ConstructTemplate("title", children=(TemplateVar("t"),)),),
        )
        out = list(Construct(Rows(self.rows(doc)), template, "r"))
        rendered = [serialize(r["r"]) for r in out]
        assert rendered == [
            '<writer name="Smith"><title>A</title><title>B</title></writer>',
            '<writer name="Lee"><title>A</title></writer>',
        ]

    def test_literal_text_and_attrs(self, doc):
        template = ConstructTemplate(
            "x",
            attributes=(("kind", "book"),),
            children=(TemplateText("title: "), TemplateVar("t")),
        )
        out = list(Construct(Rows(self.rows(doc)[:1]), template, "r"))
        assert serialize(out[0]["r"]) == '<x kind="book">title: A</x>'

    def test_empty_input_constructs_nothing(self):
        template = ConstructTemplate("x")
        assert list(Construct(Rows([]), template, "r")) == []

    def test_record_value_renders_fields(self):
        rows = [BindingTuple({"rec": Record({"a": 1, "b": "two"})})]
        template = ConstructTemplate("wrap", children=(TemplateVar("rec"),))
        elements = build_elements(template, rows)
        assert serialize(elements[0]) == "<wrap><a>1</a><b>two</b></wrap>"

    def test_duplicate_bindings_collapse(self):
        rows = [BindingTuple({"v": 1}), BindingTuple({"v": 1})]
        template = ConstructTemplate("x", children=(TemplateVar("v"),))
        assert len(build_elements(template, rows)) == 1


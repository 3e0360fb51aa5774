"""The XML wrapper's shredded tables answer as ``match_pattern`` does.

A flat pattern (named root tag, attribute bindings or literals, leaf
child steps) is answered from per-tag tables built once per document
version; everything else runs ``match_pattern``.  The reference below is
``match_pattern`` at every candidate element, exactly the loop the
wrapper ran before the tables existed: both paths must yield the same
records in the same order.
"""

from __future__ import annotations

import pytest

from repro.algebra.pattern import AttributePattern, TreePattern, match_pattern
from repro.algebra.tuples import BindingTuple
from repro.query import ast as qast
from repro.query.exprs import compile_predicate
from repro.sources.base import Access, Fragment
from repro.sources.xmlfile import XMLSource, _flat_plan
from repro.xmldm.document import Document
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Record

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def reference(document: Document, fragment: Fragment) -> list[Record]:
    """The records ``match_pattern`` gives, in document order."""
    pattern = fragment.accesses[0].pattern
    predicates = [compile_predicate(c) for c in fragment.conditions]
    output = [var for var in pattern.variables()
              if not fragment.columns or var in fragment.columns]
    tag = None if pattern.tag == "*" else pattern.tag
    records = []
    for candidate in document.root.descendants_or_self(tag):
        for match in match_pattern(pattern, candidate, BindingTuple()):
            if all(predicate(match) for predicate in predicates):
                records.append(Record({v: match.get(v, NULL) for v in output}))
    return records


def fragment(source: XMLSource, name: str, pattern: TreePattern,
             conditions=(), columns=()) -> Fragment:
    return Fragment(source.name, (Access(name, pattern),),
                    tuple(conditions), columns=tuple(columns))


def fetch(source: XMLSource, name: str, pattern: TreePattern) -> list[Record]:
    return source.execute(fragment(source, name, pattern))


def agree(source: XMLSource, name: str, pattern: TreePattern,
          conditions=(), columns=()) -> list[Record]:
    """The wrapper's records, asserted equal to the reference's."""
    sent = fragment(source, name, pattern, conditions, columns)
    got = source.execute(sent)
    expected = reference(source.documents[name], sent)
    assert got == expected
    # Record equality ignores field order; the transferred order counts too
    assert [r.fields for r in got] == [r.fields for r in expected]
    return got


BOOKS = (
    "<bib>"
    '<book year="1994"><title> TCP </title><author>Stevens</author></book>'
    '<book year="2000"><title>Data</title><author>Abiteboul</author>'
    "<author>Buneman</author></book>"
    '<book><title>Bare</title></book>'
    '<book year="1999">mixed <title>XML</title> text'
    '<book year="2001"><title>Inner</title></book></book>'
    "</bib>"
)
BOOK = TreePattern(
    "book", (AttributePattern("year", var="y"),),
    (TreePattern("title", text_var="t"), TreePattern("author", text_var="a")),
)


def books() -> XMLSource:
    return XMLSource("lib", {"books": BOOKS})


def test_repeated_and_missing_children_keep_their_meaning():
    got = agree(books(), "books", BOOK)
    # two authors: two rows; no author or no year: no row
    assert [(r["y"], r["a"]) for r in got] == [
        ("1994", "Stevens"), ("2000", "Abiteboul"), ("2000", "Buneman")]


def test_child_literals_select_among_repeated_children():
    by_author = TreePattern(
        "book", (AttributePattern("year", var="y"),),
        (TreePattern("author", text_literal="Buneman"),
         TreePattern("title", text_var="t")),
    )
    assert [r.as_dict() for r in agree(books(), "books", by_author)] == [
        {"y": "2000", "t": "Data"}]


def test_flat_subset_takes_the_tables():
    source = books()
    agree(source, "books", BOOK)
    assert _flat_plan(BOOK) is not None
    assert "book" in source._shredded["books"].tables


@pytest.mark.parametrize("pattern", [
    TreePattern("book", (AttributePattern("year", var="y"),),
                (TreePattern("title", text_var="t"),), element_var="e"),
    TreePattern("bib", children=(TreePattern("title", text_var="t",
                                             descendant=True),)),
    TreePattern("*", (AttributePattern("year", var="y"),)),
    TreePattern("book", children=(TreePattern("*", text_var="t"),)),
    TreePattern("bib", children=(TreePattern(
        "book", children=(TreePattern("title", text_var="t"),)),)),
    TreePattern("book", (AttributePattern("year", var="t"),),
                (TreePattern("title", text_var="t"),)),
], ids=["element_var", "descendant", "star_root", "star_child", "nested",
        "repeated_var"])
def test_patterns_outside_the_subset_run_match_pattern(pattern):
    assert _flat_plan(pattern) is None
    source = books()
    agree(source, "books", pattern)
    assert "books" not in source._shredded


def test_replace_document_is_seen():
    source = books()
    assert len(fetch(source, "books", BOOK)) == 3
    source.replace_document(
        "books", '<bib><book year="1"><title>T</title><author>A</author>'
                 "</book></bib>")
    assert [r["y"] for r in agree(source, "books", BOOK)] == ["1"]


def test_add_document_over_an_existing_name_is_seen():
    source = books()
    assert len(fetch(source, "books", BOOK)) == 3
    source.add_document("books", "<bib/>")
    assert agree(source, "books", BOOK) == []


def test_in_place_edits_are_seen():
    source = books()
    fetch(source, "books", BOOK)
    root = source.documents["books"].root
    first = root.first_child("book")
    first.set_attribute("year", "1066")
    assert agree(source, "books", BOOK)[0]["y"] == "1066"
    author = first.first_child("author").children[0]
    author.set_value("Knuth")
    assert agree(source, "books", BOOK)[0]["a"] == "Knuth"
    first.append(Element("author", children=["Second"]))
    assert [r["a"] for r in agree(source, "books", BOOK)][:2] == [
        "Knuth", "Second"]


def test_conditions_and_columns_on_the_tables():
    source = books()
    year = qast.BinOp(">", qast.Var("y"), qast.Literal(1995))
    got = agree(source, "books", BOOK, conditions=[year], columns=["a"])
    assert [r.as_dict() for r in got] == [{"a": "Abiteboul"}, {"a": "Buneman"}]


if HAVE_HYPOTHESIS:
    TAGS = ["a", "b", "c"]
    TEXTS = ["1", " 1 ", "2", "", "  ", "x y"]
    ATTRIBUTE_VALUES = ["1", "2", " 1"]

    ELEMENTS = st.recursive(
        st.builds(Element, st.sampled_from(TAGS),
                  st.dictionaries(st.sampled_from(["x", "y"]),
                                  st.sampled_from(ATTRIBUTE_VALUES)),
                  st.lists(st.sampled_from(TEXTS), max_size=1)),
        lambda inner: st.builds(
            Element, st.sampled_from(TAGS),
            st.dictionaries(st.sampled_from(["x", "y"]),
                            st.sampled_from(ATTRIBUTE_VALUES)),
            st.lists(st.one_of(inner, st.sampled_from(TEXTS)), max_size=4)),
        max_leaves=20,
    )

    @st.composite
    def flat_patterns(draw, root):
        """A flat pattern aimed at one of ``root``'s elements, so most
        draws match: its tag, attribute names and values, child tags and
        child texts are drawn from that element (or from the alphabets,
        so some draws miss)."""
        target = draw(st.sampled_from(list(root.descendants_or_self())))
        names = iter(f"v{i}" for i in range(20))
        attributes = []
        for name in draw(st.lists(st.sampled_from(["x", "y"]), unique=True)):
            if draw(st.booleans()):
                attributes.append(AttributePattern(name, var=next(names)))
            else:
                attributes.append(AttributePattern(name, literal=draw(
                    st.sampled_from(ATTRIBUTE_VALUES
                                    + list(target.attributes.values())))))
        text_var = text_literal = None
        root_text = draw(st.sampled_from(["none", "none", "var", "literal"]))
        if root_text == "var":
            text_var = next(names)
        elif root_text == "literal":
            text_literal = draw(st.sampled_from(
                ["1", "x y", target.text_content().strip()]))
        kids = [child.tag for child in target.child_elements()]
        kid_texts = [child.text_content().strip()
                     for child in target.child_elements()]
        children = []
        for tag in draw(st.lists(st.sampled_from(TAGS + kids * 3), max_size=3)):
            kind = draw(st.sampled_from(["var", "var", "literal", "exists"]))
            if kind == "var":
                children.append(TreePattern(tag, text_var=next(names)))
            elif kind == "literal":
                children.append(TreePattern(tag, text_literal=draw(
                    st.sampled_from(["1", "2", ""] + kid_texts))))
            else:
                children.append(TreePattern(tag))
        tag = draw(st.sampled_from([target.tag] * 3 + TAGS))
        return TreePattern(tag, tuple(attributes), tuple(children),
                           text_var, text_literal)

    LITERALS = st.sampled_from([1, 2, "1", "2", "x y", ""])
    OPERATORS = st.sampled_from(["=", "!=", "<", ">="])

    @given(ELEMENTS, st.data())
    def test_shredded_path_equals_match_pattern(root, data):
        pattern = data.draw(flat_patterns(root))
        assert _flat_plan(pattern) is not None
        variables = pattern.variables()
        conditions = []
        if variables:
            for var in data.draw(st.lists(st.sampled_from(variables),
                                          max_size=2)):
                conditions.append(qast.BinOp(
                    data.draw(OPERATORS), qast.Var(var),
                    qast.Literal(data.draw(LITERALS))))
        columns = data.draw(st.lists(st.sampled_from(variables), unique=True)) \
            if variables else []
        source = XMLSource("s", {"doc": Document(root)})
        agree(source, "doc", pattern, conditions, columns)
        assert "doc" in source._shredded
        # a second call reads the same tables
        tables = source._shredded["doc"]
        agree(source, "doc", pattern, conditions, columns)
        assert source._shredded["doc"] is tables


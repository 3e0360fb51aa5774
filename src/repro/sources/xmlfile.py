"""Wrapper for XML document sources.

An XML source exports named documents as relations.  Its "native query
capability" is tree-pattern matching with simple selections — the
wrapper evaluates the fragment's pattern and conditions *at the source*
(before transfer), so pushing a selective pattern genuinely reduces the
rows charged to the network model.

Child-step patterns are answered from **per-tag tables** shredded once
per document version, xml2db's mapping (DESIGN.md §4): every element of
one tag is a row, in document order, holding its attribute map, its
child elements' stripped text per child tag (a list, so repeated and
missing children keep their meaning) and its own stripped text.  A
pattern in the flat subset (see :func:`_flat_plan`) becomes a selection
over one table; every other pattern runs :func:`match_pattern`, which
stays the reference both paths must agree with, record for record and
in order.  The tables remember the root's subtree hash; the node
mutators drop that cached hash, so an in-place edit re-shreds on the
next call instead of serving stale rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Iterator

from repro.algebra.pattern import TreePattern, match_pattern
from repro.query.exprs import compile_predicate
from repro.algebra.tuples import BindingTuple
from repro.errors import CapabilityError
from repro.sources.base import CapabilityProfile, DataSource, Fragment, NetworkModel
from repro.simtime import SimClock
from repro.xmldm.document import Document
from repro.xmldm.nodes import Element
from repro.xmldm.parser import parse_document
from repro.xmldm.schema import RecordType
from repro.xmldm.values import NULL, Record

#: one shredded element: (attributes, child tag -> stripped child texts,
#: own stripped text).  The attribute map is the element's own, not a
#: copy: ``set_attribute`` drops the cached hash, so the next call
#: re-shreds before it reads a row.
_Row = tuple[dict[str, str], dict[str, list[str]], str]


def _shred(element: Element) -> _Row:
    children: dict[str, list[str]] = {}
    for child in element.child_elements():
        text = child.text_content().strip()
        found = children.get(child.tag)
        if found is None:
            children[child.tag] = [text]
        else:
            found.append(text)
    return element.attributes, children, element.text_content().strip()


class _Shredded:
    """The per-tag tables of one document version, each built on first use."""

    __slots__ = ("root", "version", "tables")

    def __init__(self, root: Element):
        self.root = root
        self.version = root.subtree_hash()
        self.tables: dict[str, list[_Row]] = {}

    def current(self, root: Element) -> bool:
        """Still the document it was built from: same root, and no
        mutation has dropped the root's cached hash since."""
        return root is self.root and root.cached_subtree_hash == self.version

    def table(self, tag: str) -> list[_Row]:
        rows = self.tables.get(tag)
        if rows is None:
            rows = [_shred(e) for e in self.root.descendants_or_self(tag)]
            self.tables[tag] = rows
        return rows


@dataclass(frozen=True)
class _FlatPlan:
    """A flat pattern as a selection over its root tag's table.

    Each test is ``(name, literal, binds)``: the attribute or child tag,
    the literal it must equal (or None), and whether its value is bound
    to the next variable in pattern order.
    """

    tag: str
    attributes: tuple[tuple[str, str | None, bool], ...]
    text_literal: str | None
    binds_text: bool
    children: tuple[tuple[str, str | None, bool], ...]
    variables: tuple[str, ...]

    def rows(self, table: list[_Row]) -> Iterator[list]:
        """Per match, the bound values in ``variables`` order, in the
        order and multiplicity :func:`match_pattern` yields them."""
        attribute_tests = self.attributes
        child_tests = self.children
        text_literal = self.text_literal
        binds_text = self.binds_text
        # positions (in child_tests) of the children that bind a variable
        bound = [i for i, (_, _, binds) in enumerate(child_tests) if binds]
        for attributes, children, text in table:
            values = []
            for name, literal, binds in attribute_tests:
                actual = attributes.get(name)
                if actual is None or (literal is not None and actual != literal):
                    break
                if binds:
                    values.append(actual)
            else:
                if text_literal is not None and text != text_literal:
                    continue
                if binds_text:
                    values.append(text)
                choices = []
                single = True
                for tag, literal, _binds in child_tests:
                    found = children.get(tag)
                    if found is not None and literal is not None:
                        found = [value for value in found if value == literal]
                    if not found:
                        break
                    if len(found) != 1:
                        single = False
                    choices.append(found)
                else:
                    if single:
                        values.extend([choices[i][0] for i in bound])
                        yield values
                        continue
                    # repeated children: match_pattern's nested loops,
                    # first child outermost
                    for combination in product(*choices):
                        yield values + [combination[i] for i in bound]


def _flat_plan(pattern: TreePattern) -> _FlatPlan | None:
    """The pattern as a :class:`_FlatPlan`, or None outside the subset.

    The subset: a named root tag; attributes bound to a variable or
    required to equal a literal; every child a leaf child step with a
    named tag, bound to a text variable, equal to a text literal, or
    only required to exist; no ``element_var``, no ``descendant`` and no
    variable bound twice.
    """
    if pattern.tag == "*" or pattern.element_var is not None or pattern.descendant:
        return None
    attributes = []
    for attribute in pattern.attributes:
        if attribute.var is not None and attribute.literal is not None:
            return None
        attributes.append((attribute.name, attribute.literal,
                           attribute.var is not None))
    children = []
    for child in pattern.children:
        if (child.tag == "*" or child.descendant or child.attributes
                or child.children or child.element_var is not None):
            return None
        children.append((child.tag, child.text_literal,
                         child.text_var is not None))
    variables = [a.var for a in pattern.attributes if a.var is not None]
    if pattern.text_var is not None:
        variables.append(pattern.text_var)
    variables += [c.text_var for c in pattern.children if c.text_var is not None]
    if len(set(variables)) != len(variables):
        return None
    return _FlatPlan(pattern.tag, tuple(attributes), pattern.text_literal,
                     pattern.text_var is not None, tuple(children),
                     tuple(variables))


class XMLSource(DataSource):
    """A source serving XML documents (files, feeds, exports)."""

    capabilities = CapabilityProfile(
        selections=True,
        projections=True,
        joins=False,  # one document pattern per fragment
        condition_ops=frozenset({"=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"}),
    )

    def __init__(
        self,
        name: str,
        documents: dict[str, Document | str] | None = None,
        clock: SimClock | None = None,
        network: NetworkModel | None = None,
    ):
        super().__init__(name, clock, network)
        self.documents: dict[str, Document] = {}
        #: document name -> its per-tag tables, built on the first query
        self._shredded: dict[str, _Shredded] = {}
        for doc_name, document in (documents or {}).items():
            self.add_document(doc_name, document)

    def add_document(self, name: str, document: Document | str) -> None:
        """Register a document (XML text is parsed on the spot)."""
        if isinstance(document, str):
            document = parse_document(document, name=name)
        self.documents[name] = document
        self._shredded.pop(name, None)

    def replace_document(self, name: str, document: Document | str) -> None:
        """Swap in a new snapshot of a document, synthesizing deltas.

        XML feeds rarely emit change records — they hand over a fresh
        file.  When CDC is enabled and the relation has a declared key,
        the subtree-hash differ turns the old and new versions into
        insert/update/delete records (reset when the difference has no
        delta shape); otherwise a single ``reset`` is emitted.
        """
        if isinstance(document, str):
            document = parse_document(document, name=name)
        old = self.documents.get(name)
        self.documents[name] = document
        self._shredded.pop(name, None)
        if self.changelog is None:
            return
        key_field = self.changelog.key_field(name)
        if old is None or key_field is None:
            self.changelog.emit_reset(name)
            self.tracer.event("snapshot_reset", source=self.name,
                              document=name)
            return
        from repro.cdc.differ import diff_documents

        with self.tracer.span("snapshot_diff", name=name, source=self.name,
                              document=name) as span:
            counts = {"insert": 0, "update": 0, "delete": 0, "reset": 0}
            for change in diff_documents(old.root, document.root, key_field):
                counts[change.op] = counts.get(change.op, 0) + 1
                if change.op == "reset":
                    self.changelog.emit_reset(name)
                else:
                    self.changelog.emit(
                        change.op,
                        name,
                        key=change.key,
                        node=change.node,
                        before_node=change.before_node,
                    )
            if span.recording:
                span.set(**counts)

    def relations(self) -> dict[str, RecordType]:
        # Documents are semi-structured: exported with an open record type.
        return {name: RecordType(name) for name in self.documents}

    def cardinality(self, relation: str) -> int:
        document = self.documents.get(relation)
        if document is None:
            return 0
        return sum(1 for _ in document.root.child_elements())

    def _fetch_all(self, relation: str):
        document = self.documents.get(relation)
        if document is None:
            raise CapabilityError(
                f"source {self.name!r} has no document {relation!r}"
            )
        return [document]

    def _execute(self, fragment: Fragment, params: dict[str, Any]) -> Iterable[Record]:
        if len(fragment.accesses) != 1:
            raise CapabilityError("XML fragments access exactly one document")
        access = fragment.accesses[0]
        document = self.documents.get(access.relation)
        if document is None:
            raise CapabilityError(
                f"source {self.name!r} has no document {access.relation!r}"
            )
        predicates = [compile_predicate(c) for c in fragment.conditions]
        pattern = access.pattern
        plan = _flat_plan(pattern)
        if plan is None:
            yield from self._match(document, pattern, predicates,
                                   fragment.columns)
            return
        shredded = self._shredded.get(access.relation)
        if shredded is None or not shredded.current(document.root):
            shredded = _Shredded(document.root)
            self._shredded[access.relation] = shredded
        variables = plan.variables
        rows = plan.rows(shredded.table(plan.tag))
        if predicates:
            rows = (
                values for values in rows
                if all(predicate(BindingTuple(zip(variables, values)))
                       for predicate in predicates)
            )
        if fragment.columns:
            keep = set(fragment.columns)
            kept = [(var, index) for index, var in enumerate(variables)
                    if var in keep]
            for values in rows:
                yield Record.adopt({var: values[index] for var, index in kept})
        else:
            for values in rows:
                yield Record.adopt(dict(zip(variables, values)))

    @staticmethod
    def _match(document: Document, pattern: TreePattern, predicates,
               columns: tuple[str, ...]) -> Iterator[Record]:
        """The reference path: :func:`match_pattern` at every candidate."""
        variables = pattern.variables()
        if columns:
            # projection pushdown: conditions still see the full match,
            # only the transferred record narrows
            keep = set(columns)
            output_vars = [var for var in variables if var in keep]
        else:
            output_vars = list(variables)
        seed = BindingTuple()
        tag = None if pattern.tag == "*" else pattern.tag
        for candidate in document.root.descendants_or_self(tag):
            for match in match_pattern(pattern, candidate, seed):
                if all(predicate(match) for predicate in predicates):
                    yield Record(
                        {var: match.get(var, NULL) for var in output_vars}
                    )

"""Tree patterns: the matching side of XML-QL WHERE clauses.

A :class:`TreePattern` describes one element (or record) shape with
variables at the positions whose values the query wants.  Patterns match
both element trees and structured records — the point of the hybrid data
model — so the same WHERE clause works against an XML document and a
relational row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.algebra.tuples import BindingTuple
from repro.xmldm.nodes import Element
from repro.xmldm.values import Collection, Record


@dataclass(frozen=True)
class AttributePattern:
    """Matches one attribute: bind it to ``var`` or require ``literal``."""

    name: str
    var: str | None = None
    literal: str | None = None


@dataclass(frozen=True)
class TreePattern:
    """One node of a tree pattern.

    ``tag``          element tag / record field name ('*' matches any);
    ``attributes``   attribute constraints/bindings;
    ``children``     nested patterns (matched against *child* elements,
                     or at any depth when the child sets ``descendant``);
    ``text_var``     variable bound to the node's text / field value;
    ``text_literal`` literal content the node must equal (trimmed);
    ``element_var``  variable bound to the matched element itself;
    ``descendant``   when true, this pattern matches at any depth below
                     its structural position rather than directly.
    """

    tag: str
    attributes: tuple[AttributePattern, ...] = ()
    children: tuple["TreePattern", ...] = ()
    text_var: str | None = None
    text_literal: str | None = None
    element_var: str | None = None
    descendant: bool = False

    def variables(self) -> list[str]:
        """All variables the pattern binds, in syntactic order."""
        names: list[str] = []
        for attribute in self.attributes:
            if attribute.var is not None:
                names.append(attribute.var)
        if self.element_var is not None:
            names.append(self.element_var)
        if self.text_var is not None:
            names.append(self.text_var)
        for child in self.children:
            names.extend(child.variables())
        return list(dict.fromkeys(names))

    def describe(self) -> str:
        bits = [self.tag]
        for attribute in self.attributes:
            if attribute.var is not None:
                bits.append(f"@{attribute.name}=${attribute.var}")
            else:
                bits.append(f"@{attribute.name}={attribute.literal!r}")
        if self.text_var:
            bits.append(f"${self.text_var}")
        if self.children:
            bits.append(f"[{' '.join(child.describe() for child in self.children)}]")
        prefix = "//" if self.descendant else ""
        return prefix + "<" + " ".join(bits) + ">"


def match_pattern(pattern: TreePattern, value, base: BindingTuple) -> Iterator[BindingTuple]:
    """Yield every extension of ``base`` where ``pattern`` matches ``value``.

    ``value`` may be an Element (tag-checked), a Record (the pattern's
    children match fields; the pattern's own tag is not checked, since a
    record carries no tag) or a Collection (each item tried in turn).
    """
    if isinstance(value, Collection):
        for item in value:
            yield from match_pattern(pattern, item, base)
        return
    if isinstance(value, Element):
        yield from _match_element(pattern, value, base)
        return
    if isinstance(value, Record):
        yield from _match_record(pattern, value, base)
        return
    # Atomic value: can only satisfy a leaf pattern binding/comparing text.
    if pattern.children or pattern.attributes:
        return
    yield from _bind_content(pattern, value, None, base)


def _match_element(
    pattern: TreePattern, element: Element, base: BindingTuple
) -> Iterator[BindingTuple]:
    if pattern.tag != "*" and element.tag != pattern.tag:
        return
    current = base
    for attribute in pattern.attributes:
        if attribute.name not in element.attributes:
            return
        actual = element.attributes[attribute.name]
        if attribute.literal is not None:
            if actual != attribute.literal:
                return
        elif attribute.var is not None:
            extended = current.extend(attribute.var, actual)
            if extended is None:
                return
            current = extended
    if pattern.element_var is not None:
        extended = current.extend(pattern.element_var, element)
        if extended is None:
            return
        current = extended
    if pattern.text_var is None and pattern.text_literal is None:
        # nothing reads the text: skip concatenating the whole subtree
        yield from _match_children(pattern.children, element, current)
        return
    for bound in _bind_content(pattern, element.text_content(), element, current):
        yield from _match_children(pattern.children, element, bound)


def _bind_content(
    pattern: TreePattern, text_value, element: Element | None, base: BindingTuple
) -> Iterator[BindingTuple]:
    if pattern.text_literal is not None:
        actual = text_value.strip() if isinstance(text_value, str) else text_value
        if str(actual) != pattern.text_literal:
            return
    if pattern.text_var is not None:
        value = text_value.strip() if isinstance(text_value, str) and element is not None else text_value
        extended = base.extend(pattern.text_var, value)
        if extended is None:
            return
        base = extended
    yield base


def _match_children(
    children: tuple[TreePattern, ...], element: Element, base: BindingTuple
) -> Iterator[BindingTuple]:
    if not children:
        yield base
        return
    head, rest = children[0], children[1:]
    candidates = (
        element.descendants(None if head.tag == "*" else head.tag)
        if head.descendant
        else element.child_elements(None if head.tag == "*" else head.tag)
    )
    for candidate in candidates:
        for bound in _match_element(head, candidate, base):
            yield from _match_children(rest, element, bound)


def _match_record(
    pattern: TreePattern, record: Record, base: BindingTuple
) -> Iterator[BindingTuple]:
    # The record itself has no tag; its fields stand in for child elements.
    current = base
    if pattern.attributes:
        return  # records have no attributes
    if pattern.element_var is not None:
        extended = current.extend(pattern.element_var, record)
        if extended is None:
            return
        current = extended
    if pattern.text_var is not None and not pattern.children:
        extended = current.extend(pattern.text_var, record)
        if extended is None:
            return
        current = extended
    yield from _match_record_fields(pattern.children, record, current)


def _match_record_fields(
    children: tuple[TreePattern, ...], record: Record, base: BindingTuple
) -> Iterator[BindingTuple]:
    if not children:
        yield base
        return
    head, rest = children[0], children[1:]
    if head.tag != "*" and head.tag not in record:
        return
    field_names = record.fields if head.tag == "*" else (head.tag,)
    for name in field_names:
        value = record[name]
        for bound in _match_field(head, value, base):
            yield from _match_record_fields(rest, record, bound)


def _match_field(pattern: TreePattern, value, base: BindingTuple) -> Iterator[BindingTuple]:
    if isinstance(value, (Record, Collection, Element)):
        if pattern.children:
            yield from match_pattern(pattern, value, base)
            return
        # Leaf pattern over a structured value: bind the value wholesale.
        yield from _bind_content(pattern, value, None, base)
        return
    if pattern.children:
        return  # atomic field cannot satisfy nested structure
    yield from _bind_content(pattern, value, None, base)

"""Answering a pattern over a mediated view from the view's binding rows.

A query clause ``<pattern> IN "view"`` used to run the view to element
trees (:func:`~repro.algebra.construct.build_elements`) only for
:func:`~repro.algebra.pattern.match_pattern` to take them apart again.
:func:`fuse` compiles (view CONSTRUCT template x outer tree pattern)
once into a short list of nested-loop steps that yield, straight from
the view's binding rows, exactly the bindings construct-then-match
would — same rows, same order — without building an element:

* one step per pattern node, in pre-order, which is the order
  ``match_pattern`` nests its loops (sibling branches cross-multiply);
* a step partitions its parent step's current group of rows by the
  template node's grouping variables in first-appearance order — the
  elements ``build_elements`` would have built there — so a nested
  branch contributes each distinct value once per parent group;
* a group's first row renders attribute and text values through the
  same text round trip (``atomic_to_text``, content ``.strip()``, Null
  as ``""``), and a repeated outer variable must render equal.

This is a nest followed by an unnest, not a substitution of the view's
clauses into the outer query: without declared keys the two differ
(two rows of one ``sku`` with different names and prices give the 2x2
cross product), so outer conditions stay above :class:`ViewMatch`.

Shapes the steps cannot express make :func:`fuse` return None and the
planner keep ``CallbackScan`` + ``PatternMatch`` over the view's
elements: ``element_var``, ``//``, ``*``, the text of a node whose
template holds anything but text and variables (element content or an
aggregate), a child tag two sibling sub-templates share, and a root tag
that also names a nested sub-template (the root is searched at any
depth).  A binding that is itself an Element, Record or Collection
would add child elements no template node describes; that is checked
per value at run time and falls back to construct-then-match inside
the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.algebra.construct import (
    ConstructTemplate,
    TemplateText,
    TemplateVar,
    build_elements,
    group_rows,
)
from repro.algebra.navigate import match_anywhere
from repro.algebra.operators import Operator
from repro.algebra.pattern import TreePattern
from repro.algebra.tuples import EMPTY_TUPLE, BindingTuple
from repro.xmldm.nodes import Element
from repro.xmldm.schema import atomic_to_text
from repro.xmldm.values import NULL, Collection, Record

_STRUCTURED = (Element, Record, Collection)


class ViewRows(list):
    """A view's binding rows in the view's ORDER BY order, not elements."""


@dataclass(frozen=True)
class _Binding:
    """One rendered value of a template node and what the pattern wants
    of it: equal ``literal``, bound to (or unified with) ``var``."""

    parts: tuple["str | TemplateVar", ...]
    strip: bool  # element content is trimmed, attribute values are not
    literal: str | None
    var: str | None

    def render(self, row: BindingTuple) -> str:
        text = "".join([
            part if isinstance(part, str)
            else atomic_to_text(row.get(part.var, NULL))
            for part in self.parts
        ])
        return text.strip() if self.strip else text


@dataclass(frozen=True)
class _Step:
    """One pattern node over the template node it matches."""

    parent: int  # the step whose current group this one partitions
    group_vars: tuple[str, ...]
    bindings: tuple[_Binding, ...]


@dataclass(frozen=True)
class FusedMatch:
    """(template x pattern) compiled; ``steps`` None = can never match."""

    template: ConstructTemplate
    pattern: TreePattern
    steps: tuple[_Step, ...] | None
    #: variables in content position anywhere in the template: a
    #: structured value there becomes child elements at run time
    content_vars: tuple[str, ...]

    def bindings(self, rows: Sequence[BindingTuple]) -> Iterator[BindingTuple]:
        """What ``match_pattern`` yields over ``build_elements(rows)``."""
        if any(
            isinstance(row.get(var), _STRUCTURED)
            for var in self.content_vars for row in rows
        ):
            yield from match_elements(
                self.pattern, build_elements(self.template, rows)
            )
        elif self.steps is not None and rows:
            matched: list[BindingTuple] = []
            self._run(0, [rows] + [None] * len(self.steps), {}, matched)
            yield from matched

    def _run(self, index: int, groups: list, bound: dict[str, str],
             matched: list[BindingTuple]) -> None:
        """Nested loops over steps ``index``...; ``groups[i + 1]`` is step
        i's current group and ``groups[0]`` all rows."""
        if index == len(self.steps):
            matched.append(BindingTuple(bound))
            return
        step = self.steps[index]
        for group in group_rows(groups[step.parent + 1], step.group_vars):
            representative = group[0]
            added: list[str] = []
            for binding in step.bindings:
                text = binding.render(representative)
                if binding.literal is not None and text != binding.literal:
                    break
                var = binding.var
                if var is None:
                    continue
                if var not in bound:
                    bound[var] = text
                    added.append(var)
                elif bound[var] != text:  # both are rendered strings
                    break
            else:
                groups[index + 1] = group
                self._run(index + 1, groups, bound, matched)
            for var in added:
                del bound[var]


class _Unfusible(Exception):
    """The pattern needs the element trees."""


class _NeverMatches(Exception):
    """No element the template builds can satisfy the pattern."""


def fuse(template: ConstructTemplate, pattern: TreePattern) -> FusedMatch | None:
    """Compile ``pattern`` over ``template``'s elements, or None when only
    construct-then-match can answer it."""
    nested_tags = {node.tag for node in _sub_templates(template)}
    if pattern.descendant or pattern.tag == "*" or pattern.tag in nested_tags:
        return None
    steps: list[_Step] | None = []
    try:
        if pattern.tag != template.tag:
            raise _NeverMatches
        _compile(template, pattern, -1, steps)
    except _Unfusible:
        return None
    except _NeverMatches:
        steps = None
    return FusedMatch(
        template, pattern,
        None if steps is None else tuple(steps),
        tuple(dict.fromkeys(_content_vars(template))),
    )


def _compile(template: ConstructTemplate, pattern: TreePattern,
             parent: int, steps: list[_Step]) -> None:
    if pattern.element_var is not None:
        raise _Unfusible
    bindings: list[_Binding] = []
    attributes = dict(template.attributes)
    for attribute in pattern.attributes:
        if attribute.name not in attributes:
            raise _NeverMatches
        bindings.append(_Binding(
            (attributes[attribute.name],), False,
            attribute.literal, attribute.var,
        ))
    if pattern.text_var is not None or pattern.text_literal is not None:
        parts = []
        for item in template.children:
            if isinstance(item, TemplateText):
                parts.append(item.text)
            elif isinstance(item, TemplateVar):
                parts.append(item)
            else:
                raise _Unfusible  # element content or an aggregate
        bindings.append(_Binding(
            tuple(parts), True, pattern.text_literal, pattern.text_var,
        ))
    index = len(steps)
    steps.append(_Step(
        parent, template.group_vars, tuple(bindings),
    ))
    for child in pattern.children:
        if child.descendant or child.tag == "*":
            raise _Unfusible
        branches = [
            item for item in template.children
            if isinstance(item, ConstructTemplate) and item.tag == child.tag
        ]
        if not branches:
            raise _NeverMatches
        if len(branches) > 1:
            raise _Unfusible
        _compile(branches[0], child, index, steps)


def _sub_templates(template: ConstructTemplate) -> Iterator[ConstructTemplate]:
    for item in template.children:
        if isinstance(item, ConstructTemplate):
            yield item
            yield from _sub_templates(item)


def _content_vars(template: ConstructTemplate) -> Iterator[str]:
    for item in template.children:
        if isinstance(item, ConstructTemplate):
            yield from _content_vars(item)
        elif not isinstance(item, TemplateText):
            yield item.var  # a variable, aggregated or not


def match_elements(pattern: TreePattern, elements) -> Iterator[BindingTuple]:
    """The element path: the pattern at any depth of each view element."""
    for element in elements:
        yield from match_anywhere(pattern, element, EMPTY_TUPLE)


class ViewMatch(Operator):
    """Bindings of one pattern clause over a mediated view (a leaf).

    ``fetch`` is the engine's ``fetch_view(view, rows=True)``: it serves
    :class:`ViewRows` — fused matching, no element built — or, when a
    fresh materialized copy exists, the copy's elements, which are
    matched as ``PatternMatch`` would.
    """

    def __init__(self, view_name: str, fetch: Callable[[], list],
                 fused: FusedMatch):
        super().__init__()
        self.view_name = view_name
        self.fetch = fetch
        self.fused = fused
        self._served = 0
        self._served_as = ""

    def _produce(self) -> Iterator[BindingTuple]:
        served = self.fetch()
        self._served = len(served)
        if isinstance(served, ViewRows):
            self._served_as = "rows"
            yield from self.fused.bindings(served)
        else:
            self._served_as = "elements"
            yield from match_elements(self.fused.pattern, served)

    @property
    def rows_in(self) -> int:
        """View rows (or materialized elements) the match consumed."""
        return self._served

    def reset_counters(self) -> None:
        super().reset_counters()
        self._served = 0
        self._served_as = ""

    def analyze_stats(self) -> dict[str, Any]:
        stats = super().analyze_stats()
        stats["served"] = self._served_as
        return stats

    def describe(self) -> str:
        return f"ViewMatch({self.view_name} ~ {self.fused.pattern.describe()})"

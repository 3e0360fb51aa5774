"""Syntax-to-algebra conversions shared by the planners.

Section 3.1: "we translate a query into an internal representation, and
from there directly to query execution plans in the physical algebra".
The plans themselves are built by
:class:`repro.optimizer.planner.PlanBuilder` (XML-QL) and
:func:`repro.query.flwor.translate_flwor` (FLWOR); this module turns a
query's syntactic patterns and templates into the algebra's
:class:`TreePattern` and :class:`ConstructTemplate`.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol

from repro.algebra import (
    ConstructTemplate,
    TemplateText,
    TemplateVar,
    TreePattern,
)
from repro.algebra.construct import TemplateAggregate
from repro.algebra.pattern import AttributePattern
from repro.query import ast


class SourceResolver(Protocol):
    """Resolves a source name to the items a scan should iterate."""

    def __call__(self, source_name: str) -> Iterable[Any]: ...


def pattern_to_tree(pattern: ast.PatternElement) -> TreePattern:
    """Convert syntactic patterns to the algebra's tree patterns."""
    return TreePattern(
        tag=pattern.tag,
        attributes=tuple(
            AttributePattern(a.name, var=a.var, literal=a.literal)
            for a in pattern.attributes
        ),
        children=tuple(pattern_to_tree(child) for child in pattern.children),
        text_var=pattern.text_var,
        text_literal=pattern.text_literal,
        element_var=pattern.element_var,
        descendant=pattern.descendant,
    )


def template_to_construct(template: ast.TemplateElement) -> ConstructTemplate:
    """Convert syntactic templates to the algebra's construct templates."""
    children: list[Any] = []
    for child in template.children:
        if isinstance(child, ast.TemplateElement):
            children.append(template_to_construct(child))
        elif isinstance(child, ast.Var):
            children.append(TemplateVar(child.name))
        elif isinstance(child, ast.AggregateRef):
            children.append(TemplateAggregate(child.kind, child.var))
        else:
            children.append(TemplateText(child))
    return ConstructTemplate(
        tag=template.tag,
        attributes=tuple(
            (name, TemplateVar(value.name) if isinstance(value, ast.Var) else value)
            for name, value in template.attributes
        ),
        children=tuple(children),
    )

"""Navigation: tree-pattern matching at any depth of a document."""

from __future__ import annotations

from typing import Iterator

from repro.algebra.operators import Operator
from repro.algebra.pattern import TreePattern, match_pattern
from repro.algebra.tuples import BindingTuple
from repro.xmldm.document import Document
from repro.xmldm.nodes import Element


def match_anywhere(
    pattern: TreePattern, element: Element, base: BindingTuple
) -> Iterator[BindingTuple]:
    """Match ``pattern`` at any depth below (and including) ``element``."""
    tag = None if pattern.tag == "*" else pattern.tag
    for candidate in element.descendants_or_self(tag):
        yield from match_pattern(pattern, candidate, base)


class PatternMatch(Operator):
    """Match a tree pattern against the value bound to ``context_var``.

    For each input tuple and each way the pattern matches the context
    value, an extended tuple is produced.  Elements are searched at any
    depth below (and including) the context element, so a pattern rooted
    at ``<book>`` finds books wherever they live in the document — the
    convenient XML-QL behaviour.
    """

    def __init__(self, child: Operator, context_var: str, pattern: TreePattern):
        super().__init__(child)
        self.context_var = context_var
        self.pattern = pattern

    def _produce(self) -> Iterator[BindingTuple]:
        for row in self.children[0]:
            context = row.get(self.context_var)
            if context is None:
                continue
            if isinstance(context, Document):
                context = context.root
            if isinstance(context, Element):
                yield from match_anywhere(self.pattern, context, row)
            else:
                yield from match_pattern(self.pattern, context, row)

    def describe(self) -> str:
        return f"PatternMatch(${self.context_var} ~ {self.pattern.describe()})"

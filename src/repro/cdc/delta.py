"""Grouped aggregation with retraction, for incremental view refresh.

:class:`DeltaGroups` maintains the groups of one flat construct template
(:func:`repro.algebra.merge.flat_template`) under row-level changes, so
a materialized view's elements can be re-rendered from the changed rows
instead of recomputed from all of them.  It reuses the mergeable slot
layout of :class:`repro.algebra.merge.PartialGroups` and extends it with
**retraction**: count/sum/avg subtract exactly; min/max retraction is
only unsupported when the retracted value *is* the current extreme (the
next extreme is unknowable without the member list).

Every row is observed and retracted at its base *position* (unique, and
ordered as the base rows are).  Group emission order and representatives
are re-derived from those positions when rendering, so output is
bit-identical to :func:`repro.algebra.construct.build_elements` over the
full row stream.  (Float sums carry the usual caveat: ``a + b - b`` can
differ from ``a`` in the last ulp; integer and string aggregates are
exact.)

:class:`DeltaUnsupported` marks a change with no sound in-place shape;
the incremental materializer catches it and falls back to a full
rebuild — falling back is always correct, propagating wrongly never is.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any

from repro.algebra.construct import ConstructTemplate, _numeric_or_self, slot_var
from repro.algebra.grouping import non_numeric
from repro.algebra.merge import (
    _build_one,
    _finish,
    collect_aggregates,
    flat_template,
    group_key,
)
from repro.algebra.tuples import BindingTuple
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Null, compare_values


class DeltaUnsupported(Exception):
    """The change has no sound delta shape; rebuild instead."""


class _DeltaGroupState:
    """One group's mergeable slots and its ``(position, row)`` members in
    position order, so the group's first base row is ``order[0]``."""

    __slots__ = ("slots", "order")

    def __init__(self, n_aggregates: int):
        # count -> int; sum/avg -> [acc, present]; min/max -> [value, True]
        self.slots: list[Any] = [None] * n_aggregates
        self.order: list[tuple] = []


def _first_position(state: _DeltaGroupState):
    return state.order[0][0]


class DeltaGroups:
    """Grouped aggregation over one flat construct template, maintained
    row by row.

    ``observe`` folds a row in at its base position, ``retract`` takes
    it out again, and ``finalize_positioned`` renders the elements from
    the states alone: a refresh costs the rows that changed and the
    groups emitted, never the rows held.
    """

    def __init__(self, template: ConstructTemplate):
        if not flat_template(template):
            raise DeltaUnsupported(
                "delta aggregation requires a flat template"
            )
        self.template = template
        self.group_vars = template.group_vars
        self.aggregates = collect_aggregates(template)
        self.groups: dict[tuple, _DeltaGroupState] = {}

    # -- folding ----------------------------------------------------------

    def observe(self, row: BindingTuple, position) -> None:
        state = self._state(row, create=True)
        insort(state.order, (position, row))
        for index, item in enumerate(self.aggregates):
            value = self._value(row, item)
            if value is None:
                continue
            self._fold(state, index, item.kind, value)

    def retract(self, row: BindingTuple, position) -> None:
        state = self._state(row, create=False)
        if state is None:
            raise DeltaUnsupported("retraction of a row from an unknown group")
        order = state.order
        at = bisect_left(order, (position,))
        if at == len(order) or order[at][0] != position:
            raise DeltaUnsupported("retraction of an unobserved position")
        del order[at]
        for index, item in enumerate(self.aggregates):
            value = self._value(row, item)
            if value is None:
                continue
            self._unfold(state, index, item.kind, value)
        if not order:
            del self.groups[group_key(row, self.group_vars)]

    # -- rendering --------------------------------------------------------

    def finalize_positioned(self) -> list[Element]:
        """Elements in :func:`construct.build_elements`' grouping over
        the observed rows in position order: each group's
        lowest-positioned row represents it and the groups emit in the
        order of those positions."""
        states = sorted(self.groups.values(), key=_first_position)
        return [self._element(state, state.order[0][1]) for state in states]

    def _element(self, state: _DeltaGroupState, row: BindingTuple) -> Element:
        synthetic = {
            slot_var(index): _finish(item.kind, state.slots[index])
            for index, item in enumerate(self.aggregates)
        }
        return _build_one(self.template, row, synthetic)

    # -- internals --------------------------------------------------------

    def _state(self, row: BindingTuple,
               create: bool) -> _DeltaGroupState | None:
        key = group_key(row, self.group_vars)
        state = self.groups.get(key)
        if state is None and create:
            state = _DeltaGroupState(len(self.aggregates))
            self.groups[key] = state
        return state

    def _value(self, row: BindingTuple, item) -> Any | None:
        value = row.get(item.var, NULL)
        if isinstance(value, Null) or value is None:
            return None
        if item.kind != "count":
            value = _numeric_or_self(value)
        return value

    def _fold(self, state: _DeltaGroupState, index: int, kind: str,
              value: Any) -> None:
        slot = state.slots[index]
        if kind == "count":
            state.slots[index] = (slot or 0) + 1
            return
        if kind in ("sum", "avg"):
            if slot is None:
                slot = [0, 0]
                state.slots[index] = slot
            try:
                slot[0] = slot[0] + value
            except TypeError:
                raise non_numeric(kind, value) from None
            slot[1] += 1
            return
        if slot is None:
            state.slots[index] = [value, True]
            return
        result = compare_values(value, slot[0])
        if (kind == "min" and result < 0) or (kind == "max" and result > 0):
            slot[0] = value

    def _unfold(self, state: _DeltaGroupState, index: int, kind: str,
                value: Any) -> None:
        slot = state.slots[index]
        if kind == "count":
            if not slot:
                raise DeltaUnsupported("count retraction below zero")
            state.slots[index] = slot - 1 or None
            return
        if kind in ("sum", "avg"):
            if slot is None or slot[1] <= 0:
                raise DeltaUnsupported("sum/avg retraction below zero")
            slot[0] = slot[0] - value
            slot[1] -= 1
            if slot[1] == 0:
                state.slots[index] = None
            return
        # min/max: a retracted non-extreme leaves the extreme untouched;
        # retracting the extreme itself is the non-invertible case
        if slot is None:
            raise DeltaUnsupported("min/max retraction from empty state")
        if compare_values(value, slot[0]) == 0:
            raise DeltaUnsupported("retracted value is the current extreme")


__all__ = ["DeltaGroups", "DeltaUnsupported"]

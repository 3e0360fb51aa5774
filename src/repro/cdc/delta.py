"""Delta propagation through the algebra.

Each class here is the *delta counterpart* of one algebra operator: it
transforms a batch of row-level changes the way the operator transforms
rows, so a materialized result can be updated in place instead of
recomputed.  A :class:`RowDelta` carries an after-image (``row``) and a
before-image (``before``):

========  ===========  ============
op        row          before
========  ===========  ============
insert    new row      —
update    new row      old row
delete    —            old row
========  ===========  ============

Operators raise :class:`DeltaUnsupported` when a change has no sound
in-place shape (a duplicate leaving :class:`DeltaDistinct`, a retracted
min/max extreme in :class:`DeltaGroups`); the incremental materializer
catches it and falls back to a full rebuild — falling back is always
correct, propagating wrongly never is.

:class:`DeltaGroups` is the GroupBy/Aggregate counterpart.  It reuses
the mergeable slot layout of :class:`repro.algebra.merge.PartialGroups`
and extends it with **retraction**: count/sum/avg subtract exactly;
min/max retraction is only unsupported when the retracted value *is*
the current extreme (the next extreme is unknowable without the member
list).  Aggregate values live in the states; group emission order and
representatives are re-derived at finalize time — from the caller's
base rows, or from the base *positions* the caller observed each row
at — so output is bit-identical to :func:`construct.build_elements`
over the full row stream.  (Float sums
carry the usual caveat: ``a + b - b`` can differ from ``a`` in the last
ulp; integer and string aggregates are exact.)
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.algebra.construct import ConstructTemplate, _numeric_or_self
from repro.algebra.grouping import non_numeric
from repro.algebra.merge import (
    _build_one,
    _finish,
    collect_aggregates,
    flat_template,
    group_key,
    template_group_vars,
)
from repro.algebra.tuples import BindingTuple
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Null, compare_values


class DeltaUnsupported(Exception):
    """The change has no sound delta shape; rebuild instead."""


@dataclass(frozen=True)
class RowDelta:
    """One row-level change flowing through delta operators."""

    op: str  # insert | update | delete
    row: BindingTuple | None = None
    before: BindingTuple | None = None


def _as_inserts(rows: Iterable[BindingTuple]) -> list[RowDelta]:
    return [RowDelta("insert", row=row) for row in rows]


# -- stateless counterparts --------------------------------------------------


class DeltaSelect:
    """Counterpart of Select: filtering changes the *kind* of a change.

    An update whose before-image failed the predicate but whose
    after-image passes *enters* the selection — it becomes an insert;
    one that flips the other way becomes a delete.
    """

    def __init__(self, predicate: Callable[[BindingTuple], bool]):
        self.predicate = predicate

    def apply_delta(self, deltas: Sequence[RowDelta]) -> list[RowDelta]:
        out: list[RowDelta] = []
        for delta in deltas:
            before_in = delta.before is not None and self.predicate(delta.before)
            after_in = delta.row is not None and self.predicate(delta.row)
            if delta.op == "insert":
                if after_in:
                    out.append(delta)
            elif delta.op == "delete":
                if before_in:
                    out.append(delta)
            elif after_in and before_in:
                out.append(delta)
            elif after_in:
                out.append(RowDelta("insert", row=delta.row))
            elif before_in:
                out.append(RowDelta("delete", before=delta.before))
        return out


class DeltaProject:
    """Counterpart of Project: images narrow like rows do."""

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)

    def apply_delta(self, deltas: Sequence[RowDelta]) -> list[RowDelta]:
        return [
            RowDelta(
                delta.op,
                row=None if delta.row is None else delta.row.project(self.variables),
                before=(
                    None if delta.before is None
                    else delta.before.project(self.variables)
                ),
            )
            for delta in deltas
        ]


class DeltaCompute:
    """Counterpart of Compute: extend both images.

    ``BindingTuple.extend`` returns None on a unification conflict —
    the row drops out of the stream, which for an update means the
    change flips kind exactly as in :class:`DeltaSelect`.
    """

    def __init__(self, var: str, fn: Callable[[BindingTuple], Any]):
        self.var = var
        self.fn = fn

    def _extend(self, row: BindingTuple | None) -> BindingTuple | None:
        if row is None:
            return None
        return row.extend(self.var, self.fn(row))

    def apply_delta(self, deltas: Sequence[RowDelta]) -> list[RowDelta]:
        out: list[RowDelta] = []
        for delta in deltas:
            row = self._extend(delta.row)
            before = self._extend(delta.before)
            if delta.op == "insert":
                if row is not None:
                    out.append(RowDelta("insert", row=row))
            elif delta.op == "delete":
                if before is not None:
                    out.append(RowDelta("delete", before=before))
            elif row is not None and before is not None:
                out.append(RowDelta("update", row=row, before=before))
            elif row is not None:
                out.append(RowDelta("insert", row=row))
            elif before is not None:
                out.append(RowDelta("delete", before=before))
        return out


class DeltaDistinct:
    """Counterpart of Distinct, with a multiplicity map as state.

    An insert surfaces only when its key's count goes 0 -> 1; a delete
    only when it goes 1 -> 0.  A delete or update touching a key whose
    count stays positive is unsupported: Distinct emits the *first*
    occurrence, and without positions we cannot know whether the
    surviving duplicate sat earlier or later in the stream.
    """

    def __init__(self, variables: Sequence[str] | None = None):
        self.variables = tuple(variables) if variables is not None else None
        self._counts: dict[str, int] = {}

    def _key(self, row: BindingTuple) -> str:
        view = row if self.variables is None else row.project(self.variables)
        return repr(sorted(view.as_dict().items()))

    def observe(self, row: BindingTuple) -> None:
        """Fold one base row into the multiplicity map (initial load)."""
        key = self._key(row)
        self._counts[key] = self._counts.get(key, 0) + 1

    def apply_delta(self, deltas: Sequence[RowDelta]) -> list[RowDelta]:
        out: list[RowDelta] = []
        for delta in deltas:
            if delta.op == "update":
                expanded = [
                    RowDelta("delete", before=delta.before),
                    RowDelta("insert", row=delta.row),
                ]
            else:
                expanded = [delta]
            for step in expanded:
                if step.op == "insert":
                    key = self._key(step.row)
                    count = self._counts.get(key, 0)
                    self._counts[key] = count + 1
                    if count == 0:
                        out.append(step)
                else:
                    key = self._key(step.before)
                    count = self._counts.get(key, 0)
                    if count <= 0:
                        raise DeltaUnsupported(
                            "distinct retraction of an unseen row"
                        )
                    if count > 1:
                        raise DeltaUnsupported(
                            "distinct retraction with surviving duplicates"
                        )
                    del self._counts[key]
                    out.append(step)
        return out


class DeltaJoin:
    """Counterpart of a join: delta rows meet the *other* side's rows.

    ``delta R join S``: each changed left row pairs with its matching
    right rows (equi-join on ``shared`` when given, else cross).  Sound
    for state maintenance (aggregates, counts); positions of the output
    rows are not tracked.
    """

    def __init__(self, other_rows: Sequence[BindingTuple],
                 shared: Sequence[str] = ()):
        self.other_rows = list(other_rows)
        self.shared = tuple(shared)

    def _partners(self, row: BindingTuple) -> list[BindingTuple]:
        merged: list[BindingTuple] = []
        for other in self.other_rows:
            if any(
                compare_values(row.get(var, NULL), other.get(var, NULL)) != 0
                for var in self.shared
            ):
                continue
            combined = row.merge(other)
            if combined is not None:
                merged.append(combined)
        return merged

    def apply_delta(self, deltas: Sequence[RowDelta]) -> list[RowDelta]:
        out: list[RowDelta] = []
        for delta in deltas:
            if delta.op == "insert":
                out.extend(
                    RowDelta("insert", row=pair)
                    for pair in self._partners(delta.row)
                )
            elif delta.op == "delete":
                out.extend(
                    RowDelta("delete", before=pair)
                    for pair in self._partners(delta.before)
                )
            else:
                befores = self._partners(delta.before)
                afters = self._partners(delta.row)
                if len(befores) == len(afters):
                    out.extend(
                        RowDelta("update", row=after, before=before)
                        for before, after in zip(befores, afters)
                    )
                else:
                    out.extend(
                        RowDelta("delete", before=pair) for pair in befores
                    )
                    out.extend(
                        RowDelta("insert", row=pair) for pair in afters
                    )
        return out


# -- grouped aggregation with retraction -------------------------------------


class _DeltaGroupState:
    """One group's mergeable slots, a live member count and — for rows
    observed with a base position — ``(position, row)`` in position
    order, so the group's first base row is ``order[0]``."""

    __slots__ = ("slots", "members", "order")

    def __init__(self, n_aggregates: int):
        # count -> int; sum/avg -> [acc, present]; min/max -> [value, True]
        self.slots: list[Any] = [None] * n_aggregates
        self.members = 0
        self.order: list[tuple] = []


def _first_position(state: _DeltaGroupState):
    return state.order[0][0]


class DeltaGroups:
    """Counterpart of GroupBy/Aggregate over one flat construct template.

    ``observe`` folds initial base rows; ``apply_delta`` folds changes
    (retracting before-images, observing after-images); ``finalize``
    renders elements from the maintained states, taking group order and
    representatives from the caller's base rows.  A caller that passes
    every row's base ``position`` (unique, ordered as the base rows are)
    to ``observe``/``retract`` can render with ``finalize_positioned``
    instead, which reads the states alone: a refresh then costs the
    rows that changed and the groups emitted, never the rows held.
    """

    def __init__(self, template: ConstructTemplate):
        if not flat_template(template):
            raise DeltaUnsupported(
                "delta aggregation requires a flat template"
            )
        self.template = template
        self.group_vars = template_group_vars(template)
        self.aggregates = collect_aggregates(template)
        self.groups: dict[tuple, _DeltaGroupState] = {}

    # -- folding ----------------------------------------------------------

    def observe(self, row: BindingTuple, position=None) -> None:
        state = self._state(row, create=True)
        state.members += 1
        if position is not None:
            insort(state.order, (position, row))
        for index, item in enumerate(self.aggregates):
            value = self._value(row, item)
            if value is None:
                continue
            self._fold(state, index, item.kind, value)

    def retract(self, row: BindingTuple, position=None) -> None:
        state = self._state(row, create=False)
        if state is None or state.members <= 0:
            raise DeltaUnsupported("retraction of a row from an unknown group")
        state.members -= 1
        if position is not None:
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
        if state.members == 0:
            del self.groups[group_key(row, self.group_vars)]

    def apply_delta(self, deltas: Sequence[RowDelta]) -> None:
        for delta in deltas:
            if delta.before is not None:
                self.retract(delta.before)
            if delta.row is not None:
                self.observe(delta.row)

    # -- rendering --------------------------------------------------------

    def finalize(self, base_rows: Iterable[BindingTuple]) -> list[Element]:
        """Elements in base-row first-seen group order, values from state.

        Exactly :func:`construct.build_elements`' grouping: the first
        base row of each group is its representative, groups emit in
        first-seen order.
        """
        seen: set[tuple] = set()
        elements: list[Element] = []
        for row in base_rows:
            key = group_key(row, self.group_vars)
            if key in seen:
                continue
            seen.add(key)
            state = self.groups.get(key)
            if state is None:
                raise DeltaUnsupported("group state missing for a base row")
            elements.append(self._element(state, row))
        return elements

    def finalize_positioned(self) -> list[Element]:
        """:meth:`finalize` over the observed rows in position order,
        without the walk: each group's lowest-positioned row represents
        it and the groups emit in the order of those positions."""
        states = list(self.groups.values())
        if not all(len(state.order) == state.members for state in states):
            raise DeltaUnsupported("a row was observed without a position")
        states.sort(key=_first_position)
        return [self._element(state, state.order[0][1]) for state in states]

    def _element(self, state: _DeltaGroupState, row: BindingTuple) -> Element:
        synthetic = {
            f"__agg_{index}": _finish(item.kind, state.slots[index])
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


__all__ = [
    "DeltaCompute",
    "DeltaDistinct",
    "DeltaGroups",
    "DeltaJoin",
    "DeltaProject",
    "DeltaSelect",
    "DeltaUnsupported",
    "RowDelta",
    "_as_inserts",
]

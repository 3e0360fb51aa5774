"""Mergeable partial results: the gather half of scatter-gather.

Shard-local engines each produce a *partial* — binding rows, sorted
rows, top-K representatives, or per-group aggregate states — and the
router folds partials into the exact answer a single engine over the
union of the data would have produced.  Four merge shapes cover the
query surface:

* **union** — plain concatenation in shard-range order (the identity
  merge; exact when data is clustered by the shard key);
* **k-way sorted merge** — shards sort locally, the router streams the
  global order back together with ties broken towards earlier shards
  (reproducing the stable sort over concatenated input);
* **top-K of top-Ks** — each shard ships at most K candidate rows (one
  per group, its local best); any globally top-K group's best row is
  necessarily among its shard's top K, so the merged+deduped stream
  truncated to K is exact;
* **partial aggregates** — per-group states (count; sum; avg as
  sum+count; min/max) built shard-side with exactly the coercion and
  NULL-skipping semantics of :func:`construct.build_elements`, merged
  in shard order so group first-seen order matches the concatenated
  input.  Only the small states cross the wire.

Integer and string aggregates merge bit-identically; float sums merge
associatively, which can differ from the sequential sum in the last
ulp — the classic distributed-aggregation caveat.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.algebra.construct import (
    ConstructTemplate,
    TemplateAggregate,
    TemplateVar,
    _numeric_or_self,
    build_elements,
    group_rows,
    slot_var,
)
from repro.algebra.grouping import _aggregate, non_numeric
from repro.algebra.operators import SortKeys, sort_rows
from repro.algebra.tuples import BindingTuple
from repro.xmldm.nodes import Element
from repro.xmldm.values import (
    NULL,
    Null,
    Record,
    _comparison_key,
    compare_values,
)


def _aggregate_only(template: ConstructTemplate) -> bool:
    """The subtree binds no variables: every group renders it as exactly
    one element whose content is text plus aggregates over the group's
    members (an empty grouping key collapses the members into one
    group), so it never needs more than the aggregate states."""
    if any(isinstance(value, TemplateVar) for _, value in template.attributes):
        return False
    for item in template.children:
        if isinstance(item, TemplateVar):
            return False
        if isinstance(item, ConstructTemplate) and not _aggregate_only(item):
            return False
    return True


def flat_template(template: ConstructTemplate) -> bool:
    """The element depends only on its group representative plus
    aggregate states, so partials can ship representatives instead of
    member rows.  Nested element templates disqualify — except
    variable-free ones (``<total>sum($v)</total>``, the usual parse of
    an aggregate wrapped in its own tag), which render one fixed child
    per group."""
    return all(
        not isinstance(item, ConstructTemplate) or _aggregate_only(item)
        for item in template.children
    )


def collect_aggregates(
    template: ConstructTemplate,
) -> tuple[TemplateAggregate, ...]:
    """Every aggregate in the subtree, in document order — the slot
    numbering :class:`PartialGroups` and :func:`_build_one` share."""
    found: list[TemplateAggregate] = []
    for item in template.children:
        if isinstance(item, TemplateAggregate):
            found.append(item)
        elif isinstance(item, ConstructTemplate):
            found.extend(collect_aggregates(item))
    return tuple(found)


def group_key(row: BindingTuple | Record, group_vars: Sequence[str]) -> tuple:
    return tuple(_comparison_key(row.get(var, NULL)) for var in group_vars)


def compare_rows(keys: SortKeys) -> Callable[[BindingTuple, BindingTuple], int]:
    """A comparator for the order :func:`sort_rows` (and Sort) produce."""

    def compare(a: BindingTuple, b: BindingTuple) -> int:
        for fn, descending in keys:
            result = compare_values(fn(a), fn(b))
            if result != 0:
                return -result if descending else result
        return 0

    return compare


def merge_sorted(
    streams: Sequence[list[BindingTuple]], keys: SortKeys
) -> list[BindingTuple]:
    """K-way streaming merge of per-shard sorted runs.

    Ties break towards the earliest stream, then stream-local order —
    exactly the stable sort's tie-breaking over the concatenation of
    the streams in order.
    """
    compare = compare_rows(keys)
    heads = [0] * len(streams)
    merged: list[BindingTuple] = []
    total = sum(len(stream) for stream in streams)
    while len(merged) < total:
        best = -1
        for index, stream in enumerate(streams):
            position = heads[index]
            if position >= len(stream):
                continue
            if best < 0 or compare(stream[position], streams[best][heads[best]]) < 0:
                best = index
        merged.append(streams[best][heads[best]])
        heads[best] += 1
    return merged


def dedup_rows(
    rows: list[BindingTuple], group_vars: Sequence[str]
) -> list[BindingTuple]:
    """First-seen representative per group key (construct's grouping)."""
    seen: set[tuple] = set()
    kept: list[BindingTuple] = []
    for row in rows:
        key = group_key(row, group_vars)
        if key in seen:
            continue
        seen.add(key)
        kept.append(row)
    return kept


def topk_rows(
    rows: list[BindingTuple],
    keys: SortKeys,
    count: int,
    group_vars: Sequence[str],
) -> list[BindingTuple]:
    """A shard's top-K candidate rows: local best row per group, best K
    groups only.  Sound because a globally top-K group beats fewer than
    K groups everywhere, its own shard included."""
    return dedup_rows(sort_rows(rows, keys), group_vars)[:count]


# -- partial aggregation -----------------------------------------------------


class _GroupState:
    """Per-group mergeable accumulators, one slot per template aggregate."""

    __slots__ = ("representative", "slots")

    def __init__(self, representative: BindingTuple, n_aggregates: int):
        self.representative = representative
        # count -> int; sum/avg -> [acc, present]; min/max -> [value, seen?]
        self.slots: list[Any] = [None] * n_aggregates


class PartialGroups:
    """Mergeable partial-aggregation state for one flat template.

    ``observe`` folds rows in shard-local order; ``merge`` folds whole
    shard partials in shard order, preserving group first-seen order
    across the concatenated input; ``finalize`` emits the exact
    elements :func:`construct.build_elements` would build over the full
    row stream.
    """

    def __init__(self, template: ConstructTemplate):
        if not flat_template(template):
            raise ValueError("partial aggregation requires a flat template")
        self.template = template
        self.group_vars = template.group_vars
        self.aggregates = collect_aggregates(template)
        self.groups: dict[tuple, _GroupState] = {}

    def observe(self, row: BindingTuple) -> None:
        key = group_key(row, self.group_vars)
        state = self.groups.get(key)
        if state is None:
            state = _GroupState(row, len(self.aggregates))
            self.groups[key] = state
        for index, item in enumerate(self.aggregates):
            value = row.get(item.var, NULL)
            if isinstance(value, Null) or value is None:
                continue
            if item.kind != "count":
                value = _numeric_or_self(value)
                # coercion can't make a value absent, so `present`
                # counts the same rows the row path counts
            self._fold(state, index, item.kind, value, 1)

    def merge(self, other: "PartialGroups") -> None:
        for key, incoming in other.groups.items():
            state = self.groups.get(key)
            if state is None:
                self.groups[key] = incoming
                continue
            for index, item in enumerate(self.aggregates):
                slot = incoming.slots[index]
                if slot is None:
                    continue
                if item.kind == "count":
                    self._fold(state, index, "count", None, slot)
                elif item.kind in ("sum", "avg"):
                    self._fold(state, index, item.kind, slot[0], slot[1])
                else:
                    self._fold(state, index, item.kind, slot[0], 1)

    def _fold(self, state: _GroupState, index: int, kind: str,
              value: Any, count: int) -> None:
        slot = state.slots[index]
        if kind == "count":
            state.slots[index] = (slot or 0) + count
            return
        if kind in ("sum", "avg"):
            if slot is None:
                slot = [0, 0]
                state.slots[index] = slot
            try:
                slot[0] = slot[0] + value
            except TypeError:
                raise non_numeric(kind, value) from None
            slot[1] += count
            return
        if slot is None:
            state.slots[index] = [value, True]
            return
        result = compare_values(value, slot[0])
        if (kind == "min" and result < 0) or (kind == "max" and result > 0):
            slot[0] = value

    def finalize(self) -> list[Element]:
        """Instantiate the template from the merged states."""
        elements: list[Element] = []
        for state in self.groups.values():
            synthetic = {
                slot_var(index): _finish(item.kind, state.slots[index])
                for index, item in enumerate(self.aggregates)
            }
            element = _build_one(self.template, state.representative, synthetic)
            elements.append(element)
        return elements

    def wire_size(self) -> tuple[int, int]:
        """(bytes, values) estimate of the partial crossing the wire."""
        from repro.sources.base import _wire_bytes  # avoids an import cycle

        total_bytes = 0
        total_values = 0
        for state in self.groups.values():
            total_bytes += 24  # per-group framing
            for var in self.group_vars:
                total_bytes += 8 + len(var) + _wire_bytes(
                    state.representative.get(var, NULL)
                )
                total_values += 1
            for slot in state.slots:
                total_bytes += 16
                total_values += 1
        return total_bytes, total_values


def _finish(kind: str, slot: Any) -> Any:
    if kind == "count":
        return slot or 0
    if slot is None:
        return NULL
    if kind == "sum":
        return slot[0]
    if kind == "avg":
        return slot[0] / slot[1]
    return slot[0]


def _build_one(
    template: ConstructTemplate,
    representative: BindingTuple,
    finished_aggregates: dict[str, Any],
) -> Element:
    """Build one element from a representative plus finished aggregates.

    Runs the builder of the template's slot form, where each aggregate
    item reads its finished value from a slot variable, on the single
    representative row — one code path for rendering, so text coercion
    and NULL handling can never drift from the row engine.
    """
    bindings = representative.as_dict()
    bindings.update(finished_aggregates)
    return build_elements(template.slot_template, [BindingTuple(bindings)])[0]


def slot_form(
    template: ConstructTemplate,
) -> tuple[ConstructTemplate, tuple[tuple[str, str, str], ...]]:
    """What construction from finished per-group aggregates needs: the
    template reading each aggregate from its slot variable, and the
    ``(kind, var, slot variable)`` of every aggregate in slot order.
    Rows binding the grouping variables and the slot variables — shard
    partials here, a source's ``GROUP BY`` result in the planner — build
    the elements the original template builds over the member rows."""
    slots = tuple(
        (item.kind, item.var, slot_var(index))
        for index, item in enumerate(collect_aggregates(template))
    )
    return template.slot_template, slots


def group_records(
    records: Sequence[Record],
    group_vars: Sequence[str],
    aggregates: Sequence[tuple[str, str, str]],
) -> list[Record]:
    """The result of a source-side grouping, computed here from the
    ungrouped ``records`` with :func:`build_elements`' own semantics:
    groups in first-appearance order carrying their first record's
    grouping values, each ``(kind, var, out_var)`` folded over the
    group's non-NULL values (coerced like template aggregates).  For a
    holder of rows standing in for a source that would have grouped."""
    grouped: list[Record] = []
    for members in group_rows(records, group_vars):
        fields = {var: members[0].get(var) for var in group_vars}
        for kind, var, out_var in aggregates:
            values = [member.get(var) for member in members]
            if kind != "count":
                values = [_numeric_or_self(value) for value in values]
            fields[out_var] = _aggregate(kind, values)
        grouped.append(Record(fields))
    return grouped


def rows_wire_size(rows: list[BindingTuple]) -> tuple[int, int]:
    """(bytes, values) estimate of shipping binding rows wholesale."""
    from repro.sources.base import _wire_bytes  # avoids an import cycle

    total_bytes = 0
    total_values = 0
    for row in rows:
        total_bytes += 24
        for name, value in row.as_dict().items():
            total_bytes += 8 + len(name) + _wire_bytes(value)
            total_values += 1
    return total_bytes, total_values


__all__ = [
    "PartialGroups",
    "compare_rows",
    "dedup_rows",
    "flat_template",
    "group_key",
    "group_records",
    "merge_sorted",
    "rows_wire_size",
    "slot_form",
    "sort_rows",
    "topk_rows",
]

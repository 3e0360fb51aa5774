"""Grouping and aggregation over binding tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.algebra.operators import Operator, ValueFn
from repro.algebra.tuples import BindingTuple
from repro.errors import ExecutionError
from repro.xmldm.values import NULL, Collection, Null, _comparison_key


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: bind ``out_var`` to ``kind`` over ``value_fn``.

    ``kind`` is one of count/sum/avg/min/max; NULL inputs are skipped
    (count counts non-NULL inputs; use value_fn=None to count tuples).
    """

    out_var: str
    kind: str
    value_fn: ValueFn | None = None

    _KINDS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown aggregate kind {self.kind!r}")


def non_numeric(kind: str, value: Any) -> ExecutionError:
    """What ``sum``/``avg`` raise over an operand that is not a number."""
    return ExecutionError(f"{kind} over a non-numeric value: {value!r}")


def _total(kind: str, present: list[Any]) -> Any:
    try:
        return sum(present)
    except TypeError:
        culprit = next(v for v in present if not isinstance(v, (int, float)))
        raise non_numeric(kind, culprit) from None


def _aggregate(kind: str, values: list[Any]) -> Any:
    present = [v for v in values if not isinstance(v, Null) and v is not None]
    if kind == "count":
        return len(present)
    if not present:
        return NULL
    if kind == "sum":
        return _total(kind, present)
    if kind == "avg":
        return _total(kind, present) / len(present)
    if kind == "min":
        return min(present, key=_comparison_key)
    return max(present, key=_comparison_key)


class GroupBy(Operator):
    """Group tuples by variables; optionally nest each group.

    Output: one tuple per distinct combination of ``group_vars`` carrying
    those variables, each aggregate in ``aggregates``, and — when
    ``collect_var`` is set — a :class:`Collection` of the group's member
    tuples projected to ``collect_fields`` (as Records).  The nesting
    form is what Construct uses for grouped element building.
    """

    def __init__(
        self,
        child: Operator,
        group_vars: list[str] | tuple[str, ...],
        aggregates: list[AggregateSpec] | tuple[AggregateSpec, ...] = (),
        collect_var: str | None = None,
        collect_fields: tuple[str, ...] = (),
    ):
        super().__init__(child)
        self.group_vars = tuple(group_vars)
        self.aggregates = tuple(aggregates)
        self.collect_var = collect_var
        self.collect_fields = tuple(collect_fields)

    def _produce(self) -> Iterator[BindingTuple]:
        groups: dict[tuple, list[BindingTuple]] = {}
        order: list[tuple] = []
        for row in self.children[0]:
            key = tuple(
                _comparison_key(row.get(var, NULL)) for var in self.group_vars
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        for key in order:
            members = groups[key]
            representative = members[0]
            out = representative.project(self.group_vars)
            for spec in self.aggregates:
                values = (
                    [1 for _ in members]
                    if spec.value_fn is None
                    else [spec.value_fn(row) for row in members]
                )
                if spec.value_fn is None and spec.kind == "count":
                    result: Any = len(members)
                else:
                    result = _aggregate(spec.kind, values)
                extended = out.extend(spec.out_var, result)
                assert extended is not None
                out = extended
            if self.collect_var is not None:
                from repro.xmldm.values import Record

                collected = Collection(
                    Record(
                        {
                            field: member.get(field, NULL)
                            for field in (self.collect_fields or member.variables)
                        }
                    )
                    for member in members
                )
                extended = out.extend(self.collect_var, collected)
                assert extended is not None
                out = extended
            yield out

    def describe(self) -> str:
        parts = [", ".join("$" + v for v in self.group_vars)]
        if self.aggregates:
            parts.append("aggs=" + ",".join(s.kind for s in self.aggregates))
        if self.collect_var:
            parts.append(f"nest->${self.collect_var}")
        return f"GroupBy({'; '.join(parts)})"


class Aggregate(Operator):
    """Global aggregation: one output tuple over the whole input."""

    def __init__(self, child: Operator, aggregates: list[AggregateSpec] | tuple[AggregateSpec, ...]):
        super().__init__(child)
        self.aggregates = tuple(aggregates)

    def _produce(self) -> Iterator[BindingTuple]:
        members = list(self.children[0])
        out = BindingTuple()
        for spec in self.aggregates:
            if spec.value_fn is None and spec.kind == "count":
                result: Any = len(members)
            else:
                values = (
                    [1 for _ in members]
                    if spec.value_fn is None
                    else [spec.value_fn(row) for row in members]
                )
                result = _aggregate(spec.kind, values)
            extended = out.extend(spec.out_var, result)
            assert extended is not None
            out = extended
        yield out

    def describe(self) -> str:
        return f"Aggregate({','.join(s.kind for s in self.aggregates)})"

"""Aggregate folding shared by grouped construction and shard merges."""

from __future__ import annotations

from typing import Any

from repro.errors import ExecutionError
from repro.xmldm.values import NULL, Null, _comparison_key


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

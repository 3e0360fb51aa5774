"""Scalar and aggregate functions for the SQL engine."""

from __future__ import annotations

import datetime
import operator
from typing import Any, Callable

from repro.errors import ExecutionError, SQLError

# -- scalar functions ---------------------------------------------------------


def _upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


def _lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


def _length(value: Any) -> Any:
    return None if value is None else len(str(value))


def _trim(value: Any) -> Any:
    return None if value is None else str(value).strip()


def _substr(value: Any, start: Any, length: Any = None) -> Any:
    if value is None or start is None:
        return None
    text = str(value)
    begin = max(int(start) - 1, 0)  # SQL SUBSTR is 1-based
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]

def _abs(value: Any) -> Any:
    return None if value is None else abs(value)


def _round(value: Any, digits: Any = 0) -> Any:
    if value is None:
        return None
    return round(value, int(digits or 0))


def _coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def _nullif(a: Any, b: Any) -> Any:
    return None if a == b else a


def _replace(value: Any, old: Any, new: Any) -> Any:
    if value is None or old is None or new is None:
        return None
    return str(value).replace(str(old), str(new))


def _date(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "UPPER": _upper,
    "LOWER": _lower,
    "LENGTH": _length,
    "TRIM": _trim,
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "ABS": _abs,
    "ROUND": _round,
    "COALESCE": _coalesce,
    "NULLIF": _nullif,
    "REPLACE": _replace,
    "DATE": _date,
}

# -- aggregates ----------------------------------------------------------------

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Aggregator:
    """Accumulates one aggregate over the rows of a group.

    SQL semantics: NULL inputs are skipped by every aggregate — the
    caller never passes one to :meth:`add`; ``COUNT(*)`` is fed once per
    row; SUM/AVG/MIN/MAX over no (non-NULL) inputs yield NULL while
    COUNT yields 0.  One subclass per kind, so ``add`` does that kind's
    work and nothing else.
    """

    __slots__ = ()

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _Count(Aggregator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class _Sum(Aggregator):
    """Keeps the inputs and folds them with the built-in ``sum`` — the
    fold the mediator's own grouping uses, so a sum computed here and
    one computed there over the same rows agree to the last bit on
    every Python (``sum`` compensates float addition from 3.12 on, a
    running ``+=`` never does)."""

    __slots__ = ("values", "add")
    name = "SUM"

    def __init__(self) -> None:
        self.values: list[Any] = []
        self.add = self.values.append

    def total(self) -> Any:
        try:
            return sum(self.values)
        except TypeError:
            culprit = next(
                value for value in self.values
                if not isinstance(value, (int, float))
            )
            raise ExecutionError(
                f"{self.name} over a non-numeric value: {culprit!r}"
            ) from None

    def result(self) -> Any:
        return self.total() if self.values else None


class _Avg(_Sum):
    __slots__ = ()
    name = "AVG"

    def result(self) -> Any:
        return self.total() / len(self.values) if self.values else None


class _Min(Aggregator):
    __slots__ = ("best",)
    name = "MIN"

    beats = staticmethod(operator.lt)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        best = self.best
        try:
            if best is None or self.beats(value, best):
                self.best = value
        except TypeError:
            raise ExecutionError(
                f"{self.name} cannot compare {value!r} with {best!r}"
            ) from None

    def result(self) -> Any:
        return self.best


class _Max(_Min):
    __slots__ = ()
    name = "MAX"
    beats = staticmethod(operator.gt)


class _Distinct(Aggregator):
    """Feeds each distinct input to the wrapped aggregator once."""

    __slots__ = ("seen", "inner")

    def __init__(self, inner: Aggregator) -> None:
        self.seen: set[Any] = set()
        self.inner = inner

    def add(self, value: Any) -> None:
        if value not in self.seen:
            self.seen.add(value)
            self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_AGGREGATORS = {"COUNT": _Count, "SUM": _Sum, "AVG": _Avg,
                "MIN": _Min, "MAX": _Max}


def make_aggregator(name: str, distinct: bool, star: bool) -> Aggregator:
    """A fresh accumulator for one aggregate call in one group."""
    kind = _AGGREGATORS.get(name)
    if kind is None:
        raise SQLError(f"unknown aggregate {name!r}")
    if star:
        return _Count()  # COUNT(*) counts rows, DISTINCT or not
    return _Distinct(kind()) if distinct else kind()


def is_aggregate_call(name: str) -> bool:
    return name in AGGREGATE_NAMES

"""Structured values: the "slightly more structured than XML" layer.

Atomic values are plain Python objects (``str``, ``int``, ``float``,
``bool``, ``datetime.date``/``datetime.datetime`` and the :data:`NULL`
sentinel).  On top of those this module defines :class:`Record` — an
ordered mapping of field names to values, the natural image of a
relational row — and :class:`Collection` — a homogeneous ordered sequence,
the natural image of a relational table or of a repeated XML element.

Keeping atomics unboxed keeps the physical algebra fast; keeping Record
and Collection as first-class model values lets relational sources flow
through the engine without being wrapped in element trees first (the
design point section 3.1 of the paper insists on).
"""

from __future__ import annotations

import datetime
from typing import Any, Iterable, Iterator, Mapping


class Null:
    """Singleton marker for missing data (SQL NULL / absent XML content).

    ``NULL`` is falsy, equal only to itself, and sorts before every other
    value under :func:`compare_values`.
    """

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL"

    def __hash__(self) -> int:
        return hash("repro.NULL")


NULL = Null()

ATOMIC_TYPES = (str, int, float, bool, datetime.date, datetime.datetime, Null)


class Record:
    """An ordered, immutable mapping of field names to model values.

    Records compare by content and hash by content, so they can key hash
    joins and group keys.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, Any] | Iterable[tuple[str, Any]] = ()):
        if isinstance(fields, Mapping):
            items = tuple(fields.items())
        else:
            items = tuple(fields)
        self._fields: dict[str, Any] = dict(items)
        if len(self._fields) != len(items):
            raise ValueError("duplicate field names in Record")

    @classmethod
    def adopt(cls, fields: dict[str, Any]) -> "Record":
        """Wrap ``fields`` without copying it.

        The caller hands the dict over and must not mutate it afterwards;
        a dict's names are unique by construction.  Bulk producers (the
        XML wrapper's shredded path) use it to skip the defensive copy.
        """
        record = cls.__new__(cls)
        record._fields = fields
        return record

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._fields)

    @property
    def field_map(self) -> Mapping[str, Any]:
        """The underlying name->value mapping, zero-copy.

        Callers must treat it as read-only; it exists so bulk consumers
        (column statistics) can skip the per-record dict copy that
        :meth:`as_dict` makes.
        """
        return self._fields

    def get(self, name: str, default: Any = NULL) -> Any:
        return self._fields.get(name, default)

    def with_field(self, name: str, value: Any) -> "Record":
        """Return a new record with ``name`` set (added or replaced)."""
        fields = dict(self._fields)
        fields[name] = value
        return Record(fields)

    def without_field(self, name: str) -> "Record":
        """Return a new record with ``name`` removed (if present)."""
        fields = {k: v for k, v in self._fields.items() if k != name}
        return Record(fields)

    def project(self, names: Iterable[str]) -> "Record":
        """Return a new record keeping only ``names`` (missing -> NULL)."""
        return Record({name: self._fields.get(name, NULL) for name in names})

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(self._fields.items())

    def as_dict(self) -> dict[str, Any]:
        return dict(self._fields)

    def __getitem__(self, name: str) -> Any:
        return self._fields[name]

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._fields.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"Record({inner})"


class Collection:
    """An ordered sequence of model values, usually homogeneous records.

    A Collection is the model image of a relational table, of a repeated
    element, or of a query result.  ``record_type`` (see
    :mod:`repro.xmldm.schema`) is optional metadata; untyped collections
    are perfectly legal, as befits semi-structured data.
    """

    __slots__ = ("_items", "record_type")

    def __init__(self, items: Iterable[Any] = (), record_type: Any = None):
        self._items: list[Any] = list(items)
        self.record_type = record_type

    def append(self, item: Any) -> None:
        self._items.append(item)

    def extend(self, items: Iterable[Any]) -> None:
        self._items.extend(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"Collection({self._items!r})"


_TYPE_ORDER = {
    "null": 0,
    "boolean": 1,
    "number": 2,
    "string": 3,
    "date": 4,
    "datetime": 4,
    "record": 5,
    "collection": 6,
    "node": 7,
}


def typename(value: Any) -> str:
    """Return the model type name of ``value``.

    >>> typename(3)
    'number'
    >>> typename(NULL)
    'null'
    """
    if isinstance(value, Null) or value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, datetime.datetime):
        return "datetime"
    if isinstance(value, datetime.date):
        return "date"
    if isinstance(value, Record):
        return "record"
    if isinstance(value, Collection):
        return "collection"
    # Element/Text live in nodes.py; avoid a circular import by duck-typing.
    if hasattr(value, "document_order"):
        return "node"
    raise TypeError(f"not a model value: {value!r}")


_NUMBER_RANK = _TYPE_ORDER["number"]
_STRING_RANK = _TYPE_ORDER["string"]


def _comparison_key(value: Any) -> tuple:
    """The value's place in the model's total order, as a tuple that
    native comparison, hashing and sorting use directly: grouping, hash
    joins and sorts all key on it.  Plain strings and numbers (the bulk
    of any row) skip the :func:`typename` ladder; ``bool`` and
    subclasses take it, so ``True`` keys apart from ``1``."""
    cls = type(value)
    if cls is str:
        return (_STRING_RANK, value)
    if cls is int or cls is float:
        return (_NUMBER_RANK, float(value))
    kind = typename(value)
    rank = _TYPE_ORDER[kind]
    if kind == "null":
        return (rank, 0)
    if kind == "boolean":
        return (rank, int(value))
    if kind == "number":
        return (rank, float(value))
    if kind == "string":
        return (rank, value)
    if kind in ("date", "datetime"):
        if isinstance(value, datetime.datetime):
            return (rank, value.isoformat())
        return (rank, datetime.datetime.combine(value, datetime.time()).isoformat())
    if kind == "record":
        return (rank, tuple((k, _comparison_key(v)) for k, v in sorted(value.items())))
    if kind == "collection":
        return (rank, tuple(_comparison_key(v) for v in value))
    return (rank, value.document_order)


def compare_values(a: Any, b: Any) -> int:
    """Total order over all model values; returns -1, 0 or 1.

    Values of the same type compare naturally; values of different types
    compare by a fixed type rank (null < boolean < number < string < date
    < record < collection < node).  Having a *total* order keeps Sort and
    grouping deterministic over heterogeneous semi-structured data.
    """
    ka, kb = _comparison_key(a), _comparison_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def values_equal(a: Any, b: Any) -> bool:
    """Model equality: NULL equals only NULL; 1 == 1.0; no string coercion."""
    return compare_values(a, b) == 0


def is_atomic(value: Any) -> bool:
    """True for null, boolean, number, string, date and datetime values."""
    return typename(value) in ("null", "boolean", "number", "string", "date", "datetime")


def atomize(value: Any) -> Any:
    """Reduce ``value`` to an atomic for predicate evaluation.

    Element and Text nodes atomize to their text content, records of one
    field to that field, collections of one item to that item.  Anything
    already atomic passes through.
    """
    kind = typename(value)
    if kind == "node":
        return value.text_content()
    if kind == "record" and len(value) == 1:
        return atomize(value[next(iter(value))])
    if kind == "collection" and len(value) == 1:
        return atomize(value[0])
    return value

"""Column statistics gathered at the source boundary.

A fragment scan that fetched a relation whole hands its records to
:func:`shred_records`, which transposes them into one value list per
field and lets a :class:`TableStats` observe each column.  The cost
model prices predicates from what was observed and the shard router
skips shards whose observed bounds contradict a query.

Source records are heterogeneous — a field may be absent from some of
them — so columns use the :data:`MISSING` sentinel for "no such field".
``MISSING`` is distinct from the model's NULL: NULL is a value a record
holds and is counted as one, MISSING is padding and is never observed.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.xmldm.values import Null, _comparison_key


class _Missing:
    """Sentinel for "field absent in this record" (not the same as NULL)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _Missing()


def shred_records(
    records: Sequence[Any], stats: TableStats
) -> dict[str, list[Any]]:
    """Transpose one fetched record list into per-field columns and
    let ``stats`` observe them.

    Every column is as long as ``records``; a record lacking a field
    (legal in semi-structured data) leaves MISSING at its position.
    """
    length = len(records)
    columns: dict[str, list[Any]] | None = None
    if length and getattr(records[0], "field_map", None) is not None:
        # homogeneous fast path: when every record holds the same field
        # set (the overwhelmingly common source-result shape), each
        # column is one C-speed comprehension over the raw field maps
        maps = [record.field_map for record in records]
        names = list(maps[0])
        width = len(names)
        if all(len(field_map) == width for field_map in maps):
            try:
                columns = {
                    name: [field_map[name] for field_map in maps]
                    for name in names
                }
            except KeyError:
                pass  # same width, different names: heterogeneous after all
    if columns is None:
        columns = {}
        for position, record in enumerate(records):
            for name, value in record.items():
                column = columns.get(name)
                if column is None:
                    column = [MISSING] * length
                    columns[name] = column
                column[position] = value
    stats.observe_columns(columns)
    return columns


class ColumnStats:
    """Observed min/max/distinct-count/null-count of one column.

    Fed by :func:`shred_records`; consumed by the cost model
    (selectivity from real value distributions instead of folklore
    constants) and the shard router (skip a shard whose observed key
    bounds contradict the query's predicates).  Bounds and distinct
    counts only ever widen, so re-observing the same rows is idempotent
    and observing more rows stays sound.
    """

    __slots__ = ("rows", "nulls", "minimum", "maximum",
                 "_min_key", "_max_key", "_distinct")

    def __init__(self):
        self.rows = 0
        self.nulls = 0
        self.minimum: Any = None
        self.maximum: Any = None
        self._min_key: tuple | None = None
        self._max_key: tuple | None = None
        self._distinct: set = set()

    def observe(self, value: Any) -> None:
        self.rows += 1
        if isinstance(value, Null) or value is None:
            self.nulls += 1
            return
        key = _comparison_key(value)
        self._distinct.add(key)
        if self._min_key is None or key < self._min_key:
            self.minimum, self._min_key = value, key
        if self._max_key is None or key > self._max_key:
            self.maximum, self._max_key = value, key

    @property
    def distinct(self) -> int:
        return len(self._distinct)

    def bounds(self) -> tuple[Any, Any] | None:
        """Closed [minimum, maximum] over non-null values, or None."""
        if self.minimum is None:
            return None
        return self.minimum, self.maximum

    def selectivity(self, op: str, literal: Any) -> float | None:
        """Estimated fraction of rows satisfying ``column OP literal``.

        Equality uses the uniform-distinct model (1/NDV); ranges use the
        linear-interpolation model over numeric [min, max].  None means
        the statistics cannot price this predicate (empty column,
        non-numeric range, literal of another family) — callers fall
        back to their folklore constants.
        """
        if self.rows == 0 or self.minimum is None:
            return None
        if op in ("=", "!="):
            fraction = 1.0 / max(self.distinct, 1)
            return fraction if op == "=" else 1.0 - fraction
        if op not in ("<", "<=", ">", ">="):
            return None
        if not isinstance(literal, (int, float)) or isinstance(literal, bool):
            return None
        if not isinstance(self.minimum, (int, float)):
            return None
        low, high = float(self.minimum), float(self.maximum)
        if literal <= low:
            below = 0.0
        elif literal >= high:
            below = 1.0
        else:
            below = (float(literal) - low) / (high - low)
        if op in ("<", "<="):
            return max(below, 1.0 / max(self.rows, 1))
        return max(1.0 - below, 1.0 / max(self.rows, 1))


class TableStats:
    """Per-column statistics of one fragment access shape."""

    __slots__ = ("columns",)

    def __init__(self):
        self.columns: dict[str, ColumnStats] = {}

    def observe_columns(self, columns: dict[str, list[Any]]) -> None:
        for name, values in columns.items():
            column = self.columns.get(name)
            if column is None:
                column = ColumnStats()
                self.columns[name] = column
            for value in values:
                if value is not MISSING:
                    column.observe(value)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


class ColumnStatsRepository:
    """All statistics one engine has gathered, keyed by access shape.

    The key is :func:`repro.materialize.matching.access_key` — accesses
    only, conditions excluded — computed by the caller so this module
    stays free of planner imports.
    """

    __slots__ = ("tables",)

    def __init__(self):
        self.tables: dict[str, TableStats] = {}

    def table(self, key: str) -> TableStats:
        stats = self.tables.get(key)
        if stats is None:
            stats = TableStats()
            self.tables[key] = stats
        return stats

    def column(self, key: str, name: str) -> ColumnStats | None:
        stats = self.tables.get(key)
        return stats.column(name) if stats is not None else None

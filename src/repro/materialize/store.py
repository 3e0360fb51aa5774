"""The local store of materialized fragment results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cdc.scope import (
    EXCLUDED,
    PATCHED,
    RETAINED,
    KeyedRecords,
    apply_to_fragment,
)
from repro.errors import MaterializationError
from repro.materialize.matching import fragment_key
from repro.materialize.policy import RefreshPolicy
from repro.sources.base import Fragment
from repro.xmldm.values import Record


@dataclass
class MaterializedView:
    """One materialized fragment: definition, rows, freshness state."""

    fragment: Fragment
    records: KeyedRecords  # a plain list is wrapped
    loaded_at: float
    policy: RefreshPolicy
    invalidated: bool = False
    hits: int = 0
    refreshes: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.records, KeyedRecords):
            self.records = KeyedRecords(self.records)

    @property
    def key(self) -> str:
        return fragment_key(self.fragment)

    @property
    def row_count(self) -> int:
        return len(self.records)

    def is_fresh(self, now_ms: float) -> bool:
        return self.policy.is_fresh(now_ms - self.loaded_at, self.invalidated)

    def reload(self, records: list[Record], now_ms: float) -> None:
        self.records = KeyedRecords(records)
        self.loaded_at = now_ms
        self.invalidated = False
        self.refreshes += 1


class LocalStore:
    """Holds materialized views under an optional row budget."""

    def __init__(self, budget_rows: int | None = None):
        self.budget_rows = budget_rows
        self._views: dict[str, MaterializedView] = {}

    def add(self, view: MaterializedView) -> MaterializedView:
        key = view.key
        if key in self._views:
            raise MaterializationError(f"fragment already materialized: {key}")
        if self.budget_rows is not None:
            if self.total_rows + view.row_count > self.budget_rows:
                raise MaterializationError(
                    f"storage budget exceeded: {self.total_rows} + "
                    f"{view.row_count} > {self.budget_rows} rows"
                )
        self._views[key] = view
        return view

    def remove(self, key: str) -> None:
        if key not in self._views:
            raise MaterializationError(f"no materialized view {key!r}")
        del self._views[key]

    def get(self, key: str) -> MaterializedView | None:
        return self._views.get(key)

    def clear(self) -> None:
        self._views.clear()

    def invalidate_source(self, source_name: str) -> int:
        """Mark every view over a source stale (data changed upstream)."""
        count = 0
        for view in self._views.values():
            if view.fragment.source == source_name:
                view.invalidated = True
                count += 1
        return count

    def apply_change(self, change, key_field: str | None,
                     now_ms: float) -> tuple[int, int, int]:
        """Scoped invalidation over materialized fragments.

        The same per-fragment decision as the fragment cache's
        (:func:`repro.cdc.scope.apply_to_fragment`) — retain when the change
        provably misses the fragment, patch the records in place when
        the shape allows, otherwise mark the view invalidated (its next
        serve falls through to the source).  A view already invalidated
        stays so, and unpatched, until :meth:`MaterializedView.reload`:
        its records miss whatever invalidated it, and a later patch
        cannot bring that back.
        Returns ``(patched, invalidated, retained)``.
        """
        patched = invalidated = retained = 0
        for view in self._views.values():
            if view.fragment.source != change.source:
                continue
            decision = apply_to_fragment(
                view.fragment, None if view.invalidated else view.records,
                change, key_field,
            ).decision
            if decision in (RETAINED, EXCLUDED):
                retained += 1
            elif decision == PATCHED:
                view.loaded_at = now_ms
                patched += 1
            else:
                view.invalidated = True
                invalidated += 1
        return patched, invalidated, retained

    @property
    def total_rows(self) -> int:
        return sum(view.row_count for view in self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[MaterializedView]:
        return iter(self._views.values())

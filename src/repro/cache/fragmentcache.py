"""The byte-budgeted LRU store of fragment results.

Sits between the execution context and the sources: every successful
remote fragment execution is inserted; later identical executions are
served locally, charging :meth:`CostModel.local_cost` instead of network
latency.  Three mechanisms bound staleness and size:

* **TTL** — each entry carries a :class:`RefreshPolicy` (per-source
  override, engine-wide default) evaluated on the virtual clock;
* **epoch invalidation** — entries remember the catalog version epoch
  they were loaded under and die when it moves (same mechanism as the
  compiled-plan cache);
* **byte budget** — entry sizes are estimated deterministically and the
  least-recently-used entries are evicted once the budget is exceeded.

**Containment serving**: a requested fragment that equals a cached
fragment plus extra pushed conditions (same accesses, conditions
subsumed per :func:`repro.materialize.matching.matches`) is answered by
filtering the cached rows locally with the residual predicates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.algebra.tuples import BindingTuple
from repro.cache.keys import result_key
from repro.cdc.scope import (
    EXCLUDED,
    PATCHED,
    KeyedRecords,
    apply_to_fragment,
)
from repro.materialize.matching import access_key, matches, project_records
from repro.materialize.policy import RefreshPolicy
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.optimizer.costs import CostModel
from repro.query.exprs import compile_predicate
from repro.simtime import SimClock
from repro.sources.base import Fragment
from repro.xmldm.values import Null, Record


def _value_bytes(value: Any) -> int:
    """Deterministic size estimate of one model value (bytes)."""
    if isinstance(value, str):
        return 56 + len(value)
    if isinstance(value, bool):
        return 28
    if isinstance(value, (int, float)):
        return 32
    if isinstance(value, Null):
        return 16
    if isinstance(value, Record):
        return record_bytes(value)
    if isinstance(value, (list, tuple)):
        return 56 + sum(_value_bytes(item) for item in value)
    return 56 + len(str(value))


def record_bytes(record: Record) -> int:
    """Deterministic size estimate of one record (bytes)."""
    return 64 + sum(
        56 + len(name) + _value_bytes(record.get(name))
        for name in record.fields
    )


def estimate_result_bytes(records: list[Record]) -> int:
    """Size estimate of a whole result (entry overhead included)."""
    return 96 + sum(record_bytes(record) for record in records)


@dataclass
class CacheEntry:
    """One cached fragment result with its freshness lineage."""

    key: str
    fragment: Fragment
    parameterized: bool
    records: KeyedRecords
    loaded_at: float
    epoch: Any
    policy: RefreshPolicy
    size_bytes: int
    hits: int = 0

    def is_fresh(self, now_ms: float) -> bool:
        return self.policy.is_fresh(now_ms - self.loaded_at, False)


@dataclass
class CachedResult:
    """What a lookup returns: the rows and how they were found."""

    records: list[Record]
    containment: bool = False
    residual_conditions: int = 0
    #: the entry had outlived its TTL and was served anyway (brownout)
    stale: bool = False
    #: virtual-time age of the served entry (now - loaded_at); feeds
    #: the provenance layer's per-origin staleness annotation
    age_ms: float = 0.0


class FragmentResultCache:
    """On-demand cache of fragment results under a byte budget.

    ``policies`` maps source names to :class:`RefreshPolicy` overrides;
    everything else uses ``default_policy``.  ``containment=False``
    restricts serving to exact key matches (the ablation knob).
    Serving charges local processing time to the clock via
    ``cost_model.local_cost`` — never network latency.
    """

    def __init__(
        self,
        clock: SimClock,
        cost_model: CostModel | None = None,
        max_bytes: int = 4_000_000,
        default_policy: RefreshPolicy | None = None,
        policies: Mapping[str, RefreshPolicy] | None = None,
        containment: bool = True,
        keep_expired: bool = False,
        scope: str = "",
    ):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.clock = clock
        #: key namespace prefix: shard-local engines run over sources
        #: whose *names* coincide across shards, so each shard's cache
        #: scopes its keys to keep fragment identities disjoint
        self.scope = scope
        self.cost_model = cost_model or CostModel()
        self.max_bytes = max_bytes
        self.default_policy = default_policy or RefreshPolicy.ttl(60_000.0)
        self.policies = dict(policies or {})
        self.containment = containment
        #: keep TTL-expired entries resident (LRU/epoch still evict) so
        #: :meth:`lookup_stale` can serve them as degraded reads; off by
        #: default — expired entries are dropped the moment a lookup
        #: touches them
        self.keep_expired = keep_expired
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: access_key -> entry keys, for containment scans (param-less only)
        self._by_access: dict[str, list[str]] = {}
        #: (source, relation) -> entry keys reading it, for change scoping
        self._by_relation: dict[tuple[str, str], dict[str, None]] = {}
        #: source -> live entry count
        self._source_entries: dict[str, int] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.containment_hits = 0
        self.evictions = 0
        self.insertions = 0
        self.oversize_rejects = 0
        self.stale_hits = 0
        #: set by the owning engine's ``use_tracer``; lookup outcomes
        #: land as events on the enclosing fetch span
        self.tracer: Tracer = NULL_TRACER

    # -- keys ----------------------------------------------------------------

    def _key(self, fragment: Fragment,
             params: Mapping[str, Any] | None = None) -> str:
        key = result_key(fragment, params)
        return f"{self.scope}::{key}" if self.scope else key

    def _akey(self, fragment: Fragment) -> str:
        key = access_key(fragment)
        return f"{self.scope}::{key}" if self.scope else key

    # -- serving -------------------------------------------------------------

    def lookup(
        self,
        fragment: Fragment,
        params: Mapping[str, Any] | None,
        epoch: Any,
    ) -> CachedResult | None:
        """Serve ``fragment`` from the cache, or None on miss.

        Exact key first; then, for parameter-free fragments, a
        containment scan over entries with the same accesses.
        """
        key = self._key(fragment, params)
        entry = self._entries.get(key)
        if entry is not None:
            if not self._live(entry, epoch):
                if entry.epoch != epoch or not self.keep_expired:
                    self._drop(key)
            else:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.hits += 1
                self._charge_local(len(entry.records))
                self.tracer.event("cache_hit", source=fragment.source,
                                  rows=len(entry.records))
                return CachedResult(
                    list(entry.records),
                    age_ms=self.clock.now - entry.loaded_at,
                )
        if self.containment and not params and not fragment.input_vars:
            served = self._serve_by_containment(fragment, epoch)
            if served is not None:
                return served
        self.misses += 1
        self.tracer.event("cache_miss", source=fragment.source)
        return None

    def lookup_stale(
        self,
        fragment: Fragment,
        params: Mapping[str, Any] | None,
        epoch: Any,
    ) -> CachedResult | None:
        """Serve an *expired* exact entry (brownout serve-stale rung).

        The normal :meth:`lookup` runs first and has already counted its
        miss; this second chance ignores the TTL — only the catalog
        epoch still invalidates (a schema change makes old rows wrong,
        not merely old).  Hits count in ``stale_hits``, never in
        ``hits``/``misses``, so cache-efficiency accounting is
        undisturbed by brownout serving.
        """
        key = self._key(fragment, params)
        entry = self._entries.get(key)
        if entry is None or entry.epoch != epoch:
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stale_hits += 1
        self._charge_local(len(entry.records))
        self.tracer.event("cache_stale_serve", source=fragment.source,
                          rows=len(entry.records))
        return CachedResult(list(entry.records),
                            stale=not entry.is_fresh(self.clock.now),
                            age_ms=self.clock.now - entry.loaded_at)

    def _serve_by_containment(
        self, fragment: Fragment, epoch: Any
    ) -> CachedResult | None:
        for key in list(self._by_access.get(self._akey(fragment), ())):
            entry = self._entries.get(key)
            if entry is None:
                continue
            if not self._live(entry, epoch):
                if entry.epoch != epoch or not self.keep_expired:
                    self._drop(key)
                continue
            answers, residual = matches(entry.fragment, fragment)
            if not answers:
                continue
            records = list(entry.records)
            if residual:
                predicates = [compile_predicate(c) for c in residual]
                records = [
                    record
                    for record in records
                    if all(p(BindingTuple(record.as_dict())) for p in predicates)
                ]
            # a broader entry answering a projected fragment must look
            # exactly like a source-side projection
            records = project_records(records, fragment)
            self._entries.move_to_end(key)
            entry.hits += 1
            self.containment_hits += 1
            self._charge_local(len(records))
            self.tracer.event("containment_serve", source=fragment.source,
                              rows=len(records), residual=len(residual))
            return CachedResult(records, containment=True,
                                residual_conditions=len(residual),
                                age_ms=self.clock.now - entry.loaded_at)
        return None

    def resident_rows(self, fragment: Fragment, epoch: Any) -> int | None:
        """Row count of a fresh exact entry, for cache-aware planning.

        Read-only: does not touch LRU order or hit counters, so cost
        estimation never perturbs eviction behaviour.
        """
        entry = self._entries.get(self._key(fragment))
        if entry is None or not self._live(entry, epoch):
            return None
        return len(entry.records)

    # -- loading -------------------------------------------------------------

    def insert(
        self,
        fragment: Fragment,
        params: Mapping[str, Any] | None,
        records: list[Record],
        epoch: Any,
    ) -> int:
        """Store one execution's result; returns how many entries were
        evicted to make room (0 when the result itself was too large)."""
        size = estimate_result_bytes(records)
        if size > self.max_bytes:
            self.oversize_rejects += 1
            return 0
        key = self._key(fragment, params)
        if key in self._entries:
            self._drop(key)
        entry = CacheEntry(
            key=key,
            fragment=fragment,
            parameterized=bool(params) or bool(fragment.input_vars),
            records=KeyedRecords(list(records)),
            loaded_at=self.clock.now,
            epoch=epoch,
            policy=self.policies.get(fragment.source, self.default_policy),
            size_bytes=size,
        )
        self._entries[key] = entry
        self.current_bytes += size
        self.insertions += 1
        source = fragment.source
        self._source_entries[source] = self._source_entries.get(source, 0) + 1
        for relation in {access.relation for access in fragment.accesses}:
            self._by_relation.setdefault((source, relation), {})[key] = None
        if not entry.parameterized:
            self._by_access.setdefault(self._akey(fragment), []).append(key)
        evicted = 0
        while self.current_bytes > self.max_bytes:
            oldest_key = next(iter(self._entries))
            self._drop(oldest_key)
            evicted += 1
        self.evictions += evicted
        return evicted

    # -- invalidation --------------------------------------------------------

    def invalidate_source(self, source_name: str) -> int:
        """Drop every entry over one source (data changed upstream)."""
        doomed = [
            key for key, entry in self._entries.items()
            if entry.fragment.source == source_name
        ]
        for key in doomed:
            self._drop(key)
        return len(doomed)

    def apply_change(self, change,
                     key_field: str | None) -> tuple[int, int, int]:
        """Scoped invalidation: touch only entries the change can reach.

        Replaces the old epoch-bump story (every write killed every
        entry) with :func:`repro.cdc.scope.apply_to_fragment`'s per-entry
        decision:

        * a different relation, or pushed conditions that provably
          exclude the changed key — **retained**, untouched;
        * a patchable shape — records **patched** in place, sizes and
          ``loaded_at`` refreshed;
        * everything else (resets, parameterized entries, flip-ins) —
          **evicted**.

        Costs the entries over the changed relation and the records of
        the changed key, never the entries' size: sizes move by the
        ``record_bytes`` of what the patch removed and added.  Returns
        ``(patched, evicted, retained)`` entry counts.
        """
        reading = self._by_relation.get((change.source, change.relation), ())
        patched = evicted = 0
        # entries over the source that read other relations only
        retained = self._source_entries.get(change.source, 0) - len(reading)
        for key in list(reading):
            entry = self._entries[key]
            decision, removed, added = apply_to_fragment(
                entry.fragment, entry.records, change, key_field
            )
            if decision == PATCHED:
                grown = (sum(map(record_bytes, added))
                         - sum(map(record_bytes, removed)))
                entry.size_bytes += grown
                self.current_bytes += grown
                entry.loaded_at = self.clock.now
                patched += 1
                self.tracer.event("cache_change_patched",
                                  source=change.source, key=change.key,
                                  rows=len(entry.records))
            elif decision == EXCLUDED:
                retained += 1
                self.tracer.event("cache_change_excluded",
                                  source=change.source, key=change.key)
            else:
                self._drop(key)
                evicted += 1
                self.tracer.event("cache_change_evicted",
                                  source=change.source, key=change.key)
        while self.current_bytes > self.max_bytes and self._entries:
            oldest_key = next(iter(self._entries))
            self._drop(oldest_key)
            self.evictions += 1
        return patched, evicted, retained

    def clear(self) -> None:
        self._entries.clear()
        self._by_access.clear()
        self._by_relation.clear()
        self._source_entries.clear()
        self.current_bytes = 0

    # -- internals -----------------------------------------------------------

    def _live(self, entry: CacheEntry, epoch: Any) -> bool:
        return entry.epoch == epoch and entry.is_fresh(self.clock.now)

    def _drop(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.current_bytes -= entry.size_bytes
        source = entry.fragment.source
        self._source_entries[source] -= 1
        for relation in {a.relation for a in entry.fragment.accesses}:
            readers = self._by_relation[source, relation]
            del readers[key]
            if not readers:
                del self._by_relation[source, relation]
        if not entry.parameterized:
            siblings = self._by_access.get(self._akey(entry.fragment))
            if siblings is not None:
                try:
                    siblings.remove(key)
                except ValueError:
                    pass
                if not siblings:
                    del self._by_access[self._akey(entry.fragment)]

    def _charge_local(self, rows: int) -> None:
        self.clock.advance(self.cost_model.local_cost(rows))

    # -- reporting -----------------------------------------------------------

    def entries_by_source(self) -> dict[str, int]:
        """Live entry counts per source name (monitoring)."""
        return {
            source: count
            for source, count in self._source_entries.items() if count
        }

    def summary(self) -> dict[str, Any]:
        lookups = self.hits + self.containment_hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "budget_bytes": self.max_bytes,
            "hits": self.hits,
            "containment_hits": self.containment_hits,
            "misses": self.misses,
            "hit_rate": (
                (self.hits + self.containment_hits) / lookups if lookups else 0.0
            ),
            "evictions": self.evictions,
            "insertions": self.insertions,
            "oversize_rejects": self.oversize_rejects,
            "stale_hits": self.stale_hits,
        }

    def __len__(self) -> int:
        return len(self._entries)

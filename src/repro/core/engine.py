"""The integration engine: end-to-end XML-QL query service."""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Any

from repro.cache.feedback import StatisticsFeedback
from repro.cache.fragmentcache import FragmentResultCache
from repro.cache.keys import params_key, result_key
from repro.core.partial import Completeness, PartialResultPolicy
from repro.errors import (
    MediationError,
    QueryRejected,
    SourceUnavailableError,
)
from repro.algebra.construct import build_elements
from repro.algebra.merge import group_records
from repro.algebra.tuples import BindingTuple
from repro.algebra.vector import ColumnStatsRepository
from repro.algebra.viewmatch import ViewRows
from repro.materialize.incremental import IncrementalMaterializer
from repro.materialize.manager import MaterializationManager
from repro.materialize.matching import access_key
from repro.materialize.policy import RefreshPolicy
from repro.mediator.catalog import Catalog
from repro.mediator.schema import ViewDef
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import (
    ORIGIN_CACHE,
    ORIGIN_CONTAINMENT,
    ORIGIN_HEDGED,
    ORIGIN_LIVE,
    ORIGIN_MATERIALIZED,
    ORIGIN_REPLICA,
    ORIGIN_SHED,
    ORIGIN_SKIPPED,
    ORIGIN_STALE_CACHE,
    ORIGIN_STALE_MATERIALIZED,
    ORIGIN_VIEW,
    FragmentOrigin,
    Provenance,
    explain_provenance,
    origin_counts,
)
from repro.observability.querylog import QueryLog, query_hash
from repro.observability.slo import SloTracker
from repro.observability.tracing import NULL_TRACER, Span, Tracer, format_trace
from repro.optimizer.costs import CostModel
from repro.optimizer.decomposer import DecomposedQuery, FragmentUnit, decompose
from repro.optimizer.planner import PlanBuilder, independent_fragment_units
from repro.query import ast as qast
from repro.query.binder import bind_query
from repro.query.parser import parse_query
from repro.resilience.admission import Admission, AdmissionController, Priority
from repro.resilience.executor import ResiliencePolicy, ResilientExecutor
from repro.resilience.fallback import FallbackRegistry
from repro.resilience.overload import HedgePolicy, LoadShedder
from repro.simtime import SimClock, TaskGroup, Timeline
from repro.sources.base import DataSource, Fragment, NetworkModel
from repro.xmldm.nodes import Element
from repro.xmldm.values import Record


@dataclass
class EngineStats:
    """Per-query execution accounting."""

    elapsed_virtual_ms: float = 0.0
    elapsed_wall_ms: float = 0.0
    fragments_executed: int = 0
    fragments_from_cache: int = 0
    fragments_skipped: int = 0
    rows_transferred: int = 0
    remote_calls: int = 0
    retries: int = 0
    breaker_trips: int = 0
    stale_served: int = 0
    deadline_misses: int = 0
    plan_cache_hits: int = 0
    parallel_waves: int = 0
    batch_calls: int = 0
    fragment_cache_hits: int = 0
    fragment_cache_misses: int = 0
    fragment_cache_evictions: int = 0
    containment_hits: int = 0
    singleflight_dedups: int = 0
    estimate_feedback_updates: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    fragments_shed: int = 0
    stale_cache_served: int = 0
    bytes_transferred: int = 0
    values_transferred: int = 0
    shards_executed: int = 0
    shards_pruned: int = 0
    shards_stats_skipped: int = 0
    scatter_queries: int = 0
    coordinator_fallbacks: int = 0
    gather_rows: int = 0
    changes_applied: int = 0
    delta_rows_applied: int = 0
    views_delta_refreshed: int = 0
    views_full_rebuilt: int = 0
    cache_entries_patched: int = 0
    cache_entries_evicted: int = 0
    cache_entries_retained: int = 0
    plan_text: str = ""

    #: integer counters folded into a parent query's stats (sub-queries
    #: for views) — the single place the counter list is spelled out
    _COUNTERS = (
        "fragments_executed", "fragments_from_cache", "fragments_skipped",
        "rows_transferred", "remote_calls", "retries", "breaker_trips",
        "stale_served", "deadline_misses", "plan_cache_hits",
    )
    #: counters describing the *shape* of the schedule (waves, batches);
    #: these legitimately vary with fan-out/batch-size while the set
    #: above stays invariant, so they are kept out of ``counters()``
    _SCHEDULE_COUNTERS = ("parallel_waves", "batch_calls")
    #: fragment-result-cache accounting; reported via ``cache_counters()``
    #: and excluded from ``counters()`` because cache residency (warm vs
    #: cold, single-flight vs serial hit) legitimately shifts which of
    #: these fire while results stay identical
    _CACHE_COUNTERS = (
        "fragment_cache_hits", "fragment_cache_misses",
        "fragment_cache_evictions", "containment_hits",
        "singleflight_dedups", "estimate_feedback_updates",
    )
    #: overload-protection accounting (hedging, brownout shedding);
    #: excluded from ``counters()`` because hedging/shedding are load
    #: adaptations — when they are off (the determinism-checked
    #: configuration) every one of these is zero
    _OVERLOAD_COUNTERS = (
        "hedges_launched", "hedges_won", "fragments_shed",
        "stale_cache_served",
    )
    #: per-column transfer volume (estimated payload bytes / field
    #: values moved from sources); excluded from ``counters()`` because
    #: cache residency and projection pushdown legitimately change how
    #: much is transferred while results stay identical
    _TRANSFER_COUNTERS = ("bytes_transferred", "values_transferred")
    #: scatter-gather routing accounting (shards visited, shards pruned
    #: by range or statistics, coordinator fallbacks); excluded from
    #: ``counters()`` because shard count is a deployment choice — the
    #: determinism checks compare sharded against unsharded runs whose
    #: routing counters legitimately differ while results are identical
    _SHARD_COUNTERS = (
        "shards_executed", "shards_pruned", "shards_stats_skipped",
        "scatter_queries", "coordinator_fallbacks", "gather_rows",
    )
    #: change-data-capture accounting (deltas drained into maintained
    #: views, scoped cache invalidation outcomes); excluded from
    #: ``counters()`` because maintenance activity depends on the write
    #: schedule and cache configuration — when CDC is off (the
    #: determinism-checked configuration) every one of these is zero
    _CDC_COUNTERS = (
        "changes_applied", "delta_rows_applied", "views_delta_refreshed",
        "views_full_rebuilt", "cache_entries_patched",
        "cache_entries_evicted", "cache_entries_retained",
    )

    def absorb(self, other: "EngineStats") -> None:
        """Fold a sub-execution's counters into this one."""
        for name in (self._COUNTERS + self._SCHEDULE_COUNTERS
                     + self._CACHE_COUNTERS + self._OVERLOAD_COUNTERS
                     + self._TRANSFER_COUNTERS + self._SHARD_COUNTERS
                     + self._CDC_COUNTERS):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def counters(self) -> dict[str, int]:
        """The integer counters as a dict (determinism checks, reports)."""
        return {name: getattr(self, name) for name in self._COUNTERS}

    def cache_counters(self) -> dict[str, int]:
        """The fragment-cache counters as a dict (cache experiments)."""
        return {name: getattr(self, name) for name in self._CACHE_COUNTERS}

    def overload_counters(self) -> dict[str, int]:
        """The overload-protection counters as a dict (storm experiments)."""
        return {name: getattr(self, name) for name in self._OVERLOAD_COUNTERS}

    def transfer_counters(self) -> dict[str, int]:
        """The per-column transfer counters (projection experiments)."""
        return {name: getattr(self, name) for name in self._TRANSFER_COUNTERS}

    def shard_counters(self) -> dict[str, int]:
        """The scatter-gather routing counters (sharding experiments)."""
        return {name: getattr(self, name) for name in self._SHARD_COUNTERS}

    def cdc_counters(self) -> dict[str, int]:
        """The change-data-capture counters (incremental experiments)."""
        return {name: getattr(self, name) for name in self._CDC_COUNTERS}

    def as_dict(self) -> dict[str, int]:
        """Union of every counter group.

        Key order is the declaration order of the seven tuples — stable
        across runs, so JSON emissions diff cleanly between PRs.
        """
        return {
            name: getattr(self, name)
            for name in self._COUNTERS + self._SCHEDULE_COUNTERS
            + self._CACHE_COUNTERS + self._OVERLOAD_COUNTERS
            + self._TRANSFER_COUNTERS + self._SHARD_COUNTERS
            + self._CDC_COUNTERS
        }


@dataclass
class AnalyzedQuery:
    """What :meth:`NimbleEngine.explain_analyze` returns.

    ``plan_text`` is the annotated physical plan (actual row counts,
    inclusive virtual time, estimated-vs-actual cardinalities);
    ``result`` the executed query's :class:`QueryResult`; ``trace`` the
    execution's span tree (None only if tracing was torn down early).
    """

    plan_text: str
    result: QueryResult
    trace: Span | None

    def __str__(self) -> str:
        text = self.plan_text
        if self.trace is not None:
            text += "\n\n-- trace --\n" + format_trace(self.trace)
        return text


@dataclass
class QueryResult:
    """What a query returns: elements, completeness, accounting."""

    elements: list[Element]
    completeness: Completeness
    stats: EngineStats
    #: answer lineage (version vector, per-fragment origins); attached
    #: only when the engine runs with ``provenance=True``
    provenance: Provenance | None = None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def first(self) -> Element | None:
        return self.elements[0] if self.elements else None


@dataclass
class BindingResult:
    """A shard-local execution's output: binding rows, not elements.

    The scatter-gather router consumes these — construction, ordering
    and limiting happen after the gather merge, so shards ship rows (or
    reductions of rows) rather than rendered XML.
    """

    rows: list[BindingTuple]
    completeness: Completeness
    stats: EngineStats
    #: shard-local lineage, folded into the coordinator's record by the
    #: gather; attached only under ``provenance=True``
    provenance: Provenance | None = None


class _ExecutionContext:
    """One query execution: policy, completeness, view memo, accounting."""

    def __init__(self, engine: "NimbleEngine", policy: PartialResultPolicy,
                 required_sources: frozenset[str],
                 deadline_at: float | None = None,
                 priority: Priority = Priority.NORMAL):
        self.engine = engine
        self.policy = policy
        self.required_sources = required_sources
        self.priority = Priority(priority)
        self.completeness = Completeness()
        self.stats = EngineStats()
        #: per-fragment origin annotations (the provenance layer).
        #: Always collected — appends never advance the clock and never
        #: touch the determinism-checked counters, so results stay
        #: bit-identical whether or not a Provenance record is built.
        self.origins: list[FragmentOrigin] = []
        self._view_memo: dict[str, list[Element]] = {}
        #: results fetched ahead of plan execution by the scheduler,
        #: keyed by unit identity; consumed (popped) by fetch_fragment
        self._prefetched: dict[int, list[Record]] = {}
        resilience = engine.resilience
        if deadline_at is not None:
            self.deadline_at = deadline_at
        elif resilience is not None and resilience.query_deadline_ms is not None:
            self.deadline_at = engine.clock.now + resilience.query_deadline_ms
        else:
            self.deadline_at = None

    # -- provenance ----------------------------------------------------------

    def record_origin(self, source: str, kind: str, rows: int = 0,
                      staleness_ms: float = 0.0, detail: str = "") -> None:
        """Annotate one served fragment's lineage (observational only)."""
        self.origins.append(
            FragmentOrigin(source, kind, rows, staleness_ms, detail)
        )

    # -- the resilient call path ---------------------------------------------

    def call_source(self, source: DataSource, attempt_fn) -> Any:
        """One logical source call under the engine's resilience policy."""
        if self.engine.resilient is None:
            return attempt_fn()
        return self.engine.resilient.call(
            source.name, attempt_fn, self.stats, self.deadline_at
        )

    def charge_network(self, network: NetworkModel,
                       before: tuple[int, int, int, int]) -> None:
        """Derive remote-call accounting from the network model's counters.

        ``before`` is a :meth:`NetworkModel.snapshot` taken before the
        call.  This is the one place ``remote_calls``/
        ``rows_transferred``/``bytes_transferred``/``values_transferred``
        are computed, as deltas of the source's :class:`NetworkModel` —
        so retried attempts and partially transferred (dropped) streams
        are each counted exactly once, never re-derived at the call
        sites.
        """
        calls, rows, payload_bytes, values = before
        self.stats.remote_calls += network.calls - calls
        self.stats.rows_transferred += network.rows_transferred - rows
        self.stats.bytes_transferred += network.bytes_transferred - payload_bytes
        self.stats.values_transferred += network.values_transferred - values

    def give_up(self, fragment: Fragment | None, source_name: str,
                error: SourceUnavailableError,
                params: dict[str, Any] | None = None) -> list:
        """Terminal failure: degraded read if possible, else skip/raise."""
        tracer = self.engine.tracer
        if self.policy is not PartialResultPolicy.FAIL and params is None:
            fallback = self._degraded_read(fragment)
            if fallback is not None:
                records, origin, age_ms = fallback
                self.stats.stale_served += 1
                self.completeness.record_stale(source_name)
                self.record_origin(source_name, origin, len(records), age_ms)
                tracer.event("stale_served", source=source_name,
                             rows=len(records), via=origin)
                return records
        if self.policy is PartialResultPolicy.FAIL:
            raise error
        if (
            self.policy is PartialResultPolicy.REQUIRE
            and source_name in self.required_sources
        ):
            raise error
        self.completeness.record_skip(source_name)
        self.stats.fragments_skipped += 1
        self.record_origin(source_name, ORIGIN_SKIPPED)
        tracer.event("fragment_skipped", source=source_name)
        return []

    def _degraded_read(
        self, fragment: Fragment | None
    ) -> tuple[list[Record], str, float] | None:
        """Stale materialized fragment, then an expired fragment-cache
        entry, then a registered replica, or None.  Returns the served
        records plus which rung answered and the data's virtual age —
        the inputs the provenance annotation and trace events need."""
        engine = self.engine
        if fragment is None:
            return None
        if engine.resilience is not None and not engine.resilience.allow_stale:
            return None
        served = self._degraded_rungs(fragment)
        if served is None and fragment.grouping is not None:
            # nobody holds these groups; whoever holds the rows under
            # them still answers, grouped here as the source would have
            served = self._degraded_rungs(replace(fragment, grouping=None))
            if served is not None:
                rows, origin, age_ms = served
                grouping = fragment.grouping
                served = (group_records(rows, grouping.group_vars,
                                        grouping.aggregates), origin, age_ms)
        return served

    def _degraded_rungs(
        self, fragment: Fragment
    ) -> tuple[list[Record], str, float] | None:
        engine = self.engine
        if engine.materializer is not None:
            served = engine.materializer.serve(fragment, allow_stale=True)
            if served is not None:
                info = engine.materializer.last_serve
                age = (engine.clock.now - info["loaded_at"]
                       if info is not None else 0.0)
                return served, ORIGIN_STALE_MATERIALIZED, age
        if engine.fragment_cache is not None:
            hit = engine.fragment_cache.lookup_stale(
                fragment, None, engine.catalog.version
            )
            if hit is not None:
                self.stats.stale_cache_served += 1
                return hit.records, ORIGIN_STALE_CACHE, hit.age_ms
        if engine.fallbacks is not None:
            resolved = engine.fallbacks.resolve(fragment)
            if resolved is not None:
                return resolved, ORIGIN_REPLICA, 0.0
        return None

    # -- the concurrent fetch scheduler --------------------------------------

    def prefetch(self, units: list[FragmentUnit]) -> None:
        """Overlap the independent fragments' fetches over virtual time.

        The units are fetched in waves of ``max_parallel_fetches``; each
        wave is a :class:`TaskGroup` whose members run on their own
        timelines, so the shared clock advances by the slowest member
        rather than the sum — the virtual-time model of a fetch pool.
        Results land in ``_prefetched`` for the plan's FragmentScans.
        Fetches stay in plan order, so source-call sequences (and with
        them fault injection and all the stats counters) are identical
        to the serial run.
        """
        fan_out = self.engine.max_parallel_fetches
        if fan_out <= 1 or len(units) <= 1:
            return
        tracer = self.engine.tracer
        for start in range(0, len(units), fan_out):
            wave = units[start:start + fan_out]
            group = TaskGroup(self.engine.clock)
            with tracer.span("wave", name=f"wave-{start // fan_out}",
                             size=len(wave)) as wave_span:
                #: single-flight: result key -> (leader timeline, leader id);
                #: identical fragments in one wave cost one source call
                leaders: dict[str, tuple[Any, int]] = {}
                for unit in wave:
                    key = None
                    if self._cache_for(unit.source) is not None:
                        key = result_key(unit.fragment)
                    if key is not None and key in leaders:
                        leader_timeline, leader_id = leaders[key]
                        with group.task(unit.source.name):
                            # join the in-flight fetch: both timelines fork
                            # at the wave start, so the duplicate finishes
                            # exactly when its leader does
                            with tracer.span("fetch", name=unit.source.name,
                                             source=unit.source.name) as span:
                                tracer.event("singleflight_join",
                                             source=unit.source.name)
                                self.engine.clock.advance_to(
                                    leader_timeline.now
                                )
                                if span.recording:
                                    span.set(rows=len(
                                        self._prefetched[leader_id]
                                    ))
                        self._prefetched[id(unit)] = list(
                            self._prefetched[leader_id]
                        )
                        self.stats.singleflight_dedups += 1
                        continue
                    with group.task(unit.source.name) as timeline:
                        records = self.fetch_fragment(unit)
                    self._prefetched[id(unit)] = records
                    if key is not None:
                        leaders[key] = (timeline, id(unit))
                serial_ms = group.elapsed_serial
                group.join()
                if wave_span.recording:
                    # the per-task serial sum; the wave itself costs the max
                    wave_span.set(serial_ms=serial_ms,
                                  tasks=len(group.timelines))
            self.stats.parallel_waves += 1

    # -- the calls FragmentScan / view scans make ----------------------------

    def fetch_fragment(
        self, unit: FragmentUnit, params: dict[str, Any] | None = None
    ) -> list[Record]:
        """The three-tier read path: fragment cache, materialized view,
        live source.  A cache hit happens before :meth:`call_source`, so
        it can never spend a retry budget or consult a breaker."""
        if params is None and id(unit) in self._prefetched:
            return self._prefetched.pop(id(unit))
        engine = self.engine
        fragment = unit.fragment
        source = unit.source
        with engine.tracer.span(
            "fetch", name=source.name, source=source.name,
            dependent=params is not None,
        ) as span:
            if span.recording:
                span.set(fragment=fragment.describe())
            cache = self._cache_for(source)
            shedder = engine.shedder
            if (cache is not None and shedder is not None
                    and shedder.allow_stale):
                # brownout serve-stale rung: an expired exact entry beats
                # a remote call while the error budget is burning
                hit = cache.lookup_stale(fragment, params,
                                         engine.catalog.version)
                if hit is not None:
                    self.stats.stale_cache_served += 1
                    if hit.stale:
                        self.stats.stale_served += 1
                        self.completeness.record_stale(source.name)
                    self.record_origin(
                        source.name,
                        ORIGIN_STALE_CACHE if hit.stale else ORIGIN_CACHE,
                        len(hit.records), hit.age_ms,
                    )
                    if span.recording:
                        span.set(served_from="fragment_cache_stale",
                                 rows=len(hit.records))
                    return hit.records
            if cache is not None:
                hit = cache.lookup(fragment, params, engine.catalog.version)
                if hit is not None:
                    self.stats.fragment_cache_hits += 1
                    if hit.containment:
                        self.stats.containment_hits += 1
                    self.record_origin(
                        source.name,
                        ORIGIN_CONTAINMENT if hit.containment
                        else ORIGIN_CACHE,
                        len(hit.records), hit.age_ms,
                    )
                    if span.recording:
                        span.set(served_from="fragment_cache",
                                 rows=len(hit.records))
                    return hit.records
                self.stats.fragment_cache_misses += 1
            if params is None and engine.materializer is not None:
                served = engine.materializer.serve(fragment)
                if served is not None:
                    self.stats.fragments_from_cache += 1
                    info = engine.materializer.last_serve
                    self.record_origin(
                        source.name, ORIGIN_MATERIALIZED, len(served),
                        (engine.clock.now - info["loaded_at"]
                         if info is not None else 0.0),
                        detail=(str(info["key"])
                                if info is not None else ""),
                    )
                    if span.recording:
                        span.set(served_from="materialized", rows=len(served))
                    return served
            if self._should_shed(source.name):
                self._shed_fragment(source.name, span)
                return []
            if params is None:
                delay = self._hedge_delay(source, fragment)
                if math.isfinite(delay):
                    return self._hedged_fetch(unit, span, delay)
            network = source.network
            before = network.snapshot()
            started = engine.clock.now
            try:
                records = self.call_source(
                    source, lambda: source.execute(fragment, params)
                )
            except SourceUnavailableError as error:
                self.charge_network(network, before)
                return self.give_up(fragment, source.name, error, params)
            self.charge_network(network, before)
            cost = engine.clock.now - started
            self.stats.fragments_executed += 1
            self.record_origin(source.name, ORIGIN_LIVE, len(records))
            if engine.metrics is not None:
                engine.metrics.histogram(
                    f"source.{source.name}.fetch_virtual_ms"
                ).observe(cost)
            self._observe(fragment, len(records))
            if engine.materializer is not None and params is None:
                engine.materializer.record_remote(fragment, source, cost,
                                                  len(records))
            if cache is not None:
                self.stats.fragment_cache_evictions += cache.insert(
                    fragment, params, records, engine.catalog.version
                )
            if span.recording:
                span.set(served_from="remote", rows=len(records))
            return records

    # -- overload protection: shedding and hedging ---------------------------

    def _should_shed(self, source_name: str) -> bool:
        """Brownout shed-lenses rung: skip this optional source?"""
        shedder = self.engine.shedder
        return (
            shedder is not None
            and self.policy is not PartialResultPolicy.FAIL
            and source_name not in self.required_sources
            and shedder.should_shed_source(source_name, self.priority)
        )

    def _shed_fragment(self, source_name: str, span=None,
                       probes: int = 1) -> None:
        """Record one shed fetch decision (Completeness-annotated skip)."""
        self.stats.fragments_shed += probes
        self.stats.fragments_skipped += 1
        self.completeness.record_skip(source_name)
        self.record_origin(source_name, ORIGIN_SHED,
                           detail=f"{probes} probes" if probes > 1 else "")
        self.engine.tracer.event("lens_shed", source=source_name)
        if span is not None and span.recording:
            span.set(served_from="shed")

    def _hedge_delay(self, source: DataSource, fragment: Fragment) -> float:
        """The virtual delay before a backup fetch fires, or ``inf``.

        ``inf`` (don't hedge) when hedging is off, the brownout ladder
        has disabled it, the source has too little latency history, or
        no registered replica could answer the fragment.
        """
        engine = self.engine
        if engine.hedging is None or engine.fallbacks is None:
            return math.inf
        shedder = engine.shedder
        if shedder is not None and not shedder.allows_hedging:
            return math.inf
        delay = engine.hedging.delay_ms(engine.metrics, source.name)
        if not math.isfinite(delay):
            return math.inf
        if not engine.fallbacks.has_replica(fragment):
            return math.inf
        return delay

    def _hedged_fetch(self, unit: FragmentUnit, span,
                      delay_ms: float) -> list[Record]:
        """Race the primary fetch against a replica launched after
        ``delay_ms``; first result wins, the straggler is cancelled.

        The primary runs on a private timeline so the shared clock can
        settle on the *winner's* completion instant (a ``TaskGroup``
        would charge the max — the opposite of first-result-wins).
        """
        engine = self.engine
        source, fragment = unit.source, unit.fragment
        clock = engine.clock
        network = source.network
        before = network.snapshot()
        start = clock.now
        primary = Timeline(start, f"primary:{source.name}")
        primary_error: SourceUnavailableError | None = None
        records: list[Record] = []
        try:
            with clock.running(primary):
                records = self.call_source(
                    source, lambda: source.execute(fragment, None)
                )
        except SourceUnavailableError as error:
            primary_error = error
        primary_done = primary.now
        elapsed = primary_done - start
        hedge_at = start + delay_ms
        if primary_error is None and engine.metrics is not None:
            # the primary's *true* elapsed feeds the per-source
            # histogram: recording the hedged (shorter) completion would
            # shrink the adaptive delay toward min_delay in a loop
            engine.metrics.histogram(
                f"source.{source.name}.fetch_virtual_ms"
            ).observe(elapsed)
        if primary_done <= hedge_at:
            # the primary settled (either way) before the hedge fired
            clock.advance_to(primary_done)
            self.charge_network(network, before)
            if primary_error is not None:
                return self.give_up(fragment, source.name, primary_error)
            return self._finish_remote(unit, records, elapsed, span)
        self.stats.hedges_launched += 1
        engine.tracer.event("hedge_launched", source=source.name,
                            delay_ms=delay_ms)
        backup = engine.fallbacks.resolve(fragment)
        if backup is not None:
            # the replica resolves locally the moment it launches, so it
            # finishes first: cancel the straggling primary (its network
            # charges stand — the bytes were already in flight)
            self.stats.hedges_won += 1
            self.completeness.record_hedged(source.name)
            self.record_origin(source.name, ORIGIN_HEDGED, len(backup),
                               detail=f"hedge fired at +{delay_ms:.1f} ms")
            engine.tracer.event("hedge_won", source=source.name)
            clock.advance_to(hedge_at)
            self.charge_network(network, before)
            self._observe(fragment, len(backup))
            cache = self._cache_for(source)
            if cache is not None:
                self.stats.fragment_cache_evictions += cache.insert(
                    fragment, None, backup, engine.catalog.version
                )
            if span.recording:
                span.set(served_from="hedge", rows=len(backup))
            return backup
        # the registered provider had nothing after all: wait it out
        clock.advance_to(primary_done)
        self.charge_network(network, before)
        if primary_error is not None:
            return self.give_up(fragment, source.name, primary_error)
        return self._finish_remote(unit, records, elapsed, span)

    def _finish_remote(self, unit: FragmentUnit, records: list[Record],
                       cost: float, span) -> list[Record]:
        """Post-remote bookkeeping shared by the hedged fetch path."""
        engine = self.engine
        self.stats.fragments_executed += 1
        self.record_origin(unit.source.name, ORIGIN_LIVE, len(records))
        self._observe(unit.fragment, len(records))
        if engine.materializer is not None:
            engine.materializer.record_remote(unit.fragment, unit.source,
                                              cost, len(records))
        cache = self._cache_for(unit.source)
        if cache is not None:
            self.stats.fragment_cache_evictions += cache.insert(
                unit.fragment, None, records, engine.catalog.version
            )
        if span.recording:
            span.set(served_from="remote", rows=len(records))
        return records

    def fetch_fragment_batch(
        self, unit: FragmentUnit, param_sets: list[dict[str, Any]]
    ) -> list[list[Record]]:
        """One batched probe of a parameterized source (dependent join).

        Returns one record list per parameter set, aligned by position.
        ``fragments_executed`` counts *logical* probes (one per set) so
        the counter is invariant under batch size; the amortization
        shows up in ``remote_calls``, which is derived from the network
        model and therefore counts the single physical call.

        With a fragment cache, the batch shares the per-parameter
        entries the per-row path writes: cached probes are answered
        locally, identical parameter sets within the batch collapse to
        one remote probe (single-flight), and only the remainder goes
        over the network.
        """
        if not param_sets:
            return []
        with self.engine.tracer.span(
            "batch", name=unit.source.name, source=unit.source.name,
            probes=len(param_sets),
        ) as span:
            cache = self._cache_for(unit.source)
            if cache is None:
                fetched = self._remote_batch(unit, param_sets)
                return (fetched if fetched is not None
                        else [[] for _ in param_sets])
            epoch = self.engine.catalog.version
            results: list[list[Record]] = [[] for _ in param_sets]
            positions_by_key: dict[str, list[int]] = {}
            params_by_key: dict[str, dict[str, Any]] = {}
            for index, params in enumerate(param_sets):
                hit = cache.lookup(unit.fragment, params, epoch)
                if hit is not None:
                    self.stats.fragment_cache_hits += 1
                    self.record_origin(
                        unit.source.name,
                        ORIGIN_CONTAINMENT if hit.containment
                        else ORIGIN_CACHE,
                        len(hit.records), hit.age_ms,
                    )
                    results[index] = hit.records
                    continue
                self.stats.fragment_cache_misses += 1
                key = params_key(params)
                if key in positions_by_key:
                    self.stats.singleflight_dedups += 1
                    self.engine.tracer.event("singleflight_probe",
                                             source=unit.source.name)
                positions_by_key.setdefault(key, []).append(index)
                params_by_key[key] = dict(params)
            if span.recording:
                span.set(remote_probes=len(positions_by_key))
            if positions_by_key:
                unique_sets = [params_by_key[key] for key in positions_by_key]
                fetched = self._remote_batch(unit, unique_sets)
                if fetched is not None:
                    for key, records in zip(positions_by_key, fetched):
                        self.stats.fragment_cache_evictions += cache.insert(
                            unit.fragment, params_by_key[key], records, epoch
                        )
                        for position in positions_by_key[key]:
                            results[position] = list(records)
            return results

    def _remote_batch(
        self, unit: FragmentUnit, param_sets: list[dict[str, Any]]
    ) -> list[list[Record]] | None:
        """The physical batched call; None signals a skipped failure."""
        source = unit.source
        if self._should_shed(source.name):
            self._shed_fragment(source.name, probes=len(param_sets))
            return None
        network = source.network
        before = network.snapshot()
        started = self.engine.clock.now
        try:
            results = self.call_source(
                source, lambda: source.execute_batch(unit.fragment, param_sets)
            )
        except SourceUnavailableError as error:
            self.charge_network(network, before)
            self.give_up(unit.fragment, source.name, error,
                         params=param_sets[0])
            return None
        self.charge_network(network, before)
        if self.engine.metrics is not None:
            self.engine.metrics.histogram(
                f"source.{source.name}.fetch_virtual_ms"
            ).observe(self.engine.clock.now - started)
        self.stats.fragments_executed += len(param_sets)
        self.stats.batch_calls += 1
        for records in results:
            self.record_origin(unit.source.name, ORIGIN_LIVE, len(records),
                               detail="batched probe")
            self._observe(unit.fragment, len(records))
        return results

    # -- cache plumbing ------------------------------------------------------

    def _cache_for(self, source: DataSource):
        """The engine's fragment cache, if the source admits caching."""
        if self.engine.fragment_cache is None:
            return None
        if not source.capabilities.cacheable:
            return None
        return self.engine.fragment_cache

    def _observe(self, fragment: Fragment, rows: int) -> None:
        """Feed one observed cardinality back into the cost model."""
        if self.engine.feedback is None:
            return
        self.engine.feedback.observe(fragment, rows)
        self.stats.estimate_feedback_updates += 1

    def column_stats_for(self, unit: FragmentUnit):
        """The stats table a scan of ``unit`` should populate, or None.

        Only unconditioned, non-parameterized, ungrouped fragments
        contribute: a conditioned fetch observes a filtered subset whose
        bounds under-cover the relation, which would make stats-based
        shard skipping unsound, and a grouped one observes groups, not
        the relation's rows.  Keying by access shape lets any later
        query over the same accesses reuse the full-scan statistics.
        """
        repo = self.engine.column_stats
        if repo is None:
            return None
        fragment = unit.fragment
        if (fragment.conditions or fragment.input_vars
                or fragment.grouping is not None):
            return None
        return repo.table(access_key(fragment))

    def fetch_view(self, view: ViewDef, rows: bool = False) -> list:
        """Serve one view reference; every view reference enters here,
        and a view runs at most once per execution.

        The answer is the view's elements — a fresh materialized copy,
        else the view's own query run as a sub-query — unless ``rows``
        says the caller can match the view's binding rows directly and
        no copy is fresh: then the view's body runs to
        :class:`~repro.algebra.viewmatch.ViewRows` and no element is
        built.  Elements asked for after rows are constructed from them.
        """
        served = self._view_memo.get(view.name)
        if served is None:
            with self.engine.tracer.span("view", name=view.name) as span:
                served = self._serve_materialized_view(view)
                served_from = "materialized"
                if served is None:
                    result = self.engine._execute(
                        view, self.policy, self.required_sources,
                        parent=self, view_rows=rows,
                    )
                    served = result.elements
                    served_from = "rows" if rows else "sub_query"
                if span.recording:
                    span.set(served_from=served_from, rows=len(served))
            self._view_memo[view.name] = served
        if isinstance(served, ViewRows) and not rows:
            served = self._view_memo[view.name] = build_elements(
                view.template, served
            )
        return served

    def _serve_materialized_view(self, view: ViewDef) -> list[Element] | None:
        """The view's fresh materialized copy, accounted for, or None."""
        materializer = self.engine.materializer
        served = (
            materializer.serve_view(view.name)
            if materializer is not None else None
        )
        if served is None:
            return None
        self.stats.fragments_from_cache += 1
        info = materializer.last_serve
        detail = ""
        maintained = (
            self.engine.incremental.views.get(view.name)
            if self.engine.incremental is not None else None
        )
        if maintained is not None:
            detail = "high-water " + ", ".join(
                f"{src}@{seq}" for src, seq
                in sorted(maintained.high_water.items())
            )
        self.record_origin(
            view.name, ORIGIN_VIEW, len(served),
            (self.engine.clock.now - info["loaded_at"]
             if info is not None else 0.0),
            detail=detail,
        )
        return served


class NimbleEngine:
    """The query service over a catalog of sources and mediated schemas.

    >>> engine = NimbleEngine(catalog)                      # doctest: +SKIP
    >>> result = engine.query('WHERE ... CONSTRUCT ...')    # doctest: +SKIP
    >>> result.completeness.complete                        # doctest: +SKIP

    ``default_policy`` answers the paper's open question about defaults:
    SKIP with annotation, overridable per query.

    ``max_parallel_fetches`` is the fetch-pool fan-out: up to that many
    independent remote fragments are overlapped per wave of virtual
    time (1 = the serial engine).  ``batch_size`` > 1 buffers dependent
    joins against batch-capable sources into that many probes per
    remote call.  Neither changes result sets — only the latency and
    call profile.  Compiled plans (parse → bind → decompose) are cached
    per query text up to ``plan_cache_size`` entries and invalidated
    whenever the catalog's version epoch moves.

    ``fragment_cache_bytes`` > 0 turns on the on-demand fragment result
    cache: every fetched fragment (independent, dependent probe, or
    batched probe) is kept in a byte-budgeted LRU keyed by fragment
    shape + parameters, TTL-governed (``fragment_cache_ttl_ms``
    default, ``fragment_cache_policies`` per source) and invalidated on
    the catalog epoch.  The read path becomes three-tier: fragment
    cache, then materialized view, then live source.  Containment
    serving (``fragment_cache_containment``) answers a narrower
    fragment from a broader cached one by filtering locally.  Observed
    row counts feed the cost model (``statistics_feedback``; None =
    follow the cache knob) so repeated queries plan with real
    cardinalities.  Cache hits never touch the resilience ladder: no
    retry budget is spent and no breaker is consulted.

    ``projection_pushdown=True`` prunes each fragment's transferred
    columns to the variables the rest of the query consumes.  Off by
    default; answers are identical either way — only the
    ``bytes_transferred``/``values_transferred`` counters change.

    Observability: pass a :class:`~repro.observability.Tracer` to
    record a span tree per query (fetches, waves, batched probes, view
    sub-queries, with retry/breaker/cache events), a
    :class:`~repro.observability.MetricsRegistry` to aggregate
    counters and per-source latency histograms across queries, and a
    :class:`~repro.observability.QueryLog` to keep a bounded log of
    recent executions with a slow-query flag.  All three default to
    off; tracing off means the no-op tracer — zero virtual-time
    overhead and byte-identical results and counters.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel | None = None,
        materializer: MaterializationManager | None = None,
        default_policy: PartialResultPolicy = PartialResultPolicy.SKIP,
        pushdown: bool = True,
        name: str = "engine",
        resilience: ResiliencePolicy | None = None,
        fallbacks: FallbackRegistry | None = None,
        max_parallel_fetches: int = 4,
        batch_size: int = 1,
        plan_cache_size: int = 64,
        fragment_cache_bytes: int = 0,
        fragment_cache_ttl_ms: float = 60_000.0,
        fragment_cache_policies: dict[str, RefreshPolicy] | None = None,
        fragment_cache_containment: bool = True,
        statistics_feedback: bool | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        query_log: QueryLog | None = None,
        slo: SloTracker | None = None,
        admission: AdmissionController | None = None,
        shedder: LoadShedder | None = None,
        hedging: HedgePolicy | None = None,
        projection_pushdown: bool = False,
        fragment_cache_scope: str = "",
        column_statistics: bool = False,
        incremental: bool = False,
        provenance: bool = False,
    ):
        self.catalog = catalog
        self.clock: SimClock = catalog.registry.clock
        self.metrics = metrics
        self.query_log = query_log
        self.slo = slo
        self.admission = admission
        self.shedder = shedder
        self.hedging = hedging
        self.cost_model = cost_model or CostModel()
        self.materializer = materializer
        self.default_policy = default_policy
        self.pushdown = pushdown
        self.name = name
        self.resilience = resilience
        self.resilient = (
            ResilientExecutor(self.clock, resilience)
            if resilience is not None else None
        )
        self.fallbacks = fallbacks
        if max_parallel_fetches < 1:
            raise ValueError("max_parallel_fetches must be >= 1")
        self.max_parallel_fetches = max_parallel_fetches
        self.projection_pushdown = projection_pushdown
        if fragment_cache_bytes < 0:
            raise ValueError("fragment_cache_bytes must be >= 0")
        self.fragment_cache = (
            FragmentResultCache(
                self.clock,
                self.cost_model,
                max_bytes=fragment_cache_bytes,
                default_policy=RefreshPolicy.ttl(fragment_cache_ttl_ms),
                policies=fragment_cache_policies,
                containment=fragment_cache_containment,
                # expired entries stay resident so brownout serve-stale
                # and the degraded-read ladder can answer from them
                keep_expired=True,
                # shard-local engines share nothing: a scope prefix keeps
                # their keys disjoint even if a cache were ever shared
                scope=fragment_cache_scope,
            )
            if fragment_cache_bytes > 0 else None
        )
        #: per-column min/max/distinct statistics observed by whole-
        #: relation fragment scans, keyed by fragment access shape;
        #: feeds cost-model selectivity and stats-based shard skipping
        self.column_stats = ColumnStatsRepository() if column_statistics else None
        if self.column_stats is not None:
            self.cost_model.bind_column_stats(self._column_stats_lookup)
        use_feedback = (
            statistics_feedback if statistics_feedback is not None
            else self.fragment_cache is not None
        )
        self.feedback = StatisticsFeedback() if use_feedback else None
        if self.feedback is not None:
            self.cost_model.bind_feedback(self.feedback)
        if self.fragment_cache is not None:
            self.cost_model.bind_residency(self._fragment_residency)
        self.builder = PlanBuilder(
            self.cost_model,
            batch_size=batch_size,
            materializer=materializer,
            dedup_dependent_probes=self.fragment_cache is not None,
        )
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.plan_cache_size = plan_cache_size
        #: query text -> (catalog epoch, compiled DecomposedQuery), LRU
        self._plan_cache: OrderedDict[Any, tuple[Any, DecomposedQuery]] = (
            OrderedDict()
        )
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.queries_run = 0
        if incremental and materializer is None:
            raise ValueError(
                "incremental maintenance requires a materializer to publish "
                "maintained views through"
            )
        #: incremental view maintenance (ISSUE 9): maintained views and
        #: their per-source high-water marks live here; refresh happens
        #: inside sync_changes()
        self.incremental = (
            IncrementalMaterializer().bind(self) if incremental else None
        )
        #: CDC accounting is engine-lifetime, not per-query: maintenance
        #: runs between queries, so its counters never belong to any one
        #: query's stats
        self.cdc_stats = EngineStats()
        #: per-source cursor of the last change sequence already applied
        #: to the fragment cache and materialized store
        self._cdc_cache_seq: dict[str, int] = {}
        #: attach a Provenance record (version vector + per-fragment
        #: origins) to every top-level answer; strictly observational —
        #: results and counters are bit-identical either way
        self.provenance = provenance
        #: engine-lifetime serve counts per origin kind (feeds the
        #: freshness gauges regardless of the per-answer knob)
        self.origin_totals: dict[str, int] = {}
        self.tracer: Tracer = NULL_TRACER
        self.use_tracer(tracer or NULL_TRACER)

    @property
    def batch_size(self) -> int:
        return self.builder.batch_size

    def use_tracer(self, tracer) -> None:
        """(Re)wire a tracer through every traced component.

        The resilient executor and the fragment cache are engine-owned
        and always follow.  Sources are *shared* (a registry can back
        several engines), so an enabled tracer claims them, while a
        null tracer only releases sources this engine's previous tracer
        had claimed — never another engine's.
        """
        previous = self.tracer
        self.tracer = tracer
        if self.resilient is not None:
            self.resilient.tracer = tracer
        if self.fragment_cache is not None:
            self.fragment_cache.tracer = tracer
        for source in self.catalog.registry:
            if tracer.enabled or getattr(source, "tracer", None) is previous:
                source.tracer = tracer

    # -- public API ------------------------------------------------------------

    def query(
        self,
        text: str | qast.Query,
        policy: PartialResultPolicy | None = None,
        required_sources: set[str] | None = None,
        priority: Priority = Priority.NORMAL,
    ) -> QueryResult:
        """Run one XML-QL query and return annotated results.

        ``priority`` feeds the overload-protection gate: under brownout
        the shedder may refuse BACKGROUND/LOW work up front (raising
        :class:`~repro.errors.QueryRejected` with a virtual-time
        ``retry_after_ms``), and mid-query the brownout ladder may serve
        stale or shed optional sources for lower-priority queries.  With
        no admission controller or shedder wired, priority is inert.
        """
        effective = policy or self.default_policy
        if required_sources and effective is not PartialResultPolicy.FAIL:
            effective = PartialResultPolicy.REQUIRE
        with self._admission_scope(priority):
            result = self._execute(text, effective,
                                   frozenset(required_sources or ()),
                                   priority=priority)
        return result

    def flwor_query(
        self,
        text: str,
        policy: PartialResultPolicy | None = None,
        required_sources: set[str] | None = None,
        priority: Priority = Priority.NORMAL,
    ) -> QueryResult:
        """Run a FLWOR (XQuery-style) query over the same catalog.

        The paper planned to "adopt the standard query language
        recommended by the W3C Query Working Group"; because only a
        physical algebra was built, swapping the language is a front-end
        change.  FLWOR sources are fetched wholesale (no pushdown) —
        the unoptimized access path — with the same partial-results
        policies, including REQUIRE over ``required_sources``.
        """
        from repro.mediator.mapping import RelationMapping
        from repro.mediator.schema import ViewDef
        from repro.query.flwor import translate_flwor

        effective = policy or self.default_policy
        if required_sources and effective is not PartialResultPolicy.FAIL:
            effective = PartialResultPolicy.REQUIRE
        admission = self._admit(priority)
        self.queries_run += 1
        context = _ExecutionContext(self, effective,
                                    frozenset(required_sources or ()),
                                    priority=priority)

        def resolver(name: str):
            resolved = self.catalog.resolve(name)
            if isinstance(resolved, ViewDef):
                return context.fetch_view(resolved)
            if isinstance(resolved, RelationMapping):
                source = self.catalog.registry.get(resolved.source_name)
                relation = resolved.source_relation
            else:
                source = self.catalog.registry.get(resolved.source_name)
                relation = resolved.relation
            network = source.network
            before = network.snapshot()
            with self.tracer.span("fetch", name=source.name,
                                  source=source.name, wholesale=True) as span:
                try:
                    items = context.call_source(
                        source, lambda: source.fetch_all(relation)
                    )
                except SourceUnavailableError as error:
                    context.charge_network(network, before)
                    # wholesale fetches are not fragment-keyed, so there is
                    # no stale fallback here — skip or raise per policy
                    return context.give_up(None, source.name, error)
                context.charge_network(network, before)
                context.stats.fragments_executed += 1
                context.record_origin(source.name, ORIGIN_LIVE, len(items),
                                      detail="wholesale")
                if span.recording:
                    span.set(rows=len(items))
                return items

        try:
            with self.tracer.span("query", policy=effective.name,
                                  dialect="flwor") as root:
                if root.recording:
                    root.set(query_hash=query_hash(text))
                with self.tracer.span("parse"):
                    plan = translate_flwor(text, resolver)
                started_virtual = self.clock.now
                started_wall = time.perf_counter()
                with self.tracer.span("execute"):
                    elements = plan.results()
                context.stats.elapsed_virtual_ms = (
                    self.clock.now - started_virtual
                )
                context.stats.elapsed_wall_ms = (
                    (time.perf_counter() - started_wall) * 1000
                )
                context.stats.plan_text = plan.explain()
                if root.recording:
                    root.set(
                        elapsed_virtual_ms=context.stats.elapsed_virtual_ms,
                        rows=len(elements),
                        complete=context.completeness.complete,
                    )
        except BaseException:
            if admission is not None:
                self.admission.cancel(admission)
            raise
        if admission is not None:
            self.admission.complete(admission)
        self._record_query(text, root.trace_id, context)
        return QueryResult(
            elements, context.completeness, context.stats,
            provenance=self._build_provenance(root.trace_id,
                                              context.origins),
        )

    def explain(self, text: str | qast.Query) -> str:
        """The physical plan the engine would run, as indented text.

        Goes through the compiled-plan cache exactly like execution
        does: explaining a cached query reuses (and re-validates
        against the catalog epoch) the same :class:`DecomposedQuery`
        that would execute, so the explanation can never disagree with
        the plan a subsequent ``query()`` runs — and the engine-level
        ``plan_cache_hits``/``plan_cache_misses`` move consistently.
        """
        decomposed = self._compile(text)
        context = _ExecutionContext(self, self.default_policy, frozenset())
        plan = self.builder.build(decomposed, context)
        return plan.explain()

    def explain_analyze(
        self,
        text: str | qast.Query,
        policy: PartialResultPolicy | None = None,
        required_sources: set[str] | None = None,
    ) -> "AnalyzedQuery":
        """Execute the query with full instrumentation and explain it.

        Unlike :meth:`explain`, this *runs* the query: every operator
        reports actual row counts (``rows_out``/``rows_in``), inclusive
        virtual time, and — for fragment scans — the planner's estimate
        (the feedback EWMA once the fragment has run before) against
        the actual cardinality.  A span trace of the execution rides
        along; when the engine has no tracer, a temporary one is wired
        for the duration of the call.  ``str()`` of the result renders
        the annotated plan plus the span tree.
        """
        tracer = self.tracer
        temporary = not tracer.enabled
        if temporary:
            tracer = Tracer(self.clock)
            self.use_tracer(tracer)
        effective = policy or self.default_policy
        if required_sources and effective is not PartialResultPolicy.FAIL:
            effective = PartialResultPolicy.REQUIRE
        try:
            result = self._execute(text, effective,
                                   frozenset(required_sources or ()),
                                   analyze=True)
        finally:
            if temporary:
                self.use_tracer(NULL_TRACER)
        return AnalyzedQuery(result.stats.plan_text, result,
                             tracer.last_trace)

    def materialize_query_fragments(self, text: str | qast.Query,
                                    policy=None) -> int:
        """Materialize every remote fragment a query would execute.

        The management-tools path: "enable specification of which data
        sources (or queries over data sources) should be materialized in
        a local store".  Returns the number of fragments materialized.
        Fetches run through an execution context under FAIL policy, so
        they get the engine's resilience ladder (retries, breakers) and
        network-delta accounting like every other source call.
        """
        if self.materializer is None:
            raise MediationError("engine has no materialization manager")
        decomposed = self._compile(text)
        context = _ExecutionContext(self, PartialResultPolicy.FAIL, frozenset())
        count = 0
        grouped = decomposed.grouped  # what the query runs when it can
        units = decomposed.units if grouped is None else [grouped[0]]
        for unit in units:
            if not isinstance(unit, FragmentUnit) or unit.dependent:
                continue
            if self.materializer.store.get(
                _fragment_store_key(unit.fragment)
            ) is not None:
                continue
            self.materializer.materialize(
                unit.fragment,
                lambda f, u=unit: context.fetch_fragment(u),
                policy,
            )
            count += 1
        return count

    def materialize_view(self, name: str, policy=None):
        """Materialize a mediated view's result elements in the local store.

        This is the paper's headline materialization unit: "one does not
        design a warehouse schema.  Instead, one materializes views over
        the mediated schema."  The view stays fresh per its policy; the
        engine transparently serves it on later queries.
        """
        if self.materializer is None:
            raise MediationError("engine has no materialization manager")
        resolved = self.catalog.resolve(name)
        if not isinstance(resolved, ViewDef):
            raise MediationError(f"{name!r} is not a mediated view")

        def fetch() -> list[Element]:
            return self._execute(
                resolved, PartialResultPolicy.FAIL, frozenset()
            ).elements

        return self.materializer.materialize_view(name, fetch, policy)

    def refresh_materialized_views(self) -> int:
        """Re-execute every stale materialized mediated view."""
        if self.materializer is None:
            return 0

        def fetch(name: str) -> list[Element]:
            resolved = self.catalog.resolve(name)
            assert isinstance(resolved, ViewDef)
            return self._execute(
                resolved, PartialResultPolicy.FAIL, frozenset()
            ).elements

        return self.materializer.refresh_stale_views(fetch)

    # -- incremental maintenance (CDC) ---------------------------------------------

    def maintain_view(self, name: str):
        """Start maintaining a mediated view incrementally.

        The view is loaded once from the sources, published into the
        materialization manager under a *manual* refresh policy, and
        thereafter kept fresh by :meth:`sync_changes` draining the
        sources' change feeds — refresh cost is proportional to the
        delta, not the view.
        """
        if self.incremental is None:
            raise MediationError(
                "engine was not built with incremental=True"
            )
        return self.incremental.maintain(name)

    def sync_changes(self) -> dict[str, Any]:
        """Drain every source change feed: caches first, then views.

        For each change past this engine's per-source cursor the
        fragment cache and the materialized store make a *scoped*
        decision — retain entries the change provably misses, patch
        entries whose records can be fixed in place, evict only the
        rest.  This replaces the old catalog-epoch bump that evicted
        everything on any write.  Maintained views then refresh off the
        same feeds.  Cache sync deliberately runs *before* view
        refresh: local view rebuilds consult cost-model residency, so
        residency must settle first for refreshed output to be
        bit-identical with a fresh execution planned afterwards.
        """
        report: dict[str, Any] = {
            "changes": 0, "cache_patched": 0, "cache_evicted": 0,
            "cache_retained": 0, "store_patched": 0, "store_invalidated": 0,
            "store_retained": 0, "views": {},
        }
        with self.tracer.span("cdc_sync") as sync_span:
            for source in self.catalog.registry:
                log = source.changelog
                if log is None:
                    continue
                cursor = self._cdc_cache_seq.get(source.name, 0)
                pending = list(log.since(cursor))
                with self.tracer.span(
                    "cdc_feed", name=source.name, source=source.name,
                    from_seq=cursor, to_seq=log.latest_seq,
                    changes=len(pending),
                ) if pending else nullcontext():
                    for change in pending:
                        key_field = log.key_field(change.relation)
                        report["changes"] += 1
                        if self.fragment_cache is not None:
                            patched, evicted, retained = (
                                self.fragment_cache.apply_change(
                                    change, key_field
                                )
                            )
                            report["cache_patched"] += patched
                            report["cache_evicted"] += evicted
                            report["cache_retained"] += retained
                            self.cdc_stats.cache_entries_patched += patched
                            self.cdc_stats.cache_entries_evicted += evicted
                            self.cdc_stats.cache_entries_retained += retained
                        if self.materializer is not None:
                            patched, invalidated, retained = (
                                self.materializer.store.apply_change(
                                    change, key_field, now_ms=self.clock.now
                                )
                            )
                            report["store_patched"] += patched
                            report["store_invalidated"] += invalidated
                            report["store_retained"] += retained
                        if self.metrics is not None:
                            self.metrics.histogram(
                                "cdc.refresh_lag_ms"
                            ).observe(self.clock.now - change.at_ms)
                self._cdc_cache_seq[source.name] = log.latest_seq
                if self.metrics is not None:
                    self.metrics.gauge(f"cdc.{source.name}.seq").set(
                        log.latest_seq
                    )
            if self.incremental is not None:
                report["views"] = self.incremental.refresh()
            if sync_span.recording:
                sync_span.set(
                    changes=report["changes"],
                    cache_patched=report["cache_patched"],
                    cache_evicted=report["cache_evicted"],
                    cache_retained=report["cache_retained"],
                    views_refreshed=len(report["views"]),
                )
        return report

    def _cdc_fetch_context(self) -> _ExecutionContext:
        """A fresh context for CDC-driven fragment fetches.

        Maintenance fetches fail hard (a partially loaded maintained
        view would silently serve wrong answers) and never appear in
        the query log — their stats are absorbed into ``cdc_stats``.
        """
        return _ExecutionContext(
            self, PartialResultPolicy.FAIL, frozenset()
        )

    def _cdc_execute(self, query: qast.Query) -> list[Element]:
        """Run a full view query for maintenance, outside the query log."""
        context = self._cdc_fetch_context()
        result = self._execute(
            query, PartialResultPolicy.FAIL, frozenset(), parent=context
        )
        self.cdc_stats.absorb(context.stats)
        return result.elements

    # -- internals ----------------------------------------------------------------

    def _admit(self, priority: Priority) -> Admission | None:
        """The overload gate: the shedder's rung, then a token.

        Runs before any work is done for the query.  The shedder's
        refresh re-reads the SLO error budget so the brownout level a
        query executes under is the one its own admission saw.  Either
        stage may raise :class:`QueryRejected` (counted in
        ``queries_rejected`` when a metrics registry is wired).
        """
        try:
            if self.shedder is not None:
                self.shedder.refresh()
                if self.metrics is not None:
                    self.metrics.gauge("overload.brownout_level").set(
                        int(self.shedder.level)
                    )
                self.shedder.check_admit(priority)
            if self.admission is not None:
                return self.admission.admit(priority)
        except QueryRejected:
            if self.metrics is not None:
                self.metrics.counter("queries_rejected").inc()
            self.tracer.event("query_rejected", priority=int(priority))
            raise
        return None

    @contextmanager
    def _admission_scope(self, priority: Priority):
        """Admit, then release the token on the way out (cancel on error)."""
        admission = self._admit(priority)
        try:
            yield admission
        except BaseException:
            if admission is not None:
                self.admission.cancel(admission)
            raise
        if admission is not None:
            self.admission.complete(admission)

    def _fragment_residency(self, fragment: Fragment) -> int | None:
        """Fresh cached row count of a fragment (the cost model's hook)."""
        if self.fragment_cache is None:
            return None
        return self.fragment_cache.resident_rows(fragment, self.catalog.version)

    def _column_stats_lookup(self, fragment: Fragment, var: str):
        """Observed column statistics for a fragment's variable, if any.

        Statistics are keyed by access shape (conditions excluded), so
        a conditioned fragment reuses the statistics its unconditioned
        scan gathered — the sound direction: full-scan statistics cover
        any filtered subset.
        """
        if self.column_stats is None:
            return None
        return self.column_stats.column(access_key(fragment), var)

    def _compile(self, query: str | qast.Query | ViewDef,
                 stats: EngineStats | None = None) -> DecomposedQuery:
        """Parse→bind→decompose, cached per query text + catalog epoch.

        The cache is keyed by the literal query text — or, for a
        mediated view's own query, by the view's name — and consulted
        *before* parsing: a cached query costs one dict lookup, no
        re-parse, no re-plan.  An entry is only valid while the
        catalog's version epoch (bumped on any source, mapping, schema,
        or view registration) matches the one it was compiled under.
        Other ASTs passed directly bypass the cache.  The compiled
        :class:`DecomposedQuery` is immutable after decomposition, so
        reuse across executions is safe — the plan builder constructs
        fresh operators every run.
        """
        key: Any = query if isinstance(query, str) else None
        view_query = None
        if isinstance(query, ViewDef):
            key = ("view", query.name)
            query = view_query = query.query
        epoch = self.catalog.version
        caching = key is not None and self.plan_cache_size > 0
        if caching:
            entry = self._plan_cache.get(key)
            if (
                entry is not None and entry[0] == epoch
                # a name may be reused: the entry must be this definition's
                and (view_query is None or entry[1].bound.query is view_query)
            ):
                self._plan_cache.move_to_end(key)
                self.plan_cache_hits += 1
                self.tracer.event("plan_cache_hit")
                if stats is not None:
                    stats.plan_cache_hits += 1
                return entry[1]
        tracer = self.tracer
        if isinstance(query, str):
            with tracer.span("parse"):
                query = parse_query(query)
        with tracer.span("bind"):
            bound = bind_query(query)
        with tracer.span("decompose"):
            decomposed = decompose(bound, self.catalog, self.pushdown,
                                   projection=self.projection_pushdown)
        if caching:
            self.plan_cache_misses += 1
            self._plan_cache[key] = (epoch, decomposed)
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return decomposed

    def _execute(
        self,
        query: str | qast.Query | ViewDef,
        policy: PartialResultPolicy,
        required_sources: frozenset[str],
        parent: _ExecutionContext | None = None,
        analyze: bool = False,
        priority: Priority = Priority.NORMAL,
        view_rows: bool = False,
    ) -> QueryResult:
        """Compile, plan and run one query (a ViewDef: the view's own).

        ``view_rows`` stops short of CONSTRUCT: ``elements`` of the
        result is then the :class:`ViewRows` CONSTRUCT would consume.
        """
        self.queries_run += 1
        context = _ExecutionContext(
            self, policy, required_sources,
            deadline_at=parent.deadline_at if parent is not None else None,
            priority=parent.priority if parent is not None else priority,
        )
        text = query if isinstance(query, str) else None
        tracer = self.tracer
        with tracer.span("query", policy=policy.name) as root:
            if root.recording and text is not None:
                root.set(query_hash=query_hash(text))
            decomposed = self._compile(query, stats=context.stats)
            with tracer.span("plan"):
                plan = self.builder.build(
                    decomposed, context, None if view_rows else "result"
                )
            if analyze:
                plan.bind_analyze(self.clock)
            started_virtual = self.clock.now
            started_wall = time.perf_counter()
            with tracer.span("execute"):
                context.prefetch(independent_fragment_units(decomposed))
                elements = plan.results()
                if view_rows:
                    elements = ViewRows(elements)
            context.stats.elapsed_virtual_ms = self.clock.now - started_virtual
            context.stats.elapsed_wall_ms = (
                (time.perf_counter() - started_wall) * 1000
            )
            context.stats.plan_text = plan.explain(analyze=analyze)
            if root.recording:
                root.set(elapsed_virtual_ms=context.stats.elapsed_virtual_ms,
                         rows=len(elements),
                         complete=context.completeness.complete)
        if parent is not None:
            parent.completeness.merge(context.completeness)
            parent.stats.absorb(context.stats)
            parent.origins.extend(context.origins)
            provenance = None
        else:
            self._record_query(text, root.trace_id, context)
            provenance = self._build_provenance(root.trace_id,
                                                context.origins)
        return QueryResult(elements, context.completeness, context.stats,
                           provenance=provenance)

    def execute_bindings(
        self,
        decomposed: DecomposedQuery,
        policy: PartialResultPolicy | None = None,
        required_sources: frozenset[str] = frozenset(),
        priority: Priority = Priority.NORMAL,
    ) -> BindingResult:
        """Run a compiled query's binding tree: rows out, no construct.

        The scatter-gather router calls this on shard-local engines —
        the coordinator compiled once, each shard executes the join/
        select shape over its slice and returns binding rows for the
        gather merge.  Ordering, grouping, construction and LIMIT are
        the merge's job (or the shard-side reducer's), not this path's.
        """
        self.queries_run += 1
        effective = policy or self.default_policy
        if required_sources and effective is not PartialResultPolicy.FAIL:
            effective = PartialResultPolicy.REQUIRE
        context = _ExecutionContext(self, effective, required_sources,
                                    priority=priority)
        tracer = self.tracer
        with tracer.span("bindings", policy=effective.name) as root:
            with tracer.span("plan"):
                tree = self.builder.build_binding_tree(decomposed, context)
            started_virtual = self.clock.now
            started_wall = time.perf_counter()
            with tracer.span("execute"):
                context.prefetch(independent_fragment_units(decomposed))
                tree.reset_counters()
                rows = list(tree)
            context.stats.elapsed_virtual_ms = self.clock.now - started_virtual
            context.stats.elapsed_wall_ms = (
                (time.perf_counter() - started_wall) * 1000
            )
            context.stats.plan_text = tree.explain()
            if root.recording:
                root.set(elapsed_virtual_ms=context.stats.elapsed_virtual_ms,
                         rows=len(rows),
                         complete=context.completeness.complete)
        return BindingResult(
            rows, context.completeness, context.stats,
            provenance=self._build_provenance(root.trace_id,
                                              context.origins),
        )

    def _build_provenance(
        self, trace_id: str, origins: list[FragmentOrigin]
    ) -> Provenance | None:
        """The lineage record for one answer (None with the knob off).

        The version vector reads the engine's applied-CDC cursors; the
        feed heads read each source's changelog head — both plain dict
        and attribute reads, so building the record never advances the
        virtual clock.
        """
        if not self.provenance:
            return None
        vector: dict[str, int] = {}
        heads: dict[str, int] = {}
        for source in self.catalog.registry:
            log = source.changelog
            if log is None:
                continue
            vector[source.name] = self._cdc_cache_seq.get(source.name, 0)
            heads[source.name] = log.latest_seq
        return Provenance(
            trace_id=trace_id,
            version_vector=vector,
            feed_heads=heads,
            snapshot_epoch=self.catalog.version,
            origins=list(origins),
        )

    def explain_answer(self, result) -> str:
        """Render the causal chain behind one answer's lineage.

        Accepts a :class:`QueryResult` or :class:`BindingResult` that
        carries provenance and explains *why* each piece was served the
        way it was: a stale rung is attributed to its open breaker
        (with the virtual instant it opened), a behind answer to the
        lagging CDC feed, a stale maintained view to its seq lag.
        Raises :class:`MediationError` when the result carries no
        provenance (engine built without ``provenance=True``).
        """
        provenance = getattr(result, "provenance", None)
        if provenance is None:
            raise MediationError(
                "result carries no provenance — construct the engine with "
                "provenance=True"
            )
        breakers: dict[str, dict[str, Any]] = {}
        if self.resilient is not None:
            for name, breaker in self.resilient.breakers.items():
                breakers[name] = {
                    "state": breaker.state.value,
                    "opened_at_ms": breaker.opened_at_ms,
                    "times_opened": breaker.times_opened,
                }
        view_lag = (
            self.incremental.lag(self.clock.now)
            if self.incremental is not None else {}
        )
        return explain_provenance(
            provenance,
            completeness=getattr(result, "completeness", None),
            breakers=breakers,
            view_lag=view_lag,
            now_ms=self.clock.now,
        )

    def _record_query(self, text: str | None, trace_id: str,
                      context: _ExecutionContext) -> None:
        """Top-level bookkeeping: the query log and the metrics registry."""
        stats = context.stats
        origins = origin_counts(context.origins)
        for kind, count in origins.items():
            self.origin_totals[kind] = self.origin_totals.get(kind, 0) + count
        if self.query_log is not None:
            self.query_log.record(
                text if text is not None else stats.plan_text,
                stats.elapsed_virtual_ms,
                stats.elapsed_wall_ms,
                context.completeness,
                trace_id=trace_id,
                counters=stats.counters(),
                origins=origins,
            )
        if self.metrics is not None:
            metrics = self.metrics
            metrics.counter("queries_total").inc()
            if not context.completeness.complete:
                metrics.counter("queries_incomplete").inc()
            if context.completeness.stale_sources:
                metrics.counter("queries_stale").inc()
            metrics.histogram("query.virtual_ms").observe(
                stats.elapsed_virtual_ms
            )
            metrics.histogram("query.wall_ms").observe(stats.elapsed_wall_ms)
            for name, value in stats.as_dict().items():
                if value:
                    metrics.counter(name).inc(value)
            for kind, count in origins.items():
                metrics.counter(f"origin.{kind}").inc(count)
        if self.slo is not None:
            self.slo.observe_query(
                query_hash(text if text is not None else stats.plan_text),
                stats.elapsed_virtual_ms,
                context.completeness,
                counters=stats.counters(),
                cache_counters=stats.cache_counters(),
                plan_epoch=self.catalog.version,
            )


def _fragment_store_key(fragment: Fragment) -> str:
    from repro.materialize.matching import fragment_key

    return fragment_key(fragment)

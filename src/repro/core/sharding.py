"""Scatter-gather execution: one query, N shard-local engines.

The coordinator compiles a query **once** (through the engine's
compiled-plan cache), asks :func:`repro.optimizer.routing.route` which
shards must run it, scatters the compiled binding tree to shard-local
:class:`~repro.core.engine.NimbleEngine` instances over the virtual-time
parallel-wave scheduler, and gathers *mergeable partials* — per-group
aggregate states, top-K candidates, sorted runs, or distinct
representatives — instead of raw rows wherever the query shape allows.

The wall-clock story is the paper's load-balancing section gone
horizontal: a scatter wave costs the slowest shard, not the sum, and
pruning (key-range and statistics-based) keeps non-matching shards out
of the wave entirely.  The wire story is the merge algebra's: for
aggregation queries only small per-group states cross from shard to
coordinator, accounted in the same ``bytes_transferred`` counters the
sources use.

Results are bit-identical to the unsharded engine under the
partitioning contract (data clustered by the shard key); the router is
entirely opt-in — nothing changes for engines without a deployment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.algebra.construct import build_elements
from repro.algebra.merge import (
    PartialGroups,
    dedup_rows,
    merge_sorted,
    rows_wire_size,
    sort_rows,
    topk_rows,
)
from repro.core.engine import (
    BindingResult,
    EngineStats,
    NimbleEngine,
    QueryResult,
)
from repro.core.partial import Completeness, PartialResultPolicy
from repro.materialize.matching import access_key
from repro.observability.provenance import Provenance
from repro.mediator.catalog import Catalog
from repro.optimizer.decomposer import DecomposedQuery, FragmentUnit
from repro.optimizer.routing import (
    MERGE_DISTINCT,
    MERGE_ORDERED,
    MERGE_PARTIAL_AGGREGATE,
    MERGE_TOPK,
    RoutingDecision,
    route,
)
from repro.query import ast as qast
from repro.query.exprs import compile_sort_key
from repro.resilience.admission import Priority
from repro.simtime import TaskGroup
from repro.sources.base import Fragment
from repro.sources.registry import SourceRegistry
from repro.sources.sharding import ShardedDeployment


def retarget(decomposed: DecomposedQuery,
             registry: SourceRegistry) -> DecomposedQuery:
    """The compiled query, its fragments re-aimed at one shard's sources.

    Shard sources keep the coordinator sources' names, so retargeting is
    a name lookup per unit — the fragments, conditions and plan shape
    are shared (compiled once), only the :class:`DataSource` handles
    differ.  This is what makes the router compile-once: N shards reuse
    one decomposition.
    """
    units = [
        replace(unit, source=registry.get(unit.source.name))
        if isinstance(unit, FragmentUnit) else unit
        for unit in decomposed.units
    ]
    return DecomposedQuery(
        decomposed.bound,
        units,
        decomposed.residual_conditions,
        decomposed.pushed_conditions,
        decomposed.pushdown,
    )


class ShardRouter:
    """Scatter-gather front end over a coordinator engine and N shards.

    ``engine`` is the coordinator: it owns the compiled-plan cache, the
    catalog (shard maps included), and answers every query the router
    cannot scatter.  ``deployment`` provides the shard-local registries
    (one shared clock) and shard maps.  Each shard gets its own
    :class:`NimbleEngine` inheriting the coordinator's configuration —
    resilience policy, caches (with shard-scoped keys), column
    statistics — overridable via ``shard_overrides``.

    The router quacks like an engine where it counts: ``query()``,
    ``explain()``, ``clock``, ``catalog``, ``resilience``, ``name`` —
    enough for :class:`~repro.core.loadbalance.EngineCluster` to balance
    load across router instances.
    """

    def __init__(
        self,
        engine: NimbleEngine,
        deployment: ShardedDeployment,
        max_parallel_shards: int = 16,
        shard_overrides: dict[str, Any] | None = None,
    ):
        if deployment.clock is not engine.clock:
            raise ValueError(
                "deployment and coordinator must share one clock"
            )
        if max_parallel_shards < 1:
            raise ValueError("max_parallel_shards must be >= 1")
        self.engine = engine
        self.deployment = deployment
        self.max_parallel_shards = max_parallel_shards
        self.shard_maps = dict(deployment.shard_maps)
        for shard_map in self.shard_maps.values():
            if shard_map.source not in engine.catalog.shard_maps:
                engine.catalog.register_shard_map(shard_map)
        overrides = dict(shard_overrides or {})
        self.shard_engines: list[NimbleEngine] = [
            self._shard_engine(index, registry, overrides)
            for index, registry in enumerate(deployment.registries)
        ]

    # -- engine-compatible surface -------------------------------------------

    @property
    def clock(self):
        return self.engine.clock

    @property
    def catalog(self) -> Catalog:
        return self.engine.catalog

    @property
    def resilience(self):
        return self.engine.resilience

    @property
    def name(self) -> str:
        return self.engine.name

    @property
    def tracer(self):
        return self.engine.tracer

    @property
    def provenance(self) -> bool:
        return self.engine.provenance

    def use_tracer(self, tracer) -> None:
        """Wire one tracer through the coordinator and every shard."""
        self.engine.use_tracer(tracer)
        for shard in self.shard_engines:
            shard.use_tracer(tracer)

    # -- construction ---------------------------------------------------------

    def _shard_engine(self, index: int, registry: SourceRegistry,
                      overrides: dict[str, Any]) -> NimbleEngine:
        coordinator = self.engine
        catalog = Catalog(registry)
        # shard catalogs resolve the same mediated names over the
        # shard-local source handles; mappings were validated when the
        # coordinator catalog registered them
        catalog.mappings = dict(coordinator.catalog.mappings)
        catalog.schemas = list(coordinator.catalog.schemas)
        cache = coordinator.fragment_cache
        kwargs: dict[str, Any] = dict(
            default_policy=coordinator.default_policy,
            pushdown=coordinator.pushdown,
            name=f"{coordinator.name}-shard{index}",
            resilience=coordinator.resilience,
            fallbacks=coordinator.fallbacks,
            max_parallel_fetches=coordinator.max_parallel_fetches,
            batch_size=coordinator.batch_size,
            plan_cache_size=coordinator.plan_cache_size,
            fragment_cache_bytes=cache.max_bytes if cache is not None else 0,
            fragment_cache_scope=f"shard{index}",
            projection_pushdown=coordinator.projection_pushdown,
            column_statistics=coordinator.column_stats is not None,
            # shard answers carry their own lineage; the gather folds
            # them into one coordinator-level Provenance
            provenance=coordinator.provenance,
        )
        kwargs.update(overrides)
        return NimbleEngine(catalog, **kwargs)

    # -- the scatter-gather path ----------------------------------------------

    def query(
        self,
        text: str | qast.Query,
        policy: PartialResultPolicy | None = None,
        required_sources: set[str] | None = None,
        priority: Priority = Priority.NORMAL,
    ) -> QueryResult:
        """Compile once, route, scatter or fall back to the coordinator."""
        stats = EngineStats()
        decomposed = self.engine._compile(text, stats=stats)
        decision = route(decomposed, self.shard_maps,
                         stats_bounds=self._stats_bounds)
        if not decision.scatter:
            result = self.engine.query(text, policy, required_sources,
                                       priority=priority)
            result.stats.coordinator_fallbacks += 1
            result.stats.plan_text += "\n" + decision.describe()
            return result
        return self._scatter(decomposed, decision, stats,
                             policy, required_sources, priority)

    def explain(self, text: str | qast.Query) -> str:
        """The coordinator's plan plus the routing decision."""
        decomposed = self.engine._compile(text)
        decision = route(decomposed, self.shard_maps,
                         stats_bounds=self._stats_bounds)
        return self.engine.explain(text) + "\n" + decision.describe()

    def _scatter(
        self,
        decomposed: DecomposedQuery,
        decision: RoutingDecision,
        stats: EngineStats,
        policy: PartialResultPolicy | None,
        required_sources: set[str] | None,
        priority: Priority,
    ) -> QueryResult:
        query = decomposed.bound.query
        template = decomposed.template
        sort_keys = [
            (compile_sort_key(spec.expr), spec.descending)
            for spec in query.order_by
        ]
        group_vars = template.group_vars
        required = frozenset(required_sources or ())
        completeness = Completeness()
        stats.scatter_queries += 1
        stats.shards_stats_skipped += sum(
            1 for entry in decision.pruned if entry.reason.startswith("stats")
        )
        stats.shards_pruned += len(decision.pruned)
        tracer = self.engine.tracer
        started_virtual = self.clock.now
        partials: list[Any] = []
        selected = list(decision.selected)
        shard_lineage: list[tuple[int, Provenance]] = []
        with tracer.span("scatter", shards=len(selected),
                         merge=decision.merge) as span:
            for entry in decision.pruned:
                tracer.event("shard_pruned", shard_index=entry.shard,
                             reason=entry.reason)
            for start in range(0, len(selected), self.max_parallel_shards):
                wave = selected[start:start + self.max_parallel_shards]
                group = TaskGroup(self.clock)
                for index in wave:
                    with group.task(f"shard-{index}"):
                        with tracer.span(
                            "shard", name=f"shard-{index}",
                            shard_index=index,
                            key_range=self._key_ranges(index),
                        ):
                            binding = self._execute_shard(
                                index, decomposed, policy, required, priority
                            )
                        partials.append(self._reduce(
                            decision.merge, binding, template,
                            sort_keys, group_vars, query.limit, stats
                        ))
                        completeness.merge(binding.completeness)
                        stats.absorb(binding.stats)
                        stats.shards_executed += 1
                        if binding.provenance is not None:
                            shard_lineage.append((index, binding.provenance))
                group.join()
                stats.parallel_waves += 1
            elements = self._gather(decision.merge, partials, template,
                                    sort_keys, group_vars, query.limit)
            if span.recording:
                span.set(rows=len(elements), waves=stats.parallel_waves)
        stats.elapsed_virtual_ms = self.clock.now - started_virtual
        stats.plan_text = decomposed.describe() + "\n" + decision.describe()
        provenance = None
        if self.engine.provenance:
            provenance = Provenance(
                trace_id=getattr(span, "trace_id", ""),
                snapshot_epoch=self.engine.catalog.version,
                shards=list(selected),
            )
            for index, lineage in shard_lineage:
                provenance.absorb(lineage, shard=index)
        return QueryResult(elements, completeness, stats,
                           provenance=provenance)

    def _execute_shard(
        self,
        index: int,
        decomposed: DecomposedQuery,
        policy: PartialResultPolicy | None,
        required: frozenset[str],
        priority: Priority,
    ) -> BindingResult:
        retargeted = retarget(decomposed, self.deployment.registries[index])
        return self.shard_engines[index].execute_bindings(
            retargeted, policy, required, priority
        )

    def _reduce(
        self,
        merge: str,
        binding: BindingResult,
        template,
        sort_keys,
        group_vars,
        limit: int | None,
        stats: EngineStats,
    ):
        """Shard-side reduction: shrink what crosses the wire.

        The gather transfer is charged to the same byte/value counters
        the sources use — it is engine-to-coordinator traffic, distinct
        from the shard's own source fetches (already absorbed).
        """
        rows = binding.rows
        if merge == MERGE_PARTIAL_AGGREGATE:
            groups = PartialGroups(template)
            for row in rows:
                groups.observe(row)
            wire_bytes, wire_values = groups.wire_size()
            stats.gather_rows += len(groups.groups)
            partial: Any = groups
        else:
            if merge == MERGE_TOPK:
                kept = topk_rows(rows, sort_keys, limit or 0, group_vars)
            elif merge == MERGE_ORDERED:
                kept = sort_rows(rows, sort_keys)
            elif merge == MERGE_DISTINCT:
                kept = dedup_rows(rows, group_vars)
            else:
                kept = rows
            wire_bytes, wire_values = rows_wire_size(kept)
            stats.gather_rows += len(kept)
            partial = kept
        stats.bytes_transferred += wire_bytes
        stats.values_transferred += wire_values
        return partial

    def _gather(
        self,
        merge: str,
        partials: list[Any],
        template,
        sort_keys,
        group_vars,
        limit: int | None,
    ):
        """Fold shard partials into the exact unsharded answer."""
        if merge == MERGE_PARTIAL_AGGREGATE:
            gathered = PartialGroups(template)
            for partial in partials:
                gathered.merge(partial)
            elements = gathered.finalize()
        elif merge in (MERGE_TOPK, MERGE_ORDERED):
            merged = merge_sorted(partials, sort_keys)
            if merge == MERGE_TOPK and limit is not None:
                merged = dedup_rows(merged, group_vars)[:limit]
            elements = build_elements(template, merged)
        else:
            rows = [row for partial in partials for row in partial]
            if merge == MERGE_DISTINCT:
                rows = dedup_rows(rows, group_vars)
            elements = build_elements(template, rows)
        if limit is not None:
            elements = elements[:limit]
        return elements

    def _key_ranges(self, index: int) -> str:
        """One shard's key-range coverage across shard maps, rendered.

        Attached to the shard span (satellite: ``shard_index`` and
        ``key_range`` as *attributes*, not just the span name) so trace
        analysis can correlate shard latency with key coverage.
        """
        parts = []
        for shard_map in self.shard_maps.values():
            if index < len(shard_map.ranges):
                parts.append(
                    f"{shard_map.source}:"
                    f"{shard_map.ranges[index].describe()}"
                )
        return "; ".join(parts)

    # -- statistics-based skipping --------------------------------------------

    def _stats_bounds(self, index: int, fragment: Fragment,
                      key_var: str) -> tuple[Any, Any] | None:
        """One shard's observed key bounds for a fragment, if gathered.

        Statistics live in the shard engines (populated by their own
        scans); keys are access shapes, which retargeting
        preserves, so the coordinator's fragment looks them up directly.
        """
        repo = self.shard_engines[index].column_stats
        if repo is None:
            return None
        stats = repo.column(access_key(fragment), key_var)
        if stats is None:
            return None
        return stats.bounds()

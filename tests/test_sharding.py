"""Sharded scatter-gather execution: routing, merging, bit-identity.

The load-bearing claim is in the property test: for every query shape
the merge algebra covers, a :class:`ShardRouter` over a key-range
partitioned deployment returns **bit-identical** elements, completeness
annotations and row counts to one engine over the unsharded data —
across shard counts, fragment caching and injected faults.
"""

from __future__ import annotations

import pytest

from repro.algebra.construct import build_elements
from repro.algebra.merge import (
    PartialGroups,
    dedup_rows,
    merge_sorted,
    rows_wire_size,
    sort_rows,
    topk_rows,
)
from repro.algebra.tuples import BindingTuple
from repro.algebra.vector import MISSING, ColumnStats, TableStats, shred_records
from repro.core.engine import NimbleEngine
from repro.core.loadbalance import EngineCluster
from repro.core.sharding import ShardRouter, retarget
from repro.errors import ExecutionError
from repro.materialize.matching import implies
from repro.mediator.catalog import Catalog
from repro.observability import Tracer
from repro.optimizer.routing import (
    MERGE_DISTINCT,
    MERGE_ORDERED,
    MERGE_PARTIAL_AGGREGATE,
    MERGE_ROW_UNION,
    MERGE_TOPK,
    merge_strategy,
    route,
    stats_admits,
)
from repro.query.exprs import compile_sort_key
from repro.query.parser import parse_query
from repro.query.translate import template_to_construct
from repro.resilience import FaultModel, ResiliencePolicy, RetryPolicy
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.sharding import (
    KeyRange,
    ShardMap,
    make_ranges,
    partition_registry,
    range_admits,
)
from repro.sources.webservice import WebServiceSource
from repro.sql.database import Database
from repro.xmldm.serializer import serialize
from repro.xmldm.schema import RecordType
from repro.xmldm.values import NULL, Record

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- deployment builders ------------------------------------------------------


def seeded_rows(n: int, seed: int = 7) -> list[tuple[int, int, int]]:
    """Deterministic (k, grp, v) rows, clustered by k (the shard key)."""
    return [(k, (k * seed) % 5, (k * k * seed) % 23) for k in range(n)]


def build_catalog(rows, faults=None, network=None):
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)"
    )
    db.insert_rows("t", rows)
    registry = SourceRegistry(SimClock())
    source = RelationalSource("s", db, network=network)
    if faults is not None:
        source.faults = faults
    registry.register(source)
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    return catalog


def build_engine(rows, faults=None, network=None, **engine_kw) -> NimbleEngine:
    return NimbleEngine(build_catalog(rows, faults, network), **engine_kw)


def build_router(rows, n_shards, faults=None, max_parallel_shards=16,
                 network=None, **engine_kw) -> ShardRouter:
    engine = build_engine(rows, faults, network, **engine_kw)
    deployment = partition_registry(
        engine.catalog.registry, {"s": "k"}, n_shards
    )
    return ShardRouter(engine, deployment,
                       max_parallel_shards=max_parallel_shards)


def rendered(result) -> list[str]:
    return [serialize(element) for element in result.elements]


QUERIES = [
    # plain scan, ordered
    'WHERE <i><k>$k</k><v>$v</v></i> IN "items" '
    'CONSTRUCT <r>$k</r> ORDER BY $k',
    # filter + ordered-merge with descending sort
    'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v > 5 '
    'CONSTRUCT <r k=$k>$v</r> ORDER BY $v DESC',
    # partial aggregates: sum/count/min/max/avg per group
    'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
    'CONSTRUCT <g k=$g><total>sum($v)</total><n>count($v)</n>'
    '<lo>min($v)</lo><hi>max($v)</hi><mean>avg($v)</mean></g>',
    # top-K of top-Ks
    'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v > 2 '
    'CONSTRUCT <r>$k</r> ORDER BY $v DESC LIMIT 4',
    # distinct representatives
    'WHERE <i><k>$k</k><grp>$g</grp></i> IN "items" CONSTRUCT <d>$g</d>',
    # key-range predicate (exercises pruning inside the sweep)
    'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 12 '
    'CONSTRUCT <r>$k</r>',
]


# -- merge algebra ------------------------------------------------------------


class TestMergeAlgebra:
    ROWS = [
        BindingTuple({"g": i % 3, "v": (i * 7) % 11, "k": i})
        for i in range(30)
    ]

    def keys(self, descending=False):
        query = parse_query(
            'WHERE <i><v>$v</v></i> IN "x.y" CONSTRUCT <r>$v</r> '
            f'ORDER BY $v{" DESC" if descending else ""}, $k'
        )
        return [
            (compile_sort_key(spec.expr), spec.descending)
            for spec in query.order_by
        ]

    def test_merge_sorted_equals_stable_sort_of_concatenation(self):
        keys = self.keys()
        streams = [
            sort_rows(self.ROWS[:10], keys),
            sort_rows(self.ROWS[10:18], keys),
            sort_rows(self.ROWS[18:], keys),
        ]
        merged = merge_sorted(streams, keys)
        reference = sort_rows(
            streams[0] + streams[1] + streams[2], keys
        )
        assert [r.as_dict() for r in merged] == [
            r.as_dict() for r in reference
        ]

    def test_topk_of_topks_is_exact(self):
        # adversarial split: every shard holds some of the global best
        keys = self.keys(descending=True)
        chunks = [self.ROWS[i::4] for i in range(4)]
        k = 5
        candidates = [topk_rows(chunk, keys, k, ("v",)) for chunk in chunks]
        got = dedup_rows(merge_sorted(candidates, keys), ("v",))[:k]
        want = dedup_rows(sort_rows(self.ROWS, keys), ("v",))[:k]
        assert [r.get("v") for r in got] == [r.get("v") for r in want]

    def test_partial_groups_match_build_elements(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x.y" '
            'CONSTRUCT <out g=$g><s>sum($v)</s><c>count($v)</c>'
            '<lo>min($v)</lo><hi>max($v)</hi><m>avg($v)</m></out>'
        ).construct)
        direct = build_elements(template, self.ROWS)
        chunks = [self.ROWS[:7], self.ROWS[7:19], self.ROWS[19:]]
        partials = []
        for chunk in chunks:
            groups = PartialGroups(template)
            for row in chunk:
                groups.observe(row)
            partials.append(groups)
        gathered = PartialGroups(template)
        for partial in partials:
            gathered.merge(partial)
        assert ([serialize(e) for e in gathered.finalize()]
                == [serialize(e) for e in direct])

    def test_partial_sum_over_text_raises_what_build_elements_raises(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x.y" '
            'CONSTRUCT <out g=$g><s>sum($v)</s></out>'
        ).construct)
        rows = [BindingTuple({"g": 1, "v": "3"}), BindingTuple({"g": 1, "v": "x"})]
        with pytest.raises(ExecutionError, match="sum over .*'x'"):
            build_elements(template, rows)
        groups = PartialGroups(template)
        groups.observe(rows[0])
        with pytest.raises(ExecutionError, match="sum over .*'x'"):
            groups.observe(rows[1])

    def test_partial_state_is_smaller_than_rows_on_the_wire(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x.y" '
            'CONSTRUCT <out g=$g><s>sum($v)</s></out>'
        ).construct)
        groups = PartialGroups(template)
        for row in self.ROWS:
            groups.observe(row)
        state_bytes, _ = groups.wire_size()
        row_bytes, _ = rows_wire_size(self.ROWS)
        assert state_bytes < row_bytes


# -- routing ------------------------------------------------------------------


class TestRouting:
    def compile(self, engine, text):
        return engine._compile(text)

    def shard_map(self, n=4):
        ranges = make_ranges(range(24), n)
        return {"s": ShardMap("s", "k", ranges, ("t",))}

    def test_merge_strategy_decision_table(self):
        cases = {
            'CONSTRUCT <r>$k</r> ORDER BY $k': MERGE_ORDERED,
            'CONSTRUCT <r>$k</r> ORDER BY $k LIMIT 3': MERGE_TOPK,
            'CONSTRUCT <g k=$g><t>sum($v)</t></g>': MERGE_PARTIAL_AGGREGATE,
            'CONSTRUCT <d>$g</d>': MERGE_DISTINCT,
            'CONSTRUCT <g k=$g><t>sum($v)</t></g> ORDER BY $g': MERGE_ORDERED,
            'CONSTRUCT <o><i>$k</i><n><v>$v</v></n></o>': MERGE_ROW_UNION,
        }
        prefix = ('WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "x.y" ')
        for tail, expected in cases.items():
            assert merge_strategy(parse_query(prefix + tail)) == expected, tail

    def test_unpartitioned_query_routes_to_coordinator(self):
        engine = build_engine(seeded_rows(24))
        decomposed = self.compile(engine, QUERIES[0])
        decision = route(decomposed, {})
        assert not decision.scatter
        assert "no partitioned fragments" in decision.reason

    def test_range_pruning_selects_only_matching_shards(self):
        engine = build_engine(seeded_rows(24))
        decomposed = self.compile(
            engine,
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 18 '
            'CONSTRUCT <r>$k</r>',
        )
        decision = route(decomposed, self.shard_map(4))
        assert decision.scatter
        assert decision.key_var == "k"
        assert len(decision.selected) == 1
        assert len(decision.pruned) == 3
        assert "contradicts" in decision.pruned[0].reason

    def test_equality_predicate_prunes_to_one_shard(self):
        engine = build_engine(seeded_rows(24))
        decomposed = self.compile(
            engine,
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k = 3 '
            'CONSTRUCT <r>$v</r>',
        )
        decision = route(decomposed, self.shard_map(4))
        assert decision.scatter
        assert len(decision.selected) == 1

    def test_stats_bounds_prune_inside_nominal_ranges(self):
        engine = build_engine(seeded_rows(24))
        decomposed = self.compile(
            engine,
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 20 '
            'CONSTRUCT <r>$v</r>',
        )
        # nominal last range is unbounded, but observed keys stop at 23;
        # a bounds callback reporting [18, 19] skips even that shard
        decision = route(
            decomposed, self.shard_map(4),
            stats_bounds=lambda shard, fragment, var: (18, 19),
        )
        assert decision.scatter
        assert decision.selected == ()
        assert all("stats" in p.reason or "contradicts" in p.reason
                   for p in decision.pruned)

    def test_stats_admits_uses_closed_bounds(self):
        conditions = [parse_query(
            'WHERE <i><k>$k</k></i> IN "x.y", $k >= 10 CONSTRUCT <r>$k</r>'
        ).condition_clauses[0].expr]
        assert stats_admits(10, 20, "k", conditions)     # boundary included
        assert not stats_admits(3, 9, "k", conditions)   # entirely below
        assert stats_admits(3, 10, "k", conditions)      # max touches bound

    def test_range_admits_string_keys(self):
        condition = parse_query(
            'WHERE <p><sku>$s</sku></p> IN "x.y", $s >= "m" '
            'CONSTRUCT <r>$s</r>'
        ).condition_clauses[0].expr
        assert not range_admits(KeyRange("a", "f"), "s", [condition])
        assert range_admits(KeyRange("f", None), "s", [condition])
        # implication machinery itself understands string bounds
        assert implies(condition, parse_query(
            'WHERE <p><sku>$s</sku></p> IN "x.y", $s >= "f" '
            'CONSTRUCT <r>$s</r>'
        ).condition_clauses[0].expr)


# -- the router end to end ----------------------------------------------------


class TestShardRouter:
    def test_scatter_prunes_and_counts(self):
        rows = seeded_rows(32)
        router = build_router(rows, 4)
        result = router.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 24 '
            'CONSTRUCT <r>$k</r>'
        )
        baseline = build_engine(rows).query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 24 '
            'CONSTRUCT <r>$k</r>'
        )
        assert rendered(result) == rendered(baseline)
        counters = result.stats.shard_counters()
        assert counters["scatter_queries"] == 1
        assert counters["shards_executed"] == 1
        assert counters["shards_pruned"] == 3
        assert "Routing(scatter" in result.stats.plan_text

    def test_coordinator_fallback_for_unsharded_names(self):
        rows = seeded_rows(16)

        def with_side_table(faults=None, **kw):
            catalog = build_catalog(rows)
            side = Database()
            side.execute("CREATE TABLE w (k INTEGER PRIMARY KEY, v INTEGER)")
            side.insert_rows("w", [(k, v) for k, _, v in rows])
            catalog.registry.register(RelationalSource("u", side))
            catalog.map_relation("wide", "u", "w")
            return NimbleEngine(catalog, **kw)

        engine = with_side_table()
        deployment = partition_registry(
            engine.catalog.registry, {"s": "k"}, 2
        )
        router = ShardRouter(engine, deployment)
        query = ('WHERE <i><k>$k</k><v>$v</v></i> IN "wide" '
                 'CONSTRUCT <r>$k</r> ORDER BY $k')
        result = router.query(query)
        assert result.stats.coordinator_fallbacks == 1
        assert rendered(result) == rendered(with_side_table().query(query))
        assert "coordinator" in result.stats.plan_text

    def test_compile_once_reuses_the_plan_cache(self):
        router = build_router(seeded_rows(16), 2)
        router.query(QUERIES[0])
        second = router.query(QUERIES[0])
        assert second.stats.plan_cache_hits == 1

    def test_explain_renders_routing_decision(self):
        router = build_router(seeded_rows(16), 2)
        text = router.explain(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 12 '
            'CONSTRUCT <r>$k</r>'
        )
        assert "Routing(scatter" in text
        assert "pruned shard" in text

    def test_scatter_wave_costs_max_not_sum(self):
        rows = seeded_rows(64)
        network = NetworkModel(latency_ms=10.0, per_row_ms=0.1)
        serial = build_router(rows, 4, max_parallel_shards=1,
                              network=network)
        wide = build_router(rows, 4, network=network)
        q = QUERIES[0]
        serial_result = serial.query(q)
        wide_result = wide.query(q)
        assert rendered(serial_result) == rendered(wide_result)
        assert (wide_result.stats.elapsed_virtual_ms
                < serial_result.stats.elapsed_virtual_ms)

    def test_shard_caches_are_scoped_and_effective(self):
        router = build_router(seeded_rows(24), 2,
                              fragment_cache_bytes=200_000)
        router.query(QUERIES[0])
        warm = router.query(QUERIES[0])
        assert warm.stats.fragment_cache_hits >= 2
        scopes = {
            shard.fragment_cache.scope for shard in router.shard_engines
        }
        assert scopes == {"shard0", "shard1"}


def _retrying() -> ResiliencePolicy:
    # enough attempts that every call eventually succeeds under the
    # low fault rates below — faults cost time, never results
    return ResiliencePolicy(retry=RetryPolicy(max_attempts=8), breaker=None)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitEquivalenceProperty:
    @given(
        n_rows=st.integers(4, 48),
        seed=st.integers(1, 50),
        n_shards=st.sampled_from([1, 2, 4, 8]),
        query=st.sampled_from(QUERIES),
        cache=st.booleans(),
        faulty=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_equals_unsharded(self, n_rows, seed, n_shards, query,
                                      cache, faulty):
        rows = seeded_rows(n_rows, seed)
        kwargs = dict(fragment_cache_bytes=300_000 if cache else 0)
        if faulty:
            kwargs["resilience"] = _retrying()

        def fault_model():
            return (FaultModel(failure_rate=0.08, seed=seed)
                    if faulty else None)

        baseline = build_engine(rows, fault_model(), **kwargs)
        router = build_router(rows, n_shards, fault_model(), **kwargs)
        expected = baseline.query(query)
        got = router.query(query)
        assert rendered(got) == rendered(expected)
        assert len(got.elements) == len(expected.elements)
        assert got.completeness.complete == expected.completeness.complete
        assert (got.completeness.missing_sources
                == expected.completeness.missing_sources)


# -- retarget -----------------------------------------------------------------


class TestRetarget:
    def test_retarget_swaps_sources_shares_fragments(self):
        router = build_router(seeded_rows(16), 2)
        decomposed = router.engine._compile(QUERIES[0])
        shard0 = retarget(decomposed, router.deployment.registries[0])
        assert shard0.units[0].fragment is decomposed.units[0].fragment
        assert (shard0.units[0].source
                is router.deployment.registries[0].get("s"))
        assert shard0.units[0].source is not decomposed.units[0].source


# -- column statistics --------------------------------------------------------


class TestColumnStatistics:
    def test_shredding_observes_bounds_distinct_and_nulls(self):
        stats = TableStats()
        shred_records(
            [Record({"k": 1, "v": 10}), Record({"k": 2, "v": 30}),
             Record({"k": 2, "v": 20})],
            stats,
        )
        column = stats.column("k")
        assert (column.minimum, column.maximum) == (1, 2)
        assert column.distinct == 2
        v = stats.column("v")
        assert v.bounds() == (10, 30)

    def test_selectivity_equality_and_range(self):
        column = ColumnStats()
        for value in range(0, 100):
            column.observe(value)
        assert column.selectivity("=", 5) == pytest.approx(1 / 100)
        assert column.selectivity("<", 50) == pytest.approx(50 / 99, rel=0.02)
        assert column.selectivity(">", 99) == pytest.approx(1 / 100)
        assert column.selectivity("<", "zed") is None

    def test_shredding_pads_absent_fields_without_observing_them(self):
        stats = TableStats()
        columns = shred_records(
            [Record({"k": 1}), Record({"k": 2, "v": NULL}), Record({"v": 5})],
            stats,
        )
        assert columns == {"k": [1, 2, MISSING], "v": [MISSING, NULL, 5]}
        k, v = stats.column("k"), stats.column("v")
        # padding is neither a row nor a NULL; the NULL a record holds is both
        assert (k.rows, k.nulls, k.bounds()) == (2, 0, (1, 2))
        assert (v.rows, v.nulls, v.bounds()) == (2, 1, (5, 5))

    def test_scan_populates_engine_stats(self):
        """No other knob: a whole-relation scan observes its records,
        once per scan."""
        rows = [(k, k % 3, None if k == 4 else k * 10) for k in range(20)]
        engine = build_engine(rows, column_statistics=True)
        engine.query(QUERIES[0])
        (table,) = engine.column_stats.tables.values()
        k, v = table.column("k"), table.column("v")
        assert (k.rows, k.nulls, k.distinct, k.bounds()) == (20, 0, 20, (0, 19))
        assert (v.rows, v.nulls, v.distinct, v.bounds()) == (20, 1, 19, (0, 190))
        engine.query(QUERIES[0])
        assert (k.rows, k.distinct, k.bounds()) == (40, 20, (0, 19))

    def test_dependent_probes_do_not_pollute_statistics(self):
        engine = build_engine(seeded_rows(6), column_statistics=True)
        service = WebServiceSource("svc")
        service.add_endpoint(
            "score", ["k"], RecordType.of("score", k="number", s="number"),
            lambda inputs: [{"s": inputs["k"] * 2}], estimated_rows=1,
        )
        engine.catalog.registry.register(service)
        engine.catalog.map_relation("score", "svc", "score")
        result = engine.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", '
            '<score><k>$k</k><s>$s</s></score> IN "score" '
            'CONSTRUCT <r k=$k>$s</r>'
        )
        assert len(result.elements) == 6
        # the scan of items was observed; none of the six probes was
        (table,) = engine.column_stats.tables.values()
        assert set(table.columns) == {"k", "v"}
        assert table.column("k").rows == 6

    def test_conditioned_scans_do_not_pollute_statistics(self):
        engine = build_engine(seeded_rows(20), column_statistics=True)
        engine.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= 15 '
            'CONSTRUCT <r>$k</r>'
        )
        assert not engine.column_stats.tables

    def test_stats_based_shard_skipping_end_to_end(self):
        rows = seeded_rows(32)
        router = build_router(rows, 4, column_statistics=True)
        # warm-up full scan populates each shard's observed key bounds
        router.query(QUERIES[0])
        result = router.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 100 '
            'CONSTRUCT <r>$k</r>'
        )
        assert rendered(result) == []
        counters = result.stats.shard_counters()
        # the last shard's nominal range is unbounded above, so only
        # observed statistics can rule it out
        assert counters["shards_stats_skipped"] >= 1
        assert counters["shards_executed"] == 0

    def test_router_reports_the_bounds_that_pruned_a_shard(self):
        router = build_router(seeded_rows(32), 4, column_statistics=True)
        tracer = Tracer(router.clock)
        router.use_tracer(tracer)
        router.query(QUERIES[0])
        router.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 100 '
            'CONSTRUCT <r>$k</r>'
        )
        scatter = tracer.last_trace.find("scatter")[0]
        reasons = [event.attrs["reason"] for event in scatter.events
                   if event.name == "shard_pruned"]
        assert "stats [24, 31] contradict predicates" in reasons

    def test_cost_model_prefers_observed_selectivity(self):
        engine = build_engine(
            [(k, 0, k) for k in range(100)], column_statistics=True,
        )
        narrow = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v > 95 '
                  'CONSTRUCT <r>$k</r>')
        source = engine.catalog.registry.get("s")
        fragment = engine._compile(narrow).units[0].fragment
        folklore = engine.cost_model.estimate_rows(fragment, source)
        engine.query(QUERIES[0])  # ANALYZE warm-up
        informed = engine.cost_model.estimate_rows(fragment, source)
        # folklore says 30% for ">"; the data says ~4%
        assert informed < folklore


# -- consistent-hash dispatch -------------------------------------------------


class TestConsistentHash:
    def test_same_query_always_lands_on_the_same_instance(self):
        engine = build_engine(seeded_rows(12))
        cluster = EngineCluster(engine, instances=4,
                                strategy="consistent_hash")
        chosen = {
            cluster._choose(query_text=QUERIES[0]).name for _ in range(10)
        }
        assert len(chosen) == 1

    def test_assignment_is_deterministic_across_clusters(self):
        rows = seeded_rows(12)
        picks = []
        for _ in range(2):
            cluster = EngineCluster(build_engine(rows), instances=5,
                                    strategy="consistent_hash")
            picks.append([
                cluster._choose(query_text=q).name for q in QUERIES
            ])
        assert picks[0] == picks[1]
        assert len(set(picks[0])) > 1  # different queries spread out

    def test_submit_routes_by_query_hash(self):
        engine = build_engine(seeded_rows(12))
        cluster = EngineCluster(engine, instances=3,
                                strategy="consistent_hash")
        for _ in range(3):
            cluster.submit(QUERIES[0], arrival_ms=0.0)
        served = [i.queries_served for i in cluster.instances]
        assert sorted(served) == [0, 0, 3]

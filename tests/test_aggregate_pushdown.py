"""Aggregate pushdown: a grouped answer computed at the source.

The reference is the same engine compiled with ``pushdown=False`` (the
E5 naive baseline), which fetches rows and groups them in CONSTRUCT.
Every test that says "pushed" checks the statement the source received
(``GROUP BY``) and that only the groups crossed the wire.
"""

from __future__ import annotations

import pytest

from repro.algebra.construct import build_elements
from repro.algebra.merge import (
    collect_aggregates,
    flat_template,
    group_records,
)
from repro.cdc import apply_to_fragment
from repro.cdc.changelog import ChangeRecord
from repro.cdc.scope import EXCLUDED, RETAINED, UNPATCHABLE, KeyedRecords
from repro.core.engine import NimbleEngine, PartialResultPolicy
from repro.errors import CapabilityError, ExecutionError, ReproError
from repro.materialize import MaterializationManager
from repro.materialize.matching import fragment_key, matches
from repro.mediator.catalog import Catalog
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.optimizer.costs import CostModel
from repro.query.parser import parse_query
from repro.query.translate import template_to_construct
from repro.resilience import FallbackRegistry
from repro.simtime import SimClock
from repro.sources.base import Grouping, NetworkModel
from repro.sources.flaky import FlakySource
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.sqlgen import generate_sql
from repro.sources.webservice import WebServiceSource
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm.schema import RecordType
from repro.xmldm.serializer import serialize
from repro.xmldm.values import Record

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


T_PATTERN = "<t><k>$k</k><a>$a</a><b>$b</b><c>$c</c></t> IN \"t\""
U_PATTERN = "<u><a>$a</a><w>$w</w></u> IN \"u\""


def rendered(result) -> list[str]:
    return [serialize(e) for e in result.elements]


class Deployment:
    """One relational source with two tables, the default engine and
    the ``pushdown=False`` reference over the same catalog."""

    def __init__(self, t_rows, u_rows=(), flaky=False, **engine_kw):
        db = Database("db")
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER,"
                   " b REAL, c TEXT)")
        db.execute("CREATE TABLE u (j INTEGER PRIMARY KEY, a INTEGER,"
                   " w INTEGER)")
        db.insert_rows("t", [list(row) for row in t_rows])
        db.insert_rows("u", [list(row) for row in u_rows])
        self.clock = SimClock()
        self.registry = SourceRegistry(self.clock)
        self.source = RelationalSource(
            "db", db, network=NetworkModel(latency_ms=10.0, per_row_ms=0.1)
        )
        #: what the registry holds: the source, or its outage switch
        self.registered = FlakySource(self.source) if flaky else self.source
        self.registry.register(self.registered)
        self.catalog = Catalog(self.registry)
        self.catalog.map_relation("t", "db", "t")
        self.catalog.map_relation("u", "db", "u")
        self.engine = NimbleEngine(self.catalog, **engine_kw)
        self.reference = NimbleEngine(self.catalog, pushdown=False)

    def run(self, text: str):
        """(default engine's result, the SQL it sent last)."""
        self.source.last_sql = None
        result = self.engine.query(text)
        return result, self.source.last_sql or ""

    def expected(self, text: str) -> list[str]:
        return rendered(self.reference.query(text))

    def grouped_at_the_mediator(self, unlimited: str, limit=None) -> list[str]:
        """CONSTRUCT over the binding rows the default engine fetches
        (``view_rows``): same pushed conditions and joins, no grouping
        at the source."""
        query = parse_query(unlimited)
        rows = self.engine._execute(
            query, PartialResultPolicy.FAIL, frozenset(), view_rows=True
        ).elements
        elements = build_elements(template_to_construct(query.construct), rows)
        return [serialize(e) for e in elements[:limit]]

    def assert_pushed(self, text: str):
        result, sql = self.run(text)
        assert "GROUP BY" in sql, sql
        assert rendered(result) == self.expected(text)
        return result

    def assert_not_pushed(self, text: str):
        result, sql = self.run(text)
        assert "GROUP BY" not in sql, sql
        assert rendered(result) == self.expected(text)
        return result


ROWS = [
    (1, 2, 1.5, "x"),
    (2, 1, 2.25, "y"),
    (3, 2, 0.1, "x"),
    (4, None, 0.2, None),
    (5, 1, None, "10"),
    (6, None, 7.0, "2.5"),
]

BY_A = (
    f"WHERE {T_PATTERN} CONSTRUCT <g id=$a><n>count($b)</n>"
    "<total>sum($b)</total><mean>avg($b)</mean><lo>min($b)</lo>"
    "<hi>max($b)</hi></g>"
)


# -- the pushed statement ------------------------------------------------------


class TestPushedStatement:
    def test_groups_cross_the_wire_not_rows(self):
        deployment = Deployment(ROWS)
        result = deployment.assert_pushed(BY_A)
        assert len(result.elements) == 3
        assert result.stats.rows_transferred == 3
        assert result.stats.remote_calls == 1

    def test_generated_sql(self):
        deployment = Deployment(ROWS)
        _, sql = deployment.run(BY_A)
        assert sql == (
            "SELECT t0.a AS a, COUNT(t0.b) AS __agg_0, SUM(t0.b) AS __agg_1, "
            "AVG(t0.b) AS __agg_2, MIN(t0.b) AS __agg_3, MAX(t0.b) AS __agg_4 "
            "FROM t t0 GROUP BY t0.a"
        )

    def test_pushed_conditions_filter_before_grouping(self):
        deployment = Deployment(ROWS)
        text = (f"WHERE {T_PATTERN}, $b > 0.15, $a >= 1 "
                "CONSTRUCT <g id=$a>count($k)</g>")
        _, sql = deployment.run(text)
        assert "WHERE" in sql and sql.index("WHERE") < sql.index("GROUP BY")
        deployment.assert_pushed(text)

    def test_same_source_join_groups_at_the_source(self):
        deployment = Deployment(ROWS, [(1, 2, 10), (2, 2, 20), (3, 1, 5)])
        text = (f"WHERE {T_PATTERN}, {U_PATTERN} "
                "CONSTRUCT <g id=$a><n>count($w)</n><s>sum($w)</s>"
                "<m>max($b)</m></g>")
        result = deployment.assert_pushed(text)
        assert result.stats.rows_transferred == 2

    def test_order_by_grouping_variable_and_limit(self):
        deployment = Deployment(ROWS)
        result = deployment.assert_pushed(BY_A + " ORDER BY $a DESC LIMIT 2")
        assert len(result.elements) == 2
        assert result.stats.rows_transferred == 3  # LIMIT counts elements

    def test_explain_names_the_grouping(self):
        deployment = Deployment(ROWS)
        plan = deployment.engine.explain(BY_A)
        assert "group=a aggs=count(b),sum(b),avg(b),min(b),max(b)" in plan
        analyzed = deployment.engine.explain_analyze(BY_A)
        assert "group=a aggs=count(b)" in str(analyzed)

    def test_grouped_unit_is_compiled_once_and_cached(self):
        deployment = Deployment(ROWS)
        engine = deployment.engine
        first = engine._compile(BY_A)
        assert first.grouped is not None
        assert engine._compile(BY_A).grouped is first.grouped
        # the compiled units keep fetching rows: that is what the shard
        # router, ViewMatch and the materializer consume
        assert first.units[0].fragment.grouping is None

    def test_shape_analysis_is_merges(self):
        """The planner groups by exactly what CONSTRUCT groups by."""
        deployment = Deployment(ROWS)
        template = template_to_construct(parse_query(BY_A).construct)
        assert flat_template(template)
        unit, rewritten = deployment.engine._compile(BY_A).grouped
        grouping = unit.fragment.grouping
        assert grouping.group_vars == template.group_vars
        assert [(kind, var) for kind, var, _ in grouping.aggregates] == [
            (item.kind, item.var) for item in collect_aggregates(template)
        ]
        assert not collect_aggregates(rewritten)

    def test_constructor_gained_no_knob(self):
        import inspect

        names = inspect.signature(NimbleEngine.__init__).parameters
        assert not [n for n in names if "aggregat" in n or "group" in n]


# -- shapes that must stay at the mediator -------------------------------------


class TestNotPushed:
    def test_pushdown_false_is_the_reference(self):
        deployment = Deployment(ROWS)
        deployment.source.last_sql = None
        deployment.reference.query(BY_A)
        assert "GROUP BY" not in deployment.source.last_sql

    def test_residual_condition(self):
        deployment = Deployment(ROWS)
        deployment.assert_not_pushed(
            f'WHERE {T_PATTERN}, contains($c, "x") '
            "CONSTRUCT <g id=$a>count($b)</g>"
        )

    def test_nested_non_aggregate_template(self):
        deployment = Deployment(ROWS)
        deployment.assert_not_pushed(
            f"WHERE {T_PATTERN} "
            "CONSTRUCT <g id=$a><n>count($b)</n><row>$k</row></g>"
        )

    def test_template_without_aggregates(self):
        deployment = Deployment(ROWS)
        deployment.assert_not_pushed(
            f"WHERE {T_PATTERN} CONSTRUCT <g id=$a>$c</g>"
        )

    def test_order_by_a_non_grouping_variable(self):
        deployment = Deployment(ROWS)
        deployment.assert_not_pushed(BY_A + " ORDER BY $b")

    def test_second_source(self):
        deployment = Deployment(ROWS)
        deployment.registry.register(XMLSource(
            "feed", {"tags": "<tags><tag><a>2</a><label>two</label></tag>"
                             "<tag><a>1</a><label>one</label></tag></tags>"},
        ))
        text = (f'WHERE {T_PATTERN}, <tag><a>$a</a><label>$l</label></tag> '
                'IN "feed.tags" CONSTRUCT <g id=$l>count($b)</g>')
        deployment.assert_not_pushed(text)

    def test_xml_source(self):
        deployment = Deployment(ROWS)
        source = XMLSource(
            "feed", {"d": "<d><r><a>1</a><b>2</b></r><r><a>1</a><b>3</b></r></d>"}
        )
        deployment.registry.register(source)
        text = ('WHERE <r><a>$a</a><b>$b</b></r> IN "feed.d" '
                "CONSTRUCT <g id=$a>sum($b)</g>")
        assert deployment.engine._compile(text).grouped is None
        assert rendered(deployment.engine.query(text)) == ['<g id="1">5</g>']

    def test_dependent_unit(self):
        deployment = Deployment(ROWS)
        service = WebServiceSource("svc")
        service.add_endpoint(
            "score", ["k"], RecordType.of("score", k="number", s="number"),
            lambda inputs: [{"s": inputs["k"] * 2}], estimated_rows=1,
        )
        deployment.registry.register(service)
        deployment.catalog.map_relation("score", "svc", "score")
        text = (f'WHERE {T_PATTERN}, <score><k>$k</k><s>$s</s></score> '
                'IN "score" CONSTRUCT <g id=$a>sum($s)</g>')
        deployment.assert_not_pushed(text)

    def test_view_rows_and_view_reference(self):
        deployment = Deployment(ROWS)
        schema = MediatedSchema("m")
        schema.define(ViewDef.from_text("by_a", BY_A))
        deployment.catalog.add_schema(schema)
        # whoever asks for the view's binding rows gets rows
        deployment.source.last_sql = None
        rows = deployment.engine._execute(
            deployment.catalog.resolve("by_a"), PartialResultPolicy.FAIL,
            frozenset(), view_rows=True,
        )
        assert len(rows.elements) == len(ROWS)
        assert "GROUP BY" not in deployment.source.last_sql
        # an aggregate view is matched through its elements, and the
        # sub-query that builds them may well be answered in groups
        outer = ('WHERE <g id=$a><n>$n</n></g> IN "by_a" '
                 "CONSTRUCT <r a=$a>$n</r>")
        deployment.assert_pushed(outer)


# -- edge cases of the pushed shape --------------------------------------------


class TestEdgeCases:
    def test_no_grouping_variable_builds_no_phantom_element(self):
        """SQL's global aggregate answers one row over an empty input;
        CONSTRUCT over no rows builds nothing."""
        text = f"WHERE {T_PATTERN} CONSTRUCT <stats><n>count($b)</n></stats>"
        empty = Deployment([])
        assert empty.assert_not_pushed(text).elements == []
        filled = Deployment(ROWS)
        assert rendered(filled.assert_not_pushed(text)) == [
            "<stats><n>5</n></stats>"]

    def test_empty_input_with_grouping_variable(self):
        assert Deployment([]).assert_pushed(BY_A).elements == []

    def test_null_group_and_null_values(self):
        deployment = Deployment(ROWS)
        result = deployment.assert_pushed(
            f"WHERE {T_PATTERN} CONSTRUCT <g id=$a><n>count($b)</n>"
            "<s>sum($b)</s><m>avg($b)</m></g>"
        )
        # a=2 first, a=1 second, the NULL group third where row 4 put it
        assert rendered(result) == [
            '<g id="2"><n>2</n><s>1.6</s><m>0.8</m></g>',
            '<g id="1"><n>1</n><s>2.25</s><m>2.25</m></g>',
            '<g id=""><n>2</n><s>7.2</s><m>3.6</m></g>',
        ]

    def test_all_null_group_aggregates_render_empty(self):
        deployment = Deployment([(1, 1, None, "x"), (2, 1, None, "y")])
        result = deployment.assert_pushed(BY_A)
        assert rendered(result) == [
            '<g id="1"><n>0</n><total/><mean/><lo/><hi/></g>'
        ]

    def test_group_order_is_first_appearance_and_id_from_first_row(self):
        rows = [(1, 3, 1.0, "B"), (2, 1, 1.0, "a"), (3, 3, 1.0, "B"),
                (4, 2, 1.0, "c"), (5, 1, 1.0, "a")]
        deployment = Deployment(rows)
        result = deployment.assert_pushed(
            f"WHERE {T_PATTERN} CONSTRUCT <g id=$a tag=$c>count($k)</g>"
        )
        assert rendered(result) == [
            '<g id="3" tag="B">2</g>', '<g id="1" tag="a">2</g>',
            '<g id="2" tag="c">1</g>',
        ]

    def test_text_column_of_numbers_pushes_count_only(self):
        """``_numeric_or_self`` coerces "10" at the mediator; SQL's SUM
        over TEXT raises.  COUNT needs no coercion."""
        deployment = Deployment(ROWS)
        for kind in ("sum", "avg", "min", "max"):
            deployment.assert_not_pushed(
                f"WHERE {T_PATTERN}, $k > 4 CONSTRUCT <g id=$k>{kind}($c)</g>"
            )
        deployment.assert_pushed(
            f"WHERE {T_PATTERN} CONSTRUCT <g id=$a>count($c)</g>"
        )

    def test_sum_over_text_that_is_not_a_number_raises_execution_error(self):
        """``repro.sql`` raises ExecutionError for SUM over "x"; so does
        the mediator, on the default engine and on the reference."""
        deployment = Deployment(ROWS)
        for engine in (deployment.engine, deployment.reference):
            for kind in ("sum", "avg"):
                with pytest.raises(ExecutionError, match=f"{kind} over .*'x'"):
                    engine.query(f"WHERE {T_PATTERN} CONSTRUCT "
                                 f"<r><g>$a</g><s>{kind}($c)</s></r>")
            for kind in ("count", "min", "max"):
                engine.query(f"WHERE {T_PATTERN} CONSTRUCT "
                             f"<r><g>$a</g><s>{kind}($c)</s></r>")

    def test_real_columns_fold_identically(self):
        """Float sums depend on how they are folded (``sum`` compensates
        from Python 3.12 on); source and mediator fold the same way."""
        # group 0 holds 0.1 + 1e16 - 1e16 + ...: a running += loses
        # the 0.1, a compensated sum keeps it
        values = [0.1, 0.2, 1e16, 0.3, -1e16, 0.7, 1e-9, 3.3, 2.2, 1.1]
        rows = [(i, i % 2, value, "x") for i, value in enumerate(values)]
        deployment = Deployment(rows)
        result = deployment.assert_pushed(
            f"WHERE {T_PATTERN} CONSTRUCT <g id=$a><s>sum($b)</s>"
            "<m>avg($b)</m></g>"
        )
        evens = [v for i, v in enumerate(values) if i % 2 == 0]
        assert serialize(result.elements[0]) == (
            f'<g id="0"><s>{sum(evens)}</s><m>{sum(evens) / len(evens)}</m></g>'
        )

    def test_group_records_is_the_sources_answer(self):
        """The mediator-side reference of a Grouping, used when a holder
        of rows stands in for the source."""
        deployment = Deployment(ROWS)
        unit, _ = deployment.engine._compile(BY_A).grouped
        grouping = unit.fragment.grouping
        rows = deployment.source.execute(
            deployment.engine._compile(BY_A).units[0].fragment
        )
        assert deployment.source.execute(unit.fragment) == group_records(
            rows, grouping.group_vars, grouping.aggregates
        )


# -- holders of fragment results: groups are not rows ---------------------------


def cdc_deployment(rows, **engine_kw):
    """The test_cdc deployment shape: CDC on, a by_group-style view."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)")
    db.insert_rows("t", rows)
    clock = SimClock()
    registry = SourceRegistry(clock)
    source = RelationalSource(
        "s", db, network=NetworkModel(latency_ms=20.0, per_row_ms=0.5)
    )
    registry.register(source)
    source.enable_cdc()
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    schema = MediatedSchema("m")
    schema.define(ViewDef.from_text("by_group", BY_GROUP))
    catalog.add_schema(schema)
    engine = NimbleEngine(catalog, materializer=MaterializationManager(clock),
                          incremental=True, **engine_kw)
    return engine, source


ITEMS = '<i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items"'
BY_GROUP = (f"WHERE {ITEMS} CONSTRUCT <g id=$g><n>count($v)</n>"
            "<total>sum($v)</total><mean>avg($v)</mean></g>")
ITEM_ROWS = [(k, k % 3, k * 10) for k in range(9)]


class TestCacheAndCdc:
    def test_cached_grouped_entry_is_evicted_not_patched(self):
        """Prototype failure 1: patching a row into a list of groups
        rendered ``<g id="0"><n/><total/><mean/></g>``."""
        engine, source = cdc_deployment(ITEM_ROWS,
                                        fragment_cache_bytes=300_000)
        before = rendered(engine.query(BY_GROUP))
        assert len(engine.fragment_cache) == 1
        source.insert_row("t", {"k": 100, "grp": 0, "v": 5})
        report = engine.sync_changes()
        assert report["cache_patched"] == 0 and report["cache_evicted"] == 1
        after = engine.query(BY_GROUP)
        assert after.stats.remote_calls == 1
        assert rendered(after) != before
        assert rendered(after)[0] == (
            '<g id="0"><n>4</n><total>95</total><mean>23.75</mean></g>'
        )
        reference = NimbleEngine(engine.catalog, pushdown=False)
        assert rendered(after) == rendered(reference.query(BY_GROUP))

    def test_cached_groups_keyed_by_the_row_key_are_not_patched_either(self):
        """With the row key as grouping variable a patch *can* find
        "its" record — and would overwrite the group with the row."""
        engine, source = cdc_deployment(ITEM_ROWS,
                                        fragment_cache_bytes=300_000)
        by_key = (f"WHERE {ITEMS} CONSTRUCT <g id=$k><n>count($v)</n>"
                  "<total>sum($v)</total></g>")
        engine.query(by_key)
        source.update_row("t", 0, {"v": 77})
        report = engine.sync_changes()
        assert report["cache_patched"] == 0 and report["cache_evicted"] == 1
        assert rendered(engine.query(by_key))[0] == (
            '<g id="0"><n>1</n><total>77</total></g>'
        )

    def test_cached_rows_never_serve_a_grouped_fetch(self):
        """Prototype failure 2, one direction: containment."""
        engine, _ = cdc_deployment(ITEM_ROWS, fragment_cache_bytes=300_000)
        rows_query = f"WHERE {ITEMS} CONSTRUCT <r k=$k g=$g>$v</r>"
        engine.query(rows_query)  # the unconditioned row fragment, cached
        result = engine.query(BY_GROUP)
        assert result.stats.remote_calls == 1
        assert result.stats.containment_hits == 0
        assert rendered(result)[0] == (
            '<g id="0"><n>3</n><total>90</total><mean>30.0</mean></g>'
        )

    def test_cached_groups_never_serve_a_row_fetch(self):
        """...and the other."""
        engine, _ = cdc_deployment(ITEM_ROWS, fragment_cache_bytes=300_000)
        engine.query(BY_GROUP)
        rows_query = f"WHERE {ITEMS}, $g = 0 CONSTRUCT <r k=$k>$v</r>"
        result = engine.query(rows_query)
        assert result.stats.remote_calls == 1
        assert rendered(result) == [
            '<r k="0">0</r>', '<r k="3">30</r>', '<r k="6">60</r>'
        ]

    def test_cached_groups_serve_the_same_grouped_fetch(self):
        engine, _ = cdc_deployment(ITEM_ROWS, fragment_cache_bytes=300_000)
        first = engine.query(BY_GROUP)
        second = engine.query(BY_GROUP)
        assert second.stats.remote_calls == 0
        assert second.stats.fragment_cache_hits == 1
        assert rendered(second) == rendered(first)

    def test_matches_refuses_groups_against_rows_both_ways(self):
        engine, _ = cdc_deployment(ITEM_ROWS)
        decomposed = engine._compile(BY_GROUP)
        rows = decomposed.units[0].fragment
        groups = decomposed.grouped[0].fragment
        assert matches(rows, groups) == (False, [])
        assert matches(groups, rows) == (False, [])
        assert matches(groups, groups) == (True, [])
        assert fragment_key(rows) != fragment_key(groups)
        other = engine._compile(
            f"WHERE {ITEMS} CONSTRUCT <g id=$g>max($v)</g>"
        ).grouped[0].fragment
        assert matches(groups, other) == (False, [])

    def test_apply_to_fragment_never_patches_groups(self):
        engine, source = cdc_deployment(ITEM_ROWS)
        groups = engine._compile(BY_GROUP).grouped[0].fragment
        held = KeyedRecords(list(source.execute(groups)))
        row = Record({"k": 100, "grp": 0, "v": 5})
        insert = ChangeRecord(1, "insert", "s", "t", key=100, row=row)
        assert apply_to_fragment(groups, held, insert, "k").decision == UNPATCHABLE
        by_key = engine._compile(
            f"WHERE {ITEMS} CONSTRUCT <g id=$k>sum($v)</g>"
        ).grouped[0].fragment
        update = ChangeRecord(3, "update", "s", "t", key=0, before=row,
                              row=Record({"k": 0, "grp": 0, "v": 77}))
        keyed = KeyedRecords(list(source.execute(by_key)))
        assert apply_to_fragment(by_key, keyed, update, "k").decision == UNPATCHABLE
        assert list(keyed) == list(source.execute(by_key))
        elsewhere = ChangeRecord(2, "insert", "s", "other", key=1, row=row)
        assert apply_to_fragment(groups, held, elsewhere, "k").decision == RETAINED
        bounded = engine._compile(
            f"WHERE {ITEMS}, $k < 50 CONSTRUCT <g id=$g>count($v)</g>"
        ).grouped[0].fragment
        assert apply_to_fragment(
            bounded, KeyedRecords([]), insert, "k"
        ).decision == EXCLUDED

    def test_stored_grouped_fragment_is_invalidated_not_patched(self):
        engine, source = cdc_deployment(ITEM_ROWS)
        assert engine.materialize_query_fragments(BY_GROUP) == 1
        stored = next(iter(engine.materializer.store))
        assert stored.fragment.grouping is not None
        assert engine.query(BY_GROUP).stats.remote_calls == 0
        source.update_row("t", 0, {"v": 1000})
        report = engine.sync_changes()
        assert report["store_patched"] == 0 and report["store_invalidated"] == 1
        after = engine.query(BY_GROUP)
        assert after.stats.remote_calls == 1
        assert rendered(after)[0].startswith('<g id="0"><n>3</n><total>1090<')

    def test_column_statistics_ignore_grouped_results(self):
        engine, _ = cdc_deployment(ITEM_ROWS, column_statistics=True)
        engine.query(BY_GROUP)
        assert engine.column_stats.tables == {}

    def test_maintained_by_group_view_still_refreshes_by_delta(self):
        engine, source = cdc_deployment(ITEM_ROWS,
                                        fragment_cache_bytes=300_000)
        view = engine.maintain_view("by_group")
        assert view.mode == "groups"
        assert len(view.units[0].records) == len(ITEM_ROWS)  # rows held
        source.insert_row("t", {"k": 100, "grp": 0, "v": 5})
        source.update_row("t", 1, {"v": 7})
        report = engine.sync_changes()
        assert report["views"] == {"by_group": "delta"}
        assert engine.incremental.views["by_group"].delta_refreshes == 1
        maintained = [serialize(e)
                      for e in engine.incremental.views["by_group"].elements]
        reference = NimbleEngine(engine.catalog, pushdown=False)
        assert maintained == rendered(reference.query(BY_GROUP))

    def test_rerun_shape_refreshes_from_held_rows(self):
        """ORDER BY sends a maintained aggregate view down the local
        re-run, whose context holds rows: it must not ask it for groups."""
        engine, source = cdc_deployment(ITEM_ROWS)
        schema = MediatedSchema("m2")
        schema.define(ViewDef.from_text("ranked", BY_GROUP + " ORDER BY $g DESC"))
        engine.catalog.add_schema(schema)
        view = engine.maintain_view("ranked")
        assert view.mode == "rows" and view.derived is None
        source.update_row("t", 2, {"v": 1})
        assert engine.sync_changes()["views"] == {"ranked": "delta"}
        reference = NimbleEngine(engine.catalog, pushdown=False)
        query = engine.catalog.resolve("ranked").query
        assert [serialize(e) for e in engine.incremental.views["ranked"].elements
                ] == rendered(reference.query(query))


class TestDegradedReads:
    def test_replica_rows_answer_a_grouped_fetch_when_the_source_is_down(self):
        fallbacks = FallbackRegistry()
        deployment = Deployment(ROWS, flaky=True, fallbacks=fallbacks)
        engine = deployment.engine
        rows_fragment = engine._compile(BY_A).units[0].fragment
        replica = list(deployment.source._execute(rows_fragment, {}))
        fallbacks.register(rows_fragment, lambda: replica)
        healthy = deployment.assert_pushed(BY_A)
        deployment.registered.force_offline()
        degraded = engine.query(BY_A)
        assert rendered(degraded) == rendered(healthy)
        assert degraded.completeness.stale_sources == ["db"]
        assert degraded.stats.stale_served == 1 and fallbacks.hits == 1


# -- legibility ----------------------------------------------------------------


class TestLegibility:
    def test_validate_fragment_rejects_grouping_without_the_capability(self):
        source = XMLSource("feed", {"d": "<d><r><a>1</a></r></d>"})
        deployment = Deployment(ROWS)
        grouped = deployment.engine._compile(BY_A).grouped[0].fragment
        with pytest.raises(CapabilityError, match="cannot group"):
            source.validate_fragment(grouped)
        deployment.source.validate_fragment(grouped)

    def test_sqlgen_rejects_unbound_grouping_variables(self):
        deployment = Deployment(ROWS)
        rows = deployment.engine._compile(BY_A).units[0].fragment
        from dataclasses import replace

        bad = replace(rows, grouping=Grouping(("zz",), (("count", "a", "n"),)))
        with pytest.raises(CapabilityError, match="does not bind"):
            generate_sql(bad)

    def test_grouped_estimate_never_exceeds_the_ungrouped_one(self):
        deployment = Deployment(ROWS)
        decomposed = deployment.engine._compile(BY_A)
        rows = decomposed.units[0].fragment
        groups = decomposed.grouped[0].fragment
        model = CostModel()
        assert (model.estimate_rows(groups, deployment.source)
                <= model.estimate_rows(rows, deployment.source))

        class Stats:
            distinct, nulls = 2, 1

        model.bind_column_stats(
            lambda fragment, var: Stats() if var == "a" else None
        )
        assert model.estimate_rows(groups, deployment.source) == 3.0
        assert model.estimate_rows(rows, deployment.source) == float(len(ROWS))


# -- the property: default engine == pushdown=False -----------------------------


if HAVE_HYPOTHESIS:
    INTS = st.one_of(st.none(), st.integers(-3, 3))
    REALS = st.one_of(
        st.none(),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    TEXTS = st.one_of(st.none(), st.sampled_from(["", "x", "y", "10", "2.5"]))
    T_ROWS = st.lists(st.tuples(INTS, REALS, TEXTS), max_size=14).map(
        lambda rows: [(i,) + row for i, row in enumerate(rows)]
    )
    # the join key of u is never NULL: SQL never joins NULL to NULL, the
    # mediator's hash join (pushdown=False joins there) does — a
    # difference older than, and apart from, aggregate pushdown
    U_ROWS = st.lists(st.tuples(st.integers(-3, 3), INTS), max_size=6).map(
        lambda rows: [(i,) + row for i, row in enumerate(rows)]
    )
    NUMERIC = {"k", "a", "b", "w"}
    PUSHABLE = ["$a > 0", "$a <= 2", "$b < 10.5", '$c = "x"',
                "$a < 0 OR $a > 1", "$k >= 3 AND $b >= 0"]
    RESIDUAL = ['contains($c, "x")', "length($c) < 2"]
    KINDS = ["count", "sum", "avg", "min", "max"]


def outcome(answer):
    """What ``answer()`` returns, or the type of the ReproError it raised
    (sum/avg over text that is not a number raises ExecutionError)."""
    try:
        return answer()
    except ReproError as error:
        return type(error)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestPushedEqualsMediatorProperty:
    @given(data=st.data() if HAVE_HYPOTHESIS else None)
    @settings(max_examples=120, deadline=None)
    def test_default_engine_equals_pushdown_false(self, data):
        joined = data.draw(st.booleans(), label="join")
        deployment = Deployment(
            data.draw(T_ROWS, label="t"),
            data.draw(U_ROWS, label="u") if joined else (),
        )
        available = ["k", "a", "b", "c"] + (["w"] if joined else [])
        group_vars = data.draw(
            st.lists(st.sampled_from(available), min_size=1, max_size=2,
                     unique=True), label="group vars")
        aggregates = data.draw(
            st.lists(
                st.tuples(st.sampled_from(KINDS), st.sampled_from(available),
                          st.booleans()),
                min_size=1, max_size=3), label="aggregates")
        conditions = data.draw(
            st.lists(st.sampled_from(PUSHABLE), max_size=2, unique=True),
            label="pushed conditions")
        residual = data.draw(
            st.lists(st.sampled_from(RESIDUAL), max_size=1), label="residual")
        order = data.draw(
            st.one_of(st.none(), st.sampled_from(available)), label="order by")
        limit = data.draw(st.one_of(st.none(), st.integers(1, 4)),
                          label="limit")

        attributes = " ".join(
            f"g{i}=${var}" for i, var in enumerate(group_vars[:1]))
        content = "".join(f"${var} " for var in group_vars[1:])
        for index, (kind, var, wrapped) in enumerate(aggregates):
            call = f"{kind}(${var})"
            content += f"<a{index}>{call}</a{index}>" if wrapped else f" {call} "
        unlimited = "WHERE " + ", ".join(
            [T_PATTERN] + ([U_PATTERN] if joined else []) + conditions + residual
        ) + f" CONSTRUCT <g {attributes}>{content}</g>"
        if order is not None:
            unlimited += f" ORDER BY ${order}"
        text = unlimited if limit is None else f"{unlimited} LIMIT {limit}"

        qualifies = (
            not residual
            and all(kind == "count" or var in NUMERIC
                    for kind, var, _ in aggregates)
            and (order is None or order in group_vars)
        )
        try:
            result, sql = deployment.run(text)
            got = rendered(result)
        except ReproError as error:
            result, got = None, type(error)
        assert got == outcome(
            lambda: deployment.grouped_at_the_mediator(unlimited, limit))
        if not joined:
            # a join the mediator runs orders its rows its own way, so
            # pushdown=False is the reference of one-access queries only
            assert got == outcome(lambda: deployment.expected(text))
        if result is None:
            assert got is ExecutionError and not qualifies, text
            return
        assert ("GROUP BY" in sql) == qualifies, (text, sql)
        if qualifies:
            groups = result.stats.rows_transferred
            assert len(result.elements) == (
                groups if limit is None else min(limit, groups)
            )

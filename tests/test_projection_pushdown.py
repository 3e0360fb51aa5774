"""End-to-end projection pushdown: decomposer, sources, cache, SQL.

The chain under test: the decomposer prunes each fragment's transferred
columns to the variables the rest of the query consumes; sources fetch
only those columns (visible in the generated SQL and the transfer
counters); the fragment cache and materializer understand that a
narrower column set is servable from a broader cached one — and project
the served records so a cache hit is indistinguishable from a source
fetch.
"""

from dataclasses import replace

import pytest

from repro.core import NimbleEngine
from repro.errors import CapabilityError
from repro.materialize.matching import fragment_key, matches, project_records
from repro.mediator.catalog import Catalog
from repro.optimizer.decomposer import decompose
from repro.query.binder import bind_query
from repro.query.parser import parse_query
from repro.simtime import SimClock
from repro.sources import NetworkModel, SourceRegistry, XMLSource
from repro.sources.relational import RelationalSource
from repro.sql import Database
from repro.xmldm import serialize
from repro.xmldm.values import Record


def build_crm():
    db = Database("crm")
    db.execute(
        "CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, "
        "city TEXT, tier INTEGER)"
    )
    db.insert_rows("customers", [
        (i, f"name-{i}", f"city-{i % 3}", i % 4) for i in range(10)
    ])
    return db


def build_deployment(**engine_kw):
    clock = SimClock()
    registry = SourceRegistry(clock)
    db = build_crm()
    source = RelationalSource(
        "crm", db, network=NetworkModel(latency_ms=10.0, per_row_ms=0.2)
    )
    registry.register(source)
    catalog = Catalog(registry)
    catalog.map_relation("customers", "crm", "customers")
    return NimbleEngine(catalog, **engine_kw), source, db


WIDE_PATTERN = (
    '<row><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></row>'
)
NARROW_QUERY = (
    f'WHERE {WIDE_PATTERN} IN "customers", $t > 1 '
    'CONSTRUCT <out>$n</out>'
)


def build_feed_engine(items, **engine_kw):
    """An XML feed of ``items`` three-field items, ``w`` the wide one."""
    registry = SourceRegistry(SimClock())
    document = "<r>" + "".join(
        f"<item><k>{i % 7}</k><v>{i}</v><w>pad-{i:04d}</w></item>"
        for i in range(items)
    ) + "</r>"
    registry.register(XMLSource(
        "feed", {"data": document},
        network=NetworkModel(latency_ms=10.0, per_row_ms=0.1),
    ))
    return NimbleEngine(Catalog(registry), **engine_kw)


def feed_narrow_query(threshold):
    """Reads one of the feed's three columns."""
    return (
        'WHERE <item><k>$k</k><v>$v</v><w>$w</w></item> IN "feed.data", '
        f'$v > {threshold} CONSTRUCT <out>$k</out>'
    )


class TestDecomposerPruning:
    def compile(self, query, catalog, projection):
        bound = bind_query(parse_query(query))
        return decompose(bound, catalog, projection=projection)

    def test_fragment_carries_consumed_columns_only(self):
        engine, _, _ = build_deployment()
        decomposed = self.compile(NARROW_QUERY, engine.catalog, True)
        fragment = decomposed.units[0].fragment
        # $t is consumed by the pushed condition only — the source
        # evaluates it before projecting, so it need not travel
        assert fragment.columns == ("n",)

    def test_projection_off_keeps_legacy_fragments(self):
        engine, _, _ = build_deployment()
        decomposed = self.compile(NARROW_QUERY, engine.catalog, False)
        fragment = decomposed.units[0].fragment
        assert fragment.columns == ()
        assert "|cols=" not in fragment_key(fragment)

    def test_residual_condition_keeps_its_column(self):
        engine, _, _ = build_deployment()
        # LIKE on a computed concat cannot push: $c must survive transfer
        query = (
            f'WHERE {WIDE_PATTERN} IN "customers", $c + $t = "x" '
            'CONSTRUCT <out>$n</out>'
        )
        decomposed = self.compile(query, engine.catalog, True)
        fragment = decomposed.units[0].fragment
        assert set(fragment.columns) >= {"n", "c", "t"}


class TestSourceProjection:
    def test_generated_sql_selects_the_subset(self):
        engine, source, _ = build_deployment(projection_pushdown=True)
        engine.query(NARROW_QUERY)
        assert source.last_sql is not None
        select_list = source.last_sql.split("FROM")[0]
        assert "name" in select_list
        assert "city" not in select_list

    def test_sql_scan_reads_only_projected_columns(self):
        engine, _, db = build_deployment(projection_pushdown=True)
        db.counters["columns_read"] = 0
        engine.query(NARROW_QUERY)
        decomposed = decompose(
            bind_query(parse_query(NARROW_QUERY)), engine.catalog,
            projection=True,
        )
        projected = decomposed.units[0].fragment.columns
        # the satellite contract: physical column reads equal the
        # projected width plus the pushed condition's column
        assert db.counters["columns_read"] == len(projected) + 1

    def test_transfer_counters_shrink(self):
        wide_engine, _, _ = build_deployment()
        narrow_engine, _, _ = build_deployment(projection_pushdown=True)
        wide = wide_engine.query(NARROW_QUERY)
        narrow = narrow_engine.query(NARROW_QUERY)
        assert ([serialize(e) for e in narrow.elements]
                == [serialize(e) for e in wide.elements])
        assert narrow.stats.values_transferred < wide.stats.values_transferred
        assert narrow.stats.bytes_transferred < wide.stats.bytes_transferred
        assert narrow.stats.rows_transferred == wide.stats.rows_transferred

    def test_pushdown_reduces_transfer_not_answers(self):
        query = feed_narrow_query(14)
        wide = build_feed_engine(60).query(query)
        narrow = build_feed_engine(60, projection_pushdown=True).query(query)
        assert ([serialize(e) for e in narrow.elements]
                == [serialize(e) for e in wide.elements])
        assert narrow.stats.bytes_transferred < wide.stats.bytes_transferred
        assert narrow.stats.values_transferred < wide.stats.values_transferred
        # the determinism contract is unaffected by the transfer counters
        assert narrow.stats.counters() == wide.stats.counters()

    def test_bytes_moved_reading_one_of_three_columns(self):
        """E15's surviving half, as exact counts: a 400-item feed, the
        query consuming one column of three."""
        query = feed_narrow_query(99)
        wide = build_feed_engine(400).query(query)
        narrow = build_feed_engine(400, projection_pushdown=True).query(query)
        assert ([serialize(e) for e in narrow.elements]
                == [serialize(e) for e in wide.elements])
        assert wide.stats.rows_transferred == 300
        assert (wide.stats.bytes_transferred,
                narrow.stats.bytes_transferred) == (18_900, 10_200)
        assert (wide.stats.values_transferred,
                narrow.stats.values_transferred) == (900, 300)

    def test_incapable_source_is_never_asked_to_project(self):
        engine, source, _ = build_deployment()
        decomposed = decompose(
            bind_query(parse_query(NARROW_QUERY)), engine.catalog,
            projection=True,
        )
        fragment = decomposed.units[0].fragment
        # shadow the class profile on the instance: no projections
        source.capabilities = replace(source.capabilities, projections=False)
        with pytest.raises(CapabilityError):
            source.execute(fragment)


class TestColumnAwareContainment:
    def fragments(self):
        engine, _, _ = build_deployment()
        broad = decompose(
            bind_query(parse_query(NARROW_QUERY)), engine.catalog,
        ).units[0].fragment
        narrow = decompose(
            bind_query(parse_query(NARROW_QUERY)), engine.catalog,
            projection=True,
        ).units[0].fragment
        return broad, narrow

    def test_keys_differ_but_broad_serves_narrow(self):
        broad, narrow = self.fragments()
        assert fragment_key(broad) != fragment_key(narrow)
        answers, residual = matches(broad, narrow)
        assert answers and residual == []

    def test_narrow_never_serves_broad(self):
        broad, narrow = self.fragments()
        answers, _ = matches(narrow, broad)
        assert not answers

    def test_project_records_matches_source_projection(self):
        _, narrow = self.fragments()
        records = [
            Record({"i": 1, "n": "a", "c": "x", "t": 2}),
            Record({"i": 2, "n": "b", "c": "y", "t": 3}),
        ]
        projected = project_records(records, narrow)
        assert all(set(r.fields) == set(narrow.columns) for r in projected)

    def test_cached_broad_fragment_answers_projected_query(self):
        engine, source, _ = build_deployment(
            fragment_cache_bytes=500_000, projection_pushdown=False
        )
        warm = engine.query(NARROW_QUERY)  # populates the broad entry
        engine.projection_pushdown = True
        engine._plan_cache.clear()
        calls_before = source.network.calls
        served = engine.query(NARROW_QUERY)
        assert source.network.calls == calls_before  # no remote fetch
        assert served.stats.containment_hits == 1
        assert ([serialize(e) for e in served.elements]
                == [serialize(e) for e in warm.elements])


class TestWireAccounting:
    def test_payload_bytes_are_deterministic(self):
        network = NetworkModel()
        rows = [Record({"a": 1, "b": "xy"}), Record({"a": 2, "b": "z"})]
        network.account_payload(rows)
        first = (network.bytes_transferred, network.values_transferred)
        network.reset_counters()
        network.account_payload(rows)
        assert (network.bytes_transferred, network.values_transferred) == first
        assert network.values_transferred == 4

    def test_accounting_never_advances_the_clock(self):
        clock = SimClock()
        network = NetworkModel()
        network.clock = clock
        before = clock.now
        network.account_payload([Record({"a": 1})])
        assert clock.now == before


class TestSqlColumnsRead:
    def build(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, "
            "city TEXT, tier INTEGER)"
        )
        db.insert_rows("t", [
            (i, f"n{i}", f"c{i % 3}", i % 4) for i in range(12)
        ])
        return db

    def test_projected_scan_reads_only_projected_columns(self):
        db = self.build()
        db.execute("SELECT name FROM t")
        assert db.counters["columns_read"] == 1

    def test_where_columns_count_too(self):
        db = self.build()
        db.execute("SELECT name FROM t WHERE tier = 2")
        assert db.counters["columns_read"] == 2

    def test_star_reads_everything(self):
        db = self.build()
        db.execute("SELECT * FROM t")
        assert db.counters["columns_read"] == 4

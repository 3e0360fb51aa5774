"""Behavioural coverage for remaining corners across subsystems."""

import datetime

import pytest

from repro.algebra import CallbackScan, Limit, Plan
from repro.core import DeviceFormatter, NimbleEngine
from repro.core.formatting import format_result
from repro.errors import SQLSyntaxError
from repro.sql import Database
from repro.xmldm import parse_element
from repro.xmldm.values import Record

from .conftest import scan


class TestSQLCorners:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute_script(
            """
            CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, amount REAL,
                            created DATE);
            INSERT INTO t VALUES
              (1, 'alpha', 10.5, '2001-01-15'),
              (2, 'beta', NULL, '2001-06-01'),
              (3, 'gamma', 30.0, '2002-03-20');
            """
        )
        return database

    def test_date_column_comparison(self, db):
        result = db.execute("SELECT name FROM t WHERE created > '2001-05-01'")
        assert {r[0] for r in result.rows} == {"beta", "gamma"}

    def test_date_function(self, db):
        value = db.execute("SELECT DATE('2001-01-15') FROM t WHERE id = 1").scalar()
        assert value == datetime.date(2001, 1, 15)

    def test_replace_round_nullif(self, db):
        row = db.execute(
            "SELECT REPLACE(name, 'a', 'o'), ROUND(amount, 1), "
            "NULLIF(name, 'alpha') FROM t WHERE id = 1"
        ).rows[0]
        assert row == ("olpho", 10.5, None)

    def test_in_with_null_operand(self, db):
        # NULL IN (...) is UNKNOWN: row filtered out, no error
        result = db.execute("SELECT id FROM t WHERE amount IN (10.5, 30.0)")
        assert {r[0] for r in result.rows} == {1, 3}

    def test_not_in_with_null_in_list(self, db):
        # x NOT IN (..., NULL) is never TRUE under three-valued logic
        result = db.execute("SELECT id FROM t WHERE id NOT IN (1, NULL)")
        assert result.rows == []

    def test_string_concat_operator(self, db):
        value = db.execute(
            "SELECT name || '-' || id FROM t WHERE id = 2"
        ).scalar()
        assert value == "beta-2"

    def test_update_with_params(self, db):
        db.execute("UPDATE t SET name = ? WHERE id = ?", ["renamed", 3])
        assert db.execute("SELECT name FROM t WHERE id = 3").scalar() == "renamed"

    def test_order_by_expression(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE amount IS NOT NULL ORDER BY amount * -1"
        )
        assert [r[0] for r in result.rows] == [3, 1]

    def test_limit_without_order(self, db):
        assert len(db.execute("SELECT id FROM t LIMIT 2")) == 2

    def test_quoted_identifier_table(self):
        db = Database()
        db.execute('CREATE TABLE "order" (id INTEGER)')
        db.execute('INSERT INTO "order" VALUES (1)')
        assert db.execute('SELECT COUNT(*) FROM "order"').scalar() == 1

    def test_empty_in_list_is_syntax_error(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT id FROM t WHERE id IN ()")

    def test_boolean_column_roundtrip(self):
        db = Database()
        db.execute("CREATE TABLE b (flag BOOLEAN)")
        db.execute("INSERT INTO b VALUES (TRUE), (FALSE)")
        assert db.execute(
            "SELECT COUNT(*) FROM b WHERE flag = TRUE"
        ).scalar() == 1


class TestAlgebraCorners:
    def test_limit_operator(self):
        out = list(Limit(scan("x", range(10)), 3))
        assert [r["x"] for r in out] == [0, 1, 2]

    def test_limit_zero(self):
        assert list(Limit(scan("x", range(5)), 0)) == []

    def test_limit_negative_rejected(self):
        with pytest.raises(ValueError):
            Limit(scan("x", []), -1)

    def test_plan_stream_is_lazy(self):
        consumed = []

        def items():
            for i in range(5):
                consumed.append(i)
                yield i

        plan = Plan(CallbackScan("x", items), "x")
        stream = plan.stream()
        next(stream)
        assert len(consumed) == 1


class TestFormattingCorners:
    def test_device_formatter_reuse(self):
        formatter = DeviceFormatter("text")
        first = formatter.render([parse_element("<a>1</a>")])
        second = formatter.render([parse_element("<b>2</b>")])
        assert first.startswith("a")
        assert second.startswith("b")

    def test_device_formatter_bad_device(self):
        from repro.errors import LensError

        with pytest.raises(LensError):
            DeviceFormatter("pager")

    def test_web_nested_elements(self):
        element = parse_element("<o><inner><deep>x</deep></inner></o>")
        rendered = format_result([element], "web")
        assert rendered.count("<dl>") == 3

    def test_wireless_multiple_results_one_line_each(self):
        elements = [parse_element("<a><x>1</x></a>"),
                    parse_element("<b><y>2</y></b>")]
        rendered = format_result(elements, "wireless")
        assert len(rendered.splitlines()) == 2

    def test_empty_result_sets(self):
        assert format_result([], "xml") == ""
        assert format_result([], "wireless") == ""
        assert "results" in format_result([], "web")


class TestEngineCorners:
    def test_pushdown_disabled_engine_same_answers(self, catalog):
        query = (
            'WHERE <c><id>$i</id><name>$n</name></c> IN "customers", '
            '<o><cust_id>$i</cust_id><total>$t</total></o> IN "orders", '
            "$t > 50 CONSTRUCT <r>$n</r>"
        )
        fast = NimbleEngine(catalog, pushdown=True).query(query)
        slow = NimbleEngine(catalog, pushdown=False).query(query)
        assert [e.text_content() for e in fast.elements] == [
            e.text_content() for e in slow.elements
        ]
        assert slow.stats.rows_transferred > fast.stats.rows_transferred

    def test_explain_view_plan(self, catalog):
        from repro.mediator.schema import MediatedSchema

        schema = MediatedSchema("s")
        schema.define_view(
            "v", 'WHERE <c><name>$n</name></c> IN "customers" CONSTRUCT <x>$n</x>'
        )
        catalog.add_schema(schema)
        engine = NimbleEngine(catalog)
        plan = engine.explain('WHERE <x>$n</x> IN "v" CONSTRUCT <r>$n</r>')
        assert "ViewMatch(v ~ <x $n>)" in plan

    def test_flwor_empty_source(self, catalog):
        engine = NimbleEngine(catalog)
        registry = catalog.registry
        from repro.sources import XMLSource

        registry.register(XMLSource("void", {"empty": "<nothing/>"}))
        catalog.map_relation("nothing", "void", "empty")
        result = engine.flwor_query(
            'FOR $x IN "nothing" RETURN <r>{$x}</r>'
        )
        assert result.elements == []
        assert result.completeness.complete

    def test_registry_counter_reset(self, catalog):
        engine = NimbleEngine(catalog)
        engine.query('WHERE <c><name>$n</name></c> IN "customers" CONSTRUCT <r>$n</r>')
        registry = catalog.registry
        assert registry.network_totals()["calls"] == 1
        registry.reset_network_counters()
        assert registry.network_totals() == {"calls": 0, "rows_transferred": 0}


class TestCleaningCorners:
    def test_value_pattern_mixed(self):
        from repro.cleaning.mining import value_pattern

        assert value_pattern("") == ""
        assert value_pattern("   ") == " "
        assert value_pattern("a1b2") == "A9A9"

    def test_duplicate_report_respects_limit(self):
        from repro.cleaning import FieldRule, RecordMatcher, jaro_winkler
        from repro.cleaning.mining import duplicate_report

        records = [Record({"id": str(i), "name": f"smith j{i}"}) for i in range(20)]
        matcher = RecordMatcher(
            [FieldRule("name", metric=jaro_winkler)],
            match_threshold=0.99,
            possible_threshold=0.5,
        )
        report = duplicate_report(records, matcher, "name", window=5, limit=3)
        assert len(report) == 3

    def test_normalize_street_idempotent(self):
        from repro.cleaning.normalize import normalize_street

        once = normalize_street("12 N Main St.")
        assert normalize_street(once) == once


class TestWorkloadCorners:
    def test_review_endpoint_returns_summary(self):
        from repro.workloads import make_website_workload

        workload = make_website_workload(4, seed=2)
        reviews = workload.registry.get("reviews")
        endpoint = reviews.endpoints["summary"]
        rows = list(endpoint.handler({"sku": workload.skus[0]}))
        assert "rating" in rows[0]
        assert "review_count" in rows[0]

    def test_unknown_sku_gets_zero_reviews(self):
        from repro.workloads import make_website_workload

        workload = make_website_workload(4, seed=2)
        endpoint = workload.registry.get("reviews").endpoints["summary"]
        rows = list(endpoint.handler({"sku": "SKU-NOPE"}))
        assert rows[0]["review_count"] == 0

"""End-to-end behavioural tests for the SQL engine."""

import pytest

from repro.errors import (
    ExecutionError,
    PlanningError,
    SQLIntegrityError,
    SQLSchemaError,
)
from repro.sql import Database
from repro.sql.executor import like_match


@pytest.fixture
def db():
    database = Database("test")
    database.execute_script(
        """
        CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, city TEXT,
                                tier INTEGER);
        CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust_id INTEGER,
                             total REAL, status TEXT);
        CREATE INDEX idx_city ON customers (city);
        INSERT INTO customers VALUES
          (1,'Ann','Seattle',1),(2,'Bob','Portland',2),
          (3,'Cam','Seattle',1),(4,'Dee','Boise',3);
        INSERT INTO orders VALUES
          (10,1,99.5,'open'),(11,1,15.0,'closed'),(12,2,42.0,'open'),
          (13,3,7.25,'open'),(14,9,1.0,'open');
        """
    )
    return database


class TestSelect:
    def test_projection_and_filter(self, db):
        result = db.execute("SELECT name FROM customers WHERE tier = 1 ORDER BY name")
        assert result.rows == [("Ann",), ("Cam",)]

    def test_star_expansion(self, db):
        result = db.execute("SELECT * FROM customers WHERE id = 4")
        assert result.columns == ("id", "name", "city", "tier")
        assert result.rows == [(4, "Dee", "Boise", 3)]

    def test_expression_select_item(self, db):
        result = db.execute("SELECT total * 2 AS double FROM orders WHERE oid = 10")
        assert result.scalar() == 199.0
        assert result.columns == ("double",)

    def test_string_concat(self, db):
        result = db.execute(
            "SELECT name || '@' || city FROM customers WHERE id = 1"
        )
        assert result.scalar() == "Ann@Seattle"

    def test_in_list(self, db):
        result = db.execute("SELECT name FROM customers WHERE id IN (1, 4)")
        assert {r[0] for r in result.rows} == {"Ann", "Dee"}

    def test_between(self, db):
        result = db.execute("SELECT COUNT(*) FROM orders WHERE total BETWEEN 5 AND 50")
        assert result.scalar() == 3

    def test_like(self, db):
        result = db.execute("SELECT name FROM customers WHERE city LIKE 'Se%'")
        assert len(result) == 2

    def test_is_null_behaviour(self, db):
        db.execute("INSERT INTO customers VALUES (5, 'Eve', NULL, NULL)")
        assert db.execute(
            "SELECT name FROM customers WHERE city IS NULL"
        ).rows == [("Eve",)]
        # NULL never matches an equality
        assert ("Eve",) not in db.execute(
            "SELECT name FROM customers WHERE city = 'Seattle'"
        ).rows

    def test_not(self, db):
        result = db.execute("SELECT COUNT(*) FROM customers WHERE NOT tier = 1")
        assert result.scalar() == 2

    def test_order_by_desc_and_alias(self, db):
        result = db.execute(
            "SELECT name, tier AS level FROM customers ORDER BY level DESC, name"
        )
        assert result.rows[0] == ("Dee", 3)

    def test_order_by_position(self, db):
        result = db.execute("SELECT name FROM customers ORDER BY 1 DESC")
        assert result.rows[0] == ("Dee",)

    def test_limit_offset(self, db):
        result = db.execute("SELECT name FROM customers ORDER BY id LIMIT 2 OFFSET 1")
        assert result.rows == [("Bob",), ("Cam",)]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT city FROM customers")
        assert len(result) == 3

    def test_params(self, db):
        result = db.execute("SELECT name FROM customers WHERE id = ?", [3])
        assert result.scalar() == "Cam"

    def test_missing_param_errors(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT name FROM customers WHERE id = ?")

    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0 FROM customers WHERE id = 1").scalar() is None

    def test_scalar_functions(self, db):
        row = db.execute(
            "SELECT UPPER(name), LENGTH(city), SUBSTR(city, 1, 3) "
            "FROM customers WHERE id = 1"
        ).rows[0]
        assert row == ("ANN", 7, "Sea")

    def test_coalesce(self, db):
        db.execute("INSERT INTO customers VALUES (6, 'Fay', NULL, 1)")
        assert db.execute(
            "SELECT COALESCE(city, 'unknown') FROM customers WHERE id = 6"
        ).scalar() == "unknown"


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT c.name, o.total FROM customers c JOIN orders o"
            " ON c.id = o.cust_id ORDER BY o.oid"
        )
        assert result.rows[0] == ("Ann", 99.5)
        assert len(result) == 4  # order 14 has no matching customer

    def test_left_join_nulls(self, db):
        result = db.execute(
            "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o"
            " ON c.id = o.cust_id WHERE o.oid IS NULL"
        )
        assert result.rows == [("Dee", None)]

    def test_join_with_residual_condition(self, db):
        result = db.execute(
            "SELECT c.name FROM customers c JOIN orders o"
            " ON c.id = o.cust_id AND o.total > 50"
        )
        assert result.rows == [("Ann",)]

    def test_cross_join(self, db):
        result = db.execute("SELECT COUNT(*) FROM customers, orders")
        assert result.scalar() == 20

    def test_three_way_join(self, db):
        db.execute_script(
            "CREATE TABLE regions (city TEXT, region TEXT);"
            "INSERT INTO regions VALUES ('Seattle','WA'),('Portland','OR');"
        )
        result = db.execute(
            "SELECT DISTINCT r.region FROM customers c"
            " JOIN orders o ON c.id = o.cust_id"
            " JOIN regions r ON c.city = r.city ORDER BY r.region"
        )
        assert result.rows == [("OR",), ("WA",)]

    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.name, b.name FROM customers a JOIN customers b"
            " ON a.city = b.city WHERE a.id < b.id"
        )
        assert result.rows == [("Ann", "Cam")]

    def test_where_pushed_into_join(self, db):
        result = db.execute(
            "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id"
            " WHERE o.status = 'closed'"
        )
        assert result.rows == [("Ann",)]


class TestAggregates:
    def test_global_aggregates(self, db):
        row = db.execute(
            "SELECT COUNT(*), SUM(total), MIN(total), MAX(total) FROM orders"
        ).rows[0]
        assert row == (5, 164.75, 1.0, 99.5)

    def test_avg(self, db):
        assert db.execute("SELECT AVG(tier) FROM customers").scalar() == 1.75

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT city) FROM customers").scalar() == 3

    def test_aggregates_skip_nulls(self, db):
        db.execute("INSERT INTO orders VALUES (15, 1, NULL, 'open')")
        assert db.execute("SELECT COUNT(total) FROM orders").scalar() == 5
        assert db.execute("SELECT SUM(total) FROM orders").scalar() == 164.75

    def test_empty_input_aggregates(self, db):
        row = db.execute(
            "SELECT COUNT(*), SUM(total) FROM orders WHERE oid > 1000"
        ).rows[0]
        assert row == (0, None)

    def test_group_by_having(self, db):
        result = db.execute(
            "SELECT cust_id, COUNT(*) AS n FROM orders GROUP BY cust_id"
            " HAVING COUNT(*) > 1"
        )
        assert result.rows == [(1, 2)]

    def test_group_by_orders_by_aggregate(self, db):
        result = db.execute(
            "SELECT status, SUM(total) AS t FROM orders GROUP BY status"
            " ORDER BY t DESC"
        )
        assert result.rows[0][0] == "open"

    def test_aggregate_outside_group_context_raises(self, db):
        with pytest.raises((ExecutionError, PlanningError)):
            db.execute("SELECT name FROM customers WHERE COUNT(*) > 1")

    def test_having_without_group_is_rejected(self, db):
        from repro.errors import SQLSyntaxError

        with pytest.raises((PlanningError, SQLSyntaxError)):
            db.execute("SELECT name FROM customers HAVING name = 'Ann'")


class TestErrorContract:
    """Only ``repro.errors`` types escape: the operator or aggregate and
    the operand are named, never a bare ``TypeError``."""

    @pytest.mark.parametrize("statement, named", [
        ("SELECT SUM(name) FROM customers", "SUM"),
        ("SELECT AVG(name) FROM customers", "AVG"),
        ("SELECT -name FROM customers", "unary '-'"),
        ("SELECT city, SUM(name) FROM customers GROUP BY city", "SUM"),
        ("SELECT MAX(tier + name) FROM customers", "'+'"),
    ])
    def test_type_errors_are_execution_errors(self, db, statement, named):
        with pytest.raises(ExecutionError, match="Ann") as raised:
            db.execute(statement)
        assert named in str(raised.value)

    @pytest.mark.parametrize("aggregate", ["MIN", "MAX"])
    def test_min_max_over_incomparable_values(self, db, aggregate):
        # COALESCE mixes the TEXT name with the INTEGER tier
        db.execute("UPDATE customers SET name = NULL WHERE id = 2")
        with pytest.raises(ExecutionError, match=f"{aggregate} cannot compare"):
            db.execute(f"SELECT {aggregate}(COALESCE(name, tier)) FROM customers")

    def test_distinct_sum_over_text(self, db):
        with pytest.raises(ExecutionError, match="SUM"):
            db.execute("SELECT SUM(DISTINCT city) FROM customers")

    def test_errors_wait_for_a_row(self, db):
        """A statement over no rows fails exactly when interpreting it
        row by row would have: not at all."""
        assert db.execute(
            "SELECT -name, nosuch(name), ghost FROM customers WHERE id > 99"
        ).rows == []


class TestCompiledEvaluator:
    def test_evaluate_is_compile_then_call(self):
        from repro.sql import ast
        from repro.sql.executor import Evaluator, Row

        evaluator = Evaluator((7,))
        expr = ast.BinaryOp("+", ast.ColumnRef("a", "t"), ast.Param(0))
        row = Row({"t": {"a": 3}})
        assert evaluator.compile(expr)(row) == evaluator.evaluate(expr, row) == 10

    def test_one_closure_serves_every_row(self):
        from repro.sql import ast
        from repro.sql.executor import Evaluator, Row

        unqualified = Evaluator().compile(
            ast.BinaryOp("<", ast.ColumnRef("a"), ast.Literal(2.5))
        )
        assert [unqualified(Row({"t": {"a": value}}))
                for value in (1, 3, None, 2.5)] == [True, False, None, False]

    def test_aggregate_arguments_are_evaluated_once_per_row(self, db):
        calls = []
        from repro.sql import functions

        original = functions.SCALAR_FUNCTIONS["ABS"]
        functions.SCALAR_FUNCTIONS["ABS"] = (
            lambda value: calls.append(value) or original(value)
        )
        try:
            row = db.execute(
                "SELECT SUM(ABS(total)), AVG(ABS(total)), MAX(ABS(total)),"
                " COUNT(*) FROM orders"
            ).rows[0]
        finally:
            functions.SCALAR_FUNCTIONS["ABS"] = original
        assert row == (164.75, 32.95, 99.5, 5)
        assert len(calls) == 5

    def test_statement_text_is_parsed_once(self, db, monkeypatch):
        from repro.errors import SQLSyntaxError
        from repro.sql import database

        parses = []
        original = database.parse_statement
        monkeypatch.setattr(
            database, "parse_statement",
            lambda sql: parses.append(sql) or original(sql),
        )
        database._parse_once.cache_clear()
        text = "SELECT name FROM customers WHERE id = ?"
        assert db.execute(text, [1]).scalar() == "Ann"
        assert db.execute(text, [2]).scalar() == "Bob"
        assert db.explain(text)
        assert parses == [text]
        # planning stays per call: a new index is picked up
        db.execute("CREATE INDEX idx_name ON customers (name)")
        by_name = "SELECT id FROM customers WHERE name = 'Cam'"
        assert "IndexScan" in db.explain(by_name)
        # a parse error is raised every time, never remembered
        for _ in range(2):
            with pytest.raises(SQLSyntaxError):
                db.execute("SELEKT 1")
        assert parses.count("SELEKT 1") == 2
        assert database._parse_once.cache_info().maxsize == 512


class TestDML:
    def test_update_with_expression(self, db):
        db.execute("UPDATE orders SET total = total + 1 WHERE status = 'open'")
        assert db.execute("SELECT total FROM orders WHERE oid = 10").scalar() == 100.5
        assert db.execute("SELECT total FROM orders WHERE oid = 11").scalar() == 15.0

    def test_delete_with_filter(self, db):
        db.execute("DELETE FROM orders WHERE total < 10")
        assert db.execute("SELECT COUNT(*) FROM orders").scalar() == 3

    def test_delete_all(self, db):
        db.execute("DELETE FROM orders")
        assert db.execute("SELECT COUNT(*) FROM orders").scalar() == 0

    def test_insert_into_named_columns(self, db):
        db.execute("INSERT INTO customers (id, name) VALUES (9, 'Zoe')")
        assert db.execute("SELECT city FROM customers WHERE id = 9").scalar() is None

    def test_pk_violation_via_sql(self, db):
        with pytest.raises(SQLIntegrityError):
            db.execute("INSERT INTO customers VALUES (1, 'Dup', 'X', 1)")


class TestCatalogAndErrors:
    def test_unknown_table(self, db):
        with pytest.raises(SQLSchemaError):
            db.execute("SELECT * FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT nope FROM customers")

    def test_ambiguous_column(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "SELECT city FROM customers a JOIN customers b ON a.id = b.id"
            )

    def test_drop_table(self, db):
        db.execute("DROP TABLE orders")
        assert "orders" not in db.table_names()

    def test_row_count_and_distinct(self, db):
        assert db.row_count("customers") == 4
        assert db.distinct_count("customers", "city") == 3

    def test_dicts_helper(self, db):
        rows = db.execute("SELECT id, name FROM customers WHERE id = 1").dicts()
        assert rows == [{"id": 1, "name": "Ann"}]


class TestPlanner:
    def test_equality_uses_index(self, db):
        plan = db.explain("SELECT name FROM customers WHERE city = 'Seattle'")
        assert "IndexScan" in plan

    def test_pk_lookup_uses_index(self, db):
        plan = db.explain("SELECT name FROM customers WHERE id = 1")
        assert "IndexScan" in plan

    def test_range_uses_sorted_index(self, db):
        plan = db.explain("SELECT name FROM customers WHERE city > 'P'")
        assert "range" in plan

    def test_no_index_means_seq_scan(self, db):
        plan = db.explain("SELECT name FROM customers WHERE tier = 1")
        assert "SeqScan" in plan

    def test_equi_join_uses_hash_join(self, db):
        plan = db.explain(
            "SELECT * FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert "HashJoin" in plan

    def test_non_equi_join_uses_nested_loop(self, db):
        plan = db.explain(
            "SELECT * FROM customers c JOIN orders o ON c.id < o.cust_id"
        )
        assert "NestedLoopJoin" in plan

    def test_index_scan_reduces_rows_scanned(self, db):
        db.counters["rows_scanned"] = 0
        db.execute("SELECT name FROM customers WHERE city = 'Boise'")
        indexed = db.counters["rows_scanned"]
        db.counters["rows_scanned"] = 0
        db.execute("SELECT name FROM customers WHERE tier = 3")
        scanned = db.counters["rows_scanned"]
        assert indexed < scanned


class TestLikeMatcher:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("hello", "h%", True),
            ("hello", "%o", True),
            ("hello", "h_llo", True),
            ("hello", "H%", False),
            ("a.b", "a.b", True),
            ("axb", "a.b", False),
            ("", "%", True),
        ],
    )
    def test_like(self, value, pattern, expected):
        assert like_match(value, pattern) is expected

"""The Database facade: DDL, DML, queries, statistics and accounting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SQLSchemaError
from repro.sql import ast
from repro.sql.executor import Evaluator, Row
from repro.sql.parser import parse_script, parse_statement
from repro.sql.planner import Planner, PreparedSelect
from repro.sql.schema import Column, TableSchema
from repro.sql.storage import Table
from repro.sql.types import SQLType, sort_key


@dataclass
class ResultSet:
    """A query result: column names and a list of row tuples."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as name->value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]


class Database:
    """An in-memory SQL database.

    >>> db = Database("crm")
    >>> db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
    ResultSet(columns=(), rows=[])
    >>> db.execute("INSERT INTO t VALUES (1, 'Ann')")
    ResultSet(columns=(), rows=[])
    >>> db.execute("SELECT name FROM t WHERE id = 1").scalar()
    'Ann'

    ``counters`` tracks ``rows_scanned``, ``columns_read`` (how many
    columns each scan materialized — projection pushdown shrinks it)
    and ``statements`` so callers (the wrapper layer, benchmark E5) can
    observe how much physical work each statement did.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: dict[str, Table] = {}
        self.counters: dict[str, int] = {
            "rows_scanned": 0,
            "columns_read": 0,
            "statements": 0,
        }

    # -- catalog -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SQLSchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SQLSchemaError(f"unknown table {name!r}")
        del self.tables[name]

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SQLSchemaError(f"unknown table {name!r}")
        return table

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    # -- statistics ------------------------------------------------------------

    def row_count(self, table_name: str) -> int:
        return self.table(table_name).row_count

    def distinct_count(self, table_name: str, column: str) -> int:
        """Exact distinct-value count (the catalog samples this for costs)."""
        table = self.table(table_name)
        position = table.schema.column_index(column)
        return len({row[position] for _, row in table.scan()})

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse (once per statement text) and run one statement."""
        return self.execute_statement(_parse_once(sql), params)

    def execute_script(self, sql: str) -> None:
        """Run a ';'-separated script (DDL/DML, results discarded)."""
        for statement in parse_script(sql):
            self.execute_statement(statement, ())

    def execute_statement(
        self, statement: ast.Statement, params: Sequence[Any] = ()
    ) -> ResultSet:
        self.counters["statements"] += 1
        if isinstance(statement, ast.SelectStmt):
            return self._run_select(statement, tuple(params))
        evaluator = Evaluator(tuple(params))
        if isinstance(statement, ast.InsertStmt):
            return self._run_insert(statement, evaluator)
        if isinstance(statement, ast.UpdateStmt):
            return self._run_update(statement, evaluator)
        if isinstance(statement, ast.DeleteStmt):
            return self._run_delete(statement, evaluator)
        if isinstance(statement, ast.CreateTableStmt):
            return self._run_create_table(statement)
        if isinstance(statement, ast.CreateIndexStmt):
            self.table(statement.table).create_index(statement.name, statement.column)
            return ResultSet((), [])
        if isinstance(statement, ast.DropTableStmt):
            self.drop_table(statement.table)
            return ResultSet((), [])
        raise SQLSchemaError(f"unsupported statement {type(statement).__name__}")

    def explain(self, sql: str) -> str:
        """Return the physical plan for a SELECT as indented text."""
        statement = _parse_once(sql)
        if not isinstance(statement, ast.SelectStmt):
            raise SQLSchemaError("EXPLAIN supports only SELECT")
        prepared = Planner(self.tables, self.counters).plan(statement)
        return prepared.root.explain()

    # -- statement runners ---------------------------------------------------------

    def _run_select(self, stmt: ast.SelectStmt, params: tuple) -> ResultSet:
        prepared: PreparedSelect = Planner(self.tables, self.counters).plan(stmt)
        evaluator = Evaluator(params, prepared.aggregate_calls)
        outputs = [evaluator.compile(expr) for expr in prepared.output_exprs]
        rows = [
            tuple([output(row) for output in outputs])
            for row in prepared.root.rows(evaluator)
        ]
        if prepared.distinct:
            rows = _distinct(rows)
        return ResultSet(prepared.column_names, rows)

    def _run_insert(self, stmt: ast.InsertStmt, evaluator: Evaluator) -> ResultSet:
        table = self.table(stmt.table)
        empty = Row({})
        for row_exprs in stmt.rows:
            values = [evaluator.evaluate(expr, empty) for expr in row_exprs]
            if stmt.columns:
                if len(values) != len(stmt.columns):
                    raise SQLSchemaError(
                        f"INSERT column/value count mismatch for {stmt.table!r}"
                    )
                table.insert_named(dict(zip(stmt.columns, values)))
            else:
                table.insert(values)
        return ResultSet((), [])

    def _run_update(self, stmt: ast.UpdateStmt, evaluator: Evaluator) -> ResultSet:
        table = self.table(stmt.table)
        names = table.schema.column_names
        assignments = [
            (column, evaluator.compile(expr))
            for column, expr in stmt.assignments
        ]
        for rowid in self._matching_rowids(stmt.table, stmt.where, evaluator):
            values = table.get(rowid)
            assert values is not None
            row = Row({stmt.table: dict(zip(names, values))})
            table.update(
                rowid, {column: value(row) for column, value in assignments}
            )
        return ResultSet((), [])

    def _run_delete(self, stmt: ast.DeleteStmt, evaluator: Evaluator) -> ResultSet:
        table = self.table(stmt.table)
        for rowid in self._matching_rowids(stmt.table, stmt.where, evaluator):
            table.delete(rowid)
        return ResultSet((), [])

    def _matching_rowids(self, table_name: str, where: ast.Expr | None,
                         evaluator: Evaluator) -> list[int]:
        """Rowids WHERE keeps, collected before any of them is touched."""
        table = self.table(table_name)
        if where is None:
            return [rowid for rowid, _ in table.scan()]
        names = table.schema.column_names
        keep = evaluator.compile(where)
        return [
            rowid for rowid, values in table.scan()
            if keep(Row({table_name: dict(zip(names, values))})) is True
        ]

    def _run_create_table(self, stmt: ast.CreateTableStmt) -> ResultSet:
        columns = tuple(
            Column(
                definition.name,
                SQLType.from_name(definition.type_name),
                nullable=definition.nullable,
                primary_key=definition.primary_key,
            )
            for definition in stmt.columns
        )
        self.create_table(TableSchema(stmt.table, columns))
        return ResultSet((), [])

    # -- bulk loading -----------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Fast-path bulk insert bypassing the parser; returns count."""
        table = self.table(table_name)
        count = 0
        for row in rows:
            table.insert(row)
            count += 1
        return count


@lru_cache(maxsize=512)
def _parse_once(sql: str) -> ast.Statement:
    """The statement tree of ``sql``, shared by every execution of that
    text: the AST is frozen dataclasses all the way down, so sharing is
    safe, and a parse error raises without being remembered.  Planning
    stays per call — it reads the live indexes."""
    return parse_statement(sql)


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set[tuple] = set()
    unique: list[tuple] = []
    for row in rows:
        key = tuple(sort_key(value) for value in row)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique

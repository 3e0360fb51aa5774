"""Wrapper for relational sources backed by the embedded SQL engine."""

from __future__ import annotations

from typing import Any, Iterable

from repro.sources.base import CapabilityProfile, DataSource, Fragment, NetworkModel
from repro.sources.sqlgen import generate_sql
from repro.simtime import SimClock
from repro.sql.database import Database
from repro.sql.types import SQLType
from repro.xmldm.schema import Field, RecordType
from repro.xmldm.values import NULL, Record

_SQL_TO_MODEL = {
    SQLType.INTEGER: "number",
    SQLType.REAL: "number",
    SQLType.TEXT: "string",
    SQLType.BOOLEAN: "boolean",
    SQLType.DATE: "date",
}


class RelationalSource(DataSource):
    """A remote RDB: full pushdown capabilities, SQL on the wire.

    The wrapper compiles each fragment to SQL with
    :func:`repro.sources.sqlgen.generate_sql`, runs it on the embedded
    engine, and returns records keyed by the fragment's variables.  The
    last statement sent is kept on ``last_sql`` so tests and benchmarks
    can assert what was pushed.
    """

    capabilities = CapabilityProfile(
        selections=True,
        projections=True,
        joins=True,
        aggregates=True,
        parameterized=True,
        typed_comparisons=True,
    )

    def __init__(
        self,
        name: str,
        database: Database,
        clock: SimClock | None = None,
        network: NetworkModel | None = None,
    ):
        super().__init__(name, clock, network)
        self.database = database
        self.last_sql: str | None = None

    def relations(self) -> dict[str, RecordType]:
        exported: dict[str, RecordType] = {}
        for table_name in self.database.table_names():
            schema = self.database.table(table_name).schema
            exported[table_name] = RecordType(
                table_name,
                tuple(
                    Field(column.name, _SQL_TO_MODEL[column.type], column.nullable)
                    for column in schema.columns
                ),
            )
        return exported

    def cardinality(self, relation: str) -> int:
        return self.database.row_count(relation)

    def _fetch_all(self, relation: str):
        result = self.database.execute(f"SELECT * FROM {relation}")
        for row in result.rows:
            yield Record(
                {
                    name: (NULL if value is None else value)
                    for name, value in zip(result.columns, row)
                }
            )

    def _execute(self, fragment: Fragment, params: dict[str, Any]) -> Iterable[Record]:
        generated = generate_sql(fragment)
        self.last_sql = generated.text
        result = self.database.execute(generated.text, generated.bind(params))
        for row in result.rows:
            yield Record(
                {
                    name: (NULL if value is None else value)
                    for name, value in zip(result.columns, row)
                }
            )

    # -- mutation (the capture half of CDC) --------------------------------

    def enable_cdc(self, keys=None):
        """Attach a change feed; primary keys are declared automatically.

        Consumers of the feed (scoped cache invalidation, incremental
        view maintenance) decide what they can do by asking the
        changelog for a relation's key field, so every table with a
        primary key declares it up front; explicit ``keys`` override.
        """
        log = super().enable_cdc(keys)
        for relation in self.database.table_names():
            if log.key_field(relation) is None:
                pk = self.database.table(relation).schema.primary_key
                if pk is not None:
                    log.declare_key(relation, pk.name)
        return log

    def _key_field(self, relation: str) -> str | None:
        """CDC-declared key first, else the table's primary key."""
        if self.changelog is not None:
            declared = self.changelog.key_field(relation)
            if declared is not None:
                return declared
        pk = self.database.table(relation).schema.primary_key
        return pk.name if pk is not None else None

    def _row_record(self, relation: str, row: tuple) -> Record:
        names = self.database.table(relation).schema.column_names
        return Record(
            {
                name: (NULL if value is None else value)
                for name, value in zip(names, row)
            }
        )

    def _find_rowid(self, relation: str, key: Any) -> tuple[int, tuple] | None:
        table = self.database.table(relation)
        key_field = self._key_field(relation)
        if key_field is None:
            return None
        index = table.schema.column_index(key_field)
        for rowid, row in table.scan():
            if row[index] == key:
                return rowid, row
        return None

    def insert_row(self, relation: str, values: dict[str, Any]) -> None:
        """Insert one named row, emitting an ``insert`` change record."""
        table = self.database.table(relation)
        rowid = table.insert_named(values)
        if self.changelog is None:
            return
        key_field = self._key_field(relation)
        if key_field is None:
            self.changelog.emit_reset(relation)
            return
        row = self._row_record(relation, table.get(rowid))
        self.changelog.emit("insert", relation, key=row.get(key_field),
                            row=row)

    def update_row(self, relation: str, key: Any,
                   changes: dict[str, Any]) -> None:
        """Update the row keyed ``key``, emitting an ``update`` record."""
        found = self._find_rowid(relation, key)
        if found is None:
            raise KeyError(f"{relation!r} has no row with key {key!r}")
        rowid, old_row = found
        table = self.database.table(relation)
        table.update(rowid, changes)
        if self.changelog is None:
            return
        before = self._row_record(relation, old_row)
        after = self._row_record(relation, table.get(rowid))
        key_field = self._key_field(relation)
        if after.get(key_field) != before.get(key_field):
            # a key change is a delete plus an insert in delta terms;
            # keep it simple and force derived state to rebuild
            self.changelog.emit_reset(relation)
            return
        self.changelog.emit("update", relation, key=key, row=after,
                            before=before)

    def delete_row(self, relation: str, key: Any) -> None:
        """Delete the row keyed ``key``, emitting a ``delete`` record."""
        found = self._find_rowid(relation, key)
        if found is None:
            raise KeyError(f"{relation!r} has no row with key {key!r}")
        rowid, old_row = found
        self.database.table(relation).delete(rowid)
        if self.changelog is None:
            return
        before = self._row_record(relation, old_row)
        self.changelog.emit("delete", relation, key=key, before=before)

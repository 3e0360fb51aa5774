"""Translate query fragments into SQL for relational sources.

"The compiler translates each fragment into the appropriate query
language for the destination source; for example, if an RDB is being
queried, then the compiler generates SQL" (section 2.1).  A fragment's
accesses become FROM entries, shared variables become join predicates,
pattern literals and pushed conditions become the WHERE clause, and the
pattern's variables become the SELECT list (aliased by variable name so
results bind directly).  A fragment's grouping becomes ``GROUP BY``
over the grouping variables' columns, with one aggregate call per
``(kind, var, out_var)`` aliased by its out variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import CapabilityError
from repro.query import ast as qast
from repro.sources.base import Fragment


@dataclass
class GeneratedSQL:
    """The compilation result: statement text plus parameter order."""

    text: str
    #: the fragment input variables in ``?`` placeholder order
    param_order: tuple[str, ...]

    def bind(self, params: dict[str, Any]) -> list[Any]:
        missing = [v for v in self.param_order if v not in params]
        if missing:
            raise CapabilityError(f"missing fragment parameters: {missing}")
        return [params[v] for v in self.param_order]


def generate_sql(fragment: Fragment) -> GeneratedSQL:
    """Compile a fragment to one SELECT statement."""
    generator = _Generator(fragment)
    return generator.build()


class _Generator:
    def __init__(self, fragment: Fragment):
        self.fragment = fragment
        #: var -> (alias, column); first binding wins, later ones join
        self.var_columns: dict[str, tuple[str, str]] = {}
        self.joins: list[str] = []
        self.where: list[str] = []
        self.params: list[str] = []

    def build(self) -> GeneratedSQL:
        from_parts: list[str] = []
        for index, access in enumerate(self.fragment.accesses):
            alias = f"t{index}"
            from_parts.append(f"{access.relation} {alias}")
            self._bind_pattern(access.pattern, alias)
        grouping = self.fragment.grouping
        if grouping is not None:
            group_parts = [self._column(var) for var in grouping.group_vars]
            select_parts = [
                f"{part} AS {var}"
                for part, var in zip(group_parts, grouping.group_vars)
            ] + [
                f"{kind.upper()}({self._column(var)}) AS {out_var}"
                for kind, var, out_var in grouping.aggregates
            ]
        else:
            # projection pushdown: SELECT only the requested columns; the
            # full var map stays so joins and conditions may still
            # reference pruned variables (evaluated before projection)
            wanted = set(self.fragment.columns)
            select_parts = [
                f"{alias}.{column} AS {var}"
                for var, (alias, column) in self.var_columns.items()
                if not wanted or var in wanted
            ]
        if not select_parts:
            raise CapabilityError("fragment binds no variables")
        for condition in self.fragment.conditions:
            self.where.append(self._expr(condition))
        where_parts = self.joins + self.where
        sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        if grouping is not None and group_parts:
            sql += " GROUP BY " + ", ".join(group_parts)
        return GeneratedSQL(sql, tuple(self.params))

    def _column(self, var: str) -> str:
        if var not in self.var_columns:
            raise CapabilityError(
                f"fragment groups or aggregates ${var}, which it does not bind"
            )
        alias, column = self.var_columns[var]
        return f"{alias}.{column}"

    def _bind_pattern(self, pattern, alias: str) -> None:
        """Map a flat access pattern onto columns of one table."""
        for attribute in pattern.attributes:
            if attribute.var is not None:
                self._bind_var(attribute.var, alias, attribute.name)
            elif attribute.literal is not None:
                self.where.append(
                    f"{alias}.{attribute.name} = {_sql_literal(attribute.literal)}"
                )
        for child in pattern.children:
            if child.children or child.attributes:
                raise CapabilityError(
                    "relational fragments accept only flat patterns "
                    f"(nested pattern under <{child.tag}>)"
                )
            if child.text_var is not None:
                self._bind_var(child.text_var, alias, child.tag)
            if child.text_literal is not None:
                self.where.append(
                    f"{alias}.{child.tag} = {_sql_literal(child.text_literal)}"
                )
        if pattern.text_var is not None or pattern.element_var is not None:
            raise CapabilityError(
                "relational fragments cannot bind whole rows to variables"
            )

    def _bind_var(self, var: str, alias: str, column: str) -> None:
        if var in self.var_columns:
            prior_alias, prior_column = self.var_columns[var]
            self.joins.append(f"{prior_alias}.{prior_column} = {alias}.{column}")
        else:
            self.var_columns[var] = (alias, column)

    # -- condition translation ------------------------------------------------

    def _expr(self, expr: qast.Expr) -> str:
        if isinstance(expr, qast.Var):
            if expr.name in self.fragment.input_vars:
                self.params.append(expr.name)
                return "?"
            if expr.name not in self.var_columns:
                raise CapabilityError(
                    f"condition references {expr}, which the fragment "
                    "does not bind"
                )
            alias, column = self.var_columns[expr.name]
            return f"{alias}.{column}"
        if isinstance(expr, qast.Literal):
            return _sql_literal(expr.value)
        if isinstance(expr, qast.BinOp):
            op = {"!=": "<>"}.get(expr.op, expr.op)
            if op not in ("=", "<>", "<", "<=", ">", ">=", "AND", "OR",
                          "LIKE", "+", "-", "*", "/", "%"):
                raise CapabilityError(f"operator {expr.op!r} has no SQL form")
            return f"({self._expr(expr.left)} {op} {self._expr(expr.right)})"
        if isinstance(expr, qast.Not):
            return f"(NOT {self._expr(expr.operand)})"
        if isinstance(expr, qast.Call):
            mapped = {"upper": "UPPER", "lower": "LOWER", "length": "LENGTH",
                      "trim": "TRIM"}.get(expr.name)
            if mapped is None:
                raise CapabilityError(f"function {expr.name!r} has no SQL form")
            args = ", ".join(self._expr(arg) for arg in expr.args)
            return f"{mapped}({args})"
        raise CapabilityError(f"cannot translate {expr!r} to SQL")


def _sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"

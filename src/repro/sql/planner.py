"""Plans SELECT statements into physical node trees.

Planning is deliberately classical and deterministic:

* WHERE is split into conjuncts; single-table conjuncts move down to
  their table's scan, where an equality or range conjunct over an indexed
  column upgrades the scan to an index scan;
* joins stay in FROM order (left-deep); each join that has an extractable
  equi-condition becomes a hash join, the rest nested loops;
* aggregates are detected anywhere in the SELECT list / HAVING / ORDER BY
  and computed by one Aggregate node; non-grouped columns evaluate
  against the group's representative row (documented subset behaviour);
* ORDER BY resolves output aliases and 1-based positions to their
  underlying expressions before the Sort node is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import PlanningError, SQLSchemaError
from repro.sql import ast
from repro.sql.executor import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    SeqScanNode,
    SortNode,
)
from repro.sql.functions import AGGREGATE_NAMES
from repro.sql.index import SortedIndex
from repro.sql.storage import Table


@dataclass
class PreparedSelect:
    """A planned SELECT: the plan plus the projection recipe."""

    root: PlanNode
    output_exprs: tuple[ast.Expr, ...]
    column_names: tuple[str, ...]
    distinct: bool
    #: the aggregate calls in the order the Aggregate node computes them
    aggregate_calls: tuple[ast.FuncCall, ...] = ()


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten nested ANDs into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Inverse of :func:`split_conjuncts`."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def referenced_bindings(expr: ast.Expr, default_binding: str | None = None) -> set[str]:
    """Bindings (table aliases) an expression touches.

    Unqualified column references are attributed to ``default_binding``
    when given, else reported as '?' (meaning "unknown/any").
    """
    found: set[str] = set()

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                found.add(node.table)
            else:
                found.add(default_binding if default_binding else "?")
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)

    walk(expr)
    return found


def collect_column_refs(expr: ast.Expr | None) -> list[ast.ColumnRef]:
    """All ColumnRef nodes inside ``expr`` (depth-first)."""
    if expr is None:
        return []
    refs: list[ast.ColumnRef] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            refs.append(node)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)

    walk(expr)
    return refs


def find_aggregate_calls(expr: ast.Expr | None) -> list[ast.FuncCall]:
    """All aggregate FuncCall nodes inside ``expr`` (depth-first)."""
    if expr is None:
        return []
    calls: list[ast.FuncCall] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.FuncCall):
            if node.name in AGGREGATE_NAMES:
                calls.append(node)
                return  # no nested aggregates
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)

    walk(expr)
    return calls


def is_constant(expr: ast.Expr) -> bool:
    """True when the expression references no columns (params count as constant)."""
    return not referenced_bindings(expr)


class Planner:
    """Plans one SELECT against a catalog of tables."""

    def __init__(self, tables: dict[str, Table], counters: dict[str, int]):
        self.tables = tables
        self.counters = counters

    def plan(self, stmt: ast.SelectStmt) -> PreparedSelect:
        bindings, binding_tables = self._resolve_from(stmt)
        conjuncts = split_conjuncts(stmt.where)

        items = self._expand_stars(stmt.items, bindings, binding_tables)
        needed = self._needed_columns(stmt, items, bindings, binding_tables)
        root = self._plan_joins(stmt, bindings, binding_tables, conjuncts, needed)
        if conjuncts:
            root = FilterNode(root, conjoin(conjuncts))  # type: ignore[arg-type]

        output_exprs = tuple(item.expr for item in items)
        column_names = tuple(self._output_name(item, i) for i, item in enumerate(items))
        alias_map = {
            item.alias: item.expr for item in items if item.alias is not None
        }

        aggregate_calls = []
        for item in items:
            aggregate_calls.extend(find_aggregate_calls(item.expr))
        aggregate_calls.extend(find_aggregate_calls(stmt.having))
        for order in stmt.order_by:
            aggregate_calls.extend(find_aggregate_calls(order.expr))
        # Dedup while keeping order (frozen dataclasses hash by content).
        unique_calls = tuple(dict.fromkeys(aggregate_calls))

        if unique_calls or stmt.group_by:
            having = self._resolve_aliases(stmt.having, alias_map)
            root = AggregateNode(root, stmt.group_by, unique_calls, having)
        elif stmt.having is not None:
            raise PlanningError("HAVING requires GROUP BY or aggregates")

        if stmt.order_by:
            resolved = tuple(
                ast.OrderItem(
                    self._resolve_order_expr(order.expr, output_exprs, alias_map),
                    order.descending,
                )
                for order in stmt.order_by
            )
            root = SortNode(root, resolved)
        if stmt.limit is not None or stmt.offset is not None:
            root = LimitNode(root, stmt.limit, stmt.offset)
        return PreparedSelect(root, output_exprs, column_names, stmt.distinct,
                              unique_calls)

    # -- FROM clause -------------------------------------------------------

    def _resolve_from(
        self, stmt: ast.SelectStmt
    ) -> tuple[list[str], dict[str, Table]]:
        if stmt.table is None:
            raise PlanningError("SELECT without FROM is not supported")
        refs = [stmt.table] + [join.table for join in stmt.joins]
        bindings: list[str] = []
        binding_tables: dict[str, Table] = {}
        for ref in refs:
            table = self.tables.get(ref.name)
            if table is None:
                raise SQLSchemaError(f"unknown table {ref.name!r}")
            if ref.binding in binding_tables:
                raise PlanningError(f"duplicate table binding {ref.binding!r}")
            bindings.append(ref.binding)
            binding_tables[ref.binding] = table
        return bindings, binding_tables

    def _plan_joins(
        self,
        stmt: ast.SelectStmt,
        bindings: list[str],
        binding_tables: dict[str, Table],
        conjuncts: list[ast.Expr],
        needed: dict[str, tuple[str, ...] | None],
    ) -> PlanNode:
        assert stmt.table is not None
        first = stmt.table.binding
        root = self._plan_scan(first, binding_tables[first], conjuncts, bindings,
                               needed.get(first))
        joined = {first}
        for join in stmt.joins:
            binding = join.table.binding
            if join.kind == "LEFT":
                # LEFT joins keep their full ON condition at the join.
                right = self._plan_scan(binding, binding_tables[binding], [],
                                        bindings, needed.get(binding))
                root = self._make_join(
                    root, right, join.condition, "LEFT", binding,
                    binding_tables, needed,
                )
            else:
                join_conjuncts = split_conjuncts(join.condition)
                # Pull in applicable WHERE conjuncts referencing the new table.
                available = joined | {binding}
                pulled = [
                    c
                    for c in conjuncts
                    if referenced_bindings(c) <= available
                    and binding in referenced_bindings(c)
                ]
                for c in pulled:
                    conjuncts.remove(c)
                all_conjuncts = join_conjuncts + pulled
                local = [
                    c
                    for c in all_conjuncts
                    if referenced_bindings(c) <= {binding} or is_constant(c)
                ]
                cross = [c for c in all_conjuncts if c not in local]
                right = self._plan_scan(
                    binding, binding_tables[binding], local, bindings,
                    needed.get(binding),
                )
                if local:
                    residual_local = conjoin(local)
                    if residual_local is not None:
                        right = FilterNode(right, residual_local)
                root = self._make_join(
                    root, right, conjoin(cross), "INNER", binding,
                    binding_tables, needed,
                )
            joined.add(binding)
        return root

    def _needed_columns(
        self,
        stmt: ast.SelectStmt,
        items: list[ast.SelectItem],
        bindings: list[str],
        binding_tables: dict[str, Table],
    ) -> dict[str, tuple[str, ...] | None]:
        """Per-binding column subsets the query actually reads.

        None means "all columns" (no projection determined) — the
        conservative answer whenever an unqualified reference cannot be
        attributed, or a binding is never referenced (COUNT(*) style).
        Values keep schema order so scan output is deterministic.
        """
        refs: list[ast.ColumnRef] = []
        for item in items:
            refs.extend(collect_column_refs(item.expr))
        refs.extend(collect_column_refs(stmt.where))
        refs.extend(collect_column_refs(stmt.having))
        for expr in stmt.group_by:
            refs.extend(collect_column_refs(expr))
        for order in stmt.order_by:
            refs.extend(collect_column_refs(order.expr))
        for join in stmt.joins:
            refs.extend(collect_column_refs(join.condition))
        wanted: dict[str, set[str]] = {binding: set() for binding in bindings}
        for ref in refs:
            if ref.table is not None:
                if ref.table in wanted:
                    wanted[ref.table].add(ref.column)
                continue
            owners = [
                binding for binding in bindings
                if ref.column in binding_tables[binding].schema.column_names
            ]
            # 0 owners: a select alias (its underlying expression is
            # already collected) or an unknown column (errors later
            # either way).  >1 owners: keep the column everywhere so
            # the ambiguity error surfaces unchanged at evaluation.
            for owner in owners:
                wanted[owner].add(ref.column)
        needed: dict[str, tuple[str, ...] | None] = {}
        for binding in bindings:
            names = binding_tables[binding].schema.column_names
            columns = tuple(name for name in names if name in wanted[binding])
            needed[binding] = (
                columns if columns and len(columns) < len(names) else None
            )
        return needed

    def _make_join(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: ast.Expr | None,
        kind: str,
        right_binding: str,
        binding_tables: dict[str, Table],
        needed: dict[str, tuple[str, ...] | None],
    ) -> PlanNode:
        # the LEFT-join null side must mirror the scan's (possibly
        # projected) width, or matched and unmatched rows would disagree
        right_columns = {
            right_binding: (
                needed.get(right_binding)
                or binding_tables[right_binding].schema.column_names
            )
        }
        equi, residual = self._extract_equi_key(condition, right_binding)
        if equi is not None:
            left_key, right_key = equi
            return HashJoinNode(
                left,
                right,
                left_key,
                right_key,
                residual,
                kind,
                (right_binding,),
                right_columns,
            )
        return NestedLoopJoinNode(
            left, right, condition, kind, (right_binding,), right_columns
        )

    def _extract_equi_key(
        self, condition: ast.Expr | None, right_binding: str
    ) -> tuple[tuple[ast.Expr, ast.Expr] | None, ast.Expr | None]:
        """Find one `left = right` conjunct split across the join."""
        conjuncts = split_conjuncts(condition)
        for i, conjunct in enumerate(conjuncts):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left_refs = referenced_bindings(conjunct.left)
            right_refs = referenced_bindings(conjunct.right)
            if "?" in left_refs or "?" in right_refs:
                continue  # unqualified columns: stay conservative
            if right_binding in right_refs and right_binding not in left_refs:
                rest = conjoin(conjuncts[:i] + conjuncts[i + 1 :])
                return (conjunct.left, conjunct.right), rest
            if right_binding in left_refs and right_binding not in right_refs:
                rest = conjoin(conjuncts[:i] + conjuncts[i + 1 :])
                return (conjunct.right, conjunct.left), rest
        return None, None

    # -- scans ---------------------------------------------------------------

    def _plan_scan(
        self,
        binding: str,
        table: Table,
        conjuncts: list[ast.Expr],
        all_bindings: list[str],
        columns: tuple[str, ...] | None = None,
    ) -> PlanNode:
        """Scan ``table``, consuming applicable conjuncts from the list."""
        single_binding = len(all_bindings) == 1
        local: list[ast.Expr] = []
        for conjunct in list(conjuncts):
            refs = referenced_bindings(conjunct)
            if "?" in refs:
                refs = (refs - {"?"}) | ({binding} if single_binding else {"?"})
            if refs <= {binding}:
                local.append(conjunct)
                conjuncts.remove(conjunct)
        scan = self._choose_scan(binding, table, local, columns)
        predicate = conjoin(local)
        if predicate is not None:
            scan = FilterNode(scan, predicate)
        return scan

    def _choose_scan(
        self,
        binding: str,
        table: Table,
        local: list[ast.Expr],
        columns: tuple[str, ...] | None,
    ) -> PlanNode:
        """Upgrade to an index scan when a local conjunct allows it.

        The matched conjunct stays in ``local`` (re-checked by the filter);
        correctness never depends on the index, only speed.
        """
        for conjunct in local:
            access = self._index_access(binding, table, conjunct, columns)
            if access is not None:
                return access
        return SeqScanNode(table, binding, self.counters, columns=columns)

    def _index_access(
        self,
        binding: str,
        table: Table,
        conjunct: ast.Expr,
        columns: tuple[str, ...] | None,
    ) -> PlanNode | None:
        if not isinstance(conjunct, ast.BinaryOp):
            return None
        if conjunct.op not in ("=", "<", "<=", ">", ">="):
            return None
        column, constant, op = self._column_vs_constant(
            conjunct, binding
        )
        if column is None or constant is None:
            return None
        indexes = table.indexes_on(column)
        if not indexes:
            return None
        if op == "=":
            index = indexes[0]
            return IndexScanNode(
                table, binding, index.name, self.counters, equals=constant,
                columns=columns,
            )
        ordered = [ix for ix in indexes if isinstance(ix, SortedIndex)]
        if not ordered:
            return None
        index = ordered[0]
        if op in (">", ">="):
            return IndexScanNode(
                table,
                binding,
                index.name,
                self.counters,
                low=constant,
                low_inclusive=(op == ">="),
                columns=columns,
            )
        return IndexScanNode(
            table,
            binding,
            index.name,
            self.counters,
            high=constant,
            high_inclusive=(op == "<="),
            columns=columns,
        )

    def _column_vs_constant(
        self, conjunct: ast.BinaryOp, binding: str
    ) -> tuple[str | None, ast.Expr | None, str]:
        """Normalize `col OP const` / `const OP col` to (col, const, op)."""
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, ast.ColumnRef) and is_constant(right):
            if left.table in (None, binding):
                return left.column, right, op
        if isinstance(right, ast.ColumnRef) and is_constant(left):
            if right.table in (None, binding):
                return right.column, left, flipped[op]
        return None, None, op

    # -- projection ----------------------------------------------------------

    def _expand_stars(
        self,
        items: tuple[ast.SelectItem, ...],
        bindings: list[str],
        binding_tables: dict[str, Table],
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not item.star:
                expanded.append(item)
                continue
            targets = [item.star_table] if item.star_table else bindings
            for binding in targets:
                table = binding_tables.get(binding)
                if table is None:
                    raise SQLSchemaError(f"unknown table binding {binding!r}")
                for column in table.schema.column_names:
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(column, table=binding))
                    )
        return expanded

    def _output_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.column
        if isinstance(item.expr, ast.FuncCall):
            return item.expr.name.lower()
        return f"column{index + 1}"

    def _resolve_aliases(
        self, expr: ast.Expr | None, alias_map: dict[str, ast.Expr]
    ) -> ast.Expr | None:
        if expr is None:
            return None
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            return alias_map.get(expr.column, expr)
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op,
                self._resolve_aliases(expr.left, alias_map),  # type: ignore[arg-type]
                self._resolve_aliases(expr.right, alias_map),  # type: ignore[arg-type]
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(
                expr.op, self._resolve_aliases(expr.operand, alias_map)  # type: ignore[arg-type]
            )
        return expr

    def _resolve_order_expr(
        self,
        expr: ast.Expr,
        output_exprs: tuple[ast.Expr, ...],
        alias_map: dict[str, ast.Expr],
    ) -> ast.Expr:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(output_exprs):
                raise PlanningError(f"ORDER BY position {position} out of range")
            return output_exprs[position - 1]
        resolved = self._resolve_aliases(expr, alias_map)
        assert resolved is not None
        return resolved

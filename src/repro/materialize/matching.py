"""Fragment canonicalization and the containment test.

A materialized view MV answers a fragment F when

* MV and F read the same accesses of the same source (same relations,
  same variable->field bindings, same pattern literals), and
* every condition of MV is implied by the conditions of F — i.e. MV is
  *at most as restrictive*, so its stored rows are a superset of F's.

A fragment with a grouping (aggregate pushdown) holds groups, not rows,
and takes no part in containment: it answers, and is answered by, the
identical fragment only.

The implication check is sound but incomplete: syntactic containment of
canonicalized condition strings, extended with one-sided range
implication (``x > 10`` implies ``x > 5``), equality-to-range
implication (``x = 7`` implies ``x > 5``), and boolean decomposition
(a conjunct implies the whole, either disjunct is implied by the whole).
Conditions of F that MV did not apply become residual local filters.

The same test powers the on-demand fragment result cache
(:mod:`repro.cache`): a cached broad fragment answers a narrower request
whose extra pushed conditions are re-applied as residual local filters.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.pattern import TreePattern
from repro.query import ast as qast
from repro.sources.base import Fragment


def condition_text(expr: qast.Expr) -> str:
    """Canonical string form of a condition (stable across parses)."""
    if isinstance(expr, qast.Var):
        return f"${expr.name}"
    if isinstance(expr, qast.Literal):
        return repr(expr.value)
    if isinstance(expr, qast.BinOp):
        left, right = condition_text(expr.left), condition_text(expr.right)
        if expr.op in ("=", "!=", "AND", "OR", "+", "*") and right < left:
            left, right = right, left  # commutative: normalize order
        return f"({left} {expr.op} {right})"
    if isinstance(expr, qast.Not):
        return f"(NOT {condition_text(expr.operand)})"
    if isinstance(expr, qast.Call):
        return f"{expr.name}({', '.join(condition_text(a) for a in expr.args)})"
    return repr(expr)


def _pattern_text(pattern: TreePattern) -> str:
    return pattern.describe()


def fragment_key(fragment: Fragment) -> str:
    """Canonical identity of a fragment, conditions included."""
    accesses = ";".join(
        f"{access.relation}:{_pattern_text(access.pattern)}"
        for access in fragment.accesses
    )
    conditions = "&".join(sorted(condition_text(c) for c in fragment.conditions))
    inputs = ",".join(fragment.input_vars)
    key = f"{fragment.source}|{accesses}|{conditions}|{inputs}"
    if fragment.grouping is not None:
        # a grouped result holds groups, not rows: never the same entry
        # as the ungrouped fragment or as another grouping of it
        grouping = fragment.grouping
        aggregates = ",".join(
            f"{kind}({var})->{out_var}"
            for kind, var, out_var in grouping.aggregates
        )
        key += f"|group={','.join(grouping.group_vars)}:{aggregates}"
    elif fragment.columns:
        # projection pushdown narrows identity; unprojected fragments
        # keep their legacy keys
        key += f"|cols={','.join(sorted(fragment.columns))}"
    return key


def access_key(fragment: Fragment) -> str:
    """Identity of the accesses alone (conditions excluded)."""
    accesses = ";".join(
        f"{access.relation}:{_pattern_text(access.pattern)}"
        for access in fragment.accesses
    )
    return f"{fragment.source}|{accesses}"


def _bound_literal(value) -> float | str | None:
    """A literal usable as a one-dimensional bound: number or string.

    Numbers and strings each form a totally ordered family under the
    model order (strings compare lexicographically, exactly like
    ``compare_values``), so range implication is sound within a family.
    Cross-family comparisons are never attempted — the model ranks whole
    types against each other, which the callers conservatively skip.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return value
    return None


def _same_family(a: float | str, b: float | str) -> bool:
    return isinstance(a, str) == isinstance(b, str)


def _range_bound(expr: qast.Expr) -> tuple[str, str, float | str] | None:
    """Decompose ``$v OP literal`` to (var, op, bound) when possible."""
    if not isinstance(expr, qast.BinOp) or expr.op not in ("<", "<=", ">", ">="):
        return None
    left, right, op = expr.left, expr.right, expr.op
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    if isinstance(right, qast.Var) and isinstance(left, qast.Literal):
        left, right, op = right, left, flipped[op]
    if isinstance(left, qast.Var) and isinstance(right, qast.Literal):
        bound = _bound_literal(right.value)
        if bound is not None:
            return left.name, op, bound
    return None


def _eq_bound(expr: qast.Expr) -> tuple[str, float | str] | None:
    """Decompose ``$v = literal`` to (var, value) when possible."""
    if not isinstance(expr, qast.BinOp) or expr.op != "=":
        return None
    left, right = expr.left, expr.right
    if isinstance(right, qast.Var) and isinstance(left, qast.Literal):
        left, right = right, left
    if isinstance(left, qast.Var) and isinstance(right, qast.Literal):
        value = _bound_literal(right.value)
        if value is not None:
            return left.name, value
    return None


def _satisfies(value: float | str, op: str, bound: float | str) -> bool:
    if not _same_family(value, bound):
        return False
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    return value >= bound


def implies(stronger: qast.Expr, weaker: qast.Expr) -> bool:
    """Sound check: does ``stronger`` imply ``weaker``?"""
    if condition_text(stronger) == condition_text(weaker):
        return True
    # boolean decomposition (each rule is sound on its own):
    # (a AND b) implies w when either conjunct does
    if isinstance(stronger, qast.BinOp) and stronger.op == "AND":
        if implies(stronger.left, weaker) or implies(stronger.right, weaker):
            return True
    # (a OR b) implies w only when both disjuncts do
    if isinstance(stronger, qast.BinOp) and stronger.op == "OR":
        if implies(stronger.left, weaker) and implies(stronger.right, weaker):
            return True
    # s implies (a AND b) when it implies both conjuncts
    if isinstance(weaker, qast.BinOp) and weaker.op == "AND":
        if implies(stronger, weaker.left) and implies(stronger, weaker.right):
            return True
    # s implies (a OR b) when it implies either disjunct
    if isinstance(weaker, qast.BinOp) and weaker.op == "OR":
        if implies(stronger, weaker.left) or implies(stronger, weaker.right):
            return True
    weak = _range_bound(weaker)
    if weak is None:
        return False
    var_w, op_w, bound_w = weak
    # equality implies a range it sits inside: x = 7 implies x > 5
    eq = _eq_bound(stronger)
    if eq is not None:
        var_e, value = eq
        return var_e == var_w and _satisfies(value, op_w, bound_w)
    strong = _range_bound(stronger)
    if strong is None:
        return False
    var_s, op_s, bound_s = strong
    if var_s != var_w or not _same_family(bound_s, bound_w):
        return False
    if op_s in (">", ">=") and op_w in (">", ">="):
        if bound_s > bound_w:
            return True
        return bound_s == bound_w and not (op_s == ">=" and op_w == ">")
    if op_s in ("<", "<=") and op_w in ("<", "<="):
        if bound_s < bound_w:
            return True
        return bound_s == bound_w and not (op_s == "<=" and op_w == "<")
    return False


def conditions_subsumed(
    view_conditions: Iterable[qast.Expr], query_conditions: Iterable[qast.Expr]
) -> tuple[bool, list[qast.Expr]]:
    """Is every view condition implied by the query's?  Returns residual.

    Residual = the query conditions not textually identical to a view
    condition (they must be re-applied locally; re-applying an implied
    condition is harmless).
    """
    query_list = list(query_conditions)
    for view_condition in view_conditions:
        if not any(implies(qc, view_condition) for qc in query_list):
            return False, []
    view_texts = {condition_text(vc) for vc in view_conditions}
    residual = [qc for qc in query_list if condition_text(qc) not in view_texts]
    return True, residual


def matches(view_fragment: Fragment, query_fragment: Fragment) -> tuple[bool, list[qast.Expr]]:
    """Full containment test; returns (answers?, residual conditions).

    Column-aware: a view projected to a column subset only answers a
    query whose (effective) columns it covers, and only when every
    residual condition can still be evaluated over the view's stored
    columns.  A broader (unprojected) view answers any narrower query —
    the caller projects the served records down (see
    :func:`project_records`).
    """
    if view_fragment.input_vars or query_fragment.input_vars:
        return False, []  # parameterized fragments are not materialized
    if view_fragment.grouping is not None or query_fragment.grouping is not None:
        # groups cannot be filtered into narrower groups, rows cannot
        # stand in for groups, nor groups for rows: only the identical
        # fragment answers
        return fragment_key(view_fragment) == fragment_key(query_fragment), []
    if access_key(view_fragment) != access_key(query_fragment):
        return False, []
    if view_fragment.columns:
        view_columns = set(view_fragment.columns)
        query_columns = set(
            query_fragment.columns or query_fragment.variables()
        )
        if not query_columns <= view_columns:
            return False, []
    answers, residual = conditions_subsumed(
        view_fragment.conditions, query_fragment.conditions
    )
    if answers and view_fragment.columns and residual:
        residual_vars: set[str] = set()
        for condition in residual:
            residual_vars |= qast.expr_variables(condition)
        if not residual_vars <= set(view_fragment.columns):
            return False, []
    return answers, residual


def project_records(records: list, query_fragment: Fragment) -> list:
    """Narrow served records to the query fragment's column subset.

    Containment can serve a projected query from a broader entry; the
    result must look exactly as if the source had projected.  Records
    already at (or below) the requested width pass through untouched.
    """
    columns = query_fragment.columns
    if not columns or not records:
        return records
    wanted = set(columns)
    if all(name in wanted for name in records[0].fields):
        return records
    order = [
        var for var in query_fragment.variables() if var in wanted
    ] or list(columns)
    return [record.project(order) for record in records]

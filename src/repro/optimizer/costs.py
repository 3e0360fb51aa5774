"""The cost model: fragment cardinality and latency estimation.

Estimates are deliberately humble.  Section 3.3: "we do not have good
cost estimates for querying over remote data sources (and therefore it's
hard to compare the costs with the alternative of materialization)".
:class:`CostModel` exposes that honesty as ``noise``: a deterministic
multiplicative error applied to every remote estimate, which experiment
E2 sweeps to measure how materialized-view selection degrades as
estimates get worse.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.query import ast as qast
from repro.sources.base import DataSource, Fragment

#: selectivity guesses per condition operator (classical folklore values)
_SELECTIVITY = {
    "=": 0.1,
    "!=": 0.9,
    "<": 0.3,
    "<=": 0.3,
    ">": 0.3,
    ">=": 0.3,
    "LIKE": 0.25,
}


def condition_selectivity(expr: qast.Expr) -> float:
    """Estimated fraction of rows a condition keeps."""
    if isinstance(expr, qast.BinOp):
        if expr.op == "AND":
            return condition_selectivity(expr.left) * condition_selectivity(expr.right)
        if expr.op == "OR":
            left = condition_selectivity(expr.left)
            right = condition_selectivity(expr.right)
            return min(1.0, left + right - left * right)
        return _SELECTIVITY.get(expr.op, 0.5)
    if isinstance(expr, qast.Not):
        return max(0.05, 1.0 - condition_selectivity(expr.operand))
    return 0.5


def _var_literal(expr: qast.Expr) -> tuple[str, str, object] | None:
    """Decompose ``$v OP literal`` to (var, op, literal) when possible.

    Literal-on-the-left comparisons are flipped so statistics always see
    the column on the left.
    """
    if not isinstance(expr, qast.BinOp):
        return None
    if expr.op not in ("=", "!=", "<", "<=", ">", ">="):
        return None
    left, right, op = expr.left, expr.right, expr.op
    flipped = {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
               ">": "<", ">=": "<="}
    if isinstance(right, qast.Var) and isinstance(left, qast.Literal):
        left, right, op = right, left, flipped[op]
    if isinstance(left, qast.Var) and isinstance(right, qast.Literal):
        return left.name, op, right.value
    return None


@dataclass(frozen=True)
class FragmentEstimate:
    """Estimated rows and virtual-time cost of executing one fragment."""

    rows: float
    cost_ms: float


class CostModel:
    """Estimates fragment costs from catalog statistics.

    ``noise`` > 0 turns on deterministic lognormal estimation error with
    standard deviation ``noise`` (in log space), seeded per fragment key
    so repeated estimates of the same fragment are consistently wrong —
    the realistic failure mode for remote sources.
    """

    #: per-row processing cost at the integration engine (local work)
    LOCAL_ROW_MS = 0.001

    def __init__(self, noise: float = 0.0, seed: int = 13):
        self.noise = noise
        self.seed = seed
        #: observed-cardinality feedback (``rows_for(fragment)``) — when
        #: bound, a real observation beats every folklore guess below
        self.feedback = None
        #: cache-residency probe (``fragment -> row count | None``) —
        #: when bound, resident fragments cost local scans, not network
        self.residency = None
        #: column-statistics probe (``(fragment, var) -> ColumnStats |
        #: None``) — when bound, observed value distributions price
        #: simple predicates instead of the folklore constants
        self.column_stats = None

    def bind_feedback(self, feedback) -> None:
        """Prefer observed row counts from ``feedback`` over guesses."""
        self.feedback = feedback

    def bind_residency(self, residency) -> None:
        """Consult ``residency(fragment)`` for cached row counts."""
        self.residency = residency

    def bind_column_stats(self, lookup) -> None:
        """Consult ``lookup(fragment, var)`` for observed column stats."""
        self.column_stats = lookup

    def _stats_selectivity(self, fragment: Fragment,
                           condition: qast.Expr) -> float | None:
        """Statistics-based selectivity of one condition, or None."""
        if self.column_stats is None:
            return None
        decomposed = _var_literal(condition)
        if decomposed is None:
            return None
        var, op, literal = decomposed
        stats = self.column_stats(fragment, var)
        if stats is None:
            return None
        return stats.selectivity(op, literal)

    def estimate_rows(self, fragment: Fragment, source: DataSource) -> float:
        if self.feedback is not None:
            observed = self.feedback.rows_for(fragment)
            if observed is not None:
                return max(float(observed), 0.01)
        cardinalities = [
            max(1, source.cardinality(access.relation))
            for access in fragment.accesses
        ]
        if len(cardinalities) == 1:
            rows = float(cardinalities[0])
        else:
            # Equi-joined accesses: assume key joins — the largest relation
            # bounds the result.
            rows = float(max(cardinalities))
        for condition in fragment.conditions:
            from_stats = self._stats_selectivity(fragment, condition)
            rows *= (
                from_stats if from_stats is not None
                else condition_selectivity(condition)
            )
        if fragment.input_vars:
            rows = max(1.0, rows * 0.01)  # parameterized calls are selective
        if fragment.grouping is not None:
            rows = min(rows, self._distinct_groups(fragment))
        return max(rows, 0.01)

    def _distinct_groups(self, fragment: Fragment) -> float:
        """An upper bound on a grouped fragment's groups: the product of
        its grouping variables' observed distinct counts (NULL is a
        group too), or no bound when a variable has no statistics —
        groups never outnumber the rows they summarize."""
        groups = 1.0
        for var in fragment.grouping.group_vars:
            stats = (self.column_stats(fragment, var)
                     if self.column_stats is not None else None)
            if stats is None:
                return math.inf
            groups *= stats.distinct + (1 if stats.nulls else 0)
        return groups

    def estimate(self, fragment: Fragment, source: DataSource) -> FragmentEstimate:
        if self.residency is not None:
            resident = self.residency(fragment)
            if resident is not None:
                # cache-resident: a local scan of known size, no network
                # latency and no estimation noise — we have the rows
                return FragmentEstimate(float(resident),
                                        self.local_cost(resident))
        rows = self.estimate_rows(fragment, source)
        cost = source.network.latency_ms + rows * source.network.per_row_ms
        return FragmentEstimate(rows, self._perturb(cost, fragment))

    def local_cost(self, rows: float) -> float:
        """Cost of processing ``rows`` locally (materialized data)."""
        return rows * self.LOCAL_ROW_MS

    def _perturb(self, cost: float, fragment: Fragment) -> float:
        if self.noise <= 0:
            return cost
        rng = random.Random((self.seed, fragment.describe()).__repr__())
        factor = math.exp(rng.gauss(0.0, self.noise))
        return cost * factor

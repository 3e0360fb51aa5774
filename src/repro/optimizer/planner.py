"""Building executable plans from decomposed queries."""

from __future__ import annotations

from typing import Any, Iterator, Protocol

from repro.algebra import (
    CallbackScan,
    Construct,
    HashJoin,
    NestedLoopJoin,
    Operator,
    PatternMatch,
    Plan,
    Select,
    Sort,
)
from repro.algebra.joins import BatchedDependentJoin, DependentJoin
from repro.algebra.operators import Limit, fuse_sort_limit
from repro.algebra.tuples import BindingTuple
from repro.algebra.vector import shred_records
from repro.algebra.viewmatch import ViewMatch
from repro.errors import PlanningError
from repro.mediator.schema import ViewDef
from repro.optimizer.costs import CostModel
from repro.optimizer.decomposer import DecomposedQuery, FragmentUnit, Unit
from repro.query import ast as qast
from repro.query.exprs import compile_predicate, compile_sort_key
from repro.query.translate import pattern_to_tree
from repro.xmldm.values import Null, Record


class ExecutionContext(Protocol):
    """What the plan needs from the engine at run time."""

    def fetch_fragment(
        self, unit: FragmentUnit, params: dict[str, Any] | None = None
    ) -> list[Record]: ...

    def fetch_fragment_batch(
        self, unit: FragmentUnit, param_sets: list[dict[str, Any]]
    ) -> list[list[Record]]: ...

    def fetch_view(self, view: ViewDef, rows: bool = False) -> list[Any]: ...


class FragmentScan(Operator):
    """Leaf operator running one remote fragment through the context.

    The context decides whether the fragment is served from a
    materialized copy, from the live source, or skipped under the
    partial-results policy.
    """

    def __init__(
        self,
        unit: FragmentUnit,
        context: ExecutionContext,
        params: dict[str, Any] | None = None,
    ):
        super().__init__()
        self.unit = unit
        self.context = context
        self.params = params
        #: planner's cardinality estimate (feedback EWMA when available),
        #: rendered against the actual rows_out by EXPLAIN ANALYZE
        self.estimated_rows: float | None = None

    def _produce(self) -> Iterator[BindingTuple]:
        records = self.context.fetch_fragment(self.unit, self.params)
        # the engine's column-statistics hook (None when the context
        # doesn't carry statistics, or this fragment is filtered/
        # parameterized and so under-covers its relation)
        stats_for = getattr(self.context, "column_stats_for", None)
        stats = stats_for(self.unit) if stats_for is not None else None
        if stats is not None:
            shred_records(records, stats)
        for record in records:
            yield BindingTuple(record.as_dict())

    def describe(self) -> str:
        return f"FragmentScan({self.unit.describe()})"

    def analyze_stats(self) -> dict[str, Any]:
        stats = super().analyze_stats()
        if self.estimated_rows is not None:
            stats["est_rows"] = round(self.estimated_rows, 2)
        return stats


def independent_fragment_units(decomposed: DecomposedQuery) -> list[FragmentUnit]:
    """The plan's non-dependent remote fragments, in execution order.

    These are the units with no input-variable dependencies — exactly
    the set a fetch pool can overlap.  Ordered like the plan itself
    (:meth:`PlanBuilder._order_units` on cost estimates is deterministic)
    so the prefetch scheduler issues source calls in a stable sequence.
    """
    return [
        unit
        for unit in decomposed.units
        if isinstance(unit, FragmentUnit) and not unit.dependent
    ]


class PlanBuilder:
    """Greedy, capability- and cost-aware physical plan construction.

    ``batch_size`` > 1 turns dependent joins against batch-capable
    sources (``CapabilityProfile.batch_parameters``) into
    :class:`BatchedDependentJoin`s that buffer left rows and probe the
    source once per batch instead of once per row.
    """

    def __init__(self, cost_model: CostModel | None = None,
                 batch_size: int = 1, materializer=None,
                 dedup_dependent_probes: bool = False):
        self.cost_model = cost_model or CostModel()
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        #: MaterializationManager (if any): loaded mediated views give
        #: the unit ordering real element counts instead of a flat guess
        self.materializer = materializer
        #: memoize per-row dependent probes on their input values — only
        #: enabled when a fragment cache backs the context, so cache-off
        #: executions keep their exact historical call profile
        self.dedup_dependent_probes = dedup_dependent_probes

    def build(
        self,
        decomposed: DecomposedQuery,
        context: ExecutionContext,
        output_var: str | None = "result",
        held_rows: bool = False,
    ) -> Plan:
        """The whole query; with ``output_var=None`` the ordered binding
        rows its CONSTRUCT would consume (a view answered as rows).

        A query the source can answer in groups
        (:attr:`DecomposedQuery.grouped`) scans the grouped fragment and
        constructs from one row per group.  Only a plan that builds
        elements takes it — a caller asking for binding rows folds them
        itself — and only against live sources: ``held_rows`` says the
        context serves rows it already holds for ``decomposed.units``
        (the incremental materializer's local re-run).
        """
        query = decomposed.bound.query
        grouped = None
        if output_var is not None and not held_rows:
            grouped = decomposed.grouped
        if grouped is not None:
            unit, template = grouped
            root = self._unit_operator(unit, context)
        else:
            template = decomposed.template
            root = self.build_binding_tree(decomposed, context)
        if query.order_by:
            keys = [
                (compile_sort_key(spec.expr), spec.descending)
                for spec in query.order_by
            ]
            root = Sort(root, keys, label=", ".join(str(s.expr) for s in query.order_by))
        if output_var is None:
            if query.limit is not None:
                raise PlanningError("LIMIT counts elements, not binding rows")
            return Plan(root)
        root = Construct(root, template, output_var)
        if query.limit is not None:
            root = Limit(root, query.limit)
        root = fuse_sort_limit(root)
        return Plan(root, output_var)

    def build_binding_tree(
        self, decomposed: DecomposedQuery, context: ExecutionContext
    ) -> Operator:
        """Joins of all units plus residual conditions (no construct)."""
        ordered = self._order_units(decomposed.units)
        pending = [
            (condition, frozenset(qast.expr_variables(condition)))
            for condition in decomposed.residual_conditions
        ]
        root: Operator | None = None
        bound_vars: set[str] = set()
        for unit in ordered:
            if isinstance(unit, FragmentUnit) and unit.dependent:
                missing = set(unit.fragment.input_vars) - bound_vars
                if missing:
                    raise PlanningError(
                        f"dependent fragment inputs {sorted(missing)} not bound "
                        "by preceding units"
                    )
                assert root is not None
                if (
                    self.batch_size > 1
                    and unit.source.capabilities.batch_parameters
                ):
                    root = BatchedDependentJoin(
                        root,
                        self._batch_probe(unit, context),
                        self.batch_size,
                        label=unit.source.name,
                    )
                else:
                    root = DependentJoin(
                        root,
                        self._dependent_factory(unit, context),
                        label=unit.source.name,
                        memo_key=(
                            self._probe_memo_key(unit)
                            if self.dedup_dependent_probes else None
                        ),
                    )
            else:
                step = self._unit_operator(unit, context)
                if root is None:
                    root = step
                else:
                    shared = tuple(sorted(bound_vars & set(unit.variables)))
                    if shared:
                        root = HashJoin(root, step, shared)
                    else:
                        root = NestedLoopJoin(root, step)
            bound_vars |= set(unit.variables)
            root = self._apply_ready(root, pending, bound_vars)
        if root is None:
            raise PlanningError("query decomposed to zero units")
        for condition, _ in pending:
            root = Select(root, compile_predicate(condition), label=str(condition))
        return root

    # -- helpers -------------------------------------------------------------

    def _order_units(self, units: list[Unit]) -> list[Unit]:
        """Cheapest-first among independent units; dependents after inputs.

        A simple greedy order: cache-resident units first (they cost a
        local scan and let remote fetches share prefetch waves), then
        ascending by estimated result rows (small inputs make cheap hash
        joins), then each dependent unit at the earliest point its
        inputs are bound.  Loaded mediated views rank as resident with
        their actual element count; unloaded views keep the flat
        unknown-size guess.
        """
        independent = [
            u for u in units if not (isinstance(u, FragmentUnit) and u.dependent)
        ]
        dependent = [
            u for u in units if isinstance(u, FragmentUnit) and u.dependent
        ]

        def estimate(unit: Unit) -> tuple[int, float]:
            if isinstance(unit, FragmentUnit):
                if self.cost_model.residency is not None:
                    resident = self.cost_model.residency(unit.fragment)
                    if resident is not None:
                        return (0, float(resident))
                return (1, self.cost_model.estimate_rows(unit.fragment,
                                                         unit.source))
            loaded = self._loaded_view_size(unit.view.name)
            if loaded is not None:
                return (0, float(loaded))
            return (1, 1000.0)  # views: unknown, assume large

        independent.sort(key=estimate)
        ordered: list[Unit] = list(independent)
        remaining = list(dependent)
        bound: set[str] = set()
        result: list[Unit] = []
        for unit in ordered:
            result.append(unit)
            bound |= set(unit.variables)
            placed = [
                d
                for d in remaining
                if set(d.fragment.input_vars) <= bound  # type: ignore[union-attr]
            ]
            for d in placed:
                remaining.remove(d)
                result.append(d)
                bound |= set(d.variables)
        if remaining:
            result.extend(remaining)  # will fail with a clear error later
        return result

    def _loaded_view_size(self, name: str) -> int | None:
        """Element count of a fresh materialized mediated view, or None."""
        if self.materializer is None:
            return None
        cached = self.materializer.views.get(name)
        if cached is None or not cached.is_fresh(self.materializer.clock.now):
            return None
        return len(cached.elements)

    def _unit_operator(self, unit: Unit, context: ExecutionContext) -> Operator:
        if isinstance(unit, FragmentUnit):
            scan = FragmentScan(unit, context)
            scan.estimated_rows = self.cost_model.estimate_rows(
                unit.fragment, unit.source
            )
            return scan
        # a fresh materialized copy is stored as elements, so is anything
        # the fused match cannot express: construct, then match
        if unit.fused is not None and self._loaded_view_size(unit.view.name) is None:
            return ViewMatch(
                unit.view.name,
                lambda view=unit.view: context.fetch_view(view, rows=True),
                unit.fused,
            )
        context_var = f"__view_{unit.view.name}"
        scan = CallbackScan(
            context_var,
            lambda view=unit.view: context.fetch_view(view),
            label=unit.view.name,
        )
        return PatternMatch(scan, context_var, pattern_to_tree(unit.clause.pattern))

    def _dependent_factory(self, unit: FragmentUnit, context: ExecutionContext):
        input_vars = unit.fragment.input_vars

        def factory(row: BindingTuple) -> Operator:
            params: dict[str, Any] = {}
            for var in input_vars:
                value = row.get(var)
                if value is None or isinstance(value, Null):
                    return CallbackScan(var, lambda: (), label="null-input")
                params[var] = value
            return FragmentScan(unit, context, params)

        return factory

    def _probe_memo_key(self, unit: FragmentUnit):
        """Key a dependent probe by its input values (None = no memo)."""
        from repro.xmldm.values import _comparison_key

        input_vars = unit.fragment.input_vars

        def key(row: BindingTuple):
            parts = []
            for var in input_vars:
                value = row.get(var)
                if value is None or isinstance(value, Null):
                    return None  # null inputs never probe; nothing to share
                parts.append(_comparison_key(value))
            return tuple(parts)

        return key

    def _batch_probe(self, unit: FragmentUnit, context: ExecutionContext):
        input_vars = unit.fragment.input_vars

        def probe(rows) -> list[list[BindingTuple]]:
            partners: list[list[BindingTuple]] = [[] for _ in rows]
            param_sets: list[dict[str, Any]] = []
            positions: list[int] = []
            for index, row in enumerate(rows):
                params: dict[str, Any] = {}
                for var in input_vars:
                    value = row.get(var)
                    if value is None or isinstance(value, Null):
                        params = {}
                        break
                    params[var] = value
                if not params:
                    continue  # null input: no partners, no remote probe
                positions.append(index)
                param_sets.append(params)
            if param_sets:
                results = context.fetch_fragment_batch(unit, param_sets)
                for position, records in zip(positions, results):
                    partners[position] = [
                        BindingTuple(record.as_dict()) for record in records
                    ]
            return partners

        return probe

    def _apply_ready(
        self,
        root: Operator,
        pending: list[tuple[qast.Expr, frozenset[str]]],
        bound_vars: set[str],
    ) -> Operator:
        ready = [item for item in pending if item[1] <= bound_vars]
        for item in ready:
            pending.remove(item)
            condition, _ = item
            root = Select(root, compile_predicate(condition), label=str(condition))
        return root

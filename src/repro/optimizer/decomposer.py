"""Query decomposition: split a query into per-source fragments.

"When an XML-QL query is posed to the integration engine it is parsed
and broken into multiple fragments based on the target data sources"
(section 2.1).  The decomposer resolves every pattern clause through the
catalog, groups clauses that one source can answer together (when its
profile allows joins and the clauses share variables), pushes each
condition into the unique fragment that can evaluate it, and leaves the
rest as residual work for the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Union

from repro.algebra.construct import ConstructTemplate
from repro.algebra.merge import (
    collect_aggregates,
    flat_template,
    slot_form,
)
from repro.algebra.viewmatch import FusedMatch, fuse
from repro.errors import PlanningError
from repro.mediator.catalog import Catalog, DocumentTarget
from repro.mediator.mapping import RelationMapping
from repro.mediator.schema import ViewDef
from repro.query import ast as qast
from repro.query.binder import BoundQuery
from repro.query.translate import pattern_to_tree, template_to_construct
from repro.sources.base import Access, DataSource, Fragment, Grouping
from repro.sources.webservice import WebServiceSource


@dataclass
class FragmentUnit:
    """One remote fragment plus planning metadata."""

    fragment: Fragment
    source: DataSource
    variables: tuple[str, ...]
    dependent: bool = False

    def describe(self) -> str:
        marker = " (dependent)" if self.dependent else ""
        return self.fragment.describe() + marker


@dataclass
class ViewUnit:
    """A pattern over a mediated view — answered by recursive execution."""

    clause: qast.PatternClause
    view: ViewDef
    variables: tuple[str, ...]

    @cached_property
    def fused(self) -> FusedMatch | None:
        """The view's CONSTRUCT fused with this clause's pattern, compiled
        once per compiled query; None when only the view's elements can
        answer the clause (LIMIT counts elements, so it needs them too)."""
        if self.view.query.limit is not None:
            return None
        return fuse(self.view.template, pattern_to_tree(self.clause.pattern))

    def describe(self) -> str:
        return f"View({self.view.name}; vars={','.join(self.variables)})"


Unit = Union[FragmentUnit, ViewUnit]


@dataclass
class DecomposedQuery:
    """The decomposition result handed to the plan builder."""

    bound: BoundQuery
    units: list[Unit]
    residual_conditions: list[qast.Expr]
    pushed_conditions: list[qast.Expr] = field(default_factory=list)
    #: compiled with pushdown: work the sources' profiles admit is theirs
    pushdown: bool = False

    @cached_property
    def template(self) -> ConstructTemplate:
        """The query's CONSTRUCT template, converted once per compiled
        query, so the plan cache keeps its compiled builder."""
        return template_to_construct(self.bound.query.construct)

    @cached_property
    def grouped(self) -> tuple[FragmentUnit, ConstructTemplate] | None:
        """The query as one grouped fetch, or None.

        When the whole query is a flat aggregate template over one
        fragment of a source that can group, the source can answer it in
        groups: the pair is that fragment with the template's grouping
        pushed into it, and the template that builds the same elements
        from one row per group (each aggregate read from its slot
        variable).  ``units`` keeps the row fragment — shard partials,
        view matching and delta maintenance fold rows — and only a plan
        that builds this query's elements from live sources may take the
        grouped form.  Computed once per compiled query, so the plan
        cache keeps it.
        """
        return _grouped_form(self) if self.pushdown else None

    def describe(self) -> str:
        lines = [unit.describe() for unit in self.units]
        for condition in self.residual_conditions:
            lines.append(f"Residual({condition})")
        return "\n".join(lines)


def decompose(
    bound: BoundQuery,
    catalog: Catalog,
    pushdown: bool = True,
    projection: bool = False,
) -> DecomposedQuery:
    """Decompose ``bound`` against ``catalog``.

    ``pushdown=False`` disables both condition pushdown and same-source
    fragment merging — the naive-compilation baseline benchmark E5
    measures against.  ``projection=True`` additionally prunes each
    fragment's transferred columns to the variables the rest of the
    query actually consumes (projection pushdown).
    """
    query = bound.query
    raw_units: list[Unit] = []
    for index, clause in enumerate(query.pattern_clauses):
        resolved = catalog.resolve(clause.source)
        variables = bound.clause_vars[index]
        if isinstance(resolved, ViewDef):
            raw_units.append(ViewUnit(clause, resolved, variables))
            continue
        if isinstance(resolved, RelationMapping):
            source = catalog.registry.get(resolved.source_name)
            access = Access(resolved.source_relation, resolved.rewrite_pattern(clause.pattern))
        else:
            assert isinstance(resolved, DocumentTarget)
            source = catalog.registry.get(resolved.source_name)
            access = Access(resolved.relation, pattern_to_tree(clause.pattern))
        fragment = Fragment(source.name, (access,))
        unit = FragmentUnit(fragment, source, variables)
        _mark_dependent(unit)
        raw_units.append(unit)

    units = _merge_same_source(raw_units) if pushdown else raw_units
    residual = [c.expr for c in query.condition_clauses]
    pushed: list[qast.Expr] = []
    if pushdown:
        residual = _push_conditions(units, residual, pushed)
    if projection:
        _prune_columns(units, bound, residual)
    _check_dependencies(units, bound)
    return DecomposedQuery(bound, units, residual, pushed, pushdown)


def _grouped_form(
    decomposed: DecomposedQuery,
) -> tuple[FragmentUnit, ConstructTemplate] | None:
    """The qualifying shape of aggregate pushdown; each test names the
    answer that would otherwise differ from the mediator's."""
    if len(decomposed.units) != 1 or decomposed.residual_conditions:
        return None  # a join or a filter still has to see rows
    unit = decomposed.units[0]
    if (
        not isinstance(unit, FragmentUnit)
        or unit.dependent
        or not unit.source.capabilities.aggregates
    ):
        return None
    query = decomposed.bound.query
    template = decomposed.template
    aggregates = collect_aggregates(template)
    group_vars = template.group_vars
    # no grouping variable: SQL's global aggregate answers one row over
    # an empty input where CONSTRUCT builds no element
    if not (aggregates and group_vars and flat_template(template)):
        return None
    types = _column_types(unit)
    if any(var not in types for var in group_vars):
        return None
    for item in aggregates:
        declared = types.get(item.var)
        # the mediator coerces numeric-looking strings before sum/avg/
        # min/max and orders mixed types; SQL does neither
        if declared is None or (item.kind != "count" and declared != "number"):
            return None
    if any(
        not qast.expr_variables(spec.expr) <= set(group_vars)
        for spec in query.order_by
    ):
        return None  # the sort key is not a function of the group
    rewritten, slots = slot_form(template)
    fragment = replace(
        unit.fragment, columns=(), grouping=Grouping(group_vars, slots)
    )
    grouped = replace(
        unit, fragment=fragment, variables=fragment.output_variables()
    )
    return grouped, rewritten


def _column_types(unit: FragmentUnit) -> dict[str, str]:
    """variable -> declared type of the column it reads (the first
    binding of a repeated variable, as the generated SQL selects it)."""
    relations = unit.source.relations()
    types: dict[str, str] = {}
    for access in unit.fragment.accesses:
        relation = relations.get(access.relation)
        if relation is None:
            continue  # the source rejects the fragment when it runs
        declared = {column.name: column.type for column in relation.fields}
        pattern = access.pattern
        bound = [(a.name, a.var) for a in pattern.attributes]
        bound += [(child.tag, child.text_var) for child in pattern.children]
        for name, var in bound:
            if var is not None and name in declared:
                types.setdefault(var, declared[name])
    return types


def _prune_columns(
    units: list[Unit], bound: BoundQuery, residual: list[qast.Expr]
) -> None:
    """Projection pushdown: restrict fragments to the consumed columns.

    A variable must survive transfer when anything downstream of the
    scan reads it: the CONSTRUCT template, a residual (engine-side)
    condition, an ORDER BY key, a join with another unit, or a
    dependent unit's input parameters.  Pushed conditions do *not* keep
    a column alive — the source evaluates them before projecting.
    """
    query = bound.query
    needed: set[str] = set(query.construct.variables())
    for condition in residual:
        needed |= qast.expr_variables(condition)
    for spec in query.order_by:
        needed |= qast.expr_variables(spec.expr)
    for unit in units:
        if isinstance(unit, FragmentUnit) and unit.fragment.input_vars:
            needed |= set(unit.fragment.input_vars)
    for unit in units:
        if not isinstance(unit, FragmentUnit) or unit.dependent:
            continue
        if not unit.source.capabilities.projections:
            continue
        shared: set[str] = set()
        for other in units:
            if other is not unit:
                shared |= set(unit.variables) & set(other.variables)
        keep = tuple(
            var for var in unit.variables if var in needed or var in shared
        )
        if keep and len(keep) < len(unit.variables):
            unit.fragment = replace(unit.fragment, columns=keep)


def _mark_dependent(unit: FragmentUnit) -> None:
    """Set input variables for call-only (binding-pattern) sources."""
    source = unit.source
    inner = getattr(source, "inner", source)  # unwrap FlakySource
    if not source.capabilities.requires_parameters:
        return
    if not isinstance(inner, WebServiceSource):
        raise PlanningError(
            f"source {source.name!r} requires parameters but is not an "
            "endpoint source"
        )
    access = unit.fragment.accesses[0]
    required_fields = inner.required_inputs(access.relation)
    field_to_var = {
        child.tag: child.text_var
        for child in access.pattern.children
        if child.text_var is not None
    }
    input_vars = []
    for field_name in required_fields:
        var = field_to_var.get(field_name)
        if var is None:
            raise PlanningError(
                f"endpoint {access.relation!r} requires input field "
                f"{field_name!r}, but the pattern does not bind it"
            )
        input_vars.append(var)
    unit.fragment = replace(unit.fragment, input_vars=tuple(input_vars))
    unit.dependent = True


def _merge_same_source(units: list[Unit]) -> list[Unit]:
    """Merge var-connected fragments of one join-capable source."""
    merged: list[Unit] = []
    for unit in units:
        if not isinstance(unit, FragmentUnit):
            merged.append(unit)
            continue
        if unit.dependent or not unit.source.capabilities.joins:
            merged.append(unit)
            continue
        target = None
        for candidate in merged:
            if (
                isinstance(candidate, FragmentUnit)
                and not candidate.dependent
                and candidate.source is unit.source
                and set(candidate.variables) & set(unit.variables)
            ):
                target = candidate
                break
        if target is None:
            merged.append(unit)
        else:
            target.fragment = replace(
                target.fragment,
                accesses=target.fragment.accesses + unit.fragment.accesses,
            )
            target.variables = tuple(
                dict.fromkeys(target.variables + unit.variables)
            )
    return merged


def _push_conditions(
    units: list[Unit], conditions: list[qast.Expr], pushed_out: list[qast.Expr]
) -> list[qast.Expr]:
    """Push each condition into the first fragment that can take it.

    A fragment takes a condition when it binds every variable the
    condition reads and its source's profile admits the condition
    (:meth:`CapabilityProfile.admit_condition`), possibly rewritten to
    say the same thing under the source's comparison rules.
    """
    residual: list[qast.Expr] = []
    types: dict[int, dict[str, str]] = {}
    for condition in conditions:
        needed = qast.expr_variables(condition)
        home = admitted = None
        for unit in units:
            if not isinstance(unit, FragmentUnit):
                continue
            if unit.dependent:
                continue  # parameterized endpoints take no selections
            if not needed <= set(unit.variables):
                continue
            profile = unit.source.capabilities
            if profile.typed_comparisons and id(unit) not in types:
                types[id(unit)] = _column_types(unit)
            admitted = profile.admit_condition(condition, types.get(id(unit), {}))
            if admitted is not None:
                home = unit
                break
        if home is None:
            residual.append(condition)
        else:
            home.fragment = replace(
                home.fragment,
                conditions=home.fragment.conditions + (admitted,),
            )
            pushed_out.append(condition)
    return residual


def _check_dependencies(units: list[Unit], bound: BoundQuery) -> None:
    """Every dependent fragment's inputs must come from some other unit."""
    for unit in units:
        if not isinstance(unit, FragmentUnit) or not unit.dependent:
            continue
        providers: set[str] = set()
        for other in units:
            if other is unit:
                continue
            providers.update(other.variables)
        missing = set(unit.fragment.input_vars) - providers
        if missing:
            raise PlanningError(
                f"dependent fragment on {unit.source.name!r} needs "
                f"{sorted('$' + v for v in missing)} from another clause"
            )

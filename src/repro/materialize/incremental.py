"""Incremental view maintenance: refresh by draining change feeds.

The :class:`IncrementalMaterializer` keeps, for each maintained mediated
view, the raw records of every fragment the view reads plus a
**high-water sequence number** per source.  A refresh drains each
source's :class:`~repro.cdc.changelog.ChangeLog` past the high water,
patches the kept records in place (:mod:`repro.cdc.scope`, by key), and
brings the view's elements up to date *locally* — no network calls, cost
proportional to the delta, not the base.  Three maintenance modes,
chosen per view at :meth:`maintain` time:

* ``groups`` — single-fragment aggregate views (flat construct
  template): each changed key's old rows are retracted from, and its
  new rows folded into, the per-group aggregate states
  (:class:`~repro.cdc.delta.DeltaGroups`), so the states update in
  O(delta); every row is observed at its base position, so rendering
  reads group order and representatives off the states and costs the
  groups emitted, not the rows held;
* ``rows`` — any view whose fragments are all non-dependent,
  CDC-enabled and key-addressable.  When the view is one scan, its
  residual selects and a construct whose grouping variables include the
  row key — no ORDER BY, no LIMIT — no element group spans two keys, so
  the output is the concatenation of what each key's records construct:
  a refresh rebuilds the elements of the keys the batch touched and
  reuses every other element as it is.  Every other ``rows`` shape
  (joins, ORDER BY, LIMIT, groups that span keys) patches its base
  records in place and re-runs the plan locally over them through the
  engine's own :class:`~repro.optimizer.planner.PlanBuilder` — the same
  code path a fresh execution takes, so output is bit-identical;
* ``full`` — everything else (dependent fragments, views-over-views,
  feeds without declared keys): a refresh re-runs the view query when
  any upstream feed moved.

Any delta the shapes cannot express — a ``reset`` record, a
:class:`~repro.cdc.delta.DeltaUnsupported` retraction, a patch with
ambiguous positions, a catalog epoch change — falls back to a full
rebuild.  Falling back is always correct; propagating wrongly never is.

This module never imports the engine: it is handed one via
:meth:`bind` and uses only its public-ish surface (``catalog``,
``builder``, ``clock``, ``cost_model``, ``materializer``,
``cdc_stats``, ``_compile`` and the two CDC execution helpers), so
``core.engine`` can import it without a cycle.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

from repro.algebra.construct import build_elements
from repro.algebra.merge import (
    collect_aggregates,
    flat_template,
)
from repro.algebra.tuples import BindingTuple
from repro.cdc.delta import DeltaGroups, DeltaUnsupported
from repro.cdc.scope import (
    UNPATCHABLE,
    KeyedRecords,
    apply_to_fragment,
    change_key_var,
)
from repro.errors import MediationError
from repro.materialize.policy import RefreshPolicy
from repro.mediator.schema import ViewDef
from repro.optimizer.decomposer import DecomposedQuery, FragmentUnit
from repro.query.exprs import compile_predicate
from repro.xmldm.values import Record


class _LocalContext:
    """An ExecutionContext over already-held records: zero network.

    Serves each fragment unit from the maintained base records, so the
    plan builder and operators run exactly as they would against live
    sources — same ordering inputs, same row streams — without a single
    remote call.
    """

    def __init__(self, records_by_unit: dict[int, list[Record]]):
        self._records = records_by_unit

    def fetch_fragment(self, unit, params=None):
        return list(self._records[id(unit)])

    def fetch_fragment_batch(self, unit, param_sets):
        raise MediationError("dependent fragments are not maintained")

    def fetch_view(self, view, rows=False):
        raise MediationError("views over views are not maintained")


class UnitState:
    """One fragment unit's maintained base records plus its key wiring."""

    __slots__ = ("unit", "key_field", "key_var", "records")

    def __init__(self, unit: FragmentUnit, key_field: str, key_var: str):
        self.unit = unit
        self.key_field = key_field
        self.key_var = key_var
        self.records = KeyedRecords([])

    @property
    def relation(self) -> str:
        return self.unit.fragment.accesses[0].relation


class MaintainedView:
    """One incrementally maintained mediated view."""

    def __init__(self, name: str, query, decomposed: DecomposedQuery | None,
                 epoch: Any, mode: str, units: list[UnitState]):
        self.name = name
        self.query = query
        self.decomposed = decomposed
        self.epoch = epoch
        self.mode = mode  # groups | rows | full
        self.units = units
        #: source name -> last applied change sequence number
        self.high_water: dict[str, int] = {}
        self.groups: DeltaGroups | None = None
        #: set when the output derives key by key (see ``derived``)
        self.template = None
        self.predicates: list = []
        #: row key -> what that key's base records contribute, in base
        #: order and with an entry for every key held (an empty one when
        #: residual conditions drop the row, so a later flip-in lands in
        #: place): finished elements in ``rows`` mode; in ``groups`` mode
        #: ``(slot, rows)``, the rows observed by ``groups`` at positions
        #: ``(slot, 0..)``.  None when the plan re-runs.
        self.derived: dict[object, tuple] | None = None
        #: ``groups`` mode: the slot the next new key takes.  Slots only
        #: grow, a replaced key keeps its own, so slot order is the base
        #: (dict) order of ``derived``.
        self.next_slot = 0
        self.elements: list = []
        self.delta_refreshes = 0
        self.full_rebuilds = 0

    def summary(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "delta_refreshes": self.delta_refreshes,
            "full_rebuilds": self.full_rebuilds,
            "base_rows": sum(len(us.records) for us in self.units),
            "elements": len(self.elements),
        }


class IncrementalMaterializer:
    """Owns the maintained views; bound to one engine."""

    def __init__(self) -> None:
        self.engine = None
        self.views: dict[str, MaintainedView] = {}

    def bind(self, engine) -> "IncrementalMaterializer":
        self.engine = engine
        return self

    # -- setup ------------------------------------------------------------

    def maintain(self, name: str) -> MaintainedView:
        """Start maintaining one mediated view incrementally.

        Classifies the view's best maintenance mode, performs the
        initial (network-charged) load, and publishes the elements into
        the engine's materialization manager under a *manual* refresh
        policy — the view stays fresh until maintenance says otherwise.
        """
        engine = self._engine()
        resolved = engine.catalog.resolve(name)
        if not isinstance(resolved, ViewDef):
            raise MediationError(f"{name!r} is not a mediated view")
        view = self._plan_view(name, resolved)
        self._full_load(view)
        self._publish(view)
        self.views[name] = view
        return view

    def drop(self, name: str) -> None:
        del self.views[name]

    # -- refresh ----------------------------------------------------------

    def refresh(self) -> dict[str, str]:
        """Bring every maintained view up to its feeds' latest sequence.

        Returns ``{view name: "delta" | "rebuild"}`` for the views that
        actually moved; in-sync views are skipped at the cost of one
        sequence comparison.
        """
        engine = self._engine()
        outcomes: dict[str, str] = {}
        with engine.tracer.span(
            "maintenance", views=len(self.views)
        ) as span:
            for view in self.views.values():
                with engine.tracer.span(
                    "view_refresh", name=view.name, view=view.name,
                    mode=view.mode,
                ) as view_span:
                    outcome = self._refresh_one(view)
                    if view_span.recording:
                        view_span.set(outcome=outcome or "in_sync")
                if outcome is not None:
                    outcomes[view.name] = outcome
            if span.recording:
                span.set(refreshed=len(outcomes))
        return outcomes

    def lag(self, now_ms: float) -> dict[str, dict[str, Any]]:
        """Per-view freshness: sequence distance and staleness window.

        ``seq_lag`` totals, across the view's sources, how many change
        records are past the view's high water; ``staleness_ms`` is the
        virtual-time age of the *oldest* unapplied change (0 when in
        sync) — the window during which the maintained answer has been
        behind the sources.
        """
        report: dict[str, dict[str, Any]] = {}
        for view in self.views.values():
            seq_lag = 0
            oldest: float | None = None
            for source, log in self._feeds(view):
                high_water = view.high_water.get(source, 0)
                seq_lag += log.latest_seq - high_water
                for change in log.since(high_water):
                    if oldest is None or change.at_ms < oldest:
                        oldest = change.at_ms
                    break  # the feed is ordered: first pending is oldest
            report[view.name] = {
                "mode": view.mode,
                "seq_lag": seq_lag,
                "staleness_ms": (now_ms - oldest) if oldest is not None else 0.0,
                "delta_refreshes": view.delta_refreshes,
                "full_rebuilds": view.full_rebuilds,
            }
        return report

    # -- classification ---------------------------------------------------

    def _plan_view(self, name: str, resolved: ViewDef) -> MaintainedView:
        engine = self._engine()
        query = resolved.query
        decomposed = engine._compile(query)
        units: list[UnitState] = []
        mode = "rows"
        for unit in decomposed.units:
            state = self._unit_state(unit)
            if state is None:
                mode = "full"
                units = []
                break
            units.append(state)
        view = MaintainedView(name, query, decomposed,
                              engine.catalog.version, mode, units)
        if (
            mode == "rows"
            and len(units) == 1
            and not query.order_by
            and query.limit is None
        ):
            # one scan, selects and a construct: the output is a function
            # of the base rows key by key when no group spans two keys
            template = decomposed.template
            if collect_aggregates(template) and flat_template(template):
                view.mode = "groups"
            elif units[0].key_var not in template.group_vars:
                return view
            view.template = template
            view.predicates = [
                compile_predicate(condition)
                for condition in decomposed.residual_conditions
            ]
        return view

    def _unit_state(self, unit) -> UnitState | None:
        """The unit's maintenance wiring, or None when unmaintainable."""
        if not isinstance(unit, FragmentUnit) or unit.dependent:
            return None
        fragment = unit.fragment
        if len(fragment.accesses) != 1 or fragment.input_vars:
            return None
        log = unit.source.changelog
        if log is None:
            return None
        relation = fragment.accesses[0].relation
        key_field = log.key_field(relation)
        if key_field is None:
            return None
        key_var = change_key_var(fragment, relation, key_field)
        if key_var is None or key_var not in fragment.output_variables():
            return None
        return UnitState(unit, key_field, key_var)

    # -- loading ----------------------------------------------------------

    def _full_load(self, view: MaintainedView) -> None:
        """Fetch the view from live sources (network charged), reset state."""
        engine = self._engine()
        if view.mode == "full":
            view.elements = engine._cdc_execute(view.query)
        else:
            context = engine._cdc_fetch_context()
            for state in view.units:
                state.records = KeyedRecords(
                    list(context.fetch_fragment(state.unit))
                )
            engine.cdc_stats.absorb(context.stats)
            self._rebuild_output(view)
        # captured *after* the fetch: everything at or below latest_seq
        # is already reflected in the data just read (the virtual-time
        # world is single-threaded, nothing lands mid-fetch)
        view.high_water = {
            source: log.latest_seq for source, log in self._feeds(view)
        }

    def _feeds(self, view: MaintainedView):
        """(source name, changelog) pairs the view depends on."""
        engine = self._engine()
        if view.mode != "full":
            seen: dict[str, Any] = {}
            for state in view.units:
                log = state.unit.source.changelog
                if log is not None:
                    seen[state.unit.source.name] = log
            return list(seen.items())
        # full mode: the decomposition may hide sources behind nested
        # views, so depend on every CDC-enabled source conservatively
        return [
            (source.name, source.changelog)
            for source in engine.catalog.registry
            if source.changelog is not None
        ]

    def _rebuild_output(self, view: MaintainedView) -> None:
        """Recompute the view's elements from the maintained base rows."""
        slots = None
        if view.template is not None:
            only = view.units[0]
            slots = only.records.slots(only.key_var)
        if slots is None:
            # a shape that spans keys, or records no key addresses (no
            # patch will ever land on those): run the plan over them
            context = _LocalContext(
                {id(state.unit): state.records for state in view.units}
            )
            plan = self._engine().builder.build(view.decomposed, context,
                                                held_rows=True)
            view.elements = plan.results()
            return
        if view.mode == "groups":
            view.groups = DeltaGroups(view.template)
            view.next_slot = 0
        view.derived = {}
        self._apply_touched(view, slots.items())
        self._render(view)

    def _rows(self, view: MaintainedView,
              records: tuple[Record, ...]) -> list[BindingTuple]:
        """One key's base records as the rows the residual selects keep."""
        rows = [BindingTuple(record.as_dict()) for record in records]
        for predicate in view.predicates:
            rows = [row for row in rows if predicate(row)]
        return rows

    def _render(self, view: MaintainedView) -> None:
        """The output from the per-key contributions, in base order."""
        if view.mode == "groups":
            view.elements = view.groups.finalize_positioned()
        else:
            view.elements = list(chain.from_iterable(view.derived.values()))

    def _publish(self, view: MaintainedView) -> None:
        """Expose the elements through the materialization manager."""
        manager = self._engine().materializer
        if manager is not None:
            manager.materialize_view(
                view.name, lambda: view.elements, RefreshPolicy.manual()
            )

    # -- the refresh algorithm --------------------------------------------

    def _refresh_one(self, view: MaintainedView) -> str | None:
        engine = self._engine()
        feeds = dict(self._feeds(view))
        if all(
            log.latest_seq <= view.high_water.get(source, 0)
            for source, log in feeds.items()
        ):
            return None  # in sync
        if view.mode == "full" or engine.catalog.version != view.epoch:
            return self._full_rebuild(view)

        stats = engine.cdc_stats
        delta_rows = 0
        changes = 0
        # Patches land in place.  Until the last of them, and what
        # derives from them, has landed, the view is half-moved and
        # belongs to no epoch: a refresh that stops early (an unpatchable
        # change, an unsupported retraction, an error) leaves it to be
        # rebuilt, never patched again.
        epoch, view.epoch = view.epoch, None
        #: (row key, the records it now holds) per effective change
        touched: list[tuple[object, tuple[Record, ...]]] = []
        for state in view.units:
            log = state.unit.source.changelog
            high_water = view.high_water.get(state.unit.source.name, 0)
            for change in log.since(high_water):
                if change.relation != state.relation:
                    continue
                decision, removed, added = apply_to_fragment(
                    state.unit.fragment, state.records, change,
                    state.key_field,
                )
                if decision == UNPATCHABLE:
                    return self._full_rebuild(view)
                changes += 1
                delta_rows += max(1, len(added) + len(removed))
                if removed or added:
                    touched.append((change.key, added))

        if view.derived is None:
            self._rebuild_output(view)
        else:
            try:
                self._apply_touched(view, touched)
                self._render(view)
            except DeltaUnsupported:
                return self._full_rebuild(view)
        view.epoch = epoch
        # the refresh costs local delta work, never network
        engine.clock.advance(engine.cost_model.local_cost(delta_rows))
        view.high_water = {
            source: log.latest_seq for source, log in feeds.items()
        }
        view.delta_refreshes += 1
        stats.views_delta_refreshed += 1
        stats.changes_applied += changes
        stats.delta_rows_applied += delta_rows
        self._publish(view)
        engine.tracer.event("delta_applied", view=view.name,
                            changes=changes, rows=delta_rows)
        return "delta"

    def _apply_touched(self, view: MaintainedView, touched) -> None:
        """Move the per-key contributions (and group states) with the
        base: a key that lost its records leaves, a new key appends, a
        key that kept its slot is replaced in place."""
        derived, groups = view.derived, view.groups
        for key, records in touched:
            rows = self._rows(view, records)
            if groups is None:
                if records:
                    derived[key] = tuple(build_elements(view.template, rows))
                else:
                    derived.pop(key, None)
                continue
            slot, old_rows = derived.get(key, (None, ()))
            for index, row in enumerate(old_rows):
                groups.retract(row, (slot, index))
            if not records:
                derived.pop(key, None)
                continue
            if slot is None:
                slot = view.next_slot
                view.next_slot += 1
            derived[key] = (slot, tuple(rows))
            for index, row in enumerate(rows):
                groups.observe(row, (slot, index))

    def _full_rebuild(self, view: MaintainedView) -> str:
        """The fallback: re-resolve, re-plan, re-fetch, re-publish."""
        engine = self._engine()
        resolved = engine.catalog.resolve(view.name)
        if not isinstance(resolved, ViewDef):
            raise MediationError(
                f"maintained view {view.name!r} no longer resolves to a view"
            )
        fresh = self._plan_view(view.name, resolved)
        fresh.delta_refreshes = view.delta_refreshes
        fresh.full_rebuilds = view.full_rebuilds + 1
        self._full_load(fresh)
        self.views[view.name] = fresh
        self._publish(fresh)
        engine.cdc_stats.views_full_rebuilt += 1
        engine.tracer.event("full_rebuild", view=view.name, mode=fresh.mode)
        return "rebuild"

    # -- internals --------------------------------------------------------

    def _engine(self):
        if self.engine is None:
            raise MediationError("IncrementalMaterializer is not bound")
        return self.engine

    def summary(self) -> dict[str, Any]:
        return {name: view.summary() for name, view in self.views.items()}


__all__ = ["IncrementalMaterializer", "MaintainedView", "UnitState"]

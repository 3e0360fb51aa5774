"""The wrapper contract: fragments, capabilities, the network model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.algebra.pattern import TreePattern
from repro.errors import CapabilityError, SourceUnavailableError, TransientSourceError

if TYPE_CHECKING:  # runtime import would cycle through repro.resilience
    from repro.resilience.faults import FaultModel
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.query import ast as qast
from repro.simtime import SimClock
from repro.xmldm.schema import RecordType
from repro.xmldm.values import Record, typename


@dataclass(frozen=True)
class Access:
    """One relation/collection access inside a fragment.

    ``pattern`` doubles as the projection list: its variables name the
    fields the source must return (for a relational source the pattern's
    flat children are column bindings).
    """

    relation: str
    pattern: TreePattern


@dataclass(frozen=True)
class Grouping:
    """GROUP BY evaluated at the source.

    The result then holds **groups, not rows**: one record per distinct
    combination of ``group_vars``, in the order the ungrouped scan first
    meets each combination, carrying the group variables as that first
    row bound them plus one field per aggregate.  ``aggregates`` are
    ``(kind, var, out_var)``: ``kind`` (count/sum/avg/min/max) over the
    non-NULL values of ``var``, returned as ``out_var``.  Conditions
    filter rows before they are grouped.
    """

    group_vars: tuple[str, ...]
    aggregates: tuple[tuple[str, str, str], ...]

    def describe(self) -> str:
        aggregates = ",".join(f"{kind}({var})"
                              for kind, var, _ in self.aggregates)
        return f"group={','.join(self.group_vars)} aggs={aggregates}"


@dataclass(frozen=True)
class Fragment:
    """A single-source query fragment the compiler pushes to a wrapper.

    * ``accesses`` — relations to read; variables shared between two
      accesses denote an equi-join evaluated *at the source*;
    * ``conditions`` — pushed selections over the fragment's variables;
    * ``input_vars`` — variables that will be supplied as parameters at
      execution time (dependent/parameterized access);
    * ``columns`` — projection pushdown: the subset of the fragment's
      variables the caller actually needs.  Empty means *all* variables.
      Conditions may still reference pruned variables (they are
      evaluated at the source, before projection);
    * ``grouping`` — aggregate pushdown: the source groups the rows the
      rest of the fragment selects and returns one record per group
      (see :class:`Grouping`); ``columns`` plays no part then.
    """

    source: str
    accesses: tuple[Access, ...]
    conditions: tuple[qast.Expr, ...] = ()
    input_vars: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    grouping: Grouping | None = None

    def variables(self) -> tuple[str, ...]:
        names: list[str] = []
        for access in self.accesses:
            names.extend(access.pattern.variables())
        return tuple(dict.fromkeys(names))

    def output_variables(self) -> tuple[str, ...]:
        """The variables results actually carry (after projection)."""
        if self.grouping is not None:
            return self.grouping.group_vars + tuple(
                out_var for _, _, out_var in self.grouping.aggregates
            )
        if not self.columns:
            return self.variables()
        keep = set(self.columns)
        return tuple(var for var in self.variables() if var in keep)

    def with_conditions(self, conditions: Iterable[qast.Expr]) -> "Fragment":
        return replace(self, conditions=tuple(conditions))

    def with_columns(self, columns: Iterable[str]) -> "Fragment":
        return replace(self, columns=tuple(columns))

    def describe(self) -> str:
        accesses = ", ".join(a.relation for a in self.accesses)
        text = (
            f"Fragment({self.source}: {accesses}; "
            f"{len(self.conditions)} conds; vars={','.join(self.variables())}"
        )
        if self.grouping is not None:
            text += f"; {self.grouping.describe()}"
        elif self.columns:
            text += f"; cols={','.join(self.columns)}"
        return text + ")"


@dataclass(frozen=True)
class CapabilityProfile:
    """What a source can evaluate natively (paper sections 2.1, 4).

    The optimizer never sends a wrapper more than its profile admits;
    anything beyond becomes residual work at the integration engine.
    """

    selections: bool = False        # can apply condition expressions
    projections: bool = False       # can return a subset of fields
    joins: bool = False             # can join relations within one fragment
    aggregates: bool = False        # can evaluate a fragment's grouping
    parameterized: bool = False     # supports input_vars (dependent access)
    requires_parameters: bool = False  # *only* answers parameterized calls
    batch_parameters: bool = False  # accepts many parameter sets per call
    #: results may be reused by the engine's fragment result cache;
    #: sources serving volatile, per-call data should opt out
    cacheable: bool = True
    #: condition operators the source accepts when ``selections`` is true
    condition_ops: frozenset[str] = frozenset(
        {"=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"}
    )
    #: the source compares with SQL's typed rules
    #: (:func:`repro.sql.types.sql_compare`), not the mediator's; it is
    #: sent only conditions both rules answer alike (:meth:`admit_condition`)
    typed_comparisons: bool = False

    def accepts_condition(self, expr: qast.Expr) -> bool:
        """Conservative test: only operator trees over vars and literals."""
        if not self.selections:
            return False
        if isinstance(expr, (qast.Var, qast.Literal)):
            return True
        if isinstance(expr, qast.BinOp):
            return (
                expr.op in self.condition_ops
                and self.accepts_condition(expr.left)
                and self.accepts_condition(expr.right)
            )
        if isinstance(expr, qast.Not):
            return self.accepts_condition(expr.operand)
        return False  # function calls stay at the engine

    def admit_condition(
        self, expr: qast.Expr, types: Mapping[str, str]
    ) -> qast.Expr | None:
        """``expr`` as the source should receive it, or None to keep it
        at the mediator.

        A pushed condition must mean what the mediator's evaluation
        means, or the same query answers differently with and without
        pushdown.  For a ``typed_comparisons`` source, ``types`` maps
        each variable to its column's model type, and a comparison is
        admitted only where both rules agree on its operands:

        * number against number, string against string, boolean against
          boolean, date against date;
        * a numeric-string literal against a number becomes that number
          here, at plan time — the coercion the mediator applies per row;
        * ``LIKE`` only between strings (SQL would match a number's
          text; the mediator never matches a non-string).

        Everything else stays a residual: a string column against a
        number (the mediator coerces each row's string), any other mix
        (SQL raises), ``NOT`` (SQL's unknown stays unknown under
        negation; the mediator's false comparison turns true) and a bare
        operand (the two truthiness rules differ).
        """
        if not self.accepts_condition(expr):
            return None
        if not self.typed_comparisons:
            return expr
        return _typed_condition(expr, types)


_TYPED_KINDS = frozenset({"number", "string", "boolean", "date"})


def _typed_condition(expr: qast.Expr, types: Mapping[str, str]) -> qast.Expr | None:
    """:meth:`CapabilityProfile.admit_condition` for a typed source."""
    if not isinstance(expr, qast.BinOp):
        return None
    if expr.op in ("AND", "OR"):
        left = _typed_condition(expr.left, types)
        right = _typed_condition(expr.right, types)
        if left is None or right is None:
            return None
        return _rebuilt(expr, left, right)
    left, left_kind = expr.left, _operand_kind(expr.left, types)
    right, right_kind = expr.right, _operand_kind(expr.right, types)
    if expr.op == "LIKE":
        agreeing = left_kind == right_kind == "string"
    else:
        if left_kind == "number":
            right, right_kind = _numeric_literal(right, right_kind)
        elif right_kind == "number":
            left, left_kind = _numeric_literal(left, left_kind)
        agreeing = left_kind == right_kind and left_kind in _TYPED_KINDS
    return _rebuilt(expr, left, right) if agreeing else None


def _rebuilt(expr: qast.BinOp, left: qast.Expr, right: qast.Expr) -> qast.BinOp:
    if left is expr.left and right is expr.right:
        return expr
    return replace(expr, left=left, right=right)


def _operand_kind(expr: qast.Expr, types: Mapping[str, str]) -> str | None:
    if isinstance(expr, qast.Var):
        return types.get(expr.name)
    if isinstance(expr, qast.Literal):
        return typename(expr.value)
    return None  # a nested comparison: its truth value has no column type


def _numeric_literal(expr: qast.Expr, kind: str | None) -> tuple[qast.Expr, str | None]:
    """A string literal the mediator would read as a number, as that
    number (``flex_compare``'s ``float``); anything else unchanged."""
    if kind != "string" or not isinstance(expr, qast.Literal):
        return expr, kind
    try:
        number = float(expr.value)
    except ValueError:
        return expr, kind
    if not math.isfinite(number):
        return expr, kind  # inf and nan have no SQL literal
    return qast.Literal(number), "number"


def _wire_bytes(value: Any) -> int:
    """Deterministic wire-size estimate of one field value."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    return len(str(value))


@dataclass
class NetworkModel:
    """Per-source network cost model, charged to the shared clock.

    ``latency_ms`` is paid once per remote call; ``per_row_ms`` per
    transferred row.  ``calls``/``rows_transferred`` accumulate for the
    benchmarks.  ``bytes_transferred``/``values_transferred`` estimate
    payload size per column — they measure what projection pushdown
    saves, and deliberately do **not** advance the clock (virtual time
    stays bit-identical whether or not the estimate runs).
    """

    latency_ms: float = 0.0
    per_row_ms: float = 0.0
    calls: int = 0
    rows_transferred: int = 0
    bytes_transferred: int = 0
    values_transferred: int = 0

    def charge_call(self, clock: SimClock) -> None:
        self.calls += 1
        clock.advance(self.latency_ms)

    def charge_rows(self, clock: SimClock, count: int) -> None:
        self.rows_transferred += count
        clock.advance(self.per_row_ms * count)

    def account_payload(self, rows: Iterable[Any]) -> None:
        """Accumulate per-column byte/value counts for a result payload."""
        for item in rows:
            if isinstance(item, Record):
                total = 24  # per-row framing
                count = 0
                for name, value in item.items():
                    total += 8 + len(name) + _wire_bytes(value)
                    count += 1
                self.bytes_transferred += total
                self.values_transferred += count
            else:
                # documents and other wholesale payloads: flat estimate
                self.bytes_transferred += 64
                self.values_transferred += 1

    def snapshot(self) -> tuple[int, int, int, int]:
        """Counter snapshot for delta-based accounting by the engine."""
        return (
            self.calls,
            self.rows_transferred,
            self.bytes_transferred,
            self.values_transferred,
        )

    def reset_counters(self) -> None:
        self.calls = 0
        self.rows_transferred = 0
        self.bytes_transferred = 0
        self.values_transferred = 0


class DataSource:
    """Base class for source wrappers.

    Subclasses implement :meth:`_execute` (fragment evaluation against
    local data) and :meth:`relations`.  The base class handles network
    accounting and availability.
    """

    capabilities = CapabilityProfile()

    def __init__(self, name: str, clock: SimClock | None = None,
                 network: NetworkModel | None = None,
                 faults: "FaultModel | None" = None):
        self.name = name
        self.clock = clock or SimClock()
        self.network = network or NetworkModel()
        #: optional transient-fault injector consulted on every call
        self.faults = faults
        #: claimed by an engine's ``use_tracer``; every remote call
        #: emits a ``remote_call`` event onto the open span
        self.tracer: Tracer = NULL_TRACER
        #: the source's change feed, or None until :meth:`enable_cdc`
        self.changelog = None

    # -- change data capture ----------------------------------------------

    def enable_cdc(self, keys: Mapping[str, str] | None = None):
        """Attach a :class:`~repro.cdc.changelog.ChangeLog` to this source.

        ``keys`` maps relation names to the field whose value keys rows
        of that relation (primary key, id attribute, ...).  Mutation
        helpers on concrete sources emit change records once a feed is
        attached; without one they mutate silently, as before.
        """
        from repro.cdc.changelog import ChangeLog  # deferred: cdc imports us

        if self.changelog is None:
            self.changelog = ChangeLog(self.name, self.clock)
        for relation, key_field in (keys or {}).items():
            self.changelog.declare_key(relation, key_field)
        return self.changelog

    # -- metadata ---------------------------------------------------------

    def relations(self) -> dict[str, RecordType]:
        """Exported relation name -> record type."""
        raise NotImplementedError

    def cardinality(self, relation: str) -> int:
        """Estimated row count of a relation (for the cost model)."""
        raise NotImplementedError

    # -- availability --------------------------------------------------------

    def available(self) -> bool:
        """Whether the source is reachable right now."""
        return True

    def check_available(self) -> None:
        if not self.available():
            raise SourceUnavailableError(self.name)

    # -- execution --------------------------------------------------------------

    def execute(
        self, fragment: Fragment, params: Mapping[str, Any] | None = None
    ) -> list[Record]:
        """Run a fragment remotely; returns records keyed by variable.

        Charges one call latency plus per-row transfer to the clock.
        Raises :class:`SourceUnavailableError` when offline and
        :class:`CapabilityError` when the fragment exceeds the profile.
        """
        self.check_available()
        self.validate_fragment(fragment)
        if fragment.input_vars and not params:
            raise CapabilityError(
                f"fragment for {self.name!r} needs parameters "
                f"{fragment.input_vars} but none were supplied"
            )
        self.network.charge_call(self.clock)
        self.tracer.event("remote_call", source=self.name,
                          latency_ms=self.network.latency_ms)
        if self.faults is not None:
            self.faults.inject_call(self.name, self.clock,
                                    self.network.latency_ms)
        rows = list(self._execute(fragment, dict(params or {})))
        self._charge_result_rows(rows)
        return rows

    def execute_batch(
        self,
        fragment: Fragment,
        param_sets: list[Mapping[str, Any]],
    ) -> list[list[Record]]:
        """Run one parameterized fragment for many parameter sets.

        Returns one record list per parameter set, aligned by position.
        Sources advertising ``batch_parameters`` answer the whole batch
        in a *single* remote call — one call latency amortized over the
        batch, which is what eliminates the N+1 pattern of dependent
        joins.  Everything else falls back to one call per set.
        """
        if not param_sets:
            return []
        if not self.capabilities.batch_parameters:
            return [self.execute(fragment, params) for params in param_sets]
        self.check_available()
        self.validate_fragment(fragment)
        if fragment.input_vars and any(not params for params in param_sets):
            raise CapabilityError(
                f"fragment for {self.name!r} needs parameters "
                f"{fragment.input_vars} but an empty set was supplied"
            )
        self.network.charge_call(self.clock)
        self.tracer.event("remote_batch_call", source=self.name,
                          probes=len(param_sets))
        if self.faults is not None:
            self.faults.inject_call(self.name, self.clock,
                                    self.network.latency_ms)
        results = [
            list(self._execute(fragment, dict(params)))
            for params in param_sets
        ]
        # transfer is charged over the concatenated result stream; a
        # mid-stream drop fails the whole batch (the retry re-sends it)
        flat = [row for rows in results for row in rows]
        self._charge_result_rows(flat)
        return results

    def _charge_result_rows(self, rows: list) -> None:
        """Charge transfer for a result, honoring injected stream drops.

        A mid-stream drop still pays for the rows delivered before the
        cut — the caller's retry re-transfers them, which is exactly the
        cost profile retries have against real flaky sources.
        """
        if self.faults is not None:
            cut = self.faults.drop_point(len(rows))
            if cut is not None:
                self.network.charge_rows(self.clock, cut)
                self.network.account_payload(rows[:cut])
                raise TransientSourceError(
                    self.name,
                    f"stream dropped after {cut} of {len(rows)} rows",
                )
        self.network.charge_rows(self.clock, len(rows))
        self.network.account_payload(rows)

    def validate_fragment(self, fragment: Fragment) -> None:
        profile = self.capabilities
        if len(fragment.accesses) > 1 and not profile.joins:
            raise CapabilityError(
                f"source {self.name!r} cannot join within a fragment"
            )
        if fragment.conditions and not profile.selections:
            raise CapabilityError(
                f"source {self.name!r} cannot evaluate selections"
            )
        for condition in fragment.conditions:
            if not profile.accepts_condition(condition):
                raise CapabilityError(
                    f"source {self.name!r} rejects condition {condition}"
                )
        if fragment.input_vars and not profile.parameterized:
            raise CapabilityError(
                f"source {self.name!r} does not accept parameters"
            )
        if fragment.grouping is not None and not profile.aggregates:
            raise CapabilityError(
                f"source {self.name!r} cannot group and aggregate"
            )
        if fragment.columns and not profile.projections:
            raise CapabilityError(
                f"source {self.name!r} cannot project a column subset"
            )
        if profile.requires_parameters and not fragment.input_vars:
            raise CapabilityError(
                f"source {self.name!r} answers only parameterized calls"
            )
        known = self.relations()
        for access in fragment.accesses:
            if access.relation not in known:
                raise CapabilityError(
                    f"source {self.name!r} exports no relation "
                    f"{access.relation!r}"
                )

    def _execute(self, fragment: Fragment, params: dict[str, Any]) -> Iterable[Record]:
        raise NotImplementedError

    def fetch_all(self, relation: str) -> list[Any]:
        """Fetch a relation wholesale (documents or records).

        The unoptimized access path used by front ends that do their own
        navigation (the FLWOR dialect); charges the network model like
        any other call.
        """
        self.check_available()
        self.network.charge_call(self.clock)
        self.tracer.event("remote_call", source=self.name, relation=relation,
                          latency_ms=self.network.latency_ms)
        if self.faults is not None:
            self.faults.inject_call(self.name, self.clock,
                                    self.network.latency_ms)
        items = list(self._fetch_all(relation))
        self._charge_result_rows(items)
        return items

    def _fetch_all(self, relation: str) -> Iterable[Any]:
        raise NotImplementedError(
            f"{type(self).__name__} does not support wholesale access"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

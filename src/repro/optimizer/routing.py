"""Shard routing: which shards answer a compiled query, and how.

The :class:`~repro.core.sharding.ShardRouter` compiles a query once on
the coordinator, then asks :func:`route` for a :class:`RoutingDecision`:

* **coordinator** — the plan cannot be scattered soundly (it reads a
  mediated view, or joins partitioned fragments that are not aligned on
  the shard key); the coordinator engine runs it whole.
* **scatter** — every shard-local execution is self-contained: shard
  outputs merge into exactly the unsharded answer.  The decision names
  the merge plan (:data:`MERGE_PARTIAL_AGGREGATE` …) and the shards to
  visit, after two pruning passes:

  - **range pruning** — a shard whose key range contradicts the query's
    predicates (via the sound :func:`repro.materialize.matching.implies`
    test) holds no qualifying rows;
  - **stats skipping** — a shard whose *observed* key column bounds
    (per-shard column statistics from whole-relation scans) fall entirely
    outside the predicates holds no qualifying rows either, even when
    its nominal range overlaps.

Soundness of scattering rests on two checks.  A fragment over a
partitioned source whose source-side join spans two partitioned
relations must bind the shard key of both to one variable (the join is
then shard-local by construction).  And when several *fragments* are
partitioned, they must all bind the shard key to the same query
variable and share one range vector — the engine's equi-join on that
shared variable then never needs to pair rows across shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.algebra.merge import flat_template
from repro.materialize.matching import implies
from repro.optimizer.decomposer import DecomposedQuery, FragmentUnit, ViewUnit
from repro.query import ast as qast
from repro.query.translate import template_to_construct
from repro.sources.base import Fragment
from repro.sources.sharding import (
    KeyRange,
    ShardMap,
    access_key_var,
    range_admits,
)
from repro.xmldm.values import compare_values

#: merge plans, in decreasing order of wire savings
MERGE_PARTIAL_AGGREGATE = "partial_aggregate"  # per-group states cross the wire
MERGE_TOPK = "topk"  # at most K candidate rows per shard
MERGE_DISTINCT = "distinct"  # one representative row per shard-local group
MERGE_ORDERED = "ordered_merge"  # sorted runs, k-way merged
MERGE_ROW_UNION = "row_union"  # all rows, concatenated in shard order


@dataclass(frozen=True)
class ShardPruned:
    """One shard the router decided not to visit, and why."""

    shard: int
    reason: str


@dataclass(frozen=True)
class RoutingDecision:
    """Where a compiled query runs and how its partials merge."""

    strategy: str  # "scatter" | "coordinator"
    reason: str
    merge: str = ""
    key_var: str | None = None
    shard_count: int = 0
    selected: tuple[int, ...] = ()
    pruned: tuple[ShardPruned, ...] = field(default_factory=tuple)

    @property
    def scatter(self) -> bool:
        return self.strategy == "scatter"

    def describe(self) -> str:
        """The EXPLAIN rendering, appended below the physical plan."""
        if not self.scatter:
            return f"Routing(coordinator: {self.reason})"
        key = f", key=${self.key_var}" if self.key_var else ""
        lines = [
            f"Routing(scatter: merge={self.merge}, "
            f"shards={len(self.selected)}/{self.shard_count}{key})"
        ]
        for entry in self.pruned:
            lines.append(f"  pruned shard {entry.shard}: {entry.reason}")
        return "\n".join(lines)


def merge_strategy(query: qast.Query) -> str:
    """The cheapest merge plan that is exact for this query shape.

    Flat templates (no nested element templates) render each element
    from its group's representative row alone, so shards can ship
    representatives or aggregate states instead of member rows.  ORDER
    BY forces sorted runs; ORDER BY + LIMIT over a flat aggregate-free
    template admits top-K-of-top-Ks.
    """
    template = template_to_construct(query.construct)
    flat = flat_template(template)
    has_aggregates = template.has_aggregates()
    if query.order_by:
        if query.limit is not None and flat and not has_aggregates:
            return MERGE_TOPK
        return MERGE_ORDERED
    if flat and has_aggregates:
        return MERGE_PARTIAL_AGGREGATE
    if flat:
        return MERGE_DISTINCT
    return MERGE_ROW_UNION


#: per-(shard, fragment, variable) observed key bounds, or None when
#: the shard has no statistics for the fragment's key column yet
StatsBounds = Callable[[int, Fragment, str], "tuple[Any, Any] | None"]


def _empty_range(key_range: KeyRange) -> bool:
    return (
        key_range.low is not None
        and key_range.high is not None
        and compare_values(key_range.low, key_range.high) >= 0
    )


def stats_admits(minimum: Any, maximum: Any, key_var: str,
                 conditions) -> bool:
    """Can a shard whose keys all lie in ``[minimum, maximum]`` match?

    Sound for the same reason :func:`~repro.sources.sharding.
    range_admits` is: a condition that *implies* the key falls below the
    observed minimum or above the observed maximum excludes every row
    the shard actually holds.
    """
    var = qast.Var(key_var)
    for condition in conditions:
        if implies(condition, qast.BinOp("<", var, qast.Literal(minimum))):
            return False
        if implies(condition, qast.BinOp(">", var, qast.Literal(maximum))):
            return False
    return True


def _coordinator(reason: str) -> RoutingDecision:
    return RoutingDecision("coordinator", reason)


def route(
    decomposed: DecomposedQuery,
    shard_maps: Mapping[str, ShardMap],
    stats_bounds: StatsBounds | None = None,
) -> RoutingDecision:
    """Decide where ``decomposed`` runs against ``shard_maps``."""
    partitioned: list[tuple[FragmentUnit, ShardMap, str | None]] = []
    has_view = False
    for unit in decomposed.units:
        if isinstance(unit, ViewUnit):
            has_view = True
            continue
        shard_map = shard_maps.get(unit.source.name)
        if shard_map is None:
            continue
        split_accesses = [
            access for access in unit.fragment.accesses
            if shard_map.partitions(access.relation)
        ]
        if not split_accesses:
            continue  # only broadcast relations: every shard is complete
        bound_vars = {
            access_key_var(access, shard_map.key)
            for access in split_accesses
        }
        if len(split_accesses) > 1 and (None in bound_vars
                                        or len(bound_vars) > 1):
            return _coordinator(
                f"source-side join on {unit.source.name!r} is not aligned "
                "on the shard key"
            )
        key_var = (
            next(iter(bound_vars)) if len(bound_vars) == 1 else None
        )
        partitioned.append((unit, shard_map, key_var))
    if not partitioned:
        return _coordinator("no partitioned fragments")
    if has_view:
        # a view sub-query may aggregate or group across the partition,
        # which a per-shard recursive execution would compute wrongly
        return _coordinator("plan reads a mediated view")
    ranges = partitioned[0][1].ranges
    if any(entry[1].ranges != ranges for entry in partitioned[1:]):
        return _coordinator("partitioned sources are not co-partitioned")
    if len(partitioned) > 1:
        key_vars = {entry[2] for entry in partitioned}
        if None in key_vars or len(key_vars) > 1:
            return _coordinator(
                "partitioned fragments do not join on the shard key"
            )
    key_var = partitioned[0][2]
    conditions: list[qast.Expr] = list(decomposed.residual_conditions)
    if key_var is not None:
        for unit, _, unit_key_var in partitioned:
            if unit_key_var == key_var:
                conditions.extend(unit.fragment.conditions)
    selected: list[int] = []
    pruned: list[ShardPruned] = []
    for index, key_range in enumerate(ranges):
        if _empty_range(key_range):
            pruned.append(ShardPruned(index, "empty key range"))
            continue
        if key_var is not None and not range_admits(
            key_range, key_var, conditions
        ):
            pruned.append(ShardPruned(
                index,
                f"range {key_range.describe()} contradicts predicates",
            ))
            continue
        if key_var is not None and stats_bounds is not None:
            skipped = False
            for unit, _, unit_key_var in partitioned:
                if unit_key_var != key_var:
                    continue
                bounds = stats_bounds(index, unit.fragment, key_var)
                if bounds is not None and not stats_admits(
                    bounds[0], bounds[1], key_var, conditions
                ):
                    pruned.append(ShardPruned(
                        index,
                        f"stats [{bounds[0]!r}, {bounds[1]!r}] "
                        "contradict predicates",
                    ))
                    skipped = True
                    break
            if skipped:
                continue
        selected.append(index)
    return RoutingDecision(
        "scatter",
        f"{len(partitioned)} partitioned fragment(s)",
        merge=merge_strategy(decomposed.bound.query),
        key_var=key_var,
        shard_count=len(ranges),
        selected=tuple(selected),
        pruned=tuple(pruned),
    )

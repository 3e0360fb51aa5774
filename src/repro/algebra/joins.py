"""Join operators: hash (natural), nested-loop (theta) and dependent."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.algebra.operators import Operator, Predicate
from repro.algebra.tuples import BindingTuple
from repro.xmldm.values import _comparison_key


def _key_for(row: BindingTuple, variables: tuple[str, ...]) -> tuple | None:
    parts = []
    for var in variables:
        if var not in row:
            return None
        parts.append(_comparison_key(row[var]))
    return tuple(parts)


class HashJoin(Operator):
    """Natural join on explicitly named shared variables.

    Builds a hash table over the right child keyed by the join variables'
    values, then probes with the left.  Tuples lacking a join variable
    never match (NULL-like semantics).
    """

    def __init__(self, left: Operator, right: Operator, join_vars: tuple[str, ...] | list[str]):
        super().__init__(left, right)
        self.join_vars = tuple(join_vars)

    def _produce(self) -> Iterator[BindingTuple]:
        left, right = self.children
        buckets: dict[tuple, list[BindingTuple]] = {}
        for row in right:
            key = _key_for(row, self.join_vars)
            if key is not None:
                buckets.setdefault(key, []).append(row)
        for row in left:
            key = _key_for(row, self.join_vars)
            if key is None:
                continue
            for partner in buckets.get(key, ()):
                merged = row.merge(partner)
                if merged is not None:
                    yield merged

    def describe(self) -> str:
        return f"HashJoin({', '.join('$' + v for v in self.join_vars)})"


class NestedLoopJoin(Operator):
    """Theta join: cross product filtered by an optional predicate.

    Tuples that share variables must agree on them (merge unification);
    an extra predicate can express non-equi conditions.
    """

    def __init__(self, left: Operator, right: Operator, predicate: Predicate | None = None):
        super().__init__(left, right)
        self.predicate = predicate

    def _produce(self) -> Iterator[BindingTuple]:
        left, right = self.children
        right_rows = list(right)
        for row in left:
            for partner in right_rows:
                merged = row.merge(partner)
                if merged is None:
                    continue
                if self.predicate is None or self.predicate(merged):
                    yield merged

    def describe(self) -> str:
        return "NestedLoopJoin" + ("(θ)" if self.predicate else "")


class DependentJoin(Operator):
    """For each left tuple, run a right plan built from its bindings.

    This is the operator behind binding-pattern sources (web services
    that require input parameters): the optimizer places the dependent
    side so its required variables are bound by the time it runs.

    ``memo_key`` (optional) maps a left row to a hashable identity of
    its probe inputs; rows sharing an identity reuse the first row's
    partner list instead of re-running the right plan.  A key of None
    opts a row out of memoization (e.g. null inputs).
    """

    def __init__(
        self,
        left: Operator,
        right_factory: Callable[[BindingTuple], Operator],
        label: str = "",
        memo_key: Callable[[BindingTuple], object] | None = None,
    ):
        super().__init__(left)
        self.right_factory = right_factory
        self.label = label
        self.memo_key = memo_key
        self.probe_memo_hits = 0

    def _produce(self) -> Iterator[BindingTuple]:
        memo: dict[object, list[BindingTuple]] = {}
        for row in self.children[0]:
            key = self.memo_key(row) if self.memo_key is not None else None
            if key is not None and key in memo:
                partners = memo[key]
                self.probe_memo_hits += 1
            else:
                partners = list(self.right_factory(row))
                if key is not None:
                    memo[key] = partners
            for partner in partners:
                merged = row.merge(partner)
                if merged is not None:
                    yield merged

    def describe(self) -> str:
        return f"DependentJoin({self.label or 'parameterized'})"


#: resolves a buffered batch of left rows to one partner list per row
BatchProbe = Callable[[Sequence[BindingTuple]], Sequence[Sequence[BindingTuple]]]


class BatchedDependentJoin(Operator):
    """Dependent join that probes the right side one *batch* at a time.

    Left rows are buffered into groups of ``batch_size`` and handed to
    ``probe``, which answers all of them together (for batch-capable
    sources, in one remote call).  Output order is identical to the
    per-row :class:`DependentJoin`: partners are emitted in left-row
    order within each batch.
    """

    def __init__(
        self,
        left: Operator,
        probe: BatchProbe,
        batch_size: int,
        label: str = "",
    ):
        super().__init__(left)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.probe = probe
        self.batch_size = batch_size
        self.label = label
        self.batches_probed = 0

    def _produce(self) -> Iterator[BindingTuple]:
        buffer: list[BindingTuple] = []
        for row in self.children[0]:
            buffer.append(row)
            if len(buffer) >= self.batch_size:
                yield from self._flush(buffer)
                buffer = []
        if buffer:
            yield from self._flush(buffer)

    def _flush(self, rows: list[BindingTuple]) -> Iterator[BindingTuple]:
        self.batches_probed += 1
        partner_lists = self.probe(rows)
        for row, partners in zip(rows, partner_lists):
            for partner in partners:
                merged = row.merge(partner)
                if merged is not None:
                    yield merged

    def describe(self) -> str:
        name = self.label or "parameterized"
        return f"BatchedDependentJoin({name}, batch={self.batch_size})"

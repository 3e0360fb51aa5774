"""The physical algebra: executable operators over binding tuples.

Following section 3.1 of the paper, this is deliberately a *physical*
algebra — "a set of physical operators that are implemented by the query
processor" — not a logical one: XML-QL queries are translated to an
internal representation and "from there directly to query execution plans
in the physical algebra".

Operators are Python iterators over :class:`BindingTuple` (variable ->
model value maps).  The set is exactly what the planners build:
:class:`CallbackScan` (the wrapper fetch), :class:`Select`,
:class:`Compute`, the joins (:class:`HashJoin`, :class:`NestedLoopJoin`,
:class:`DependentJoin`, :class:`BatchedDependentJoin`), ORDER BY
(:class:`Sort`, :class:`Limit`, and :class:`TopK` fused from the two),
tree-pattern navigation (:class:`PatternMatch`, and :class:`ViewMatch`
for a pattern over a mediated view's binding rows) and element
construction with grouping and aggregates (:class:`Construct`).  The
planner's own leaf, ``FragmentScan``, lives in :mod:`repro.optimizer.planner`.
Recursive queries are not supported.
"""

from repro.algebra.construct import (
    Construct,
    ConstructTemplate,
    TemplateText,
    TemplateVar,
    build_elements,
)
from repro.algebra.joins import (
    BatchedDependentJoin,
    DependentJoin,
    HashJoin,
    NestedLoopJoin,
)
from repro.algebra.operators import (
    Compute,
    Limit,
    Operator,
    Select,
    Sort,
    TopK,
    fuse_sort_limit,
    sort_rows,
)
from repro.algebra.vector import (
    MISSING,
    ColumnStats,
    ColumnStatsRepository,
    TableStats,
    shred_records,
)
from repro.algebra.merge import (
    PartialGroups,
    dedup_rows,
    merge_sorted,
    topk_rows,
)
from repro.algebra.pattern import AttributePattern, TreePattern
from repro.algebra.navigate import PatternMatch
from repro.algebra.plan import Plan
from repro.algebra.scans import CallbackScan
from repro.algebra.tuples import BindingTuple, EMPTY_TUPLE
from repro.algebra.viewmatch import ViewMatch

__all__ = [
    "AttributePattern",
    "BatchedDependentJoin",
    "BindingTuple",
    "CallbackScan",
    "ColumnStats",
    "ColumnStatsRepository",
    "Compute",
    "Construct",
    "ConstructTemplate",
    "DependentJoin",
    "EMPTY_TUPLE",
    "HashJoin",
    "Limit",
    "MISSING",
    "NestedLoopJoin",
    "Operator",
    "PartialGroups",
    "PatternMatch",
    "Plan",
    "Select",
    "Sort",
    "TableStats",
    "TemplateText",
    "TemplateVar",
    "TopK",
    "TreePattern",
    "ViewMatch",
    "build_elements",
    "dedup_rows",
    "fuse_sort_limit",
    "merge_sorted",
    "shred_records",
    "sort_rows",
    "topk_rows",
]

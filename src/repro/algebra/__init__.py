"""The physical algebra: executable operators over binding tuples.

Following section 3.1 of the paper, this is deliberately a *physical*
algebra — "a set of physical operators that are implemented by the query
processor" — not a logical one: XML-QL queries are translated to an
internal representation and "from there directly to query execution plans
in the physical algebra".

Operators are Python iterators over :class:`BindingTuple` (variable ->
model value maps).  The operator set covers both relational shapes
(scan/select/project/join/group) and the XML-specific features the
paper's conclusion lists: document order (Sort over document positions),
tree-pattern navigation (:class:`PatternMatch`, :class:`Navigate`, and
:class:`ViewMatch` for a pattern over a mediated view's binding rows),
element construction with grouping (:class:`Construct`) and recursion
(:class:`FixPoint`).
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
    Distinct,
    Limit,
    Operator,
    Project,
    Select,
    Sort,
    TopK,
    Union,
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
from repro.algebra.grouping import Aggregate, AggregateSpec, GroupBy
from repro.algebra.pattern import AttributePattern, TreePattern
from repro.algebra.navigate import Navigate, PatternMatch
from repro.algebra.plan import Plan
from repro.algebra.recursion import FixPoint
from repro.algebra.scans import BindingsSource, CallbackScan, CollectionScan
from repro.algebra.tuples import BindingTuple, EMPTY_TUPLE
from repro.algebra.viewmatch import ViewMatch

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "AttributePattern",
    "BatchedDependentJoin",
    "BindingTuple",
    "BindingsSource",
    "CallbackScan",
    "CollectionScan",
    "ColumnStats",
    "ColumnStatsRepository",
    "Compute",
    "Construct",
    "ConstructTemplate",
    "DependentJoin",
    "Distinct",
    "EMPTY_TUPLE",
    "FixPoint",
    "GroupBy",
    "HashJoin",
    "Limit",
    "MISSING",
    "Navigate",
    "NestedLoopJoin",
    "Operator",
    "PartialGroups",
    "PatternMatch",
    "Plan",
    "Project",
    "Select",
    "Sort",
    "TableStats",
    "TemplateText",
    "TemplateVar",
    "TopK",
    "TreePattern",
    "Union",
    "ViewMatch",
    "build_elements",
    "dedup_rows",
    "fuse_sort_limit",
    "merge_sorted",
    "shred_records",
    "sort_rows",
    "topk_rows",
]

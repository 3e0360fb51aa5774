"""Change data capture: feeds, diffing, delta aggregation, change scoping.

The subsystem that turns the warehouse tier from "fast but stale" into
"fast and fresh" (paper §3.3's compound architecture under writes):

* :mod:`changelog` — per-source append-only change feeds with
  monotonically increasing sequence numbers;
* :mod:`differ` — subtree-hash document diffing for snapshot-only
  sources (hash every node, recurse only into changed hashes);
* :mod:`delta` — grouped aggregation with retraction, which keeps a
  materialized view's aggregate elements current row by row;
* :mod:`scope` — mapping one change to the fragments it can affect:
  key-range exclusion, in-place record patches.

Consumers: :class:`repro.materialize.incremental.IncrementalMaterializer`
drains feeds into materialized views; the engine's ``sync_changes``
drives scoped cache/store invalidation.
"""

from repro.cdc.changelog import CHANGE_OPS, ChangeLog, ChangeRecord
from repro.cdc.delta import DeltaGroups, DeltaUnsupported
from repro.cdc.differ import NodeChange, diff_documents, row_key
from repro.cdc.scope import (
    Applied,
    FragmentPatch,
    KeyedRecords,
    apply_to_fragment,
    change_key_var,
    fragment_patch,
    key_affected,
    pattern_bindings,
    patch_records,
)

__all__ = [
    "Applied",
    "CHANGE_OPS",
    "ChangeLog",
    "ChangeRecord",
    "DeltaGroups",
    "DeltaUnsupported",
    "FragmentPatch",
    "KeyedRecords",
    "NodeChange",
    "apply_to_fragment",
    "change_key_var",
    "diff_documents",
    "fragment_patch",
    "key_affected",
    "pattern_bindings",
    "patch_records",
    "row_key",
]

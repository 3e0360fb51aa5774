"""Scoping a change to the fragments it can actually affect.

The old invalidation story was a catalog-epoch bump: any write anywhere
killed every cached fragment.  This module gives each change a *scope*:

* :func:`change_key_var` — which query variable a fragment binds to the
  changed relation's key field (the ``access_key_var`` idiom from
  sharding);
* :func:`key_affected` — sound exclusion via
  :func:`repro.materialize.matching.implies`: a fragment whose pushed
  conditions imply the key lies strictly below or above the changed key
  cannot contain the changed row, so its cached results are *retained*;
* :func:`fragment_patch` / :class:`KeyedRecords` — when the fragment is
  simple enough to reconstruct the changed row exactly as the source
  scan would have produced it, the held records are *patched* in
  place instead of evicted, at the cost of the changed key's records;
* :func:`apply_to_fragment` — the retain / patch / evict decision built
  from the three, the only copy of it: the fragment cache, the
  materialized store and the incremental materializer all call it.

Every helper is conservative: when a shape is not provably patchable or
excludable the answer is "affected, evict" — correctness never rides on
completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.algebra.pattern import TreePattern, match_pattern
from repro.algebra.tuples import BindingTuple
from repro.cdc.changelog import ChangeRecord
from repro.materialize.matching import implies
from repro.query import ast as qast
from repro.query.exprs import compile_predicate
from repro.sources.base import Fragment
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Record


def pattern_bindings(pattern: TreePattern) -> dict[str, str] | None:
    """field -> variable map of a *flat* access pattern, or None.

    Covers the two shapes source rewrites produce: attribute bindings
    (``@field=$v``) and flat text-binding children (``<field>$v</field>``).
    Anything richer — literals, nested or descendant children, element
    or text variables on the row itself — returns None: the row record
    cannot be rebuilt from a field dict alone.
    """
    bindings: dict[str, str] = {}
    if pattern.element_var is not None or pattern.text_var is not None:
        return None
    if pattern.text_literal is not None:
        return None
    for attribute in pattern.attributes:
        if attribute.var is None:
            return None  # attribute literal: a hidden filter
        bindings[attribute.name] = attribute.var
    for child in pattern.children:
        if (
            child.children
            or child.attributes
            or child.descendant
            or child.element_var is not None
            or child.text_literal is not None
            or child.text_var is None
            or child.tag == "*"
        ):
            return None
        bindings[child.tag] = child.text_var
    return bindings


def change_key_var(fragment: Fragment, relation: str,
                   key_field: str) -> str | None:
    """The variable the fragment binds to ``relation``'s key field."""
    for access in fragment.accesses:
        if access.relation != relation:
            continue
        pattern = access.pattern
        for attribute in pattern.attributes:
            if attribute.name == key_field and attribute.var is not None:
                return attribute.var
        for child in pattern.children:
            if child.tag == key_field and child.text_var is not None:
                return child.text_var
    return None


def key_affected(conditions, key_var: str, key) -> bool:
    """Can a row with ``key_var = key`` satisfy the pushed conditions?

    False only when some condition provably excludes the key — it
    implies ``$key_var < key`` or ``$key_var > key``.  Equality
    conditions on other values exclude through the same implication
    (``$k = 5`` implies ``$k < 7``).
    """
    if not isinstance(key, (int, float, str)) or isinstance(key, bool):
        return True  # no total order to reason over
    var = qast.Var(key_var)
    literal = qast.Literal(key)
    for condition in conditions:
        if implies(condition, qast.BinOp("<", var, literal)):
            return False
        if implies(condition, qast.BinOp(">", var, literal)):
            return False
    return True


@dataclass(frozen=True)
class FragmentPatch:
    """How one change lands on one fragment's cached records.

    ``rows`` are the after-image records exactly as the source scan
    would produce them (conditions applied, columns projected);
    ``before_rows`` the before-image ones.  ``key_var`` locates the
    affected records inside the cached result.
    """

    op: str  # insert | update | delete
    key_var: str
    key: object
    rows: tuple[Record, ...] = ()
    before_rows: tuple[Record, ...] = ()


def _relational_rows(
    fragment: Fragment,
    bindings: dict[str, str],
    row: Record | None,
) -> tuple[Record, ...] | None:
    """The fragment-level records one relational row produces (0 or 1)."""
    if row is None:
        return ()
    values: dict[str, object] = {}
    for field_name, var in bindings.items():
        if field_name not in row.fields:
            return None  # pattern binds a field the row does not carry
        values[var] = row.get(field_name)
    match = BindingTuple(values)
    for condition in fragment.conditions:
        if not compile_predicate(condition)(match):
            return ()
    output_vars = fragment.output_variables()
    return (Record({var: match.get(var, NULL) for var in output_vars}),)


def _xml_rows(
    fragment: Fragment,
    pattern: TreePattern,
    node: Element | None,
) -> tuple[Record, ...] | None:
    """The records one row subtree produces, mirroring XMLSource scan."""
    if node is None:
        return ()
    parent = node.parent
    if pattern.tag == "*" or parent is None or parent.tag == pattern.tag:
        # the pattern could match the document root too; matches there
        # are not attributable to any single row
        return None
    predicates = [compile_predicate(c) for c in fragment.conditions]
    variables = pattern.variables()
    if fragment.columns:
        keep = set(fragment.columns)
        output_vars = [var for var in variables if var in keep]
    else:
        output_vars = list(variables)
    seed = BindingTuple()
    rows: list[Record] = []
    for candidate in node.descendants_or_self(pattern.tag):
        for match in match_pattern(pattern, candidate, seed):
            if all(predicate(match) for predicate in predicates):
                rows.append(
                    Record({var: match.get(var, NULL) for var in output_vars})
                )
    return tuple(rows)


def fragment_patch(
    fragment: Fragment, change: ChangeRecord, key_field: str
) -> FragmentPatch | None:
    """An in-place patch for ``change`` against ``fragment``, or None.

    None means "not patchable — evict".  Requires a single access over
    the changed relation that binds the key field to an *output*
    variable (so patched records can be located), and a change whose
    row images reconstruct exactly.  A grouped fragment holds groups,
    not rows: one changed row moves aggregates, never a record.
    """
    if change.op == "reset" or fragment.grouping is not None:
        return None
    if len(fragment.accesses) != 1 or fragment.input_vars:
        return None
    access = fragment.accesses[0]
    if access.relation != change.relation:
        return None
    key_var = change_key_var(fragment, change.relation, key_field)
    if key_var is None or key_var not in fragment.output_variables():
        return None

    if change.node is not None or change.before_node is not None:
        rows = _xml_rows(fragment, access.pattern, change.node)
        before_rows = _xml_rows(fragment, access.pattern, change.before_node)
    else:
        bindings = pattern_bindings(access.pattern)
        if bindings is None or key_field not in bindings:
            return None
        rows = _relational_rows(fragment, bindings, change.row)
        before_rows = _relational_rows(fragment, bindings, change.before)
    if rows is None or before_rows is None:
        return None
    return FragmentPatch(change.op, key_var, change.key,
                         rows=rows, before_rows=before_rows)


def _plain_key(key) -> bool:
    """Can ``key`` address a slot?  Strings and ordinary numbers only:
    for those, dict identity, ``==`` and the algebra's grouping key all
    draw the same distinctions (booleans, NaN and integers past float
    precision are where they part)."""
    kind = type(key)
    if kind is str:
        return True
    return (kind is int or kind is float) and -(2 ** 53) < key < 2 ** 53


class KeyedRecords:
    """One fragment's records, patchable by row key without a scan.

    Readers see a plain sequence: ``len`` and iteration in scan order.
    The first patch builds an insertion-ordered ``key -> records`` map
    and from then on the map is the truth.  Dict order *is* the position
    rule a re-scan obeys — a new key appends (rowids grow, the differ
    rejects mid-document inserts), a replaced value keeps its slot (the
    row kept its rowid / document position), a deleted key closes its
    gap — so a patch costs the records of one key, not of the fragment.
    It needs every key's records adjacent (one row's fan-out is) and
    keys that are plain atoms; records that are not so are unpatchable.
    """

    __slots__ = ("_rows", "_slots", "_key_var", "_count")

    def __init__(self, records: list[Record]):
        self._rows: list[Record] | None = records
        self._slots: dict[object, tuple[Record, ...]] | None = None
        self._key_var: str | None = None
        self._count = len(records)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Record]:
        if self._rows is None:
            self._rows = [
                record for held in self._slots.values() for record in held
            ]
        return iter(self._rows)

    def slots(self, key_var: str) -> dict[object, tuple[Record, ...]] | None:
        """The ``key -> records`` map in scan order (read-only), or None
        when the records cannot be addressed by ``key_var``."""
        if self._key_var != key_var:
            self._key_var = key_var
            self._slots = self._index(key_var)
        return self._slots

    def _index(self, key_var: str):
        slots: dict[object, list[Record]] = {}
        current: list[Record] | None = None
        last = None
        for record in self:
            key = record.get(key_var)
            if current is not None and key == last:
                current.append(record)
                continue
            if not _plain_key(key) or key in slots:
                return None  # odd key, or one key's records are scattered
            current = slots[key] = [record]
            last = key
        return {key: tuple(held) for key, held in slots.items()}

    def apply(
        self, patch: FragmentPatch
    ) -> tuple[tuple[Record, ...], tuple[Record, ...]] | None:
        """Apply a patch in place: ``(removed, added)``, or None when
        unsound (then nothing has changed).

        Inserts append.  Deletes remove the key's records.  Updates
        replace them *in place*, but an update that changes how many
        records the row produces, or that flips a row *into* the result
        (its position is unknowable), is unsound.
        """
        slots = self.slots(patch.key_var)
        key, rows = patch.key, patch.rows
        if slots is None or not _plain_key(key):
            return None
        if any(row.get(patch.key_var) != key for row in rows):
            return None  # the slot would not be found under its own key
        held = slots.get(key, ())
        if patch.op == "insert":
            if held:
                return None  # duplicate key: the feed and the cache disagree
        elif patch.op == "delete":
            rows = ()  # absent already: filtered out before, nothing to do
        elif rows:
            if not held:
                return None  # flips INTO the result: position unknown
            if len(held) != len(rows):
                return None  # fan-out changed: positions ambiguous
        # an update without rows flips OUT (or was out and stays out)
        if rows:
            slots[key] = rows
        elif held:
            del slots[key]
        if held or rows:
            self._rows = None
            self._count += len(rows) - len(held)
        return held, rows


def patch_records(records: list[Record],
                  patch: FragmentPatch) -> list[Record] | None:
    """The patched copy of a record list, or None when unsound — the
    functional form of :meth:`KeyedRecords.apply`."""
    keyed = KeyedRecords(records)
    if keyed.apply(patch) is None:
        return None
    return list(keyed)


class Applied(NamedTuple):
    """What one change did to one fragment's held records."""

    decision: str  # RETAINED | EXCLUDED | PATCHED | UNPATCHABLE
    removed: tuple[Record, ...] = ()
    added: tuple[Record, ...] = ()


RETAINED = "retained"  # the fragment does not read the changed relation
EXCLUDED = "excluded"  # its pushed conditions provably exclude the key
PATCHED = "patched"  # the records were fixed in place
UNPATCHABLE = "unpatchable"  # affected and not patchable: evict


def apply_to_fragment(
    fragment: Fragment,
    records: KeyedRecords | None,
    change: ChangeRecord,
    key_field: str | None,
) -> Applied:
    """The one retain / patch / evict decision for a held fragment result.

    The fragment cache, the materialized store and the incremental
    materializer all hold ``fragment``'s records and all ask the same
    question of each change; they differ only in what UNPATCHABLE costs
    them (evict, invalidate, full rebuild).  ``records=None`` asks for
    the decision alone: whatever is not provably untouched is
    UNPATCHABLE.
    """
    if all(access.relation != change.relation for access in fragment.accesses):
        return Applied(RETAINED)
    if change.op == "reset" or key_field is None:
        return Applied(UNPATCHABLE)
    key_var = change_key_var(fragment, change.relation, key_field)
    if key_var is not None and not key_affected(
        fragment.conditions, key_var, change.key
    ):
        return Applied(EXCLUDED)
    if records is not None:
        patch = fragment_patch(fragment, change, key_field)
        if patch is not None:
            applied = records.apply(patch)
            if applied is not None:
                return Applied(PATCHED, *applied)
    return Applied(UNPATCHABLE)


__all__ = [
    "Applied",
    "EXCLUDED",
    "FragmentPatch",
    "KeyedRecords",
    "PATCHED",
    "RETAINED",
    "UNPATCHABLE",
    "apply_to_fragment",
    "change_key_var",
    "fragment_patch",
    "key_affected",
    "pattern_bindings",
    "patch_records",
]

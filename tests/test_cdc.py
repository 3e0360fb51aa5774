"""Change data capture and incremental view maintenance.

The load-bearing claim is the property test at the bottom: under random
insert/update/delete streams, a delta-maintained view's elements are
**bit-identical** to a full re-materialization of the same query —
across fragment caching on/off, injected faults on/off, and compared
against a sharded scatter-gather execution as well as the coordinator.
"""

from __future__ import annotations

import random

import pytest

from repro.admin import FreshnessMonitor, ManagementConsole
from repro.algebra.construct import build_elements
from repro.algebra.tuples import BindingTuple
from repro.cdc import (
    ChangeLog,
    ChangeRecord,
    DeltaGroups,
    DeltaUnsupported,
    diff_documents,
    fragment_patch,
    key_affected,
    patch_records,
)
from repro.core.engine import NimbleEngine, PartialResultPolicy
from repro.core.sharding import ShardRouter
from repro.errors import ExecutionError
from repro.materialize import MaterializationManager
from repro.materialize.policy import RefreshPolicy
from repro.mediator.catalog import Catalog
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.query import ast as qast
from repro.query.parser import parse_query
from repro.query.translate import template_to_construct
from repro.resilience import FaultModel, ResiliencePolicy, RetryPolicy
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.sharding import partition_registry
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm.parser import parse_document
from repro.xmldm.serializer import serialize

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- deployment builders ------------------------------------------------------


def seeded_rows(n: int, seed: int = 7) -> list[tuple[int, int, int]]:
    return [(k, (k * seed) % 5, (k * k * seed) % 23) for k in range(n)]


def build_deployment(rows, faults=None, **engine_kw):
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)"
    )
    db.insert_rows("t", rows)
    clock = SimClock()
    registry = SourceRegistry(clock)
    source = RelationalSource(
        "s", db, network=NetworkModel(latency_ms=20.0, per_row_ms=0.5)
    )
    if faults is not None:
        source.faults = faults
    registry.register(source)
    source.enable_cdc()
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    schema = MediatedSchema("m")
    schema.define(ViewDef.from_text(
        "big_items",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $v > 5 '
        "CONSTRUCT <r><k>$k</k><v>$v</v></r>",
    ))
    schema.define(ViewDef.from_text(
        "by_group",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
        "<mean>avg($v)</mean></g>",
    ))
    schema.define(ViewDef.from_text(
        "group_extremes",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <g id=$g><lo>min($v)</lo><hi>max($v)</hi></g>",
    ))
    # two shapes whose output is not a function of the rows key by key
    schema.define(ViewDef.from_text(
        "ranked_items",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $v > 5 '
        "CONSTRUCT <r><k>$k</k><v>$v</v></r> ORDER BY $v DESC, $k",
    ))
    schema.define(ViewDef.from_text(
        "values_seen",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <val>$v</val>",
    ))
    catalog.add_schema(schema)
    manager = MaterializationManager(clock)
    engine = NimbleEngine(
        catalog, materializer=manager, incremental=True, **engine_kw
    )
    return engine, source


def fresh_elements(engine, name):
    """Full re-execution of a view's query, bypassing materialization."""
    resolved = engine.catalog.resolve(name)
    result = engine._execute(
        resolved.query, PartialResultPolicy.FAIL, frozenset()
    )
    return [serialize(element) for element in result.elements]


def maintained_elements(engine, name):
    return [serialize(element) for element in engine.incremental.views[name].elements]


def _retrying() -> ResiliencePolicy:
    return ResiliencePolicy(retry=RetryPolicy(max_attempts=8), breaker=None)


# -- changelog ----------------------------------------------------------------


class TestChangeLog:
    def test_sequences_are_dense_from_one(self):
        log = ChangeLog("s", SimClock())
        log.emit("insert", "t", key=1)
        log.emit("delete", "t", key=1)
        assert [record.seq for record in log.since(0)] == [1, 2]
        assert log.latest_seq == 2

    def test_since_slices_by_sequence(self):
        log = ChangeLog("s", SimClock())
        for key in range(5):
            log.emit("insert", "t", key=key)
        assert [record.key for record in log.since(3)] == [3, 4]
        assert log.since(5) == []
        assert len(log.since(0)) == 5

    def test_declared_keys(self):
        log = ChangeLog("s", SimClock())
        log.declare_key("t", "id")
        assert log.key_field("t") == "id"
        assert log.key_field("u") is None

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            ChangeRecord(1, "upsert", "s", "t")

    def test_reset_record(self):
        log = ChangeLog("s", SimClock())
        log.emit_reset("t")
        assert log.since(0)[0].op == "reset"

    def test_timestamps_from_clock(self):
        clock = SimClock()
        log = ChangeLog("s", clock)
        clock.advance(125.0)
        log.emit("insert", "t", key=1)
        assert log.since(0)[0].at_ms == 125.0


# -- subtree hashes -----------------------------------------------------------


class TestSubtreeHash:
    DOC = "<r><a id='1'><x>1</x></a><a id='2'><x>2</x></a></r>"

    def test_equal_documents_equal_hashes(self):
        one = parse_document(self.DOC).root
        two = parse_document(self.DOC).root
        assert one.subtree_hash() == two.subtree_hash()

    def test_hash_is_memoized(self):
        root = parse_document(self.DOC).root
        root.subtree_hash()
        assert root._subtree_hash is not None

    def test_append_invalidates_ancestors(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        child = parse_document("<a id='3'><x>3</x></a>").root
        root.append(child)
        assert root._subtree_hash is None
        assert root.subtree_hash() != before

    def test_text_mutation_invalidates_up_the_chain(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        text = list(root.child_elements())[0].first_child("x").children[0]
        text.set_value("9")
        assert root.subtree_hash() != before

    def test_attribute_mutation_changes_hash(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        list(root.child_elements())[0].set_attribute("id", "7")
        assert root.subtree_hash() != before

    def test_noop_attribute_set_keeps_cache(self):
        root = parse_document(self.DOC).root
        root.subtree_hash()
        list(root.child_elements())[0].set_attribute("id", "1")  # unchanged
        assert root._subtree_hash is not None


# -- document differ ----------------------------------------------------------


def _rows_doc(rows):
    body = "".join(
        f"<row><id>{k}</id><v>{v}</v></row>" for k, v in rows
    )
    return parse_document(f"<t>{body}</t>").root


class TestDiffer:
    def test_identical_documents_no_changes(self):
        assert diff_documents(_rows_doc([(1, "a")]), _rows_doc([(1, "a")]),
                              "id") == []

    def test_update_detected(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]),
            _rows_doc([(1, "a"), (2, "B")]), "id",
        )
        assert [(c.op, c.key) for c in changes] == [("update", "2")]

    def test_append_is_insert(self):
        changes = diff_documents(
            _rows_doc([(1, "a")]), _rows_doc([(1, "a"), (2, "b")]), "id"
        )
        assert [(c.op, c.key) for c in changes] == [("insert", "2")]

    def test_delete_detected(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]), _rows_doc([(2, "b")]), "id"
        )
        assert [(c.op, c.key) for c in changes] == [("delete", "1")]

    def test_mid_document_insert_is_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (3, "c")]),
            _rows_doc([(1, "a"), (2, "b"), (3, "c")]), "id",
        )
        assert [c.op for c in changes] == ["reset"]

    def test_reorder_is_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]),
            _rows_doc([(2, "b"), (1, "a")]), "id",
        )
        assert [c.op for c in changes] == ["reset"]

    def test_duplicate_keys_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a")]), _rows_doc([(1, "a"), (1, "b")]), "id"
        )
        assert [c.op for c in changes] == ["reset"]

    def test_root_tag_change_reset(self):
        new = parse_document("<u><row><id>1</id></row></u>").root
        changes = diff_documents(_rows_doc([(1, "a")]), new, "id")
        assert [c.op for c in changes] == ["reset"]


# -- delta operators ----------------------------------------------------------


def _row(**kw):
    return BindingTuple(kw)


def _group_template(construct):
    return template_to_construct(parse_query(
        'WHERE <i><g>$g</g><v>$v</v></i> IN "x" CONSTRUCT ' + construct
    ).construct)


def _observed(template, rows):
    """DeltaGroups over ``rows``, each observed at its list index."""
    groups = DeltaGroups(template)
    for position, row in enumerate(rows):
        groups.observe(row, position)
    return groups


def _rendered(elements):
    return [serialize(e) for e in elements]


class TestDeltaOperators:
    def test_groups_count_sum_avg_exact(self):
        template = _group_template(
            "<r id=$g><n>count($v)</n><s>sum($v)</s><m>avg($v)</m></r>"
        )
        base = [_row(g=1, v=10), _row(g=1, v=20), _row(g=2, v=5)]
        groups = _observed(template, base)
        # update position 0, delete position 2, insert at position 3
        groups.retract(base[0], 0)
        groups.observe(_row(g=1, v=30), 0)
        groups.retract(base[2], 2)
        groups.observe(_row(g=2, v=7), 3)
        final = [_row(g=1, v=30), _row(g=1, v=20), _row(g=2, v=7)]
        assert _rendered(groups.finalize_positioned()) == _rendered(
            build_elements(template, final)
        )

    def test_groups_positioned_render_matches_the_walk(self):
        """Rows observed at their base positions render, from the states
        alone, what construction renders from a walk over the base rows:
        a group is represented by its first base row and emitted where
        that row stands — also after the representative moves away."""
        template = _group_template("<r id=$g><n>count($v)</n><s>sum($v)</s></r>")
        rng = random.Random(5)
        groups = DeltaGroups(template)
        base: dict[tuple, BindingTuple] = {}  # position -> row, in order
        for slot in range(40):
            base[(slot, 0)] = _row(g=rng.randrange(6), v=rng.randrange(50))
            groups.observe(base[(slot, 0)], (slot, 0))
        next_slot = 40
        for _ in range(200):
            position = rng.choice(list(base))
            groups.retract(base[position], position)
            if rng.random() < 0.3:  # delete, and a new key appends
                del base[position]
                position = (next_slot, 0)
                next_slot += 1
            base[position] = _row(g=rng.randrange(6), v=rng.randrange(50))
            groups.observe(base[position], position)
            walked = build_elements(template, [base[p] for p in sorted(base)])
            assert _rendered(groups.finalize_positioned()) == _rendered(walked)
        with pytest.raises(DeltaUnsupported):
            groups.retract(base[position], (next_slot, 0))

    def test_positioned_render_refuses_unpositioned_rows(self):
        groups = _observed(_group_template("<r id=$g><n>count($v)</n></r>"),
                           [_row(g=1, v=3)])
        with pytest.raises(TypeError):
            groups.observe(_row(g=1, v=8))
        with pytest.raises(TypeError):
            groups.retract(_row(g=1, v=3))

    def test_min_retraction_of_extreme_unsupported(self):
        template = _group_template("<r id=$g><lo>min($v)</lo></r>")
        groups = _observed(template, [_row(g=1, v=3), _row(g=1, v=8)])
        with pytest.raises(DeltaUnsupported):
            groups.retract(_row(g=1, v=3), 0)

    def test_min_retraction_of_non_extreme_fine(self):
        template = _group_template("<r id=$g><lo>min($v)</lo></r>")
        groups = _observed(template, [_row(g=1, v=3), _row(g=1, v=8)])
        groups.retract(_row(g=1, v=8), 1)
        out = groups.finalize_positioned()
        assert serialize(out[0]) == '<r id="1"><lo>3</lo></r>'

    def test_sum_over_text_raises_execution_error(self):
        template = _group_template("<r id=$g><s>sum($v)</s></r>")
        groups = _observed(template, [_row(g=1, v="3")])
        with pytest.raises(ExecutionError, match="sum over .*'x'"):
            groups.observe(_row(g=1, v="x"), 1)


# -- change scoping -----------------------------------------------------------


def _condition(op, var, value):
    return qast.BinOp(op, qast.Var(var), qast.Literal(value))


class TestScope:
    def test_key_affected_range_exclusion(self):
        conditions = [_condition("<", "k", 10)]
        assert not key_affected(conditions, "k", 15)
        assert key_affected(conditions, "k", 5)

    def test_key_affected_unordered_key_conservative(self):
        assert key_affected([_condition("<", "k", 10)], "k", True)

    def test_patch_records_insert_appends(self):
        from repro.cdc import FragmentPatch
        from repro.xmldm.values import Record

        records = [Record({"k": 1, "v": 2})]
        patch = FragmentPatch("insert", "k", 5, rows=(Record({"k": 5, "v": 9}),))
        assert patch_records(records, patch)[-1].get("k") == 5

    def test_patch_records_flip_in_unpatchable(self):
        from repro.cdc import FragmentPatch
        from repro.xmldm.values import Record

        records = [Record({"k": 1, "v": 2})]
        patch = FragmentPatch("update", "k", 5, rows=(Record({"k": 5, "v": 9}),))
        assert patch_records(records, patch) is None

    def test_patch_records_flip_out_deletes_in_place(self):
        from repro.cdc import FragmentPatch
        from repro.xmldm.values import Record

        records = [Record({"k": 1, "v": 2}), Record({"k": 5, "v": 3})]
        patch = FragmentPatch("update", "k", 5, rows=())
        patched = patch_records(records, patch)
        assert [record.get("k") for record in patched] == [1]

    def test_keyed_records_refuse_what_no_key_addresses(self):
        from repro.cdc import FragmentPatch, KeyedRecords
        from repro.xmldm.values import NULL, Record

        update = FragmentPatch("update", "k", 1, rows=(Record({"k": 1}),))
        scattered = [Record({"k": 1}), Record({"k": 2}), Record({"k": 1})]
        for records in (scattered, [Record({"k": True})],
                        [Record({"k": NULL})]):
            keyed = KeyedRecords(list(records))
            assert keyed.apply(update) is None
            assert list(keyed) == records
        # after-image rows that would not be found under the patch's key
        keyed = KeyedRecords([Record({"k": 1})])
        wrong = FragmentPatch("update", "k", 1, rows=(Record({"k": 2}),))
        assert keyed.apply(wrong) is None


def _reference_patch_records(records, patch):
    """The list-scan patch this repo shipped before records were keyed:
    kept here as the reference for where patched records must land."""
    positions = [
        index for index, record in enumerate(records)
        if record.get(patch.key_var) == patch.key
    ]
    if patch.op == "insert":
        return None if positions else records + list(patch.rows)
    if patch.op == "delete" or not patch.rows:
        if patch.op == "update" and not positions:
            return list(records)
        return [r for i, r in enumerate(records) if i not in set(positions)]
    if not positions or len(positions) != len(patch.rows):
        return None
    patched = list(records)
    for index, row in zip(positions, patch.rows):
        patched[index] = row
    return patched


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestKeyedPatchPositions:
    @given(
        fanout=st.lists(st.integers(1, 3), max_size=6),
        patches=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(0, 8),  # key: held or new
                st.integers(0, 3),  # after-image records
            ),
            max_size=8,
        ),
    )
    def test_lands_where_the_list_scan_put_it(self, fanout, patches):
        from repro.cdc import FragmentPatch, KeyedRecords
        from repro.xmldm.values import Record

        records = [Record({"k": key, "n": n})
                   for key, count in enumerate(fanout) for n in range(count)]
        keyed = KeyedRecords(list(records))
        for step, (op, key, count) in enumerate(patches):
            rows = () if op == "delete" else tuple(
                Record({"k": key, "n": 10 * step + n}) for n in range(count)
            )
            patch = FragmentPatch(op, "k", key, rows=rows)
            expected = _reference_patch_records(records, patch)
            applied = keyed.apply(patch)
            assert (applied is None) == (expected is None)
            if expected is not None:
                records = expected
            assert list(keyed) == records and len(keyed) == len(records)
            assert patch_records(records, patch) == (
                _reference_patch_records(records, patch)
            )



# -- scoped cache invalidation ------------------------------------------------


class TestScopedCacheInvalidation:
    LOW = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k < 8 '
           "CONSTRUCT <r>$k</r>")
    HIGH = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 12 '
            "CONSTRUCT <r>$k</r>")

    def test_disjoint_range_entry_retained(self):
        engine, source = build_deployment(
            seeded_rows(20), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        engine.query(self.HIGH)
        source.update_row("t", 2, {"v": 99})
        report = engine.sync_changes()
        # the $k > 12 entry provably excludes key 2: retained, not evicted
        assert report["cache_retained"] >= 1
        assert report["cache_evicted"] == 0
        # the retained entry still serves
        cached = engine.query(self.HIGH)
        assert cached.stats.cache_counters()["fragment_cache_hits"] == 1

    def test_epoch_is_not_bumped_by_data_changes(self):
        engine, source = build_deployment(seeded_rows(8))
        before = engine.catalog.version
        source.insert_row("t", {"k": 100, "grp": 0, "v": 1})
        engine.sync_changes()
        assert engine.catalog.version == before

    def test_patched_entry_serves_fresh_rows(self):
        engine, source = build_deployment(
            seeded_rows(10), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        source.update_row("t", 2, {"v": 77})
        report = engine.sync_changes()
        assert report["cache_patched"] >= 1
        result = engine.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k < 8, $k = 2 '
            "CONSTRUCT <r>$v</r>"
        )
        assert [e.text_content() for e in result.elements] == ["77"]

    def test_reset_evicts(self):
        engine, source = build_deployment(
            seeded_rows(10), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        source.changelog.emit_reset("t")
        report = engine.sync_changes()
        assert report["cache_evicted"] >= 1

    @pytest.mark.parametrize("one_batch", [False, True])
    def test_invalidated_store_view_stays_invalidated(self, one_batch):
        """A flip-in invalidates the stored fragment; a later patchable
        change must not declare it fresh again (it would serve without
        the row that flipped in, at zero remote calls)."""
        query = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v >= 50 '
                 "CONSTRUCT <r>$k</r> ORDER BY $k")
        engine, source = build_deployment([(k, 0, 10 * k) for k in range(10)])
        assert engine.materialize_query_fragments(
            query, RefreshPolicy.manual()
        ) == 1
        source.update_row("t", 1, {"v": 500})  # flips INTO the result
        reports = [] if one_batch else [engine.sync_changes()]
        source.update_row("t", 7, {"v": 71})  # patchable on its own
        reports.append(engine.sync_changes())
        assert sum(r["store_invalidated"] for r in reports) == 2
        assert sum(r["store_patched"] for r in reports) == 0
        (view,) = engine.materializer.store
        assert view.invalidated
        assert 7 in [r.get("k") for r in view.records]  # and unpatched:
        assert 71 not in [r.get("v") for r in view.records]
        result = engine.query(query)
        assert [e.text_content() for e in result.elements] == [
            "1", "5", "6", "7", "8", "9"
        ]
        assert result.stats.remote_calls == 1


# -- incremental maintenance (deterministic) ----------------------------------


class TestIncrementalMaintenance:
    def test_modes_classified(self):
        engine, _ = build_deployment(seeded_rows(10))
        assert engine.maintain_view("big_items").mode == "rows"
        assert engine.maintain_view("by_group").mode == "groups"

    def test_delta_refresh_bit_identical(self):
        engine, source = build_deployment(seeded_rows(12))
        for name in ("big_items", "by_group", "group_extremes"):
            engine.maintain_view(name)
        source.insert_row("t", {"k": 50, "grp": 1, "v": 9})
        source.delete_row("t", 3)
        source.update_row("t", 5, {"v": 21})
        engine.sync_changes()
        for name in ("big_items", "by_group", "group_extremes"):
            assert maintained_elements(engine, name) == fresh_elements(
                engine, name
            ), name

    def test_delta_path_actually_taken(self):
        engine, source = build_deployment(seeded_rows(12))
        engine.maintain_view("by_group")
        source.insert_row("t", {"k": 50, "grp": 1, "v": 9})
        report = engine.sync_changes()
        assert report["views"]["by_group"] == "delta"
        assert engine.cdc_stats.views_delta_refreshed == 1
        assert engine.cdc_stats.views_full_rebuilt == 0

    @pytest.mark.parametrize("name", ["big_items", "by_group", "ranked_items"])
    def test_refresh_that_stops_early_is_rebuilt_not_patched_again(
        self, name, monkeypatch
    ):
        """Patches land in place, so a refresh an error cuts short
        leaves base records ahead of the output and the high-water mark
        behind both: the view belongs to no epoch and the next refresh
        rebuilds it instead of applying the same changes twice."""
        engine, source = build_deployment(seeded_rows(12))
        view = engine.maintain_view(name)
        before = maintained_elements(engine, name)
        source.insert_row("t", {"k": 50, "grp": 1, "v": 9})
        source.update_row("t", 5, {"v": 21})
        with monkeypatch.context() as patched:
            def broken(*_args):
                raise RuntimeError("cut short")
            patched.setattr(engine.incremental, "_render", broken)
            patched.setattr(engine.incremental, "_rebuild_output", broken)
            with pytest.raises(RuntimeError):
                engine.sync_changes()
        assert view.epoch is None
        assert maintained_elements(engine, name) == before
        assert engine.sync_changes()["views"][name] == "rebuild"
        assert maintained_elements(engine, name) == fresh_elements(
            engine, name
        )

    def test_flip_in_falls_back_to_rebuild(self):
        engine, source = build_deployment(seeded_rows(12))
        engine.maintain_view("big_items")
        low = next(  # a row currently outside the $v > 5 view
            k for (k, _, v) in seeded_rows(12) if v <= 5
        )
        source.update_row("t", low, {"v": 100})
        report = engine.sync_changes()
        assert report["views"]["big_items"] == "rebuild"
        assert maintained_elements(engine, "big_items") == fresh_elements(
            engine, "big_items"
        )

    def test_epoch_change_forces_rebuild(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        engine.catalog.map_relation("extra", "s", "t")  # bumps the epoch
        source.insert_row("t", {"k": 60, "grp": 0, "v": 30})
        report = engine.sync_changes()
        assert report["views"]["big_items"] == "rebuild"
        assert maintained_elements(engine, "big_items") == fresh_elements(
            engine, "big_items"
        )

    def test_served_through_manager(self):
        engine, source = build_deployment(seeded_rows(10))
        engine.maintain_view("big_items")
        source.insert_row("t", {"k": 70, "grp": 2, "v": 8})
        engine.sync_changes()
        served = engine.materializer.serve_view("big_items")
        assert served is not None
        assert [serialize(e) for e in served] == fresh_elements(
            engine, "big_items"
        )

    def test_in_sync_refresh_is_noop(self):
        engine, _ = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        report = engine.sync_changes()
        assert report["views"] == {}
        assert report["changes"] == 0

    def test_xml_view_maintained_via_differ(self):
        clock = SimClock()
        registry = SourceRegistry(clock)
        xml = XMLSource(
            "x",
            {"rows": "<t><row><id>1</id><v>3</v></row>"
                     "<row><id>2</id><v>8</v></row></t>"},
            network=NetworkModel(latency_ms=10.0),
        )
        registry.register(xml)
        xml.enable_cdc({"rows": "id"})
        catalog = Catalog(registry)
        schema = MediatedSchema("m")
        schema.define(ViewDef.from_text(
            "all_rows",
            'WHERE <row><id>$i</id><v>$v</v></row> IN "x.rows" '
            "CONSTRUCT <o><i>$i</i><v>$v</v></o>",
        ))
        catalog.add_schema(schema)
        engine = NimbleEngine(
            catalog, materializer=MaterializationManager(clock),
            incremental=True,
        )
        view = engine.maintain_view("all_rows")
        assert view.mode == "rows"
        xml.replace_document(
            "rows",
            "<t><row><id>1</id><v>9</v></row>"
            "<row><id>2</id><v>8</v></row>"
            "<row><id>3</id><v>4</v></row></t>",
        )
        report = engine.sync_changes()
        assert report["views"]["all_rows"] == "delta"
        assert maintained_elements(engine, "all_rows") == fresh_elements(
            engine, "all_rows"
        )


# -- freshness monitoring -----------------------------------------------------


class TestFreshness:
    def test_lag_counts_pending_changes(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        monitor = FreshnessMonitor(engine)
        assert monitor.snapshot()["views"]["big_items"]["seq_lag"] == 0
        engine.clock.advance(500.0)
        source.insert_row("t", {"k": 90, "grp": 0, "v": 9})
        engine.clock.advance(250.0)
        snapshot = monitor.snapshot()
        view = snapshot["views"]["big_items"]
        assert view["seq_lag"] == 1
        assert view["staleness_ms"] == 250.0
        engine.sync_changes()
        assert monitor.worst_staleness_ms() == 0.0

    def test_console_renders_freshness_section(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("by_group")
        source.insert_row("t", {"k": 90, "grp": 0, "v": 9})
        engine.sync_changes()
        console = ManagementConsole(
            engine, freshness_monitor=FreshnessMonitor(engine)
        )
        text = console.render()
        assert "incremental maintenance: on" in text
        assert "by_group [groups]: in sync" in text
        report = console.system_report()
        assert report["freshness"]["counters"]["views_delta_refreshed"] == 1


# -- the bit-identity property ------------------------------------------------


def _apply_ops(source, ops):
    """Interpret an op stream against the relational source, via CDC DML."""
    live = {row[0] for rowid, row in source.database.table("t").scan()}
    next_key = (max(live) + 1) if live else 0
    for kind, pick, grp, v in ops:
        keys = sorted(live)
        if kind == "insert" or not keys:
            source.insert_row("t", {"k": next_key, "grp": grp, "v": v})
            live.add(next_key)
            next_key += 1
        elif kind == "update":
            key = keys[pick % len(keys)]
            source.update_row("t", key, {"grp": grp, "v": v})
        else:
            key = keys[pick % len(keys)]
            source.delete_row("t", key)
            live.discard(key)


VIEW_NAMES = ("big_items", "by_group", "group_extremes")

OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(0, 99),
        st.integers(0, 4),
        st.integers(0, 22),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitIdentityProperty:
    @given(
        n_rows=st.integers(2, 24),
        seed=st.integers(1, 50),
        batches=st.lists(OPS, min_size=1, max_size=3),
        cache=st.booleans(),
        faulty=st.booleans(),
        sharded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_maintained_equals_full_rematerialization(
        self, n_rows, seed, batches, cache, faulty, sharded
    ):
        kwargs = dict(fragment_cache_bytes=300_000 if cache else 0)
        if faulty:
            kwargs["resilience"] = _retrying()
        faults = FaultModel(failure_rate=0.08, seed=seed) if faulty else None
        engine, source = build_deployment(seeded_rows(n_rows, seed), faults,
                                          **kwargs)
        for name in VIEW_NAMES:
            engine.maintain_view(name)
        for ops in batches:
            _apply_ops(source, ops)
            engine.sync_changes()
            for name in VIEW_NAMES:
                assert maintained_elements(engine, name) == fresh_elements(
                    engine, name
                ), name
        if sharded:
            # the maintained answer also matches a sharded scatter-gather
            # execution over a fresh partition of the mutated data
            deployment = partition_registry(
                engine.catalog.registry, {"s": "k"}, 2
            )
            router = ShardRouter(engine, deployment)
            for name in VIEW_NAMES:
                resolved = engine.catalog.resolve(name)
                routed = router.query(resolved.query)
                assert maintained_elements(engine, name) == [
                    serialize(e) for e in routed.elements
                ], name


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRerunShapesProperty:
    """The sweep above holds the key-by-key and group-state refreshes to
    a fresh execution; this one does so for the views that still re-run
    their plan over the patched base rows."""

    @given(
        n_rows=st.integers(2, 24),
        seed=st.integers(1, 50),
        batches=st.lists(OPS, min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_rerun_equals_full_rematerialization(self, n_rows, seed, batches):
        engine, source = build_deployment(seeded_rows(n_rows, seed))
        names = ("ranked_items", "values_seen")
        for name in names:
            assert engine.maintain_view(name).derived is None
        for ops in batches:
            _apply_ops(source, ops)
            engine.sync_changes()
            for name in names:
                assert maintained_elements(engine, name) == fresh_elements(
                    engine, name
                ), name


# -- change-proportional sync -------------------------------------------------


class TestDeltaRefreshReusesElements:
    def test_untouched_keys_keep_their_elements(self):
        engine, source = build_deployment(seeded_rows(30))
        view = engine.maintain_view("big_items")
        assert view.mode == "rows" and view.derived is not None
        before = {e.children[0].text_content(): e for e in view.elements}
        touched = next(k for (k, _, v) in seeded_rows(30) if v > 5)
        gone = next(k for (k, _, v) in seeded_rows(30)
                    if v > 5 and k != touched)
        source.update_row("t", touched, {"v": 22})
        source.delete_row("t", gone)
        source.insert_row("t", {"k": 70, "grp": 1, "v": 9})
        report = engine.sync_changes()
        assert report["views"]["big_items"] == "delta"
        view = engine.incremental.views["big_items"]
        after = {e.children[0].text_content(): e for e in view.elements}
        assert set(before) - set(after) == {str(gone)}
        assert set(after) - set(before) == {"70"}
        for key, element in after.items():
            if key in (str(touched), "70"):
                assert element is not before.get(key)
            else:
                assert element is before[key], key
        assert maintained_elements(engine, "big_items") == fresh_elements(
            engine, "big_items"
        )

    def test_shapes_spanning_keys_rerun_the_plan(self):
        engine, source = build_deployment(seeded_rows(12))
        for name in ("ranked_items", "values_seen"):
            view = engine.maintain_view(name)
            assert view.mode == "rows" and view.derived is None, name
        source.update_row("t", 4, {"v": 19})
        source.delete_row("t", 2)
        report = engine.sync_changes()
        for name in ("ranked_items", "values_seen"):
            assert report["views"][name] == "delta"
            assert maintained_elements(engine, name) == fresh_elements(
                engine, name
            ), name


def _counting(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestSyncWorkScalesWithTheBatch:
    """One sync of a fixed batch costs the same work at 500 rows and at
    4,000.  Counted: ``record_bytes`` calls and every read of a base
    ``Record``.  Not counted, and still proportional to what is held:
    C-level copies (the flattened and the published element list).  The
    ``groups`` view renders from its group states
    (``TestDeltaOperators.test_groups_positioned_render_matches_the_walk``)."""

    STORED = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 10 '
              "CONSTRUCT <r>$k</r>")
    ALL = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items" '
           "CONSTRUCT <r>$k</r>")

    def sync_work(self, n_rows, monkeypatch):
        import repro.cache.fragmentcache as fragmentcache
        from repro.xmldm.values import Record

        engine, source = build_deployment(
            seeded_rows(n_rows), fragment_cache_bytes=1 << 26
        )
        for name in ("big_items", "by_group"):
            engine.maintain_view(name)
        engine.materialize_query_fragments(self.STORED, RefreshPolicy.manual())
        for text in (TestScopedCacheInvalidation.LOW,
                     TestScopedCacheInvalidation.HIGH, self.ALL):
            engine.query(text)
        # the first patch of an entry builds its key map: once, not per sync
        source.update_row("t", 3, {"v": 7})
        source.update_row("t", 30, {"v": 7})
        engine.sync_changes()

        for key in range(20, 28):  # v stays: no row flips into a result
            source.update_row("t", key, {"grp": key % 5})
        source.insert_row("t", {"k": 10_000, "grp": 2, "v": 11})
        source.delete_row("t", 40)
        counts: dict[str, int] = {}
        with monkeypatch.context() as patched:
            _counting(patched, counts, fragmentcache, "record_bytes")
            for name in ("get", "as_dict", "items", "__getitem__"):
                _counting(patched, counts, Record, name)
            report = engine.sync_changes()
        assert report["changes"] == 10
        # HIGH and ALL take every change; so do the views' base fragments
        assert report["cache_patched"] >= 20 and report["cache_evicted"] == 0
        assert report["store_patched"] == 10
        assert report["views"] == {"big_items": "delta", "by_group": "delta"}
        return counts

    def test_work_is_flat_in_the_rows_held(self, monkeypatch):
        small = self.sync_work(500, monkeypatch)
        large = self.sync_work(4000, monkeypatch)
        assert small["record_bytes"] > 0 and small["get"] > 0
        assert large == small


# -- byte accounting and key maps under random streams ------------------------


CACHED_QUERIES = (
    # every row; rows whose $v crosses 10 flip in (evict) and out (patch);
    # a key range most changes provably miss; one record per <tag>
    'WHERE <i><k>$k</k><v>$v</v><s>$s</s></i> IN "items" CONSTRUCT <r>$k</r>',
    'WHERE <i><k>$k</k><v>$v</v><s>$s</s></i> IN "items", $v >= 10 '
    "CONSTRUCT <r>$k</r>",
    'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k < 6 CONSTRUCT <r>$k</r>',
    'WHERE <row><id>$i</id><tag>$t</tag></row> IN "x.rows" '
    "CONSTRUCT <o>$i</o>",
)


def _rows_document(tags_by_id: dict[int, list[str]]) -> str:
    return "<t>" + "".join(
        f"<row><id>{key}</id>"
        + "".join(f"<tag>{tag}</tag>" for tag in tags) + "</row>"
        for key, tags in tags_by_id.items()
    ) + "</t>"


def build_cached_deployment(n_rows: int, max_bytes: int):
    """A relational table with a text column and an XML document whose
    rows fan out, both feeding one fragment cache."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
    db.insert_rows("t", [(k, (k * 7) % 20, "s" * (k % 4))
                         for k in range(n_rows)])
    clock = SimClock()
    registry = SourceRegistry(clock)
    source = RelationalSource("s", db, network=NetworkModel(latency_ms=5.0))
    registry.register(source)
    source.enable_cdc()
    tags = {key: ["a"] * (1 + key % 3) for key in range(n_rows)}
    xml = XMLSource("x", {"rows": _rows_document(tags)},
                    network=NetworkModel(latency_ms=5.0))
    registry.register(xml)
    xml.enable_cdc({"rows": "id"})
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    engine = NimbleEngine(catalog, fragment_cache_bytes=max_bytes)
    return engine, source, xml, tags


def assert_cache_consistent(engine) -> None:
    """Sizes, key maps and indexes all agree with the record lists, and
    the record lists with what the sources hold now."""
    from repro.cache.fragmentcache import estimate_result_bytes

    cache = engine.fragment_cache
    total = 0
    readers: dict[tuple[str, str], set[str]] = {}
    per_source: dict[str, int] = {}
    for key, entry in cache._entries.items():
        records = list(entry.records)
        assert len(entry.records) == len(records)
        assert entry.size_bytes == estimate_result_bytes(records)
        total += entry.size_bytes
        slots = entry.records._slots
        if slots is not None:
            assert [r for held in slots.values() for r in held] == records
            for slot_key, held in slots.items():
                assert held
                assert all(r.get(entry.records._key_var) == slot_key
                           for r in held)
        fragment = entry.fragment
        assert records == engine.catalog.registry.get(
            fragment.source
        ).execute(fragment)
        per_source[fragment.source] = per_source.get(fragment.source, 0) + 1
        for access in fragment.accesses:
            readers.setdefault(
                (fragment.source, access.relation), set()
            ).add(key)
    assert cache.current_bytes == total <= cache.max_bytes
    assert {k: set(v) for k, v in cache._by_relation.items()} == readers
    assert cache.entries_by_source() == per_source


ROW_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(0, 99),
        st.integers(0, 19),  # v: crossing 10 flips the row in or out
        st.integers(0, 60),  # length of the text column
    ),
    max_size=8,
)

TAG_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "retag", "refan", "delete"]),
        st.integers(0, 99),
        st.integers(1, 12),
    ),
    max_size=4,
)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestCacheAccountingProperty:
    @given(
        n_rows=st.integers(2, 14),
        # one that holds everything, one a few grown strings overflow
        max_bytes=st.sampled_from([1 << 22, 9_000]),
        batches=st.lists(st.tuples(ROW_OPS, TAG_OPS), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_key_maps_track_every_patch(
        self, n_rows, max_bytes, batches
    ):
        engine, source, xml, tags = build_cached_deployment(n_rows, max_bytes)
        live = set(range(n_rows))
        next_key = n_rows
        for row_ops, tag_ops in batches:
            for text in CACHED_QUERIES:
                engine.query(text)  # (re)fill whatever was evicted
            for kind, pick, v, length in row_ops:
                if kind == "insert" or not live:
                    source.insert_row(
                        "t", {"k": next_key, "v": v, "s": "x" * length}
                    )
                    live.add(next_key)
                    next_key += 1
                    continue
                key = sorted(live)[pick % len(live)]
                if kind == "update":
                    source.update_row("t", key, {"v": v, "s": "x" * length})
                else:
                    source.delete_row("t", key)
                    live.discard(key)
            for kind, pick, size in tag_ops:
                if kind == "append" or not tags:
                    tags[max(tags, default=0) + 1] = ["n"] * (size % 3)
                    continue
                key = sorted(tags)[pick % len(tags)]
                if kind == "retag":  # same fan-out, longer text: in place
                    tags[key] = ["g" * size] * len(tags[key])
                elif kind == "refan":  # fan-out changes: unpatchable
                    tags[key] = ["f"] * (size % 4)
                else:
                    del tags[key]
            xml.replace_document("rows", _rows_document(tags))
            engine.sync_changes()
            assert_cache_consistent(engine)

    def test_patch_growing_past_the_budget_evicts_lru(self):
        engine, source, _xml, _tags = build_cached_deployment(8, 9_000)
        cache = engine.fragment_cache
        engine.query(CACHED_QUERIES[2])  # the LRU victim
        engine.query(CACHED_QUERIES[0])
        assert len(cache) == 2 and cache.evictions == 0
        source.update_row("t", 7, {"s": "x" * 5_000})  # key 7: not in $k < 6
        report = engine.sync_changes()
        assert report["cache_patched"] == 1 and report["cache_evicted"] == 0
        assert cache.evictions == 1 and len(cache) == 1
        assert_cache_consistent(engine)

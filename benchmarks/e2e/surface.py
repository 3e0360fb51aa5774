"""The one file of the benchmark that knows the program under test.

Everything else in ``benchmarks/e2e/`` works on plain Python values; this
module imports ``repro``, wires a :class:`workloads.Dataset` into live
sources, a catalog and an engine, runs one :class:`workloads.Step`
against them with the operation timer, and lists the entry points the
span recorder wraps.  A change that renames a public name of the program
is preceded by a change to this file alone.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro.algebra.construct  # noqa: E402
import repro.algebra.vector  # noqa: E402
import repro.core.formatting  # noqa: E402
import repro.optimizer.decomposer  # noqa: E402
import repro.query.binder  # noqa: E402
import repro.query.parser  # noqa: E402
import repro.xmldm.parser  # noqa: E402
import repro.xmldm.serializer  # noqa: E402
from repro import (  # noqa: E402
    AccessController,
    Catalog,
    Database,
    FragmentResultCache,
    Lens,
    LensServer,
    MaterializationManager,
    MediatedSchema,
    MetricsRegistry,
    NetworkModel,
    NimbleEngine,
    QueryLog,
    RelationalSource,
    SimClock,
    SourceRegistry,
    Tracer,
    WebServiceSource,
    XMLSource,
    format_result,
)
from repro.algebra.plan import Plan  # noqa: E402
from repro.cdc.changelog import ChangeLog  # noqa: E402
from repro.core.engine import _ExecutionContext  # noqa: E402
from repro.core.lens import LensParameter  # noqa: E402
from repro.materialize.incremental import IncrementalMaterializer  # noqa: E402
from repro.materialize.store import LocalStore  # noqa: E402
from repro.optimizer.planner import PlanBuilder  # noqa: E402
from repro.sources.base import DataSource  # noqa: E402
from repro.xmldm.nodes import Element  # noqa: E402
from repro.xmldm.schema import RecordType  # noqa: E402

#: (span name, owner, attribute): the calls into each layer.  Only
#: coarse calls belong here, never a per-row function.
WRAPS = [
    ("query.parse", repro.query.parser, "parse_query"),
    ("query.bind", repro.query.binder, "bind_query"),
    ("optimizer.decompose", repro.optimizer.decomposer, "decompose"),
    ("optimizer.plan_build", PlanBuilder, "build"),
    ("core.lens", LensServer, "invoke"),
    ("core.engine", NimbleEngine, "query"),
    ("core.format", repro.core.formatting, "format_result"),
    ("core.fetch_view", _ExecutionContext, "fetch_view"),
    ("core.fetch_fragment", _ExecutionContext, "fetch_fragment"),
    ("core.fetch_fragment", _ExecutionContext, "fetch_fragment_batch"),
    ("core.sync", NimbleEngine, "sync_changes"),
    ("algebra.operators", Plan, "results"),
    ("algebra.construct", repro.algebra.construct, "build_elements"),
    ("algebra.shred", repro.algebra.vector, "shred_records"),
    ("sources.execute", DataSource, "execute"),
    ("sources.execute", DataSource, "execute_batch"),
    ("sql.execute", Database, "execute"),
    ("xmldm.parse", repro.xmldm.parser, "parse_document"),
    ("xmldm.serialize", repro.xmldm.serializer, "serialize"),
    ("cache.lookup", FragmentResultCache, "lookup"),
    ("cache.insert", FragmentResultCache, "insert"),
    ("cache.apply_change", FragmentResultCache, "apply_change"),
    ("materialize.serve_view", MaterializationManager, "serve_view"),
    ("materialize.refresh", IncrementalMaterializer, "refresh"),
    ("materialize.store_apply", LocalStore, "apply_change"),
    ("cdc.write", RelationalSource, "insert_row"),
    ("cdc.write", RelationalSource, "update_row"),
    ("cdc.write", RelationalSource, "delete_row"),
    ("cdc.since", ChangeLog, "since"),
]

#: every benchmark lens holds one query under this name
LENS_QUERY = "q"

#: every accelerator the constructor may still offer; a knob whose "on"
#: became the only path simply stops being applied
ALL_FEATURES = {
    "vectorized": True,
    "projection_pushdown": True,
    "column_statistics": True,
    "fragment_cache_bytes": 64_000_000,
    "batch_size": 32,
}


@dataclass
class Answer:
    """One request's outcome, still holding the program's own objects."""

    elements: list
    rendered: str
    complete: bool
    stats: object


@dataclass
class Outcome:
    """One step's wall time and what came back."""

    wall_s: float
    answers: list[Answer] = field(default_factory=list)
    changes_applied: int = 0


def plain(elements: list) -> list:
    """Result elements as ``(tag, attributes, [(child tag, text)])``."""
    return [
        (element.tag, dict(element.attributes),
         [(child.tag, child.text_content())
          for child in element.children if isinstance(child, Element)])
        for element in elements
    ]


class System:
    """Sources, catalog, engine and lens server for one dataset."""

    def __init__(self, dataset, observed: bool = False):
        self.clock = SimClock()
        registry = SourceRegistry(self.clock)
        catalog = Catalog(registry)
        self.cdc_source = None
        if dataset.catalog_xml is not None:
            registry.register(XMLSource(
                "content", {"products": dataset.catalog_xml},
                network=NetworkModel(latency_ms=25.0, per_row_ms=0.2),
            ))
        if dataset.stock is not None:
            erp = Database("erp")
            erp.execute("CREATE TABLE stock (sku TEXT PRIMARY KEY, price REAL,"
                        " quantity INTEGER, warehouse TEXT)")
            erp.insert_rows("stock", [list(row) for row in dataset.stock])
            registry.register(RelationalSource(
                "erp", erp,
                network=NetworkModel(latency_ms=40.0, per_row_ms=0.5),
            ))
            catalog.map_relation("stock", "erp", "stock")
        if dataset.reviews is not None:
            reviews = WebServiceSource(
                "reviews",
                network=NetworkModel(latency_ms=80.0, per_row_ms=0.1),
            )
            table = dataset.reviews
            reviews.add_endpoint(
                "summary", ["sku"],
                RecordType.of("summary", sku="string", rating="number",
                              review_count="number"),
                lambda inputs: [dict(zip(("rating", "review_count"),
                                         table[inputs["sku"]]))],
                estimated_rows=1,
            )
            registry.register(reviews)
            catalog.map_relation("review_summary", "reviews", "summary")
        if dataset.orders is not None:
            sales = Database("sales")
            sales.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY,"
                          " region INTEGER, amount INTEGER)")
            sales.insert_rows("orders", [list(row) for row in dataset.orders])
            registry.register(RelationalSource(
                "sales", sales,
                network=NetworkModel(latency_ms=30.0, per_row_ms=0.05),
            ))
            catalog.map_relation("orders", "sales", "orders")
        if dataset.items is not None:
            ledger = Database("ledger")
            ledger.execute("CREATE TABLE t (k INTEGER PRIMARY KEY,"
                           " grp INTEGER, v INTEGER)")
            ledger.insert_rows("t", [list(row) for row in dataset.items])
            self.cdc_source = RelationalSource(
                "ledger", ledger,
                network=NetworkModel(latency_ms=5.0, per_row_ms=0.05),
            )
            registry.register(self.cdc_source)
            self.cdc_source.enable_cdc()
            catalog.map_relation("items", "ledger", "t")
        if dataset.views:
            schema = MediatedSchema("site")
            for name, text in dataset.views.items():
                schema.define_view(name, text)
            catalog.add_schema(schema)

        offered = inspect.signature(NimbleEngine.__init__).parameters
        options = {}
        if dataset.all_features:
            options.update(ALL_FEATURES)
        if dataset.fragment_cache_bytes:
            options["fragment_cache_bytes"] = dataset.fragment_cache_bytes
        if dataset.incremental:
            options["incremental"] = True
            options["materializer"] = MaterializationManager(self.clock)
        if observed:
            options.update(tracer=Tracer(self.clock), metrics=MetricsRegistry(),
                           query_log=QueryLog())
        self.features_applied = {
            name: value for name, value in options.items() if name in offered
        }
        self.engine = NimbleEngine(catalog, **self.features_applied)
        for name in dataset.maintained:
            self.engine.maintain_view(name)

        access = AccessController()
        self.user = access.add_user("bench", "bench", {"shopper"})
        self.lenses = LensServer(self.engine, access)
        for name, (text, parameters) in dataset.lenses.items():
            self.lenses.register(Lens(
                name, {LENS_QUERY: text},
                parameters=tuple(LensParameter(p) for p in parameters),
                default_device="web", required_roles=frozenset({"shopper"}),
            ))

    # -- one step ---------------------------------------------------------

    def execute(self, step) -> Outcome:
        """Run one step; reads and syncs are timed, text in to string out."""
        if step.kind == "write":
            return self._write(step.changes)
        if step.kind == "sync":
            started = time.perf_counter()
            report = self.engine.sync_changes()
            return Outcome(time.perf_counter() - started,
                           changes_applied=report["changes"])
        answers = []
        engine, lenses, user = self.engine, self.lenses, self.user
        started = time.perf_counter()
        for request in step.requests:
            if request.lens is not None:
                lens, params = request.lens
                invocation = lenses.invoke(lens, LENS_QUERY, user, params,
                                           device=request.device)
                result, rendered = invocation.result, invocation.rendered
            else:
                result = engine.query(request.text)
                rendered = format_result(result.elements, request.device)
            answers.append(Answer(result.elements, rendered,
                                  result.completeness.complete, result.stats))
        return Outcome(time.perf_counter() - started, answers)

    def _write(self, changes) -> Outcome:
        source = self.cdc_source
        started = time.perf_counter()
        for op, key, values in changes:
            if op == "insert":
                source.insert_row("t", {"k": key, "grp": values[0],
                                        "v": values[1]})
            elif op == "update":
                source.update_row("t", key, {"grp": values[0], "v": values[1]})
            else:
                source.delete_row("t", key)
        return Outcome(time.perf_counter() - started)

    # -- exact counters ---------------------------------------------------

    def plan_cache(self) -> tuple[int, int]:
        return self.engine.plan_cache_hits, self.engine.plan_cache_misses

    def feed_len(self) -> int:
        log = self.cdc_source.changelog if self.cdc_source is not None else None
        return log.latest_seq if log is not None else 0


def stat_counters(stats) -> dict[str, float]:
    """The per-answer counters the per-layer metrics are built from."""
    return {
        "virtual_ms": stats.elapsed_virtual_ms,
        "remote_calls": stats.remote_calls,
        "rows": stats.rows_transferred,
        "bytes": stats.bytes_transferred,
        "cache_hits": stats.fragment_cache_hits,
        "cache_misses": stats.fragment_cache_misses,
    }

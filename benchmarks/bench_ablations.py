"""Ablations — isolating the design choices DESIGN.md §4 calls out.

Each ablation switches off exactly one mechanism and measures the
difference on a fixed workload:

* **A1 fragment merging** — joining two same-source clauses *at the
  source* vs shipping both relations and joining at the engine (the
  decomposer's ``pushdown`` flag also disables merging, so the deltas
  here bound what E5 attributes to merging specifically);
* **A2 view memoization** — a query referencing the same mediated view
  twice, with and without the per-execution view cache;
* **A3 SNM window** — the sorted-neighborhood window size against
  candidate pairs and recall (the knob behind E3's fixed window=9);
* **A4 construct grouping** — grouped element building vs per-binding
  construction on a skewed input (what the implicit-Skolem grouping
  rule costs and saves).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import BenchStats, Rows, print_table, write_bench_json

from repro import (
    Catalog,
    NetworkModel,
    NimbleEngine,
    RelationalSource,
    SimClock,
    SourceRegistry,
)
from repro.algebra import (
    BindingTuple,
    Construct,
    ConstructTemplate,
    TemplateVar,
)
from repro.cleaning import (
    CleaningFlow,
    FieldRule,
    FlowMode,
    LinkStep,
    MatchStep,
    RecordMatcher,
    jaro_winkler,
)
from repro.cleaning.normalize import NormalizerRegistry
from repro.mediator.schema import MediatedSchema
from repro.workloads import make_customer_universe
from repro.xmldm.values import Record


def build_engine(pushdown: bool = True):
    universe = make_customer_universe(300, seed=6)
    clock = SimClock()
    registry = SourceRegistry(clock)
    for name, db in universe.as_databases().items():
        registry.register(
            RelationalSource(name, db,
                             network=NetworkModel(latency_ms=50, per_row_ms=0.5))
        )
    catalog = Catalog(registry)
    catalog.map_relation("customers", "crm", "customers")
    catalog.map_relation("accounts", "billing", "accounts")
    return NimbleEngine(catalog, pushdown=pushdown), clock


# -- A1: fragment merging -----------------------------------------------------

A1_QUERY = (
    'WHERE <c><id>$i</id><first_name>$f</first_name></c> IN "customers", '
    '<c2><id>$i</id><tier>$t</tier></c2> IN "customers", $t = 1 '
    "CONSTRUCT <r>$f</r>"
)


BENCH_STATS = BenchStats()


def ablation_merging() -> list[list]:
    rows = []
    for label, pushdown in (("merged (one fragment)", True),
                            ("split (engine-side join)", False)):
        engine, clock = build_engine(pushdown)
        before = clock.now
        result = BENCH_STATS.absorb(engine.query(A1_QUERY))
        rows.append([
            label,
            result.stats.fragments_executed,
            result.stats.rows_transferred,
            clock.now - before,
            len(result.elements),
        ])
    return rows


# -- A2: view memoization ------------------------------------------------------

A2_QUERY = (
    'WHERE <x>$a</x> IN "names", <x>$b</x> IN "names" '
    "CONSTRUCT <pair><a>$a</a><b>$b</b></pair>"
)


def ablation_view_memo() -> list[list]:
    rows = []
    for label, memoize in (("memoized", True), ("re-executed", False)):
        engine, clock = build_engine()
        schema = MediatedSchema("m")
        schema.define_view(
            "names",
            'WHERE <c><first_name>$n</first_name></c> IN "customers" '
            "CONSTRUCT <x>$n</x>",
        )
        engine.catalog.add_schema(schema)
        if not memoize:
            # disable the per-execution view cache
            import repro.core.engine as engine_module

            original = engine_module._ExecutionContext.fetch_view

            def uncached(self, view, rows=False):
                result = self.engine._execute(
                    view, self.policy, self.required_sources, parent=self,
                    view_rows=rows,
                )
                return result.elements

            engine_module._ExecutionContext.fetch_view = uncached
        try:
            before = clock.now
            result = BENCH_STATS.absorb(engine.query(A2_QUERY))
            rows.append([
                label,
                result.stats.fragments_executed,
                clock.now - before,
                len(result.elements),
            ])
        finally:
            if not memoize:
                engine_module._ExecutionContext.fetch_view = original
    return rows


# -- A3: SNM window sweep ----------------------------------------------------------

def ablation_snm_window() -> list[list]:
    universe = make_customer_universe(400, overlap=0.5, dirt=0.1, seed=13)
    registry = NormalizerRegistry()
    datasets = {}
    for source, records in universe.records.items():
        rows = []
        for record in records:
            if source == "crm":
                name = f"{record['first_name']} {record['last_name']}"
            elif source == "billing":
                name = record["name"]
            else:
                name = record["fullname"]
            rows.append(Record({"id": record["id"],
                                "name": registry.apply("name", name)}))
        datasets[source] = rows
    truth = universe.true_match_pairs()
    out = []
    for window in (3, 5, 9, 17, 33):
        matcher = RecordMatcher(
            [FieldRule("name", metric=jaro_winkler)],
            match_threshold=0.95, possible_threshold=0.85,
        )
        flow = CleaningFlow(
            "a3",
            [MatchStep(matcher, blocking="snm", key_field="name",
                       window=window), LinkStep()],
        )
        started = time.perf_counter()
        result = flow.run(datasets, FlowMode.EXTRACTION)
        elapsed = (time.perf_counter() - started) * 1000
        found = {tuple(sorted(p)) for p in result.matched_pairs}
        tp = len(found & truth)
        out.append([window, result.pairs_compared, round(elapsed),
                    tp / len(truth)])
    return out


# -- A4: construct grouping ------------------------------------------------------------

def ablation_construct() -> list[list]:
    n = 6_000
    rows = [
        BindingTuple({"city": f"city{i % 40}", "name": f"name{i}"})
        for i in range(n)
    ]
    grouped_template = ConstructTemplate(
        "city",
        attributes=(("name", TemplateVar("city")),),
        children=(ConstructTemplate("p", children=(TemplateVar("name"),)),),
    )
    flat_template = ConstructTemplate(
        "row",
        children=(
            ConstructTemplate("city", children=(TemplateVar("city"),)),
            ConstructTemplate("p", children=(TemplateVar("name"),)),
        ),
    )
    out = []
    for label, template in (("grouped (implicit Skolem)", grouped_template),
                            ("per-binding", flat_template)):
        started = time.perf_counter()
        produced = sum(
            1 for _ in Construct(Rows(rows), template, "out")
        )
        elapsed = (time.perf_counter() - started) * 1000
        out.append([label, produced, round(elapsed, 1)])
    return out


# -- A5: compiled pushdown path vs wholesale front end ------------------------------

def ablation_frontends() -> list[list]:
    """XML-QL (decomposed, pushed) vs FLWOR (wholesale fetch) on one ask."""
    rows = []
    for label, run in (
        ("XML-QL (pushdown)", lambda engine: engine.query(
            'WHERE <c><id>$i</id><tier>$t</tier></c> '
            'IN "customers", $t = 1 CONSTRUCT <r>$i</r>'
        )),
        ("FLWOR (wholesale)", lambda engine: engine.flwor_query(
            'FOR $c IN "customers" WHERE $c/tier = 1 '
            "RETURN <r>{$c/id}</r>"
        )),
    ):
        engine, clock = build_engine()
        before = clock.now
        result = BENCH_STATS.absorb(run(engine))
        rows.append([
            label,
            result.stats.rows_transferred,
            clock.now - before,
            len(result.elements),
        ])
    return rows


def run_experiment():
    BENCH_STATS.reset()
    return (
        ablation_merging(),
        ablation_view_memo(),
        ablation_snm_window(),
        ablation_construct(),
        ablation_frontends(),
    )


def report():
    merging, memo, window, construct, frontends = run_experiment()
    print_table(
        "A1: same-source fragment merging",
        ["plan", "fragments", "rows transferred", "virtual ms", "results"],
        merging,
    )
    print_table(
        "A2: view memoization within one query",
        ["mode", "fragments executed", "virtual ms", "results"],
        memo,
    )
    print_table(
        "A3: sorted-neighborhood window (400-customer universe)",
        ["window", "pairs compared", "wall ms", "recall"],
        window,
    )
    print_table(
        "A4: construct grouping vs per-binding (6k rows)",
        ["mode", "elements built", "wall ms"],
        construct,
    )
    print_table(
        "A5: compiled (XML-QL pushdown) vs wholesale (FLWOR) front end",
        ["front end", "rows transferred", "virtual ms", "results"],
        frontends,
    )
    write_bench_json(
        "ablations",
        ["plan", "fragments", "rows transferred", "virtual ms", "results"],
        merging,
        headline={"merged_virtual_ms": merging[0][3]},
        extra_tables={
            "memoization": (["mode", "fragments executed", "virtual ms",
                             "results"], memo),
            "window": (["window", "pairs compared", "wall ms", "recall"],
                       window),
            "construct": (["mode", "elements built", "wall ms"], construct),
            "frontends": (["front end", "rows transferred", "virtual ms",
                           "results"], frontends),
        },
        stats=BENCH_STATS,
    )
    return merging, memo, window, construct, frontends


def test_ablations(benchmark):
    merging, memo, window, construct, frontends = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    # A1: merging halves the fragments and slashes rows moved
    assert merging[0][1] < merging[1][1]
    assert merging[0][2] < merging[1][2]
    assert merging[0][4] == merging[1][4]
    # A2: memoization halves the remote work for the double-view query
    assert memo[0][1] == memo[1][1] / 2
    assert memo[0][3] == memo[1][3]
    # A3: wider windows buy recall with more pairs (monotone at extremes)
    assert window[0][1] < window[-1][1]
    assert window[0][3] <= window[-1][3]
    # A4: both modes consume the same input; grouping emits fewer elements
    assert construct[0][1] == 40
    assert construct[1][1] == 6_000
    # A5: same answers; the compiled path moves far fewer rows
    assert frontends[0][3] == frontends[1][3]
    assert frontends[0][1] < frontends[1][1]
    report()


if __name__ == "__main__":
    report()

"""View references answered from binding rows (ViewMatch) against the
element path (build the view's elements, then match them apart).

The engine has no switch between the two: a fresh materialized copy is
stored as elements and so forces construct-then-match, which is how the
differential tests reach the element path; the algebra-level property
calls ``build_elements`` + ``match_pattern`` directly as the reference.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.construct import (
    ConstructTemplate,
    TemplateAggregate,
    TemplateText,
    TemplateVar,
    build_elements,
)
from repro.algebra.pattern import AttributePattern, TreePattern
from repro.algebra.tuples import BindingTuple
from repro.algebra.viewmatch import fuse, match_elements
from repro.core.engine import NimbleEngine
from repro.materialize.manager import MaterializationManager
from repro.mediator.catalog import Catalog
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.observability.provenance import ORIGIN_VIEW
from repro.observability.tracing import Tracer
from repro.query.parser import parse_query
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Collection, Record

# -- algebra level: fused steps == match_pattern over build_elements ---------

ATOMS = [NULL, 1, 1.0, 2, "1", "a", " a ", "", "b", True, 2.5]
VIEW_VARS = ["k", "n", "p", "q"]
OUTER_VARS = ["u", "v", "w", "x", "y", "z"]
TAGS = ["a", "b", "c"]

values = st.sampled_from(ATOMS)
structured = st.sampled_from([
    Element("b", {"id": "1"}, ["inner"]),
    Record({"b": "rec"}),
    Collection([Element("a", None, ["one"]), "two"]),
])


def rows(value):
    return st.lists(
        st.fixed_dictionaries(
            # few distinct keys so groups have several members
            {"k": st.sampled_from([1, 1.0, "1", NULL])},
            optional={var: value for var in VIEW_VARS[1:]},
        ).map(BindingTuple),
        min_size=1, max_size=8,
    )


view_var = st.sampled_from(VIEW_VARS).map(TemplateVar)
attributes = st.lists(
    st.tuples(st.sampled_from(["id", "k"]),
              st.one_of(view_var, view_var, st.sampled_from(["1", "a"]))),
    max_size=2,
).map(tuple)


def rarely(draw, one_in: int) -> bool:
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


@st.composite
def templates(draw, depth: int = 2):
    """Mostly one sub-template per tag; now and then two share one."""
    items = [draw(view_var) for _ in range(draw(st.integers(0, 2)))]
    if rarely(draw, 3):
        items.append(TemplateText(draw(st.sampled_from([" ", "a", "1"]))))
    if depth:
        tags = draw(st.lists(st.sampled_from(TAGS), max_size=3,
                             unique=not rarely(draw, 8)))
        for tag in tags:
            sub = draw(templates(depth - 1))
            items.append(ConstructTemplate(tag, sub.attributes, sub.children))
        if rarely(draw, 6):
            items.append(TemplateAggregate(
                draw(st.sampled_from(["count", "max"])),
                draw(st.sampled_from(VIEW_VARS))))
    attrs = draw(attributes)
    if depth == 2 and not rarely(draw, 4):
        attrs = (("id", TemplateVar("k")),) + attrs
    return ConstructTemplate("r", attrs, tuple(draw(st.permutations(items))))


@st.composite
def patterns(draw, template: ConstructTemplate, top: bool = True):
    """A pattern shaped after ``template``, with a share of misfits."""
    outer = st.sampled_from(OUTER_VARS)
    tag = template.tag
    if top and rarely(draw, 15):
        tag = draw(st.sampled_from(TAGS + ["*"]))
    wanted = []
    for name, _ in template.attributes + ((("missing", "x"),) if rarely(draw, 12) else ()):
        choice = draw(st.integers(0, 5))
        if choice <= 2:
            wanted.append(AttributePattern(name, var=draw(outer)))
        elif choice == 3:
            wanted.append(AttributePattern(
                name, literal=draw(st.sampled_from(["1", "a", ""]))))
    children = []
    subs = [item for item in template.children
            if isinstance(item, ConstructTemplate)]
    for sub in subs + subs[:1]:
        if draw(st.integers(0, 2)):
            children.append(draw(patterns(sub, top=False)))
    if rarely(draw, 15):
        children.append(TreePattern(
            draw(st.sampled_from(TAGS + ["absent"])), text_var=draw(outer),
            descendant=draw(st.booleans())))
    leaf = len(subs) == len([i for i in template.children
                             if not isinstance(i, (TemplateText, TemplateVar))])
    text = draw(st.integers(0, 3)) if leaf and not subs or rarely(draw, 8) else 0
    return TreePattern(
        tag,
        tuple(wanted),
        tuple(children),
        text_var=draw(outer) if text == 1 else None,
        text_literal=draw(st.sampled_from(["1", "a", "a1", ""])) if text == 2 else None,
        element_var=draw(outer) if rarely(draw, 30) else None,
        descendant=not top and rarely(draw, 30),
    )


@st.composite
def fusion_cases(draw):
    template = draw(templates())
    value = st.one_of(values, structured) if rarely(draw, 6) else values
    return template, draw(patterns(template)), draw(rows(value))


def reference(template, pattern, view_rows):
    return list(match_elements(pattern, build_elements(template, list(view_rows))))


class TestFusedMatchProperty:
    @given(fusion_cases())
    @settings(max_examples=400, deadline=None)
    def test_fused_bindings_equal_construct_then_match(self, case):
        template, pattern, view_rows = case
        fused = fuse(template, pattern)
        if fused is not None:
            assert list(fused.bindings(view_rows)) == reference(
                template, pattern, view_rows
            )

    def test_sibling_branches_cross_multiply_within_a_group(self):
        """1 and 1.0 are one group; its names x prices is the product."""
        template = ConstructTemplate(
            "r", (("id", TemplateVar("k")),),
            (ConstructTemplate("a", (), (TemplateVar("n"),)),
             ConstructTemplate("b", (), (TemplateVar("p"),))),
        )
        pattern = TreePattern(
            "r", (AttributePattern("id", var="x"),),
            (TreePattern("a", text_var="y"), TreePattern("b", text_var="z")),
        )
        view_rows = [
            BindingTuple({"k": 1, "n": "w", "p": 100}),
            BindingTuple({"k": 1.0, "n": "g", "p": 300}),
            BindingTuple({"k": 2, "n": " pad ", "p": NULL}),
        ]
        fused = fuse(template, pattern)
        got = [row.as_dict() for row in fused.bindings(view_rows)]
        assert got == [
            {"x": "1", "y": "w", "z": "100"}, {"x": "1", "y": "w", "z": "300"},
            {"x": "1", "y": "g", "z": "100"}, {"x": "1", "y": "g", "z": "300"},
            {"x": "2", "y": "pad", "z": ""},
        ]
        assert [BindingTuple(row) for row in got] == reference(
            template, pattern, view_rows
        )
        assert list(fused.bindings([])) == []

    def test_structured_binding_falls_back_per_value(self):
        """An Element bound into content adds children no template node
        describes, so the statically absent <spec> branch does match."""
        template = ConstructTemplate(
            "r", (("id", TemplateVar("k")),), (TemplateVar("n"),)
        )
        pattern = TreePattern(
            "r", (AttributePattern("id", var="x"),),
            (TreePattern("spec", text_var="y"),),
        )
        fused = fuse(template, pattern)
        assert fused.steps is None  # no atomic value can match
        plain = [BindingTuple({"k": 1, "n": "text"})]
        assert list(fused.bindings(plain)) == []
        nested = [BindingTuple({"k": 1, "n": Element("spec", None, ["x1"])})]
        assert [row.as_dict() for row in fused.bindings(nested)] == [
            {"x": "1", "y": "x1"}
        ]


# -- engine level --------------------------------------------------------------

STOCK = [
    # sku, name, price, note: several rows per sku with differing branches
    ("A", "Widget", 100, "x"), ("A", "Gadget", 300, "x"),
    ("B", "B", 1, " padded "), ("B", "B", 1.0, ""),
    ("C", None, 250, None), ("C", " Cog ", 249.5, "y"),
    ("1", "One", 7, "1"), ("D", "", None, "z"),
]

VIEWS = {
    "page": (
        'WHERE <t><sku>$sku</sku><name>$name</name><price>$price</price>'
        '<note>$note</note></t> IN "stock" '
        "CONSTRUCT <page sku=$sku kind=\"p\"><name>$name</name>"
        "<price>$price</price><note>$note</note></page>"
    ),
    "ordered": (
        'WHERE <t><sku>$sku</sku><name>$name</name><price>$price</price></t> '
        'IN "stock" CONSTRUCT <o><sku>$sku</sku><name>$name</name></o> '
        "ORDER BY $price DESC"
    ),
    "cheap": (  # a view over a view
        'WHERE <page sku=$s><name>$n</name><price>$p</price></page> IN "page", '
        "$p < 260 CONSTRUCT <cheap sku=$s><n>$n</n><p>$p</p></cheap>"
    ),
    "labelled": (
        'WHERE <product sku=$sku><label>$l</label></product> IN "docs.catalog" '
        "CONSTRUCT <lab sku=$sku>$l</lab>"
    ),
}

CATALOG_XML = (
    "<catalog>"
    '<product sku="A"><label>first</label></product>'
    '<product sku="B"><label> B </label></product>'
    '<product sku="Z"><label>none</label></product>'
    "</catalog>"
)

QUERIES = {
    "branches": ("page", 'WHERE <page sku=$s><name>$n</name><price>$p</price>'
                         '</page> IN "page" CONSTRUCT <r sku=$s><n>$n</n><p>$p</p></r>'),
    "condition": ("page", 'WHERE <page sku=$s><name>$n</name><price>$p</price>'
                          '</page> IN "page", $p < 250 '
                          "CONSTRUCT <r><s>$s</s><n>$n</n><p>$p</p></r> ORDER BY $n"),
    "repeated_var": ("page", 'WHERE <page sku=$s><name>$s</name></page> IN "page" '
                             "CONSTRUCT <r>$s</r>"),
    "repeated_branch": ("page", 'WHERE <page sku=$s><name>$a</name><name>$b</name>'
                                '</page> IN "page" CONSTRUCT <r><a>$a</a><b>$b</b></r>'),
    "literal_attr": ("page", 'WHERE <page sku="B" kind="p"><note>$t</note></page> '
                             'IN "page" CONSTRUCT <r>$t</r>'),
    "literal_text": ("page", 'WHERE <page sku=$s><name>"Cog"</name></page> IN "page" '
                             "CONSTRUCT <r>$s</r>"),
    "numeric_text": ("page", 'WHERE <page sku=$s><price>1</price></page> IN "page" '
                             "CONSTRUCT <r>$s</r>"),
    "wrong_tag": ("page", 'WHERE <sheet sku=$s/> IN "page" CONSTRUCT <r>$s</r>'),
    "absent_branch": ("page", 'WHERE <page sku=$s><colour>$c</colour></page> '
                              'IN "page" CONSTRUCT <r>$s</r>'),
    "absent_attr": ("page", 'WHERE <page colour=$c/> IN "page" CONSTRUCT <r>$c</r>'),
    "ordered_view": ("ordered", 'WHERE <o><sku>$s</sku><name>$n</name></o> '
                                'IN "ordered" CONSTRUCT <r><s>$s</s><n>$n</n></r>'),
    "view_over_view": ("cheap", 'WHERE <cheap sku=$s><n>$n</n><p>$p</p></cheap> '
                                'IN "cheap" CONSTRUCT <r sku=$s><n>$n</n><p>$p</p></r>'),
    "inner_of_nested": ("page", 'WHERE <cheap sku=$s><p>$p</p></cheap> IN "cheap" '
                                "CONSTRUCT <r sku=$s>$p</r> ORDER BY $p DESC"),
    "join_with_source": ("labelled", 'WHERE <lab sku=$s>$l</lab> IN "labelled", '
                                     '<t><sku>$s</sku><price>$p</price></t> IN "stock" '
                                     "CONSTRUCT <r sku=$s><l>$l</l><p>$p</p></r>"),
}


class Site:
    def __init__(self, **engine_options):
        self.clock = SimClock()
        registry = SourceRegistry(self.clock)
        db = Database("erp")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, sku TEXT, name TEXT,"
                   " price REAL, note TEXT)")
        db.insert_rows("t", [[i, *row] for i, row in enumerate(STOCK)])
        self.sources = [
            RelationalSource("erp", db, network=NetworkModel(
                latency_ms=40.0, per_row_ms=0.5)),
            XMLSource("docs", {"catalog": CATALOG_XML}, network=NetworkModel(
                latency_ms=25.0, per_row_ms=0.2)),
        ]
        for source in self.sources:
            registry.register(source)
        self.catalog = Catalog(registry)
        self.catalog.map_relation("stock", "erp", "t")
        schema = MediatedSchema("site")
        for name, text in VIEWS.items():
            schema.define_view(name, text)
        self.catalog.add_schema(schema)
        self.manager = MaterializationManager(self.clock)
        self.engine = NimbleEngine(
            self.catalog, materializer=self.manager, **engine_options
        )

    def wire_totals(self):
        return [sum(column) for column in
                zip(*(source.network.snapshot() for source in self.sources))]


def answer(result):
    return result.elements, result.completeness.describe()


SWEEP = [
    dict(provenance=p, fragment_cache_bytes=c)
    for p, c in itertools.product((False, True), (0, 1 << 20))
]


class TestFusedAgainstMaterializedCopy:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("options", SWEEP, ids=lambda o: "-".join(
        key[:4] for key, value in o.items() if value) or "plain")
    def test_same_answer_calls_and_clock(self, name, options):
        view, text = QUERIES[name]
        fused, copied = Site(**options), Site(**options)
        assert "ViewMatch(" in fused.engine.explain(text)
        first = fused.engine.query(text)

        copied.engine.materialize_view(view)
        if f'IN "{view}"' in text:  # else the copy sits one view further in
            assert "CallbackScan($__view_" in copied.engine.explain(text)
        second = copied.engine.query(text)

        assert answer(first) == answer(second)
        assert fused.wire_totals() == copied.wire_totals()
        # the copy's answer pays the local scan on top of the same loads
        local = copied.manager.cost_model.local_cost(
            len(copied.manager.views[view].elements))
        assert copied.clock.now == pytest.approx(fused.clock.now + local)
        assert first.stats.remote_calls == fused.wire_totals()[0]
        assert first.stats.rows_transferred == fused.wire_totals()[1]

        # and again, warm: plan cache, fragment cache, the copy
        assert answer(fused.engine.query(text)) == answer(copied.engine.query(text))

    def test_expected_rows_of_the_sweep_queries(self):
        """Pin a few answers outright so both paths cannot drift together."""
        site = Site()

        def texts(name):
            return [e.text_content() for e in site.engine.query(QUERIES[name][1])]

        assert texts("repeated_var") == ["B"]
        assert texts("literal_attr") == ["padded", ""]
        assert texts("literal_text") == ["C"]  # " Cog " is trimmed
        assert texts("numeric_text") == []  # REAL 1 renders "1.0"
        assert texts("repeated_branch") == [
            "WidgetWidget", "WidgetGadget", "GadgetWidget", "GadgetGadget",
            "BB", "", "Cog", "Cog", "CogCog", "OneOne"]
        assert texts("wrong_tag") == texts("absent_branch") == texts("absent_attr") == []
        assert texts("ordered_view") == [
            "AGadget", "C", "CCog", "AWidget", "1One", "BB", "D"]

    def test_cross_product_counter_example(self):
        """Two rows of one sku with different names and prices nest into
        one <page> and unnest to the 2x2 product, so `$p < 250` keeps
        *both* names at price 100.  Substituting the view's clauses into
        the outer query would keep only Widget: fusion must not do that."""
        site = Site()
        result = site.engine.query(
            'WHERE <page sku="A"><name>$n</name><price>$p</price></page> '
            'IN "page", $p < 250 CONSTRUCT <r><n>$n</n><p>$p</p></r>'
        )
        assert "ViewMatch(" in result.stats.plan_text
        assert [e.text_content() for e in result.elements] == [
            "Widget100.0", "Gadget100.0"
        ]


# -- the fallback rule: one example per shape ---------------------------------

FALLBACKS = {
    "aggregate_in_matched_branch": (
        'WHERE <t><sku>$sku</sku><price>$price</price></t> IN "stock" '
        "CONSTRUCT <g sku=$sku><n>count($price)</n></g>",
        'WHERE <g sku=$s><n>$n</n></g> IN "v" CONSTRUCT <r sku=$s>$n</r>',
        ["2", "2", "2", "1", "0"],
    ),
    "view_with_limit": (
        'WHERE <t><sku>$sku</sku></t> IN "stock" CONSTRUCT <g>$sku</g> LIMIT 2',
        'WHERE <g>$s</g> IN "v" CONSTRUCT <r>$s</r>',
        ["A", "B"],
    ),
    "element_var": (
        'WHERE <t><sku>$sku</sku></t> IN "stock" CONSTRUCT <g><s>$sku</s></g>',
        'WHERE <g><s>$s</s></g> ELEMENT_AS $e IN "v" CONSTRUCT <r sku=$s>$e</r>',
        ["A", "B", "C", "1", "D"],
    ),
    "descendant_axis": (
        'WHERE <t><sku>$sku</sku></t> IN "stock" CONSTRUCT <g><w><s>$sku</s></w></g>',
        'WHERE <g><//s>$s</s></g> IN "v" CONSTRUCT <r>$s</r>',
        ["A", "B", "C", "1", "D"],
    ),
    "text_of_mixed_content": (
        'WHERE <t><sku>$sku</sku><name>$name</name></t> IN "stock" '
        "CONSTRUCT <g>$sku<n>$name</n></g>",
        'WHERE <g>$x</g> IN "v" CONSTRUCT <r>$x</r>',
        ["AWidgetGadget", "BB", "C Cog", "1One", "D"],
    ),
    "shared_sibling_tag": (
        'WHERE <t><sku>$sku</sku><name>$name</name></t> IN "stock" '
        "CONSTRUCT <g sku=$sku><v>$sku</v><v>$name</v></g>",
        'WHERE <g sku="A"><v>$x</v></g> IN "v" CONSTRUCT <r>$x</r>',
        ["A", "Widget", "Gadget"],
    ),
    "root_tag_also_nested": (
        'WHERE <t><sku>$sku</sku><name>$name</name></t> IN "stock" '
        "CONSTRUCT <g sku=$sku><g>$name</g></g>",
        'WHERE <g>$x</g> IN "v" CONSTRUCT <r>$x</r>',
        ["WidgetGadget", "Widget", "Gadget", "B", "Cog", "", "One"],
    ),
}


class TestFallbackShapes:
    @pytest.mark.parametrize("shape", sorted(FALLBACKS))
    def test_shape_takes_the_element_path(self, shape):
        view_text, query, expected = FALLBACKS[shape]
        site = Site()
        schema = MediatedSchema("extra")
        schema.define_view("v", view_text)
        site.catalog.add_schema(schema)
        tracer = Tracer(site.clock)
        site.engine.use_tracer(tracer)
        plan = site.engine.explain(query)
        assert "CallbackScan($__view_v" in plan and "ViewMatch" not in plan
        got = [e.text_content() for e in site.engine.query(query).elements]
        assert sorted(got) == sorted(expected)
        assert _view_span(tracer).attrs["served_from"] == "sub_query"

    def test_wildcard_tag_takes_the_element_path(self):
        """``*`` does not lex inside a query text, so the clause is built."""
        view_text = (
            'WHERE <t><sku>$sku</sku><name>$name</name></t> IN "stock" '
            "CONSTRUCT <g sku=$sku><n>$name</n></g>"
        )
        site = Site()
        schema = MediatedSchema("extra")
        schema.define_view("v", view_text)
        site.catalog.add_schema(schema)
        query = parse_query(
            'WHERE <g sku="A"><any>$x</any></g> IN "v" CONSTRUCT <r>$x</r>')
        clause = query.pattern_clauses[0]
        star = replace(clause.pattern.children[0], tag="*")
        query = replace(query, clauses=(replace(
            clause, pattern=replace(clause.pattern, children=(star,))),))
        assert "CallbackScan($__view_v" in site.engine.explain(query)
        got = [e.text_content() for e in site.engine.query(query).elements]
        assert got == ["Widget", "Gadget"]

    def test_aggregate_outside_the_matched_branch_still_fuses(self):
        view_text, _, _ = FALLBACKS["aggregate_in_matched_branch"]
        site = Site()
        schema = MediatedSchema("extra")
        schema.define_view("v", view_text)
        site.catalog.add_schema(schema)
        query = 'WHERE <g sku=$s/> IN "v" CONSTRUCT <r>$s</r>'
        assert "ViewMatch(" in site.engine.explain(query)
        got = [e.text_content() for e in site.engine.query(query).elements]
        assert got == ["A", "B", "C", "1", "D"]

    def test_fresh_materialized_copy_is_served_as_elements(self):
        site = Site(provenance=True)
        tracer = Tracer(site.clock)
        site.engine.use_tracer(tracer)
        _, text = QUERIES["branches"]
        site.engine.query(text)
        assert _view_span(tracer).attrs["served_from"] == "rows"

        site.engine.materialize_view("page")
        calls = site.wire_totals()
        result = site.engine.query(text)
        assert "CallbackScan($__view_page" in result.stats.plan_text
        assert _view_span(tracer).attrs["served_from"] == "materialized"
        assert site.wire_totals() == calls
        assert result.stats.fragments_from_cache == 1
        assert [o.kind for o in result.provenance.origins] == [ORIGIN_VIEW]

        # stale copy: back to rows
        site.manager.views["page"].invalidated = True
        assert "ViewMatch(" in site.engine.query(text).stats.plan_text

    def test_element_binding_falls_back_at_run_time(self):
        """The plan is fused; the Element value is caught per value."""
        site = Site()
        schema = MediatedSchema("extra")
        schema.define_view(
            "v",
            'WHERE <product sku=$sku><label/> ELEMENT_AS $l</product> '
            'IN "docs.catalog" CONSTRUCT <g sku=$sku>$l</g>',
        )
        site.catalog.add_schema(schema)
        query = 'WHERE <g sku=$s><label>$x</label></g> IN "v" CONSTRUCT <r sku=$s>$x</r>'
        result = site.engine.query(query)
        assert "ViewMatch(" in result.stats.plan_text
        assert [(e.get("sku"), e.text_content()) for e in result.elements] == [
            ("A", "first"), ("B", "B"), ("Z", "none")
        ]

    def test_one_view_two_references_runs_the_view_once(self):
        """A fused and an element-path reference share one execution."""
        site = Site()
        query = (
            'WHERE <page sku=$s><name>$n</name></page> IN "page", '
            '<page sku=$s><price>$p</price></page> ELEMENT_AS $e IN "page" '
            "CONSTRUCT <r sku=$s><n>$n</n><p>$p</p></r>"
        )
        plan = site.engine.explain(query)
        assert "ViewMatch(page" in plan and "CallbackScan($__view_page" in plan
        result = site.engine.query(query)
        assert result.stats.remote_calls == 1
        assert [e.text_content() for e in result.elements] == [
            "WidgetGadget100.0300.0", "B1.0", "Cog250.0249.5", "One7.0", ""]


def _view_span(tracer):
    return tracer.last_trace.find("view")[-1]


# -- EXPLAIN ANALYZE, plan cache ---------------------------------------------


class TestExplainAndPlanCache:
    def test_explain_analyze_reports_view_rows_in_and_out(self):
        site = Site()
        analyzed = site.engine.explain_analyze(QUERIES["branches"][1])
        line = next(l for l in str(analyzed).splitlines() if "ViewMatch(" in l)
        assert "rows_in=8" in line and "rows_out=11" in line
        assert "served=rows" in line

    def test_view_subquery_compiles_once_per_epoch(self):
        site = Site()
        tracer = Tracer(site.clock)
        site.engine.use_tracer(tracer)
        _, text = QUERIES["view_over_view"]

        def compile_spans():
            return [s.kind for s in tracer.last_trace.walk()
                    if s.kind in ("parse", "bind", "decompose")]

        first = site.engine.query(text)
        assert compile_spans() == ["parse", "bind", "decompose"] + [
            "bind", "decompose"] * 2  # the query, "cheap", "page"
        assert (site.engine.plan_cache_hits, site.engine.plan_cache_misses) == (0, 3)
        second = site.engine.query(text)
        assert compile_spans() == []
        assert (site.engine.plan_cache_hits, site.engine.plan_cache_misses) == (3, 3)
        assert (first.stats.plan_cache_hits, second.stats.plan_cache_hits) == (0, 3)

        # any catalog change invalidates view entries like text entries
        site.catalog.add_schema(MediatedSchema("later"))
        site.engine.query(text)
        assert len(compile_spans()) == 7
        assert site.engine.plan_cache_misses == 6

    def test_cached_view_entry_is_not_served_for_a_redefined_name(self):
        """A schema edited after registration moves no epoch; the view's
        entry is still only served for the definition it compiled."""
        site = Site()
        site.engine.query(QUERIES["branches"][1])
        epoch = site.catalog.version
        site.catalog.schemas[0].views["page"] = ViewDef.from_text(
            "page", VIEWS["page"].replace('kind="p"', "kind=$note"))
        assert site.catalog.version == epoch
        result = site.engine.query(
            'WHERE <page kind=$k/> IN "page" CONSTRUCT <r>$k</r>')
        assert "p" not in [e.text_content() for e in result.elements]
        assert site.engine.plan_cache_misses == 4

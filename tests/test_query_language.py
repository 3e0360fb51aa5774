"""Unit tests for the XML-QL dialect: lexer, parser, binder, planning."""

import pytest

from repro.errors import BindingError, QuerySyntaxError
from repro.query import ast, bind_query, parse_query
from repro.query.exprs import compile_predicate, compile_value, flex_compare
from repro.query.lexer import tokenize
from repro.query.parser import parse_pattern
from repro.algebra import BindingTuple
from repro.core import NimbleEngine
from repro.mediator.catalog import Catalog
from repro.simtime import SimClock
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm import serialize
from repro.xmldm.values import NULL


class TestLexer:
    def test_tag_vs_comparison_disambiguation(self):
        tokens = tokenize("<a> $x < 5")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == ["TAGOPEN", "IDENT", "GT", "VAR", "OP", "NUMBER"]

    def test_closing_and_selfclose(self):
        tokens = tokenize("</a> <b/>")
        assert tokens[0].kind == "TAGCLOSE"
        assert [t.kind for t in tokens[:-1]] == [
            "TAGCLOSE", "IDENT", "GT", "TAGOPEN", "IDENT", "SELFCLOSE",
        ]

    def test_var_token(self):
        tokens = tokenize("$abc_1")
        assert tokens[0].kind == "VAR"
        assert tokens[0].value == "abc_1"

    def test_bare_dollar_rejected(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("$ x")

    def test_string_escapes(self):
        tokens = tokenize(r'"a\"b"')
        assert tokens[0].value == 'a"b'

    def test_comment(self):
        tokens = tokenize("WHERE # comment\n$x")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "VAR"]

    def test_keyword_preserves_original(self):
        tokens = tokenize("by BY By")
        assert [t.original for t in tokens[:-1]] == ["by", "BY", "By"]


QUERY = """
WHERE <bib><book year=$y>
        <title>$t</title>
        <author>$a</author>
      </book></bib> IN "books",
      $y > 1995
CONSTRUCT <result year=$y><title>$t</title></result>
ORDER BY $t DESC
"""


class TestParser:
    def test_full_query_shape(self):
        query = parse_query(QUERY)
        assert len(query.pattern_clauses) == 1
        assert len(query.condition_clauses) == 1
        assert query.order_by[0].descending
        assert query.sources == ("books",)

    def test_pattern_structure(self):
        clause = parse_query(QUERY).pattern_clauses[0]
        bib = clause.pattern
        assert bib.tag == "bib"
        book = bib.children[0]
        assert book.attributes[0].var == "y"
        assert book.children[0].text_var == "t"

    def test_template_structure(self):
        template = parse_query(QUERY).construct
        assert template.tag == "result"
        assert template.attributes[0][1] == ast.Var("y")
        assert template.children[0].tag == "title"

    def test_self_closing_pattern(self):
        pattern = parse_pattern('<ping kind=$k/>')
        assert pattern.attributes[0].var == "k"
        assert not pattern.children

    def test_element_as(self):
        pattern = parse_pattern("<book><title>$t</title></book> ELEMENT_AS $e")
        assert pattern.element_var == "e"

    def test_anonymous_closing_tag(self):
        pattern = parse_pattern("<a><b>$x</></>")
        assert pattern.tag == "a"
        assert pattern.children[0].text_var == "x"

    def test_mismatched_closing_tag(self):
        with pytest.raises(QuerySyntaxError):
            parse_pattern("<a></b>")

    def test_text_literal_in_pattern(self):
        pattern = parse_pattern('<status>"open"</status>')
        assert pattern.text_literal == "open"

    def test_descendant_pattern_parsed(self):
        pattern = parse_pattern("<a><//b>$x</b></a>")
        assert pattern.children[0].descendant
        assert pattern.children[0].text_var == "x"

    def test_descendant_pattern_as_clause_root(self):
        query = parse_query('WHERE <//item>$v</item> IN "s" CONSTRUCT <r>$v</r>')
        assert query.pattern_clauses[0].pattern.descendant

    def test_multiple_sources(self):
        query = parse_query(
            'WHERE <a>$x</a> IN "s1", <b>$y</b> IN "s2" CONSTRUCT <r>$x</r>'
        )
        assert query.sources == ("s1", "s2")

    def test_source_as_identifier(self):
        query = parse_query("WHERE <a>$x</a> IN books CONSTRUCT <r>$x</r>")
        assert query.sources == ("books",)

    def test_condition_operators(self):
        query = parse_query(
            'WHERE <a>$x</a> IN "s", $x >= 1 AND $x != 3 OR NOT $x = 9 '
            "CONSTRUCT <r>$x</r>"
        )
        condition = query.condition_clauses[0].expr
        assert condition.op == "OR"

    def test_like_condition(self):
        query = parse_query(
            'WHERE <a>$x</a> IN "s", $x LIKE "A%" CONSTRUCT <r>$x</r>'
        )
        assert query.condition_clauses[0].expr.op == "LIKE"

    def test_limit_parsed(self):
        query = parse_query(
            'WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r> ORDER BY $x LIMIT 5'
        )
        assert query.limit == 5

    def test_limit_requires_integer(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r> LIMIT 2.5')

    def test_aggregate_in_template(self):
        query = parse_query(
            'WHERE <s city=$c><amt>$a</amt></s> IN "d" '
            "CONSTRUCT <city name=$c><total>sum($a)</total></city>"
        )
        total = query.construct.children[0]
        agg = total.children[0]
        assert agg.kind == "sum"
        assert agg.var == "a"

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query(
                'WHERE <s><a>$a</a></s> IN "d" '
                "CONSTRUCT <r><x>median($a)</x></r>"
            )

    def test_keyword_tags_keep_case(self):
        query = parse_query('WHERE <a>$x</a> IN "s" CONSTRUCT <by>$x</by>')
        assert query.construct.tag == "by"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "WHERE CONSTRUCT <r/>",
            'WHERE <a>$x</a> CONSTRUCT <r/>',
            'WHERE <a>$x</a> IN CONSTRUCT <r/>',
            'WHERE <a>$x</a> IN "s"',
            'WHERE <a>$x $y</a> IN "s" CONSTRUCT <r/>',
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)


class TestBinder:
    def test_safe_query_binds(self):
        bound = bind_query(parse_query(QUERY))
        assert bound.bound_vars == {"y", "t", "a"}
        assert bound.output_vars == {"y", "t"}

    def test_unbound_condition_variable(self):
        with pytest.raises(BindingError):
            bind_query(
                parse_query(
                    'WHERE <a>$x</a> IN "s", $zz = 1 CONSTRUCT <r>$x</r>'
                )
            )

    def test_unbound_construct_variable(self):
        with pytest.raises(BindingError):
            bind_query(
                parse_query('WHERE <a>$x</a> IN "s" CONSTRUCT <r>$nope</r>')
            )

    def test_unbound_order_by(self):
        with pytest.raises(BindingError):
            bind_query(
                parse_query(
                    'WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r> ORDER BY $zz'
                )
            )


class TestExpressions:
    def row(self, **bindings):
        return BindingTuple(bindings)

    def test_flex_compare_numeric_coercion(self):
        assert flex_compare("10", 9) == 1
        assert flex_compare(9, "10") == -1
        assert flex_compare("abc", 1) is not None  # falls back to type rank

    def test_flex_compare_null(self):
        assert flex_compare(NULL, 1) is None

    def test_comparison_predicate(self):
        expr = parse_query(
            'WHERE <a>$x</a> IN "s", $x > 5 CONSTRUCT <r>$x</r>'
        ).condition_clauses[0].expr
        predicate = compile_predicate(expr)
        assert predicate(self.row(x="7"))
        assert not predicate(self.row(x="3"))
        assert not predicate(self.row(x=NULL))

    def test_arithmetic(self):
        expr = ast.BinOp("+", ast.Var("a"), ast.Literal(2))
        assert compile_value(expr)(self.row(a=3)) == 5.0

    def test_division_by_zero_is_null(self):
        expr = ast.BinOp("/", ast.Literal(1), ast.Literal(0))
        assert compile_value(expr)(self.row()) is NULL

    def test_functions(self):
        assert compile_value(ast.Call("upper", (ast.Var("v"),)))(self.row(v="ab")) == "AB"
        assert compile_value(ast.Call("length", (ast.Var("v"),)))(self.row(v="abc")) == 3
        contains = ast.Call("contains", (ast.Var("v"), ast.Literal("el")))
        assert compile_predicate(contains)(self.row(v="hello"))

    def test_unknown_function(self):
        with pytest.raises(BindingError):
            compile_value(ast.Call("bogus", ()))

    def test_like_percent(self):
        expr = ast.BinOp("LIKE", ast.Var("v"), ast.Literal("A%"))
        predicate = compile_predicate(expr)
        assert predicate(self.row(v="Abc"))
        assert not predicate(self.row(v="abc"))


class TestTranslate:
    """Queries planned by the engine over one XML source ``x`` whose
    documents are addressed as ``"x.<name>"``; ``"recs"`` is a
    relational table mapped into the mediated schema."""

    def engine(self, docs, records=()):
        registry = SourceRegistry(SimClock())
        registry.register(XMLSource("x", docs))
        catalog = Catalog(registry)
        if records:
            db = Database("db")
            db.execute("CREATE TABLE c (name TEXT, city TEXT)")
            for name, city in records:
                db.execute(f"INSERT INTO c VALUES ('{name}', '{city}')")
            registry.register(RelationalSource("db", db))
            catalog.map_relation("recs", "db", "c")
        return NimbleEngine(catalog)

    def test_condition_applied_early(self):
        engine = self.engine({"d": "<r><i><v>1</v></i><i><v>9</v></i></r>"})
        query = 'WHERE <i><v>$v</v></i> IN "x.d", $v > 5 CONSTRUCT <out>$v</out>'
        assert [e.text_content() for e in engine.query(query).elements] == ["9"]
        # the condition travels with the scan, below the Construct
        plan = engine.explain(query)
        assert plan.index("Construct") < plan.index("Fragment(x: d; 1 conds")

    def test_join_on_shared_variable_uses_hash_join(self):
        engine = self.engine({
            "a": "<r><i><k>1</k></i><i><k>2</k></i></r>",
            "b": "<r><j><k>2</k><w>x</w></j></r>",
        })
        query = (
            'WHERE <i><k>$k</k></i> IN "x.a", <j><k>$k</k><w>$w</w></j> IN "x.b" '
            "CONSTRUCT <m><k>$k</k><w>$w</w></m>"
        )
        assert "HashJoin($k)" in engine.explain(query)
        assert len(engine.query(query).elements) == 1

    def test_disjoint_clauses_use_nested_loop(self):
        engine = self.engine({"a": "<r><i><v>1</v></i></r>"})
        query = (
            'WHERE <i><v>$v</v></i> IN "x.a", <i><v>$w</v></i> IN "x.a" '
            "CONSTRUCT <m><v>$v</v><w>$w</w></m>"
        )
        assert "NestedLoopJoin" in engine.explain(query)

    def test_order_by_numeric(self):
        engine = self.engine(
            {"d": "<r><i><v>10</v></i><i><v>9</v></i><i><v>100</v></i></r>"}
        )
        elements = engine.query(
            'WHERE <i><v>$v</v></i> IN "x.d" CONSTRUCT <o>$v</o> ORDER BY $v'
        ).elements
        assert [e.text_content() for e in elements] == ["9", "10", "100"]

    def test_aggregates_group_by_direct_vars(self):
        engine = self.engine({"d": (
            '<s><x c="a"><v>1</v></x><x c="a"><v>3</v></x>'
            '<x c="b"><v>5</v></x></s>'
        )})
        results = engine.query(
            'WHERE <x c=$c><v>$v</v></x> IN "x.d" '
            "CONSTRUCT <g k=$c><sum>sum($v)</sum><n>count($v)</n>"
            "<avg>avg($v)</avg><lo>min($v)</lo></g>"
        ).elements
        by_key = {e.attributes["k"]: e for e in results}
        assert by_key["a"].first_child("sum").text_content() == "4"
        assert by_key["a"].first_child("n").text_content() == "2"
        assert by_key["a"].first_child("avg").text_content() == "2.0"
        assert by_key["b"].first_child("lo").text_content() == "5"

    def test_aggregate_without_group_is_global(self):
        engine = self.engine({"d": "<s><x><v>2</v></x><x><v>40</v></x></s>"})
        results = engine.query(
            'WHERE <x><v>$v</v></x> IN "x.d" CONSTRUCT <total>sum($v)</total>'
        ).elements
        assert len(results) == 1
        assert results[0].text_content() == "42"

    def test_descendant_pattern_matches_any_depth(self):
        engine = self.engine({"d": (
            "<a><wrap><x><v>deep</v></x></wrap><x><v>shallow</v></x></a>"
        )})
        shallow_only = engine.query(
            'WHERE <a><x><v>$v</v></x></a> IN "x.d" CONSTRUCT <r>$v</r>'
        ).elements
        assert [e.text_content() for e in shallow_only] == ["shallow"]
        both = engine.query(
            'WHERE <a><//x><v>$v</v></x></a> IN "x.d" CONSTRUCT <r>$v</r>'
        ).elements
        assert sorted(e.text_content() for e in both) == ["deep", "shallow"]

    def test_records_and_elements_join(self):
        engine = self.engine(
            {"docs": "<r><b><t>X</t><who>Ann</who></b></r>"}, [("Ann", "Sea")]
        )
        elements = engine.query(
            'WHERE <b><t>$t</t><who>$n</who></b> IN "x.docs", '
            '<c><name>$n</name><city>$c</city></c> IN "recs" '
            "CONSTRUCT <m><t>$t</t><c>$c</c></m>"
        ).elements
        assert [serialize(e) for e in elements] == ["<m><t>X</t><c>Sea</c></m>"]

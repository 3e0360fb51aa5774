"""Unit tests for lenses, auth, formatting and load balancing."""

import pytest

from repro.core import (
    AccessController,
    EngineCluster,
    Lens,
    LensServer,
    NimbleEngine,
    format_result,
)
from repro.core.lens import LensParameter
from repro.errors import AuthError, LensError, PlanningError
from repro.xmldm import parse_element


@pytest.fixture
def engine(catalog):
    return NimbleEngine(catalog)


@pytest.fixture
def server(engine):
    server = LensServer(engine)
    server.access.add_user("webapp", "s3cret", {"viewer"})
    server.access.add_user("nobody", "guest", set())
    server.register(
        Lens(
            name="customers_by_city",
            queries={
                "list": (
                    'WHERE <c><name>$n</name><city>$c</city></c> IN "customers", '
                    "$c = {city} CONSTRUCT <customer><name>$n</name></customer> "
                    "ORDER BY $n"
                )
            },
            parameters=(LensParameter("city"),),
            default_device="xml",
            required_roles=frozenset({"viewer"}),
        )
    )
    return server


class TestAuth:
    def test_authenticate_success(self):
        access = AccessController()
        access.add_user("ann", "pw", {"admin"})
        assert access.authenticate("ann", "pw").roles == {"admin"}

    def test_authenticate_bad_password(self):
        access = AccessController()
        access.add_user("ann", "pw")
        with pytest.raises(AuthError):
            access.authenticate("ann", "wrong")

    def test_authenticate_unknown_user(self):
        with pytest.raises(AuthError):
            AccessController().authenticate("ghost", "x")

    def test_authorize_role_check(self):
        access = AccessController()
        user = access.add_user("ann", "pw", {"viewer"})
        access.authorize(user, frozenset({"viewer", "admin"}))
        with pytest.raises(AuthError):
            access.authorize(user, frozenset({"admin"}))

    def test_no_required_roles_open(self):
        access = AccessController()
        user = access.add_user("ann", "pw")
        access.authorize(user, frozenset())

    def test_duplicate_user(self):
        access = AccessController()
        access.add_user("ann", "pw")
        with pytest.raises(AuthError):
            access.add_user("ann", "pw2")

    def test_passwords_stored_hashed(self):
        access = AccessController()
        user = access.add_user("ann", "pw")
        assert "pw" not in user.password_hash


class TestLens:
    def test_invoke_full_path(self, server):
        invocation = server.login_and_invoke(
            "customers_by_city", "list", "webapp", "s3cret",
            params={"city": "Seattle"},
        )
        assert "<name>Ann</name>" in invocation.rendered
        assert invocation.result.completeness.complete

    def test_parameter_quoting_is_safe(self, server):
        invocation = server.login_and_invoke(
            "customers_by_city", "list", "webapp", "s3cret",
            params={"city": 'Sea" CONSTRUCT <hacked/>'},
        )
        assert invocation.result.elements == []  # treated as a literal city

    def test_missing_required_parameter(self, server):
        with pytest.raises(LensError):
            server.login_and_invoke(
                "customers_by_city", "list", "webapp", "s3cret", params={}
            )

    def test_unknown_parameter(self, server):
        with pytest.raises(LensError):
            server.login_and_invoke(
                "customers_by_city", "list", "webapp", "s3cret",
                params={"city": "Seattle", "bogus": 1},
            )

    def test_default_parameter(self, engine):
        server = LensServer(engine)
        server.access.add_user("u", "p")
        server.register(
            Lens(
                name="l",
                queries={"q": (
                    'WHERE <c><name>$n</name><tier>$t</tier></c> IN "customers", '
                    "$t = {tier} CONSTRUCT <r>$n</r>"
                )},
                parameters=(LensParameter("tier", required=False, default=1),),
            )
        )
        invocation = server.login_and_invoke("l", "q", "u", "p")
        assert len(invocation.result.elements) == 2

    def test_role_denied(self, server):
        with pytest.raises(AuthError):
            server.login_and_invoke(
                "customers_by_city", "list", "nobody", "guest",
                params={"city": "Seattle"},
            )

    def test_unknown_lens_and_query(self, server):
        user = server.access.authenticate("webapp", "s3cret")
        with pytest.raises(LensError):
            server.invoke("ghost", "list", user)
        with pytest.raises(LensError):
            server.invoke("customers_by_city", "ghost", user,
                          params={"city": "x"})

    def test_device_override(self, server):
        invocation = server.login_and_invoke(
            "customers_by_city", "list", "webapp", "s3cret",
            params={"city": "Seattle"}, device="text",
        )
        assert invocation.device == "text"
        assert "<" not in invocation.rendered.splitlines()[0]

    def test_lens_requires_queries(self):
        with pytest.raises(LensError):
            Lens(name="empty", queries={})


class TestLensSplice:
    """Parameter values enter a query as literals: one pass fills every
    hole of the original text, and a value the grammar has no literal
    for is refused by name."""

    QUERY = (
        'WHERE <c><name>$n</name><city>$c</city></c> IN "customers", '
        "$c = {a} OR $c = {b} CONSTRUCT <customer>$n</customer>"
    )

    def lens(self, *names, query=QUERY):
        return Lens(
            name="l",
            queries={"q": query},
            parameters=tuple(LensParameter(name) for name in names),
        )

    def test_a_holding_hole_b_stays_literal(self):
        text = self.lens("a", "b").instantiate("q", {"a": "{b}", "b": "x"})
        assert '$c = "{b}" OR $c = "x" CONSTRUCT' in text

    def test_b_holding_hole_a_stays_literal(self):
        text = self.lens("b", "a").instantiate("q", {"a": "x", "b": "{a}"})
        assert '$c = "x" OR $c = "{a}" CONSTRUCT' in text

    def test_injection_string_cannot_widen_the_filter(self, engine):
        server = LensServer(engine)
        server.access.add_user("u", "p")
        server.register(self.lens("a", "b"))
        invocation = server.login_and_invoke(
            "l", "q", "u", "p", params={"a": "{b}", "b": " OR $n != "}
        )
        assert invocation.result.elements == []  # no city has either name

    def test_undeclared_hole_is_refused_when_the_lens_is_built(self):
        with pytest.raises(LensError, match="typo"):
            self.lens("a", "b", query=self.QUERY + " ORDER BY {typo}")

    def test_undeclared_hole_added_after_build_is_refused_by_name(self):
        lens = self.lens("a", "b")
        lens.queries["r"] = self.QUERY + " ORDER BY {typo}"
        with pytest.raises(LensError, match="typo"):
            lens.instantiate("r", {"a": "x", "b": "y"})

    def test_optional_parameter_without_default_is_refused_by_name(self):
        lens = Lens(
            name="l",
            queries={"q": self.QUERY},
            parameters=(LensParameter("a"), LensParameter("b", required=False)),
        )
        with pytest.raises(LensError, match="'b'"):
            lens.instantiate("q", {"a": "x"})

    @pytest.mark.parametrize(
        "value", [-5, -0.5, 1e300, 1e-07, float("inf"), float("nan")]
    )
    def test_number_without_a_literal_is_refused_by_name(self, value):
        with pytest.raises(LensError, match="'b'"):
            self.lens("a", "b").instantiate("q", {"a": 1, "b": value})

    def test_numbers_and_booleans_splice_bare(self):
        text = self.lens("a", "b").instantiate("q", {"a": 10, "b": 2.5})
        assert "$c = 10 OR $c = 2.5 CONSTRUCT" in text
        text = self.lens("a", "b").instantiate("q", {"a": True, "b": 0})
        assert "$c = true OR $c = 0 CONSTRUCT" in text


class TestFormatting:
    @pytest.fixture
    def elements(self):
        return [
            parse_element(
                '<deal sku="S1"><price>9.5</price><name>widget</name></deal>'
            )
        ]

    def test_xml_device(self, elements):
        assert format_result(elements, "xml").startswith('<deal sku="S1">')

    def test_web_device_escapes(self):
        elements = [parse_element("<x>a &amp; b</x>")]
        rendered = format_result(elements, "web")
        assert "a &amp; b" in rendered
        assert rendered.startswith('<div class="results">')

    def test_wireless_truncates(self):
        long_text = "x" * 100
        elements = [parse_element(f"<m><t>{long_text}</t></m>")]
        rendered = format_result(elements, "wireless")
        assert len(rendered) <= 41

    def test_text_device_indents(self, elements):
        rendered = format_result(elements, "text")
        lines = rendered.splitlines()
        assert lines[0] == "deal"
        assert any(line.startswith("  ") for line in lines[1:])

    def test_unknown_device(self, elements):
        with pytest.raises(LensError):
            format_result(elements, "fax")


class TestLoadBalancing:
    QUERY = 'WHERE <c><name>$n</name></c> IN "customers" CONSTRUCT <r>$n</r>'

    def test_queueing_single_instance(self, engine):
        cluster = EngineCluster(engine, instances=1)
        schedule = [(0.0, self.QUERY), (0.0, self.QUERY), (0.0, self.QUERY)]
        completed = cluster.run_schedule(schedule)
        # with one instance, later queries queue behind earlier ones
        assert completed[1].queue_ms > 0
        assert completed[2].queue_ms > completed[1].queue_ms

    def test_more_instances_cut_latency(self, catalog):
        engine = NimbleEngine(catalog)
        one = EngineCluster(engine, instances=1)
        schedule = [(0.0, self.QUERY)] * 4
        one.run_schedule(schedule)
        many = EngineCluster(engine, instances=4)
        many.run_schedule(schedule)
        assert many.percentile_latency(0.95) < one.percentile_latency(0.95)

    def test_round_robin_distributes(self, engine):
        cluster = EngineCluster(engine, instances=2, strategy="round_robin")
        cluster.run_schedule([(float(i), self.QUERY) for i in range(4)])
        served = [i.queries_served for i in cluster.instances]
        assert served == [2, 2]

    def test_least_loaded_picks_idle(self, engine):
        cluster = EngineCluster(engine, instances=2, strategy="least_loaded")
        cluster.run_schedule([(0.0, self.QUERY), (0.0, self.QUERY)])
        assert all(i.queries_served == 1 for i in cluster.instances)

    def test_throughput_reported(self, engine):
        cluster = EngineCluster(engine, instances=2)
        cluster.run_schedule([(float(i * 10), self.QUERY) for i in range(5)])
        assert cluster.throughput_qps() > 0
        assert cluster.makespan_ms() > 0

    def test_invalid_configuration(self, engine):
        with pytest.raises(PlanningError):
            EngineCluster(engine, instances=0)
        with pytest.raises(PlanningError):
            EngineCluster(engine, strategy="bogus")


try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _swap_literals(node, replace):
    """``node`` rebuilt with every ``Literal`` passed through ``replace``."""
    from dataclasses import fields, is_dataclass, replace as rebuild

    from repro.query import ast

    if isinstance(node, ast.Literal):
        return replace(node)
    if isinstance(node, tuple):
        return tuple(_swap_literals(item, replace) for item in node)
    if isinstance(node, list):
        return [_swap_literals(item, replace) for item in node]
    if is_dataclass(node) and not isinstance(node, type):
        changes = {
            field.name: _swap_literals(getattr(node, field.name), replace)
            for field in fields(node) if field.init
        }
        return rebuild(node, **changes)
    return node


def _literal_types(node) -> list:
    """(type, value) of every ``Literal``, so ``True`` and ``1`` differ."""
    found: list = []

    def note(literal):
        found.append((type(literal.value), literal.value))
        return literal

    _swap_literals(node, note)
    return found


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestLensSpliceProperty:
    """Whatever a parameter holds, the instantiated text parses to the
    template's own AST, except that the ``Literal`` at each hole holds
    the supplied value."""

    TEMPLATES = (
        'WHERE <c><name>$n</name><city>$c</city></c> IN "customers", '
        "$c = {a} OR $n = {b} CONSTRUCT <customer>$n</customer>",
        'WHERE <c><name>$n</name><city>$c</city></c> IN "customers", '
        "$n != {b}, $c = {a}, $c != {a} CONSTRUCT <customer>$n</customer>",
    )

    if HAVE_HYPOTHESIS:
        VALUES = st.one_of(
            st.lists(st.sampled_from(
                ['"', "\\", "{", "}", "a", "b", "$", "n", " ", "OR",
                 "{a}", "{b}", "{typo}", "'", "<", ">", "=", "é", "\n"]
            )).map("".join),
            st.text(),
            st.integers(min_value=0, max_value=10**30),
            st.booleans(),
        )

        @given(template=st.sampled_from(TEMPLATES), a=VALUES, b=VALUES)
        def test_holes_hold_only_their_values(self, template, a, b):
            from repro.core.lens import _HOLE
            from repro.query import ast
            from repro.query.parser import parse_query

            lens = Lens(
                name="l", queries={"q": template},
                parameters=(LensParameter("a"), LensParameter("b")),
            )
            supplied = {"a": a, "b": b}
            holes = _HOLE.findall(template)
            # neutral values: hole i is the numeral i, so each Literal of
            # the neutral parse says which hole it came from
            neutral = iter(range(len(holes)))
            neutral_ast = parse_query(
                _HOLE.sub(lambda _hole: str(next(neutral)), template)
            )
            expected = _swap_literals(
                neutral_ast,
                lambda literal: ast.Literal(supplied[holes[literal.value]]),
            )
            got = parse_query(lens.instantiate("q", supplied))
            assert got == expected
            assert _literal_types(got) == _literal_types(expected)

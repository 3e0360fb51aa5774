"""Lenses: the packaged front-end objects of section 2.1.

"A lens is an object that contains a set of XML queries, parameters,
XSL formatting, and authentication information."  A lens here bundles
named parameterized XML-QL queries, a device-formatting choice, and the
roles allowed to invoke it; the :class:`LensServer` authenticates,
authorizes, substitutes parameters, runs the query and formats the
answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.auth import AccessController, User
from repro.core.engine import NimbleEngine, QueryResult
from repro.core.formatting import DEVICES, format_result
from repro.core.partial import PartialResultPolicy
from repro.errors import LensError
from repro.resilience.admission import Priority

#: a ``{name}`` parameter hole in a lens query's text
_HOLE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
#: what the lexer reads as a number: unsigned digits, one optional dot
_NUMERAL = re.compile(r"\d+(\.\d+)?")


@dataclass(frozen=True)
class LensParameter:
    """One declared parameter of a lens query."""

    name: str
    required: bool = True
    default: Any = None


@dataclass
class Lens:
    """A named bundle of queries + parameters + formatting + auth."""

    name: str
    queries: dict[str, str]  # query name -> XML-QL text with {param} holes
    parameters: tuple[LensParameter, ...] = ()
    default_device: str = "xml"
    required_roles: frozenset[str] = frozenset()
    description: str = ""
    #: admission priority of every query this lens runs; dashboards and
    #: interactive lenses ride above BACKGROUND reporting lenses, so the
    #: overload ladder sheds the right front-end traffic first
    priority: Priority = Priority.NORMAL

    def __post_init__(self) -> None:
        if not self.queries:
            raise LensError(f"lens {self.name!r} declares no queries")
        if self.default_device not in DEVICES:
            raise LensError(f"lens {self.name!r}: unknown device {self.default_device!r}")
        self.priority = Priority(self.priority)
        declared = {parameter.name for parameter in self.parameters}
        for query_name, text in self.queries.items():
            for hole in _HOLE.findall(text):
                if hole not in declared:
                    raise self._undeclared(query_name, hole)

    def resolve_parameters(self, supplied: Mapping[str, Any]) -> dict[str, Any]:
        values: dict[str, Any] = {}
        for parameter in self.parameters:
            if parameter.name in supplied:
                values[parameter.name] = supplied[parameter.name]
            elif parameter.required and parameter.default is None:
                raise LensError(
                    f"lens {self.name!r} requires parameter {parameter.name!r}"
                )
            else:
                values[parameter.name] = parameter.default
        unknown = set(supplied) - {p.name for p in self.parameters}
        if unknown:
            raise LensError(
                f"lens {self.name!r} got unknown parameters {sorted(unknown)}"
            )
        return values

    def instantiate(self, query_name: str, supplied: Mapping[str, Any]) -> str:
        """Substitute parameters into a query's text.

        ``{param}`` holes take the *literal* form of the value: strings
        are quoted and escaped, numbers appear bare — so substitution
        cannot change the query's structure.  Every hole is filled in one
        pass over the original text, so a value that contains ``{other}``
        stays part of its literal.  A value the grammar has no literal
        for (None, a negative or exponent number, inf, nan) raises
        :class:`LensError`.
        """
        if query_name not in self.queries:
            raise LensError(
                f"lens {self.name!r} has no query {query_name!r} "
                f"(has {sorted(self.queries)})"
            )
        values = self.resolve_parameters(supplied)

        def fill(hole: re.Match) -> str:
            # ``queries`` is a plain dict: a query added after the lens
            # was built has had no hole check yet
            if hole[1] not in values:
                raise self._undeclared(query_name, hole[1])
            return self._literal(hole[1], values[hole[1]])

        return _HOLE.sub(fill, self.queries[query_name])

    def _undeclared(self, query_name: str, hole: str) -> LensError:
        return LensError(
            f"lens {self.name!r} query {query_name!r} has a hole "
            f"{{{hole}}} that names no declared parameter"
        )

    def _literal(self, name: str, value: Any) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            text = repr(value)
            if not _NUMERAL.fullmatch(text):
                raise LensError(
                    f"lens {self.name!r}: parameter {name!r} = {text} has no "
                    "literal in the query language"
                )
            return text
        if value is None:
            raise LensError(
                f"lens {self.name!r}: parameter {name!r} has no value"
            )
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


@dataclass
class LensInvocation:
    """The outcome of invoking a lens."""

    lens: str
    query_name: str
    result: QueryResult
    rendered: str
    device: str


class LensServer:
    """The front end: lens registry + auth + execution + formatting."""

    def __init__(self, engine: NimbleEngine, access: AccessController | None = None):
        self.engine = engine
        self.access = access or AccessController()
        self._lenses: dict[str, Lens] = {}

    def register(self, lens: Lens) -> Lens:
        if lens.name in self._lenses:
            raise LensError(f"lens {lens.name!r} already registered")
        self._lenses[lens.name] = lens
        return lens

    def get(self, name: str) -> Lens:
        lens = self._lenses.get(name)
        if lens is None:
            raise LensError(f"unknown lens {name!r}")
        return lens

    def lens_names(self) -> list[str]:
        return sorted(self._lenses)

    def invoke(
        self,
        lens_name: str,
        query_name: str,
        user: User,
        params: Mapping[str, Any] | None = None,
        device: str | None = None,
        policy: PartialResultPolicy | None = None,
    ) -> LensInvocation:
        """Authenticate-free invocation path (user already authenticated)."""
        lens = self.get(lens_name)
        self.access.authorize(user, lens.required_roles)
        text = lens.instantiate(query_name, params or {})
        result = self.engine.query(text, policy=policy,
                                   priority=lens.priority)
        chosen = device or lens.default_device
        rendered = format_result(result.elements, chosen)
        if not result.completeness.complete:
            rendered += f"\n<!-- {result.completeness.describe()} -->"
        return LensInvocation(lens_name, query_name, result, rendered, chosen)

    def login_and_invoke(
        self,
        lens_name: str,
        query_name: str,
        username: str,
        password: str,
        params: Mapping[str, Any] | None = None,
        device: str | None = None,
    ) -> LensInvocation:
        """Full path: authenticate, then invoke."""
        user = self.access.authenticate(username, password)
        return self.invoke(lens_name, query_name, user, params, device)

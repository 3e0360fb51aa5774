"""Mediated schemas: named bundles of view definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.algebra.construct import ConstructTemplate
from repro.errors import MediationError
from repro.query import ast as qast
from repro.query.parser import parse_query
from repro.query.translate import template_to_construct


@dataclass
class ViewDef:
    """A mediated relation defined by an XML-QL query.

    The query's CONSTRUCT template describes the elements the view
    exports; its WHERE clauses may reference mappings, sources, or other
    views — that recursion is what makes schemas hierarchical.
    """

    name: str
    query: qast.Query
    description: str = ""

    @classmethod
    def from_text(cls, name: str, text: str, description: str = "") -> "ViewDef":
        return cls(name, parse_query(text), description)

    def referenced_names(self) -> tuple[str, ...]:
        return self.query.sources

    @cached_property
    def template(self) -> ConstructTemplate:
        """The view's CONSTRUCT template, converted once per view, so its
        compiled builder serves every fetch of the view."""
        return template_to_construct(self.query.construct)


@dataclass
class MediatedSchema:
    """A named collection of views, the unit users are granted access to.

    Schemas stack: a schema's views may reference relations of lower
    schemas, so "the integration of the data sources ... can be done in
    an incremental fashion (possibly in different parts of an
    organization)".
    """

    name: str
    views: dict[str, ViewDef] = field(default_factory=dict)
    description: str = ""

    def define(self, view: ViewDef) -> None:
        if view.name in self.views:
            raise MediationError(
                f"schema {self.name!r} already defines {view.name!r}"
            )
        self.views[view.name] = view

    def define_view(self, name: str, query_text: str, description: str = "") -> ViewDef:
        view = ViewDef.from_text(name, query_text, description)
        self.define(view)
        return view

    def view_names(self) -> list[str]:
        return sorted(self.views)

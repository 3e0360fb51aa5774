"""Element construction with XML-QL-style grouping.

A CONSTRUCT template builds one element per *distinct combination of the
variables it uses directly*; nested templates repeat within their parent
group.  That is the practical reading of XML-QL's Skolem-function
grouping: in

    CONSTRUCT <result><owner>$o</owner> <car>$c</car></result>

each (o, c) pair makes a result, while

    CONSTRUCT <owner name=$o> <car>$c</car> </owner>

makes one ``owner`` per distinct $o containing all of that owner's cars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Any, Callable, Iterator, Sequence, Union

from repro.algebra.operators import Operator
from repro.algebra.tuples import BindingTuple
from repro.xmldm.nodes import Element, Text
from repro.algebra.grouping import _aggregate
from repro.xmldm.schema import atomic_to_text
from repro.xmldm.values import NULL, Collection, Null, Record, _comparison_key


@dataclass(frozen=True)
class TemplateText:
    """Literal text content inside a template."""

    text: str


@dataclass(frozen=True)
class TemplateVar:
    """A ``$var`` reference inside a template."""

    var: str


@dataclass(frozen=True)
class TemplateAggregate:
    """``kind($var)`` content: aggregate the variable over the element's
    group.  Aggregated variables never contribute to grouping identity —
    they are what grouping summarizes."""

    kind: str  # count | sum | avg | min | max
    var: str


TemplateItem = Union[TemplateText, TemplateVar, TemplateAggregate, "ConstructTemplate"]


@dataclass(frozen=True)
class ConstructTemplate:
    """An element template: tag, attributes, ordered content items.

    Attribute values are either literal strings or :class:`TemplateVar`.
    """

    tag: str
    attributes: tuple[tuple[str, "str | TemplateVar"], ...] = ()
    children: tuple[TemplateItem, ...] = ()

    def direct_vars(self) -> tuple[str, ...]:
        """Grouping variables: used directly, excluding aggregated ones."""
        names: list[str] = []
        for _, value in self.attributes:
            if isinstance(value, TemplateVar):
                names.append(value.var)
        for item in self.children:
            if isinstance(item, TemplateVar):
                names.append(item.var)
        return tuple(dict.fromkeys(names))

    def all_vars(self) -> tuple[str, ...]:
        """Non-aggregated variables of the whole subtree."""
        names = list(self.direct_vars())
        for item in self.children:
            if isinstance(item, ConstructTemplate):
                names.extend(item.all_vars())
        return tuple(dict.fromkeys(names))

    def has_aggregates(self) -> bool:
        return any(
            isinstance(item, TemplateAggregate)
            or (isinstance(item, ConstructTemplate) and item.has_aggregates())
            for item in self.children
        )

    @cached_property
    def group_vars(self) -> tuple[str, ...]:
        """Grouping key: the *direct* variables when there are any — they
        determine the element's identity, the practical reading of
        XML-QL's implicit Skolem functions — otherwise all variables in
        the subtree (one element per distinct binding, duplicates
        collapsed)."""
        return self.direct_vars() or self.all_vars()

    @cached_property
    def builder(self) -> Callable[[Sequence[BindingTuple]], list[Element]]:
        """This template compiled into a function from rows to elements,
        built on first use and kept with the template."""
        make, group_vars = self._make_one, self.group_vars

        def build(rows: Sequence[BindingTuple]) -> list[Element]:
            if len(rows) == 1:
                return [make(rows)]
            return [make(members) for members in group_rows(rows, group_vars)]

        return build

    @cached_property
    def _make_one(self) -> Callable[[Sequence[BindingTuple]], Element]:
        """The element of one group of rows (see :func:`_compile`)."""
        return _compile(self)

    @cached_property
    def slot_template(self) -> "ConstructTemplate":
        """This template with each aggregate, in document order, read
        from its slot variable (``__agg_0``, ``__agg_1``, ...): rows
        carrying finished aggregates build what this template builds
        over the member rows."""
        return _rewrite_aggregates(self, count())

    def __getstate__(self) -> dict[str, Any]:
        # compiled forms are rebuilt on first use, never copied
        state = dict(self.__dict__)
        state.pop("builder", None)
        state.pop("_make_one", None)
        return state

    def describe(self) -> str:
        return f"<{self.tag}>...({len(self.children)} items)"


def slot_var(index: int) -> str:
    """The variable that carries aggregate ``index``'s finished value."""
    return f"__agg_{index}"


def _rewrite_aggregates(
    template: ConstructTemplate, counter: Iterator[int]
) -> ConstructTemplate:
    """Swap each aggregate (document order) for its slot variable."""
    children: list[Any] = []
    for item in template.children:
        if isinstance(item, TemplateAggregate):
            children.append(TemplateVar(slot_var(next(counter))))
        elif isinstance(item, ConstructTemplate):
            children.append(_rewrite_aggregates(item, counter))
        else:
            children.append(item)
    return ConstructTemplate(template.tag, template.attributes, tuple(children))


def build_elements(
    template: ConstructTemplate, rows: Sequence[BindingTuple]
) -> list[Element]:
    """Instantiate ``template`` over ``rows`` with grouped nesting.

    Runs the template's compiled :attr:`~ConstructTemplate.builder`; see
    :attr:`~ConstructTemplate.group_vars` for the grouping rule.
    """
    return template.builder(rows)


def group_rows(rows: Sequence[Any], group_vars: Sequence[str]) -> list:
    """Construct's grouping: ``rows`` (binding tuples or records) split
    by model equality of ``group_vars`` into groups of rows, in order of
    first appearance.  No grouping variable makes one group."""
    if len(rows) <= 1 or not group_vars:
        return [rows] if rows else []
    if len(group_vars) == 1:
        (var,) = group_vars
        keys: list = [_comparison_key(row.get(var, NULL)) for row in rows]
    else:
        keys = [
            tuple([_comparison_key(row.get(var, NULL)) for var in group_vars])
            for row in rows
        ]
    groups: dict[Any, list] = {}
    for key, row in zip(keys, rows):
        members = groups.get(key)
        if members is None:
            groups[key] = [row]
        else:
            members.append(row)
    return list(groups.values())


# the kinds of a compiled template's content items
_TEXT, _VAR, _AGGREGATE, _NESTED = range(4)


def _compile(
    template: ConstructTemplate,
) -> Callable[[Sequence[BindingTuple]], Element]:
    """Resolve ``template`` once into a function from one group of rows
    (its first row the representative) to that group's element.

    Attribute and content items and nested templates are fixed here; the
    returned function only reads bindings, folds aggregates and appends.
    A nested template over a group of one row makes exactly one element,
    so it is made without partitioning.  Fresh elements carry no cached
    subtree hash, so children are linked without
    :meth:`Element.append`'s invalidation.
    """
    tag = template.tag
    attribute_ops = tuple(
        (name, value.var, None) if isinstance(value, TemplateVar)
        else (name, None, value)
        for name, value in template.attributes
    )
    content_ops: list[tuple[int, Any]] = []
    for item in template.children:
        if isinstance(item, TemplateText):
            if item.text:
                content_ops.append((_TEXT, item.text))
        elif isinstance(item, TemplateVar):
            content_ops.append((_VAR, item.var))
        elif isinstance(item, TemplateAggregate):
            content_ops.append((_AGGREGATE, (item.kind, item.var)))
        else:
            content_ops.append((_NESTED, (item._make_one, item.group_vars)))
    contents = tuple(content_ops)

    def make(members: Sequence[BindingTuple]) -> Element:
        bindings = members[0]._bindings
        element = Element(tag)
        if attribute_ops:
            attributes = element.attributes
            for name, var, literal in attribute_ops:
                if var is None:
                    attributes[name] = literal
                else:
                    attributes[name] = _attribute_text(bindings.get(var, NULL))
        children = element.children
        for kind, payload in contents:
            if kind is _VAR:
                value = bindings.get(payload, NULL)
            elif kind is _TEXT:
                node = Text(payload)
                node.parent = element
                children.append(node)
                continue
            elif kind is _NESTED:
                make_child, child_vars = payload
                if len(members) == 1:
                    node = make_child(members)
                    node.parent = element
                    children.append(node)
                else:
                    for group in group_rows(members, child_vars):
                        node = make_child(group)
                        node.parent = element
                        children.append(node)
                continue
            else:
                value = _fold(payload, members)
            cls = type(value)
            if cls is str:
                if not value:
                    continue
                node = Text(value)
            elif cls is int or cls is float:
                node = Text(str(value))
            else:
                _append_value(element, value)
                continue
            node.parent = element
            children.append(node)
        return element

    return make


def _attribute_text(bound: Any) -> str:
    if type(bound) is str:
        return bound
    if isinstance(bound, Null):
        return ""
    if isinstance(bound, (Element, Record, Collection)):
        return str(bound)
    return atomic_to_text(bound)


def _fold(aggregate: tuple[str, str], members: list[BindingTuple]) -> Any:
    """An aggregate item's value over its group's rows."""
    kind, var = aggregate
    values = [member._bindings.get(var, NULL) for member in members]
    if kind != "count":
        # XML content is text: coerce numeric-looking strings so
        # sum/avg/min/max behave like their SQL namesakes
        values = [_numeric_or_self(v) for v in values]
    return _aggregate(kind, values)


def _numeric_or_self(value: Any) -> Any:
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            return value
        return int(number) if number.is_integer() else number
    return value


def _append_value(element: Element, value: Any) -> None:
    """Render a bound value as element content."""
    if isinstance(value, Null):
        return
    if isinstance(value, Element):
        element.append(value.copy())
        return
    if isinstance(value, Record):
        for name, field_value in value.items():
            wrapper = Element(name)
            _append_value(wrapper, field_value)
            element.append(wrapper)
        return
    if isinstance(value, Collection):
        for item in value:
            _append_value(element, item)
        return
    text = atomic_to_text(value)
    if text:
        element.append(Text(text))


class Construct(Operator):
    """Materialize the input and build result elements from a template.

    Yields one tuple per constructed top-level element, bound to
    ``out_var``.  Construct is a pipeline breaker (grouping requires the
    full input), mirroring the physical reality the paper's engine faced.
    """

    def __init__(self, child: Operator, template: ConstructTemplate, out_var: str = "result"):
        super().__init__(child)
        self.template = template
        self.out_var = out_var

    def _produce(self) -> Iterator[BindingTuple]:
        rows = list(self.children[0])
        if not rows:
            return
        for element in build_elements(self.template, rows):
            yield BindingTuple({self.out_var: element})

    def describe(self) -> str:
        return f"Construct({self.template.describe()} -> ${self.out_var})"

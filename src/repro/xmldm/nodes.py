"""Ordered element trees with document order and full navigation.

Nodes keep parent pointers and per-document pre-order numbers so the
algebra can implement the navigation features the paper's conclusion
requires: document order, and "navigating the XML document structure up,
down and sideways" (section 4).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Iterable, Iterator


def _digest(*parts: str) -> str:
    """16-byte blake2b digest over NUL-separated parts (hex)."""
    h = blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class Node:
    """Base class for all tree nodes.

    ``document_order`` is the node's pre-order position in its document;
    it is assigned by :meth:`repro.xmldm.document.Document.renumber` and
    is ``-1`` for nodes not (yet) attached to a document.

    Every node memoizes a deterministic **subtree hash** (hashlib-based,
    stable across processes — unlike built-in ``hash``, which is
    per-process randomized for strings).  The CDC differ compares two
    document versions by root hash and recurses only into children whose
    hashes changed; future dedup work shares the same cached hash.  The
    cache is invalidated up the parent chain by the mutator methods
    (``append``/``insert``/``remove``/``set_attribute``/
    ``remove_attribute``/``set_value``); mutating ``attributes`` or
    ``children`` directly bypasses the cache and is unsupported once a
    hash has been taken.
    """

    __slots__ = ("parent", "document_order", "_subtree_hash")

    def __init__(self) -> None:
        self.parent: Element | None = None
        self.document_order: int = -1
        self._subtree_hash: str | None = None

    def subtree_hash(self) -> str:
        """Deterministic digest of this node's entire subtree."""
        raise NotImplementedError

    @property
    def cached_subtree_hash(self) -> str | None:
        """The memoized subtree hash, or None once a mutation dropped it.

        Reading it costs nothing, so a holder of derived state (the XML
        wrapper's shredded tables) can check it on every use.
        """
        return self._subtree_hash

    def _invalidate_subtree_hash(self) -> None:
        """Drop cached hashes from here up to the root.

        Stops at the first node with no cached hash: a parent's hash can
        only have been computed after its children's, so an uncached
        node can never have a cached ancestor.
        """
        node: Node | None = self
        while node is not None and node._subtree_hash is not None:
            node._subtree_hash = None
            node = node.parent

    # -- navigation -------------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield the parent chain from nearest to root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the topmost node of this tree."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def following_siblings(self) -> Iterator["Node"]:
        """Yield siblings after this node, in document order."""
        if self.parent is None:
            return
        seen_self = False
        for child in self.parent.children:
            if seen_self:
                yield child
            elif child is self:
                seen_self = True

    def preceding_siblings(self) -> Iterator["Node"]:
        """Yield siblings before this node, nearest first."""
        if self.parent is None:
            return
        before: list[Node] = []
        for child in self.parent.children:
            if child is self:
                break
            before.append(child)
        yield from reversed(before)

    def text_content(self) -> str:
        """Concatenated text of this node and its descendants."""
        raise NotImplementedError


class Text(Node):
    """A text node."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        # slots set here, not through Node.__init__: result trees make
        # thousands of these per query and the call is measurable
        self.parent = None
        self.document_order = -1
        self._subtree_hash = None
        self.value = value

    def set_value(self, value: str) -> None:
        """Replace the text, invalidating cached subtree hashes."""
        if value == self.value:
            return
        self.value = value
        self._invalidate_subtree_hash()

    def subtree_hash(self) -> str:
        cached = self._subtree_hash
        if cached is None:
            cached = _digest("text", self.value)
            self._subtree_hash = cached
        return cached

    def text_content(self) -> str:
        return self.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Text):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("text", self.value))

    def __repr__(self) -> str:
        return f"Text({self.value!r})"


class Comment(Node):
    """An XML comment; preserved through parse/serialize but inert."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def subtree_hash(self) -> str:
        cached = self._subtree_hash
        if cached is None:
            cached = _digest("comment", self.value)
            self._subtree_hash = cached
        return cached

    def text_content(self) -> str:
        return ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comment):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("comment", self.value))

    def __repr__(self) -> str:
        return f"Comment({self.value!r})"


class ProcessingInstruction(Node):
    """An XML processing instruction; parsed, carried, not interpreted."""

    __slots__ = ("target", "value")

    def __init__(self, target: str, value: str = ""):
        super().__init__()
        self.target = target
        self.value = value

    def subtree_hash(self) -> str:
        cached = self._subtree_hash
        if cached is None:
            cached = _digest("pi", self.target, self.value)
            self._subtree_hash = cached
        return cached

    def text_content(self) -> str:
        return ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessingInstruction):
            return NotImplemented
        return (self.target, self.value) == (other.target, other.value)

    def __hash__(self) -> int:
        return hash(("pi", self.target, self.value))

    def __repr__(self) -> str:
        return f"ProcessingInstruction({self.target!r}, {self.value!r})"


class Element(Node):
    """An element with a tag, ordered attributes and ordered children."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        children: Iterable[Node | str] | None = None,
    ):
        self.parent = None  # slots set directly, as in Text
        self.document_order = -1
        self._subtree_hash = None
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.children: list[Node] = []
        if children:
            for child in children:
                self.append(child)

    # -- mutation ---------------------------------------------------------

    def append(self, child: "Node | str") -> "Node":
        """Append a child (a bare string becomes a Text node)."""
        node = Text(child) if isinstance(child, str) else child
        node.parent = self
        self.children.append(node)
        self._invalidate_subtree_hash()
        return node

    def insert(self, index: int, child: "Node | str") -> "Node":
        node = Text(child) if isinstance(child, str) else child
        node.parent = self
        self.children.insert(index, node)
        self._invalidate_subtree_hash()
        return node

    def remove(self, child: "Node") -> None:
        self.children.remove(child)
        child.parent = None
        self._invalidate_subtree_hash()

    def set_attribute(self, name: str, value: str) -> None:
        """Set one attribute, invalidating cached subtree hashes."""
        if self.attributes.get(name) == value:
            return
        self.attributes[name] = value
        self._invalidate_subtree_hash()

    def remove_attribute(self, name: str) -> None:
        if name not in self.attributes:
            return
        del self.attributes[name]
        self._invalidate_subtree_hash()

    # -- navigation -------------------------------------------------------

    def child_elements(self, tag: str | None = None) -> Iterator["Element"]:
        """Yield element children, optionally filtered by tag."""
        for child in self.children:
            if isinstance(child, Element) and (tag is None or child.tag == tag):
                yield child

    def first_child(self, tag: str) -> "Element | None":
        """Return the first element child with ``tag``, or None."""
        for child in self.child_elements(tag):
            return child
        return None

    def descendants(self, tag: str | None = None) -> Iterator["Element"]:
        """Yield descendant elements in document order (self excluded)."""
        for child in self.children:
            if isinstance(child, Element):
                if tag is None or child.tag == tag:
                    yield child
                yield from child.descendants(tag)

    def descendants_or_self(self, tag: str | None = None) -> Iterator["Element"]:
        if tag is None or self.tag == tag:
            yield self
        yield from self.descendants(tag)

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of all nodes, self included."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.walk()
            else:
                yield child

    # -- content ----------------------------------------------------------

    def subtree_hash(self) -> str:
        """Memoized digest over tag, sorted attributes and child hashes.

        Children contribute in document order, so reordering changes the
        hash; attributes are order-insensitive (matching ``__eq__``).
        """
        cached = self._subtree_hash
        if cached is not None:
            return cached
        h = blake2b(digest_size=16)
        h.update(b"elem\x00")
        h.update(self.tag.encode("utf-8"))
        for name in sorted(self.attributes):
            h.update(b"\x00a\x00")
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            h.update(str(self.attributes[name]).encode("utf-8"))
        for child in self.children:
            h.update(b"\x00c\x00")
            h.update(child.subtree_hash().encode("ascii"))
        cached = h.hexdigest()
        self._subtree_hash = cached
        return cached

    def text_content(self) -> str:
        return "".join(child.text_content() for child in self.children)

    def get(self, name: str, default: Any = None) -> Any:
        """Return attribute ``name`` or ``default``."""
        return self.attributes.get(name, default)

    def copy(self) -> "Element":
        """Deep-copy this subtree (detached: no parent, no document order)."""
        clone = Element(self.tag, dict(self.attributes))
        for child in self.children:
            if isinstance(child, Element):
                clone.append(child.copy())
            elif isinstance(child, Text):
                clone.append(Text(child.value))
            elif isinstance(child, Comment):
                clone.append(Comment(child.value))
            elif isinstance(child, ProcessingInstruction):
                clone.append(ProcessingInstruction(child.target, child.value))
        return clone

    # -- equality (structural, ignores parent/document order) -------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attributes == other.attributes
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.tag,
                tuple(sorted(self.attributes.items())),
                tuple(
                    child if not isinstance(child, Element) else ("elem", child.tag)
                    for child in self.children
                ),
            )
        )

    def __repr__(self) -> str:
        attrs = "".join(f" {k}={v!r}" for k, v in self.attributes.items())
        return f"<Element {self.tag}{attrs} children={len(self.children)}>"

"""Canonical combinatorial bases: planar rooted trees, forests, binary trees,
and non-planar labeled rooted trees.

Planar rooted trees here are Schroeder trees: every internal node has at
least two children, and the degree of a tree is its number of leaves.
Counts per degree are the little Schroeder numbers (1, 1, 3, 11, 45, ...);
forests of such trees are counted by the large Schroeder numbers
(1, 2, 6, 22, 90, ...).

Each kind of tree has one canonical text encoding, given by ``str`` and
inverted by ``parse``, which doubles as its sort key. Enumerations are
ordered by degree then lexicographically on encodings so downstream
matrices are reproducible.
Each enumeration is computed once per argument tuple under ``functools.cache``
and returned as an immutable tuple; ``cache_info``/``cache_clear`` on the
function report and free it.

Planar trees and forests, like the basis keys built on them elsewhere,
are hash-consed (``Interned``): each distinct value is built once and kept
in a per-class table, so equal keys are the same object, and hashing and
equality are by identity and never walk a tree. The tables only grow. Each
planar tree and forest also stores its encoding, so ``str`` and the sorts
keyed on it never re-encode a tree.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property
from itertools import product


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Interned:
    """Base of hash-consed keys: equal fields always give the same instance.

    A subclass names its fields in ``_fields`` and lists them first in
    ``__slots__``, followed by the values its static ``_derive(*fields)``
    computes from them (raising ``ValueError`` on a bad shape); its
    ``__new__`` builds every instance through ``_intern``. Each subclass
    keeps one table from field tuples to instances, so equality and hashing
    are the default identity ones and never recurse. Instances are
    immutable, and copying or unpickling one returns the interned instance.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _table: dict

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _intern(cls, fields: tuple):
        self = cls._table.get(fields)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields + cls._derive(*fields)):
                object.__setattr__(self, name, value)
            # setdefault keeps one instance if two threads race here.
            self = cls._table.setdefault(fields, self)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class PlanarTree(Interned):
    """A planar rooted tree whose internal nodes all have >= 2 children.

    The leaf is ``PlanarTree()`` with no children; ``degree`` is the number
    of leaves. Its encoding is built once, from the children's stored
    encodings, and kept in ``text``.
    """

    __slots__ = ("children", "degree", "text")
    _fields = ("children",)

    def __new__(cls, children: tuple["PlanarTree", ...] = ()):
        return cls._intern((children,))

    @staticmethod
    def _derive(children) -> tuple:
        if len(children) == 1:
            raise ValueError("unary nodes are not in the Schroeder basis")
        if not children:
            return (1, "|")
        return (
            sum(c.degree for c in children),
            "(" + " ".join(c.text for c in children) + ")",
        )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return self.text


LEAF = PlanarTree()


class Forest(Interned):
    """A nonempty ordered sequence of planar trees; its encoding is stored."""

    __slots__ = ("trees", "degree", "text")
    _fields = ("trees",)

    def __new__(cls, trees: tuple[PlanarTree, ...]):
        return cls._intern((trees,))

    @staticmethod
    def _derive(trees) -> tuple:
        if not trees:
            raise ValueError("forests are nonempty")
        return (sum(t.degree for t in trees), "[" + " ".join(t.text for t in trees) + "]")

    def __len__(self) -> int:
        return len(self.trees)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class BinaryTree:
    """A planar binary tree; degree counts internal nodes."""

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("binary nodes have exactly two children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @cached_property
    def degree(self) -> int:
        """Number of internal nodes."""
        if self.is_leaf:
            return 0
        return 1 + self.left.degree + self.right.degree

    def __str__(self) -> str:
        if self.is_leaf:
            return "|"
        return f"({self.left} {self.right})"


BLEAF = BinaryTree()
#: The one-node binary tree, generator of the degree-1 component.
Y1 = BinaryTree(BLEAF, BLEAF)


@dataclass(frozen=True)
class NapTree:
    """A labeled rooted tree with no planarity: children form a multiset.

    Children are stored sorted by their encodings, so equal trees compare
    and hash equal; the degree is the number of nodes.
    """

    label: str
    children: tuple["NapTree", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(sorted(self.children, key=str)))

    @cached_property
    def degree(self) -> int:
        return 1 + sum(c.degree for c in self.children)

    def __str__(self) -> str:
        if not self.children:
            return self.label
        return self.label + "[" + ",".join(str(c) for c in self.children) + "]"


def graft(ts) -> PlanarTree:
    """Join p >= 2 trees in order under a new common root."""
    ts = tuple(ts)
    if len(ts) < 2:
        raise ValueError("unary/empty grafting not in Schroeder basis")
    return PlanarTree(ts)


def corolla(n: int) -> PlanarTree:
    """The depth-one tree with n leaves."""
    if n < 2:
        raise ValueError(f"corollas need arity >= 2, got {n}")
    return PlanarTree((LEAF,) * n)


def _compositions(n: int, min_parts: int):
    """Ordered compositions of n into >= min_parts positive parts."""
    def rec(rest: int, parts: tuple[int, ...]):
        if rest == 0:
            if len(parts) >= min_parts:
                yield parts
            return
        for head in range(1, rest + 1):
            yield from rec(rest - head, parts + (head,))

    yield from rec(n, ())


@cache
def enumerate_trees(n: int) -> tuple[PlanarTree, ...]:
    """All planar trees of degree n, sorted by encoding."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n == 1:
        return (LEAF,)
    found = (
        PlanarTree(children)
        for comp in _compositions(n, 2)
        for children in product(*map(enumerate_trees, comp))
    )
    return tuple(sorted(found, key=str))


@cache
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All forests of total degree n, sorted by encoding."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    found = (
        Forest(trees)
        for comp in _compositions(n, 1)
        for trees in product(*map(enumerate_trees, comp))
    )
    return tuple(sorted(found, key=str))


@cache
def enumerate_binary(n: int) -> tuple[BinaryTree, ...]:
    """All binary trees with n internal nodes (Catalan many), sorted."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n == 0:
        return (BLEAF,)
    found = (
        BinaryTree(l, r)
        for k in range(n)
        for l in enumerate_binary(k)
        for r in enumerate_binary(n - 1 - k)
    )
    return tuple(sorted(found, key=str))


def bin_nwarrow(r: BinaryTree, s: BinaryTree) -> BinaryTree:
    """Glue the root of s onto the rightmost leaf of r; degrees add.

    Conventions: ``| nw t = t`` and ``t nw | = t``.
    """
    if r.is_leaf:
        return s
    if s.is_leaf:
        return r
    return BinaryTree(r.left, bin_nwarrow(r.right, s))


def bin_nearrow(r: BinaryTree, s: BinaryTree) -> BinaryTree:
    """Mirror of ``bin_nwarrow``: glue the root of r onto the leftmost leaf of s."""
    if s.is_leaf:
        return r
    if r.is_leaf:
        return s
    return BinaryTree(bin_nearrow(r, s.left), s.right)


def nap_graft(t: NapTree, s: NapTree) -> NapTree:
    """Link the root of s to the root of t (child multiset re-canonicalized)."""
    return NapTree(t.label, t.children + (s,))


@cache
def enumerate_nap(n: int, labels: tuple[str, ...] = ("v",)) -> tuple[NapTree, ...]:
    """All labeled rooted trees with n nodes over the label alphabet."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    found = {
        NapTree(label, kids) for label in labels for kids in _nap_multisets(n - 1, labels)
    }
    return tuple(sorted(found, key=str))


def _nap_multisets(total: int, labels: tuple[str, ...]) -> list[tuple[NapTree, ...]]:
    """Multisets of labeled trees with degrees summing to ``total``."""
    if total == 0:
        return [()]
    pool: list[NapTree] = []
    for d in range(1, total + 1):
        pool.extend(enumerate_nap(d, labels))

    def rec(rest: int, start: int) -> list[tuple[NapTree, ...]]:
        if rest == 0:
            return [()]
        out = []
        for i in range(start, len(pool)):
            t = pool[i]
            if t.degree <= rest:
                out.extend((t,) + tail for tail in rec(rest - t.degree, i))
        return out

    return rec(total, 0)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def done(self):
        if self.pos != len(self.text):
            self.error("trailing input")

    def tree(self) -> PlanarTree:
        c = self.peek()
        if c == "|":
            self.pos += 1
            return LEAF
        if c == "(":
            self.pos += 1
            children = [self.tree()]
            while self.peek() == " ":
                self.pos += 1
                children.append(self.tree())
            self.take(")")
            if len(children) < 2:
                self.error("internal nodes need >= 2 children")
            return PlanarTree(tuple(children))
        self.error("expected '|' or '('")

    def forest(self) -> Forest:
        self.take("[")
        trees = [self.tree()]
        while self.peek() == " ":
            self.pos += 1
            trees.append(self.tree())
        self.take("]")
        return Forest(tuple(trees))

    def binary(self) -> BinaryTree:
        c = self.peek()
        if c == "|":
            self.pos += 1
            return BLEAF
        if c == "(":
            self.pos += 1
            left = self.binary()
            self.take(" ")
            right = self.binary()
            self.take(")")
            return BinaryTree(left, right)
        self.error("expected '|' or '('")

    def nap(self) -> NapTree:
        start = self.pos
        while self.peek() and self.peek() not in "[],":
            self.pos += 1
        label = self.text[start : self.pos]
        if not label:
            self.error("expected a label")
        children: tuple[NapTree, ...] = ()
        if self.peek() == "[":
            self.pos += 1
            kids = [self.nap()]
            while self.peek() == ",":
                self.pos += 1
                kids.append(self.nap())
            self.take("]")
            children = tuple(kids)
        return NapTree(label, children)


def _parse_all(rule, text: str):
    """Run one ``_Parser`` rule over the whole of ``text``."""
    p = _Parser(text)
    out = rule(p)
    p.done()
    return out


def parse_tree(text: str) -> PlanarTree:
    return _parse_all(_Parser.tree, text)


def parse_forest(text: str) -> Forest:
    return _parse_all(_Parser.forest, text)


def parse_binary(text: str) -> BinaryTree:
    return _parse_all(_Parser.binary, text)


def parse_nap(text: str) -> NapTree:
    return _parse_all(_Parser.nap, text)


def parse(text: str):
    """Parse a tree, forest, or labeled tree, dispatching on the first character."""
    if not text:
        raise ParseError("empty input", 0)
    head = text[0]
    if head == "[":
        return parse_forest(text)
    if head in "|(":
        return parse_tree(text)
    return parse_nap(text)

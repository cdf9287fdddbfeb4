"""Free algebras with an associative product and a second one-sided product.

The main construction lives on pairs (forest, word): a forest of planar
trees whose leaf count matches the word length. The two operations are

* ``star``: concatenation of forests (associative), and
* ``succ``: grafting of the left factor's trees onto the right factor,
  which always returns a single tree.

Every basis element of degree >= 2 splits canonically into one of the two
operations applied to smaller basis elements (``decompose_basis``); all
recursive structure downstream (coproducts, evaluations, homotopies) uses
that single splitting. Variants on binary trees (with the root-gluing
product) and the mirror-image right-handed structure, plus the
permutative/NAP pair construction on labeled rooted trees, live here too.

``eval_basis`` evaluates a basis key into any ``AlgebraTarget``: the unique
morphism for both operations that sends each generator to a given image.
It reads only the key's ``degree``, its ``word`` (for a generator) and its
``split()``, which returns ``(op, left, right)`` with the tagged product of
the two halves equal to the key. ``DiptBasis``, the binary-tree
``LDiptBasis`` and the Koszul dual's ``QNBasis`` all split, so one
evaluator serves the three free algebras. Morphic coproducts elsewhere are
this evaluation into a tensor square. Targets hash by identity, so two
targets never share cached images.

The splitting, the basis enumerations and ``eval_basis`` are computed once
per argument tuple under ``functools.cache``; ``cache_info``/``cache_clear``
on the function report and free them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from typing import Callable, Mapping, Sequence

from .linalg import LinComb, bilinear
from .series import catalan_series, large_schroeder, little_schroeder
from .trees import (
    BLEAF,
    LEAF,
    BinaryTree,
    Forest,
    Interned,
    NapTree,
    PlanarTree,
    Y1,
    bin_nearrow,
    bin_nwarrow,
    enumerate_binary,
    enumerate_forests,
    enumerate_trees,
    nap_graft,
    parse_forest,
)

OP_STAR = "star"
OP_SUCC = "succ"


def gen_name(i: int) -> str:
    """Single-letter generator names: 0 -> 'a', 1 -> 'b', ..."""
    if not 0 <= i < 26:
        raise ValueError("generator indices range over 0..25")
    return chr(ord("a") + i)


def gen_index(name: str) -> int:
    i = ord(name) - ord("a")
    if not 0 <= i < 26:
        raise ValueError(f"unknown generator name {name!r}")
    return i


def word_str(word: Sequence[int]) -> str:
    return "".join(gen_name(i) for i in word)


class DiptBasis(Interned):
    """Basis element: a forest tagged with one generator index per leaf.

    Its text ``forest @ word`` is computed once, when the key is interned,
    and stored in ``text``: reports and sorts print these keys far more
    often than they build them.
    """

    __slots__ = ("forest", "word", "degree", "text")
    _fields = ("forest", "word")

    def __new__(cls, forest: Forest, word: tuple[int, ...]):
        return cls._intern((forest, word))

    @staticmethod
    def _derive(forest, word) -> tuple:
        if len(word) != forest.degree:
            raise ValueError("word length must equal the forest leaf count")
        return (forest.degree, f"{forest} @ {word_str(word)}")

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__

    def split(self) -> tuple[str, DiptBasis, DiptBasis]:
        return decompose_basis(self)


def generator(i: int = 0) -> DiptBasis:
    return DiptBasis(Forest((LEAF,)), (i,))


def gen_elem(i: int = 0) -> LinComb:
    return LinComb.basis(generator(i))


def basis_from_str(text: str) -> DiptBasis:
    """Inverse of ``str(DiptBasis)``: '<forest> @ <word>'."""
    try:
        forest_text, word_text = text.split(" @ ")
    except ValueError:
        raise ValueError(f"expected '<forest> @ <word>', got {text!r}") from None
    return DiptBasis(parse_forest(forest_text), tuple(gen_index(c) for c in word_text))


def star_basis(a: DiptBasis, b: DiptBasis) -> DiptBasis:
    return DiptBasis(Forest(a.forest.trees + b.forest.trees), a.word + b.word)


def _branches(f: Forest) -> tuple[PlanarTree, ...]:
    """Material a forest contributes under the grafting product.

    A single non-leaf tree contributes its branches; a single leaf stays a
    leaf; a multi-tree forest is first grafted into one tree.
    """
    if len(f.trees) == 1:
        t = f.trees[0]
        return (LEAF,) if t.is_leaf else t.children
    return (PlanarTree(f.trees),)


def succ_basis(a: DiptBasis, b: DiptBasis) -> DiptBasis:
    tree = PlanarTree(a.forest.trees + _branches(b.forest))
    return DiptBasis(Forest((tree,)), a.word + b.word)


def prec_basis(a: DiptBasis, b: DiptBasis) -> DiptBasis:
    """Mirror of ``succ_basis``: a's material precedes b's trees under the new root."""
    tree = PlanarTree(_branches(a.forest) + b.forest.trees)
    return DiptBasis(Forest((tree,)), a.word + b.word)


star = bilinear(star_basis)
succ = bilinear(succ_basis)
rdipt_prec = bilinear(prec_basis)


@cache
def decompose_basis(x: DiptBasis) -> tuple[str, DiptBasis, DiptBasis]:
    """Canonical splitting of a degree >= 2 basis element.

    A multi-tree forest splits off its first tree under ``star``. A single
    tree t1 v ... v tk splits as (forest t1..t_{k-1}) succ (branches of tk),
    with the branches of a leaf being the leaf itself. Both factors have
    strictly smaller degree and the tagged operation reproduces the input.
    """
    if x.degree < 2:
        raise ValueError("generator has no decomposition")
    trees = x.forest.trees
    if len(trees) >= 2:
        d = trees[0].degree
        left = DiptBasis(Forest(trees[:1]), x.word[:d])
        right = DiptBasis(Forest(trees[1:]), x.word[d:])
        return (OP_STAR, left, right)
    children = trees[0].children
    last = children[-1]
    d = x.degree - last.degree
    left = DiptBasis(Forest(children[:-1]), x.word[:d])
    branches = (last,) if last.is_leaf else last.children
    right = DiptBasis(Forest(branches), x.word[d:])
    return (OP_SUCC, left, right)


@cache
def dipt_basis_of_degree(n: int, num_gens: int = 1) -> tuple[DiptBasis, ...]:
    """All degree-n basis elements over the given alphabet, canonically ordered."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    words = list(product(range(num_gens), repeat=n))
    out = [DiptBasis(f, w) for f in enumerate_forests(n) for w in words]
    return tuple(sorted(out, key=str))


def reflect_tree(t: PlanarTree) -> PlanarTree:
    if t.is_leaf:
        return t
    return PlanarTree(tuple(reflect_tree(c) for c in reversed(t.children)))


def reflect_basis(x: DiptBasis) -> DiptBasis:
    trees = tuple(reflect_tree(t) for t in reversed(x.forest.trees))
    return DiptBasis(Forest(trees), tuple(reversed(x.word)))


def reflect(x: LinComb) -> LinComb:
    return x.map_keys(reflect_basis)


@dataclass(frozen=True, eq=False)
class AlgebraTarget:
    """A concrete algebra to evaluate into: two operations plus generator images.

    The operations must be pure and the generator images fixed, because
    ``eval_basis`` caches its images per (basis element, target).
    """

    star: Callable
    succ: Callable
    generators: Mapping[int, object]
    zero: object


@cache
def eval_basis(x, target: AlgebraTarget):
    """Image of a basis key under the unique two-product morphism into
    ``target`` that sends each generator to its given image.

    A degree-1 key is the generator ``word[0]``; any other key recurses
    through ``x.split()``.
    """
    if x.degree == 1:
        return target.generators[x.word[0]]
    op, left, right = x.split()
    fn = target.star if op == OP_STAR else target.succ
    return fn(eval_basis(left, target), eval_basis(right, target))


def eval_universal(x: LinComb, target: AlgebraTarget):
    """Linear extension of the generator assignment respecting both operations."""
    return sum((c * eval_basis(key, target) for key, c in x.items()), target.zero)


# ---------------------------------------------------------------------------
# Binary-tree model: root-gluing product and its one-sided partner.


@dataclass(frozen=True)
class LDiptBasis:
    """Basis element: a binary tree of degree >= 1 with one letter per internal node."""

    tree: BinaryTree
    word: tuple[int, ...]

    def __post_init__(self):
        if self.tree.degree < 1:
            raise ValueError("the bare leaf is not a basis element")
        if len(self.word) != self.tree.degree:
            raise ValueError("word length must equal the internal degree")

    @property
    def degree(self) -> int:
        return self.tree.degree

    def __str__(self) -> str:
        return f"{self.tree} @ {word_str(self.word)}"

    def split(self) -> tuple[str, LDiptBasis, LDiptBasis]:
        """(op, left, right) with op's product of the halves equal to self.

        A tree over a right leaf is its left subtree succ its root letter;
        any other tree is its root over a right leaf, nwarrow its right
        subtree.
        """
        t, p = self.tree, self.tree.left.degree
        if t.right.is_leaf:
            return (OP_SUCC, LDiptBasis(t.left, self.word[:p]), ldipt_generator(self.word[p]))
        head = LDiptBasis(BinaryTree(t.left, BLEAF), self.word[: p + 1])
        return (OP_STAR, head, LDiptBasis(t.right, self.word[p + 1 :]))


def ldipt_generator(i: int = 0) -> LDiptBasis:
    return LDiptBasis(Y1, (i,))


def ldipt_nwarrow_basis(a: LDiptBasis, b: LDiptBasis) -> LDiptBasis:
    return LDiptBasis(bin_nwarrow(a.tree, b.tree), a.word + b.word)


def ldipt_succ_basis(a: LDiptBasis, b: LDiptBasis) -> LDiptBasis:
    s = b.tree
    tree = BinaryTree(bin_nwarrow(a.tree, s.left), s.right)
    return LDiptBasis(tree, a.word + b.word)


ldipt_nwarrow = bilinear(ldipt_nwarrow_basis)
ldipt_succ = bilinear(ldipt_succ_basis)


@cache
def ldipt_basis_of_degree(n: int) -> tuple[LDiptBasis, ...]:
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(sorted((LDiptBasis(t, (0,) * n) for t in enumerate_binary(n)), key=str))


def ldipt_reflect_tree(t: BinaryTree) -> BinaryTree:
    if t.is_leaf:
        return t
    return BinaryTree(ldipt_reflect_tree(t.right), ldipt_reflect_tree(t.left))


def rldipt_nearrow_basis(a: LDiptBasis, b: LDiptBasis) -> LDiptBasis:
    """Right-handed mirror built on leftmost-leaf gluing."""
    return LDiptBasis(bin_nearrow(a.tree, b.tree), a.word + b.word)


# ---------------------------------------------------------------------------
# Permutative/NAP pairs on labeled rooted trees.


@dataclass(frozen=True)
class PermNapBasis:
    """A head tree paired with a multiset tail (empty tail = unit factor)."""

    head: NapTree
    tail: tuple[NapTree, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(sorted(self.tail, key=str)))

    @property
    def degree(self) -> int:
        return self.head.degree + sum(t.degree for t in self.tail)

    def __str__(self) -> str:
        tail = ",".join(str(t) for t in self.tail) if self.tail else "1"
        return f"{self.head} @ {tail}"


def perm_nap_star_basis(a: PermNapBasis, b: PermNapBasis) -> PermNapBasis:
    return PermNapBasis(a.head, a.tail + (b.head,) + b.tail)


def perm_nap_prec_basis(a: PermNapBasis, b: PermNapBasis) -> PermNapBasis:
    head = reduce(nap_graft, a.tail + (b.head,) + b.tail, a.head)
    return PermNapBasis(head)


perm_nap_star = bilinear(perm_nap_star_basis)
perm_nap_prec = bilinear(perm_nap_prec_basis)


# ---------------------------------------------------------------------------
# Dimension tables.


@dataclass(frozen=True)
class DimTable:
    dims: tuple[int, ...]
    reference: tuple[int, ...]

    @property
    def match(self) -> bool:
        return self.dims == self.reference


def dim_table(max_n: int) -> dict[str, DimTable]:
    """Dimensions per degree by direct enumeration, with series references.

    Keys: 'dipt' (forests / large Schroeder), 'mag' (trees / little
    Schroeder), 'ldipt' (binary trees / Catalan).
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    dipt = tuple(len(enumerate_forests(n)) for n in range(1, max_n + 1))
    mag = tuple(len(enumerate_trees(n)) for n in range(1, max_n + 1))
    ldipt = tuple(len(enumerate_binary(n)) for n in range(1, max_n + 1))
    return {
        "dipt": DimTable(dipt, tuple(large_schroeder(max_n))),
        "mag": DimTable(mag, tuple(little_schroeder(max_n))),
        "ldipt": DimTable(ldipt, tuple(catalan_series(max_n + 1)[1:])),
    }

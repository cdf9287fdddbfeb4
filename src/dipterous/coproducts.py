"""The semi-infinitesimal coproduct on the free two-product algebra.

The coproduct is defined recursively: it vanishes on generators, and on a
product it satisfies

    delta(x <> y) = x1 (x) (x2 <> y)  +  (x * y1) (x) y2  +  t * (x (x) y)

for both operations <>, where the middle product is always the associative
one and Sweedler sums are implied. The deformation weight t defaults to 1.
Evaluation always runs through the canonical basis splitting; independence
from the splitting (and coassociativity) are verified by the test suite
rather than assumed.

On top of the coproduct: iterated coproducts and the kernel filtration,
primitive-space bases, the bracket operations whose iterates realize the
planar-tree (corolla) basis of the primitives, the projection idempotent
onto primitives, and the section/corestriction pair onto the tensor
coalgebra of words, which yields the dimension bookkeeping

    forests_n = sum over compositions of products of primitive dims.

The coproduct and the idempotent are cached per (basis key, t) and per
basis key under ``functools.cache``, so every caller passes t positionally
to share one entry; ``cache_info``/``cache_clear`` report and free them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterator, Sequence

from .linalg import (
    LinComb,
    kernel_of_operator,
    linear_terms,
    map_slot,
    operator_rank,
    tensor_product,
)
from .freealg import (
    DiptBasis,
    apply_op,
    apply_op_basis,
    decompose_basis,
    dipt_basis_of_degree,
    gen_elem,
    star,
    star_basis,
    succ,
)
from .series import composition_sum
from .trees import LEAF, Forest, PlanarTree, corolla, enumerate_trees


@dataclass(frozen=True)
class CoproductParams:
    """Deformation weight of the x (x) y summand; the main case is t = 1."""

    t: Fraction = Fraction(1)


DEFAULT = CoproductParams()


@cache
def delta_basis(x: DiptBasis, t: Fraction = Fraction(1)) -> LinComb:
    if x.degree == 1:
        return LinComb()
    op, left, right = decompose_basis(x)
    return LinComb(
        chain(
            (((a, apply_op_basis(op, b, right)), c) for (a, b), c in delta_basis(left, t).items()),
            (((star_basis(left, a), b), c) for (a, b), c in delta_basis(right, t).items()),
            [((left, right), t)],
        )
    )


def delta(x: LinComb, params: CoproductParams = DEFAULT) -> LinComb:
    return LinComb(linear_terms(lambda key: delta_basis(key, params.t), x))


def semi_inf_rhs(op: str, x: LinComb, y: LinComb, params: CoproductParams = DEFAULT) -> LinComb:
    """Right side of the defining relation, computed from delta(x) and delta(y).

    Used to check that the recursive coproduct is compatible with both
    operations on arbitrary (not just canonical) products.
    """
    acc = []
    for (a, b), c in delta(x, params).items():
        for k, d in apply_op(op, LinComb.basis(b), y).items():
            acc.append(((a, k), c * d))
    for (a, b), c in delta(y, params).items():
        for k, d in star(x, LinComb.basis(a)).items():
            acc.append(((k, b), c * d))
    if params.t:
        for kx, cx in x.items():
            for ky, cy in y.items():
                acc.append(((kx, ky), params.t * cx * cy))
    return LinComb(acc)


def delta_iter(x: LinComb, n: int, params: CoproductParams = DEFAULT) -> LinComb:
    """Left-iterated coproduct of arity n + 1."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    out = delta(x, params)
    for _ in range(n - 1):
        out = map_slot(out, 0, lambda k: delta_basis(k, params.t))
    return out


def _delta_iter_images(r: int, basis: list[DiptBasis], params: CoproductParams) -> Iterator[LinComb]:
    """Images of the r-fold iterated coproduct on an ordered basis."""
    return (delta_iter(LinComb.basis(b), r, params) for b in basis)


def filtration_dim(r: int, n: int, params: CoproductParams = DEFAULT) -> int:
    """Dimension of the r-th filtration step within degree n."""
    if r < 1 or n < 1:
        raise ValueError("filtration level and degree must be >= 1")
    basis = dipt_basis_of_degree(n)
    if r >= n:
        return len(basis)
    return len(basis) - operator_rank(_delta_iter_images(r, basis, params))


def prim_basis(n: int, params: CoproductParams = DEFAULT) -> list[LinComb]:
    """Echelon basis of the coproduct kernel on the degree-n component."""
    basis = dipt_basis_of_degree(n)
    return kernel_of_operator(basis, _delta_iter_images(1, basis, params))


def triangle(x: LinComb, y: LinComb) -> LinComb:
    """succ minus star; on primitives this is the binary bracket."""
    return succ(x, y) - star(x, y)


def bracket(xs: Sequence[LinComb]) -> LinComb:
    """Nested bracket: x1 tri (x2 succ (x3 succ ... (x_{n-1} succ x_n)))."""
    if len(xs) < 2:
        raise ValueError("brackets need at least 2 arguments")
    inner = xs[-1]
    for x in reversed(xs[1:-1]):
        inner = succ(x, inner)
    return triangle(xs[0], inner)


def mag_tree_to_primitive(t: PlanarTree, gen: int = 0) -> LinComb:
    """Interpret a planar tree as an iterated bracket of generators."""
    if t.is_leaf:
        return gen_elem(gen)
    return bracket([mag_tree_to_primitive(c, gen) for c in t.children])


def mag_bracket_rank(n: int) -> int:
    """Rank of the bracket images of all degree-n planar trees."""
    return operator_rank(mag_tree_to_primitive(t) for t in enumerate_trees(n))


def corolla_iso_check(n: int) -> bool:
    """The n-bracket of n generators is corolla-led.

    Its single-tree component must be exactly the n-corolla with
    coefficient 1; every other term must be a multi-tree forest.
    """
    if n < 2:
        raise ValueError("corollas need arity >= 2")
    img = bracket([gen_elem()] * n)
    corolla_key = DiptBasis(Forest((corolla(n),)), (0,) * n)
    for key, c in img.items():
        if len(key.forest.trees) == 1:
            if key != corolla_key or c != 1:
                return False
    return img.coeff(corolla_key) == 1


def e_idempotent(x: LinComb) -> LinComb:
    """Projection onto primitives: e(x) = x - x1 * e(x2), recursively."""
    return LinComb(linear_terms(_e_basis, x))


@cache
def _e_basis(x: DiptBasis) -> LinComb:
    acc = [(x, 1)]
    for (a, b), c in delta_basis(x, DEFAULT.t).items():
        acc.extend((star_basis(a, k), -c * d) for k, d in _e_basis(b).items())
    return LinComb(acc)


def asc_deconcat(word: tuple[int, ...]) -> LinComb:
    """Deconcatenation sum of a word; zero on single letters."""
    if len(word) < 1:
        raise ValueError("words are nonempty")
    return LinComb({(word[:k], word[k:]): 1 for k in range(1, len(word))})


def s_section(word: tuple[int, ...]) -> LinComb:
    """The all-leaf forest tagged with the word; a coalgebra section."""
    n = len(word)
    if n < 1:
        raise ValueError("words are nonempty")
    return LinComb.basis(DiptBasis(Forest((LEAF,) * n), tuple(word)))


def phi_corestrict(x: LinComb) -> LinComb:
    """Corestriction onto words: project iterated coproducts to generators.

    For a homogeneous element of degree n only the n-fold generator tuples
    survive, so the image of a degree-n element is a combination of
    length-n words. Satisfies phi(s_section(w)) = w.
    """
    acc = []
    for key, c in x.items():
        n = key.degree
        if n == 1:
            acc.append(((key.word[0],), c))
            continue
        for tup, d in delta_iter(LinComb.basis(key), n - 1).items():
            if all(k.degree == 1 for k in tup):
                acc.append((tuple(k.word[0] for k in tup), c * d))
    return LinComb(acc)


def phi_tensor(te: LinComb) -> LinComb:
    """Apply the corestriction to both slots of an arity-2 tensor."""
    def phi_pair(key):
        a, b = key
        return tensor_product(phi_corestrict(LinComb.basis(a)), phi_corestrict(LinComb.basis(b)))

    return LinComb(linear_terms(phi_pair, te))


@dataclass(frozen=True)
class PbwReport:
    forest_dims: tuple[int, ...]
    prim_dims: tuple[int, ...]
    composed: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.forest_dims == self.composed


def pbw_dim_check(max_n: int, params: CoproductParams = DEFAULT) -> PbwReport:
    """Forest dims must equal composition sums of computed primitive dims."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    prim = [filtration_dim(1, n, params) for n in range(1, max_n + 1)]
    forests = [len(dipt_basis_of_degree(n)) for n in range(1, max_n + 1)]
    composed = [composition_sum(prim, n) for n in range(1, max_n + 1)]
    return PbwReport(tuple(forests), tuple(prim), tuple(composed))

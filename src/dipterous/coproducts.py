"""The semi-infinitesimal coproduct on the free two-product algebra.

The coproduct is defined recursively: it vanishes on generators, and on a
product it satisfies

    delta_t(x <> y) = x1 (x) (x2 <> y)  +  (x * y1) (x) y2  +  t * (x (x) y)

for both operations <>, where the middle product is always the associative
one and Sweedler sums are implied. Evaluation always runs through the
canonical basis splitting; independence from the splitting (and
coassociativity) are verified by the test suite rather than assumed.

On top of the coproduct: iterated coproducts and the kernel filtration,
primitive-space bases, the bracket operations whose iterates realize the
planar-tree (corolla) basis of the primitives, the projection idempotent
onto primitives, and the section/corestriction pair onto the tensor
coalgebra of words, which yields the dimension bookkeeping

    forests_n = sum over compositions of products of primitive dims.

delta_t = t * delta_1: both vanish on generators, and by induction on degree
each summand on the right above carries exactly one factor t. So only
delta_1 is computed, cached per basis key like the idempotent, except in
the top degree of one ``filtration_dims`` call: no lower degree reads those
images, so they are built by one uncached step over the cached halves and
freed once ranked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from .linalg import (
    LinComb,
    kernel_of_operator,
    linear,
    map_slot,
    operator_rank,
    tensor_product,
)
from .freealg import (
    OP_STAR,
    DiptBasis,
    dipt_basis_of_degree,
    gen_elem,
    star,
    star_basis,
    succ,
    succ_basis,
)
from .series import composition_sum
from .trees import LEAF, Forest, PlanarTree, corolla, enumerate_trees


def _delta_step(x: DiptBasis) -> LinComb:
    """delta_1 of a basis key from the cached images of its two halves."""
    if x.degree == 1:
        return LinComb()
    op, left, right = x.split()
    op_basis = star_basis if op == OP_STAR else succ_basis
    out: dict = {}
    for (a, b), c in delta_basis(left).items():
        k = (a, op_basis(b, right))
        out[k] = out.get(k, 0) + c
    for (a, b), c in delta_basis(right).items():
        k = (star_basis(left, a), b)
        out[k] = out.get(k, 0) + c
    out[left, right] = out.get((left, right), 0) + 1
    return LinComb(out)


delta_basis = cache(_delta_step)

delta = linear(lambda key: delta_basis(key))


def semi_inf_rhs(product, x: LinComb, y: LinComb) -> LinComb:
    """Right side of the defining relation for ``product`` (``star`` or
    ``succ``), computed from delta(x) and delta(y).

    Used to check that the recursive coproduct is compatible with both
    operations on arbitrary (not just canonical) products.
    """
    acc = []
    for (a, b), c in delta(x).items():
        for k, d in product(LinComb.basis(b), y).items():
            acc.append(((a, k), c * d))
    for (a, b), c in delta(y).items():
        for k, d in star(x, LinComb.basis(a)).items():
            acc.append(((k, b), c * d))
    acc.extend(tensor_product(x, y).items())
    return LinComb(acc)


def iterate(cop_basis, x: LinComb, n: int) -> LinComb:
    """n-fold left iterate, of arity n + 1, of a coproduct given on basis keys."""
    out = linear(cop_basis)(x)
    for _ in range(n - 1):
        out = map_slot(out, 0, cop_basis)
    return out


def delta_iter(x: LinComb, n: int) -> LinComb:
    """Left-iterated coproduct of arity n + 1."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    return iterate(delta_basis, x, n)


def filtration_dims(r: int, max_n: int, t: Fraction = Fraction(1)) -> list[int]:
    """Dimensions of the r-th filtration step of delta_t within degrees
    1..max_n. The iterates of delta_t = t * delta_1 lose no rank unless
    t = 0.

    For r = 1 the degrees are ranked in increasing order, so the cached
    images of degrees below max_n are in place when degree max_n's images
    are built by ``_delta_step``; those never enter the cache.
    """
    if r < 1 or max_n < 1:
        raise ValueError("filtration level and degree must be >= 1")
    dims = []
    for n in range(1, max_n + 1):
        basis = dipt_basis_of_degree(n)
        if r >= n or t == 0:
            dims.append(len(basis))
            continue
        if r == 1:
            images = map(_delta_step if n == max_n else delta_basis, basis)
        else:
            images = (delta_iter(LinComb.basis(b), r) for b in basis)
        dims.append(len(basis) - operator_rank(images))
    return dims


def prim_basis(n: int) -> list[LinComb]:
    """Echelon basis of the coproduct kernel on the degree-n component."""
    basis = dipt_basis_of_degree(n)
    return kernel_of_operator(basis, map(delta_basis, basis))


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


def mag_tree_to_primitive(t: PlanarTree) -> LinComb:
    """Interpret a planar tree as an iterated bracket of the generator."""
    if t.is_leaf:
        return gen_elem()
    return bracket([mag_tree_to_primitive(c) for c in t.children])


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
    return linear(_e_basis)(x)


@cache
def _e_basis(x: DiptBasis) -> LinComb:
    acc = [(x, 1)]
    for (a, b), c in delta_basis(x).items():
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


def corestrict(cop_basis, x: LinComb, word=tuple) -> LinComb:
    """Project iterated coproducts onto all-generator tuples, whose letters
    ``word`` turns into the output key. A generator is its own 1-tuple.
    """
    acc = []
    for key, c in x.items():
        n = key.degree
        tuples = iterate(cop_basis, LinComb.basis(key), n - 1) if n > 1 else LinComb.basis((key,))
        for tup, d in tuples.items():
            if all(k.degree == 1 for k in tup):
                acc.append((word(k.word[0] for k in tup), c * d))
    return LinComb(acc)


def phi_corestrict(x: LinComb) -> LinComb:
    """Corestriction onto words: project iterated coproducts to generators.

    The image of a degree-n element is a combination of length-n words.
    Satisfies phi(s_section(w)) = w.
    """
    return corestrict(delta_basis, x)


def phi_tensor(te: LinComb) -> LinComb:
    """Apply the corestriction to both slots of an arity-2 tensor."""
    def phi_pair(key):
        a, b = key
        return tensor_product(phi_corestrict(LinComb.basis(a)), phi_corestrict(LinComb.basis(b)))

    return linear(phi_pair)(te)


class PbwReport(NamedTuple):
    forest_dims: tuple[int, ...]
    prim_dims: tuple[int, ...]
    composed: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.forest_dims == self.composed


def pbw_dim_check(max_n: int) -> PbwReport:
    """Forest dims must equal composition sums of computed primitive dims."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    prim = filtration_dims(1, max_n)
    forests = [len(dipt_basis_of_degree(n)) for n in range(1, max_n + 1)]
    composed = [composition_sum(prim, n) for n in range(1, max_n + 1)]
    return PbwReport(tuple(forests), tuple(prim), tuple(composed))

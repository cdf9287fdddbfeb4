"""The semi-infinitesimal coproduct on the free two-product algebra.

The coproduct is defined recursively: it vanishes on generators, and on a
product it satisfies

    delta_t(x <> y) = x1 (x) (x2 <> y)  +  (x * y1) (x) y2  +  t * (x (x) y)

for both operations <>, where the middle product is always the associative
one and Sweedler sums are implied. ``delta_step`` is the one statement of
this relation: the recursion applies it to the canonical basis splitting,
and the compatibility check to every factorization of a product of basis
keys, so independence from the splitting (and coassociativity) are
verified rather than assumed.

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
images, so each is built by one uncached ``delta_step`` from a split pair
of ``freealg.split_pairs``, over the cached images of its halves, and freed
once read. That degree's keys, forests and trees are never built.

The primitive dimensions need no elimination. Delta_1 is unitriangular on
the star keys, the forests T1 * R of two or more trees: T1 (x) R has
coefficient 1 in delta_1(T1 * R), and every other term with a single-tree
left factor comes from delta_1(T1), so its tree is smaller. Once the row of
every single-tree key reduces to 0 against the star rows, dim Prim_n is the
number of planar trees, in exact integer arithmetic: a leading-term
(Groebner-type) argument, as in Dotsenko-Khoroshkin, "Groebner bases for
operads" (Duke Math. J. 153, 2010).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from .linalg import (
    LinComb,
    as_scalar,
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
    split_pairs,
    star,
    star_basis,
    succ,
    succ_basis,
)
from .series import composition_sum
from .trees import LEAF, Forest, PlanarTree, corolla


def delta_step(op: str, left: DiptBasis, right: DiptBasis) -> LinComb:
    """delta_1 of the key ``op(left, right)`` by the defining relation, from
    the cached images of its two halves; the key itself is not built."""
    op_basis = star_basis if op == OP_STAR else succ_basis
    out: dict = {}
    for (a, b), c in delta_basis(left).items():
        k = (a, op_basis(b, right))
        out[k] = out.get(k, 0) + c
    for (a, b), c in delta_basis(right).items():
        k = (star_basis(left, a), b)
        out[k] = out.get(k, 0) + c
    out[left, right] = out.get((left, right), 0) + 1
    # Every coefficient of delta_1 is a positive int, a sum of 1s, so no sum
    # cancels, and the dict is a LinComb's terms without a normalising pass.
    image = LinComb.__new__(LinComb)
    image.terms = out
    return image


@cache
def delta_basis(x: DiptBasis) -> LinComb:
    """delta_1 of a basis key: zero on a generator, else one step on its split."""
    if x.degree == 1:
        return LinComb()
    return delta_step(*x.split())


delta = linear(lambda key: delta_basis(key))


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


class CertificateFailure(Exception):
    """A failed certificate: ``dims`` of the degrees below it, and the witness."""

    def __init__(self, dims: list[int], witness: str):
        super().__init__(witness)
        self.dims, self.witness = dims, witness


def filtration_dims(r: int, max_n: int, t: Fraction = Fraction(1)) -> list[int]:
    """Dimensions of the r-th filtration step of delta_t within degrees
    1..max_n. The iterates of delta_t = t * delta_1 lose no rank unless
    t = 0, when every key counts.

    For r = 1 and t != 0 each degree n >= 2 is certified by ``_certificate``,
    in increasing order, so the cached images below max_n are in place for
    max_n. That degree is read from ``split_pairs`` (``_delta_rows``): its
    images never enter the cache, and its keys are never built. For r > 1
    each degree is ranked.
    """
    if r < 1 or max_n < 1:
        raise ValueError("filtration level and degree must be >= 1")
    dims = []
    for n in range(1, max_n + 1):
        if r == 1 and n >= 2 and t != 0:
            dim, witness = _certificate(_delta_rows(n, top=n == max_n))
            if witness:
                raise CertificateFailure(dims, f"degree {n}: {witness}")
        elif r == 1 and n == max_n >= 2:
            dim = sum(1 for _ in split_pairs(n))
        else:
            basis = dipt_basis_of_degree(n)
            images = (delta_iter(LinComb.basis(b), r) for b in basis)
            dim = len(basis) - (0 if r >= n or t == 0 else operator_rank(images))
        dims.append(dim)
    return dims


def _delta_rows(n: int, top: bool):
    """``(is_star, key, delta_1 image)`` per degree-n key, star keys first;
    the top degree's uncached images are keyed by their split pairs."""
    if top:
        return ((op == OP_STAR, (op, a, b), delta_step(op, a, b)) for op, a, b in split_pairs(n))
    keys = sorted(dipt_basis_of_degree(n), key=lambda b: len(b.forest) == 1)
    return ((len(b.forest) >= 2, b, delta_basis(b)) for b in keys)


def _certificate(rows) -> tuple[int, str | None]:
    """(number of succ keys, None) if delta_1 on one degree has the star
    keys' count as its rank, else (count so far, witness).

    Each star row needs a leading term: its one single-tree-left term of
    largest left degree, nonzero, leading no other star row. Then the star
    rows are independent, since in a nonzero combination a leading term of
    largest left degree occurs in its own row only. Each succ row must
    reduce to exactly 0 against them, so the rank is the star rows' count.
    Unit leading coefficients keep every step in ``int``; a stored zero can
    fail the certificate but never pass it.
    """
    pivots: dict = {}
    succ = 0
    for is_star, key, image in rows:
        row = image.terms
        if not is_star:
            residual = _residual(row, pivots)
            if residual:
                return succ, f"succ key {_key_text(key)} leaves the residual {LinComb(residual)!r}"
            succ += 1
            continue
        lead = _leading_term(row)
        if lead is None or not row[lead]:
            return succ, f"star key {_key_text(key)} has no leading term: {image!r}"
        if lead in pivots:
            return succ, f"star key {_key_text(key)} repeats the leading term {lead}: {image!r}"
        pivots[lead] = row
    return succ, None


def _leading_term(row) -> tuple | None:
    """The term of ``row`` with a single-tree left factor of largest degree,
    or None if there is none or a tie."""
    top, lead = 0, None
    for k in row:
        left = k[0]
        if len(left.forest.trees) == 1:
            d = left.degree
            if d > top:
                top, lead = d, k
            elif d == top:
                lead = None
    return lead


def _residual(row, pivots: dict) -> dict:
    """``row`` reduced by the star rows led by its terms, largest left degree
    first; a star row adds leading terms of smaller left degree only."""
    res = dict(row)
    heads: dict[int, list] = {}
    for k in res:
        if k in pivots:
            heads.setdefault(k[0].degree, []).append(k)
    while heads:
        for k in heads.pop(max(heads)):
            c = res.get(k)
            if not c:
                continue
            prow = pivots[k]
            f = c if prow[k] == 1 else as_scalar(Fraction(c) / prow[k])
            # k itself cancels, as f * prow[k] == c.
            for j, v in prow.items():
                acc = res.get(j, 0) - f * v
                if acc:
                    if j not in res and j in pivots:
                        heads.setdefault(j[0].degree, []).append(j)
                    res[j] = acc
                else:
                    res.pop(j, None)
    return res


def _key_text(key) -> str:
    """A key's text; a split ``(op, left, right)`` is multiplied out first."""
    if isinstance(key, tuple):
        op, left, right = key
        key = (star_basis if op == OP_STAR else succ_basis)(left, right)
    return str(key)


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
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.forest_dims == self.composed


def pbw_dim_check(max_n: int) -> PbwReport:
    """Forest dims must equal composition sums of computed primitive dims.

    A failed certificate leaves the primitive dims of the degrees below it,
    their composition sums, and its witness."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    try:
        prim, witness = filtration_dims(1, max_n), None
    except CertificateFailure as exc:
        prim, witness = exc.dims, exc.witness
    forests = [len(dipt_basis_of_degree(n)) for n in range(1, max_n + 1)]
    composed = [composition_sum(prim, n) for n in range(1, len(prim) + 1)]
    return PbwReport(tuple(forests), tuple(prim), tuple(composed), witness)

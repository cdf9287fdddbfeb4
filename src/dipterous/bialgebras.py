"""Unital structure, the two tensor-product structures, both coproducts on
the unit-extended free algebra, antipodes, and the cocommutative coproduct.

The unit acts by 1 * x = x = x * 1, 1 > x = x, x > 1 = 0, with 1 > 1 left
undefined. Elements of the unit extension and of its tensor square are
plain LinCombs: the key ``UNIT`` carries the scalar part, and a tensor has
pairs of keys from basis and unit as its keys. Two structures live on the
tensor square:

* the "semi" structure, where > acts through the associative product on
  the left slots unless both right slots are the unit, and
* the classical slotwise structure, where each slot multiplies on its own;
  the doubly-unital case of > resolves to (a > a') (x) 1 (equivalently,
  the slot rule 1 > 1 := 1), which is the unique choice under which the
  cocommutative coproduct below extends to an algebra morphism.

Both structures share the same *, which multiplies slot by slot; they
differ only in >.

Three coproducts live on the unit extension. The multiplicative one and
the cocommutative one are algebra morphisms, so each is ``eval_basis``
into its tensor square (semi and classical structure respectively) with
generator image 1 (x) g + g (x) 1. The unital semi-infinitesimal one (whose
reduction coincides with the nonunital coproduct in ``coproducts``) is not
a morphism and has its own recursion over the canonical basis splitting.
Each coproduct has an antipode-style convolution inverse computed by degree
recursion. Both recursions are cached per argument tuple under
``functools.cache``; the antipode's key includes the coproduct it inverts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from itertools import chain, permutations

from .linalg import (
    LinComb,
    Scalar,
    bilinear,
    kernel_of_operator,
    linear,
    operator_rank,
)
from .coproducts import corestrict
from .freealg import (
    OP_STAR,
    AlgebraTarget,
    DiptBasis,
    decompose_basis,
    dipt_basis_of_degree,
    eval_basis,
    generator,
    star_basis,
    succ_basis,
)
from .series import large_schroeder, symmetric_inverse_dims
from .trees import LEAF, Forest

UNIT = "1"


def _u_star(k1, k2):
    if k1 == UNIT:
        return k2
    if k2 == UNIT:
        return k1
    return star_basis(k1, k2)


def _u_succ(k1, k2, doubly_unital=None):
    """Slot-level >: returns the key, None when annihilated, or the supplied
    resolution for the 1 > 1 case (raising when there is none)."""
    if k1 == UNIT and k2 == UNIT:
        if doubly_unital is None:
            raise ValueError("1 > 1 undefined")
        return doubly_unital
    if k1 == UNIT:
        return k2
    if k2 == UNIT:
        return None
    return succ_basis(k1, k2)


unital_star = bilinear(_u_star)
unital_succ = bilinear(_u_succ)


def counit(x: LinComb) -> Scalar:
    return x.coeff(UNIT)


def semi_pair_star(p, q):
    return (_u_star(p[0], q[0]), _u_star(p[1], q[1]))


def semi_pair_succ(p, q):
    if p[1] == UNIT and q[1] == UNIT:
        res = _u_succ(p[0], q[0])
        return None if res is None else (res, UNIT)
    right = _u_succ(p[1], q[1])
    return None if right is None else (_u_star(p[0], q[0]), right)


def classical_pair_succ(p, q):
    left = _u_succ(p[0], q[0], doubly_unital=UNIT)
    if left is None:
        return None
    right = _u_succ(p[1], q[1], doubly_unital=UNIT)
    return None if right is None else (left, right)


semi_tensor_star = bilinear(semi_pair_star)
semi_tensor_succ = bilinear(semi_pair_succ)
classical_tensor_succ = bilinear(classical_pair_succ)


def _pair(k1, k2) -> LinComb:
    return LinComb.basis((k1, k2))


def _square(tensor_star, tensor_succ) -> AlgebraTarget:
    """Tensor square sending each generator g to 1 (x) g + g (x) 1.

    Generator indices range over 0..25, as in ``freealg.gen_name``.
    """
    gens = {i: _pair(UNIT, generator(i)) + _pair(generator(i), UNIT) for i in range(26)}
    return AlgebraTarget(tensor_star, tensor_succ, gens, LinComb())


SEMI_SQUARE = _square(semi_tensor_star, semi_tensor_succ)
CLASSICAL_SQUARE = _square(semi_tensor_star, classical_tensor_succ)


def blacktriangle_basis(x: DiptBasis) -> LinComb:
    """Multiplicative coproduct: the morphism into the semi tensor square."""
    return eval_basis(x, SEMI_SQUARE)


@cache
def vartriangle_basis(x: DiptBasis) -> LinComb:
    """Unital semi-infinitesimal coproduct."""
    if x.degree == 1:
        return _pair(UNIT, x) + _pair(x, UNIT)
    op, left, right = decompose_basis(x)
    tensor_op = semi_tensor_star if op == OP_STAR else semi_tensor_succ
    return (
        tensor_op(vartriangle_basis(left), _pair(UNIT, right))
        + tensor_op(_pair(left, UNIT), vartriangle_basis(right))
        - _pair(left, right)
    )


def hopf_delta_basis(x: DiptBasis) -> LinComb:
    """Cocommutative coproduct: the morphism into the classical tensor square."""
    return eval_basis(x, CLASSICAL_SQUARE)


def _lift(cop_basis):
    """Linear extension of a coproduct on basis keys, with 1 |-> 1 (x) 1."""
    return linear(lambda k: _pair(UNIT, UNIT) if k == UNIT else cop_basis(k))


blacktriangle = _lift(blacktriangle_basis)
vartriangle = _lift(vartriangle_basis)
hopf_delta = _lift(hopf_delta_basis)


def reduced(cop, x: LinComb) -> LinComb:
    """Strip the two unit terms of a coproduct of a body-only element."""
    if x.coeff(UNIT):
        raise ValueError("reduced coproducts need a zero scalar part")
    unit_terms = [((UNIT, key), c) for key, c in x.items()]
    unit_terms += [((key, UNIT), c) for key, c in x.items()]
    out = cop(x) - LinComb(unit_terms)
    for (k1, k2) in out.terms:
        if k1 == UNIT or k2 == UNIT:
            raise ValueError("reduction left a unit term behind")
    return out


def reduced_basis(cop_basis, key: DiptBasis) -> LinComb:
    return cop_basis(key) - _pair(UNIT, key) - _pair(key, UNIT)


def tau(te: LinComb) -> LinComb:
    """Flip the two tensor slots."""
    return LinComb(((b, a), c) for (a, b), c in te.items())


def prim_2as(n: int) -> tuple[int, list[LinComb]]:
    """Joint kernel of both reduced coproducts on the degree-n component.

    It is the kernel of the direct sum of the two reduced coproducts, whose
    image of b carries each coproduct's terms under its own tag.
    """
    basis = dipt_basis_of_degree(n)
    images = (
        LinComb(
            ((tag, key), c)
            for tag, cop_basis in enumerate((vartriangle_basis, blacktriangle_basis))
            for key, c in reduced_basis(cop_basis, b).items()
        )
        for b in basis
    )
    vecs = kernel_of_operator(basis, images)
    return len(vecs), vecs


# ---------------------------------------------------------------------------
# Antipodes.


@cache
def _antipode_basis(key: DiptBasis, cop_basis) -> LinComb:
    terms = (
        (star_basis(k, b), -c * d)
        for (a, b), c in reduced_basis(cop_basis, key).items()
        for k, d in _antipode_basis(a, cop_basis).items()
    )
    return LinComb(chain([(key, -1)], terms))


def _antipode_image(key, cop_basis) -> LinComb:
    """The antipode of one key for ``cop_basis``; the unit is fixed."""
    return LinComb.basis(UNIT) if key == UNIT else _antipode_basis(key, cop_basis)


# Each antipode is one linear extension, built once. Its key map reads the
# coproduct by global name at call time, so a coproduct rebound after import
# (perfbench's tracer wraps both) is the one used.

#: Convolution inverse of the identity for the multiplicative coproduct.
antipode_S = linear(lambda key: _antipode_image(key, blacktriangle_basis))

#: Convolution inverse for the semi-infinitesimal coproduct.
antipode_Sprime = linear(lambda key: _antipode_image(key, vartriangle_basis))


def convolve(f, cop, x: LinComb, side: str = "left") -> LinComb:
    """star(f (x) id) cop (x), or star(id (x) f) for side='right'."""
    left = side == "left"
    return LinComb(
        (_u_star(k, b) if left else _u_star(a, k), c * d)
        for (a, b), c in cop(x).items()
        for k, d in f(LinComb.basis(a if left else b)).items()
    )


def antipode_identity_holds(x: LinComb, which: str = "S") -> bool:
    """Both convolution identities against the matching coproduct."""
    f, cop = (antipode_S, blacktriangle) if which == "S" else (antipode_Sprime, vartriangle)
    expected = LinComb.basis(UNIT, counit(x))
    return (
        convolve(f, cop, x, "left") == expected
        and convolve(f, cop, x, "right") == expected
    )


def _unital_text(x: LinComb) -> str:
    """Report text ``scalar + body`` of a unit-extension element."""
    body = LinComb((k, c) for k, c in x.items() if k != UNIT)
    return f"{counit(x)} + {body!r}"


def antipode_table(degree: int) -> dict:
    """Both antipodes on every degree-n basis element, serialized."""
    out = {}
    for b in dipt_basis_of_degree(degree):
        x = LinComb.basis(b)
        out[str(b)] = {
            "S": _unital_text(antipode_S(x)),
            "Sprime": _unital_text(antipode_Sprime(x)),
        }
    return out


# ---------------------------------------------------------------------------
# Cocommutative pair: symmetrization section and corestriction.


def com_symmetrize(word: tuple[int, ...]) -> LinComb:
    """Average of the associative words over all orderings of the letters."""
    m = len(word)
    if m < 1:
        raise ValueError("words are nonempty")
    coeff = Fraction(1, factorial(m))
    forest = Forest((LEAF,) * m)
    return LinComb((DiptBasis(forest, perm), coeff) for perm in permutations(word))


def com_corestrict(x: LinComb) -> LinComb:
    """Corestriction onto symmetric words (sorted letter multisets)."""
    words = corestrict(lambda k: reduced_basis(hopf_delta_basis, k), x, lambda ls: tuple(sorted(ls)))
    return LinComb((w, c * Fraction(1, factorial(len(w)))) for w, c in words.items())


def primcom_dims(max_n: int) -> tuple[list[int], list[int]]:
    """Kernel dims of the reduced cocommutative coproduct vs the series oracle.

    The oracle inverts the forest-counting series through symmetric powers;
    agreement certifies the primitive dimensions degree by degree.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    dims = []
    for n in range(1, max_n + 1):
        basis = dipt_basis_of_degree(n)
        images = (reduced_basis(hopf_delta_basis, b) for b in basis)
        dims.append(len(basis) - operator_rank(images))
    oracle = symmetric_inverse_dims(large_schroeder(max_n), max_n)
    return dims, oracle

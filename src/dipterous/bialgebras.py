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
recursion, which also fixes the unit. Both recursions are cached per
argument tuple under ``functools.cache``; the antipode's key includes the
coproduct it inverts.

The slot product ``_u_star`` is one more cache: it holds the product of each
pair of unit-extension keys it has seen. The antipode recursion, the tensor
products behind both coproducts and ``convolutions`` all multiply keys
through it, so a pair's product is built once per process. ``_u_succ`` has
no table of its own: it handles the unit and multiplies two basis keys
through the cached ``freealg.succ_basis``. ``convolutions`` walks a
coproduct once and adds both sides of the convolution with f, each into
its own dict, reading f from an ``ImageMap``; a check builds one map from
the antipode bound in this module at the time, so each image it reads is
computed once, and drops the map when it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from itertools import permutations

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
    dipt_basis_of_degree,
    eval_basis,
    generator,
    star_basis,
    succ_basis,
)
from .series import large_schroeder, symmetric_inverse_dims
from .trees import LEAF, Forest

UNIT = "1"


@cache
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

    Generator indices range over 0..25, as in ``freealg.word_str``.
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
    op, left, right = x.split()
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


def reduced_basis(cop_basis, key: DiptBasis) -> LinComb:
    """The coproduct of a basis key less its two unit terms 1 (x) key and
    key (x) 1; any other unit term stays in the result."""
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
def _antipode_basis(key, cop_basis) -> LinComb:
    """The antipode of one unit-extension key for ``cop_basis``: 1 on the
    unit, else -key - sum S(a) * b over the reduced coproduct, whose unit
    terms 1 (x) key and key (x) 1 lose one each, added up in one dict."""
    if key == UNIT:
        return LinComb.basis(UNIT)
    units = ((UNIT, key), (key, UNIT))
    out: dict = {key: -1}
    for (a, b), c in cop_basis(key).items():
        c -= (a, b) in units
        if c:
            for k, d in _antipode_basis(a, cop_basis).items():
                p = _u_star(k, b)
                out[p] = out.get(p, 0) - c * d
    return LinComb(out)


# Each antipode is one linear extension, built once. Its key map reads the
# coproduct by global name at call time, so a coproduct rebound after import
# (perfbench's tracer wraps both) is the one used.

#: Convolution inverse of the identity for the multiplicative coproduct.
antipode_S = linear(lambda key: _antipode_basis(key, blacktriangle_basis))

#: Convolution inverse for the semi-infinitesimal coproduct.
antipode_Sprime = linear(lambda key: _antipode_basis(key, vartriangle_basis))


def antipode_and_coproduct(which: str):
    """The antipode "S" or "Sprime" as bound in this module now, and the
    lifted coproduct it inverts."""
    if which not in ("S", "Sprime"):
        raise ValueError(f"which must be 'S' or 'Sprime', got {which!r}")
    return (antipode_S, blacktriangle) if which == "S" else (antipode_Sprime, vartriangle)


class ImageMap(dict):
    """key -> f(LinComb.basis(key)), each image computed on its first lookup."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key) -> LinComb:
        image = self[key] = self.f(LinComb.basis(key))
        return image


def convolutions(images: ImageMap, cop, x: LinComb) -> tuple[LinComb, LinComb]:
    """star(f (x) id) cop(x) and star(id (x) f) cop(x), from one walk of
    cop(x), where ``images`` maps each slot key k to f(k)."""
    left: dict = {}
    right: dict = {}
    for (a, b), c in cop(x).items():
        for k, d in images[a].items():
            p = _u_star(k, b)
            left[p] = left.get(p, 0) + c * d
        for k, d in images[b].items():
            p = _u_star(a, k)
            right[p] = right.get(p, 0) + c * d
    return LinComb(left), LinComb(right)


def antipode_table(degree: int) -> dict:
    """Both antipodes on every degree-n basis element, as report text
    ``scalar + body``. The scalar is 0: every product adds degrees, so the
    antipode of a key of positive degree has no unit term."""
    return {
        str(b): {
            "S": f"0 + {antipode_S(LinComb.basis(b))!r}",
            "Sprime": f"0 + {antipode_Sprime(LinComb.basis(b))!r}",
        }
        for b in dipt_basis_of_degree(degree)
    }


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

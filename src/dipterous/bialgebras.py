"""Unital structure, the two tensor-product structures, both coproducts on
the unit-extended free algebra, antipodes, and the cocommutative coproduct.

The unit acts by 1 * x = x = x * 1, 1 > x = x, x > 1 = 0, with 1 > 1 left
undefined. Two structures live on the tensor square:

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
a morphism and has its own memoized recursion over the canonical basis
splitting. Each coproduct has an antipode-style convolution inverse
computed by degree recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from itertools import chain, permutations

from .linalg import (
    ZERO,
    LinComb,
    TensorElement,
    as_fraction,
    bilinear,
    kernel_of_operator,
    linear_terms,
    operator_rank,
)
from .freealg import (
    AlgebraTarget,
    DiptBasis,
    decompose_basis,
    dipt_basis_of_degree,
    eval_basis,
    generator,
    star,
    star_basis,
    succ,
    succ_basis,
)
from .series import large_schroeder, symmetric_inverse_dims
from .trees import LEAF, Forest

UNIT = "1"


@dataclass(frozen=True)
class UnitalElement:
    """scalar * 1 + body, the general element of the unit extension."""

    scalar: Fraction
    body: LinComb

    @classmethod
    def unit(cls, c=1) -> "UnitalElement":
        return cls(as_fraction(c), LinComb())

    @classmethod
    def of(cls, body: LinComb) -> "UnitalElement":
        return cls(Fraction(0), body)

    def __add__(self, other: "UnitalElement") -> "UnitalElement":
        return UnitalElement(self.scalar + other.scalar, self.body + other.body)

    def __sub__(self, other: "UnitalElement") -> "UnitalElement":
        return self + (-1) * other

    def __rmul__(self, c) -> "UnitalElement":
        c = as_fraction(c)
        return UnitalElement(c * self.scalar, c * self.body)

    @classmethod
    def from_terms(cls, terms) -> "UnitalElement":
        """Accumulate (key, coeff) pairs; the UNIT key carries the scalar."""
        body = LinComb(terms)
        return cls(body.terms.pop(UNIT, ZERO), body)

    def items(self):
        """Terms as (key, coeff) pairs, the scalar on the UNIT key."""
        yield UNIT, self.scalar
        yield from self.body.items()

    def is_zero(self) -> bool:
        return not self.scalar and self.body.is_zero()

    def __str__(self) -> str:
        return f"{self.scalar} + {self.body!r}"


def unital_star(a: UnitalElement, b: UnitalElement) -> UnitalElement:
    body = (
        a.scalar * b.body
        + b.scalar * a.body
        + star(a.body, b.body)
    )
    return UnitalElement(a.scalar * b.scalar, body)


def unital_succ(a: UnitalElement, b: UnitalElement) -> UnitalElement:
    if a.scalar and b.scalar:
        raise ValueError("1 > 1 undefined")
    return UnitalElement(Fraction(0), a.scalar * b.body + succ(a.body, b.body))


def counit(x: UnitalElement) -> Fraction:
    return x.scalar


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


def _tensor_op(pair_op):
    """Bilinear extension of a slot-pair product to arity-2 tensors."""
    op = bilinear(pair_op)
    return lambda p, q: TensorElement(2, op(p, q))


semi_tensor_star = _tensor_op(semi_pair_star)
semi_tensor_succ = _tensor_op(semi_pair_succ)
classical_tensor_star = semi_tensor_star
classical_tensor_succ = _tensor_op(classical_pair_succ)


def _pair(k1, k2) -> TensorElement:
    return TensorElement(2, {(k1, k2): 1})


def _square(tensor_star, tensor_succ) -> AlgebraTarget:
    """Tensor square sending each generator g to 1 (x) g + g (x) 1.

    Generator indices range over 0..25, as in ``freealg.gen_name``.
    """
    gens = {i: _pair(UNIT, generator(i)) + _pair(generator(i), UNIT) for i in range(26)}
    return AlgebraTarget(tensor_star, tensor_succ, gens, TensorElement.zero(2))


SEMI_SQUARE = _square(semi_tensor_star, semi_tensor_succ)
CLASSICAL_SQUARE = _square(classical_tensor_star, classical_tensor_succ)

_VAR: dict[DiptBasis, TensorElement] = {}


def blacktriangle_basis(x: DiptBasis) -> TensorElement:
    """Multiplicative coproduct: the morphism into the semi tensor square."""
    return eval_basis(x, SEMI_SQUARE)


def vartriangle_basis(x: DiptBasis) -> TensorElement:
    """Unital semi-infinitesimal coproduct."""
    cached = _VAR.get(x)
    if cached is None:
        if x.degree == 1:
            cached = _pair(UNIT, x) + _pair(x, UNIT)
        else:
            op, left, right = decompose_basis(x)
            tensor_op = semi_tensor_star if op == "star" else semi_tensor_succ
            cached = (
                tensor_op(vartriangle_basis(left), _pair(UNIT, right))
                + tensor_op(_pair(left, UNIT), vartriangle_basis(right))
                - _pair(left, right)
            )
        _VAR[x] = cached
    return cached


def hopf_delta_basis(x: DiptBasis) -> TensorElement:
    """Cocommutative coproduct: the morphism into the classical tensor square."""
    return eval_basis(x, CLASSICAL_SQUARE)


def _lift(cop_basis):
    def apply(x: UnitalElement) -> TensorElement:
        unit_term = ((UNIT, UNIT), x.scalar)
        return TensorElement(2, chain([unit_term], linear_terms(cop_basis, x.body)))

    return apply


blacktriangle = _lift(blacktriangle_basis)
vartriangle = _lift(vartriangle_basis)
hopf_delta = _lift(hopf_delta_basis)


def reduced(cop, x) -> TensorElement:
    """Strip the two unit terms of a coproduct of a body-only element."""
    if isinstance(x, UnitalElement):
        if x.scalar:
            raise ValueError("reduced coproducts need a zero scalar part")
        body = x.body
    else:
        body = x
    unit_terms = [((UNIT, key), c) for key, c in body.items()]
    unit_terms += [((key, UNIT), c) for key, c in body.items()]
    out = cop(UnitalElement.of(body)) - TensorElement(2, unit_terms)
    for (k1, k2) in out.terms.terms:
        if k1 == UNIT or k2 == UNIT:
            raise ValueError("reduction left a unit term behind")
    return out


def reduced_basis(cop_basis, key: DiptBasis) -> TensorElement:
    out = cop_basis(key) - _pair(UNIT, key) - _pair(key, UNIT)
    return out


def tau(te: TensorElement) -> TensorElement:
    """Flip the two tensor slots."""
    return TensorElement(2, (((b, a), c) for (a, b), c in te.items()))


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

_S: dict[DiptBasis, LinComb] = {}
_SPRIME: dict[DiptBasis, LinComb] = {}


def _antipode_basis(key: DiptBasis, cop_basis, memo) -> LinComb:
    cached = memo.get(key)
    if cached is None:
        terms = (
            (star_basis(k, b), -c * d)
            for (a, b), c in reduced_basis(cop_basis, key).items()
            for k, d in _antipode_basis(a, cop_basis, memo).items()
        )
        cached = memo[key] = LinComb(chain([(key, -1)], terms))
    return cached


def antipode_S(x: UnitalElement) -> UnitalElement:
    """Convolution inverse of the identity for the multiplicative coproduct."""
    body = LinComb(linear_terms(lambda key: _antipode_basis(key, blacktriangle_basis, _S), x.body))
    return UnitalElement(x.scalar, body)


def antipode_Sprime(x: UnitalElement) -> UnitalElement:
    """Convolution inverse for the semi-infinitesimal coproduct."""
    body = LinComb(linear_terms(lambda key: _antipode_basis(key, vartriangle_basis, _SPRIME), x.body))
    return UnitalElement(x.scalar, body)


def _to_unital(key) -> UnitalElement:
    if key == UNIT:
        return UnitalElement.unit()
    return UnitalElement.of(LinComb.basis(key))


def convolve(f, cop, x: UnitalElement, side: str = "left") -> UnitalElement:
    """star(f (x) id) cop (x), or star(id (x) f) for side='right'."""

    def term(pair) -> UnitalElement:
        a, b = pair
        if side == "left":
            return unital_star(f(_to_unital(a)), _to_unital(b))
        return unital_star(_to_unital(a), f(_to_unital(b)))

    return UnitalElement.from_terms(linear_terms(term, cop(x)))


def antipode_identity_holds(x: UnitalElement, which: str = "S") -> bool:
    """Both convolution identities against the matching coproduct."""
    f, cop = (antipode_S, blacktriangle) if which == "S" else (antipode_Sprime, vartriangle)
    expected = UnitalElement.unit(counit(x))
    return (
        convolve(f, cop, x, "left") == expected
        and convolve(f, cop, x, "right") == expected
    )


def antipode_table(degree: int) -> dict:
    """Both antipodes on every degree-n basis element, serialized."""
    out = {}
    for b in dipt_basis_of_degree(degree):
        x = UnitalElement.of(LinComb.basis(b))
        out[str(b)] = {
            "S": str(antipode_S(x)),
            "Sprime": str(antipode_Sprime(x)),
        }
    return out


# ---------------------------------------------------------------------------
# Cocommutative pair: symmetrization section and corestriction.


def com_symmetrize(word: tuple[int, ...]) -> UnitalElement:
    """Average of the associative words over all orderings of the letters."""
    m = len(word)
    if m < 1:
        raise ValueError("words are nonempty")
    coeff = Fraction(1, factorial(m))
    forest = Forest((LEAF,) * m)
    return UnitalElement.of(LinComb((DiptBasis(forest, perm), coeff) for perm in permutations(word)))


def hopf_reduced_iter(x: LinComb, n: int) -> TensorElement:
    """n-fold iterate of the reduced cocommutative coproduct on a body element."""
    out = reduced(hopf_delta, x)
    for _ in range(n - 1):
        out = out.map_slot(0, lambda k: reduced_basis(hopf_delta_basis, k), 2)
    return out


def com_corestrict(x: LinComb) -> LinComb:
    """Corestriction onto symmetric words (sorted letter multisets)."""
    acc = []
    for key, c in x.items():
        m = key.degree
        if m == 1:
            acc.append(((key.word[0],), c))
            continue
        coeff = Fraction(1, factorial(m))
        for tup, d in hopf_reduced_iter(LinComb.basis(key), m - 1).items():
            if all(k.degree == 1 for k in tup):
                acc.append((tuple(sorted(k.word[0] for k in tup)), c * d * coeff))
    return LinComb(acc)


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
        images = (reduced_basis(hopf_delta_basis, b).terms for b in basis)
        dims.append(len(basis) - operator_rank(images))
    oracle = symmetric_inverse_dims(large_schroeder(max_n), max_n)
    return dims, oracle

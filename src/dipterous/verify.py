"""Property suites shared by the command line and the test suite.

Each check returns a ``Check`` whose witness is the first counterexample
found, as text; a check holds exactly when it has no witness. Suites are
exhaustive over basis elements within their degree caps: the axiom caps are
a column of ``AXIOM_FAMILIES``, the others are arguments or stated in the
docstrings. The caps keep every suite within seconds while covering every
case the identities could first fail in.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .linalg import LinComb, map_slot
from .bialgebras import (
    UNIT,
    ImageMap,
    antipode_and_coproduct,
    blacktriangle_basis,
    hopf_delta_basis,
    prim_2as,
    reduced_basis,
    semi_tensor_star,
    semi_tensor_succ,
    classical_tensor_succ,
    convolutions,
    tau,
    unital_star,
    unital_succ,
    vartriangle_basis,
)
from .coproducts import (
    delta,
    delta_basis,
    delta_step,
    pbw_dim_check,
)
from .freealg import (
    OP_STAR,
    OP_SUCC,
    PermNapBasis,
    dipt_basis_of_degree,
    ldipt_basis_of_degree,
    ldipt_nwarrow,
    ldipt_succ,
    perm_nap_prec,
    perm_nap_star,
    rdipt_prec,
    reflect,
    star,
    star_basis,
    succ,
    succ_basis,
)
from .homology import qn_basis_of_degree, qn_star, qn_succ
from .series import little_schroeder
from .trees import _compositions, _nap_multisets, enumerate_nap, nap_graft

# Degree cap of the coassociativity and bialgebra suites; callers clamp
# their degree to it.
SUITE_DEGREE_CAP = 4


class Check(NamedTuple):
    name: str
    witness: str | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None


def _as_elems(basis_of_degree):
    """Per degree n, the degree-n basis of ``basis_of_degree`` as LinCombs."""
    return lambda n: [LinComb.basis(b) for b in basis_of_degree(n)]


def _first_failure(tuples, lhs_rhs) -> str | None:
    """The first tuple on which the two sides differ, as text, or None."""
    for xs in tuples:
        lhs, rhs = lhs_rhs(*xs)
        if lhs != rhs:
            return " ; ".join(str(x) for x in xs)
    return None


def _first_basis_failure(max_degree: int, lhs_rhs) -> str | None:
    """The first basis element up to max_degree, in degree order, on which
    the two sides differ, as text, or None."""
    return _first_failure(_degree_tuples(dipt_basis_of_degree, 1, max_degree), lhs_rhs)


def _degree_tuples(make, arity: int, max_total: int):
    """All ``arity``-tuples of elements of positive degrees summing to at
    most max_total, ordered by their degree tuples, then as ``make`` lists
    each degree."""
    for ds in sorted(c for n in range(arity, max_total + 1) for c in _compositions(n, arity)):
        yield from itertools.product(*map(make, ds))


def _perm_nap_elements(n: int) -> list[LinComb]:
    """All degree-n pair basis elements, as LinCombs."""
    return [
        LinComb.basis(PermNapBasis(head, tail))
        for h in range(1, n + 1)
        for head in enumerate_nap(h)
        for tail in _nap_multisets(n - h)
    ]


# One row per exhaustive scan: (name prefix, the elements of degree n,
# arity, total-degree cap, laws as (name, sides)). Each law holds when its
# two sides agree on every tuple of elements whose degrees sum to at most
# the cap. The sides look the products up by global name when called, so
# a test that replaces one in this module reaches them.
AXIOM_FAMILIES = (
    ("dipterous: ", _as_elems(dipt_basis_of_degree), 3, 6, (
        ("star associativity", lambda x, y, z: (star(star(x, y), z), star(x, star(y, z)))),
        ("(x*y)>z = x>(y>z)", lambda x, y, z: (succ(star(x, y), z), succ(x, succ(y, z)))),
    )),
    ("right-dipterous: ", _as_elems(dipt_basis_of_degree), 3, 4, (
        ("(x<y)<z = x<(y*z)",
         lambda x, y, z: (rdipt_prec(rdipt_prec(x, y), z), rdipt_prec(x, star(y, z)))),
    )),
    # The mirror oracle: < must be the reflection conjugate of >.
    ("right-dipterous: ", _as_elems(dipt_basis_of_degree), 2, 4, (
        ("< is the reflection conjugate of >",
         lambda x, y: (rdipt_prec(x, y), reflect(succ(reflect(y), reflect(x))))),
    )),
    ("L-dipterous: ", _as_elems(ldipt_basis_of_degree), 3, 5, (
        ("nw associativity",
         lambda x, y, z: (ldipt_nwarrow(ldipt_nwarrow(x, y), z), ldipt_nwarrow(x, ldipt_nwarrow(y, z)))),
        ("(x nw y)>z = x>(y>z)",
         lambda x, y, z: (ldipt_succ(ldipt_nwarrow(x, y), z), ldipt_succ(x, ldipt_succ(y, z)))),
        ("(x>y) nw z = x>(y nw z)",
         lambda x, y, z: (ldipt_nwarrow(ldipt_succ(x, y), z), ldipt_succ(x, ldipt_nwarrow(y, z)))),
    )),
    ("QN: ", _as_elems(qn_basis_of_degree), 3, 5, (
        ("(x>y)*z = 0", lambda x, y, z: (qn_star(qn_succ(x, y), z), LinComb())),
        ("x>(y*z) = 0", lambda x, y, z: (qn_succ(x, qn_star(y, z)), LinComb())),
        ("x*(y>z) = 0", lambda x, y, z: (qn_star(x, qn_succ(y, z)), LinComb())),
        ("(x>y)>z = 0", lambda x, y, z: (qn_succ(qn_succ(x, y), z), LinComb())),
    )),
    ("NAP: ", enumerate_nap, 3, 6, (
        ("(x<|y)<|z = (x<|z)<|y",
         lambda x, y, z: (nap_graft(nap_graft(x, y), z), nap_graft(nap_graft(x, z), y))),
    )),
    ("Perm(NAP): ", _perm_nap_elements, 3, 5, (
        ("pair star associativity",
         lambda x, y, z: (perm_nap_star(perm_nap_star(x, y), z), perm_nap_star(x, perm_nap_star(y, z)))),
        ("pair star permutativity",
         lambda x, y, z: (perm_nap_star(perm_nap_star(x, y), z), perm_nap_star(perm_nap_star(x, z), y))),
        ("(x<y)<z = x<(y*z) on pairs",
         lambda x, y, z: (perm_nap_prec(perm_nap_prec(x, y), z), perm_nap_prec(x, perm_nap_star(y, z)))),
        ("pair < NAP identity",
         lambda x, y, z: (perm_nap_prec(perm_nap_prec(x, y), z), perm_nap_prec(perm_nap_prec(x, z), y))),
    )),
)


def axioms_suite() -> list[Check]:
    """Every law of ``AXIOM_FAMILIES``, each over its row's tuples."""
    checks = []
    for prefix, make, arity, max_total, laws in AXIOM_FAMILIES:
        tuples = list(_degree_tuples(make, arity, max_total))
        checks += [Check(prefix + name, _first_failure(tuples, sides)) for name, sides in laws]
    return checks


# ---------------------------------------------------------------------------
# Coassociativity and compatibility.


def _coassoc_sides(te: LinComb, cop_basis) -> tuple[LinComb, LinComb]:
    """(cop (x) id)(te) and (id (x) cop)(te)."""
    return map_slot(te, 0, cop_basis), map_slot(te, 1, cop_basis)


def delta_coassoc_witness(max_degree: int, t: Fraction) -> str | None:
    cop = lambda k: t * delta_basis(k)
    w = _first_basis_failure(max_degree, lambda b: _coassoc_sides(t * delta(LinComb.basis(b)), cop))
    return w and f"t={t}: {w}"


def delta_nondegenerate_witness(ts) -> str | None:
    """Delta_t must not vanish on all of degree 2 for each t; at t = 0 it
    does, so the coassociativity check there holds vacuously."""
    for t in ts:
        if not any(t * delta_basis(b) for b in dipt_basis_of_degree(2)):
            return f"t={t}: delta vanishes on degree 2"
    return None


def unital_coassoc_witness(cop_basis, max_degree: int) -> str | None:
    expand = lambda k: LinComb.basis((UNIT, UNIT)) if k == UNIT else cop_basis(k)
    return _first_basis_failure(max_degree, lambda b: _coassoc_sides(cop_basis(b), expand))


def cocommutative_witness(max_degree: int) -> str | None:
    def sides(b):
        te = hopf_delta_basis(b)
        return tau(te), te

    return _first_basis_failure(max_degree, sides)


def _product_failure(max_total: int, sides) -> str | None:
    """The first ``op ; a ; b`` on which the two sides differ, as text, or
    None, over basis pairs of total degree <= max_total in degree order,
    star before succ. ``sides(op, ab, a, b)`` gets the product key ``ab``,
    built by the product looked up by global name when called."""
    def keyed_sides(op, a, b):
        ab = (star_basis if op == OP_STAR else succ_basis)(a, b)
        return sides(op, ab, a, b)

    pairs = _degree_tuples(dipt_basis_of_degree, 2, max_total)
    return _first_failure(((op, a, b) for a, b in pairs for op in (OP_STAR, OP_SUCC)), keyed_sides)


def delta_compatibility_witness() -> str | None:
    """delta(a <> b) matches ``delta_step``, the defining relation, at every
    factorization a <> b of a basis key of degree <= 5, not only at the
    canonical split that the recursion follows; both sides being bilinear,
    it then holds on all pairs of that total degree."""
    return _product_failure(5, lambda op, ab, a, b: (delta_basis(ab), delta_step(op, a, b)))


def morphism_witness(cop_basis, tensor_star, tensor_succ) -> str | None:
    """cop(x <> y) = cop(x) <>_tensor cop(y) on all basis pairs of total
    degree <= 4."""
    def sides(op, ab, a, b):
        tensor_op = tensor_star if op == OP_STAR else tensor_succ
        return cop_basis(ab), tensor_op(cop_basis(a), cop_basis(b))

    return _product_failure(4, sides)


def coassoc_suite(max_degree: int = 4) -> list[Check]:
    unital = (
        ("semi-Hopf", blacktriangle_basis),
        ("semi-infinitesimal", vartriangle_basis),
        ("cocommutative", hopf_delta_basis),
    )
    return [
        *(
            Check(f"delta coassociative (t={t})", delta_coassoc_witness(max_degree, t))
            for t in (Fraction(0), Fraction(1), Fraction(2))
        ),
        Check(
            "delta nonzero on degree 2 (t=1, t=2)",
            delta_nondegenerate_witness((Fraction(1), Fraction(2))),
        ),
        *(
            Check(f"{name} coproduct coassociative", unital_coassoc_witness(cop, max_degree))
            for name, cop in unital
        ),
        Check("cocommutative coproduct flip-invariant", cocommutative_witness(max_degree)),
        Check("delta compatible with both products", delta_compatibility_witness()),
        Check(
            "semi-Hopf coproduct is a product morphism",
            morphism_witness(blacktriangle_basis, semi_tensor_star, semi_tensor_succ),
        ),
        Check(
            "cocommutative coproduct is a product morphism",
            morphism_witness(hopf_delta_basis, semi_tensor_star, classical_tensor_succ),
        ),
    ]


# ---------------------------------------------------------------------------
# Bialgebra suite.


def unit_law_witness(max_degree: int = 4) -> str | None:
    one = LinComb.basis(UNIT)
    for n in range(1, max_degree + 1):
        for b in dipt_basis_of_degree(n):
            x = LinComb.basis(b)
            if unital_star(one, x) != x or unital_star(x, one) != x:
                return f"star unit law: {b}"
            if unital_succ(one, x) != x:
                return f"left > unit law: {b}"
            if not unital_succ(x, one).is_zero():
                return f"right > annihilation: {b}"
    try:
        unital_succ(one, one)
        return "1 > 1 accepted"
    except ValueError:
        return None


def reduction_agreement_witness(max_degree: int = 5) -> str | None:
    """The reduced semi-infinitesimal coproduct equals delta on every basis
    element up to max_degree; a unit term left after the reduction is a
    mismatch like any other."""
    return _first_basis_failure(
        max_degree, lambda b: (reduced_basis(vartriangle_basis, b), delta_basis(b))
    )


def antipode_witness(max_degree: int = 4) -> str | None:
    # Both convolutions of an antipode with id give counit(x) * 1: the unit
    # on the unit, and 0 on every key of positive degree.
    one, zero = LinComb.basis(UNIT), LinComb()
    for which in ("S", "Sprime"):
        # One image map per check, over the antipode bound now.
        f, cop = antipode_and_coproduct(which)
        images = ImageMap(f)
        if convolutions(images, cop, one) != (one, one):
            return f"{which} on the unit"
        w = _first_basis_failure(
            max_degree, lambda b: (convolutions(images, cop, LinComb.basis(b)), (zero, zero))
        )
        if w:
            return f"{which}: {w}"
    return None


def bialgebra_suite(max_degree: int = 4) -> list[Check]:
    checks = [
        Check("unit laws", unit_law_witness(max_degree)),
        Check(
            "reduced semi-infinitesimal coproduct = delta",
            reduction_agreement_witness(max_degree),
        ),
    ]
    dims = []
    joint_witness = None
    for n in range(1, max_degree + 1):
        dim, vecs = prim_2as(n)
        dims.append(dim)
        expected = 1 if n == 1 else 0
        if dim != expected and joint_witness is None:
            joint_witness = f"degree {n}: dim {dim} != {expected}; kernel element {vecs[0]!r}"
    return checks + [
        Check(
            "joint primitives reduce to the generators",
            joint_witness,
            detail=f"computed dims {tuple(dims)}",
        ),
        Check("antipode identities two-sided", antipode_witness(max_degree)),
    ]


def pbw_suite(max_n: int = 6) -> list[Check]:
    report = pbw_dim_check(max_n)
    prim_dims = list(report.prim_dims)
    expected = little_schroeder(max_n)
    return [
        Check(
            "primitive dims are the tree counts",
            report.witness
            or (None if prim_dims == expected else f"computed {prim_dims}, expected {expected}"),
        ),
        Check(
            "forest dims = composition sums of primitive dims",
            None if report.ok else f"{report.forest_dims} vs {report.composed}",
        ),
    ]

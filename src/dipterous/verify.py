"""Property suites shared by the command line and the test suite.

Each check returns a ``Check`` with a pass flag and, on failure, the first
counterexample found. Suites are exhaustive over basis elements within
their stated degree caps; the caps keep every suite within seconds while
covering every case the identities could first fail in.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .linalg import LinComb, map_slot
from .bialgebras import (
    UNIT,
    antipode_identity_holds,
    blacktriangle_basis,
    hopf_delta_basis,
    prim_2as,
    reduced,
    semi_tensor_star,
    semi_tensor_succ,
    classical_tensor_star,
    classical_tensor_succ,
    tau,
    unital_star,
    unital_succ,
    vartriangle,
    vartriangle_basis,
)
from .coproducts import (
    CoproductParams,
    delta,
    delta_basis,
    filtration_dim,
    pbw_dim_check,
    semi_inf_rhs,
)
from .freealg import (
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
    succ,
)
from .homology import qn_basis_of_degree, qn_star, qn_succ
from .series import little_schroeder
from .trees import _nap_multisets, enumerate_nap, nap_graft

# Degree caps of the coassociativity and bialgebra suites, and of the
# tree-count check in ``pbw_suite``; callers clamp their degree to them.
SUITE_DEGREE_CAP = 4
TREE_COUNT_DEGREE_CAP = 5


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: str | None = None
    detail: str | None = None


def _elems(degrees, num_gens=1):
    out = []
    for n in degrees:
        out.extend(LinComb.basis(b) for b in dipt_basis_of_degree(n, num_gens))
    return out


def _first_failure(triples, lhs_rhs) -> str | None:
    for xs in triples:
        lhs, rhs = lhs_rhs(*xs)
        if lhs != rhs:
            return " ; ".join(repr(x) for x in xs)
    return None


def _degree_triples(make, max_total: int):
    """All basis triples with total degree <= max_total."""
    for na in range(1, max_total - 1):
        for nb in range(1, max_total - na):
            for nc in range(1, max_total - na - nb + 1):
                for a in make(na):
                    for b in make(nb):
                        for c in make(nc):
                            yield a, b, c


def check_dipterous_axioms(max_total: int = 6) -> list[Check]:
    make = lambda n: _elems([n])
    triples = list(_degree_triples(make, max_total))
    w1 = _first_failure(
        triples, lambda x, y, z: (star(star(x, y), z), star(x, star(y, z)))
    )
    w2 = _first_failure(
        triples, lambda x, y, z: (succ(star(x, y), z), succ(x, succ(y, z)))
    )
    return [
        Check("star associativity", w1 is None, w1),
        Check("(x*y)>z = x>(y>z)", w2 is None, w2),
    ]


def check_right_dipterous_axioms(max_total: int = 4) -> list[Check]:
    make = lambda n: _elems([n])
    triples = list(_degree_triples(make, max_total))
    w1 = _first_failure(
        triples,
        lambda x, y, z: (rdipt_prec(rdipt_prec(x, y), z), rdipt_prec(x, star(y, z))),
    )
    # mirror oracle: < must be the reflection conjugate of >
    w2 = None
    for na in range(1, max_total):
        for nb in range(1, max_total - na + 1):
            for a in dipt_basis_of_degree(na):
                for b in dipt_basis_of_degree(nb):
                    lhs = rdipt_prec(LinComb.basis(a), LinComb.basis(b))
                    rhs = reflect(
                        succ(reflect(LinComb.basis(b)), reflect(LinComb.basis(a)))
                    )
                    if lhs != rhs:
                        w2 = f"{a} ; {b}"
                        break
    return [
        Check("(x<y)<z = x<(y*z)", w1 is None, w1),
        Check("< is the reflection conjugate of >", w2 is None, w2),
    ]


def check_ldipterous_axioms(max_total: int = 5) -> list[Check]:
    make = lambda n: [LinComb.basis(b) for b in ldipt_basis_of_degree(n)]
    triples = list(_degree_triples(make, max_total))
    w1 = _first_failure(
        triples,
        lambda x, y, z: (
            ldipt_nwarrow(ldipt_nwarrow(x, y), z),
            ldipt_nwarrow(x, ldipt_nwarrow(y, z)),
        ),
    )
    w2 = _first_failure(
        triples,
        lambda x, y, z: (
            ldipt_succ(ldipt_nwarrow(x, y), z),
            ldipt_succ(x, ldipt_succ(y, z)),
        ),
    )
    w3 = _first_failure(
        triples,
        lambda x, y, z: (
            ldipt_nwarrow(ldipt_succ(x, y), z),
            ldipt_succ(x, ldipt_nwarrow(y, z)),
        ),
    )
    return [
        Check("nw associativity", w1 is None, w1),
        Check("(x nw y)>z = x>(y>z)", w2 is None, w2),
        Check("(x>y) nw z = x>(y nw z)", w3 is None, w3),
    ]


def check_qn_axioms(max_total: int = 5) -> list[Check]:
    make = lambda n: [LinComb.basis(b) for b in qn_basis_of_degree(n)]
    triples = list(_degree_triples(make, max_total))
    zero = LinComb()
    checks = []
    for name, fn in [
        ("(x>y)*z = 0", lambda x, y, z: (qn_star(qn_succ(x, y), z), zero)),
        ("x>(y*z) = 0", lambda x, y, z: (qn_succ(x, qn_star(y, z)), zero)),
        ("x*(y>z) = 0", lambda x, y, z: (qn_star(x, qn_succ(y, z)), zero)),
        ("(x>y)>z = 0", lambda x, y, z: (qn_succ(qn_succ(x, y), z), zero)),
    ]:
        w = _first_failure(triples, fn)
        checks.append(Check(name, w is None, w))
    return checks


def check_nap_axiom(max_total: int = 6, labels=("v",)) -> list[Check]:
    witness = None
    for na in range(1, max_total - 1):
        for nb in range(1, max_total - na):
            for nc in range(1, max_total - na - nb + 1):
                for x in enumerate_nap(na, labels):
                    for y in enumerate_nap(nb, labels):
                        for z in enumerate_nap(nc, labels):
                            if nap_graft(nap_graft(x, y), z) != nap_graft(
                                nap_graft(x, z), y
                            ):
                                witness = f"{x} ; {y} ; {z}"
    return [Check("(x<|y)<|z = (x<|z)<|y", witness is None, witness)]


def _perm_nap_elements(max_total: int, labels=("v",)):
    out = []
    for n in range(1, max_total + 1):
        for h in range(1, n + 1):
            for head in enumerate_nap(h, labels):
                for tail in _nap_multisets(n - h, labels):
                    out.append(LinComb.basis(PermNapBasis(head, tail)))
    return out


def check_perm_nap_axioms(max_total: int = 5) -> list[Check]:
    elems = _perm_nap_elements(max_total - 2)
    triples = [
        (x, y, z)
        for x, y, z in itertools.product(elems, repeat=3)
        if sum(next(iter(e.terms)).degree for e in (x, y, z)) <= max_total
    ]
    w1 = _first_failure(
        triples,
        lambda x, y, z: (
            perm_nap_star(perm_nap_star(x, y), z),
            perm_nap_star(x, perm_nap_star(y, z)),
        ),
    )
    w2 = _first_failure(
        triples,
        lambda x, y, z: (
            perm_nap_star(perm_nap_star(x, y), z),
            perm_nap_star(perm_nap_star(x, z), y),
        ),
    )
    w3 = _first_failure(
        triples,
        lambda x, y, z: (
            perm_nap_prec(perm_nap_prec(x, y), z),
            perm_nap_prec(x, perm_nap_star(y, z)),
        ),
    )
    w4 = _first_failure(
        triples,
        lambda x, y, z: (
            perm_nap_prec(perm_nap_prec(x, y), z),
            perm_nap_prec(perm_nap_prec(x, z), y),
        ),
    )
    return [
        Check("pair star associativity", w1 is None, w1),
        Check("pair star permutativity", w2 is None, w2),
        Check("(x<y)<z = x<(y*z) on pairs", w3 is None, w3),
        Check("pair < NAP identity", w4 is None, w4),
    ]


def _prefixed(prefix: str, checks: list[Check]) -> list[Check]:
    return [replace(c, name=prefix + c.name) for c in checks]


def axioms_suite(caps: dict | None = None) -> list[Check]:
    caps = caps or {}
    out = []
    out += _prefixed("dipterous: ", check_dipterous_axioms(caps.get("dipt", 6)))
    out += _prefixed("right-dipterous: ", check_right_dipterous_axioms(caps.get("rdipt", 4)))
    out += _prefixed("L-dipterous: ", check_ldipterous_axioms(caps.get("ldipt", 5)))
    out += _prefixed("QN: ", check_qn_axioms(caps.get("qn", 5)))
    out += _prefixed("NAP: ", check_nap_axiom(caps.get("nap", 6)))
    out += _prefixed("Perm(NAP): ", check_perm_nap_axioms(caps.get("permnap", 5)))
    return out


# ---------------------------------------------------------------------------
# Coassociativity and compatibility.


def delta_coassoc_witness(max_degree: int, t: Fraction) -> str | None:
    params = CoproductParams(t)
    for n in range(1, max_degree + 1):
        for b in dipt_basis_of_degree(n):
            te = delta(LinComb.basis(b), params)
            left = map_slot(te, 0, lambda k: delta_basis(k, t))
            right = map_slot(te, 1, lambda k: delta_basis(k, t))
            if left != right:
                return f"t={t}: {b}"
    return None


def delta_nondegenerate_witness(ts) -> str | None:
    """Delta_t must not vanish on all of degree 2 for each t; at t = 0 it
    does, so the coassociativity check there holds vacuously."""
    for t in ts:
        if not any(delta_basis(b, t) for b in dipt_basis_of_degree(2)):
            return f"t={t}: delta vanishes on degree 2"
    return None


def unital_coassoc_witness(cop_basis, max_degree: int) -> str | None:
    def expand(k):
        if k == UNIT:
            return LinComb.basis((UNIT, UNIT))
        return cop_basis(k)

    for n in range(1, max_degree + 1):
        for b in dipt_basis_of_degree(n):
            te = cop_basis(b)
            if map_slot(te, 0, expand) != map_slot(te, 1, expand):
                return str(b)
    return None


def cocommutative_witness(max_degree: int) -> str | None:
    for n in range(1, max_degree + 1):
        for b in dipt_basis_of_degree(n):
            te = hopf_delta_basis(b)
            if tau(te) != te:
                return str(b)
    return None


def delta_compatibility_witness(max_total: int, samples: int, seed: int) -> str | None:
    """Random homogeneous pairs: delta(x <> y) must match the defining relation."""
    rng = random.Random(seed)
    for _ in range(samples):
        na = rng.randint(1, max_total - 1)
        nb = rng.randint(1, max_total - na)
        x = _random_element(rng, na)
        y = _random_element(rng, nb)
        for op, elem_op in (("star", star), ("succ", succ)):
            lhs = delta(elem_op(x, y))
            if lhs != semi_inf_rhs(op, x, y):
                return f"{op}: {x!r} ; {y!r}"
    return None


def morphism_witness(cop_basis, tensor_star, tensor_succ, max_total: int) -> str | None:
    """cop(x <> y) = cop(x) <>_tensor cop(y) on all basis pairs."""
    from .freealg import star_basis, succ_basis

    for na in range(1, max_total):
        for nb in range(1, max_total - na + 1):
            for a in dipt_basis_of_degree(na):
                for b in dipt_basis_of_degree(nb):
                    if cop_basis(star_basis(a, b)) != tensor_star(cop_basis(a), cop_basis(b)):
                        return f"star: {a} ; {b}"
                    if cop_basis(succ_basis(a, b)) != tensor_succ(cop_basis(a), cop_basis(b)):
                        return f"succ: {a} ; {b}"
    return None


def _random_element(rng: random.Random, degree: int, num_gens: int = 1) -> LinComb:
    basis = dipt_basis_of_degree(degree, num_gens)
    picks = rng.randint(1, min(3, len(basis)))
    out = LinComb((rng.choice(basis), Fraction(rng.randint(-3, 3)) or 1) for _ in range(picks))
    return out if out else LinComb.basis(basis[0])


def coassoc_suite(max_degree: int = 4, seed: int = 0) -> list[Check]:
    checks = []
    for t in (Fraction(0), Fraction(1), Fraction(2)):
        w = delta_coassoc_witness(max_degree, t)
        checks.append(Check(f"delta coassociative (t={t})", w is None, w))
    w = delta_nondegenerate_witness((Fraction(1), Fraction(2)))
    checks.append(Check("delta nonzero on degree 2 (t=1, t=2)", w is None, w))
    for name, cop in (("semi-Hopf", blacktriangle_basis), ("semi-infinitesimal", vartriangle_basis), ("cocommutative", hopf_delta_basis)):
        w = unital_coassoc_witness(cop, max_degree)
        checks.append(Check(f"{name} coproduct coassociative", w is None, w))
    w = cocommutative_witness(max_degree)
    checks.append(Check("cocommutative coproduct flip-invariant", w is None, w))
    w = delta_compatibility_witness(5, 40, seed)
    checks.append(Check("delta compatible with both products", w is None, w))
    w = morphism_witness(blacktriangle_basis, semi_tensor_star, semi_tensor_succ, 4)
    checks.append(Check("semi-Hopf coproduct is a product morphism", w is None, w))
    w = morphism_witness(hopf_delta_basis, classical_tensor_star, classical_tensor_succ, 4)
    checks.append(Check("cocommutative coproduct is a product morphism", w is None, w))
    return checks


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
    for n in range(1, max_degree + 1):
        for b in dipt_basis_of_degree(n):
            lhs = reduced(vartriangle, LinComb.basis(b))
            if lhs != delta(LinComb.basis(b)):
                return str(b)
    return None


def antipode_witness(max_degree: int = 4) -> str | None:
    one = LinComb.basis(UNIT)
    for which in ("S", "Sprime"):
        if not antipode_identity_holds(one, which):
            return f"{which} on the unit"
        for n in range(1, max_degree + 1):
            for b in dipt_basis_of_degree(n):
                if not antipode_identity_holds(LinComb.basis(b), which):
                    return f"{which}: {b}"
    return None


def bialgebra_suite(max_degree: int = 4) -> list[Check]:
    checks = []
    w = unit_law_witness(max_degree)
    checks.append(Check("unit laws", w is None, w))
    w = reduction_agreement_witness(max_degree)
    checks.append(Check("reduced semi-infinitesimal coproduct = delta", w is None, w))
    dims = []
    joint_witness = None
    for n in range(1, max_degree + 1):
        dim, vecs = prim_2as(n)
        dims.append(dim)
        expected = 1 if n == 1 else 0
        if dim != expected and joint_witness is None:
            joint_witness = f"degree {n}: dim {dim} != {expected}; kernel element {vecs[0]!r}"
    checks.append(
        Check(
            "joint primitives reduce to the generators",
            joint_witness is None,
            joint_witness,
            detail=f"computed dims {tuple(dims)}",
        )
    )
    w = antipode_witness(max_degree)
    checks.append(Check("antipode identities two-sided", w is None, w))
    return checks


def pbw_suite(max_n: int = 6) -> list[Check]:
    prim_dims = [filtration_dim(1, n) for n in range(1, min(max_n, TREE_COUNT_DEGREE_CAP) + 1)]
    expected = little_schroeder(len(prim_dims))
    ok = prim_dims == expected
    checks = [
        Check(
            "primitive dims are the tree counts",
            ok,
            None if ok else f"computed {prim_dims}, expected {expected}",
        )
    ]
    report = pbw_dim_check(max_n)
    checks.append(
        Check(
            "forest dims = composition sums of primitive dims",
            report.ok,
            None if report.ok else f"{report.forest_dims} vs {report.composed}",
        )
    )
    return checks

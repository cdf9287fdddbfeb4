"""Every cached recursion and enumeration gives the same values whatever the
cache state, and each cache keeps one entry per argument tuple."""

from fractions import Fraction

from dipterous import bialgebras, coproducts, freealg, homology, trees, verify
from dipterous.linalg import LinComb

CACHES = (
    trees.enumerate_trees,
    trees.enumerate_forests,
    trees.enumerate_binary,
    trees._enumerate_nap,
    freealg.decompose_basis,
    freealg.dipt_basis_of_degree,
    freealg.ldipt_basis_of_degree,
    freealg.eval_basis,
    coproducts.delta_basis,
    coproducts._e_basis,
    bialgebras.vartriangle_basis,
    bialgebras._antipode_basis,
    bialgebras._u_star,
    homology.qn_basis_of_degree,
    homology.chain_basis,
)

MAX_DEGREE = 5


def clear_caches() -> None:
    for fn in CACHES:
        fn.cache_clear()


def basis_up_to(n: int) -> list:
    return [b for d in range(1, n + 1) for b in freealg.dipt_basis_of_degree(d)]


def unit_pairs(n: int) -> list:
    """Every pair of unit-extension keys of total degree <= n; the unit has
    degree 0."""
    keys = [(0, bialgebras.UNIT)] + [(b.degree, b) for b in basis_up_to(n)]
    return [(a, b) for i, a in keys for j, b in keys if i + j <= n]


def images(order) -> dict:
    """Every cached value up to MAX_DEGREE, computed step by step in ``order``."""
    elems = lambda: [LinComb.basis(b) for b in basis_up_to(MAX_DEGREE)]
    steps = {
        "trees": lambda: [trees.enumerate_trees(n) for n in range(MAX_DEGREE, 0, -1)],
        "forests": lambda: [trees.enumerate_forests(n) for n in range(1, MAX_DEGREE + 1)],
        "binary": lambda: [trees.enumerate_binary(n) for n in range(MAX_DEGREE + 1)],
        "nap": lambda: [trees.enumerate_nap(n, ("v",)) for n in range(1, MAX_DEGREE + 1)],
        "chains": lambda: [
            homology.chain_basis(arity, weight)
            for arity in range(1, 4)
            for weight in range(arity, MAX_DEGREE + 1)
        ],
        "delta": lambda: [coproducts.delta_basis(b) for b in basis_up_to(MAX_DEGREE)],
        "e": lambda: [coproducts.e_idempotent(x) for x in elems()],
        "S": lambda: [bialgebras.antipode_S(x) for x in elems()],
        "Sprime": lambda: [bialgebras.antipode_Sprime(x) for x in elems()],
        "vartriangle": lambda: [bialgebras.vartriangle_basis(b) for b in basis_up_to(MAX_DEGREE)],
        "u_star": lambda: [bialgebras._u_star(a, b) for a, b in unit_pairs(MAX_DEGREE)],
    }
    assert set(order) == set(steps)
    return {name: steps[name]() for name in order}


def test_every_cache_is_listed():
    found = {
        id(obj): obj
        for module in (trees, freealg, coproducts, bialgebras, homology)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear")
    }
    assert set(found) == {id(fn) for fn in CACHES}


def test_values_do_not_depend_on_cache_state():
    order = [
        "S", "Sprime", "u_star", "delta", "e", "vartriangle",
        "chains", "nap", "binary", "forests", "trees",
    ]
    clear_caches()
    forward = images(order)
    clear_caches()
    backward = images(order[::-1])
    assert forward == backward


def test_delta_keeps_one_entry_per_key_and_t():
    clear_caches()
    basis = basis_up_to(4)
    for b in basis:
        coproducts.e_idempotent(LinComb.basis(b))
    # Both recursions stay inside the degree <= 4 basis, and each of its
    # keys is an input, so every key is visited once.
    assert coproducts.delta_basis.cache_info().currsize == len(set(basis))


def test_delta_keeps_one_entry_per_key_whatever_t():
    clear_caches()
    for t in (Fraction(1), Fraction(1, 2)):
        for n in range(1, 7):
            coproducts.filtration_dim(1, n, t)
    # The forests of degree <= 6; a cache keyed by t as well would hold 1030.
    assert coproducts.delta_basis.cache_info().currsize == 515


def test_nap_trees_keep_one_entry_per_degree_and_alphabet():
    clear_caches()
    verify.check_nap_axiom()
    verify.check_perm_nap_axioms()
    # Both checks reach degrees 1..4 over the one-letter alphabet, whether
    # they pass it or not.
    assert trees._enumerate_nap.cache_info().currsize == 4


def test_antipode_products_keep_one_entry_per_key_pair():
    clear_caches()
    bialgebras.antipode_table(4)
    verify.antipode_witness(4)
    unit = bialgebras.UNIT
    keys = basis_up_to(4)
    # The non-unit entries are the 21 pairs of total degree <= 4
    # (sum over i + j <= 4 of F_i * F_j, F = 1, 2, 6); the unit entries are
    # the unit times each key on either side, and the unit times itself.
    body = [(a, b) for a in keys for b in keys if a.degree + b.degree <= 4]
    with_unit = [(unit, unit)] + [(unit, k) for k in keys] + [(k, unit) for k in keys]
    assert len(body) == 21
    info = bialgebras._u_star.cache_info()
    assert info.currsize == len(body) + len(with_unit) == 84
    for a, b in body + with_unit:
        bialgebras._u_star(a, b)
    # Every probe is a hit, so the table holds exactly these pairs.
    assert bialgebras._u_star.cache_info().misses == info.misses

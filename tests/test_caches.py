"""Every cached recursion and enumeration gives the same values whatever the
cache state, and each cache keeps one entry per argument tuple."""

from fractions import Fraction

from dipterous import bialgebras, coproducts, freealg, homology, trees
from dipterous.linalg import LinComb

CACHES = (
    trees.enumerate_trees,
    trees.enumerate_forests,
    trees.enumerate_binary,
    trees.enumerate_nap,
    freealg.decompose_basis,
    freealg._dipt_basis,
    coproducts.delta_basis,
    coproducts._e_basis,
    bialgebras.vartriangle_basis,
    bialgebras._antipode_basis,
    homology._chain_basis,
)

MAX_DEGREE = 5


def clear_caches() -> None:
    for fn in CACHES:
        fn.cache_clear()
    bialgebras.SEMI_SQUARE.memo.clear()


def basis_up_to(n: int) -> list:
    return [b for d in range(1, n + 1) for b in freealg.dipt_basis_of_degree(d)]


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
        "delta 1/2": lambda: [coproducts.delta_basis(b, Fraction(1, 2)) for b in basis_up_to(MAX_DEGREE)],
        "delta 1": lambda: [coproducts.delta_basis(b, Fraction(1)) for b in basis_up_to(MAX_DEGREE)],
        "e": lambda: [coproducts.e_idempotent(x) for x in elems()],
        "S": lambda: [bialgebras.antipode_S(x) for x in elems()],
        "Sprime": lambda: [bialgebras.antipode_Sprime(x) for x in elems()],
        "vartriangle": lambda: [bialgebras.vartriangle_basis(b) for b in basis_up_to(MAX_DEGREE)],
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
        "S", "Sprime", "delta 1/2", "delta 1", "e", "vartriangle",
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
    # keys is an input, so every key is visited at t = 1 and only there.
    assert coproducts.delta_basis.cache_info().currsize == len(set(basis))

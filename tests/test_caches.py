"""Every cached recursion and enumeration gives the same values whatever the
cache state, and each cache keeps one entry per argument tuple. What the
primitive ranks leave alive (cache entries, interned keys, input rows) is
pinned here too."""

import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from dipterous import bialgebras, coproducts, freealg, homology, linalg, trees, verify
from dipterous.linalg import LinComb
from dipterous.series import little_schroeder

CACHES = (
    trees.enumerate_trees,
    trees.enumerate_binary,
    trees._enumerate_nap,
    freealg.star_basis,
    freealg.succ_basis,
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


def basis_pairs(n: int) -> list:
    """Every pair of basis keys of total degree <= n."""
    keys = basis_up_to(n)
    return [(a, b) for a in keys for b in keys if a.degree + b.degree <= n]


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
        "products": lambda: [
            (freealg.star_basis(a, b), freealg.succ_basis(a, b)) for a, b in basis_pairs(MAX_DEGREE)
        ],
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
        "S", "Sprime", "u_star", "products", "delta", "e", "vartriangle",
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
        coproducts.filtration_dims(1, 6, t)
    # The forests of degree <= 5, since degree 6 is the top degree; a cache
    # keyed by t as well would hold 242.
    assert coproducts.delta_basis.cache_info().currsize == 121


def test_top_degree_images_stay_out_of_the_cache():
    clear_caches()
    for t in (Fraction(1), Fraction(1, 2)):
        assert coproducts.filtration_dims(1, 7, t) == little_schroeder(7)
    # Exactly the 1 + 2 + 6 + 22 + 90 + 394 forests of degree <= 6: the
    # 1806 images of degree 7 are built from split pairs, uncached, and
    # their keys are never built.
    assert coproducts.delta_basis.cache_info().currsize == 515


@pytest.mark.parametrize("t", [Fraction(1), Fraction(0)])
def test_top_degree_enumerates_nothing(t):
    clear_caches()
    coproducts.filtration_dims(1, 7, t)
    # Degrees 1..6 only: the top degree reads their bases through split_pairs.
    assert freealg.dipt_basis_of_degree.cache_info().currsize == 6
    assert trees.enumerate_trees.cache_info().currsize == 6


def test_top_degree_interns_no_key():
    # The intern tables only grow, so this needs a process of its own.
    script = (
        "from fractions import Fraction\n"
        "from dipterous import coproducts, freealg, trees\n"
        "for t in (Fraction(1), Fraction(0)):\n"
        "    coproducts.filtration_dims(1, 7, t)\n"
        "for cls in (trees.PlanarTree, trees.Forest, freealg.DiptBasis):\n"
        "    print(max(k.degree for k in cls._table.values()))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "6", "6"]


def test_primitive_ranks_build_each_key_product_once():
    clear_caches()
    coproducts.filtration_dims(1, 7)
    # The coproduct recursion through degree 7 multiplies 393 distinct key
    # pairs under star and 257 under succ, each built on its first call.
    assert freealg.star_basis.cache_info().misses == 393
    assert freealg.succ_basis.cache_info().misses == 257


def test_rank_frees_each_row_once_renumbered(monkeypatch):
    refs, alive = [], []

    class Row(dict):
        """A row that counts the watched rows still alive as it is renumbered."""

        def items(self):
            alive.append(sum(ref() is not None for ref in refs))
            return super().items()

    def image(i: int) -> LinComb:
        out = LinComb.__new__(LinComb)
        out.terms = Row({i: 1, i + 1: -1})
        refs.append(weakref.ref(out.terms))
        return out

    echelon = linalg._echelon

    def spy(fresh, ncols):
        alive.append(sum(ref() is not None for ref in refs))
        return echelon(fresh, ncols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    assert linalg.operator_rank(map(image, range(4))) == 4
    # Rows that only rank holds go one by one, and none is left when
    # elimination starts.
    assert alive == [4, 3, 2, 1, 0]


def test_rank_leaves_a_kept_list_unchanged():
    kept = [{"a": 1, "b": 2}, {"b": Fraction(1, 2)}, {"a": 2, "b": 4}]
    rows, values = list(kept), [dict(row) for row in kept]
    assert linalg.rank(kept) == 2
    assert all(a is b for a, b in zip(kept, rows)) and kept == values


def test_nap_trees_keep_one_entry_per_degree_and_alphabet():
    clear_caches()
    checks = [c for c in verify.axioms_suite() if c.name.startswith(("NAP: ", "Perm(NAP): "))]
    assert len(checks) == 5
    # Both families reach degrees 1..4 over the one-letter alphabet, whether
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


def test_enumerations_keep_one_entry_per_degree():
    clear_caches()
    for n in (4, 4, 2):
        freealg.dipt_basis_of_degree(n)
        homology.qn_basis_of_degree(n)
    coproducts.pbw_dim_check(4)
    homology.qn_dim_table(4)
    # Both enumerations take the degree alone, so degrees 1..4 are 4 entries.
    for fn in (freealg.dipt_basis_of_degree, homology.qn_basis_of_degree):
        assert fn.cache_info().currsize == 4
        with pytest.raises(TypeError):
            fn(4, 2)

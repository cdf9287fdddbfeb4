"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every value asserted here is exact (rational arithmetic end to end); there
are no tolerances. Criterion 9's first clause (joint-primitive dimensions
(1, 0, 0, 0)) is expected to fail: the computed dimensions are (1, 0, 1, 4)
and the verdict line carries the explicit joint-kernel element; see
`dipterous verify bialgebra` for the same report with witness.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction

from dipterous.linalg import LinComb
from dipterous.bialgebras import (
    com_corestrict,
    com_symmetrize,
    prim_2as,
    primcom_dims,
)
from dipterous.coproducts import (
    asc_deconcat,
    delta,
    e_idempotent,
    pbw_dim_check,
    phi_corestrict,
    phi_tensor,
    prim_basis,
    s_section,
)
from dipterous.dynamics import (
    bowtie,
    concat,
    delta_sharp,
    dynamics_step,
    prec_A,
    total_mass,
    word_elem,
)
from dipterous.freealg import dipt_basis_of_degree
from dipterous.homology import chain_basis, differential, homology_rank, homotopy
from dipterous.series import geometric_compose, little_schroeder
from dipterous.trees import enumerate_forests, enumerate_trees
from dipterous.verify import (
    antipode_witness,
    axioms_suite,
    cocommutative_witness,
    delta_coassoc_witness,
    unital_coassoc_witness,
)
from dipterous.bialgebras import blacktriangle_basis, hopf_delta_basis, vartriangle_basis

from two_letters import dipt_basis_2


def report(num: int, description: str, ok: bool, note: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    return ok


def test_criterion_1_forest_dims():
    start = time.monotonic()
    dims = [len(enumerate_forests(n)) for n in range(1, 7)]
    closed_form = geometric_compose(little_schroeder(6), 6)
    elapsed = time.monotonic() - start
    ok = dims == [1, 2, 6, 22, 90, 394] == closed_form and elapsed < 10
    assert report(1, "forest dims (1,2,6,22,90,394) vs closed-form series", ok,
                  f"{elapsed:.2f}s")


def test_criterion_2_tree_and_dual_dims():
    start = time.monotonic()
    tree_dims = [len(enumerate_trees(n)) for n in range(1, 6)]
    from dipterous.homology import qn_dim_table

    dual_dims = qn_dim_table(5)
    elapsed = time.monotonic() - start
    ok = tree_dims == [1, 1, 3, 11, 45] and dual_dims == [1, 2, 2, 2, 2] and elapsed < 1
    assert report(2, "tree dims (1,1,3,11,45) and dual dims (1,2,2,2,2)", ok,
                  f"{elapsed:.2f}s")


def test_criterion_3_axiom_suites():
    start = time.monotonic()
    checks = axioms_suite()
    elapsed = time.monotonic() - start
    bad = [c.name for c in checks if not c.ok]
    ok = not bad and elapsed < 60
    assert report(3, "all axiom suites exhaustive within caps", ok,
                  f"{len(checks)} checks, {elapsed:.2f}s" + (f"; failing: {bad}" if bad else ""))


def test_criterion_4_coassociativity():
    witnesses = []
    for t in (Fraction(0), Fraction(1), Fraction(2)):
        w = delta_coassoc_witness(4, t)
        if w:
            witnesses.append(w)
    for cop in (blacktriangle_basis, vartriangle_basis, hopf_delta_basis):
        w = unital_coassoc_witness(cop, 4)
        if w:
            witnesses.append(w)
    w = cocommutative_witness(4)
    if w:
        witnesses.append(w)
    ok = not witnesses
    assert report(4, "coassociativity of all four coproducts + cocommutativity", ok,
                  "; ".join(witnesses))


def test_criterion_5_good_triple_dimensions():
    prim_dims = [len(prim_basis(n)) for n in range(1, 6)]
    ok = prim_dims == [1, 1, 3, 11, 45]
    rep = pbw_dim_check(6)
    ok = ok and rep.ok
    assert report(5, "primitive dims (1,1,3,11,45) and composition identity to degree 6", ok,
                  f"prim={prim_dims}, forests={list(rep.forest_dims)}")


def test_criterion_6_section_and_corestriction():
    ok = True
    for length in range(1, 6):
        for bits in range(2**length):
            word = tuple((bits >> i) & 1 for i in range(length))
            if phi_corestrict(s_section(word)) != LinComb.basis(word):
                ok = False
    for word in [(0,), (0, 1), (0, 0), (0, 1, 2), (0, 0, 1), (0, 1, 2, 3), (0, 0, 1, 1)]:
        if com_corestrict(com_symmetrize(word)) != LinComb.basis(tuple(sorted(word))):
            ok = False
    for n in range(1, 5):
        for b in dipt_basis_2(n)[:30]:
            x = LinComb.basis(b)
            lhs = None
            image = phi_corestrict(x)
            lhs = LinComb()
            for w, c in image.items():
                lhs = lhs + c * asc_deconcat(w)
            if lhs != phi_tensor(delta(x)):
                ok = False
    assert report(6, "corestriction/section identities for both coalgebra pairs", ok)


def test_criterion_7_idempotent():
    ok = True
    for n in range(1, 5):
        for b in dipt_basis_of_degree(n):
            ex = e_idempotent(LinComb.basis(b))
            if e_idempotent(ex) != ex or not delta(ex).is_zero():
                ok = False
    assert report(7, "projection idempotent: e(e(x)) = e(x) and image primitive", ok)


def test_criterion_8_koszulity():
    start = time.monotonic()
    ok = True
    notes = []
    for arity in range(2, 6):
        for weight in range(arity, 6):
            for b in chain_basis(arity, weight):
                x = LinComb.basis(b)
                if not differential(differential(x)).is_zero():
                    ok = False
                    notes.append(f"d^2 at {b}")
    for arity in range(2, 5):
        for weight in range(arity, 5):
            for b in chain_basis(arity, weight):
                x = LinComb.basis(b)
                if differential(homotopy(x)) + homotopy(differential(x)) != x:
                    ok = False
                    notes.append(f"homotopy at {b}")
    betti_1 = [homology_rank(1, w) for w in range(1, 6)]
    if betti_1 != [1, 0, 0, 0, 0]:
        ok = False
        notes.append(f"H_1 = {betti_1}")
    for arity in range(2, 5):
        higher = [homology_rank(arity, w) for w in range(arity, 6)]
        if any(higher):
            ok = False
            notes.append(f"H_{arity} = {higher}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    assert report(8, "exactness certificate and Betti table", ok,
                  f"{elapsed:.2f}s" + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_9_rigidity():
    dims = [prim_2as(n)[0] for n in range(1, 5)]
    dims_ok = dims == [1, 0, 0, 0]
    antipode_ok = antipode_witness(4) is None
    note = f"computed joint dims {dims}; antipodes {'ok' if antipode_ok else 'BAD'}"
    if not dims_ok:
        _, vecs = prim_2as(3)
        note += f"; joint-kernel element at degree 3: {vecs[0]!r}"
    assert report(9, "joint primitives (1,0,0,0) and two-sided antipode identities",
                  dims_ok and antipode_ok, note)


def test_criterion_10_cocommutative_primitives():
    dims, oracle = primcom_dims(5)
    ok = dims == oracle
    assert report(10, "cocommutative primitive dims match series-inversion oracle", ok,
                  f"dims={dims}, oracle={oracle}")


def test_criterion_11_dynamics():
    rng = random.Random(20240815)
    ok = True
    # mass conservation over 10 steps for seeded stochastic grammars
    for _ in range(6):
        symbols = [chr(ord("a") + i) for i in range(rng.randint(2, 5))]
        rules = {}
        for s in symbols:
            k = rng.randint(1, 3)
            rules[s] = tuple(
                (Fraction(1, k), (rng.choice(symbols), rng.choice(symbols)))
                for _ in range(k)
            )
        from dipterous.dynamics import CoopTable

        tbl = CoopTable(frozenset(symbols), rules)
        state = word_elem((symbols[0],))
        for _ in range(10):
            state = dynamics_step(tbl, state)
            if total_mass(state) != 1:
                ok = False
    # cooperation law and one-sided axioms on >= 200 seeded triples
    symbols = ["a", "b", "c"]
    rules = {
        "a": ((Fraction(1, 2), ("a", "b")), (Fraction(1, 2), ("b", "c"))),
        "b": ((Fraction(1), ("c", "a")),),
        "c": ((Fraction(1, 3), ("a", "a")), (Fraction(2, 3), ("b", "b"))),
    }
    from dipterous.dynamics import CoopTable

    tbl = CoopTable(frozenset(symbols), rules)
    rand_word = lambda: tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
    for _ in range(220):
        u, v, w = word_elem(rand_word()), word_elem(rand_word()), word_elem(rand_word())
        uw = next(iter(u.terms))
        lhs = delta_sharp(tbl, concat(u, v))
        rhs = LinComb(((uw + a, b), c) for (a, b), c in delta_sharp(tbl, v).items())
        if lhs != rhs:
            ok = False
        if prec_A(tbl, prec_A(tbl, u, v), w) != prec_A(tbl, u, bowtie(tbl, v, w)):
            ok = False
        if prec_A(tbl, bowtie(tbl, u, v), w) != bowtie(tbl, u, prec_A(tbl, v, w)):
            ok = False
    assert report(11, "mass conservation and cooperation laws on seeded samples", ok)

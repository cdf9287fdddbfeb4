import ast
from fractions import Fraction
from pathlib import Path

from dipterous import bialgebras, coproducts, verify
from dipterous.bialgebras import blacktriangle_basis, vartriangle_basis
from dipterous.freealg import dipt_basis_of_degree, eval_basis, succ_basis
from dipterous.linalg import LinComb
from dipterous.trees import nap_graft
from dipterous.verify import (
    axioms_suite,
    bialgebra_suite,
    coassoc_suite,
    delta_nondegenerate_witness,
    pbw_suite,
)


def test_axioms_suite_all_pass():
    for check in axioms_suite():
        assert check.ok, (check.name, check.witness)


def test_coassoc_suite_all_pass():
    for check in coassoc_suite(4):
        assert check.ok, (check.name, check.witness)


def test_bialgebra_suite_known_shape():
    checks = {c.name: c for c in bialgebra_suite(4)}
    assert checks["unit laws"].ok
    assert checks["reduced semi-infinitesimal coproduct = delta"].ok
    assert checks["antipode identities two-sided"].ok
    # the joint-primitive rigidity expectation fails from degree 3 on; the
    # check carries the computed dims and an explicit kernel element
    joint = checks["joint primitives reduce to the generators"]
    assert not joint.ok
    assert "(1, 0, 1, 4)" in joint.detail
    assert joint.witness and "degree 3" in joint.witness


def test_pbw_suite_all_pass():
    for check in pbw_suite(5):
        assert check.ok, (check.name, check.witness)


def test_coassoc_suite_checks_delta_is_not_zero():
    names = [c.name for c in coassoc_suite(2)]
    i = names.index("delta coassociative (t=2)")
    assert names[i + 1] == "delta nonzero on degree 2 (t=1, t=2)"
    assert delta_nondegenerate_witness((Fraction(1), Fraction(-3, 7))) is None
    # Delta_0 vanishes, so the t = 0 coassociativity check alone proves nothing.
    assert delta_nondegenerate_witness((Fraction(0),)) == "t=0: delta vanishes on degree 2"


def test_nondegeneracy_check_fails_on_a_zero_coproduct(monkeypatch):
    monkeypatch.setattr(verify, "delta_basis", lambda b: LinComb())
    checks = {c.name: c for c in coassoc_suite(2)}
    check = checks["delta nonzero on degree 2 (t=1, t=2)"]
    assert not check.ok
    assert check.witness == "t=1: delta vanishes on degree 2"
    assert checks["delta coassociative (t=1)"].ok


def test_nap_check_reports_the_first_failing_triple(monkeypatch):
    calls = []

    def reversed_graft(t, s):
        calls.append((t, s))
        return nap_graft(s, t)

    monkeypatch.setattr(verify, "nap_graft", reversed_graft)
    [check] = verify.check_nap_axiom()
    assert not check.ok
    # Degree order: (1, 1, 1) holds for any graft, (1, 1, 2) is the first
    # degree tuple, and v ; v ; v[v] its only triple.
    assert check.witness == "v ; v ; v[v]"
    # Four grafts per triple, and nothing is evaluated after the failure.
    assert len(calls) == 8


def test_compatibility_scan_reports_the_first_failing_pair(monkeypatch):
    calls = []

    def star_rhs_only(product, x, y):
        calls.append((product, str(x), str(y)))
        return coproducts.semi_inf_rhs(verify.star, x, y)

    monkeypatch.setattr(verify, "semi_inf_rhs", star_rhs_only)
    # While delta(x) vanishes the two right sides agree, so the first
    # failure is succ on the first degree-2 x with a nonzero coproduct.
    assert verify.delta_compatibility_witness() == "succ ; [(| |)] @ aa ; [|] @ a"
    # Star and succ on each of the 31 pairs of degrees (1, 1) to (1, 4), then
    # on the failing pair; nothing is evaluated after the failure.
    assert len(calls) == 2 * 31 + 2
    pair = ("[(| |)] @ aa", "[|] @ a")
    assert calls[-2:] == [(verify.star, *pair), (verify.succ, *pair)]


def test_coassociativity_witness_names_t_and_the_first_failing_element(monkeypatch):
    delta_basis = coproducts.delta_basis
    flipped = lambda key: delta_basis(key).map_keys(lambda pair: pair[::-1])
    monkeypatch.setattr(verify, "delta_basis", flipped)
    assert verify.delta_coassoc_witness(4, Fraction(1)) == "t=1: [((| (| |)) |)] @ aaaa"
    # Delta_0 vanishes, so nothing can fail at t = 0.
    assert verify.delta_coassoc_witness(4, Fraction(0)) is None


def test_unital_coassociativity_witness_is_the_first_failing_element():
    def switched(key):
        return blacktriangle_basis(key) if key.degree < 3 else vartriangle_basis(key)

    assert verify.unital_coassoc_witness(switched, 4) == "[(| | |)] @ aaa"


def test_flip_invariance_witness_is_the_first_failing_element(monkeypatch):
    monkeypatch.setattr(verify, "hopf_delta_basis", blacktriangle_basis)
    assert verify.cocommutative_witness(4) == "[(| (| |))] @ aaa"
    checks = {c.name: c for c in coassoc_suite(3)}
    check = checks["cocommutative coproduct flip-invariant"]
    assert (check.ok, check.witness) == (False, "[(| (| |))] @ aaa")


def test_antipode_witness_names_the_antipode_that_fails(monkeypatch):
    S, Sprime = bialgebras.antipode_S, bialgebras.antipode_Sprime
    monkeypatch.setattr(bialgebras, "antipode_Sprime", S)
    assert verify.antipode_witness(4) == "Sprime: [| |] @ aa"
    monkeypatch.setattr(bialgebras, "antipode_Sprime", Sprime)
    monkeypatch.setattr(bialgebras, "antipode_S", Sprime)
    assert verify.antipode_witness(4) == "S: [| |] @ aa"
    monkeypatch.setattr(bialgebras, "antipode_S", lambda x: 2 * S(x))
    assert verify.antipode_witness(4) == "S on the unit"


def test_antipode_witness_sees_a_wrong_shared_product(monkeypatch):
    # The recursion and the convolution check multiply through one table;
    # a product that is wrong in that table must still show up in the check.
    g = dipt_basis_of_degree(1)[0]
    u_star = bialgebras._u_star

    def wrong_square(k1, k2):
        return succ_basis(g, g) if (k1, k2) == (g, g) else u_star(k1, k2)

    def clear_caches():
        for fn in (u_star, bialgebras._antipode_basis, bialgebras.vartriangle_basis, eval_basis):
            fn.cache_clear()

    monkeypatch.setattr(bialgebras, "_u_star", wrong_square)
    clear_caches()
    try:
        assert verify.antipode_witness(4) == "S: [| |] @ aa"
    finally:
        clear_caches()


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_random():
    # Every check is exhaustive within its caps; a sampled one would need random.
    sampling = [
        path.name
        for path in sorted(Path(verify.__file__).parent.glob("*.py"))
        if any(module.split(".")[0] == "random" for module in _imported_modules(path))
    ]
    assert sampling == []

from fractions import Fraction

from dipterous import verify
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
    for check in coassoc_suite(4, seed=0):
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
    names = [c.name for c in coassoc_suite(2, seed=0)]
    i = names.index("delta coassociative (t=2)")
    assert names[i + 1] == "delta nonzero on degree 2 (t=1, t=2)"
    assert delta_nondegenerate_witness((Fraction(1), Fraction(-3, 7))) is None
    # Delta_0 vanishes, so the t = 0 coassociativity check alone proves nothing.
    assert delta_nondegenerate_witness((Fraction(0),)) == "t=0: delta vanishes on degree 2"


def test_nondegeneracy_check_fails_on_a_zero_coproduct(monkeypatch):
    monkeypatch.setattr(verify, "delta_basis", lambda b, t: LinComb())
    checks = {c.name: c for c in coassoc_suite(2, seed=0)}
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
    [check] = verify.check_nap_axiom(6)
    assert not check.ok
    # Degree order: (1, 1, 1) holds for any graft, (1, 1, 2) is the first
    # degree tuple, and v ; v ; v[v] its only triple.
    assert check.witness == "v ; v ; v[v]"
    # Four grafts per triple, and nothing is evaluated after the failure.
    assert len(calls) == 8

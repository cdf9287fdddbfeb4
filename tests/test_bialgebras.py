from fractions import Fraction

import pytest

from dipterous.linalg import LinComb
from dipterous.bialgebras import (
    UNIT,
    antipode_S,
    antipode_Sprime,
    antipode_identity_holds,
    antipode_table,
    blacktriangle,
    blacktriangle_basis,
    classical_tensor_succ,
    com_corestrict,
    com_symmetrize,
    counit,
    hopf_delta,
    hopf_delta_basis,
    prim_2as,
    primcom_dims,
    reduced,
    semi_tensor_star,
    semi_tensor_succ,
    tau,
    unital_star,
    unital_succ,
    vartriangle,
    vartriangle_basis,
)
from dipterous.coproducts import delta
from dipterous.freealg import DiptBasis, dipt_basis_of_degree, gen_elem
from dipterous.trees import parse_forest
from dipterous.verify import (
    cocommutative_witness,
    morphism_witness,
    reduction_agreement_witness,
    unit_law_witness,
    unital_coassoc_witness,
)


def be(forest_text: str, word: str) -> DiptBasis:
    return DiptBasis(parse_forest(forest_text), tuple(ord(c) - ord("a") for c in word))


def body(forest_text: str, word: str) -> LinComb:
    return LinComb.basis(be(forest_text, word))


ONE = LinComb.basis(UNIT)
GEN = gen_elem(0)
TREE = body("[(| |)]", "ab")
FOREST = body("[| |]", "ab")


def test_unit_laws():
    assert unit_law_witness(4) is None


def test_one_succ_one_rejected():
    with pytest.raises(ValueError):
        unital_succ(ONE, ONE)
    with pytest.raises(ValueError):
        unital_succ(2 * ONE + gen_elem(0), ONE)


def test_unital_succ_values():
    assert unital_succ(ONE, TREE) == TREE
    assert unital_succ(TREE, ONE).is_zero()
    assert unital_star(ONE, TREE) == TREE == unital_star(TREE, ONE)


def test_semi_tensor_rules():
    x, y = be("[|]", "a"), be("[|]", "b")
    t_xy = LinComb({(x, UNIT): 1})
    t_yx = LinComb({(y, UNIT): 1})
    # (x (x) 1) > (y (x) 1) = (x > y) (x) 1
    out = semi_tensor_succ(t_xy, t_yx)
    assert out == LinComb({(be("[(| |)]", "ab"), UNIT): 1})
    # (x (x) b) > (y (x) 1) dies on b > 1
    out = semi_tensor_succ(LinComb({(x, y): 1}), t_yx)
    assert out.is_zero()
    # (x (x) 1) > (y (x) b') moves b' across
    out = semi_tensor_succ(t_xy, LinComb({(y, x): 1}))
    assert out == LinComb({(be("[| |]", "ab"), x): 1})


def test_classical_tensor_rules():
    x, y = be("[|]", "a"), be("[|]", "b")
    t_x1 = LinComb({(x, UNIT): 1})
    t_y1 = LinComb({(y, UNIT): 1})
    assert classical_tensor_succ(t_x1, t_y1) == LinComb({(be("[(| |)]", "ab"), UNIT): 1})
    out = classical_tensor_succ(LinComb({(x, x): 1}), LinComb({(y, y): 1}))
    assert out == LinComb({(be("[(| |)]", "ab"), be("[(| |)]", "ab")): 1})
    out = semi_tensor_star(LinComb({(UNIT, x): 1}), LinComb({(UNIT, y): 1}))
    assert out == LinComb({(UNIT, be("[| |]", "ab")): 1})


def test_blacktriangle_examples():
    g = be("[|]", "a")
    assert blacktriangle(GEN) == LinComb({(UNIT, g): 1, (g, UNIT): 1})
    te = blacktriangle(TREE)
    key = be("[(| |)]", "ab")
    assert te.coeff((key, UNIT)) == 1 and te.coeff((UNIT, key)) == 1
    assert te.coeff((be("[|]", "a"), be("[|]", "b"))) == 1
    assert len(te.terms) == 3


def test_vartriangle_examples():
    g = be("[|]", "a")
    assert vartriangle(GEN) == LinComb({(UNIT, g): 1, (g, UNIT): 1})
    assert vartriangle(ONE) == LinComb({(UNIT, UNIT): 1})
    red = reduced(vartriangle, TREE)
    assert red == LinComb({(be("[|]", "a"), be("[|]", "b")): 1})


def test_reduced_requires_zero_scalar():
    with pytest.raises(ValueError):
        reduced(vartriangle, ONE + gen_elem(0))


def test_reduced_of_generator_vanishes():
    assert reduced(blacktriangle, GEN).is_zero()
    assert reduced(vartriangle, GEN).is_zero()


def test_coassociativity_degree_le_4():
    assert unital_coassoc_witness(blacktriangle_basis, 4) is None
    assert unital_coassoc_witness(vartriangle_basis, 4) is None
    assert unital_coassoc_witness(hopf_delta_basis, 4) is None


def test_hopf_cocommutative():
    assert cocommutative_witness(4) is None
    te = hopf_delta(FOREST)
    assert tau(te) == te


def test_hopf_delta_example():
    te = hopf_delta(FOREST)
    f = be("[| |]", "ab")
    assert te.coeff((f, UNIT)) == 1 and te.coeff((UNIT, f)) == 1
    assert te.coeff((be("[|]", "a"), be("[|]", "b"))) == 1
    assert te.coeff((be("[|]", "b"), be("[|]", "a"))) == 1


def test_morphism_properties():
    assert morphism_witness(blacktriangle_basis, semi_tensor_star, semi_tensor_succ) is None
    assert morphism_witness(hopf_delta_basis, semi_tensor_star, classical_tensor_succ) is None


def test_reduced_vartriangle_is_delta():
    assert reduction_agreement_witness(5) is None


def test_counit():
    assert counit(ONE) == 1
    assert counit(TREE) == 0
    # (eps (x) id) applied to the multiplicative coproduct gives the element back
    for n in range(1, 4):
        for b in dipt_basis_of_degree(n):
            te = blacktriangle(LinComb.basis(b))
            picked = LinComb()
            for (a, k), c in te.items():
                if a == UNIT and k != UNIT:
                    picked = picked + c * LinComb.basis(k)
            assert picked == LinComb.basis(b)


def test_prim_joint_kernel_computed_dims():
    # degree 1 and 2 follow the rigidity expectation; from degree 3 on the
    # joint kernel is larger, with an explicit machine-verified element
    dims = [prim_2as(n)[0] for n in range(1, 7)]
    assert dims[:2] == [1, 0]
    assert dims == [1, 0, 1, 4, 17, 76]
    _, vecs = prim_2as(3)
    z = vecs[0]
    assert reduced(vartriangle, z).is_zero()
    assert reduced(blacktriangle, z).is_zero()
    assert delta(z).is_zero()


def test_antipodes_on_primitives_negate():
    assert antipode_S(GEN) == -1 * gen_elem(0)
    assert antipode_Sprime(GEN) == -1 * gen_elem(0)


def test_antipode_sprime_degree_two_example():
    out = antipode_Sprime(TREE)
    expected = -1 * LinComb.basis(be("[(| |)]", "ab")) + LinComb.basis(be("[| |]", "ab"))
    assert out == expected


def test_antipodes_differ_at_degree_two():
    x = body("[| |]", "aa")
    assert antipode_S(x) == x
    assert antipode_Sprime(x).is_zero()


def test_antipode_identities_two_sided_degree_le_4():
    for which in ("S", "Sprime"):
        assert antipode_identity_holds(ONE, which)
        for n in range(1, 5):
            for b in dipt_basis_of_degree(n):
                assert antipode_identity_holds(LinComb.basis(b), which), (which, b)


def test_antipode_table_shape():
    table = antipode_table(2)
    assert set(table) == {"[(| |)] @ aa", "[| |] @ aa"}
    assert set(table["[| |] @ aa"]) == {"S", "Sprime"}


def test_antipode_table_text_is_pinned():
    table = antipode_table(3)
    assert table["[(| |) |] @ aaa"] == {"S": "0 + [| (| |)] @ aaa - [| | |] @ aaa", "Sprime": "0 + 0"}
    assert table["[(| (| |))] @ aaa"] == {
        "S": "0 + -[(| (| |))] @ aaa + 2 [| (| |)] @ aaa - [| | |] @ aaa",
        "Sprime": "0 + -[(| (| |))] @ aaa + [| | |] @ aaa",
    }


def test_com_symmetrize_examples():
    assert com_symmetrize((0,)) == GEN
    s = com_symmetrize((0, 1))
    assert s.coeff(be("[| |]", "ab")) == Fraction(1, 2)
    assert s.coeff(be("[| |]", "ba")) == Fraction(1, 2)


def test_com_corestrict_section_identity():
    words = [(0,), (0, 1), (0, 0), (0, 1, 2), (0, 0, 1), (0, 1, 2, 3)]
    for word in words:
        expected = LinComb.basis(tuple(sorted(word)))
        assert com_corestrict(com_symmetrize(word)) == expected


def test_primcom_dims_match_oracle():
    dims, oracle = primcom_dims(4)
    assert dims == oracle == [1, 1, 4, 15]

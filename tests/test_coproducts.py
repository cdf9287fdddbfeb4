from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipterous.linalg import LinComb, kernel_of_operator
from dipterous.coproducts import (
    asc_deconcat,
    bracket,
    corolla_iso_check,
    delta,
    delta_basis,
    delta_iter,
    e_idempotent,
    filtration_dims,
    mag_bracket_rank,
    mag_tree_to_primitive,
    pbw_dim_check,
    phi_corestrict,
    phi_tensor,
    prim_basis,
    s_section,
    triangle,
)
from dipterous.freealg import (
    OP_STAR,
    DiptBasis,
    dipt_basis_of_degree,
    gen_elem,
    star,
    star_basis,
    succ,
    succ_basis,
)
from dipterous.series import little_schroeder
from dipterous.trees import enumerate_trees, parse_forest
from dipterous.verify import delta_coassoc_witness, delta_compatibility_witness

from two_letters import dipt_basis_2


def be(forest_text: str, word: str) -> DiptBasis:
    return DiptBasis(parse_forest(forest_text), tuple(ord(c) - ord("a") for c in word))


def _delta_t_reference(x: DiptBasis, t) -> LinComb:
    """Delta_t by its defining recursion, carrying t through every level."""
    if x.degree == 1:
        return LinComb()
    op, left, right = x.split()
    op_basis = star_basis if op == OP_STAR else succ_basis
    return LinComb(
        chain(
            (((a, op_basis(b, right)), c) for (a, b), c in _delta_t_reference(left, t).items()),
            (((star_basis(left, a), b), c) for (a, b), c in _delta_t_reference(right, t).items()),
            [((left, right), t)],
        )
    )


V = gen_elem(0)
W = gen_elem(1)
U = gen_elem(2)


def test_delta_on_generators_vanishes():
    assert delta(V).is_zero()


def test_delta_degree_two():
    tree = LinComb.basis(be("[(| |)]", "ab"))
    forest = LinComb.basis(be("[| |]", "ab"))
    expected = LinComb({(be("[|]", "a"), be("[|]", "b")): 1})
    assert delta(tree) == expected
    assert delta(forest) == expected


def test_delta_iter_kills_low_degree():
    for b in dipt_basis_of_degree(2):
        assert delta_iter(LinComb.basis(b), 2).is_zero()


def test_delta_iter_word_split():
    x = LinComb.basis(be("[| | |]", "abc"))
    expected = LinComb({(be("[|]", "a"), be("[|]", "b"), be("[|]", "c")): 1})
    assert delta_iter(x, 2) == expected


def test_delta_coassociative_all_t():
    for t in (Fraction(0), Fraction(1), Fraction(2)):
        assert delta_coassoc_witness(5, t) is None


def test_delta_compatible_with_products():
    assert delta_compatibility_witness() is None


def test_delta_compatible_exhaustive_low_degree():
    from dipterous.coproducts import semi_inf_rhs

    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for a in dipt_basis_of_degree(na):
                for b in dipt_basis_of_degree(nb):
                    x, y = LinComb.basis(a), LinComb.basis(b)
                    assert delta(star(x, y)) == semi_inf_rhs(star, x, y)
                    assert delta(succ(x, y)) == semi_inf_rhs(succ, x, y)


def test_delta_parameter_scales_top_term():
    key = be("[(| |)]", "ab")
    te = _delta_t_reference(key, Fraction(2))
    assert te.coeff((be("[|]", "a"), be("[|]", "b"))) == 2
    assert te == 2 * delta(LinComb.basis(key))


def test_filtration_examples():
    assert filtration_dims(1, 1)[-1] == 1
    assert filtration_dims(1, 2)[-1] == 1
    for n in range(1, 5):
        full = len(dipt_basis_of_degree(n))
        assert filtration_dims(n, n)[-1] == full


def test_filtration_monotone():
    for n in range(2, 6):
        dims = [filtration_dims(r, n)[-1] for r in range(1, n + 1)]
        assert dims == sorted(dims)


def test_prim_dims_match_tree_counts():
    assert [len(prim_basis(n)) for n in range(1, 6)] == little_schroeder(5)


@pytest.mark.parametrize("t", [Fraction(1), Fraction(1, 2)])
def test_filtration_dim_counts_prim_basis(t):
    for n in range(1, 7):
        assert filtration_dims(1, n, t)[-1] == len(prim_basis(n))


def test_half_t_primitives_equal_t_one():
    # Delta_{1/2} = Delta_1 / 2 has the same kernel, and after row content
    # division the same unit pivots.
    half, one = Fraction(1, 2), Fraction(1)
    for n in range(1, 7):
        assert filtration_dims(1, n, half)[-1] == filtration_dims(1, n, one)[-1]
        basis = dipt_basis_of_degree(n)
        half_images = (_delta_t_reference(b, half) for b in basis)
        assert kernel_of_operator(basis, half_images) == prim_basis(n)


def test_delta_scales_linearly_in_t():
    # Delta_t = t * Delta_1: every summand of the recursion carries one t.
    for n in range(1, 6):
        for b in dipt_basis_of_degree(n):
            for t in (Fraction(0), Fraction(1), Fraction(2), Fraction(-3, 7)):
                assert _delta_t_reference(b, t) == t * delta_basis(b)


def test_delta_basis_matches_the_reference_term_for_term():
    # The one-dict recursion keeps the reference's terms and their order
    # of first appearance, one degree past the scaling test.
    for n in range(1, 7):
        for b in dipt_basis_of_degree(n):
            assert list(_delta_t_reference(b, 1).items()) == list(delta_basis(b).items())


def test_tensor_repr_prints_basis_text():
    te = delta(LinComb.basis(dipt_basis_of_degree(3)[0]))
    assert te
    assert "DiptBasis(" not in repr(te)
    assert repr(te).count(" @ ") == 2 * len(te)


def test_tensor_repr_text_is_pinned():
    # Tuple keys sort by their canon text but print as tuples.
    te = delta(LinComb.basis(dipt_basis_of_degree(3)[0]))
    assert repr(te) == "([(| |)] @ aa, [|] @ a) + ([|] @ a, [(| |)] @ aa)"
    assert repr(Fraction(-3, 2) * te) == "-3/2 ([(| |)] @ aa, [|] @ a) - 3/2 ([|] @ a, [(| |)] @ aa)"


def test_prim_basis_degree_two_span():
    (vec,) = prim_basis(2)
    tree = be("[(| |)]", "aa")
    forest = be("[| |]", "aa")
    assert vec.coeff(tree) == -vec.coeff(forest) != 0


def test_prim_vectors_are_in_kernel():
    for n in range(2, 6):
        for vec in prim_basis(n):
            assert delta(vec).is_zero()


def test_triangle_definition():
    assert triangle(V, W) == LinComb.basis(be("[(| |)]", "ab")) - LinComb.basis(
        be("[| |]", "ab")
    )


def test_bracket_primitive():
    assert delta(bracket([V, W, U])).is_zero()
    assert delta(bracket([V, W])).is_zero()
    with pytest.raises(ValueError):
        bracket([V])


def test_bracket_degree_two_spans_prim():
    (vec,) = prim_basis(2)
    br = bracket([gen_elem(0), gen_elem(0)])
    # both span the same line
    ratio = None
    for key, c in br.items():
        other = vec.coeff(key)
        assert other != 0
        ratio = ratio or c / other
        assert c == ratio * other


def test_mag_bracket_ranks():
    assert mag_bracket_rank(2) == 1
    assert mag_bracket_rank(3) == 3
    assert mag_bracket_rank(4) == 11


def test_mag_images_primitive():
    for n in range(2, 5):
        for t in enumerate_trees(n):
            assert delta(mag_tree_to_primitive(t)).is_zero()


def test_corolla_iso_check():
    for n in range(2, 6):
        assert corolla_iso_check(n)


def test_e_fixes_generators():
    assert e_idempotent(V) == V


def test_e_degree_two():
    tree = LinComb.basis(be("[(| |)]", "ab"))
    assert e_idempotent(tree) == tree - LinComb.basis(be("[| |]", "ab"))


def test_e_idempotent_image_primitive_degree_le_4():
    for n in range(1, 5):
        for b in dipt_basis_of_degree(n):
            ex = e_idempotent(LinComb.basis(b))
            assert e_idempotent(ex) == ex
            assert delta(ex).is_zero()


def test_e_identity_on_primitives():
    for n in range(1, 5):
        for vec in prim_basis(n):
            assert e_idempotent(vec) == vec


def test_deconcat_examples():
    assert asc_deconcat((0,)).is_zero()
    assert asc_deconcat((0, 1)) == LinComb({((0,), (1,)): 1})
    assert asc_deconcat((0, 1, 2)) == LinComb({((0,), (1, 2)): 1, ((0, 1), (2,)): 1})


def test_section_examples():
    assert s_section((0,)) == V
    assert s_section((0, 1)) == LinComb.basis(be("[| |]", "ab"))


def test_phi_examples():
    assert phi_corestrict(V) == LinComb.basis((0,))
    assert phi_corestrict(LinComb.basis(be("[| |]", "ab"))) == LinComb.basis((0, 1))


words = st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple)


@given(words)
@settings(max_examples=40)
def test_phi_section_identity(word):
    assert phi_corestrict(s_section(word)) == LinComb.basis(word)


def test_phi_section_identity_all_words_length_le_5():
    for length in range(1, 6):
        for bits in range(2**length):
            word = tuple((bits >> i) & 1 for i in range(length))
            assert phi_corestrict(s_section(word)) == LinComb.basis(word)


def test_phi_is_a_coalgebra_morphism_degree_le_4():
    for n in range(1, 5):
        for b in dipt_basis_2(n)[:40]:
            x = LinComb.basis(b)
            image = phi_corestrict(x)
            lhs = LinComb()
            for word, c in image.items():
                lhs = lhs + c * asc_deconcat(word)
            assert lhs == phi_tensor(delta(x))


def test_pbw_composition_identity():
    report = pbw_dim_check(5)
    assert report.ok
    assert report.prim_dims == (1, 1, 3, 11, 45)
    assert report.forest_dims == (1, 2, 6, 22, 90)

from fractions import Fraction

import pytest

from dipterous.linalg import LinComb
from dipterous.freealg import (
    OP_STAR,
    OP_SUCC,
    AlgebraTarget,
    DiptBasis,
    LDiptBasis,
    PermNapBasis,
    basis_from_str,
    dim_table,
    dipt_basis_of_degree,
    eval_basis,
    eval_universal,
    gen_elem,
    generator,
    ldipt_basis_of_degree,
    ldipt_generator,
    ldipt_nwarrow,
    ldipt_nwarrow_basis,
    ldipt_succ,
    ldipt_succ_basis,
    perm_nap_prec_basis,
    perm_nap_star_basis,
    rdipt_prec,
    reflect,
    star,
    star_basis,
    succ,
    succ_basis,
    word_str,
)
from dipterous.homology import QNBasis, qn_star, qn_succ
from dipterous.series import composition_sum
from dipterous.trees import (
    BLEAF,
    BinaryTree,
    NapTree,
    Y1,
    parse_forest,
)
from dipterous.verify import axioms_suite

from two_letters import dipt_basis_2, qn_basis_2


def family_checks(prefix: str) -> list:
    """The checks of one axiom family, selected from the suite by prefix."""
    return [c for c in axioms_suite() if c.name.startswith(prefix)]


def be(forest_text: str, word: str) -> DiptBasis:
    return DiptBasis(parse_forest(forest_text), tuple(ord(c) - ord("a") for c in word))


def test_star_concatenates():
    assert star_basis(be("[|]", "a"), be("[|]", "b")) == be("[| |]", "ab")
    assert star_basis(be("[(| |)]", "ab"), be("[|]", "c")) == be("[(| |) |]", "abc")


def test_succ_examples():
    assert succ_basis(be("[|]", "a"), be("[|]", "b")) == be("[(| |)]", "ab")
    assert succ_basis(be("[| |]", "ab"), be("[| |]", "cd")) == be("[(| | (| |))]", "abcd")
    assert succ_basis(be("[(| |)]", "ab"), be("[(| |)]", "cd")) == be("[((| |) | |)]", "abcd")


def test_succ_always_single_tree_star_adds_tree_counts():
    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for a in dipt_basis_of_degree(na):
                for b in dipt_basis_of_degree(nb):
                    assert len(succ_basis(a, b).forest) == 1
                    assert len(star_basis(a, b).forest) == len(a.forest) + len(b.forest)


def test_decompose_examples():
    op, l, r = be("[| |]", "ab").split()
    assert (op, l, r) == ("star", be("[|]", "a"), be("[|]", "b"))
    op, l, r = be("[(| | (| |))]", "abcd").split()
    assert (op, l, r) == ("succ", be("[| |]", "ab"), be("[| |]", "cd"))
    op, l, r = be("[(| |)]", "ab").split()
    assert (op, l, r) == ("succ", be("[|]", "a"), be("[|]", "b"))


def test_decompose_rejects_generators():
    with pytest.raises(ValueError):
        generator().split()


def test_decompose_is_a_section_degree_le_7():
    for n in range(2, 8):
        for b in dipt_basis_of_degree(n):
            op, l, r = b.split()
            assert l.degree + r.degree == n
            rebuilt = {OP_STAR: star, OP_SUCC: succ}[op](LinComb.basis(l), LinComb.basis(r))
            assert rebuilt == LinComb.basis(b)


def test_dipterous_axioms_exhaustive():
    checks = family_checks("dipterous: ")
    assert len(checks) == 2
    for check in checks:
        assert check.ok, check


def test_words_carry_through_multilinear():
    x = be("[(| |)]", "ab")
    y = be("[|]", "c")
    assert succ_basis(x, y).word == (0, 1, 2)


def test_serialization_roundtrip():
    for n in range(1, 4):
        for b in dipt_basis_2(n):
            assert basis_from_str(str(b)) == b
    assert word_str((0, 1)) == "ab"


@pytest.mark.parametrize("i", [26, -1])
def test_generator_indices_outside_the_alphabet_are_rejected(i):
    # Names come from a 26-letter string, so index -1 must not read as 'z'.
    builders = [
        generator,
        lambda i: DiptBasis(parse_forest("[| |]"), (0, i)),
        lambda i: QNBasis((i,)),
        lambda i: QNBasis((0,), i),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="range over 0..25"):
            build(i)


def test_eval_universal_into_rationals():
    target = AlgebraTarget(
        star=lambda a, b: a * b,
        succ=lambda a, b: a * b,
        generators={0: Fraction(1)},
        zero=Fraction(0),
    )
    for n in range(1, 5):
        for b in dipt_basis_of_degree(n):
            assert eval_universal(LinComb.basis(b), target) == 1


def test_eval_universal_identity():
    target = AlgebraTarget(star=star, succ=succ, generators={0: gen_elem(0)}, zero=LinComb())
    for n in range(1, 5):
        for b in dipt_basis_of_degree(n):
            assert eval_universal(LinComb.basis(b), target) == LinComb.basis(b)


# Each free algebra that ``eval_basis`` evaluates: its basis by degree (over
# two letters where the model takes an alphabet) and its two products.
FREE_ALGEBRAS = {
    "forest": (dipt_basis_2, star, succ),
    "binary tree": (ldipt_basis_of_degree, ldipt_nwarrow, ldipt_succ),
    "tagged word": (qn_basis_2, qn_star, qn_succ),
}


def test_split_halves_rebuild_each_key_through_degree_5():
    for basis_of_degree, star_op, succ_op in FREE_ALGEBRAS.values():
        for n in range(2, 6):
            for b in basis_of_degree(n):
                op, left, right = b.split()
                assert left.degree + right.degree == n
                assert left in basis_of_degree(left.degree)
                assert right in basis_of_degree(right.degree)
                product = {OP_STAR: star_op, OP_SUCC: succ_op}[op]
                assert product(LinComb.basis(left), LinComb.basis(right)) == LinComb.basis(b)


def test_eval_basis_keeps_one_memo_per_target():
    for basis_of_degree, star_op, succ_op in FREE_ALGEBRAS.values():
        gens = basis_of_degree(1)
        basis = [b for n in range(2, 5) for b in basis_of_degree(n)]
        images = {"degree": lambda b: b.degree, "identity": LinComb.basis}
        for order in (("degree", "identity"), ("identity", "degree")):
            targets = {
                "degree": AlgebraTarget(
                    star=lambda a, b: a + b,
                    succ=lambda a, b: a + b,
                    generators={g.word[0]: 1 for g in gens},
                    zero=0,
                ),
                "identity": AlgebraTarget(
                    star=star_op,
                    succ=succ_op,
                    generators={g.word[0]: LinComb.basis(g) for g in gens},
                    zero=LinComb(),
                ),
            }
            eval_basis.cache_clear()
            for name in order:
                for b in basis:
                    assert eval_basis(b, targets[name]) == images[name](b)
            # Each target keeps its own entry for every basis key and generator.
            assert eval_basis.cache_info().currsize == 2 * (len(basis) + len(gens))


def test_eval_universal_is_a_morphism_into_binary_trees():
    target = AlgebraTarget(
        star=ldipt_nwarrow,
        succ=ldipt_succ,
        generators={0: LinComb.basis(ldipt_generator(0))},
        zero=LinComb(),
    )
    phi = lambda b: eval_universal(LinComb.basis(b), target)
    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for a in dipt_basis_of_degree(na):
                for b in dipt_basis_of_degree(nb):
                    assert phi(star_basis(a, b)) == ldipt_nwarrow(phi(a), phi(b))
                    assert phi(succ_basis(a, b)) == ldipt_succ(phi(a), phi(b))


def test_rdipt_is_reflection_conjugate_and_satisfies_axioms():
    checks = family_checks("right-dipterous: ")
    assert len(checks) == 2
    for check in checks:
        assert check.ok, check


def test_reflect_involution():
    for n in range(1, 5):
        for b in dipt_basis_2(n):
            assert reflect(reflect(LinComb.basis(b))) == LinComb.basis(b)


def test_rdipt_mirror_examples():
    # mirror image of: gen > gen = the 2-corolla
    a = LinComb.basis(be("[|]", "a"))
    b = LinComb.basis(be("[|]", "b"))
    assert rdipt_prec(a, b) == LinComb.basis(be("[(| |)]", "ab"))
    # left factor contributes its branches in front
    x = LinComb.basis(be("[(| |)]", "ab"))
    assert rdipt_prec(x, b) == LinComb.basis(
        DiptBasis(parse_forest("[(| | |)]"), (0, 1, 1))
    )


def test_ldipt_examples():
    ga = ldipt_generator(0)
    right_comb = ldipt_nwarrow_basis(ga, LDiptBasis(Y1, (1,)))
    assert right_comb.tree == BinaryTree(BLEAF, Y1)
    assert right_comb.word == (0, 1)
    # t > one-node = t v leaf-right
    t = LDiptBasis(BinaryTree(Y1, BLEAF), (0, 0))
    out = ldipt_succ_basis(t, LDiptBasis(Y1, (1,)))
    assert out.tree == BinaryTree(t.tree, BLEAF)
    assert out.word == (0, 0, 1)


def test_ldipt_axioms():
    checks = family_checks("L-dipterous: ")
    assert len(checks) == 3
    for check in checks:
        assert check.ok, check


def test_ldipt_eval_identity():
    target = AlgebraTarget(
        star=ldipt_nwarrow,
        succ=ldipt_succ,
        generators={0: LinComb.basis(ldipt_generator(0))},
        zero=LinComb(),
    )
    for n in range(1, 5):
        for b in ldipt_basis_of_degree(n):
            assert eval_universal(LinComb.basis(b), target) == LinComb.basis(b)


def test_ldipt_eval_morphism_property():
    target = AlgebraTarget(
        star=ldipt_nwarrow,
        succ=ldipt_succ,
        generators={0: LinComb.basis(ldipt_generator(0))},
        zero=LinComb(),
    )
    phi = lambda b: eval_universal(LinComb.basis(b), target)
    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for a in ldipt_basis_of_degree(na):
                for b in ldipt_basis_of_degree(nb):
                    assert phi(ldipt_nwarrow_basis(a, b)) == ldipt_nwarrow(phi(a), phi(b))
                    assert phi(ldipt_succ_basis(a, b)) == ldipt_succ(phi(a), phi(b))


def test_right_handed_binary_mirror_smoke():
    from dipterous.freealg import ldipt_reflect_tree, rldipt_nearrow_basis

    # leftmost-leaf gluing is the reflection conjugate of rightmost-leaf gluing
    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for a in ldipt_basis_of_degree(na):
                for b in ldipt_basis_of_degree(nb):
                    got = rldipt_nearrow_basis(a, b).tree
                    mirrored = ldipt_reflect_tree(
                        ldipt_nwarrow_basis(
                            LDiptBasis(ldipt_reflect_tree(b.tree), b.word),
                            LDiptBasis(ldipt_reflect_tree(a.tree), a.word),
                        ).tree
                    )
                    assert got == mirrored


def test_perm_nap_examples():
    t = NapTree("v")
    s = NapTree("w")
    assert perm_nap_star_basis(PermNapBasis(t), PermNapBasis(s)) == PermNapBasis(t, (s,))
    assert perm_nap_prec_basis(PermNapBasis(t), PermNapBasis(s)) == PermNapBasis(
        NapTree("v", (s,))
    )


def test_perm_nap_axioms():
    checks = family_checks("Perm(NAP): ")
    assert len(checks) == 4
    for check in checks:
        assert check.ok, check


def test_dim_table_and_composite_series_check():
    tables = dim_table(6)
    assert tables["dipt"][0] == (1, 2, 6, 22, 90, 394)
    assert tables["mag"][0] == (1, 1, 3, 11, 45, 197)
    assert tables["ldipt"][0] == (1, 2, 5, 14, 42, 132)
    assert all(dims == reference for dims, reference in tables.values())
    # forest counts are the geometric composite of the tree counts
    mag = list(tables["mag"][0])
    assert [composition_sum(mag, n) for n in range(1, 7)] == list(tables["dipt"][0])


def test_single_generator_basis_sizes():
    assert [len(dipt_basis_of_degree(n)) for n in range(1, 6)] == [1, 2, 6, 22, 90]
    assert len(dipt_basis_2(2)) == 8
    assert [len(ldipt_basis_of_degree(n)) for n in range(1, 5)] == [1, 2, 5, 14]

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from dipterous import freealg, homology
from dipterous.linalg import LinComb
from dipterous.freealg import (
    AlgebraTarget,
    DiptBasis,
    dipt_basis_of_degree,
    eval_universal,
    generator,
    star_basis,
)
from dipterous.homology import (
    ChainKey,
    KoszulReport,
    QNBasis,
    SYM_STAR,
    SYM_SUCC,
    chain,
    chain_basis,
    differential,
    face,
    face_basis,
    homology_rank,
    homotopy,
    koszul_report,
    qn_basis_of_degree,
    qn_dim_table,
    qn_generator,
    qn_star,
    qn_succ,
)
from dipterous.trees import parse_forest
from dipterous.verify import axioms_suite

from two_letters import qn_basis_2


def be(forest_text: str, word: str) -> DiptBasis:
    return DiptBasis(parse_forest(forest_text), tuple(ord(c) - ord("a") for c in word))


V = LinComb.basis(qn_generator(0))
W = LinComb.basis(qn_generator(1))


def test_qn_star_rule():
    assert qn_star(V, W) == LinComb.basis(QNBasis((0, 1), None))


def test_qn_succ_rules():
    assert qn_succ(V, W) == LinComb.basis(QNBasis((0,), 1))
    long = LinComb.basis(QNBasis((1, 2), 0))
    assert qn_succ(V, long) == LinComb.basis(QNBasis((0, 1, 2), 0))


def test_qn_vanishing_otherwise():
    tagged = LinComb.basis(QNBasis((0,), 0))
    assert qn_succ(tagged, W).is_zero()
    assert qn_star(tagged, W).is_zero()
    assert qn_star(V, tagged).is_zero()
    # right side tagged but with a single-letter word: no rule matches
    assert qn_succ(V, tagged).is_zero()
    # right side untagged with a long word: no rule matches for succ
    assert qn_succ(V, LinComb.basis(QNBasis((1, 2), None))).is_zero()


def test_qn_dims():
    assert qn_dim_table(5) == [1, 2, 2, 2, 2]
    assert len(qn_basis_of_degree(1)) == 1
    assert len(qn_basis_of_degree(2)) == 2


def test_qn_axioms_exhaustive():
    checks = [c for c in axioms_suite() if c.name.startswith("QN: ")]
    assert len(checks) == 4
    for check in checks:
        assert check.ok, check


def test_qn_universal_identity():
    gens = {i: LinComb.basis(qn_generator(i)) for i in range(3)}
    target = AlgebraTarget(qn_star, qn_succ, gens, LinComb())
    for n in range(1, 5):
        for b in qn_basis_2(n):
            assert eval_universal(LinComb.basis(b), target) == LinComb.basis(b)


def test_qn_universal_into_trivial_succ_algebra():
    # rationals with multiplication and the zero one-sided product satisfy
    # all four vanishing axioms
    gens = {i: Fraction(1) for i in range(3)}
    t_star = lambda a, b: a * b
    t_succ = lambda a, b: Fraction(0)
    target = AlgebraTarget(t_star, t_succ, gens, Fraction(0))
    for n in range(1, 5):
        for b in qn_basis_2(n):
            expected = Fraction(0) if b.tag is not None else Fraction(1)
            assert eval_universal(LinComb.basis(b), target) == expected


def test_qn_basis_rejects_empty_word():
    with pytest.raises(ValueError):
        QNBasis((), 0)


# ---------------------------------------------------------------------------
# Chain complex.


G = generator()
T2 = be("[(| |)]", "aa")
F2 = be("[| |]", "aa")


def test_chain_key_invariants():
    with pytest.raises(ValueError):
        ChainKey(SYM_STAR, (G,))
    with pytest.raises(ValueError):
        ChainKey(None, (G, G))
    with pytest.raises(ValueError):
        ChainKey("x", (G, G))


def test_chain_basis_sizes():
    assert len(chain_basis(1, 2)) == 2
    assert len(chain_basis(2, 2)) == 2
    assert len(chain_basis(2, 3)) == 8
    assert chain_basis(2, 1) == ()


def test_face_collapse_to_arity_one():
    star_chain = ChainKey(SYM_STAR, (G, G))
    succ_chain = ChainKey(SYM_SUCC, (G, G))
    assert face_basis(1, star_chain) == ChainKey(None, (F2,))
    assert face_basis(1, succ_chain) == ChainKey(None, (T2,))


def test_face_index_bounds():
    with pytest.raises(ValueError):
        face_basis(2, ChainKey(SYM_STAR, (G, G)))


def test_last_face_identity_at_arity_three():
    c = ChainKey(SYM_SUCC, (G, G, G))
    via_succ_twice = face_basis(1, face_basis(2, c))
    via_star_then_succ = face_basis(1, face_basis(1, c))
    assert via_succ_twice == via_star_then_succ


def test_differential_squares_to_zero():
    for arity in range(2, 6):
        for weight in range(arity, 6):
            for b in chain_basis(arity, weight):
                assert differential(differential(LinComb.basis(b))).is_zero()


def test_simplicial_identities():
    for arity in range(3, 6):
        for weight in range(arity, 6):
            for b in chain_basis(arity, weight):
                x = LinComb.basis(b)
                for i in range(1, arity):
                    for j in range(i + 1, arity):
                        assert face(i, face(j, x)) == face(j - 1, face(i, x))


def test_homotopy_examples():
    assert homotopy(LinComb.basis(ChainKey(None, (G,)))).is_zero()
    # peeling an arity-1 tree gives the one-sided symbol with sign +1
    out = homotopy(LinComb.basis(ChainKey(None, (T2,))))
    assert out == LinComb.basis(ChainKey(SYM_SUCC, (G, G)))
    # peeling an arity-1 forest gives the associative symbol
    out = homotopy(LinComb.basis(ChainKey(None, (F2,))))
    assert out == LinComb.basis(ChainKey(SYM_STAR, (G, G)))


def test_homotopy_vanishes_on_mismatched_symbol():
    assert homotopy(LinComb.basis(ChainKey(SYM_SUCC, (G, F2)))).is_zero()
    assert homotopy(LinComb.basis(ChainKey(SYM_STAR, (G, T2)))).is_zero()


def test_contracting_homotopy_identity():
    for arity in range(2, 5):
        for weight in range(arity, 5):
            for b in chain_basis(arity, weight):
                x = LinComb.basis(b)
                assert differential(homotopy(x)) + homotopy(differential(x)) == x


def test_homotopy_identity_arity_one():
    # on arity 1 the complex ends, so dh alone must recover non-generators
    for weight in range(2, 5):
        for b in chain_basis(1, weight):
            x = LinComb.basis(b)
            assert differential(homotopy(x)) == x


def test_homology_ranks():
    assert homology_rank(1, 1) == 1
    assert homology_rank(1, 2) == 0
    assert homology_rank(1, 3) == 0
    assert homology_rank(2, 3) == 0
    assert homology_rank(3, 4) == 0
    with pytest.raises(ValueError):
        homology_rank(2, 1)


def test_koszul_report_clean():
    report = koszul_report(weight_cap=4)
    assert isinstance(report, KoszulReport)
    assert report.koszul_ok
    assert report.witness is None
    payload = report.to_json()
    assert payload["koszul_ok"] is True
    assert all({"arity", "weight", "kernel", "image", "betti"} <= set(p) for p in payload["pieces"])


# (arity, weight, kernel, image, betti) of every piece at the default caps.
KOSZUL_PIECES_W5 = [
    (1, 1, 1, 0, 1),
    (1, 2, 2, 2, 0),
    (1, 3, 6, 6, 0),
    (1, 4, 22, 22, 0),
    (1, 5, 90, 90, 0),
    (2, 2, 0, 0, 0),
    (2, 3, 2, 2, 0),
    (2, 4, 10, 10, 0),
    (2, 5, 46, 46, 0),
    (3, 3, 0, 0, 0),
    (3, 4, 2, 2, 0),
    (3, 5, 14, 14, 0),
    (4, 4, 0, 0, 0),
    (4, 5, 2, 2, 0),
]


def test_koszul_report_piece_table():
    report = koszul_report(weight_cap=5)
    table = [
        (p["arity"], p["weight"], p["kernel"], p["image"], p["betti"]) for p in report.pieces
    ]
    assert table == KOSZUL_PIECES_W5


def _flags(report: KoszulReport) -> tuple[bool, bool, bool, bool]:
    return (report.square_zero_ok, report.simplicial_ok, report.homotopy_ok, report.betti_ok)


def test_koszul_report_detects_tampered_signs(monkeypatch):
    true_sum = homology._alternating_sum

    def flip_first_sign(faces, c: LinComb) -> LinComb:
        image = true_sum(faces, c)
        items = sorted(image.items(), key=lambda kv: str(kv[0]))
        if not items:
            return image
        key, coeff = items[0]
        return image - LinComb.basis(key, 2 * coeff)

    monkeypatch.setattr(homology, "_alternating_sum", flip_first_sign)
    report = koszul_report(weight_cap=4)
    assert not report.koszul_ok
    assert report.witness == "d^2 != 0 on *<[|] @ a ; [|] @ a ; [|] @ a>"
    assert _flags(report) == (False, True, False, False)


# (arity, weight, kernel, image, betti) of every piece at weight cap 6.
KOSZUL_PIECES_W6 = [
    (1, 1, 1, 0, 1),
    (1, 2, 2, 2, 0),
    (1, 3, 6, 6, 0),
    (1, 4, 22, 22, 0),
    (1, 5, 90, 90, 0),
    (1, 6, 394, 394, 0),
    (2, 2, 0, 0, 0),
    (2, 3, 2, 2, 0),
    (2, 4, 10, 10, 0),
    (2, 5, 46, 46, 0),
    (2, 6, 214, 214, 0),
    (3, 3, 0, 0, 0),
    (3, 4, 2, 2, 0),
    (3, 5, 14, 14, 0),
    (3, 6, 78, 78, 0),
    (4, 4, 0, 0, 0),
    (4, 5, 2, 2, 0),
    (4, 6, 18, 18, 0),
]


def test_koszul_report_piece_table_at_weight_six():
    report = koszul_report(weight_cap=6)
    table = [
        (p["arity"], p["weight"], p["kernel"], p["image"], p["betti"]) for p in report.pieces
    ]
    assert table == KOSZUL_PIECES_W6
    assert report.koszul_ok


def _swapped_succ(a, b):
    # The > product multiplies its two slots by * and in the wrong order;
    # the report uses it only in the last face of a > chain.
    return star_basis(b, a)


def test_koszul_report_detects_a_wrong_last_face(monkeypatch):
    monkeypatch.setattr(homology, "succ_basis", _swapped_succ)
    report = koszul_report(weight_cap=4)
    assert report.simplicial_ok is False
    assert not report.koszul_ok
    assert report.witness == "d^2 != 0 on ><[(| |)] @ aa ; [|] @ a ; [|] @ a>"
    assert _flags(report) == (False, False, False, False)


def test_koszul_report_products_do_not_outlive_a_report(monkeypatch):
    # A pair-product table kept past the first report would hand the true
    # products to the second one and hide the wrong > product.
    assert koszul_report(weight_cap=4).simplicial_ok
    monkeypatch.setattr(homology, "succ_basis", _swapped_succ)
    assert koszul_report(weight_cap=4).simplicial_ok is False


def test_koszul_report_computes_each_slot_product_once(monkeypatch):
    calls = Counter()

    def counting(op, true_product):
        def counted(a, b):
            calls[op, a, b] += 1
            return true_product(a, b)

        return counted

    # Each count sits under a fresh cache over the undecorated product, so
    # it counts the distinct pairs the report multiplies through the
    # names in ``homology``.
    for op in ("star", "succ"):
        product_ = getattr(freealg, f"{op}_basis").__wrapped__
        monkeypatch.setattr(homology, f"{op}_basis", cache(counting(op, product_)))
    assert koszul_report(weight_cap=6).koszul_ok
    # Faces, the d^2, simplicial and homotopy checks all read one table.
    assert set(calls.values()) == {1}
    assert len(calls) == 786
    assert Counter(op for op, _, _ in calls) == {"star": 393, "succ": 393}


def test_koszul_report_checks_the_homotopy_only_within_its_weight_cap(monkeypatch):
    true_homotopy = homology.homotopy
    weights = Counter()

    def recording(c: LinComb) -> LinComb:
        weights.update(key.weight for key, _ in c.items())
        return true_homotopy(c)

    monkeypatch.setattr(homology, "homotopy", recording)
    report = koszul_report(weight_cap=2)
    assert report.koszul_ok
    # Only the arity-2 chains of weight 2 and their differentials are
    # peeled, not the weight-3 and weight-4 pieces the table never prints.
    assert weights and max(weights) == 2


def _pieces(weight_cap: int):
    """(arity, weight) of every nonempty piece the report visits."""
    return [
        (arity, weight)
        for arity in range(1, homology.MAX_ARITY + 2)
        for weight in range(arity, weight_cap + 1)
    ]


def test_index_chains_follow_the_text_order():
    # The report's numbering through weight 7 enumerates each piece in the
    # text order of its ChainKeys, which are exactly the piece's chains.
    slots = homology._SlotNumbering(7)
    for arity, weight in _pieces(7):
        keys = [slots.chain_key(t) for t in slots.chains(arity, weight)]
        texts = [str(key) for key in keys]
        assert texts == sorted(set(texts))
        expected = {
            chain(sym, slots_)
            for degrees in product(range(1, weight + 1), repeat=arity)
            if sum(degrees) == weight
            for slots_ in product(*map(dipt_basis_of_degree, degrees))
            for sym in (SYM_STAR, SYM_SUCC)
        }
        assert set(keys) == expected
        assert tuple(keys) == chain_basis(arity, weight)


def test_index_chain_text_is_its_chain_key_text():
    slots = homology._SlotNumbering(6)
    for arity, weight in _pieces(6):
        chains = slots.chains(arity, weight)
        assert len(chains) == len(chain_basis(arity, weight))
        for t, key in zip(chains, chain_basis(arity, weight)):
            assert str(slots.chain_key(t)) == str(key)
            assert slots.index_chain(key) == t


def test_koszul_report_columns_match_the_chain_key_oracle():
    for p in koszul_report(weight_cap=6).pieces:
        arity, weight = p["arity"], p["weight"]
        here = homology._differential_rank(arity, weight)
        assert p["kernel"] == len(chain_basis(arity, weight)) - here
        assert p["image"] == homology._differential_rank(arity + 1, weight)
        assert p["betti"] == homology_rank(arity, weight)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipterous.series import catalan_series, large_schroeder, little_schroeder
from dipterous.trees import (
    BLEAF,
    BinaryTree,
    LEAF,
    Forest,
    NapTree,
    ParseError,
    PlanarTree,
    Y1,
    _compositions,
    bin_nearrow,
    bin_nwarrow,
    corolla,
    enumerate_binary,
    enumerate_forests,
    enumerate_nap,
    enumerate_trees,
    nap_graft,
    parse,
    parse_binary,
    parse_forest,
    parse_tree,
)

V2 = PlanarTree((LEAF, LEAF))


def test_graft_basic():
    assert V2.degree == 2
    assert PlanarTree((LEAF, LEAF, LEAF)) == corolla(3)
    left_comb = PlanarTree((V2, LEAF))
    assert left_comb.degree == 3 and str(left_comb) == "((| |) |)"


def test_graft_rejects_small():
    with pytest.raises(ValueError):
        PlanarTree((LEAF,))


def test_decompose_inverse():
    assert V2.children == (LEAF, LEAF)
    assert corolla(3).children == (LEAF, LEAF, LEAF)


def test_unary_node_rejected():
    with pytest.raises(ValueError):
        PlanarTree((LEAF,))


def test_enumerate_trees_counts():
    assert [len(enumerate_trees(n)) for n in range(1, 9)] == little_schroeder(8)
    assert enumerate_trees(1) == (LEAF,)
    assert len(enumerate_trees(3)) == 3


def test_enumerate_trees_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_forests(0)


def test_enumerate_forests_counts():
    assert [len(enumerate_forests(n)) for n in range(1, 9)] == large_schroeder(8)
    assert [str(f) for f in enumerate_forests(2)] == ["[(| |)]", "[| |]"]


def test_graft_decompose_roundtrip_all_degree_le_6():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert PlanarTree(t.children) == t


def test_corolla():
    assert corolla(2) == V2
    assert str(corolla(3)) == "(| | |)"
    assert corolla(4).degree == 4 and all(c.is_leaf for c in corolla(4).children)
    with pytest.raises(ValueError):
        corolla(1)


def test_enumerate_binary_counts():
    assert [len(enumerate_binary(n)) for n in range(0, 9)] == catalan_series(9)


def test_bin_ops():
    right_comb = bin_nwarrow(Y1, Y1)
    assert right_comb == BinaryTree(BLEAF, Y1)
    assert bin_nwarrow(BLEAF, Y1) == Y1
    assert bin_nwarrow(Y1, BLEAF) == Y1
    # mirror: glue onto the leftmost leaf
    assert bin_nearrow(Y1, Y1) == BinaryTree(Y1, BLEAF)
    assert bin_nearrow(BLEAF, Y1) == Y1


def test_bin_nwarrow_degrees_add():
    for r in enumerate_binary(2):
        for s in enumerate_binary(3):
            assert bin_nwarrow(r, s).degree == 5
            assert BinaryTree(r, s).degree == 6


def test_encode_parse_examples():
    assert str(V2) == "(| |)"
    assert parse("[(| |) |]") == Forest((V2, LEAF))
    assert parse("[(| |) |]").degree == 3
    assert str(NapTree("v", (NapTree("w"),))) == "v[w]"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_tree("(|")
    with pytest.raises(ParseError):
        parse_tree("(|)")
    with pytest.raises(ParseError):
        parse_forest("[| |")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse_tree("(| |) junk")


def test_roundtrip_on_enumerations():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert parse_tree(str(t)) == t
        for f in enumerate_forests(n):
            assert parse_forest(str(f)) == f
    for n in range(0, 5):
        for b in enumerate_binary(n):
            assert parse_binary(str(b)) == b


def test_encodings_injective_per_enumeration():
    for n in range(1, 7):
        codes = [str(t) for t in enumerate_trees(n)]
        assert len(set(codes)) == len(codes)
        fcodes = [str(f) for f in enumerate_forests(n)]
        assert len(set(fcodes)) == len(fcodes)


def test_enumeration_sorted_by_encoding():
    for n in range(1, 6):
        codes = [str(t) for t in enumerate_trees(n)]
        assert codes == sorted(codes)


planar_trees = st.integers(1, 7).flatmap(lambda n: st.sampled_from(enumerate_trees(n)))
forests = st.lists(planar_trees, min_size=1, max_size=3).map(lambda ts: Forest(tuple(ts)))


@given(planar_trees)
@settings(max_examples=80)
def test_planar_roundtrip_random(t):
    assert parse_tree(str(t)) == t
    if not t.is_leaf:
        assert PlanarTree(t.children) == t


@given(forests)
@settings(max_examples=60)
def test_forest_roundtrip_random(f):
    assert parse_forest(str(f)) == f
    assert f.degree == sum(t.degree for t in f.trees)


@st.composite
def nap_trees(draw, max_nodes=5):
    label = draw(st.sampled_from("vwu"))
    n = draw(st.integers(0, max_nodes - 1))
    children = []
    while n > 0:
        k = draw(st.integers(1, n))
        children.append(draw(nap_trees(max_nodes=k)))
        n -= children[-1].degree
    return NapTree(label, tuple(children))


@given(nap_trees())
@settings(max_examples=60)
def test_nap_roundtrip(t):
    assert parse(str(t)) == t


def test_nap_children_sorted():
    t = NapTree("v", (NapTree("w"), NapTree("u")))
    assert str(t) == "v[u,w]"


def test_nap_graft_examples():
    v, w, u = NapTree("v"), NapTree("w"), NapTree("u")
    assert str(nap_graft(v, w)) == "v[w]"
    assert nap_graft(nap_graft(v, w), u) == nap_graft(nap_graft(v, u), w)
    vw = nap_graft(v, w)
    assert str(nap_graft(v, vw)) == "v[v[w]]"


def test_nap_identity_exhaustive_degree_le_6():
    for na in range(1, 5):
        for nb in range(1, 6 - na):
            for nc in range(1, 7 - na - nb):
                for x in enumerate_nap(na):
                    for y in enumerate_nap(nb):
                        for z in enumerate_nap(nc):
                            assert nap_graft(nap_graft(x, y), z) == nap_graft(
                                nap_graft(x, z), y
                            )


def test_enumerate_nap_counts_single_label():
    # rooted unlabeled trees: 1, 1, 2, 4, 9, 20
    assert [len(enumerate_nap(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_enumerate_nap_two_labels():
    assert len(enumerate_nap(1, ("v", "w"))) == 2
    assert len(enumerate_nap(2, ("v", "w"))) == 4


def test_compositions_have_exactly_the_given_parts_in_lexicographic_order():
    for n in range(1, 11):
        for parts in range(1, n + 1):
            comps = list(_compositions(n, parts))
            assert len(set(comps)) == len(comps) == math.comb(n - 1, parts - 1)
            assert all(len(c) == parts and min(c) >= 1 and sum(c) == n for c in comps)
            assert comps == sorted(comps)

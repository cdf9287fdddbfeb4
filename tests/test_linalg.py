from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipterous import linalg
from dipterous.bialgebras import (
    _antipode_basis,
    antipode_S,
    antipode_Sprime,
    antipode_table,
    blacktriangle_basis,
    primcom_dims,
    vartriangle_basis,
)
from dipterous.coproducts import filtration_dims
from dipterous.freealg import dipt_basis_of_degree
from dipterous.homology import koszul_report
from dipterous.linalg import (
    LinComb,
    SparseMatrix,
    _echelon,
    canon,
    intersect_kernels,
    kernel_basis,
    kernel_of_operator,
    linear,
    map_slot,
    matrix_of_images,
    operator_rank,
    parse_rational,
    rank,
    tensor_product,
)
from dipterous.verify import antipode_witness

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=9)
lincombs = st.dictionaries(st.sampled_from("pqrst"), fractions, max_size=5).map(LinComb)


def test_lc_add_cancellation():
    assert (LinComb({"k1": 1}) + LinComb({"k1": -1})).is_zero()


def test_lc_add_disjoint_supports():
    out = LinComb({"k1": Fraction(1, 2)}) + LinComb({"k2": Fraction(1, 3)})
    assert out.terms == {"k1": Fraction(1, 2), "k2": Fraction(1, 3)}


def test_lc_add_like_terms():
    out = LinComb({"k1": Fraction(2, 3)}) + LinComb({"k1": Fraction(1, 3)})
    assert out.terms == {"k1": Fraction(1)}


def test_lc_scale_by_zero_and_one_and_minus_one():
    a = LinComb({"k1": 5})
    assert (0 * a).is_zero()
    assert 1 * a == a
    assert -1 * LinComb({"k1": Fraction(1, 2)}) == LinComb({"k1": Fraction(-1, 2)})


@given(lincombs, lincombs, lincombs)
def test_lc_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(fractions, lincombs, lincombs)
def test_lc_scale_distributes(s, a, b):
    assert s * (a + b) == s * a + s * b


def test_basis_stores_an_exact_scalar_and_no_zero():
    assert LinComb.basis("k", 0).is_zero()
    two = LinComb.basis("k", Fraction(4, 2)).terms["k"]
    assert (two, type(two)) == (2, int)
    assert LinComb.basis("k", Fraction(1, 2)).terms == {"k": Fraction(1, 2)}


def test_parse_rational_reads_fractions_and_decimals_but_no_exponent():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational(" 1.25 ") == Fraction(5, 4)
    for text in ("1e400", "2E-5", "1.5e3"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_no_zero_coefficients_stored():
    assert LinComb({"k1": 0, "k2": 1}).terms == {"k2": Fraction(1)}


def test_kernel_single_row():
    basis = kernel_basis(SparseMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    assert basis[0] == LinComb({0: -1, 1: 1})


def test_kernel_identity_empty():
    m = SparseMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(m) == []


def test_kernel_dependent_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == LinComb({0: -2, 1: 1})
    assert rank(m.row_dicts()) == 1


def test_rank_zero_and_identity():
    assert rank(SparseMatrix(3, 4, {}).row_dicts()) == 0
    assert rank(SparseMatrix.from_rows([[1, 0], [0, 1]]).row_dicts()) == 2


def test_intersect_kernels_trivial():
    m1 = SparseMatrix.from_rows([[1, 0]])
    m2 = SparseMatrix.from_rows([[0, 1]])
    assert intersect_kernels([m1, m2]) == []


def test_intersect_kernels_full():
    zero = SparseMatrix(1, 2, {})
    assert len(intersect_kernels([zero, zero])) == 2


def test_intersect_kernels_stacked():
    m1 = SparseMatrix.from_rows([[1, 1]])
    m2 = SparseMatrix.from_rows([[1, -1]])
    assert intersect_kernels([m1, m2]) == []


def test_intersect_kernels_column_mismatch():
    with pytest.raises(ValueError):
        intersect_kernels([SparseMatrix(1, 2, {}), SparseMatrix(1, 3, {})])


matrices = st.integers(2, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=5,
    ).map(lambda rows: SparseMatrix.from_rows(rows, ncols))
)


@given(matrices)
@settings(max_examples=80)
def test_rank_nullity_and_kernel_vectors(m):
    basis = kernel_basis(m)
    assert rank(m.row_dicts()) + len(basis) == m.ncols
    for vec in basis:
        products = [sum(c * vec.coeff(j) for j, c in row.items()) for row in m.row_dicts()]
        assert not any(products)


def test_matrix_of_images_orders_rows_by_first_appearance():
    images = [LinComb({"b": 1}), LinComb({"a": 2, "b": 1})]
    m, row_keys = matrix_of_images(images)
    assert row_keys == ["b", "a"]
    assert m.entries == {(0, 0): 1, (1, 1): 2, (0, 1): 1}


ROW_KEYS = "pqrst"
images_lists = st.lists(
    st.dictionaries(st.sampled_from(ROW_KEYS), st.integers(-3, 3), max_size=4).map(LinComb),
    min_size=1,
    max_size=6,
)


@given(images_lists, st.permutations(ROW_KEYS))
@settings(max_examples=150)
def test_row_key_permutation_keeps_rank_and_kernel(images, perm):
    # Listing each image's terms in the order ``perm`` gives the row keys
    # that order of first appearance, so the matrix rows are permuted.
    moved = [LinComb({k: img.coeff(k) for k in perm if img.coeff(k)}) for img in images]
    assert sorted(matrix_of_images(moved)[1]) == sorted(matrix_of_images(images)[1])
    basis = list(range(len(images)))
    assert operator_rank(moved) == operator_rank(images)
    assert kernel_of_operator(basis, moved) == kernel_of_operator(basis, images)


def test_tensor_element_arity_checks():
    te = tensor_product(LinComb({"a": 2}), LinComb({"b": Fraction(1, 2)}))
    assert te.coeff(("a", "b")) == 1


def test_tensor_map_slot():
    te = LinComb({("a", "b"): 1})
    out = map_slot(te, 0, lambda k: LinComb({(k + "1", k + "2"): 2}))
    assert all(len(key) == 3 for key in out.terms)
    assert out.coeff(("a1", "a2", "b")) == 2


def reference_kernel(m):
    """Dense Fraction Gauss-Jordan: (rank, kernel vectors as {col: coeff} dicts)."""
    rows = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for (i, j), c in m.entries.items():
        rows[i][j] = Fraction(c)
    pivots = []
    r = 0
    for col in range(m.ncols):
        p = next((i for i in range(r, m.nrows) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    vecs = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for k, pcol in enumerate(pivots):
            if rows[k][free]:
                vec[pcol] = -rows[k][free]
        vecs.append(vec)
    return len(pivots), vecs


def sized_matrices(entries):
    return st.integers(1, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=7
        ).map(lambda rows: SparseMatrix.from_rows(rows, ncols))
    )


int_or_fraction = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def check_against_reference(m):
    before = dict(m.entries)
    ref_rank, ref_vecs = reference_kernel(m)
    assert rank(m.row_dicts()) == ref_rank
    assert [vec.terms for vec in kernel_basis(m)] == ref_vecs
    assert m.entries == before


@given(sized_matrices(st.integers(-4, 4)))
@settings(max_examples=150)
def test_integer_matrices_match_dense_reference(m):
    check_against_reference(m)


@given(sized_matrices(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))))
@settings(max_examples=150)
def test_rational_matrices_match_dense_reference(m):
    check_against_reference(m)


def test_kernel_non_unit_pivot():
    m = SparseMatrix.from_rows([[2, 1]])
    assert kernel_basis(m) == [LinComb({0: Fraction(-1, 2), 1: 1})]
    assert rank(m.row_dicts()) == 1


def test_rank_and_kernel_leave_entries_unchanged():
    m = SparseMatrix.from_rows([[1, 1, 0], [1, 0, 1], [2, 1, 1], [0, 3, Fraction(1, 2)]])
    before = dict(m.entries)
    rank(m.row_dicts())
    kernel_basis(m)
    assert m.entries == before
    assert [(c, type(c)) for c in m.entries.values()] == [(c, type(c)) for c in before.values()]


COLUMN_KEYS = {"str": lambda j: f"c{j}", "tuple": lambda j: ("c", j)}


def keyed_rows(m, key):
    """The rows of ``m`` as dicts over the column keys ``key(j)``."""
    return [{key(j): c for j, c in row.items()} for row in m.row_dicts()]


def transpose(m):
    return SparseMatrix(m.ncols, m.nrows, {(j, i): c for (i, j), c in m.entries.items()})


@given(sized_matrices(int_or_fraction), st.sampled_from(sorted(COLUMN_KEYS)))
@settings(max_examples=150)
def test_rank_of_keyed_rows_matches_dense_reference(m, key_form):
    key = COLUMN_KEYS[key_form]
    for a in (m, transpose(m)):
        assert rank(keyed_rows(a, key)) == reference_kernel(a)[0]
    assert rank(iter(keyed_rows(m, key))) == reference_kernel(m)[0]


def test_rank_leaves_its_rows_and_scalar_types_unchanged():
    # Content division and elimination would rewrite these rows in place.
    rows = [
        {"a": Fraction(1, 2), "b": Fraction(3, 1), ("c", 1): 0},
        {"a": 2, "b": 12},
        {("c", 1): Fraction(3, 2), "b": 6},
    ]
    before = [[(k, c, type(c)) for k, c in row.items()] for row in rows]
    assert rank(rows) == 2
    assert [[(k, c, type(c)) for k, c in row.items()] for row in rows] == before


def test_ranks_assemble_no_matrix(monkeypatch):
    # The rank path reads the images as rows, so it never builds a matrix.
    def assembled(*args, **kwargs):
        raise AssertionError("a matrix was assembled")

    monkeypatch.setattr(linalg, "matrix_of_images", assembled)
    monkeypatch.setattr(SparseMatrix, "__init__", assembled)
    assert filtration_dims(1, 6)[-1] == 197
    dims, oracle = primcom_dims(5)
    assert dims == oracle
    assert koszul_report(5).koszul_ok


def is_exact(c) -> bool:
    """An int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


mixed_scalars = st.one_of(st.integers(-5, 5), fractions)


@given(
    st.dictionaries(st.sampled_from("pqrst"), mixed_scalars, max_size=5).map(LinComb),
    st.dictionaries(st.sampled_from("pqrst"), mixed_scalars, max_size=5).map(LinComb),
    mixed_scalars,
)
def test_lincomb_arithmetic_keeps_exact_scalars(a, b, s):
    for out in (a + b, a - b, s * a, -a, tensor_product(a, b)):
        assert all(is_exact(c) for c in out.terms.values())


@given(sized_matrices(int_or_fraction))
@settings(max_examples=100)
def test_kernel_vectors_hold_exact_scalars(m):
    assert all(is_exact(c) for c in m.entries.values())
    for vec in kernel_basis(m):
        assert all(is_exact(c) for c in vec.terms.values())


def test_integral_scalars_are_ints():
    half = LinComb({"p": Fraction(1, 2)})
    sums = [LinComb({"p": Fraction(4, 2)}), half + half, LinComb([("p", Fraction(1, 2))] * 2), 2 * half]
    assert [(x.terms, type(x.coeff("p"))) for x in sums] == [({"p": 2}, int)] + [({"p": 1}, int)] * 3
    assert type(SparseMatrix.from_rows([[Fraction(3, 1), "1/2"]]).entries[(0, 0)]) is int


def test_content_division_gives_unit_pivots():
    # Every entry is 1/2: after dividing rows by their content, each pivot
    # is a unit and no Fraction is built.
    half = Fraction(1, 2)
    m = SparseMatrix.from_rows([[half, half, 0], [0, half, half], [half, 0, -half]])
    rows, pivots = _echelon(m.row_dicts(), m.ncols)
    assert pivots == [0, 1]
    assert all(type(c) is int for row in rows for c in row.values())
    assert kernel_basis(m) == [LinComb({0: 1, 1: -1, 2: 1})]
    # Integer rows with content 2 and 3 become the unit rows (1, 2), (1, 1).
    rows, pivots = _echelon(SparseMatrix.from_rows([[2, 4], [3, 3]]).row_dicts(), 2)
    assert pivots == [0, 1]
    assert all(type(c) is int for row in rows for c in row.values())
    # Negative integer content, a mixed int/Fraction row and an empty row.
    negative = {0: -2, 1: -4}
    mixed = {0: Fraction(1, 2), 1: 3}
    for row, unit_rows in ((negative, [{0: 1, 1: 2}]), (mixed, [{0: 1, 1: 6}]), ({}, [])):
        assert rank([row]) == len(unit_rows)
        rows, pivots = _echelon([dict(row)], 2)
        assert rows == unit_rows
        assert pivots == [0] * len(unit_rows)
        assert all(type(c) is int for r in rows for c in r.values())
    assert rank([negative, mixed, {}]) == 2


images_of_pqrst = st.fixed_dictionaries(
    {k: st.dictionaries(st.sampled_from("uvw"), mixed_scalars, max_size=3).map(LinComb) for k in "pqrst"}
)


@given(st.dictionaries(st.sampled_from("pqrst"), mixed_scalars, min_size=2, max_size=5).map(LinComb), images_of_pqrst)
@example(LinComb({"p": 1, "q": 1}), {**{k: LinComb() for k in "rst"}, "p": LinComb({"u": 1, "v": 1}), "q": LinComb({"u": 1, "v": -1})})
def test_linear_is_the_termwise_sum(x, table):
    expected = LinComb()
    for k, c in x.items():
        expected = expected + c * table[k]
    assert linear(table.__getitem__)(x) == expected


def test_linear_shares_the_image_of_a_unit_basis_vector():
    image = LinComb({"u": 2, "v": Fraction(-1, 3)})
    apply = linear(lambda key: image)
    assert apply(LinComb.basis("p")) is image
    doubled = apply(2 * LinComb.basis("p"))
    assert doubled is not image
    assert doubled == 2 * image
    assert image.terms == {"u": 2, "v": Fraction(-1, 3)}


def test_cached_antipode_images_are_never_mutated():
    keys = [b for n in range(1, 5) for b in dipt_basis_of_degree(n)]
    cached = {(b, cop): _antipode_basis(b, cop) for b in keys for cop in (blacktriangle_basis, vartriangle_basis)}
    snapshot = {key: dict(img.terms) for key, img in cached.items()}
    antipode_table(4)
    assert antipode_witness(4) is None
    for b in keys:
        x = LinComb.basis(b)
        assert antipode_S(x) is cached[(b, blacktriangle_basis)]
        assert antipode_Sprime(x) is cached[(b, vartriangle_basis)]
        assert 2 * antipode_S(x) == 2 * cached[(b, blacktriangle_basis)]
    assert {key: dict(img.terms) for key, img in cached.items()} == snapshot


def _listed_repr(x: LinComb) -> str:
    """The term-by-term report text: support sorted by canon, each key printed by str."""
    if not x.terms:
        return "0"
    bits = []
    for k in sorted(x.terms, key=canon):
        c = x.terms[k]
        mag = -c if c < 0 else c
        bits.append(("-" if c < 0 else "+", f"{k}" if mag == 1 else f"{mag} {k}"))
    out = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    for sign, body in bits[1:]:
        out += f" {sign} {body}"
    return out


# "(a)" and ("a",), "(b ; a)" and ("b", "a") tie under canon; ties keep insertion order.
repr_keys = st.sampled_from(["a", "b", "(a)", ("a",), ("b", "a"), "(b ; a)", 3, (3, "a")])


@given(st.lists(st.tuples(repr_keys, mixed_scalars), max_size=8).map(LinComb))
def test_repr_matches_the_term_by_term_text(x):
    assert repr(x) == _listed_repr(x)

"""Exact rational sparse linear algebra.

Everything downstream (primitive spaces, homology ranks, antipode
recursions) reduces to kernel and rank computations over the rationals,
so this module is deliberately float-free. A scalar (a LinComb
coefficient or a matrix entry) is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a float; every division goes
through ``Fraction``. Elimination is exact sparse Gaussian elimination
over the rationals: each row is first divided by its content, so it is a
primitive integer vector, and unit pivots come first, so a matrix with
unit pivots never builds a ``Fraction``. Ranks come from the forward
echelon form; kernels from the reduced row echelon form, which is unique
and hence reproducible.

The caller of the elimination picks the column order. ``rank`` takes a
matrix as sparse rows over any column keys and numbers the sparsest
columns first; ``operator_rank`` passes an operator's images as those
rows, since a matrix and its transpose have the same rank, so no matrix
is assembled. A kernel is read off in basis order, so
``kernel_of_operator`` assembles the matrix whose columns are the images.

``LinComb`` is the only element type. A tensor is a LinComb whose keys are
tuples of basis keys (the arity of a term is the length of its key), and
an element of a unit extension is a LinComb with a key for the unit.

All values are immutable after construction and all functions are pure,
so concurrent use needs no locking. In particular a LinComb is never
mutated once built, which is what lets ``linear`` return a cached image
itself instead of a copy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Scalar = Fraction | int


def as_scalar(c: Scalar | str) -> Scalar:
    """Exact value of ``c``: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def canon(key) -> str:
    """Canonical sort string for a basis key (tuples recurse)."""
    if isinstance(key, tuple):
        return "(" + " ; ".join(canon(k) for k in key) + ")"
    return str(key)


class LinComb:
    """Finitely supported map from basis keys to rationals.

    Zero coefficients are never stored, so two equal combinations have
    equal term dicts. Keys may be anything hashable whose ``str`` is
    canonical (equal elements stringify identically). ``terms`` is a dict
    or a stream of ``(key, coeff)`` pairs; repeated keys are summed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable[tuple] | None = None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                if type(c) is not int:
                    c = as_scalar(c)
                if c:
                    acc = data.get(k)
                    if acc is None:
                        data[k] = c
                    else:
                        acc += c
                        if acc:
                            data[k] = acc if type(acc) is int else as_scalar(acc)
                        else:
                            del data[k]
        self.terms = data

    @classmethod
    def basis(cls, key, coeff: Scalar = 1) -> "LinComb":
        return cls({key: coeff})

    def coeff(self, key) -> Scalar:
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def items(self):
        return self.terms.items()

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k, 0) + c
            if acc:
                out[k] = acc if type(acc) is int else as_scalar(acc)
            else:
                out.pop(k, None)
        res = LinComb.__new__(LinComb)
        res.terms = out
        return res

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1) * other

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, c: Scalar) -> "LinComb":
        c = as_scalar(c)
        res = LinComb.__new__(LinComb)
        res.terms = {k: as_scalar(c * v) for k, v in self.terms.items()} if c else {}
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def map_keys(self, fn) -> "LinComb":
        """Relabel basis keys through ``fn`` (merging collisions)."""
        return LinComb((fn(k), c) for k, c in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        # Terms sort by canon text alone, so equal texts keep insertion order.
        out = []
        for text, k, c in sorted(((canon(k), k, c) for k, c in self.terms.items()), key=itemgetter(0)):
            if isinstance(k, tuple):
                text = str(k)
            mag = -c if c < 0 else c
            out += ("-" if c < 0 else "+", text if mag == 1 else f"{mag} {text}")
        return ("-" if out[0] == "-" else "") + " ".join(out[1:])


def linear(fn: Callable) -> Callable[[LinComb], LinComb]:
    """Linear extension of a map given on basis keys.

    ``fn`` sends a basis key to a LinComb; the extension sends x to the sum
    of c * fn(k) over the terms c k of x. On a single key with coefficient
    1 it returns ``fn``'s image object itself, so a cached image is shared,
    not copied.
    """

    def apply(x: LinComb) -> LinComb:
        terms = x.terms
        if len(terms) == 1:
            ((key, c),) = terms.items()
            if c == 1:
                return fn(key)
        return LinComb((k, c * d) for key, c in terms.items() for k, d in fn(key).items())

    return apply


def bilinear(op: Callable) -> Callable[..., LinComb]:
    """Bilinear extension of a product given on basis keys.

    ``op(a, b)`` returns the key of the product of two basis keys, or None
    when that product is zero. The extension takes two LinCombs and
    returns a LinComb.
    """

    def apply(x, y) -> LinComb:
        return LinComb(
            (key, ca * cb)
            for ka, ca in x.items()
            for kb, cb in y.items()
            if (key := op(ka, kb)) is not None
        )

    return apply


def map_slot(x: LinComb, slot: int, fn: Callable) -> LinComb:
    """Apply ``fn`` to one slot of a tensor, splicing its image in.

    ``x`` has tuple keys and ``fn`` sends a key to a LinComb over tuples.
    Each image tuple replaces the slot's key, so an arity-n tensor and
    arity-m images give an arity n + m - 1 tensor.
    """
    return LinComb(
        (key[:slot] + sub + key[slot + 1 :], c * d)
        for key, c in x.items()
        for sub, d in fn(key[slot]).items()
    )


# a (x) b: pairs the keys of two linear combinations into arity-2 tensor keys.
tensor_product = bilinear(lambda ka, kb: (ka, kb))


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse exact matrix; no zero entries are stored."""

    nrows: int
    ncols: int
    entries: Mapping[tuple[int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.entries.items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise ValueError(f"entry ({i}, {j}) out of bounds")
            c = as_scalar(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> "SparseMatrix":
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    entries[(i, j)] = as_scalar(c)
        return cls(nrows, ncols, entries)

    def row_dicts(self) -> list[dict[int, Scalar]]:
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.nrows)]
        for (i, j), c in self.entries.items():
            rows[i][j] = c
        return rows


def _echelon(rows: list[dict[int, Scalar]], ncols: int) -> tuple[list[dict[int, Scalar]], list[int]]:
    """Forward row echelon form of fresh row dicts; returns (pivot rows, pivot columns).

    Each row is first divided in place by its content (the gcd of its
    numerators over the lcm of its denominators), which leaves a primitive
    integer vector spanning the same line. A matrix whose pivots are then
    all units, such as t * M for a rational t != 0 and an integer M with
    unit pivots, is eliminated without a ``Fraction``. A column -> row-id index
    (lists that may hold stale or repeated ids, filtered when read) finds
    the candidate rows of each column. The pivot is a candidate with a +-1
    entry, fewest nonzeros first; elimination runs below the pivot only.
    Each pivot row is scaled to 1 at its pivot, and the pivot columns come
    in increasing order. Columns are eliminated in index order, so the
    caller's numbering is the column order: ``rank`` puts the sparsest
    columns first, and ``kernel_basis`` keeps the basis order.
    """
    index: list[list[int]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        num = gcd(*(c.numerator for c in row.values()))
        den = lcm(*(c.denominator for c in row.values()))
        if num != 1 or den != 1:
            for j, c in row.items():
                row[j] = c.numerator // num * (den // c.denominator)
        for j in row:
            index[j].append(i)
    done = [False] * len(rows)
    pivot_rows: list[dict[int, Scalar]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        cands = [i for i in dict.fromkeys(index[col]) if not done[i] and col in rows[i]]
        index[col] = []
        if not cands:
            continue
        units = [i for i in cands if rows[i][col] in (1, -1)]
        p = min(units or cands, key=lambda i: len(rows[i]))
        done[p] = True
        prow = rows[p]
        lead = prow[col]
        if lead == -1:
            prow = {j: -c for j, c in prow.items()}
        elif lead != 1:
            inv = Fraction(1, lead)
            prow = {j: inv * c for j, c in prow.items()}
        for i in cands:
            if i == p:
                continue
            row = rows[i]
            f = row[col]
            for j, c in prow.items():
                had = j in row
                acc = (row[j] if had else 0) - f * c
                if acc:
                    row[j] = acc
                    if not had:
                        index[j].append(i)
                elif had:
                    del row[j]
        pivot_rows.append(prow)
        pivot_cols.append(col)
    return pivot_rows, pivot_cols


def rank(rows: Iterable[Mapping]) -> int:
    """Exact rank over the rationals of a matrix given by its sparse rows.

    Each row maps hashable column keys to ``int`` or ``Fraction`` entries;
    zero entries are skipped. The input is left unchanged: the columns are
    renumbered into fresh row dicts, fewest nonzeros first (ties in order
    of first appearance), so the sparsest columns are eliminated first and
    fill-in stays low (the Markowitz heuristic, restricted to columns).
    """
    rows = list(rows)
    count = Counter(k for row in rows for k in row)
    col = {k: j for j, k in enumerate(sorted(count, key=count.__getitem__))}
    fresh = [{col[k]: c for k, c in row.items() if c} for row in rows]
    del rows  # a generator's rows are not held during elimination
    _, pivots = _echelon(fresh, len(col))
    return len(pivots)


def kernel_basis(m: SparseMatrix) -> list[LinComb]:
    """Exact basis of the null space, as LinCombs over column indices.

    Vectors come from the reduced echelon form: one per free column, with
    coefficient 1 on the free column, ordered by free column index. This
    normalization is unique, so results are reproducible across runs and
    do not depend on which rows were chosen as pivots.
    """
    rows, pivot_cols = _echelon(m.row_dicts(), m.ncols)
    # Back-substitution, last pivot first. Row k then holds its pivot and
    # free columns only, so clearing pivot column k from the rows above
    # fills in free columns only, and the pivot-column index stays exact.
    pos = {pcol: k for k, pcol in enumerate(pivot_cols)}
    above: list[list[int]] = [[] for _ in pivot_cols]
    for i, row in enumerate(rows):
        for j in row:
            k = pos.get(j)
            if k is not None and k != i:
                above[k].append(i)
    for k in reversed(range(len(rows))):
        prow, pcol = rows[k], pivot_cols[k]
        for i in above[k]:
            row = rows[i]
            f = row.pop(pcol)
            for j, c in prow.items():
                if j != pcol:
                    acc = row.get(j, 0) - f * c
                    if acc:
                        row[j] = acc
                    else:
                        row.pop(j, None)
    vecs = {free: {free: 1} for free in range(m.ncols) if free not in pos}
    for row, pcol in zip(rows, pivot_cols):
        for j, c in row.items():
            if j != pcol:
                vecs[j][pcol] = -c
    return [LinComb(vec) for vec in vecs.values()]


def intersect_kernels(ms: Sequence[SparseMatrix]) -> list[LinComb]:
    """Basis of the intersection of null spaces (kernel of the stacked matrix)."""
    if not ms:
        raise ValueError("need at least one matrix")
    ncols = ms[0].ncols
    for m in ms:
        if m.ncols != ncols:
            raise ValueError("matrices must share the same column universe")
    entries = {}
    offset = 0
    for m in ms:
        for (i, j), c in m.entries.items():
            entries[(offset + i, j)] = c
        offset += m.nrows
    return kernel_basis(SparseMatrix(offset, ncols, entries))


def matrix_of_images(images: Sequence[LinComb]) -> tuple[SparseMatrix, list]:
    """Matrix of a linear map from the images of ordered basis vectors.

    Column j holds ``images[j]``; rows are the union of output keys, in
    order of first appearance (row order changes neither the rank nor the
    reduced echelon kernel). Returns the matrix together with the row key
    list.
    """
    row_keys = list(dict.fromkeys(k for img in images for k in img.terms))
    index = {k: i for i, k in enumerate(row_keys)}
    entries = {}
    for j, img in enumerate(images):
        for k, c in img.items():
            entries[(index[k], j)] = c
    return SparseMatrix(len(row_keys), len(images), entries), row_keys


def operator_rank(images: Iterable[LinComb]) -> int:
    """Rank of an operator given by the images of an ordered basis.

    The images are the rows of the transposed matrix, whose rank is the
    same, so no matrix is assembled. The rows are all built before ``rank``
    is called, so a timer around ``rank`` sees elimination only.
    """
    return rank([img.terms for img in images])


def kernel_of_operator(basis: Sequence, images: Iterable[LinComb]) -> list[LinComb]:
    """Kernel of an operator given on an ordered basis, re-keyed to that basis.

    The images are released before elimination starts, so a caller that
    passes a generator never holds them during it.
    """
    matrix, _ = matrix_of_images(list(images))
    return [vec.map_keys(basis.__getitem__) for vec in kernel_basis(matrix)]

"""The Koszul-dual free algebra and the chain complex of the free algebra.

The dual algebra lives on (word, tag) pairs with tag either the unit or a
single generator: products follow three rules (word concatenation on
untagged pairs for the associative product, and two absorption rules for
the one-sided product) and vanish on every other basis combination, which
makes the four vanishing identities

    (x > y) * z = 0,   x > (y * z) = 0,   x * (y > z) = 0,   (x > y) > z = 0

hold on the nose. Its dimensions are 1, 2, 2, 2, ... Each key of degree
>= 2 splits for ``freealg.eval_basis``: a tagged word is the untagged word
> its tag letter, an untagged word is its prefix * its last letter, so the
universal property evaluates by the same recursion as on forests.

The chain complex of the free two-product algebra has modules
C_n = K{*,>} (x) D^(x)n for n >= 2 and C_1 = D. Face maps multiply
adjacent slots: the * symbol always uses the associative product, the >
symbol uses it except at the last position, where the one-sided product
applies. The differential is the alternating face sum; a contracting
homotopy peels the last slot through the canonical basis splitting and
certifies exactness above degree one, i.e. Betti numbers (1, 0, 0, ...)
in arity 1 and zero in higher arities. Each Betti number is
dim C - rank(d here) - rank(d one arity up) on a graded piece, with every
rank taken once per report, from the basis images the d^2 check also uses.
The faces of each basis chain are likewise computed once per report, into
a table that the differentials, the d^2 check and the simplicial check
share and that is freed with the report.

``koszul_report`` takes only the weight cap of its Betti table and face
checks. The table's arity cap is ``MAX_ARITY`` (the face checks go one
arity higher), and the homotopy check runs up to weight
``HOMOTOPY_WEIGHT_CAP``, which also bounds its arity, since a chain's
arity never exceeds its weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterable

from .linalg import LinComb, bilinear, linear, operator_rank
from .freealg import (
    OP_STAR,
    OP_SUCC,
    DiptBasis,
    decompose_basis,
    dipt_basis_of_degree,
    star_basis,
    succ_basis,
    word_str,
)
from .trees import Forest, Interned, _compositions

SYM_STAR = "*"
SYM_SUCC = ">"

MAX_ARITY = 4
HOMOTOPY_WEIGHT_CAP = 4


# ---------------------------------------------------------------------------
# Free Koszul-dual algebra on (word, tag) pairs.


class QNBasis(Interned):
    """A nonempty word with an optional trailing generator tag."""

    __slots__ = ("word", "tag", "degree")
    _fields = ("word", "tag")

    def __new__(cls, word: tuple[int, ...], tag: int | None = None):
        return cls._intern((word, tag))

    @staticmethod
    def _derive(word, tag) -> tuple:
        if not word:
            raise ValueError("words are nonempty")
        return (len(word) + (0 if tag is None else 1),)

    def __str__(self) -> str:
        tag = "1" if self.tag is None else word_str((self.tag,))
        return f"{word_str(self.word)} @ {tag}"

    def split(self) -> tuple[str, QNBasis, QNBasis]:
        """(op, left, right) with op's product of the halves equal to self."""
        if self.tag is not None:
            return (OP_SUCC, QNBasis(self.word), qn_generator(self.tag))
        return (OP_STAR, QNBasis(self.word[:-1]), QNBasis(self.word[-1:]))


def qn_generator(i: int = 0) -> QNBasis:
    return QNBasis((i,), None)


def qn_star_basis(a: QNBasis, b: QNBasis) -> QNBasis | None:
    if a.tag is None and b.tag is None:
        return QNBasis(a.word + b.word, None)
    return None


def qn_succ_basis(a: QNBasis, b: QNBasis) -> QNBasis | None:
    if a.tag is not None:
        return None
    if b.tag is not None and len(b.word) >= 2:
        return QNBasis(a.word + b.word, b.tag)
    if b.tag is None and len(b.word) == 1:
        return QNBasis(a.word, b.word[0])
    return None


qn_star = bilinear(qn_star_basis)
qn_succ = bilinear(qn_succ_basis)


@cache
def qn_basis_of_degree(n: int, num_gens: int = 1) -> tuple[QNBasis, ...]:
    if n < 1:
        raise ValueError("degree must be >= 1")
    out = [QNBasis(w, None) for w in product(range(num_gens), repeat=n)]
    if n >= 2:
        out += [
            QNBasis(w, i)
            for w in product(range(num_gens), repeat=n - 1)
            for i in range(num_gens)
        ]
    return tuple(sorted(out, key=str))


def qn_dim_table(max_n: int) -> list[int]:
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    return [len(qn_basis_of_degree(n)) for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# Chain complex.


class ChainKey(Interned):
    """Basis chain: a symbol with n >= 2 algebra slots, or a bare slot."""

    __slots__ = ("symbol", "slots", "weight")
    _fields = ("symbol", "slots")

    def __new__(cls, symbol: str | None, slots: tuple[DiptBasis, ...]):
        return cls._intern((symbol, slots))

    @staticmethod
    def _derive(symbol, slots) -> tuple:
        if not slots:
            raise ValueError("chains need at least one slot")
        if (symbol is None) != (len(slots) == 1):
            raise ValueError("the symbol is carried exactly in arity >= 2")
        if symbol not in (None, SYM_STAR, SYM_SUCC):
            raise ValueError(f"unknown symbol {symbol!r}")
        return (sum(s.degree for s in slots),)

    @property
    def arity(self) -> int:
        return len(self.slots)

    def __str__(self) -> str:
        if self.symbol is None:
            return str(self.slots[0])
        return f"{self.symbol}<" + " ; ".join(str(s) for s in self.slots) + ">"


def chain(symbol: str | None, slots: Iterable[DiptBasis]) -> ChainKey:
    slots = tuple(slots)
    if len(slots) == 1:
        return ChainKey(None, slots)
    return ChainKey(symbol, slots)


@cache
def chain_basis(arity: int, weight: int) -> tuple[ChainKey, ...]:
    """All basis chains of the given arity whose slot degrees sum to weight,
    over the one-generator basis."""
    if arity < 1 or weight < arity:
        return ()
    if arity == 1:
        return tuple(ChainKey(None, (b,)) for b in dipt_basis_of_degree(weight))
    out = [
        ChainKey(sym, slots)
        for degrees in _compositions(weight, arity)
        if len(degrees) == arity
        for slots in product(*map(dipt_basis_of_degree, degrees))
        for sym in (SYM_STAR, SYM_SUCC)
    ]
    return tuple(sorted(out, key=str))


def face_basis(i: int, key: ChainKey) -> ChainKey:
    """The i-th face (1-indexed), merging slots i and i+1."""
    n = key.arity
    if not 1 <= i <= n - 1:
        raise ValueError(f"face index {i} out of range for arity {n}")
    use_succ = key.symbol == SYM_SUCC and i == n - 1
    merge = succ_basis if use_succ else star_basis
    merged = merge(key.slots[i - 1], key.slots[i])
    slots = key.slots[: i - 1] + (merged,) + key.slots[i + 1 :]
    return chain(key.symbol, slots)


def face(i: int, c: LinComb) -> LinComb:
    return c.map_keys(lambda key: face_basis(i, key))


def _faces(key: ChainKey) -> tuple[ChainKey, ...]:
    """All faces of a basis chain, in face order; empty in arity 1."""
    return tuple(face_basis(i, key) for i in range(1, key.arity))


def _alternating_sum(faces: Callable[[ChainKey], tuple[ChainKey, ...]], c: LinComb) -> LinComb:
    """The differential of c, with each key's faces read from ``faces``."""
    return LinComb(
        (f, coeff if i % 2 == 0 else -coeff)
        for key, coeff in c.items()
        for i, f in enumerate(faces(key))
    )


def differential(c: LinComb) -> LinComb:
    """Alternating sum of faces; zero on arity-1 chains."""
    return _alternating_sum(_faces, c)


def homotopy_basis(key: ChainKey) -> LinComb:
    """Contracting homotopy: peel the last slot once via the canonical splitting.

    For the > symbol the last slot must be a single non-leaf tree u, which
    splits as u = A > B; for the * symbol it must be a multi-tree forest,
    splitting off its last tree. Anything else (in particular a bare
    generator) maps to zero. Arity-1 chains pick the symbol matching the
    peeling case. The sign is (-1)^(n+1) for input arity n.
    """
    n = key.arity
    u = key.slots[-1]
    trees = u.forest.trees
    sign = 1 if (n + 1) % 2 == 0 else -1
    if key.symbol in (SYM_SUCC, None) and len(trees) == 1 and not trees[0].is_leaf:
        _, left, right = decompose_basis(u)
        out_key = ChainKey(SYM_SUCC, key.slots[:-1] + (left, right))
        return LinComb.basis(out_key, sign)
    if key.symbol in (SYM_STAR, None) and len(trees) >= 2:
        d = trees[-1].degree
        left = DiptBasis(Forest(trees[:-1]), u.word[: u.degree - d])
        right = DiptBasis(Forest(trees[-1:]), u.word[u.degree - d :])
        out_key = ChainKey(SYM_STAR, key.slots[:-1] + (left, right))
        return LinComb.basis(out_key, sign)
    return LinComb()


homotopy = linear(homotopy_basis)


def _differential_rank(arity: int, weight: int) -> int:
    """Rank of the differential on the (arity, weight) piece; zero in arity 1."""
    if arity == 1:
        return 0
    return operator_rank(differential(LinComb.basis(b)) for b in chain_basis(arity, weight))


def homology_rank(arity: int, weight: int) -> int:
    """dim ker(d) - rank(d one arity up) on the graded piece, exactly."""
    if arity < 1 or weight < arity:
        raise ValueError("need arity >= 1 and weight >= arity")
    kernel_dim = len(chain_basis(arity, weight)) - _differential_rank(arity, weight)
    return kernel_dim - _differential_rank(arity + 1, weight)


@dataclass(frozen=True)
class KoszulReport:
    pieces: tuple[dict, ...]
    square_zero_ok: bool
    simplicial_ok: bool
    homotopy_ok: bool
    betti_ok: bool
    witness: str | None = None

    @property
    def koszul_ok(self) -> bool:
        return (
            self.square_zero_ok
            and self.simplicial_ok
            and self.homotopy_ok
            and self.betti_ok
        )

    def to_json(self) -> dict:
        out = {"pieces": list(self.pieces), "koszul_ok": self.koszul_ok}
        if self.witness:
            out["witness"] = self.witness
        return out


def koszul_report(weight_cap: int = 5) -> KoszulReport:
    """Exactness certificate: d^2 = 0, simplicial identities, dh + hd = id,
    and the Betti table on all graded pieces within the caps.

    Each basis chain's faces are computed once, into a table local to the
    report that the differentials, the d^2 check and the simplicial check
    all read. Arity-1 chains have no faces and no entry; the arity loop
    drops entries below arity - 1, which no later piece reads.
    """
    table: dict[ChainKey, tuple[ChainKey, ...]] = {}

    def faces(key: ChainKey) -> tuple[ChainKey, ...]:
        if key.arity == 1:
            return ()
        out = table.get(key)
        if out is None:
            out = table[key] = _faces(key)
        return out

    def d(c: LinComb) -> LinComb:
        return _alternating_sum(faces, c)

    witness = None

    # One pass per graded piece: the images of its basis serve the d^2
    # check and its rank. Each rank serves as "here" at its arity and
    # "above" one arity down in the Betti table; a piece not visited is
    # empty or in arity 1, where d vanishes, and has rank 0.
    d_rank: dict[tuple[int, int], int] = {}
    square_zero_ok = True
    simplicial_ok = True
    for arity in range(2, MAX_ARITY + 2):
        for key in [key for key in table if key.arity < arity - 1]:
            del table[key]
        for weight in range(arity, weight_cap + 1):
            basis = chain_basis(arity, weight)
            images = [d(LinComb.basis(b)) for b in basis]
            for b, image in zip(basis, images):
                if d(image):
                    square_zero_ok = False
                    witness = witness or f"d^2 != 0 on {b}"
                # Faces send basis chains to basis chains, and equal chains
                # are one interned key.
                fb = faces(b)
                for i in range(1, arity):
                    for j in range(i + 1, arity):
                        if faces(fb[j - 1])[i - 1] is not faces(fb[i - 1])[j - 2]:
                            simplicial_ok = False
                            witness = witness or f"d_{i} d_{j} != d_{j-1} d_{i} on {b}"
            d_rank[arity, weight] = operator_rank(images)

    homotopy_ok = True
    for arity in range(2, HOMOTOPY_WEIGHT_CAP + 1):
        for weight in range(arity, HOMOTOPY_WEIGHT_CAP + 1):
            for b in chain_basis(arity, weight):
                x = LinComb.basis(b)
                if d(homotopy(x)) + homotopy(d(x)) != x:
                    homotopy_ok = False
                    witness = witness or f"dh + hd != id on {b}"

    pieces = []
    betti_ok = True
    for arity in range(1, MAX_ARITY + 1):
        for weight in range(arity, weight_cap + 1):
            kernel_dim = len(chain_basis(arity, weight)) - d_rank.get((arity, weight), 0)
            image_rank = d_rank.get((arity + 1, weight), 0)
            betti = kernel_dim - image_rank
            expected = 1 if (arity == 1 and weight == 1) else 0
            if betti != expected:
                betti_ok = False
                witness = witness or (
                    f"betti({arity}, {weight}) = {betti}, expected {expected}"
                )
            pieces.append(
                {
                    "arity": arity,
                    "weight": weight,
                    "kernel": kernel_dim,
                    "image": image_rank,
                    "betti": betti,
                }
            )

    return KoszulReport(
        tuple(pieces), square_zero_ok, simplicial_ok, homotopy_ok, betti_ok, witness
    )

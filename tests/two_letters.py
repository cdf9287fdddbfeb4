"""Bases over the two generators a and b, for tests that need a second letter.

The package enumerates its bases over one generator. These list the same
forests and tagged words over two letters, ordered by ``str`` as the
package's enumerations are, so a slice such as ``[:30]`` picks the same
keys in every run.
"""

from functools import cache
from itertools import product

from dipterous.freealg import DiptBasis
from dipterous.homology import QNBasis
from dipterous.trees import enumerate_forests

LETTERS = range(2)


@cache
def dipt_basis_2(n: int) -> tuple[DiptBasis, ...]:
    """Every degree-n forest with every two-letter word on its leaves."""
    words = list(product(LETTERS, repeat=n))
    return tuple(sorted((DiptBasis(f, w) for f in enumerate_forests(n) for w in words), key=str))


@cache
def qn_basis_2(n: int) -> tuple[QNBasis, ...]:
    """Every degree-n tagged word over two letters."""
    out = [QNBasis(w) for w in product(LETTERS, repeat=n)]
    if n >= 2:
        out += [QNBasis(w, i) for w in product(LETTERS, repeat=n - 1) for i in LETTERS]
    return tuple(sorted(out, key=str))

"""Exact computer algebra for free dipterous-type algebras on planar-tree bases.

Everything is computed over the rationals with no floating point anywhere:
tree/forest bases and their enumeration, the free two-product algebras and
their coproducts, primitive spaces and dimension certificates, the Koszul
homology complex with its contracting homotopy, unital bialgebra structure
with antipodes, and cooperation-driven word dynamics. The ``dipterous``
command line exposes each computation as a reproducible report.
"""

from .linalg import (
    LinComb,
    SparseMatrix,
    intersect_kernels,
    kernel_basis,
    rank,
)
from .trees import (
    BinaryTree,
    Forest,
    NapTree,
    PlanarTree,
    corolla,
    enumerate_binary,
    enumerate_forests,
    enumerate_trees,
    graft,
    parse,
)
from .freealg import DiptBasis, decompose_basis, dim_table, eval_universal, star, succ
from .coproducts import (
    bracket,
    delta,
    delta_iter,
    e_idempotent,
    filtration_dim,
    pbw_dim_check,
    phi_corestrict,
    prim_basis,
    s_section,
    triangle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

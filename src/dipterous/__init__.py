"""Exact computer algebra for free dipterous-type algebras on planar-tree bases.

Everything is computed over the rationals with no floating point anywhere:
tree/forest bases and their enumeration, the free two-product algebras and
their coproducts, primitive spaces and dimension certificates, the Koszul
homology complex with its contracting homotopy, unital bialgebra structure
with antipodes, and cooperation-driven word dynamics. The ``dipterous``
command line exposes each computation as a reproducible report.
"""

__version__ = "0.1.0"

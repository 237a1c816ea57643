"""Exact rational row reduction: rref, rank and nullspace over the rationals.

One sparse, fraction-free eliminator in the sparse submodule: rows become
primitive integer rows {column: int}, elimination stops at full column rank,
and results are read off the unique reduced row echelon form as Fraction rows.
The library imports these names from this package.
"""

from imverma._kernels.sparse import nullspace, rank, rref

__all__ = ["nullspace", "rank", "rref"]

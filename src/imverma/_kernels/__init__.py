"""Exact rational row reduction: rref, rank and nullspace over the rationals.

One sparse, fraction-free eliminator in the sparse submodule. Each function
takes (rows, ncols): a list of sparse rows {column: int | Fraction} with every
column in range(ncols). Inside, rows become primitive integer rows
{column: int} and elimination stops at full column rank; results are read off
the unique reduced row echelon form as sparse rows {column: Fraction} that
store no zero. The library imports these names from this package.
"""

from imverma._kernels.sparse import nullspace, rank, rref

__all__ = ["nullspace", "rank", "rref"]

"""Exact rational row reduction: rref, rank and nullspace over the rationals.

One sparse, fraction-free eliminator in the sparse submodule: Echelon, fed
batches of sparse rows {column: int | Fraction} with every column in
range(ncols). Inside, rows become primitive integer rows {column: int} and
elimination stops at full column rank (Echelon.full); results are read off
the unique reduced row echelon form as sparse rows {column: Fraction} that
store no zero. rref, rank and nullspace take (rows, ncols) and feed one batch.
The singular-vector search feeds one raising operator's rows at a time and
stops building rows once full holds. The library imports these names from
this package.
"""

from imverma._kernels.sparse import Echelon, nullspace, rank, rref

__all__ = ["Echelon", "nullspace", "rank", "rref"]

"""Exact rational row reduction: rref, rank and nullspace over the rationals.

The implementation lives in the pyref submodule and is re-exported here; the
library imports these names from this package.
"""

from imverma._kernels.pyref import nullspace, rank, rref

__all__ = ["nullspace", "rank", "rref"]

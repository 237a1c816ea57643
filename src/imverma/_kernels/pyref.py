"""Pure-Python exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of Fraction. Everything here is
deterministic: reduced row echelon form is unique, and the nullspace basis is
the standard free-column construction read off the RREF, ordered by free
column index.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns). The input is not modified. Zero
    rows are dropped from the result.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of {v : rows @ v = 0} inside Q^ncols.

    One basis vector per free column, in ascending free-column order; the
    vector has a 1 in its free column. Deterministic given the input.
    """
    ech, pivots = rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -ech[prow][free]
        basis.append(v)
    return basis

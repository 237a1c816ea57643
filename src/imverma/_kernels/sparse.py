"""Exact row reduction over the rationals on sparse integer rows.

Matrices come in as lists of sparse rows {column: int | Fraction} over a
stated number of columns; a missing column is zero and a stored zero is
ignored. Results go out as sparse rows {column: Fraction} that store no zero,
keyed in ascending column order. Inside, each nonzero row becomes a primitive
integer row {column: int}: it is scaled by the lcm of its denominators and
divided by the gcd of its entries. Rows are reduced one at a time against the
pivot rows found so far, fraction-free (r <- a*r - b*p, in the spirit of
Bareiss, Math. Comp. 22 (1968), then the content is divided out), so no
rational arithmetic happens during elimination.

Echelon holds that state and is fed batches of rows; rref, rank and nullspace
feed it one batch. Elimination stops as soon as every column has a pivot
(Echelon.full): later rows can change neither the rank, nor the reduced row
echelon form, nor the nullspace. A caller that builds its rows in batches,
such as the singular-vector search (one batch per raising operator), can stop
building them there.

The reduced row echelon form is unique, so every result is the same value any
exact elimination gives; the nullspace basis is the standard free-column
construction read off it, ordered by free column index.
"""

from fractions import Fraction
from math import gcd, lcm


def _without_content(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _primitive(row):
    """Primitive integer {column: int} proportional to a sparse row; {} if zero."""
    nz = [(j, x.numerator, x.denominator) for j, x in row.items() if x]
    den = lcm(*[d for _, _, d in nz])
    return _without_content({j: n * (den // d) for j, n, d in nz})


def _eliminate(r, p, c):
    """a*r - b*p with column c cancelled and the content divided out."""
    a, b = p[c], r[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in r.items()} if a != 1 else dict(r)
    for j, v in p.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _without_content(out)


def _back_substitute(pivots):
    """Clear every pivot row in the other pivot columns, largest pivot first.

    A row reduced earlier is zero in all pivot columns but its own, so
    clearing one column of a later row never fills another pivot column.
    """
    reduced = {}
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        for c2 in [j for j in r if j != c and j in reduced]:
            r = _eliminate(r, reduced[c2], c2)
        reduced[c] = r
    return reduced


class Echelon:
    """Row echelon form over Q^ncols, grown one batch of sparse rows at a time.

    Holds {pivot column: primitive row} whose smallest column is the pivot.
    Each batch's columns are checked before the batch is eliminated, so a
    column outside range(ncols) is rejected even once full holds and no row
    of the batch needs eliminating.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}

    @property
    def full(self):
        """Every column has a pivot: no further row changes anything."""
        return len(self.pivots) == self.ncols

    def feed(self, rows):
        """Eliminate a batch of sparse rows; returns self. Rows are not modified."""
        ncols = self.ncols
        for row in rows:
            if row and not (min(row) >= 0 and max(row) < ncols):
                raise ValueError(f"column outside range({ncols})")
        pivots = self.pivots
        for row in rows:
            if len(pivots) == ncols:
                break
            r = _primitive(row)
            while r:
                c = min(r)
                p = pivots.get(c)
                if p is None:
                    pivots[c] = r
                    break
                r = _eliminate(r, p, c)
        return self

    def rank(self):
        return len(self.pivots)

    def rref(self):
        """(echelon_rows, pivot_columns) of the unique reduced row echelon form."""
        reduced = _back_substitute(self.pivots)
        pivots = sorted(reduced)
        ech = []
        for c in pivots:
            r = reduced[c]
            lead = r[c]
            ech.append({j: Fraction(r[j], lead) for j in sorted(r)})
        return ech, pivots

    def nullspace(self):
        """Basis of the vectors every fed row annihilates.

        One basis vector per free column, in ascending free-column order; the
        vector has a 1 in its free column. Empty, with no back-substitution,
        once full holds.
        """
        if self.full:
            return []
        reduced = _back_substitute(self.pivots)
        basis = []
        for free in range(self.ncols):
            if free in reduced:
                continue
            v = {c: Fraction(-r[free], r[c]) for c, r in reduced.items() if free in r}
            v[free] = Fraction(1)
            basis.append(dict(sorted(v.items())))
        return basis


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns). The input is not modified. Zero
    rows are dropped from the result.
    """
    return Echelon(ncols).feed(rows).rref()


def rank(rows, ncols):
    return Echelon(ncols).feed(rows).rank()


def nullspace(rows, ncols):
    """Basis of {v : rows @ v = 0} inside Q^ncols, as Echelon.nullspace."""
    return Echelon(ncols).feed(rows).nullspace()

"""Exact row reduction over the rationals on sparse integer rows.

Matrices come in as lists of sparse rows {column: int | Fraction} over a
stated number of columns; a missing column is zero and a stored zero is
ignored. Results go out as sparse rows {column: Fraction} that store no zero,
keyed in ascending column order. Inside, each nonzero row becomes a primitive
integer row {column: int}: it is scaled by the lcm of its denominators and
divided by the gcd of its entries; an all-int row, such as an action row of
the singular search, skips the denominator pass, and a one-entry row {j: x}
becomes {j: 1} or {j: -1} by the sign of x, with neither pass. Rows are
reduced one at a time against the pivot rows found so far, fraction-free
(r <- a*r - b*p, in the spirit of Bareiss, Math. Comp. 22 (1968), then the
content is divided out), so no rational arithmetic happens during
elimination.

Echelon holds that state and is fed batches of rows; rref, rank and nullspace
feed it one batch. Elimination stops as soon as every column has a pivot
(Echelon.full): later rows can change neither the rank, nor the reduced row
echelon form, nor the nullspace. A caller that builds its rows in batches,
such as the singular-vector search (one batch per raising operator), can stop
building them there.

Elimination order, chosen to cut fill-in (in the spirit of Markowitz,
Management Sci. 3 (1957), and of structured Gaussian elimination,
LaMacchia-Odlyzko 1990):

- feed order: each batch's rows are eliminated fewest nonzeros first (a
  stable sort, so equal lengths keep their batch order; a batch of one row
  is not sorted);
- pivot rule: a row is reduced at its highest column, so a stored row's pivot
  is its largest column;
- read-out: a full echelon's reduced row echelon form is the identity and its
  nullspace is empty, so neither eliminates anything. A rank-deficient one
  first eliminates its stored rows again at their lowest column (the
  canonical pass), then back-substitutes.

Rank does not depend on the order, so the full-rank stop holds under any
order, and the reduced row echelon form of a row space is unique, so every
result is the same value, byte for byte, that any exact elimination gives;
the nullspace basis is the standard free-column construction read off it,
ordered by free column index.
"""

from fractions import Fraction
from math import gcd, lcm


def _without_content(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _primitive(row):
    """Primitive integer {column: int} proportional to a sparse row; {} if zero.
    A one-entry row {j: x} is {j: 1} or {j: -1}, with no gcd or lcm pass."""
    if len(row) == 1:
        (j, x), = row.items()
        return {j: 1} if x > 0 else {j: -1} if x else {}
    if all(type(x) is int for x in row.values()):
        return _without_content({j: x for j, x in row.items() if x})
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


def _insert(pivots, r, lead):
    """Reduce r at its lead column (max or min) until it is zero or its lead
    column has no pivot row, where it is stored."""
    while r:
        c = lead(r)
        p = pivots.get(c)
        if p is None:
            pivots[c] = r
            return
        r = _eliminate(r, p, c)


def _back_substitute(pivots):
    """Clear every pivot row in the other pivot columns, largest pivot first.

    The rows pivot on their lowest column. A row reduced earlier is zero in
    all pivot columns but its own, so clearing one column of a later row never
    fills another pivot column.
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

    Holds {pivot column: primitive row} whose largest column is the pivot.
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
        """Eliminate a batch of sparse rows, fewest nonzeros first; returns
        self. Rows are not modified."""
        ncols = self.ncols
        for row in rows:
            if row and not (min(row) >= 0 and max(row) < ncols):
                raise ValueError(f"column outside range({ncols})")
        pivots = self.pivots
        for row in rows if len(rows) == 1 else sorted(rows, key=len):
            if len(pivots) == ncols:
                break
            _insert(pivots, _primitive(row), max)
        return self

    def rank(self):
        return len(self.pivots)

    def _reduced(self):
        """{pivot column: primitive row} of the unique reduced row echelon form.

        The stored rows are eliminated again at their lowest column, which
        turns the highest-column echelon into the lowest-column one, and then
        back-substituted.
        """
        lowest = {}
        for r in self.pivots.values():
            _insert(lowest, r, min)
        return _back_substitute(lowest)

    def rref(self):
        """(echelon_rows, pivot_columns) of the unique reduced row echelon form.

        The identity, with no elimination, once full holds.
        """
        if self.full:
            return [{c: Fraction(1)} for c in range(self.ncols)], list(range(self.ncols))
        reduced = self._reduced()
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
        vector has a 1 in its free column. Empty, with no elimination, once
        full holds.
        """
        if self.full:
            return []
        reduced = self._reduced()
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

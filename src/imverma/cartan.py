"""Finite-type Cartan matrices: validation, symmetrizers, type labels.

Convention: a[i][j] = <alpha_j, alpha_i^vee>, so [h_i, e_j] = a[i][j] e_j.
Indices are 0-based internally; the public generator names h1..hN are 1-based.

Validation runs in int arithmetic. The symmetrizer d is walked along the
edges of the Dynkin diagram from node 1 as integer (numerator, denominator)
pairs, and a node it does not reach rejects the matrix as decomposable: the
diagram of a simple algebra is connected. Finite type is Sylvester's
criterion on the symmetrization d_i a_ij, whose leading principal minors are
the pivots of Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
"""

from dataclasses import dataclass
from math import gcd, lcm

from imverma.errors import CartanMatrixError


@dataclass(frozen=True)
class CartanMatrix:
    """A validated finite-type Cartan matrix with its symmetrizer.

    entries[i][j] is an integer, symmetrizer is the tuple of relatively prime
    positive integers d_i with d_i * a_ij symmetric and positive definite.
    """

    entries: tuple
    symmetrizer: tuple
    label: str = ""

    @property
    def rank(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def _validate_axioms(a):
    n = len(a)
    for row in a:
        if len(row) != n:
            raise CartanMatrixError("matrix is not square")
    for i in range(n):
        if a[i][i] != 2:
            raise CartanMatrixError(f"diagonal entry a_{i+1}{i+1} = {a[i][i]} (must be 2)")
        for j in range(n):
            if i != j and a[i][j] > 0:
                raise CartanMatrixError(f"off-diagonal entry a_{i+1}{j+1} = {a[i][j]} > 0")
            if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                raise CartanMatrixError("a_ij = 0 ⇔ a_ji = 0 violated "
                                        f"at (i,j) = ({i+1},{j+1})")


def _symmetrizer(a):
    """Coprime positive integers d with d_i a_ij = d_j a_ji, or raise.

    d_i is walked from node 1 as an integer pair (numerator, denominator):
    each popped node compares every edge, so the walk checks the whole of a
    connected matrix, and a_ij, a_ji < 0 (_validate_axioms) keeps d > 0. A
    node the walk does not reach means the Dynkin diagram is not connected.
    """
    n = len(a)
    d = [None] * n
    d[0] = (1, 1)
    stack = [0]
    while stack:
        i = stack.pop()
        p, q = d[i]
        for j in range(n):
            if a[i][j] == 0 or i == j:
                continue
            want = (-p * a[i][j], -q * a[j][i])  # d_j = d_i a_ij / a_ji
            if d[j] is None:
                d[j] = want
                stack.append(j)
            elif d[j][0] * want[1] != want[0] * d[j][1]:
                raise CartanMatrixError("matrix is not symmetrizable")
    if None in d:
        raise CartanMatrixError("matrix is decomposable: its Dynkin diagram is not connected")
    scale = lcm(*(q for _, q in d))
    ints = [p * (scale // q) for p, q in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _is_positive_definite(sym):
    """Sylvester's criterion on an integer symmetric matrix: Bareiss's
    fraction-free elimination makes its k-th pivot the k-th leading principal
    minor, and every division exact, so each minor is checked > 0 in ints."""
    m = [list(row) for row in sym]
    n = len(m)
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * m[k][j]) // prev
        prev = pivot
    return True


def make_cartan_matrix(entries, label=""):
    """Validate and package a finite-type Cartan matrix."""
    a = tuple(tuple(int(x) for x in row) for row in entries)
    if not a:
        raise CartanMatrixError("empty Cartan matrix")
    _validate_axioms(a)
    d = _symmetrizer(a)
    if not _is_positive_definite([[di * x for x in row] for di, row in zip(d, a)]):
        raise CartanMatrixError("matrix is not of finite type "
                                "(symmetrization is not positive definite)")
    return CartanMatrix(entries=a, symmetrizer=d, label=label)


def _chain(n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
        if i + 1 < n:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def cartan_matrix_of_type(label):
    """Cartan matrix for a type label like "A2", "C3", "D4", "G2"."""
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG" or not label[1:].isdigit():
        raise CartanMatrixError(f"unknown type {label!r}")
    fam, n = label[0], int(label[1:])
    if fam == "A" and n >= 1:
        a = _chain(n)
    elif fam == "B" and n >= 2:
        a = _chain(n)
        a[n - 1][n - 2] = -2
    elif fam == "C" and n >= 2:
        a = _chain(n)
        a[n - 2][n - 1] = -2
    elif fam == "D" and n >= 3:
        a = _chain(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 3][n - 1] = -1
        a[n - 1][n - 3] = -1
    elif fam == "E" and n in (6, 7, 8):
        # Bourbaki numbering: node 2 hangs off node 4 of the A-chain 1-3-4-5-...
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)] + [(2, 4)]
        for u, v in edges:
            a[u - 1][v - 1] = -1
            a[v - 1][u - 1] = -1
    elif fam == "F" and n == 4:
        a = _chain(4)
        a[2][1] = -2
    elif fam == "G" and n == 2:
        a = _chain(2)
        a[1][0] = -3
    else:
        raise CartanMatrixError(f"unknown type {label!r}")
    return make_cartan_matrix(a, label=label)


def cartan_matrix_from_text(text):
    """Parse the text format: one row per line, integers whitespace-separated."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for tok in line.split():
            try:
                row.append(int(tok))
            except ValueError:
                raise CartanMatrixError(
                    f"Cartan matrix entry {tok!r} is not an integer") from None
        rows.append(row)
    return make_cartan_matrix(rows)

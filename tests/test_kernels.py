"""Exact row reduction: planted-rank oracles, nullspace verification, and
agreement with the independent dense Gauss-Jordan reference in oracles.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imverma._kernels import nullspace, rank, rref
from oracles import dense_rref, gauss_solve_nullspace


def random_matrix(rng, m, n, den_max=6):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, den_max))
             for _ in range(n)] for _ in range(m)]


def mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def test_rref_known_matrix():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    ech, piv = rref(rows)
    assert piv == [0, 1]
    assert ech == [[Fraction(1), Fraction(0), Fraction(1)],
                   [Fraction(0), Fraction(1), Fraction(1)]]


def test_nullspace_annihilates():
    rng = random.Random(11)
    for trial in range(30):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, m, n)
        for v in nullspace(a, n):
            assert all(x == 0 for x in mat_vec(a, v))


def test_planted_rank():
    rng = random.Random(7)
    for trial in range(20):
        r = rng.randint(0, 4)
        m, n = r + rng.randint(0, 3), r + rng.randint(0, 3)
        b = random_matrix(rng, m, r) if r else [[] for _ in range(m)]
        c = random_matrix(rng, r, n)
        # force full rank factors by planting identities
        for i in range(r):
            b[i][i] += Fraction(100)
            c[i][i] += Fraction(100)
        a = [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)]
             for i in range(m)] if r else [[Fraction(0)] * n for _ in range(m)]
        assert rank(a) == r
        assert len(nullspace(a, n)) == n - r


def test_rank_nullity():
    rng = random.Random(3)
    for trial in range(25):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = random_matrix(rng, m, n)
        assert rank(a) + len(nullspace(a, n)) == n


def test_rref_idempotent():
    rng = random.Random(5)
    for trial in range(15):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ech, piv = rref(a)
        ech2, piv2 = rref(ech)
        assert ech == ech2 and piv == piv2


def test_empty_and_zero():
    assert rref([]) == ([], [])
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    basis = nullspace([[Fraction(0), Fraction(0)]], 2)
    assert len(basis) == 2


def test_ragged_rejected():
    with pytest.raises(ValueError):
        rref([[Fraction(1)], [Fraction(1), Fraction(2)]])


def test_ragged_after_full_rank():
    # elimination stops once every column has a pivot; the short last row
    # must still be rejected
    rows = [[Fraction(2), 0, 0], [0, Fraction(1, 3), 0], [0, 0, 5], [1, 2]]
    for call in (lambda: rref(rows), lambda: rank(rows),
                 lambda: nullspace(rows, 3)):
        with pytest.raises(ValueError, match="ragged"):
            call()


small_fraction = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=1, max_size=5),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_property_nullspace_and_rank(rows):
    n = len(rows[0])
    ns = nullspace(rows, n)
    assert rank(rows) + len(ns) == n
    for v in ns:
        assert all(x == 0 for x in mat_vec(rows, v))
    # the oracle's kernel: equal nullity, independent vectors, each in the
    # oracle's span (appending v keeps its rank); ranks counted by the oracle
    oracle = gauss_solve_nullspace(rows, n)
    assert len(ns) == len(oracle)
    assert len(gauss_solve_nullspace(ns, n)) == n - len(ns)
    for v in ns:
        assert len(gauss_solve_nullspace(oracle + [v], n)) == n - len(oracle)


sparse_value = st.one_of(st.integers(-9, 9), small_fraction)
sparse_entry = st.one_of(st.just(0), st.just(0), sparse_value)


@st.composite
def tall_sparse_matrix(draw):
    """Up to 40 x 8, about 30 % nonzero, mixed int/Fraction entries.

    "full" puts a diagonal block first, so elimination reaches full column
    rank before the trailing rows; "deficient" builds every row from fewer
    than ncols base rows, so the rank is planted below ncols.
    """
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(sparse_entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=40))
    kind = draw(st.sampled_from(["random", "full", "deficient"]))
    if kind == "full":
        diag = draw(st.lists(st.one_of(st.integers(1, 9), small_fraction)
                             .filter(bool), min_size=ncols, max_size=ncols))
        rows = [[d if j == i else 0 for j in range(ncols)]
                for i, d in enumerate(diag)] + rows
    elif kind == "deficient":
        base = rows[:draw(st.integers(0, ncols - 1))]
        coeffs = st.lists(st.integers(-2, 2), min_size=len(base),
                          max_size=len(base))
        combos = [draw(coeffs) for _ in rows]
        rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)]
                for cs in combos]
    return rows


@settings(max_examples=80, deadline=None)
@given(tall_sparse_matrix())
def test_property_tall_sparse_matches_dense(rows):
    n = len(rows[0])
    before = [[(type(x), x) for x in row] for row in rows]
    ech, piv = rref(rows)
    assert (ech, piv) == dense_rref(rows)
    assert all(type(x) is Fraction for row in ech for x in row)
    assert rank(rows) == len(piv)
    ns = nullspace(rows, n)
    assert ns == gauss_solve_nullspace(rows, n)
    assert all(type(x) is Fraction for v in ns for x in v)
    assert [[(type(x), x) for x in row] for row in rows] == before

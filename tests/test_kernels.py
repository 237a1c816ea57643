"""Exact row reduction: planted-rank oracles, nullspace verification,
agreement with the independent dense Gauss-Jordan reference in oracles.py,
the incremental echelon fed in batches, results that do not depend on the
order rows are fed in, one-entry rows, and a count guard on the elimination
order.

The kernels take and return sparse rows {column: value}; the dense test
matrices are converted at this boundary (oracles.sparse_rows / dense_rows)."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imverma._kernels as kernels
from imverma._kernels import Echelon, nullspace, rank, rref
from imverma.cli import main
from oracles import dense_rows, dense_rref, gauss_solve_nullspace, sparse_rows


def random_matrix(rng, m, n, den_max=6):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, den_max))
             for _ in range(n)] for _ in range(m)]


def mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def assert_output_rows(rows, ncols):
    """The output contract: Fraction values, no stored zero, columns in
    range(ncols), keys in ascending column order."""
    for row in rows:
        assert all(type(x) is Fraction and x for x in row.values())
        assert all(0 <= j < ncols for j in row)
        assert list(row) == sorted(row)


def test_rref_known_matrix():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    ech, piv = rref(rows, 3)
    assert piv == [0, 1]
    assert ech == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert_output_rows(ech, 3)


def test_nullspace_annihilates():
    rng = random.Random(11)
    for trial in range(30):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, m, n)
        ns = nullspace(sparse_rows(a), n)
        assert_output_rows(ns, n)
        for v in dense_rows(ns, n):
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
        assert rank(sparse_rows(a), n) == r
        assert len(nullspace(sparse_rows(a), n)) == n - r


def test_rank_nullity():
    rng = random.Random(3)
    for trial in range(25):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = sparse_rows(random_matrix(rng, m, n))
        assert rank(a, n) + len(nullspace(a, n)) == n


def test_rref_idempotent():
    rng = random.Random(5)
    for trial in range(15):
        n = rng.randint(1, 6)
        ech, piv = rref(sparse_rows(random_matrix(rng, rng.randint(1, 6), n)), n)
        assert rref(ech, n) == (ech, piv)


def test_rref_pivot_set_differs_from_elimination_pivots():
    # elimination pivots this row on its highest column, 1; the reduced row
    # echelon form pivots on 0 and leaves 1 free
    assert nullspace([{0: 1, 1: 1}], 2) == [{0: -1, 1: 1}]
    assert rref([{0: 1, 1: 1}], 2) == ([{0: 1, 1: 1}], [0])


def test_empty_and_zero():
    assert rref([], 3) == ([], [])
    assert rank([], 0) == 0 and nullspace([], 0) == []
    assert rank([{}], 2) == 0
    # a stored zero is a zero entry
    assert rank([{0: 0, 1: Fraction(0)}], 2) == 0
    assert nullspace([{}], 2) == [{0: 1}, {1: 1}]


OUT_OF_RANGE = [pytest.param(-1, id="column-minus-1"),
                pytest.param(3, id="column-ncols")]


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
@pytest.mark.parametrize("kernel", [rref, rank, nullspace])
def test_column_out_of_range_rejected(kernel, bad):
    with pytest.raises(ValueError, match="range"):
        kernel([{0: 1, bad: 2}], 3)


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
@pytest.mark.parametrize("kernel", [rref, rank, nullspace])
def test_column_out_of_range_after_full_rank(kernel, bad):
    # elimination stops once every column has a pivot; the bad column in the
    # last row must still be rejected
    rows = [{0: Fraction(2)}, {1: Fraction(1, 3)}, {2: 5}, {0: 1, bad: 2}]
    with pytest.raises(ValueError, match="range"):
        kernel(rows, 3)


small_fraction = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=1, max_size=5),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_property_nullspace_and_rank(rows):
    n = len(rows[0])
    ns = dense_rows(nullspace(sparse_rows(rows), n), n)
    assert rank(sparse_rows(rows), n) + len(ns) == n
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
@given(tall_sparse_matrix(), st.booleans())
def test_property_tall_sparse_matches_dense(rows, store_zeros):
    n = len(rows[0])
    # with store_zeros every entry is stored, zeros included
    sp = [dict(enumerate(row)) for row in rows] if store_zeros else sparse_rows(rows)
    before = [[(j, type(x), x) for j, x in row.items()] for row in sp]
    ech, piv = rref(sp, n)
    assert (dense_rows(ech, n), piv) == dense_rref(rows)
    assert_output_rows(ech, n)
    assert rank(sp, n) == len(piv)
    ns = nullspace(sp, n)
    assert dense_rows(ns, n) == gauss_solve_nullspace(rows, n)
    assert_output_rows(ns, n)
    assert [[(j, type(x), x) for j, x in row.items()] for row in sp] == before


@settings(max_examples=80, deadline=None)
@given(tall_sparse_matrix(), st.data())
def test_property_batched_echelon_matches_one_shot(rows, data):
    """Rows split into random batches give the one-shot and oracle results;
    full turns true exactly when the rows fed so far reach full column rank;
    a bad column is rejected even after full rank; inputs are untouched."""
    n = len(rows[0])
    sp = sparse_rows(rows)
    before = [[(j, type(x), x) for j, x in row.items()] for row in sp]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(sp)), max_size=6)))
    bounds = [0] + cuts + [len(sp)]
    echelon = Echelon(n)
    for lo, hi in zip(bounds, bounds[1:]):
        echelon.feed(sp[lo:hi])
        assert echelon.full == (len(dense_rref(rows[:hi])[1]) == n)
    ech, piv = echelon.rref()
    assert (ech, piv) == rref(sp, n)
    assert (dense_rows(ech, n), piv) == dense_rref(rows)
    assert echelon.rank() == rank(sp, n) == len(piv)
    ns = echelon.nullspace()
    assert ns == nullspace(sp, n)
    assert dense_rows(ns, n) == gauss_solve_nullspace(rows, n)
    assert_output_rows(ns, n)
    assert [[(j, type(x), x) for j, x in row.items()] for row in sp] == before
    bad = data.draw(st.sampled_from([-1, n]))
    with pytest.raises(ValueError, match=re.escape(f"column outside range({n})")):
        echelon.feed([{0: 1}, {bad: 1}])
    assert echelon.rank() == len(piv)


@settings(max_examples=80, deadline=None)
@given(tall_sparse_matrix(), st.data())
def test_property_any_row_order_gives_the_same_results(rows, data):
    """Any permutation of the rows, split into any batches, gives the same
    rref, rank, nullspace and full as the rows fed in order at once, and
    those are the dense oracle's; "deficient" matrices run the canonical
    pass of a rank-deficient echelon."""
    n = len(rows[0])
    shuffled = data.draw(st.permutations(rows))
    sp = sparse_rows(shuffled)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(sp)), max_size=6)))
    bounds = [0] + cuts + [len(sp)]
    echelon = Echelon(n)
    for lo, hi in zip(bounds, bounds[1:]):
        echelon.feed(sp[lo:hi])
    in_order = Echelon(n).feed(sparse_rows(rows))
    ech, piv = echelon.rref()
    assert (ech, piv) == in_order.rref()
    assert (dense_rows(ech, n), piv) == dense_rref(rows)
    assert echelon.rank() == in_order.rank() == len(piv)
    ns = echelon.nullspace()
    assert ns == in_order.nullspace()
    assert dense_rows(ns, n) == gauss_solve_nullspace(rows, n)
    assert echelon.full == in_order.full == (len(piv) == n)


def _eliminations(monkeypatch, argv):
    """The number of row eliminations one CLI run makes."""
    calls = []
    eliminate = kernels._eliminate

    def counting(r, p, c):
        calls.append(c)
        return eliminate(r, p, c)

    monkeypatch.setattr(kernels, "_eliminate", counting)
    assert main(argv) == 0
    return len(calls)


def test_singular_search_elimination_count(monkeypatch):
    """Two pinned singular searches count their eliminations.

    Counts repeat exactly. With the Cartan loops fed first, W1 makes 104;
    with lowest-column pivots 196, and with each batch fed in its own order
    instead of shortest rows first 106, so W1 alone catches only the pivot
    rule. The full A3 search makes 6,984; 7,701 with lowest-column pivots
    and 8,338 with no sort, so it catches either half of the order undone.
    """
    assert _eliminations(monkeypatch, [
        "singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
        "--window", "L=4,N=3,H=2"]) < 150
    assert _eliminations(monkeypatch, [
        "singular", "--full", "--type", "A3", "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2",
        "--window", "L=4,N=2,H=3"]) < 7300


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
def test_echelon_batch_after_full_rank_rejects_bad_column(bad):
    echelon = Echelon(3).feed([{0: 2}, {1: Fraction(1, 3)}])
    assert not echelon.full and echelon.nullspace() == [{2: 1}]
    echelon.feed([{2: 5}])
    assert echelon.full and echelon.nullspace() == []
    with pytest.raises(ValueError, match=r"column outside range\(3\)"):
        echelon.feed([{0: 1}, {bad: 2}])
    assert echelon.rank() == 3


ONE_ENTRY = [
    pytest.param([{1: 3}], id="int-positive"),
    pytest.param([{2: -4}, {0: 7}], id="int-negative"),
    pytest.param([{1: Fraction(-6, 5)}], id="fraction-negative-non-unit"),
    pytest.param([{0: 0, 2: -5}], id="stored-zero-beside-nonzero"),
    pytest.param([{1: 0}], id="all-zero-int"),
    pytest.param([{2: Fraction(0)}, {0: 0, 1: 0}], id="all-zero-stored"),
    # one-entry rows eliminated against, and into, longer rows
    pytest.param([{0: 2, 2: 3}, {2: -3}, {1: Fraction(-4, 9)}, {0: 1, 1: 1, 2: 1}],
                 id="mixed-lengths"),
]


@pytest.mark.parametrize("rows", ONE_ENTRY)
def test_one_entry_rows_match_dense(rows):
    n = 3
    dense = [[Fraction(row.get(j, 0)) for j in range(n)] for row in rows]
    before = [dict(row) for row in rows]
    ech, piv = dense_rref(dense)
    got, got_piv = rref(rows, n)
    assert_output_rows(got, n)
    assert (dense_rows(got, n), got_piv) == (ech, piv)
    assert rank(rows, n) == len(piv)
    ns = nullspace(rows, n)
    assert_output_rows(ns, n)
    assert dense_rows(ns, n) == gauss_solve_nullspace(dense, n)
    assert rows == before


def test_one_entry_row_is_a_signed_unit():
    for x, unit in ((3, 1), (-4, -1), (Fraction(-6, 5), -1), (Fraction(7, 2), 1)):
        got = kernels._primitive({4: x})
        assert got == {4: unit} and type(got[4]) is int
    assert kernels._primitive({4: 0}) == {} and kernels._primitive({4: Fraction(0)}) == {}


@pytest.mark.parametrize("bad", [pytest.param(-1, id="column-minus-1"),
                                 pytest.param(2, id="column-ncols")])
def test_one_row_batch_after_full_rank(bad):
    echelon = Echelon(2).feed([{0: Fraction(-6, 5)}])
    assert echelon.nullspace() == [{1: 1}]
    echelon.feed([{1: -4}])
    assert echelon.full and echelon.nullspace() == []
    echelon.feed([{0: 9}])
    assert echelon.rank() == 2
    with pytest.raises(ValueError, match=r"column outside range\(2\)"):
        echelon.feed([{bad: 1}])
    assert echelon.rank() == 2

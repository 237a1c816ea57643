"""Verma layer: dimension tables against the generating-function oracle,
the worked action examples, bracket compatibility as a property, singular
vector kernels in both directions of the irreducibility criterion, and local
nilpotency against closed-form sl2 Verma coefficients, the singular-vector
search against the dense oracle over every raising operator's rows, and the
integer straightening coefficients."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imverma
from imverma.affine import AffineAlgebra, affine_bracket, gen_name
from imverma.cartan import cartan_matrix_of_type
from imverma.errors import ContextMismatchError, ImvermaError, WindowOverflowError
from imverma.finite import _sub, build_simple_algebra
from imverma.verma import (ModuleVector, TruncationWindow, VermaModule, Weight,
                           finite_offsets, monomial_offset, nonzero_degrees,
                           parse_weight, parse_window, symbol_sort_key)

from oracles import (beyond_window_survivors, brute_basis_monomials,
                     colored_partition_counts, dense_rows, dense_rref,
                     full_singular_closed_form, gauss_solve_nullspace,
                     negative_symbol_bracket, nilpotency_degree,
                     sl2_lowering_string_coefficient, vanishes_by_weight,
                     weight_offset)


def aff(label):
    return AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))


A1 = aff("A1")
A2 = aff("A2")
LAM_HALF = parse_weight("h1=-1/2", 1)


# -- weights and windows -------------------------------------------------------


def test_weight_parsing_and_admissibility():
    w = parse_weight("h1=-1/2,c=0,d=3", 1)
    assert w.h_values == (Fraction(-1, 2),) and w.d_value == 3
    assert w.is_reduced_admissible()
    assert not parse_weight("h1=0", 1).is_reduced_admissible()
    assert not parse_weight("h1=2", 1).is_reduced_admissible()
    assert parse_weight("h1=-3", 1).is_reduced_admissible()  # negative integer
    assert not parse_weight("h1=-1/2,c=1", 1).is_reduced_admissible()
    with pytest.raises(ImvermaError, match="unknown weight key"):
        parse_weight("h9=1", 1)
    with pytest.raises(ImvermaError, match="malformed"):
        parse_weight("h1", 1)


def test_weight_json_dict_round_trips_through_make():
    w = Weight.make([Fraction(-1, 2), Fraction(7, 3)], Fraction(5, 4), Fraction(-2, 9))
    data = w.to_json_dict()
    assert data == {"h": ["-1/2", "7/3"], "c": "5/4", "d": "-2/9"}
    back = Weight.make(data["h"], data["c"], data["d"])
    assert back == w and back.cells == w.cells


def test_window_parsing():
    w = parse_window("L=8,N=6,H=4")
    assert (w.L, w.N, w.H) == (8, 6, 4)
    with pytest.raises(ImvermaError):
        parse_window("L=8,N=6")
    with pytest.raises(ImvermaError):
        parse_window("L=0,N=1,H=1")


def test_reduced_requires_central_charge_zero():
    with pytest.raises(ImvermaError, match="lambda\\(c\\) = 0"):
        VermaModule(A1, parse_weight("h1=-1/2,c=1", 1), reduced=True)


def test_degenerate_lambda_flagged():
    m = VermaModule(A1, parse_weight("h1=-2", 1), reduced=True)
    assert m.flags and "negative integer" in m.flags[0]
    assert not VermaModule(A1, LAM_HALF, reduced=True).flags


# -- dimension tables -----------------------------------------------------------


def test_delta_string_dims_match_partition_oracle():
    window = TruncationWindow(L=8, N=8, H=2)
    for label, rank_ in (("A1", 1), ("A2", 2), ("A3", 3)):
        a = aff(label)
        lam = Weight.make([Fraction(-1, 2)] * rank_)
        mod = VermaModule(a, lam, reduced=False)
        oracle = colored_partition_counts(rank_, 8)
        zero = tuple(0 for _ in range(rank_))
        for k in range(0, 9):
            assert mod.weight_dim((-k, zero), window) == oracle[k], (label, k)


def test_reduced_delta_string_is_highest_weight_line_only():
    window = TruncationWindow(L=6, N=6, H=2)
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    assert mod.weight_dim((0, (0,)), window) == 1
    for k in range(1, 5):
        assert mod.weight_dim((-k, (0,)), window) == 0


def test_reduced_single_root_offset_counts():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    for n in (2, 5):
        window = TruncationWindow(L=4, N=n, H=1)
        assert mod.weight_dim((None, (1,)), window) == 2 * n + 1
        assert mod.weight_dim((3, (1,)), window) == (1 if n >= 3 else 0)


def test_rank2_mixed_offset_enumeration():
    # weight space lambda - alpha1 - alpha2 + 0 delta within N: pairs
    # F(a1,n)F(a2,-n) plus the theta-vector F(a1+a2,0)
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/2", 2), reduced=True)
    for n in (1, 2, 3):
        window = TruncationWindow(L=4, N=n, H=2)
        assert mod.weight_dim((0, (1, 1)), window) == (2 * n + 1) + 1


def test_weight_dim_is_public_and_reads_weight_dims():
    # VermaModule.weight_dim is public API: the count of one windowed space
    # (k, s), or of every k at s when k is None, read from weight_dims
    window = TruncationWindow(L=4, N=3, H=2)
    for lam, reduced in (("h1=-1/2,h2=-1/3", True), ("h1=-1/2,h2=-1/3,c=1", False)):
        mod = imverma.VermaModule(A2, parse_weight(lam, 2), reduced=reduced)
        for s in ((0, 0), (1, 0), (1, 1), (0, 2)):
            dims = mod.weight_dims(s, window)
            assert mod.weight_dim((None, s), window) == sum(dims.values())
            for k in range(-7, 8):
                assert mod.weight_dim((k, s), window) == dims.get(k, 0), (lam, s, k)


def test_basis_monomials_are_canonical_and_unique():
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/2", 2), reduced=False)
    window = TruncationWindow(L=3, N=2, H=2)
    seen = set()
    for s in [(0, 0), (1, 0), (1, 1), (2, 0)]:
        for k in range(-3, 4):
            monos = mod.basis_monomials((k, s), window)
            keys = [[symbol_sort_key(sym) for sym in m] for m in monos]
            # strictly increasing: canonical order and no repeats
            assert all(a < b for a, b in zip(keys, keys[1:]))
            for m, key in zip(monos, keys):
                assert key == sorted(key)
                assert m not in seen
                seen.add(m)
                assert monomial_offset(m, 2) == (k, s)


# (type, window, offsets): each type has an offset whose root multisets
# repeat a root, where degrees are chosen weakly increasing within a group;
# s = 0 has only the empty F-part, which fits degree target 0 alone
BRUTE_CASES = [
    ("A1", TruncationWindow(L=4, N=2, H=3), [(0,), (2,), (3,)]),
    ("A2", TruncationWindow(L=3, N=2, H=3), [(0, 0), (1, 1), (2, 1)]),
    ("C2", TruncationWindow(L=3, N=2, H=3), [(1, 1), (2, 1)]),
    ("A3", TruncationWindow(L=3, N=1, H=3), [(1, 1, 0), (2, 1, 0)]),
]


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
@pytest.mark.parametrize("label, window, offsets", BRUTE_CASES,
                         ids=[c[0] for c in BRUTE_CASES])
def test_basis_monomials_match_brute_force(label, window, offsets, reduced):
    alg = aff(label)
    lam = parse_weight(",".join(f"h{i + 1}=-1/2" for i in range(alg.rank)), alg.rank)
    mod = VermaModule(alg, lam, reduced=reduced)
    found = 0
    for s in offsets:
        bases = mod.weight_bases(s, window)
        assert all(bases.values())
        for k in [None, *range(-3, 3)]:
            expected = brute_basis_monomials(mod, (k, s), window)
            assert mod.basis_monomials((k, s), window) == expected
            if k is not None:
                assert bases.get(k, []) == expected
            found += len(expected)
    assert found


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_listed_ids_round_trip_to_the_brute_tuples(label, reduced):
    # the listing hands out ids; each one's lazily built tuple is the brute
    # monomial in the same place, interning that tuple gives the id back,
    # and listing again hands out the same ids
    a = aff(label)
    mod = VermaModule(a, Weight.make([Fraction(-1, 2)] * a.rank), reduced=reduced)
    window = TruncationWindow(L=3, N=2, H=2)
    seen = 0
    for s in mod.reached_offsets(window):
        listed = mod._weight_ids(s, window)
        brute = {}
        for mono in brute_basis_monomials(mod, (None, s), window):
            brute.setdefault(monomial_offset(mono, a.rank)[0], []).append(mono)
        assert {k: [mod._mono(m) for m in ids] for k, ids in listed.items()} == brute
        for ids in listed.values():
            assert [mod._intern(mod._mono(m)) for m in ids] == ids
            seen += len(ids)
        assert mod._weight_ids(s, window) == listed
    assert seen > 50


@pytest.mark.parametrize("kmax", [0, 2, 4])
def test_listing_with_kmax_conses_only_spaces_in_range(kmax):
    # |k| <= kmax is decided before consing: the spaces kept are those of
    # the full listing, and every monomial interned is a kept basis monomial
    # or the rest of one
    a = aff("A2")
    lam = parse_weight("h1=-1/2,h2=-1/3", 2)
    window = TruncationWindow(L=5, N=4, H=3)
    for s in finite_offsets(2, 3):
        mod = VermaModule(a, lam, reduced=True)
        kept = mod._weight_ids(s, window, kmax)
        assert {k: [mod._mono(m) for m in ids] for k, ids in kept.items()} == \
            {k: basis for k, basis in
             VermaModule(a, lam, reduced=True).weight_bases(s, window).items()
             if abs(k) <= kmax}
        closure = set()
        for m in (m for ids in kept.values() for m in ids):
            while m and m not in closure:
                closure.add(m)
                m = mod._rest[m]
        assert closure == set(range(1, len(mod._head)))


def test_finite_brackets_are_read_only_for_the_pairs_met():
    # the E8s search: one finite bracket per (basis index, basis index) pair
    # that a _bracket miss reads, far fewer than the 248**2 pairs of E8
    e8 = aff("E8")
    mod = VermaModule(e8, Weight.make([Fraction(-1, 2)] * 8), reduced=True)
    window = parse_window("L=3,N=1,H=3")
    assert mod.singular_vectors(offsets_up_to(8, window.H), window)
    misses = sum(map(len, mod._bracket_memo))
    assert 0 < len(mod._fin_bracket) <= misses
    assert len(mod._fin_bracket) * 20 < e8.finite.dimension ** 2


def test_offset_height_over_window_rejected():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    with pytest.raises(WindowOverflowError):
        mod.basis_monomials((0, (5,)), TruncationWindow(L=2, N=2, H=2))
    with pytest.raises(WindowOverflowError):
        mod.weight_bases((5,), TruncationWindow(L=2, N=2, H=2))


@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_reduced_length_is_capped_at_the_offset_height(label):
    # a reduced monomial of offset s has at most ht(s) symbols, so a window
    # of length 10**6 has the spaces and singular vectors of one of length H
    a = aff(label)
    mod = VermaModule(a, Weight.make([0] * a.rank), reduced=True)
    short, long = TruncationWindow(L=2, N=2, H=2), TruncationWindow(L=10**6, N=2, H=2)
    offsets = offsets_up_to(a.rank, 2)
    for _, s in offsets:
        assert mod.weight_dims(s, long) == mod.weight_dims(s, short)
        assert mod.weight_bases(s, long) == mod.weight_bases(s, short)
    found = mod.singular_vectors(offsets, long)
    assert found == mod.singular_vectors(offsets, short)
    assert any(any(s) for (_, s), _ in found)


SEAM_TYPES = ["A1", "A2", "A3", "C2", "G2"]


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("label", SEAM_TYPES)
@pytest.mark.parametrize("L", [1, 2])
def test_offsets_beyond_reach_hold_no_monomial(label, reduced, L):
    # every symbol adds a root no higher than theta, or nothing, so a window
    # of length L reaches no s higher than L * ht(theta), whatever its H
    a = aff(label)
    mod = VermaModule(a, Weight.make([Fraction(-1, 2)] * a.rank), reduced=reduced)
    top = L * sum(a.theta)
    window = TruncationWindow(L=L, N=1, H=top + 2)
    beyond = [s for s in finite_offsets(a.rank, window.H) if sum(s) > top]
    assert beyond
    for s in beyond:
        assert mod._reach(s, window) is None
        assert mod.weight_dims(s, window) == mod.weight_bases(s, window) == {}
        assert brute_basis_monomials(mod, (None, s), window) == []
    assert mod.reached_offsets(window) == finite_offsets(a.rank, top)


def test_unreduced_length_past_the_list_index_rejected():
    # the unreduced listing indexes B-parts by length and by B total, which
    # reaches L * N
    mod = VermaModule(A1, LAM_HALF, reduced=False)
    window = TruncationWindow(L=10**20, N=1, H=1)
    with pytest.raises(WindowOverflowError, match="L=100000000000000000000"):
        mod.weight_dims((1,), window)
    with pytest.raises(WindowOverflowError):
        mod.weight_bases((1,), window)


DIMS_TYPES = ["A1", "A2", "B2", "C2", "G2", "A3"]


@cache
def dims_module(label, reduced):
    a = aff(label)
    return VermaModule(a, Weight.make([Fraction(-1, 2)] * a.rank), reduced=reduced)


@st.composite
def dims_cases(draw):
    label = draw(st.sampled_from(DIMS_TYPES))
    rank = dims_module(label, False).rank
    window = TruncationWindow(L=draw(st.integers(1, 3)), N=draw(st.integers(1, 2)),
                              H=draw(st.integers(1, 3)))
    s = tuple(draw(st.lists(st.integers(-1, 2), min_size=rank, max_size=rank)))
    return label, draw(st.booleans()), window, s


@settings(max_examples=100, deadline=None)
@given(dims_cases())
@example(("A2", False, TruncationWindow(L=2, N=1, H=1), (3, -1)))  # empty
@example(("C2", True, TruncationWindow(L=3, N=2, H=2), (2, 1)))    # above H
def test_property_weight_dims_count_the_basis(case):
    label, reduced, window, s = case
    mod = dims_module(label, reduced)
    if min(s) >= 0 and sum(s) > window.H:
        with pytest.raises(WindowOverflowError):
            mod.weight_dims(s, window)
        with pytest.raises(WindowOverflowError):
            mod.basis_monomials((None, s), window)
        with pytest.raises(WindowOverflowError):
            mod.weight_bases(s, window)
        return
    dims = mod.weight_dims(s, window)
    assert all(dims.values())
    brute = Counter(monomial_offset(m, mod.rank)[0]
                    for m in brute_basis_monomials(mod, (None, s), window))
    assert dims == brute
    bases = mod.weight_bases(s, window)
    assert bases == {k: brute_basis_monomials(mod, (k, s), window) for k in brute}
    assert {k: len(basis) for k, basis in bases.items()} == dims
    reach = window.L * window.N
    for k in range(-reach, reach + 1):
        assert dims.get(k, 0) == len(mod.basis_monomials((k, s), window)) == \
            mod.weight_dim((k, s), window)
    assert sum(dims.values()) == len(mod.basis_monomials((None, s), window)) == \
        mod.weight_dim((None, s), window)
    if min(s) < 0:
        assert dims == bases == {}


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_pure_delta_dims_past_enumeration(label):
    # a window far beyond what basis_monomials can list: below |k| = 16 no cap
    # binds, so the delta string holds the rank-colored partitions of |k|
    zero = (0,) * dims_module(label, False).rank
    window = TruncationWindow(L=16, N=16, H=1)
    dims = dims_module(label, False).weight_dims(zero, window)
    assert [dims[-k] for k in range(17)] == \
        colored_partition_counts(len(zero), 16)
    assert max(dims) == 0
    assert dims_module(label, True).weight_dims(zero, window) == {0: 1}


# -- action ------------------------------------------------------------------------


def test_action_worked_examples():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    alpha = (1,)
    fv = mod.monomial(("F", alpha, 2))
    # e_{1,m} F(alpha,n) v = delta_{m,-n} lambda(h1) v
    assert mod.act(A1.e(1, -2), fv) == Fraction(-1, 2) * mod.vacuum()
    for m in (-1, 0, 1, 2):
        assert mod.act(A1.e(1, m), fv).is_zero()
    # h_{1,0} F(alpha,n) v = (lambda(h1) - 2) F(alpha,n) v
    f3 = mod.monomial(("F", alpha, 3))
    assert mod.act(A1.h(1, 0), f3) == Fraction(-5, 2) * f3
    # d acts by lambda(d) + total delta degree
    lam_d = Weight.make([Fraction(-1, 2)], d=Fraction(7))
    mod_d = VermaModule(A1, lam_d, reduced=True)
    v3 = mod_d.monomial(("F", alpha, 3))
    assert mod_d.act(A1.d_elem(), v3) == Fraction(10) * v3
    assert mod_d.act(A1.d_elem(), mod_d.vacuum()) == Fraction(7) * mod_d.vacuum()


def test_unreduced_vacuum_actions():
    mod = VermaModule(A1, LAM_HALF, reduced=False)
    v = mod.vacuum()
    assert mod.act(A1.h(1, -2), v) == mod.monomial(("B", 1, 2))
    assert mod.act(A1.h(1, 2), v).is_zero()
    assert mod.act(A1.e(1, -4), v).is_zero()
    assert mod.act(A1.c_elem(), v).is_zero()  # lambda(c) = 0


def test_reduced_kills_cartan_loops_on_vacuum_only():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    v = mod.vacuum()
    for l in (-3, -1, 1, 2):
        assert mod.act(A1.h(1, l), v).is_zero()
    # but not on deeper vectors: h_{1,l} shifts the loop degree of F-factors
    fv = mod.monomial(("F", (1,), 0))
    got = mod.act(A1.h(1, 2), fv)
    assert got == Fraction(-2) * mod.monomial(("F", (1,), 2))


def test_straightening_rank2_relation():
    # acting f2 then f1 vs f1 then f2 differs by the theta root vector term
    lam = parse_weight("h1=-1/2,h2=-1/3", 2)
    mod = VermaModule(A2, lam, reduced=True)
    v = mod.vacuum()
    a_then_b = mod.act(A2.f(1, 0), mod.act(A2.f(2, 0), v))
    b_then_a = mod.act(A2.f(2, 0), mod.act(A2.f(1, 0), v))
    diff = a_then_b - b_then_a
    theta_term = mod.act(A2.loop(
        A2.finite.bracket(A2.finite.f(1), A2.finite.f(2)), 0), v)
    assert diff == theta_term
    assert not diff.is_zero()


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4",
                                   "F4", "G2"])
def test_symbol_bracket_is_the_pairing_rule(label):
    # a PBW symbol is the loop operator it names, so two symbols bracket
    # through the one operator bracket; the reference builds [s1, s2] from
    # the root pairing and the structure constants instead. The bracket is
    # one symbol or nothing, and moving s1 past a later s2 adds it
    a = aff(label)
    lam = Weight.make([Fraction(-1, i + 1) for i in range(1, a.rank + 1)], c=1)
    mod = VermaModule(a, lam, reduced=False)
    symbols = [("B", i, l) for i in range(1, a.rank + 1) for l in (1, 2)] + \
        [("F", gamma, n) for gamma in a.finite.roots.positive_roots for n in (-1, 0, 2)]
    for s1, s2 in product(symbols, repeat=2):
        got = mod._bracket(mod._sym(s1), mod._sym(s2))
        want = negative_symbol_bracket(a.finite, s1, s2)
        assert got == (() if want is None else ((mod._sym(want[0]), want[1]),))
        for op, _ in got:
            assert mod._syms[op] is not None and mod._sym(mod._syms[op]) == op
        if symbol_sort_key(s1) > symbol_sort_key(s2):
            swapped = {mod._intern((s2, s1)): 1}
            if want is not None:
                swapped[mod._intern((want[0],))] = want[1]
            assert mod._prepend(mod._sym(s1), mod._intern((s2,))) == swapped


def test_weight_additivity():
    rng = random.Random(9)
    lam = parse_weight("h1=-1/2,h2=-1/3", 2)
    mod = VermaModule(A2, lam, reduced=False)
    pos = A2.finite.roots.positive_roots
    for _ in range(40):
        symbols = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                symbols.append(("B", rng.randint(1, 2), rng.randint(1, 2)))
            else:
                symbols.append(("F", rng.choice(pos), rng.randint(-2, 2)))
        v = mod.monomial(*symbols)
        key = rng.choice(A2.finite.basis)
        n = rng.randint(-2, 2)
        g = A2.loop(A2.finite.element({key: 1}), n)
        image = mod.act(g, v)
        if image.is_zero():
            continue
        k0, s0 = weight_offset(v)
        if key[0] == "h":
            dk, ds = n, (0, 0)
        else:
            dk, ds = n, key[1]
        want = (k0 + dk, tuple(a - b for a, b in zip(s0, ds)))
        assert weight_offset(image) == want


BRACKET_CASES = [
    # (type, lambda, reduced); the full cases with lambda(c) != 0 run
    # the central term of the brackets
    ("A1", "h1=-1/2", True),
    ("A2", "h1=-1/2,h2=-2/3", True),
    ("A1", "h1=-1/2,c=2", False),
    ("A3", "h1=-1/2,h2=-1/3,h3=-1/5", True),
    ("A3", "h1=-1/2,h2=-1/3,h3=-1/5", False),
    ("C2", "h1=-3/4,h2=1/4", True),
    ("C2", "h1=-3/4,h2=1/4,c=1/2", False),
    ("G2", "h1=-1/2,h2=-1/3", True),
    ("G2", "h1=-1/2,h2=-1/3", False),
]


def test_bracket_compatibility_property():
    # [g1, g2] v = g1 g2 v - g2 g1 v on monomials of up to four symbols,
    # B- and F-symbols mixed in the full module, so that straightening
    # reorders symbols of both kinds several positions deep
    rng = random.Random(31)
    lengths = Counter()
    for label, lam_text, reduced in BRACKET_CASES:
        a = aff(label)
        mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=reduced)
        pos = a.finite.roots.positive_roots
        for _ in range(60):
            g1 = a.loop(a.finite.element({rng.choice(a.finite.basis): 1}),
                        rng.randint(-3, 3))
            g2 = a.loop(a.finite.element({rng.choice(a.finite.basis): 1}),
                        rng.randint(-3, 3))
            symbols = []
            for _ in range(rng.randint(0, 4)):
                if not reduced and rng.random() < 0.3:
                    symbols.append(("B", rng.randint(1, a.rank), rng.randint(1, 2)))
                else:
                    symbols.append(("F", rng.choice(pos), rng.randint(-2, 2)))
            kinds = {sym[0] for sym in symbols}
            lengths[len(symbols), len(kinds)] += 1
            v = mod.monomial(*symbols)
            lhs = mod.act(g1, mod.act(g2, v)) - mod.act(g2, mod.act(g1, v))
            rhs = mod.act(affine_bracket(g1, g2), v)
            assert (lhs - rhs).is_zero(), (label, reduced, g1, g2, symbols)
    assert lengths[4, 1] and lengths[4, 2] and lengths[3, 2]


def hand_act(mod, g, v):
    """act(g, v) summed by hand from the act_monomial images of g's terms on
    v's monomials, plus g's c and d parts."""
    out = {}
    for mono, cv in v.terms.items():
        for (key, n), cg in g.terms.items():
            for m2, c2 in mod.act_monomial(key, n, mono).items():
                out[m2] = out.get(m2, 0) + cv * cg * Fraction(c2, mod.scale)
        k, _ = monomial_offset(mono, mod.rank)
        out[mono] = (out.get(mono, 0) + cv * g.c * mod.lam.c_value
                     + cv * g.d * (mod.lam.d_value + k))
    return {m: c for m, c in out.items() if c}


def test_act_is_the_sum_of_monomial_images_fraction_coefficients():
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/3", 2), reduced=True)
    a1, a2, theta = (1, 0), (0, 1), (1, 1)
    v = mod.vector({(("F", a1, -1),): Fraction(2, 3),
                    (("F", a2, 1), ("F", a1, 0)): Fraction(-5, 7),
                    (("F", theta, 1),): Fraction(1, 2)})
    for g in (A2.e(1, 1), A2.e(2, 0), A2.h(1, 2), A2.f(1, -1)):
        got = mod.act(g, v)
        assert got.terms == hand_act(mod, g, v)
        assert not got.is_zero()


@pytest.mark.parametrize("reduced, lam_text", [
    pytest.param(True, "h1=-1/2,d=3", id="reduced"),
    pytest.param(False, "h1=-1/2,c=1,d=3", id="full-central"),
])
def test_act_is_the_sum_of_monomial_images_loop_elements(reduced, lam_text):
    mod = VermaModule(A1, parse_weight(lam_text, 1), reduced=reduced)
    alpha = (1,)
    g = (2 * A1.e(1, 1) + Fraction(1, 3) * A1.h(1, -2) - A1.f(1, 0)
         + Fraction(5, 2) * A1.c_elem() + 3 * A1.d_elem())
    assert len(g.terms) == 3 and g.c and g.d
    v = mod.vector({(("F", alpha, -1),): Fraction(3, 2),
                    (("F", alpha, -1), ("F", alpha, 2)): -1})
    got = mod.act(g, v)
    assert got.terms == hand_act(mod, g, v)
    assert not got.is_zero()
    if not reduced:
        # [e (x) t, f (x) t^-1] = h + c: lambda(h) + lambda(c) on the vacuum
        assert mod.act(A1.e(1, 1), mod.monomial(("F", alpha, -1))) == \
            Fraction(1, 2) * mod.vacuum()


def test_act_is_the_sum_of_monomial_images_past_the_input_degrees():
    # the image reaches per-factor loop degree 5, past every input factor
    mod = VermaModule(A1, parse_weight("h1=-1/2", 1), reduced=False)
    alpha = (1,)
    g = A1.h(1, 3) + 2 * A1.e(1, -1)
    v = mod.vector({(("F", alpha, 2),): Fraction(1, 3),
                    (("B", 1, 1), ("F", alpha, 1), ("F", alpha, 1)): 1})
    want = hand_act(mod, g, v)
    worst = max(sym[2] if sym[0] == "B" else abs(sym[2])
                for mono in want for sym in mono)
    assert worst == 5
    assert mod.act(g, v).terms == want


def test_act_rejects_foreign_contexts():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    other = aff("A1")
    with pytest.raises(ContextMismatchError):
        mod.act(other.e(1, 0), mod.vacuum())
    other_mod = VermaModule(A1, LAM_HALF, reduced=True)
    with pytest.raises(ContextMismatchError):
        mod.act(A1.e(1, 0), other_mod.vacuum())


def test_act_grows_the_loop_degree_uncapped():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    v = mod.monomial(("F", (1,), 2))
    got = mod.act(A1.h(1, 3), v)
    assert got == Fraction(-2) * mod.monomial(("F", (1,), 5))


def test_vector_validation():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    with pytest.raises(ImvermaError, match="canonical order"):
        mod.vector({(("F", (1,), 2), ("F", (1,), 0)): 1})
    with pytest.raises(ImvermaError, match="B-symbols"):
        mod.monomial(("B", 1, 1))
    with pytest.raises(ImvermaError, match="positive root"):
        mod.monomial(("F", (2,), 0))


# -- singular vectors ----------------------------------------------------------------


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("label", SEAM_TYPES)
def test_annihilator_generators_are_the_named_raising_operators(label, reduced):
    # the Cartan loops h_{i,l} by i, then l, and then the e_{i,m} by i, then m
    a = aff(label)
    mod = VermaModule(a, Weight.make([Fraction(-1, 2)] * a.rank), reduced=reduced)
    window = TruncationWindow(L=2, N=2, H=2)
    gens = mod.annihilator_generators(window)
    assert gens == [(gen_name(a, key, n), a.loop(a.finite.element({key: 1}), n))
                    for key, n in mod._raising_operators(window)]
    indices = range(1, a.rank + 1)
    cartan = [] if reduced else [f"h{i}@{l}" for i in indices for l in (1, 2)]
    assert [name for name, _ in gens] == \
        cartan + [f"e{i}@{m}" for i in indices for m in range(-2, 3)]


def test_singular_vectors_zero_h_direction():
    # lambda(h_i) = 0 makes every F(alpha_i, n) v a singular vector
    window = TruncationWindow(L=4, N=3, H=3)
    mod = VermaModule(A1, parse_weight("h1=0", 1), reduced=True)
    found = mod.singular_vectors([(None, (1,))], window)
    offs = sorted(k for (k, s), _ in found)
    assert offs == list(range(-3, 4))
    for (k, s), v in found:
        assert v == mod.monomial(("F", (1,), k))
        for gname, g in mod.annihilator_generators(window):
            assert mod.act(g, v).is_zero(), gname


def test_singular_vectors_rank2_partial_zero():
    window = TruncationWindow(L=3, N=2, H=2)
    mod = VermaModule(A2, parse_weight("h1=0,h2=-1/2", 2), reduced=True)
    found = mod.singular_vectors([(None, (1, 0)), (None, (0, 1))], window)
    # singular lines only along alpha1, one per loop degree
    assert all(s == (1, 0) for (_, s), _ in found)
    assert len(found) == 5


def test_singular_vectors_generic_lambda_only_highest_weight():
    window = TruncationWindow(L=4, N=3, H=3)
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    offsets = [(None, (s,)) for s in range(0, 4)]
    found = mod.singular_vectors(offsets, window)
    assert len(found) == 1
    (k, s), v = found[0]
    assert (k, s) == (0, (0,)) and v == mod.vacuum()


@pytest.mark.parametrize("label, lam_text, reduced, s", [
    ("A1", "h1=0", True, (1,)),
    ("A1", "h1=-1/2", False, (0,)),
    ("A2", "h1=0,h2=-1/2", True, (1, 0)),
])
def test_singular_vectors_offset_forms_agree(label, lam_text, reduced, s):
    # (k, s) picks the k entries of (None, s); repeated and overlapping
    # offsets list each weight space once, in (k, s) order
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=reduced)
    window = TruncationWindow(L=3, N=2, H=2)
    whole = mod.singular_vectors([(None, s)], window)
    assert len({k for (k, _), _ in whole}) > 1
    for k in range(-4, 5):
        assert mod.singular_vectors([(k, s)], window) == \
            [entry for entry in whole if entry[0][0] == k]
        assert mod.singular_vectors([(None, s), (k, s), (None, s)], window) == whole
    assert mod.singular_vectors([(2, s), (-1, s), (2, s)], window) == \
        [entry for entry in whole if entry[0][0] in (-1, 2)]


def all_operator_kernel(mod, offsets, window):
    """The joint kernel weight space by weight space, from the rows of every
    windowed raising operator at once, by the dense oracle."""
    gens = mod.annihilator_generators(window)
    spaces = {}
    for offset in offsets:
        for mono in mod.basis_monomials(offset, window):
            spaces.setdefault(monomial_offset(mono, mod.rank), set()).add(mono)
    found = []
    for exact in sorted(spaces):
        basis = sorted(spaces[exact],
                       key=lambda m: tuple(symbol_sort_key(x) for x in m))
        rows = {}
        for gname, g in gens:
            for j, mono in enumerate(basis):
                image = mod.act(g, mod.vector({mono: 1}))
                for m2, c2 in image.terms.items():
                    rows.setdefault((gname, m2), [Fraction(0)] * len(basis))[j] = c2
        for vec in gauss_solve_nullspace(list(rows.values()), len(basis)):
            found.append((exact, ModuleVector(mod, {basis[j]: x for j, x in
                                                    enumerate(vec) if x})))
    return found


def offsets_up_to(rank_, height):
    return [(None, s) for s in product(range(height + 1), repeat=rank_)
            if sum(s) <= height]


SINGULAR_CASES = [
    # empty kernels off the delta string of the highest weight (the unreduced
    # window still has kernel vectors on it, made of B-symbols only)
    pytest.param("A1", "h1=-1/2", False, "L=3,N=2,H=2", False, id="A1-full-half"),
    pytest.param("A3", "h1=-1/2,h2=-1/2,h3=-1/2", True, "L=3,N=1,H=2", False,
                 id="A3-reduced-half"),
    # nonempty kernels below the highest weight
    pytest.param("A1", "h1=0", True, "L=3,N=2,H=2", True, id="A1-h1-zero"),
    pytest.param("A2", "h1=1,h2=0", True, "L=3,N=2,H=2", True, id="A2-h1-one"),
    pytest.param("C2", "h1=0,h2=-1/2", True, "L=3,N=1,H=2", True, id="C2-h1-zero"),
]


@pytest.mark.parametrize("label, lam_text, reduced, window_text, below",
                         SINGULAR_CASES)
def test_singular_vectors_match_oracle_over_all_operators(label, lam_text, reduced,
                                                          window_text, below):
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=reduced)
    window = parse_window(window_text)
    offsets = offsets_up_to(a.rank, window.H)
    want = all_operator_kernel(mod, offsets, window)
    assert mod.singular_vectors(offsets, window) == want
    zero = (0,) * a.rank
    assert [v for off, v in want if off == (0, zero)] == [mod.vacuum()]
    assert any(s != zero for (_, s), _ in want) == below


BEYOND_WINDOW_CASES = [
    pytest.param("A1", "h1=0", False, "L=3,N=2,H=2", id="A1-h1-zero-full"),
    pytest.param("A1", "h1=-1/2", False, "L=4,N=3,H=2", id="W1-A1-full-half"),
    pytest.param("A1", "h1=-1/2", True, "L=4,N=3,H=3", id="A1-reduced-half"),
    pytest.param("A3", "h1=-1/2,h2=-1/2,h3=-1/2", True, "L=4,N=3,H=3",
                 id="A3-reduced-half"),
    pytest.param("A2", "h1=0,h2=-1/2", True, "L=3,N=2,H=2", id="A2-h1-zero"),
]


@pytest.mark.parametrize("label, lam_text, reduced, window_text", BEYOND_WINDOW_CASES)
def test_singular_vectors_are_killed_beyond_the_window(label, lam_text, reduced,
                                                       window_text):
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=reduced)
    window = parse_window(window_text)
    found = mod.singular_vectors(offsets_up_to(a.rank, window.H), window)
    assert found
    assert beyond_window_survivors(mod, found, window) == []
    # a lowering line one degree past the window: e_{1,-m} takes
    # F(alpha_1, m) v to lambda(h_1) v, which is zero only if lambda(h_1) is
    m = window.N + 1
    alpha1 = a.finite.roots.simple_roots[0]
    line = [((m, alpha1), mod.monomial(("F", alpha1, m)))]
    survivors = beyond_window_survivors(mod, line, window)
    assert (((m, alpha1), f"e1@{-m}") in survivors) == (mod.lam.h_values[0] != 0)


def search_with_calls(mod, offsets, window):
    """singular_vectors, and the (key, n, mono) of each call it makes itself
    to the action on interned ids, _act(op, m), decoded from the ids: the
    operator's (basis index, n) through the finite basis, and the monomial
    through its tuple accessor _mono, since a listed monomial's tuple is
    built only when asked for (the recursion inside _act is not counted)."""
    calls = []
    inner = mod._act
    depth = [0]

    def counted(op, m):
        if not depth[0]:
            i, n = mod._ops[op]
            calls.append((mod._keys[i], n, mod._mono(m)))
        depth[0] += 1
        try:
            return inner(op, m)
        finally:
            depth[0] -= 1

    mod._act = counted
    try:
        return mod.singular_vectors(offsets, window), calls
    finally:
        del mod._act


@pytest.mark.parametrize("integral, c", [(False, 0), (False, Fraction(1, 2)), (True, 0)],
                         ids=["half", "central", "integral"])
@pytest.mark.parametrize("label, window_text", [
    ("A1", "L=3,N=2,H=2"), ("A2", "L=3,N=1,H=2"), ("C2", "L=3,N=1,H=2"),
    ("G2", "L=2,N=1,H=2"), ("A3", "L=2,N=1,H=2")])
def test_singular_search_stops_applying_operators_at_full_rank(label, window_text,
                                                               integral, c):
    # the unreduced module feeds the Cartan loops h_{i,l} first; they reach
    # full column rank on every space with s != 0, so no e_{i,m} is applied
    # there, and e_{i,m} vanishes by weight at s = 0
    a = aff(label)
    lam = Weight.make([0 if integral else Fraction(-1, 2 + i) for i in range(a.rank)], c)
    mod = VermaModule(a, lam, reduced=False)
    window = parse_window(window_text)
    gens = [name for name, _ in mod.annihilator_generators(window)]
    cartan = a.rank * window.N
    assert all(name.startswith("h") for name in gens[:cartan])
    assert all(name.startswith("e") for name in gens[cartan:])
    offsets = offsets_up_to(a.rank, window.H)
    found, calls = search_with_calls(mod, offsets, window)
    assert found == all_operator_kernel(mod, offsets, window)
    assert calls and all(key[0] == "h" for key, _, _ in calls)
    per_operator = sum(len(mod.basis_monomials(off, window)) for off in offsets)
    assert len(calls) < per_operator * len(gens)


@pytest.mark.parametrize("label, lam_text, window_text, count", [
    ("A1", "h1=-1/2", "L=3,N=2,H=2", 10), ("A1", "h1=0", "L=3,N=2,H=2", 10),
    ("A2", "h1=-1/2,h2=-1/3", "L=3,N=2,H=2", 35),
    ("C2", "h1=0,h2=-1/2", "L=2,N=1,H=2", 6),
    ("A1", "h1=-1/2,c=1", "L=3,N=2,H=2", 1),
    ("A2", "h1=-1/2,h2=-1/3,c=-2", "L=3,N=2,H=2", 1)])
def test_full_module_singular_report_is_the_closed_form(label, lam_text, window_text,
                                                        count):
    # ROADMAP item 8's lemma: at lambda(c) = 0 the report is every basis
    # vector at s = 0, at lambda(c) != 0 only v
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=False)
    window = parse_window(window_text)
    found = mod.singular_vectors(offsets_up_to(a.rank, window.H), window)
    assert [(offset, v.terms) for offset, v in found] == \
        full_singular_closed_form(mod, window)
    assert len(found) == count


@cache
def closed_form_algebra(label):
    return aff(label)


@st.composite
def closed_form_cases(draw):
    label = draw(st.sampled_from(["A1", "A2", "B2", "C2", "G2"]))
    rank = closed_form_algebra(label).rank
    value = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
    hs = draw(st.lists(value, min_size=rank, max_size=rank))
    c = draw(st.sampled_from([0, 1, Fraction(-1, 2)]))
    window = TruncationWindow(L=draw(st.integers(1, 3)), N=draw(st.integers(1, 2)),
                              H=draw(st.integers(1, 2)))
    return label, Weight.make(hs, c), window


@settings(max_examples=60, deadline=None)
@given(closed_form_cases())
def test_property_full_module_singular_report_is_the_closed_form(case):
    # ROADMAP item 8's lemma over random types, lambda (0 and integers
    # included) and windows
    label, lam, window = case
    a = closed_form_algebra(label)
    mod = VermaModule(a, lam, reduced=False)
    found = mod.singular_vectors(offsets_up_to(a.rank, window.H), window)
    assert [(offset, v.terms) for offset, v in found] == \
        full_singular_closed_form(mod, window)


@st.composite
def survivor_cases(draw):
    label = draw(st.sampled_from(["A1", "A2", "A3", "C2", "G2"]))
    rank = closed_form_algebra(label).rank
    value = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(1, 3),
                             Fraction(-2, 3)])
    hs = draw(st.lists(value, min_size=rank, max_size=rank))
    reduced = draw(st.booleans())
    c = 0 if reduced else draw(st.sampled_from([0, 1]))
    window = TruncationWindow(L=draw(st.integers(1, 3)), N=draw(st.integers(1, 2)),
                              H=draw(st.integers(1, 3 if label == "A1" else 2)))
    return label, Weight.make(hs, c), reduced, window


@settings(max_examples=100, deadline=None)
@given(survivor_cases())
def test_property_singular_vectors_are_killed_beyond_the_window(case):
    # ROADMAP item 4(c): every reported vector is killed by the raising
    # operators just past the window, whatever the search skipped by weight
    label, lam, reduced, window = case
    a = closed_form_algebra(label)
    mod = VermaModule(a, lam, reduced=reduced)
    found = mod.singular_vectors(offsets_up_to(a.rank, window.H), window)
    assert beyond_window_survivors(mod, found, window) == []


@pytest.mark.parametrize("label, lam_text", [
    ("A1", "h1=-1/2"), ("A1", "h1=0"), ("A2", "h1=-1/2,h2=-1/3"),
    ("C2", "h1=0,h2=-1/2"), ("G2", "h1=-1/2,h2=-1/3"), ("A1", "h1=-1/2,c=1")])
def test_degree_one_cartan_loops_alone_reach_full_rank(label, lam_text):
    # the lemma behind the Cartan-first order: on every space with s != 0
    # the rows of h_{1,1}, ..., h_{r,1} alone have full column rank, so the
    # search applies no e_{i,m} there
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=False)
    window = parse_window("L=3,N=2,H=2")
    spaces = 0
    for _, s in offsets_up_to(a.rank, window.H):
        if not any(s):
            continue
        for basis in mod.weight_bases(s, window).values():
            rows = {}
            for j, mono in enumerate(basis):
                for i in range(1, a.rank + 1):
                    for m2, c in mod.act_monomial(("h", i), 1, mono).items():
                        rows.setdefault((i, m2), {})[j] = c
            _, pivots = dense_rref(dense_rows(list(rows.values()), len(basis)))
            assert len(pivots) == len(basis), (s, basis)
            spaces += 1
    assert spaces


@pytest.mark.parametrize("label, lam_text, window_text, count, sha1", [
    pytest.param("A2", "h1=-1/2,h2=-1/3", "L=3,N=2,H=2", 214,
                 "1d764132807d7297e94523225a3221456ab62b6c", id="A2-214"),
    pytest.param("C2", "h1=0,h2=-1/2", "L=3,N=1,H=2", 86,
                 "1d186d823ce04a9f41635f79c105d99ccac3ad7a", id="C2-86"),
])
def test_reduced_singular_search_calls_are_pinned(label, lam_text, window_text,
                                                  count, sha1):
    # the reduced module has no Cartan loops: it applies the e_{i,m} in
    # (i, m) order, and its calls were recorded before the unreduced module
    # moved its Cartan loops first; re-recorded when the search moved to one
    # finite offset at a time, its spaces in listing order, with the calls
    # grouped by the offset of their monomial unchanged
    a = aff(label)
    mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=True)
    window = parse_window(window_text)
    assert [name for name, _ in mod.annihilator_generators(window)] == \
        [f"e{i}@{m}" for i in range(1, a.rank + 1)
         for m in range(-window.N, window.N + 1)]
    _, calls = search_with_calls(mod, offsets_up_to(a.rank, window.H), window)
    assert len(calls) == count
    assert hashlib.sha1(repr(calls).encode()).hexdigest() == sha1


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_skipped_raising_operators_are_zero(label, reduced):
    # e_i (x) t^m maps the offset (k, s) to (k + m, s - alpha_i), which is
    # zero by weight when s_i = 0 (a negative coordinate), and at
    # s = alpha_i when k + m != 0 in the reduced module, or k + m > 0 in the
    # full one: the operator kills the whole space, and the search never
    # applies it there
    a = aff(label)
    lam = Weight.make([Fraction(-1, 2 + i) for i in range(a.rank)])
    mod = VermaModule(a, lam, reduced=reduced)
    window = TruncationWindow(L=2, N=1, H=2)
    offsets = offsets_up_to(a.rank, window.H)
    simple = a.finite.roots.simple_roots
    skipped = at_root = nonzero = 0
    for _, s in offsets:
        for mono in mod.basis_monomials((None, s), window):
            k = monomial_offset(mono, a.rank)[0]
            for i in range(1, a.rank + 1):
                key = ("x", simple[i - 1])
                assert vanishes_by_weight(key, s) == (s[i - 1] == 0)
                lo, hi = nonzero_degrees(_sub(s, key[1]), reduced)
                for m in range(-window.N, window.N + 1):
                    image = mod.act(a.e(i, m), mod.vector({mono: 1}))
                    if s[i - 1] == 0:
                        assert lo > hi
                        assert mod.act_monomial(key, m, mono) == {}
                        assert image.is_zero(), (i, m, mono)
                        skipped += 1
                    elif not lo <= k + m <= hi:
                        assert s == key[1]
                        assert mod.act_monomial(key, m, mono) == {}
                        assert image.is_zero(), (i, m, mono)
                        at_root += 1
                    else:
                        nonzero += not image.is_zero()
    assert skipped and at_root and nonzero
    found, calls = search_with_calls(mod, offsets, window)
    assert calls
    zero = (0,) * a.rank
    for key, n, mono in calls:
        k, s = monomial_offset(mono, a.rank)
        assert not vanishes_by_weight(key, s)
        lo, hi = nonzero_degrees(_sub(s, key[1] if key[0] == "x" else zero), reduced)
        assert lo <= k + n <= hi, (key, n, mono)
    assert found == all_operator_kernel(mod, offsets, window)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_nonzero_degrees_bound_every_windowed_space(label, reduced):
    # every windowed space lies within the degree bounds, and the bounds are
    # reached where they are finite: the vacuum at (0, 0) and, in the full
    # module, B-monomials below it
    a = aff(label)
    mod = VermaModule(a, Weight.make([Fraction(-1, 2)] * a.rank), reduced=reduced)
    window = TruncationWindow(L=3, N=2, H=2)
    for s in product(range(-1, 3), repeat=a.rank):
        lo, hi = nonzero_degrees(s, reduced)
        if min(s) < 0:
            assert lo > hi
            continue
        dims = mod.weight_dims(s, window) if sum(s) <= window.H else {}
        assert all(lo <= k <= hi for k in dims), (s, dims)
        if not any(s):
            assert hi == 0 and dims[0] == 1
            assert (lo == 0) == reduced and (min(dims) < 0) == (not reduced)


def test_act_monomial_returns_a_fresh_dict():
    # act_monomial reads the one action memo and hands out a copy: changing
    # the dict it returns changes neither a later call nor act()
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/3", 2), reduced=False)
    alpha1, theta = (1, 0), (1, 1)
    mono = (("B", 2, 1), ("F", alpha1, -1), ("F", theta, 2))
    v = mod.vector({mono: 1})
    for key, n in ((("x", alpha1), 1), (("h", 1), 2), (("x", (-1, 0)), 0)):
        first = mod.act_monomial(key, n, mono)
        want = dict(first)
        assert want
        first.clear()
        first[()] = 99
        again = mod.act_monomial(key, n, mono)
        assert again == want and again is not first
        again.popitem()
        assert mod.act_monomial(key, n, mono) == want
        g = A2.loop(A2.finite.element({key: 1}), n)
        assert mod.act(g, v).terms == {m: Fraction(c, mod.scale)
                                       for m, c in want.items()}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "D4"])
def test_bracket_table_is_integral(label):
    fin = aff(label).finite
    values = [c for image in fin._bracket_table.values() for c in image.values()]
    assert values and all(type(c) is int for c in values)


def test_straightening_coefficients_are_int_away_from_lambda():
    # lowering root vectors and Cartan loops never reach lambda: their images
    # of a unit monomial carry int coefficients; lambda enters at the vacuum
    lam = parse_weight("h1=-1/2,h2=-1/3", 2)
    mod = VermaModule(A2, lam, reduced=False)
    window = TruncationWindow(L=3, N=2, H=3)
    monos = [m for s in ((0, 0), (1, 0), (1, 1), (2, 1))
             for m in mod.basis_monomials((None, s), window)]
    keys = [("x", tuple(-x for x in g)) for g in A2.finite.roots.positive_roots]
    keys += [("h", 1), ("h", 2)]
    seen = 0
    for mono in monos:
        for key in keys:
            for n in (-2, -1, 1, 2):
                image = mod.act_monomial(key, n, mono)
                assert all(type(c) is int for c in image.values()), (key, n, mono)
                seen += len(image)
        image = mod.act(A2.f(1, 1), mod.vector({mono: 1}))
        assert all(type(c) is int for c in image.terms.values())
    assert seen > 100
    alpha1 = A2.finite.roots.simple_roots[0]
    assert mod.scale == 6 and mod.act_monomial(("x", alpha1), -1, (("F", alpha1, 1),)) == \
        {(): -3}
    assert mod.act(A2.e(1, -1), mod.monomial(("F", alpha1, 1))).terms == {(): Fraction(-1, 2)}


@pytest.mark.parametrize("lam_text, reduced", [("h1=-1/2,h2=-1/3", True),
                                               ("h1=-1/2,h2=-1/3,c=1/2", False)])
def test_singular_search_memoises_int_images_scaled_by_the_denominator(lam_text,
                                                                       reduced):
    # the lcm of the denominators of lambda(h_i) and lambda(c) is 6 in both
    mod = VermaModule(A2, parse_weight(lam_text, 2), reduced=reduced)
    window = TruncationWindow(L=3, N=2, H=2)
    mod.singular_vectors(offsets_up_to(2, window.H), window)
    assert mod.scale == 6 and any(mod._act_memo)
    assert all(type(m2) is int and type(c) is int
               for memo in mod._act_memo for image in memo.values()
               for m2, c in image.items())
    # act() still equals the images summed by hand
    alpha1, theta = (1, 0), (1, 1)
    v = mod.vector({(("F", alpha1, -1),): Fraction(2, 3), (("F", theta, 1),): 5})
    for g in (A2.e(1, 1), A2.f(2, 0), A2.h(1, 0), A2.h(0),
              A2.h(2, -1) + 3 * A2.c_elem() + A2.d_elem()):
        assert mod.act(g, v).terms == hand_act(mod, g, v)


def test_unreduced_smoke_nonzero_central_charge():
    # with lambda(c) != 0 the full module is irreducible; a small-window
    # search finds nothing beyond the highest-weight line
    window = TruncationWindow(L=3, N=2, H=2)
    mod = VermaModule(A1, parse_weight("h1=-1/2,c=1", 1), reduced=False)
    offsets = [(None, (s,)) for s in range(0, 3)]
    found = mod.singular_vectors(offsets, window)
    assert [((k, s), v.terms) for (k, s), v in found] == \
        [((0, (0,)), {(): Fraction(1)})]


# -- nilpotency ------------------------------------------------------------------------


def test_nilpotency_degrees_and_cap():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    alpha = (1,)
    assert nilpotency_degree(mod, mod.vacuum(), 1, 0) == 1
    assert nilpotency_degree(mod, mod.monomial(("F", alpha, 0)), 1, 0) == 2
    two = mod.monomial(("F", alpha, 0), ("F", alpha, 0))
    assert nilpotency_degree(mod, two, 1, 0) == 3
    assert nilpotency_degree(mod, two, 1, 0, cap=2) is None


def test_lowering_string_matches_sl2_formula():
    # e_{1,0} f_{1,0}^k v = k (lambda - k + 1) f^{k-1} v, frozen from the
    # classical sl2 Verma relation
    lam_h = Fraction(-1, 2)
    mod = VermaModule(A1, Weight.make([lam_h]), reduced=True)
    v = mod.vacuum()
    fk = v
    for k in range(1, 5):
        fk = mod.act(A1.f(1, 0), fk)
        ek = mod.act(A1.e(1, 0), fk)
        coeff = sl2_lowering_string_coefficient(lam_h, k)
        fk_minus = v
        for _ in range(k - 1):
            fk_minus = mod.act(A1.f(1, 0), fk_minus)
        assert ek == coeff * fk_minus


def test_reduced_admissibility_propagates_for_nonintegral_lambda():
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/3", 2), reduced=True)
    window = TruncationWindow(L=3, N=2, H=2)
    for s in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        for k in range(-2, 3):
            if mod.basis_monomials((k, s), window):
                assert mod.weight_of_offset((k, s)).is_reduced_admissible()

"""Verma layer: dimension tables against the generating-function oracle,
the worked action examples, bracket compatibility as a property, singular
vector kernels in both directions of the irreducibility criterion, and local
nilpotency against closed-form sl2 Verma coefficients, the singular-vector
search against the dense oracle over every raising operator's rows, and the
integer straightening coefficients."""

import random
from fractions import Fraction
from itertools import product

import pytest

from imverma.affine import AffineAlgebra, affine_bracket
from imverma.cartan import cartan_matrix_of_type
from imverma.errors import ContextMismatchError, ImvermaError, WindowOverflowError
from imverma.finite import build_simple_algebra
from imverma.verma import (ModuleVector, TruncationWindow, VermaModule, Weight,
                           monomial_offset, parse_weight, parse_window,
                           symbol_sort_key)

from oracles import (colored_partition_counts, gauss_solve_nullspace,
                     sl2_lowering_string_coefficient)


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


def test_basis_monomials_are_canonical_and_unique():
    mod = VermaModule(A2, parse_weight("h1=-1/2,h2=-1/2", 2), reduced=False)
    window = TruncationWindow(L=3, N=2, H=2)
    seen = set()
    for s in [(0, 0), (1, 0), (1, 1), (2, 0)]:
        for k in range(-3, 4):
            for m in mod.basis_monomials((k, s), window):
                assert m not in seen
                seen.add(m)
                assert monomial_offset(m, 2) == (k, s)


def test_offset_height_over_window_rejected():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    with pytest.raises(WindowOverflowError):
        mod.basis_monomials((0, (5,)), TruncationWindow(L=2, N=2, H=2))


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
        k0, s0 = v.weight_offset()
        if key[0] == "h":
            dk, ds = n, (0, 0)
        else:
            dk, ds = n, key[1]
        want = (k0 + dk, tuple(a - b for a, b in zip(s0, ds)))
        assert image.weight_offset() == want


def test_bracket_compatibility_property():
    rng = random.Random(31)
    for a, lam_text, reduced in ((A1, "h1=-1/2", True), (A2, "h1=-1/2,h2=-2/3", True),
                                 (A1, "h1=-1/2,c=2", False)):
        lam = parse_weight(lam_text, a.rank)
        mod = VermaModule(a, lam, reduced=reduced)
        pos = a.finite.roots.positive_roots
        for _ in range(70):
            g1 = a.loop(a.finite.element({rng.choice(a.finite.basis): 1}),
                        rng.randint(-3, 3))
            g2 = a.loop(a.finite.element({rng.choice(a.finite.basis): 1}),
                        rng.randint(-3, 3))
            symbols = []
            for _ in range(rng.randint(0, 2)):
                if not reduced and rng.random() < 0.3:
                    symbols.append(("B", rng.randint(1, a.rank), rng.randint(1, 2)))
                else:
                    symbols.append(("F", rng.choice(pos), rng.randint(-2, 2)))
            v = mod.monomial(*symbols)
            lhs = mod.act(g1, mod.act(g2, v)) - mod.act(g2, mod.act(g1, v))
            rhs = mod.act(affine_bracket(g1, g2), v)
            assert (lhs - rhs).is_zero()


def test_act_rejects_foreign_contexts():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    other = aff("A1")
    with pytest.raises(ContextMismatchError):
        mod.act(other.e(1, 0), mod.vacuum())
    other_mod = VermaModule(A1, LAM_HALF, reduced=True)
    with pytest.raises(ContextMismatchError):
        mod.act(A1.e(1, 0), other_mod.vacuum())


def test_window_overflow_reports_required_cap():
    mod = VermaModule(A1, LAM_HALF, reduced=True)
    v = mod.monomial(("F", (1,), 2))
    with pytest.raises(WindowOverflowError) as exc:
        mod.act(A1.h(1, 3), v, degree_cap=3)
    assert exc.value.required == 5
    # uncapped act is exact
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


def test_singular_search_stops_applying_operators_at_full_rank():
    # most weight spaces reach full column rank before the last raising
    # operator, so fewer actions are computed for the same kernel
    mod = VermaModule(A1, LAM_HALF, reduced=False)
    window = TruncationWindow(L=3, N=2, H=2)
    offsets = offsets_up_to(1, 2)
    want = all_operator_kernel(mod, offsets, window)
    calls = []
    act = mod.act
    mod.act = lambda g, v, degree_cap=None: calls.append(g) or act(g, v, degree_cap)
    assert mod.singular_vectors(offsets, window) == want
    del mod.act
    per_operator = sum(len(mod.basis_monomials(off, window)) for off in offsets)
    assert 0 < len(calls) < per_operator * len(mod.annihilator_generators(window))


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
                image = mod._act_key(key, n, mono)
                assert all(type(c) is int for c in image.values()), (key, n, mono)
                seen += len(image)
        image = mod.act(A2.f(1, 1), mod.vector({mono: 1}))
        assert all(type(c) is int for c in image.terms.values())
    assert seen > 100
    alpha1 = A2.finite.roots.simple_roots[0]
    assert mod._act_key(("x", alpha1), -1, (("F", alpha1, 1),)) == {(): Fraction(-1, 2)}


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
    assert mod.nilpotency_degree(mod.vacuum(), 1, 0) == 1
    assert mod.nilpotency_degree(mod.monomial(("F", alpha, 0)), 1, 0) == 2
    two = mod.monomial(("F", alpha, 0), ("F", alpha, 0))
    assert mod.nilpotency_degree(two, 1, 0) == 3
    assert mod.nilpotency_degree(two, 1, 0, cap=2) is None


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

"""Acceptance criteria, one test per criterion, every tolerance exact.

Each test prints a single PASS line (visible with -v/-s) and enforces the
stated runtime budget where one exists. Randomized criteria use fixed seeds
so the suite is reproducible.
"""

import random
import time
from fractions import Fraction

from imverma.affine import AffineAlgebra, TwistedSubalgebra, affine_bracket
from imverma.cartan import cartan_matrix_of_type
from imverma.category import (ExplicitModule, build_loop_module,
                              check_category_membership,
                              decompose_into_reduced_vermas, sl2_irrep_matrices,
                              torsion_decompose)
from imverma.finite import DiagramAutomorphism, build_simple_algebra
from imverma.verma import (TruncationWindow, VermaModule, Weight, parse_weight)

from oracles import (affine_cartan_entry, automorphism_trace, check_bracket_closure,
                     colored_partition_counts)


def aff(label):
    return AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))


def report(num, name, t0):
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.time() - t0:.2f}s)")


def test_criterion_1_presentation_consistency():
    t0 = time.time()
    for label in ["A1", "A2", "A3", "C2"]:
        a = aff(label)
        n = a.rank
        idx = range(0, n + 1)
        for i in idx:
            assert affine_bracket(a.d_elem(), a.h(i)).is_zero()
            assert affine_bracket(a.d_elem(), a.e(i)) == \
                (a.e(0) if i == 0 else a.zero())
            assert affine_bracket(a.d_elem(), a.f(i)) == \
                (Fraction(-1) * a.f(0) if i == 0 else a.zero())
            for j in idx:
                aij = Fraction(affine_cartan_entry(a, i, j))
                assert affine_bracket(a.h(i), a.h(j)).is_zero()
                assert affine_bracket(a.h(i), a.e(j)) == aij * a.e(j)
                assert affine_bracket(a.h(i), a.f(j)) == -aij * a.f(j)
                ef = affine_bracket(a.e(i), a.f(j))
                assert ef == (a.h(i) if i == j else a.zero())
                if i != j:
                    power = 1 - affine_cartan_entry(a, i, j)
                    for gen, start in ((a.e, a.e(j)), (a.f, a.f(j))):
                        acc = start
                        for _ in range(power):
                            acc = affine_bracket(gen(i), acc)
                        assert acc.is_zero(), (label, i, j)
    dt = time.time() - t0
    assert dt < 10.0, f"criterion 1 exceeded its 10s budget: {dt:.1f}s"
    report(1, "presentation-consistency", t0)


def test_criterion_2_affine_jacobi_random_triples():
    t0 = time.time()
    rng = random.Random(2024)
    per_type = {"A1": 334, "A2": 333, "A3": 333}
    for label, count in per_type.items():
        a = aff(label)
        keys = a.finite.basis
        for _ in range(count):
            def rnd():
                el = a.loop(a.finite.element({rng.choice(keys): 1}),
                            rng.randint(-5, 5))
                roll = rng.random()
                if roll < 0.15:
                    el = el + a.c_elem()
                elif roll < 0.3:
                    el = el + a.d_elem()
                return el
            x, y, z = rnd(), rnd(), rnd()
            j = affine_bracket(x, affine_bracket(y, z)) \
                + affine_bracket(y, affine_bracket(z, x)) \
                + affine_bracket(z, affine_bracket(x, y))
            assert j.is_zero()
    report(2, "affine-jacobi-1000-triples", t0)


def test_criterion_3_delta_string_dimensions():
    t0 = time.time()
    window = TruncationWindow(L=8, N=8, H=1)
    for label, rank_ in (("A1", 1), ("A2", 2), ("A3", 3)):
        a = aff(label)
        lam = Weight.make([Fraction(-1, 2)] * rank_)
        mod = VermaModule(a, lam, reduced=False)
        oracle = colored_partition_counts(rank_, 8)
        zero = tuple(0 for _ in range(rank_))
        for k in range(0, 9):
            got = mod.weight_dim((-k, zero), window)
            assert got == oracle[k], (label, k, got, oracle[k])
    dt = time.time() - t0
    assert dt < 30.0, f"criterion 3 exceeded its 30s budget: {dt:.1f}s"
    report(3, "delta-string-dimensions", t0)


def test_criterion_4_irreducibility_criterion_both_directions():
    t0 = time.time()
    # (a) a vanishing lambda(h_i) produces the F(alpha_i, n) singular lines
    window = TruncationWindow(L=4, N=3, H=3)
    for label, lam_text, i_zero in (("A1", "h1=0", 1), ("A2", "h1=0,h2=-1/2", 1)):
        a = aff(label)
        mod = VermaModule(a, parse_weight(lam_text, a.rank), reduced=True)
        alpha_i = a.finite.roots.simple_roots[i_zero - 1]
        s = tuple(alpha_i)
        found = mod.singular_vectors([(None, s)], window)
        assert sorted(k for (k, _), _ in found) == list(range(-3, 4))
        for (k, _), v in found:
            assert v == mod.monomial(("F", s, k))
            for gname, g in mod.annihilator_generators(window):
                assert mod.act(g, v).is_zero(), (label, k, gname)
    # (b) all lambda(h_i) = -1/2: the kernel is exactly the highest-weight line
    window_b = TruncationWindow(L=4, N=3, H=3)
    a1 = aff("A1")
    mod = VermaModule(a1, parse_weight("h1=-1/2", 1), reduced=True)
    offsets = [(None, (s,)) for s in range(0, 4)]
    found = mod.singular_vectors(offsets, window_b)
    assert len(found) == 1
    (k, s), v = found[0]
    assert (k, s) == (0, (0,)) and v == mod.vacuum()
    report(4, "irreducibility-criterion", t0)


def test_criterion_5_reduced_verma_torsion_split():
    t0 = time.time()
    a1 = aff("A1")
    lam = parse_weight("h1=-1/2", 1)
    em = ExplicitModule.from_reduced_verma(
        a1, lam, kmax=5, window=TruncationWindow(L=3, N=5, H=1),
        loop_window=4)
    split = torsion_decompose(em, 4)
    assert split.torsion_dim() == 1
    [(widx, vec)] = split.torsion_vectors()
    assert em.labels[widx] == ["v"]
    assert em.weights[widx].h_values == lam.h_values
    assert vec == {0: Fraction(1)}
    for axiom in ("i", "ii", "iii", "iv"):
        assert split.verdicts[axiom]["passed"], (axiom, split.verdicts[axiom])
    report(5, "example-torsion-split", t0)


def test_criterion_6_loop_modules_excluded():
    t0 = time.time()
    a1 = aff("A1")
    for dim in (2, 3):
        lm = build_loop_module(a1, sl2_irrep_matrices(dim), 3)
        split = torsion_decompose(lm, 3)
        assert split.torsion_dim() == 0, f"dim {dim}: torsion must vanish"
        rep = check_category_membership(lm, 3)
        assert not rep["axioms"]["1"]["passed"], dim
        assert not rep["axioms"]["3"]["passed"], dim
    report(6, "loop-modules-not-members", t0)


def test_criterion_7_randomized_decompositions():
    t0 = time.time()
    rng = random.Random(777)

    def random_lambda(rank_):
        # odd numerator over 2: never an integer, always negative
        return ",".join(f"h{i+1}=-{2 * rng.randint(0, 6) + 1}/2"
                        for i in range(rank_))

    cases = [("A1", 12), ("A2", 8)]
    total = 0
    for label, count in cases:
        a = aff(label)
        if label == "A1":
            kmax, window, lw, gw = 4, TruncationWindow(3, 4, 1), 3, 3
        else:
            kmax, window, lw, gw = 3, TruncationWindow(2, 3, 1), 2, 2
        for instance in range(count):
            t_inst = time.time()
            r = rng.randint(1, 3)
            lams = [parse_weight(random_lambda(a.rank), a.rank) for _ in range(r)]
            mods = [ExplicitModule.from_reduced_verma(
                a, lam, kmax=kmax, window=window, loop_window=lw)
                for lam in lams]
            em = mods[0] if r == 1 else ExplicitModule.direct_sum(mods)
            em = em.scrambled(rng.randint(0, 10 ** 6))
            summands, audit = decompose_into_reduced_vermas(em, gw)
            got = sorted(str(w.h_values) for w, _ in summands)
            want = sorted(str(lam.h_values) for lam in lams)
            assert got == want, (label, instance, got, want)
            assert audit["passed"]
            dt = time.time() - t_inst
            assert dt < 60.0, f"instance exceeded 60s: {dt:.1f}s"
            total += 1
    assert total == 20
    report(7, "randomized-decompositions-20x", t0)


def test_criterion_8_twisted_construction():
    t0 = time.time()
    a3 = aff("A3")
    aut = DiagramAutomorphism(a3.finite, {1: 3, 2: 2, 3: 1})
    # eigenspace oracle: the trace of the induced involution fixes both dims
    tr = automorphism_trace(aut)
    fixed = (a3.finite.dimension + tr) // 2
    assert fixed == 10 and a3.finite.dimension - fixed == 5
    tw = TwistedSubalgebra(a3, aut, 4)
    for m in range(-4, 5):
        want = 10 if m % 2 == 0 else 5
        assert tw.graded_dimension(m) == want, m
    closure = check_bracket_closure(tw)
    assert closure["passed"], closure["failures"][:3]
    report(8, "twisted-fixed-subalgebra", t0)


def test_criterion_9_bracket_compatibility_500_triples():
    t0 = time.time()
    rng = random.Random(909)
    for label, count in (("A1", 250), ("A2", 250)):
        a = aff(label)
        lam = parse_weight(",".join(f"h{i+1}=-1/2" for i in range(a.rank)), a.rank)
        mod = VermaModule(a, lam, reduced=True)
        pos = a.finite.roots.positive_roots
        keys = a.finite.basis
        for _ in range(count):
            g1 = a.loop(a.finite.element({rng.choice(keys): 1}), rng.randint(-3, 3))
            g2 = a.loop(a.finite.element({rng.choice(keys): 1}), rng.randint(-3, 3))
            symbols = [("F", rng.choice(pos), rng.randint(-3, 3))
                       for _ in range(rng.randint(0, 2))]
            v = mod.monomial(*symbols)
            lhs = mod.act(g1, mod.act(g2, v)) - mod.act(g2, mod.act(g1, v))
            rhs = mod.act(affine_bracket(g1, g2), v)
            assert (lhs - rhs).is_zero()
    report(9, "action-bracket-compatibility-500x", t0)

"""Loop realization: bracket examples and Jacobi, cross-validation of the
generator presentation against the loop construction, partition predicates
and windowed closure reports, twisted fixed subalgebras."""

import random
from fractions import Fraction

import pytest

from imverma.affine import (AffineAlgebra, AffineRoot, LoopElement, TwistedSubalgebra,
                            affine_bracket, check_closed_partition,
                            natural_partition_contains, standard_partition_contains)
from imverma.cartan import cartan_matrix_of_type
from imverma.errors import AutomorphismError, ContextMismatchError, NotARootError
from imverma.finite import DiagramAutomorphism, _neg, build_simple_algebra

from oracles import (affine_cartan_entry, automorphism_trace, check_bracket_closure,
                     loop_translation)


def aff(label):
    return AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))


# -- bracket -------------------------------------------------------------------


def test_central_term_example():
    a = aff("A1")
    fin = a.finite
    lhs = affine_bracket(a.loop(fin.e(1), 1), a.loop(fin.f(1), -1))
    assert lhs == a.loop(fin.h(1), 0) + a.c_elem()


def test_degree_derivation_and_central():
    a = aff("A1")
    fin = a.finite
    assert affine_bracket(a.d_elem(), a.loop(fin.e(1), 3)) == \
        Fraction(3) * a.loop(fin.e(1), 3)
    assert affine_bracket(a.c_elem(), a.loop(fin.f(1), 5)).is_zero()
    assert affine_bracket(a.c_elem(), a.d_elem()).is_zero()


def test_jacobi_random_triples():
    rng = random.Random(41)
    for label in ["A1", "A2", "A3"]:
        a = aff(label)
        keys = a.finite.basis
        for _ in range(200):
            def rnd():
                el = a.loop(a.finite.element({rng.choice(keys): 1}),
                            rng.randint(-5, 5))
                if rng.random() < 0.2:
                    el = el + a.c_elem()
                if rng.random() < 0.2:
                    el = el + a.d_elem()
                return el
            x, y, z = rnd(), rnd(), rnd()
            j = affine_bracket(x, affine_bracket(y, z)) \
                + affine_bracket(y, affine_bracket(z, x)) \
                + affine_bracket(z, affine_bracket(x, y))
            assert j.is_zero()


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2", "B3"])
def test_loop_translations_preserve_the_bracket(label):
    # T_mu shifts x_gamma (x) t^n by gamma(mu) and h (x) t^0 by (mu|h) c;
    # with the central shift's sign flipped it is no longer a homomorphism
    rng = random.Random(7)
    a = aff(label)
    keys = a.finite.basis

    def rnd():
        terms = {(rng.choice(keys), rng.randint(-2, 2)): Fraction(rng.randint(-3, 3) or 1,
                                                               rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))}
        return LoopElement(a, terms, c=Fraction(rng.randint(-2, 2)))

    def flipped(mu, x):
        tx = loop_translation(a, mu, x)
        return LoopElement(a, tx.terms, c=2 * x.c - tx.c)

    broken = 0
    for _ in range(200):
        mu = [rng.randint(-2, 2) for _ in range(a.rank)]
        x, y = rnd(), rnd()
        xy = affine_bracket(x, y)
        assert affine_bracket(loop_translation(a, mu, x), loop_translation(a, mu, y)) == \
            loop_translation(a, mu, xy)
        broken += affine_bracket(flipped(mu, x), flipped(mu, y)) != flipped(mu, xy)
    assert broken


def test_context_mismatch():
    a, b = aff("A1"), aff("A1")
    with pytest.raises(ContextMismatchError):
        affine_bracket(a.c_elem(), b.c_elem())


# -- generator presentation vs loop realization -----------------------------------


def affine_serre_holds(a: AffineAlgebra) -> bool:
    n = a.rank
    idx = range(0, n + 1)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            power = 1 - affine_cartan_entry(a, i, j)
            for gen, start in ((a.e, a.e(j)), (a.f, a.f(j))):
                acc = start
                for _ in range(power):
                    acc = affine_bracket(gen(i), acc)
                if not acc.is_zero():
                    return False
    return True


def test_presentation_relations_loop_realization():
    for label in ["A1", "A2"]:
        a = aff(label)
        n = a.rank
        for i in range(0, n + 1):
            for j in range(0, n + 1):
                hij = affine_bracket(a.h(i), a.h(j))
                assert hij.is_zero()
                ef = affine_bracket(a.e(i), a.f(j))
                if i == j:
                    assert ef == a.h(i)
                else:
                    assert ef.is_zero()
                he = affine_bracket(a.h(i), a.e(j))
                assert he == Fraction(affine_cartan_entry(a, i, j)) * a.e(j)
                hf = affine_bracket(a.h(i), a.f(j))
                assert hf == Fraction(-affine_cartan_entry(a, i, j)) * a.f(j)
            de = affine_bracket(a.d_elem(), a.e(i))
            assert de == (a.e(0) if i == 0 else a.zero())
        assert affine_serre_holds(a)


def test_h0_realization():
    a = aff("A2")
    h0 = affine_bracket(a.e(0), a.f(0))
    # h0 = c - h_theta; theta = alpha1 + alpha2 so h_theta = h1 + h2
    assert h0 == a.c_elem() + (Fraction(-1) * a.loop(a.finite.h(1), 0)) \
        + (Fraction(-1) * a.loop(a.finite.h(2), 0))
    assert h0 == a.h(0)


def test_real_root_vectors_weights():
    a = aff("A2")
    fin = a.finite
    for gamma in fin.roots.root_set:
        for n in (-2, 0, 3):
            x = a.loop(fin.root_vector(gamma), n)
            for i in (1, 2):
                got = affine_bracket(a.loop(fin.h(i), 0), x)
                assert got == Fraction(fin.roots.pairing(gamma, i - 1)) * x
            assert affine_bracket(a.d_elem(), x) == Fraction(n) * x


# -- roots and partitions --------------------------------------------------------


def test_root_classification():
    a = aff("A2")
    assert a.classify_root(AffineRoot((1, 0), -3)) == "real"
    assert a.classify_root(AffineRoot((0, 0), 2)) == "imaginary"
    assert a.classify_root(AffineRoot(_neg(a.theta), 1)) == "real"
    with pytest.raises(NotARootError):
        a.classify_root(AffineRoot((2, 0), 1))
    with pytest.raises(NotARootError):
        a.classify_root(AffineRoot((0, 0), 0))


def test_partition_membership_examples():
    a = aff("A2")
    assert natural_partition_contains(a, AffineRoot((1, 0), -3))
    assert natural_partition_contains(a, AffineRoot((0, 0), 2))
    assert not natural_partition_contains(a, AffineRoot((0, 0), -1))
    assert standard_partition_contains(a, AffineRoot((-1, 0), 1))
    assert not standard_partition_contains(a, AffineRoot((-1, 0), 0))
    assert not standard_partition_contains(a, AffineRoot((1, 0), -1))
    with pytest.raises(NotARootError):
        natural_partition_contains(a, AffineRoot((2, 2), 0))


def test_partition_xor_property():
    a = aff("C2")
    for contains in (natural_partition_contains, standard_partition_contains):
        for r in a.roots_in_window(3, 3):
            assert contains(a, r) != contains(a, -r)


def test_closed_partition_reports_pass():
    for label in ["A2", "C2"]:
        a = aff(label)
        for contains in (natural_partition_contains, standard_partition_contains):
            rep = check_closed_partition(a, contains, 3, 4)
            assert rep["passed"], (label, contains.__name__, rep["violations"][:3])
            assert rep["skipped_sums"] > 0  # window edges exist


def test_tampered_partition_detected():
    a = aff("A2")

    def tampered(alg, r):
        return (natural_partition_contains(alg, r)
                and not (all(x == 0 for x in r.finite) and r.n == 3))

    rep = check_closed_partition(a, tampered, 3, 4)
    assert not rep["passed"]
    closure = [v for v in rep["violations"] if v["axiom"] == "closure"]
    witnesses = {tuple(sorted((w["delta"] for w in v["witness"]))) for v in closure}
    assert (1, 2) in witnesses  # delta + 2delta = 3delta escaped the set


# -- twisted fixed subalgebras ------------------------------------------------------


def test_twisted_a3_dimensions_match_trace_oracle():
    a = aff("A3")
    aut = DiagramAutomorphism(a.finite, {1: 3, 2: 2, 3: 1})
    tr = automorphism_trace(aut)
    dim_fixed = (a.finite.dimension + tr) // 2
    tw = TwistedSubalgebra(a, aut, 4)
    for m in range(-4, 5):
        want = dim_fixed if m % 2 == 0 else a.finite.dimension - dim_fixed
        assert tw.graded_dimension(m) == want


def test_twisted_eigenvector_property():
    a = aff("A3")
    aut = DiagramAutomorphism(a.finite, {1: 3, 2: 2, 3: 1})
    tw = TwistedSubalgebra(a, aut, 2)
    for x in tw.even_basis:
        assert aut.apply(x) == x
    for x in tw.odd_basis:
        assert aut.apply(x) == Fraction(-1) * x


def test_twisted_bracket_closure():
    a = aff("A2")
    aut = DiagramAutomorphism(a.finite, {1: 2, 2: 1})
    tw = TwistedSubalgebra(a, aut, 3)
    rep = check_bracket_closure(tw)
    assert rep["passed"] and rep["checked_brackets"] > 0


def test_twisted_rejects_identity():
    a = aff("A2")
    ident = DiagramAutomorphism(a.finite, {1: 1, 2: 2})
    with pytest.raises(AutomorphismError, match="order 1"):
        TwistedSubalgebra(a, ident, 2)


def test_twisted_borel_slices():
    a = aff("A3")
    aut = DiagramAutomorphism(a.finite, {1: 3, 2: 2, 3: 1})
    tw = TwistedSubalgebra(a, aut, 2)
    dims = tw.natural_borel_slice_dims()
    # negative degrees intersect n_+ only, so slices are smaller there;
    # degree 0 adjoins c and d
    assert dims[0] > dims[1] and dims[-1] <= dims[1]
    for m, v in dims.items():
        assert 0 <= v <= tw.graded_dimension(m) + (2 if m == 0 else 0)

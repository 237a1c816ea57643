"""Explicit modules: windowed realizations checked against the Verma layer,
torsion splits (the worked examples), loop modules and the membership
verdicts, annihilated-vector extraction including the power-iteration path,
decomposition with scrambles, audits, and the JSON wire format."""

import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imverma._kernels import nullspace, rank, rref
from imverma.affine import AffineAlgebra, affine_bracket
from imverma.cartan import cartan_matrix_of_type
from imverma.errors import AuditError, ModuleDataError, WindowOverflowError
from imverma import category
from imverma.finite import build_simple_algebra
from imverma.category import (ExplicitModule, UndefinedActionError, _mat_mul,
                              _transpose,
                              audit_decomposition, build_loop_module,
                              check_category_membership,
                              decompose_into_reduced_vermas,
                              extract_annihilated_vector, gen_name,
                              parse_gen, sl2_irrep_matrices,
                              torsion_decompose)
from imverma.verma import TruncationWindow, VermaModule, Weight, parse_weight
from oracles import (axiom2_by_basis_vector, block_violations,
                     check_bracket_compatibility, dense_mat_mul, g_kernel_raw,
                     reduced_verma_by_trial_action, sparse_rows, t_projection,
                     torsion_decompose_by_pair, torsion_free_restriction,
                     weight_shift)


def aff(label):
    return AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))


A1 = aff("A1")
A2 = aff("A2")
C2 = aff("C2")
W1 = TruncationWindow(L=3, N=5, H=1)
LAM = parse_weight("h1=-1/2", 1)


def verma_a1(lam_text="h1=-1/2", kmax=5, loop_window=4):
    lam = parse_weight(lam_text, 1)
    return ExplicitModule.from_reduced_verma(A1, lam, kmax=kmax, window=W1,
                                             loop_window=loop_window)


# -- construction consistency -----------------------------------------------------


def test_windowed_realization_matches_verma_dims():
    em = verma_a1()
    mod = VermaModule(A1, LAM, reduced=True)
    for widx, w in enumerate(em.weights):
        k = int(w.d_value)
        s = (0,) if w.h_values == LAM.h_values else (1,)
        assert em.dim(widx) == mod.weight_dim((k, s), W1)


# A negative-integer lambda(h_i) at each H=2 case; kmax 2 and N = 2 leave
# lowering targets unstored at both window edges.
TRIAL_CASES = [
    pytest.param("A1", "h1=-1/2", 1, id="A1-H1"),
    pytest.param("A1", "h1=-3", 2, id="A1-H2"),
    pytest.param("A2", "h1=-1/2,h2=-1/3", 1, id="A2-H1"),
    pytest.param("A2", "h1=-1,h2=-1/3", 2, id="A2-H2"),
    pytest.param("C2", "h1=-1/2,h2=-1/3", 1, id="C2-H1"),
    pytest.param("C2", "h1=-3/2,h2=-2", 2, id="C2-H2"),
    pytest.param("A3", "h1=-1/2,h2=-1/3,h3=-1/5", 1, id="A3-H1"),
    pytest.param("A3", "h1=-1/2,h2=-1,h3=-1/5", 2, id="A3-H2"),
    pytest.param("G2", "h1=-1/2,h2=-1/3", 1, id="G2-H1"),
    pytest.param("G2", "h1=-1/2,h2=-2", 2, id="G2-H2"),
]


@pytest.mark.parametrize("typ, lam, height", TRIAL_CASES)
def test_pair_rules_match_trial_action(typ, lam, height):
    alg = aff(typ)
    for loop_window in (1, 2, 3):
        args = (alg, parse_weight(lam, alg.rank), 2,
                TruncationWindow(L=3, N=2, H=height), loop_window)
        em = ExplicitModule.from_reduced_verma(*args)
        assert em.to_json_dict() == reduced_verma_by_trial_action(*args).to_json_dict()
        # the rules decide something: some pairs are undefined, some defined zero
        pairs = [per_src.get(widx) for per_src in em.defined.values()
                 for widx in range(len(em.weights))]
        assert None in pairs and {} in pairs


def test_reduced_verma_tables_ignore_lengths_past_the_height():
    # a reduced monomial of height at most 2 has at most 2 symbols
    lam = parse_weight("h1=-1/2,h2=-1/3", 2)
    tables = []
    for length in (2, 10**6):
        em = ExplicitModule.from_reduced_verma(
            A2, lam, kmax=2, window=TruncationWindow(L=length, N=2, H=2),
            loop_window=2)
        data = em.to_json_dict()
        meta = dict(data.pop("meta"))
        assert meta.pop("window")["L"] == length
        tables.append((meta, data))
    assert tables[0] == tables[1]


def test_cartan_loops_into_unstored_spaces_still_act():
    # h_{i,1} on F(alpha_3, 2)v targets k = 3, past kmax: alpha_3(h_1) = 0
    # kills the vector there, so the pair is a defined zero, while
    # alpha_3(h_2) = -1 does not, so that pair is undefined
    a3 = aff("A3")
    em = ExplicitModule.from_reduced_verma(
        a3, parse_weight("h1=-1/2,h2=-1/3,h3=-1/5", 3), kmax=2,
        window=TruncationWindow(L=3, N=2, H=2), loop_window=2)
    widx = em.labels.index(["F([0,0,1],2)*v"])
    assert em.table((("h", 1), 1), widx) == ({}, None)
    assert em.table((("h", 2), 1), widx) is None


def test_generator_names_round_trip():
    for key, n in [(("h", 1), -3), (("x", (1,)), 2), (("x", (-1,)), 0)]:
        name = gen_name(A1, key, n)
        assert parse_gen(A1, name) == (key, n)
    assert gen_name(A2, ("x", (1, 1)), 2) == "x[1,1]@2"
    assert parse_gen(A2, "x[1,1]@2") == (("x", (1, 1)), 2)
    with pytest.raises(ModuleDataError):
        parse_gen(A1, "h1")
    with pytest.raises(ModuleDataError):
        parse_gen(A1, "e7@0")
    for algebra, name in ((A1, "x[1,1]@0"), (A1, "x[2]@0"), (A2, "x[1,-1]@0"),
                          (A2, "x[0,0]@1")):
        with pytest.raises(ModuleDataError, match="no root"):
            parse_gen(algebra, name)


def test_bracket_compatibility_invariant_full():
    em = verma_a1(kmax=3, loop_window=2)
    checked, failures = check_bracket_compatibility(em)
    assert checked > 100 and not failures


def test_bracket_compatibility_invariant_a2_sampled():
    lam = parse_weight("h1=-1/2,h2=-5/3", 2)
    em = ExplicitModule.from_reduced_verma(
        A2, lam, kmax=2, window=TruncationWindow(L=2, N=2, H=1),
        loop_window=2)
    checked, failures = check_bracket_compatibility(em, max_pairs=120, rng_seed=4)
    assert checked > 50 and not failures


# -- heisenberg slice ------------------------------------------------------------


def test_heisenberg_slice_relations():
    # the degree-k delta slice, 0 < |k| <= 3, is the Cartan at loop degree k
    slices = {k: [A2.h(i, k) for i in range(1, A2.rank + 1)]
              for k in range(-3, 4) if k}
    c = A2.c_elem()
    for k, basis in slices.items():
        assert len(basis) == 2  # rank
        for kp, basis2 in slices.items():
            for u in basis:
                for v in basis2:
                    w = affine_bracket(u, v)
                    assert not w.terms and not w.d
                    assert w == w.c * c
                    if k != -kp:
                        assert w.c == 0
        if k > 0:
            # [h_i (x) t^k, h_j (x) t^-k] = k (h_i|h_j) c is nonzero somewhere
            vals = [affine_bracket(u, v).c for u in slices[k] for v in slices[-k]]
            assert any(vals)


# -- torsion decomposition --------------------------------------------------------


def test_reduced_verma_torsion_is_highest_weight_line():
    em = verma_a1()
    split = torsion_decompose(em, 4)
    assert split.torsion_dim() == 1
    [(widx, vec)] = split.torsion_vectors()
    assert em.weights[widx].h_values == LAM.h_values
    assert em.weights[widx].d_value == 0
    assert em.labels[widx][0] == "v"
    assert split.passed()
    assert not split.excluded and not split.unchecked


def test_torsion_axioms_verdict_fields():
    split = torsion_decompose(verma_a1(), 4)
    assert split.verdicts["ii"]["checked"] > 0
    assert split.verdicts["iii"]["note"].startswith("verified within window")
    assert split.verdicts["torsion_isolated"]["by_weight"]


def test_torsion_split_idempotent():
    # re-splitting the torsion-free part must find no torsion at all
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1("h1=-3/2")])
    split = torsion_decompose(em, 4)
    tf_mod = torsion_free_restriction(split)
    assert tf_mod.total_dim == sum(len(v) for v in split.torsion_free.values())
    resplit = torsion_decompose(tf_mod, 4)
    assert resplit.torsion_dim() == 0


def test_direct_sum_torsion_two_dimensional():
    em = ExplicitModule.direct_sum([verma_a1("h1=-1/2"), verma_a1("h1=-3/2")])
    split = torsion_decompose(em, 4)
    assert split.torsion_dim() == 2
    assert split.passed()


def test_same_lambda_sum_multiplicity_two():
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1()])
    split = torsion_decompose(em, 4)
    assert split.torsion_dim() == 2
    widxs = [w for w, _ in split.torsion_vectors()]
    assert widxs[0] == widxs[1]


def test_direct_sum_meta_agrees_apart_from_kind():
    lm = build_loop_module(A1, sl2_irrep_matrices(2), 2)
    em = ExplicitModule.direct_sum([lm, lm])
    assert em.meta == dict(lm.meta, kind="direct-sum")
    assert em.total_dim == 2 * lm.total_dim
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1("h1=-3/2")])
    assert em.meta == dict(verma_a1().meta, kind="direct-sum")
    # summands built to different bounds give a sum without meta
    other = build_loop_module(A1, sl2_irrep_matrices(3), 2)
    assert ExplicitModule.direct_sum([lm, other]).meta is None
    assert ExplicitModule.direct_sum([verma_a1(), lm]).meta is None


def test_loop_module_torsion_vanishes_dims_2_and_3():
    for dim in (2, 3):
        lm = build_loop_module(A1, sl2_irrep_matrices(dim), 3)
        split = torsion_decompose(lm, 3)
        assert split.torsion_dim() == 0, dim
        assert not split.verdicts["i"]["passed"]


def test_raw_kernel_vanishes_at_nonzero_h_weights():
    # the per-weight computation behind the torsion report: at any weight with
    # some nonzero h-value the joint kernel of the h_{j,r} actions is zero
    for dim in (2, 3):
        lm = build_loop_module(A1, sl2_irrep_matrices(dim), 3)
        for widx, w in enumerate(lm.weights):
            kernel, used = g_kernel_raw(lm, widx, 2)
            if kernel is None:
                continue
            if any(v != 0 for v in w.h_values):
                assert kernel == [], (dim, w)
            else:
                assert kernel, (dim, w)  # the zero-weight line is G-killed


def test_nonadmissible_highest_weight_excluded():
    em = verma_a1("h1=2")
    split = torsion_decompose(em, 3)
    hw = [i for i, w in enumerate(em.weights)
          if w.h_values == (Fraction(2),) and w.d_value == 0]
    assert hw[0] in split.excluded


def _escape_module():
    """A1 module whose TF at weight index 1 holds an escape-free line.

    Weights d = -1, 0, 0, 1 (h = -1/2, except h = 3/2 at index 2) with bases
    m1,m2 | b0,b1,b2 | e0 | u1,u2. h_{1,+-1} carry b1, b2 to the outer spaces
    and back, so T = <b0> and TF = <b1, b2> at index 1; e_{1,0} sends b0, b1,
    b2 to e0, -e0, -e0, so b1 - b2 stays inside TF under every generator
    while no kernel basis vector of the escape rows lies in TF.
    """
    labels = ["m1", "m2", "b0", "b1", "b2", "e0", "u1", "u2"]
    widx = [0, 0, 1, 1, 1, 2, 3, 3]
    return ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "weights": [{"h": [h], "c": "0", "d": d}
                    for h, d in (("-1/2", "-1"), ("-1/2", "0"), ("3/2", "0"),
                                 ("-1/2", "1"))],
        "basis": [{"label": lab, "weight": w} for lab, w in zip(labels, widx)],
        "actions": {"h1@1": [[3, 0, "1"], [4, 1, "1"], [6, 3, "1"], [7, 4, "1"]],
                    "h1@-1": [[3, 6, "1"], [4, 7, "1"], [0, 3, "1"], [1, 4, "1"]],
                    "e1@0": [[5, 2, "1"], [5, 3, "-1"], [5, 4, "-1"]]},
        "defined": {"h1@1": [0, 1], "h1@-1": [3, 1], "e1@0": [1]},
    })


def _image_inside_tf_module():
    """A1 module whose TF line <v0> has a nonzero image that stays in TF.

    Weights (h, d) = (-1/2, 0), (3/2, 0), (-1/2, 1), (3/2, 1) hold v0 | u, z |
    v1 | w. h_{1,+-1} join v0 with v1 and u with w and kill z, so T = <z> and
    TF = <u> at (3/2, 0). e_{1,0} sends v0 to u, inside TF but nonzero, and
    TF there falls short of its space, so <v0> is tested and is a candidate.
    """
    labels = ["v0", "u", "z", "v1", "w"]
    widx = [0, 1, 1, 2, 3]
    return ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "weights": [{"h": [h], "c": "0", "d": d}
                    for h, d in (("-1/2", "0"), ("3/2", "0"), ("-1/2", "1"),
                                 ("3/2", "1"))],
        "basis": [{"label": lab, "weight": w} for lab, w in zip(labels, widx)],
        "actions": {"h1@1": [[3, 0, "1"], [4, 1, "1"]],
                    "h1@-1": [[0, 3, "1"], [1, 4, "1"]],
                    "e1@0": [[1, 0, "1"]]},
        "defined": {"h1@1": [0, 1], "h1@-1": [2, 3], "e1@0": [0]},
    })


def _long_heisenberg_escape_module():
    """A1 line module, at loop window 2, whose h_{1,2} carries TF out of TF.

    Weights d = 0, 1, 2 (h = -1/2) hold v0 | v1 | a, t. At gwindow 1,
    h_{1,+-1} join v0, v1 and a and kill t, so T = <t> and TF = <a> at d = 2.
    h_{1,2} lies outside heisenberg_keys(A1, 1) and sends v0 to t, out of TF:
    it alone blocks the candidate <v0>.
    """
    return ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "loop_window": 2,
        "weights": [{"h": ["-1/2"], "c": "0", "d": d} for d in ("0", "1", "2")],
        "basis": [{"label": lab, "weight": w}
                  for lab, w in (("v0", 0), ("v1", 1), ("a", 2), ("t", 2))],
        "actions": {"h1@1": [[1, 0, "1"], [2, 1, "1"]],
                    "h1@-1": [[0, 1, "1"], [1, 2, "1"]],
                    "h1@2": [[3, 0, "1"]]},
        "defined": {"h1@1": [0, 1], "h1@-1": [1, 2], "h1@2": [0]},
    })


def _deficient_target_module():
    """A1 line module whose TF lines escape only through h_{1,+-1} into a
    deficient space.

    Weights d = 0, 1, 2 (h = -1/2) hold v0 | a, b | u. h_{1,1} sends v0 to a
    and b to u, h_{1,-1} sends a to v0 and u to a, so TF = <v0>, <a>, <u> and
    b lies in neither T nor TF: d = 1 is deficient, TF is taken as 0 there,
    and the nonzero images of v0 and u into it escape.
    """
    return ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "weights": [{"h": ["-1/2"], "c": "0", "d": d} for d in ("0", "1", "2")],
        "basis": [{"label": lab, "weight": w}
                  for lab, w in (("v0", 0), ("a", 1), ("b", 1), ("u", 2))],
        "actions": {"h1@1": [[1, 0, "1"], [3, 2, "1"]],
                    "h1@-1": [[0, 1, "1"], [1, 3, "1"]]},
        "defined": {"h1@1": [0, 1], "h1@-1": [1, 2]},
    })


@pytest.mark.parametrize("build, torsion, candidates", [
    pytest.param(_image_inside_tf_module, {1: [{1: 1}]}, [0, 3], id="image-inside-tf"),
    pytest.param(_long_heisenberg_escape_module, {2: [{1: 1}]}, [1],
                 id="long-heisenberg-escape"),
    pytest.param(_deficient_target_module, {}, [], id="deficient-target"),
])
def test_candidates_read_remainders_against_tf(build, torsion, candidates):
    split = torsion_decompose(build(), 1)
    assert split.torsion == torsion
    assert [c["weight_index"] for c in
            split.verdicts["iii"]["candidate_invariant_subspaces"]] == candidates


def test_invariant_subspace_candidate_independent_of_kernel_basis():
    split = torsion_decompose(_escape_module(), 1)
    assert split.torsion == {1: [{0: 1}]}
    assert split.unchecked == [2]
    # the escape kernel at index 1 is {b0 = b1 + b2}; it meets TF in b1 - b2
    assert split.verdicts["iii"]["candidate_invariant_subspaces"] == [
        {"weight_index": 0}, {"weight_index": 1}, {"weight_index": 3}]


@pytest.mark.parametrize("h_line, h_side, outside", [
    pytest.param("-1/2", "3/2", "unchecked", id="unchecked"),
    pytest.param("-2", "0", "excluded", id="excluded"),
])
def test_zero_block_into_outside_space_makes_a_candidate(h_line, h_side, outside):
    # h1@+-1 join v0 (d = 0) and v1 (d = 1), so TF = <v0> at index 0 and
    # nothing there escapes into index 2; e1@0 sends v0 to zero in the space
    # of u (index 1), which is outside the analysis. That zero block is the
    # only constraint on TF at index 0, so v0 is escape-free: a candidate
    split = torsion_decompose(ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "weights": [{"h": [h], "c": "0", "d": d}
                    for h, d in ((h_line, "0"), (h_side, "0"), (h_line, "1"))],
        "basis": [{"label": lab, "weight": i}
                  for i, lab in enumerate(["v0", "u", "v1"])],
        "actions": {"h1@1": [[2, 0, "1"]], "h1@-1": [[0, 2, "1"]], "e1@0": []},
        "defined": {"h1@1": [0], "h1@-1": [2], "e1@0": [0]},
    }), 1)
    assert getattr(split, outside) == [1]
    assert split.torsion_free == {0: [{0: 1}], 2: [{0: 1}]}
    assert split.verdicts["iii"]["candidate_invariant_subspaces"] == [
        {"weight_index": 0}]


def _line_module(actions, defined, ds=("0", "1", "2"), label="A1"):
    """Module with one vector at h_i = -1/2 for each d in ds, over A1 unless
    label says otherwise; the global basis index of that vector is its
    weight index."""
    rank_ = aff(label).rank
    return ExplicitModule.from_json_dict({
        "algebra": {"label": label},
        "weights": [{"h": ["-1/2"] * rank_, "c": "0", "d": d} for d in ds],
        "basis": [{"label": f"v{d}", "weight": i} for i, d in enumerate(ds)],
        "actions": actions, "defined": defined,
    })


def test_split_reports_heisenberg_generator_killing_tf():
    # v1 arrives from both sides, so TF = <v1> at d = 1, but h1@1 kills it
    em = _line_module({"h1@1": [[1, 0, "1"]],
                       "h1@-1": [[0, 1, "1"], [1, 2, "1"]]},
                      {"h1@1": [0, 1], "h1@-1": [1, 2]})
    split = torsion_decompose(em, 1)
    assert split.torsion_free == {0: [{0: 1}], 1: [{0: 1}]}
    assert split.verdicts["ii"]["injectivity_violations"] == [
        {"degree": 1, "weight_index": 1}]
    assert not split.passed()


@pytest.mark.parametrize("h2_up, violations", [
    pytest.param([], [{"degree": 1, "weight_index": 1}], id="slice-kills-v1"),
    # h1@1 kills v1 but h2@1 does not, so the degree-1 slice is injective
    pytest.param([[2, 1, "1"]], [], id="h2-keeps-v1"),
])
def test_split_tests_the_whole_heisenberg_slice(h2_up, violations):
    # v1 arrives from both sides, so TF = <v1> at d = 1, and h1@1 kills it
    em = _line_module({"h1@1": [[1, 0, "1"]], "h2@1": [[1, 0, "1"]] + h2_up,
                       "h1@-1": [[0, 1, "1"], [1, 2, "1"]],
                       "h2@-1": [[0, 1, "1"], [1, 2, "1"]]},
                      {"h1@1": [0, 1], "h2@1": [0, 1],
                       "h1@-1": [1, 2], "h2@-1": [1, 2]}, label="A2")
    ii = torsion_decompose(em, 1).verdicts["ii"]
    assert ii["injectivity_violations"] == violations
    assert ii["passed"] == (not violations)


def test_split_rejects_torsion_meeting_arrivals():
    # every Heisenberg table kills v1, and h1@1 also carries v0 onto it
    em = _line_module({"h1@1": [[1, 0, "1"]]},
                      {"h1@1": [0, 1], "h1@-1": [1]}, ds=("0", "1"))
    with pytest.raises(ModuleDataError, match="split is not direct"):
        torsion_decompose(em, 1)


def test_split_rejects_window_without_heisenberg_tables():
    em = _line_module({}, {"e1@0": [0]}, ds=("0",))
    with pytest.raises(ModuleDataError, match="window too small"):
        torsion_decompose(em, 1)


def _split_fields(split_fn, module, gwindow):
    """Everything a split reports, or the message of the error it raises."""
    try:
        split = split_fn(module, gwindow)
    except ModuleDataError as ex:
        return str(ex)
    return (split.torsion, split.torsion_free, split.excluded, split.unchecked,
            split.deficient, split.verdicts)


A2_THREE = ("h1=1/4,h2=-7/4", "h1=-3/4,h2=-7/4", "h1=-7/4,h2=-3/4")
DSHIFT = ("h1=-1/2,d=1", "h1=-1/2")


def _cli_sum(alg, lams, kmax=4, window=TruncationWindow(3, 4, 1), loop_window=3):
    """The direct sum of the reduced stores that category commands build from
    --summands, which pass their gwindow as loop_window."""
    return ExplicitModule.direct_sum([ExplicitModule.from_reduced_verma(
        alg, parse_weight(lam, alg.rank), kmax=kmax, window=window,
        loop_window=loop_window) for lam in lams])


# name -> (module, gwindow); the reduced stores keep tables up to loop degree 2
SPLIT_MODULES = {
    "A1-H1": lambda: (_reduced(A1, "h1=-1/2", 3, TruncationWindow(3, 3, 1)), 2),
    "A1-H2": lambda: (_reduced(A1, "h1=-1/2", 3, TruncationWindow(3, 3, 2)), 2),
    "A2-H1": lambda: (_reduced(A2, A2_LAMS[0], 2, TruncationWindow(3, 2, 1)), 2),
    "A2-H2": lambda: (_reduced(A2, A2_LAMS[0], 2, TruncationWindow(3, 2, 2)), 2),
    "C2-H1": lambda: (_reduced(aff("C2"), A2_LAMS[0], 2,
                               TruncationWindow(3, 2, 1)), 2),
    "C2-H2": lambda: (_reduced(aff("C2"), A2_LAMS[0], 2,
                               TruncationWindow(3, 2, 2)), 2),
    "A1-two-scrambled": lambda: (ExplicitModule.direct_sum(
        [_reduced(A1, lam, 3, TruncationWindow(3, 3, 1))
         for lam in ("h1=-1/2", "h1=-3/2")]).scrambled(11), 2),
    "A2-three-scrambled": lambda: (ExplicitModule.direct_sum(
        [_reduced(A2, lam, 3, TruncationWindow(3, 3, 1))
         for lam in A2_THREE]).scrambled(7), 2),
    # h1@1 is undefined at d = 2 and h1@-1 at d = 0 and 3, all populated;
    # h1@1 kills v3, so T = <v3> and (iv) skips h1@-1 there
    "undefined-heisenberg-pair": lambda: (_line_module(
        {"h1@1": [[1, 0, "1"], [2, 1, "1"]], "h1@-1": [[0, 1, "1"], [1, 2, "1"]]},
        {"h1@1": [0, 1, 3], "h1@-1": [1, 2]}, ds=("0", "1", "2", "3")), 1),
    # h1@1 at d = 1 and h1@-1 at d = 0 are defined zeros into unstored spaces
    "zero-block-unstored-target": lambda: (_line_module(
        {"h1@1": [[1, 0, "1"]], "h1@-1": [[0, 1, "1"]]},
        {"h1@1": [0, 1], "h1@-1": [0, 1]}, ds=("0", "1")), 1),
    "sl2-loop": lambda: (build_loop_module(A1, sl2_irrep_matrices(3), 3), 3),
    "escape-candidates": lambda: (_escape_module(), 1),
    # TF = <a, b> at d = 1, but h1@1 carries v0 only onto a and h1@-1 v2
    # only onto b: two surjectivity violations
    "images-short-of-tf": lambda: (ExplicitModule.from_json_dict({
        "algebra": {"label": "A1"},
        "weights": [{"h": ["-1/2"], "c": "0", "d": d} for d in ("0", "1", "2")],
        "basis": [{"label": lab, "weight": w}
                  for lab, w in (("v0", 0), ("a", 1), ("b", 1), ("v2", 2))],
        "actions": {"h1@1": [[1, 0, "1"], [3, 1, "1"], [3, 2, "1"]],
                    "h1@-1": [[0, 1, "1"], [2, 3, "1"]]},
        "defined": {"h1@1": [0, 1], "h1@-1": [1, 2]},
    }), 1),
    # h1@1 kills v1, which arrives from both sides: an injectivity violation
    "slice-kills-tf": lambda: (_line_module(
        {"h1@1": [[1, 0, "1"]], "h1@-1": [[0, 1, "1"], [1, 2, "1"]]},
        {"h1@1": [0, 1], "h1@-1": [1, 2]}), 1),
    "image-inside-tf": lambda: (_image_inside_tf_module(), 1),
    # h1@2 is past gwindow 1, so its image is tested even into an analysed space
    "long-heisenberg-escape": lambda: (_long_heisenberg_escape_module(), 1),
    # h1@+-1 images into a deficient space block every TF line
    "deficient-target": lambda: (_deficient_target_module(), 1),
    # the module of the split-A1-dshift pin: (iii) candidates, TF planes and
    # deficient Heisenberg targets
    "A1-dshift": lambda: (_cli_sum(A1, DSHIFT), 3),
    "A1-dshift-scrambled": lambda: (_cli_sum(A1, DSHIFT).scrambled(5), 3),
    # the module of the check-A3-H2 pin: arrivals meet the torsion kernel
    "check-A3-H2": lambda: (_reduced(aff("A3"), "h1=-1/2,h2=-1/3,h3=-1/5", 2,
                                     TruncationWindow(3, 2, 2)), 2),
}


@pytest.mark.parametrize("name", list(SPLIT_MODULES))
def test_split_matches_per_pair_reference(name):
    module, gwindow = SPLIT_MODULES[name]()
    got = _split_fields(torsion_decompose, module, gwindow)
    assert got == _split_fields(torsion_decompose_by_pair, module, gwindow)
    if name == "check-A3-H2":
        assert "meet the torsion kernel" in got


# check-A3-H2's split raises before its verdicts
@pytest.mark.parametrize("name", [name for name in SPLIT_MODULES if name != "check-A3-H2"])
def test_split_verdicts_are_json_data(name):
    # like the membership report: the CLI passes them through as they are
    module, gwindow = SPLIT_MODULES[name]()
    split = torsion_decompose(module, gwindow)
    assert json.loads(json.dumps(split.verdicts)) == split.verdicts


@st.composite
def reduced_sums(draw):
    """(module, gwindow): a direct sum of 1-3 reduced Vermas over A1, A2 or
    C2 at H = 1, scrambled or not. lambda(h_i) is a shared p/4 plus an integer
    shift per summand, so summands may share weight spaces, and lambda(d) is
    0, 1 or 2; tables reach loop degree 1-3, below or past gwindow."""
    alg = draw(st.sampled_from([A1, A2, C2]))
    base = draw(st.lists(st.integers(-9, 9), min_size=alg.rank, max_size=alg.rank))
    lams = [",".join([f"h{i}={Fraction(p, 4) + k}" for i, (p, k) in
                      enumerate(zip(base, shifts), 1)] + [f"d={d}"])
            for shifts, d in draw(st.lists(st.tuples(
                st.lists(st.integers(-1, 1), min_size=alg.rank, max_size=alg.rank),
                st.integers(0, 2)), min_size=1, max_size=3))]
    window = TruncationWindow(draw(st.integers(2, 4)), draw(st.integers(2, 4)), 1)
    module = _cli_sum(alg, lams, draw(st.integers(1, 3)), window,
                      draw(st.integers(1, 3)))
    seed = draw(st.none() | st.integers(0, 99))
    return (module if seed is None else module.scrambled(seed)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(reduced_sums())
def test_property_split_matches_per_pair_reference(case):
    module, gwindow = case
    assert (_split_fields(torsion_decompose, module, gwindow)
            == _split_fields(torsion_decompose_by_pair, module, gwindow))


def test_line_verdicts_make_no_kernel_call(monkeypatch):
    # the decompose-A1-three pin's module, where every TF is a line
    module = _cli_sum(A1, ("h1=-3/4", "h1=-7/4", "h1=-19/4"), 5,
                      TruncationWindow(4, 5, 1), 4).scrambled(7)
    calls = []
    for name in ("rank", "nullspace", "rref"):
        kernel = getattr(category, name)
        monkeypatch.setattr(category, name,
                            lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    check_axioms = category._check_axioms
    made = []

    def counted(split, hmaps):
        before = len(calls)
        check_axioms(split, hmaps)
        made.append(len(calls) - before)

    monkeypatch.setattr(category, "_check_axioms", counted)
    split = torsion_decompose(module, 4)
    assert {len(rows) for rows in split.torsion_free.values()} == {1}
    assert calls and split.passed() and made == [0]


def test_split_reads_no_table(monkeypatch):
    built = [SPLIT_MODULES[name]() for name in SPLIT_MODULES]

    def refuse(self, gkey, src_widx):
        raise AssertionError("the split read a table one pair at a time")

    monkeypatch.setattr(ExplicitModule, "table", refuse)
    for module, gwindow in built:
        _split_fields(torsion_decompose, module, gwindow)


# -- membership --------------------------------------------------------------------


def test_membership_reduced_verma_passes():
    rep = check_category_membership(verma_a1(), 4)
    assert rep["passed"]
    assert all(rep["axioms"][k]["passed"] for k in ("1", "2", "3", "4"))


def test_membership_loop_module_fails_one_and_three():
    for dim in (2, 3):
        lm = build_loop_module(A1, sl2_irrep_matrices(dim), 3)
        rep = check_category_membership(lm, 3)
        assert not rep["axioms"]["1"]["passed"]
        assert rep["axioms"]["2"]["passed"]
        assert not rep["axioms"]["3"]["passed"]
        assert rep["axioms"]["1"]["violations"]


def test_membership_dominant_lambda_fails_axiom_one_at_vacuum():
    em = verma_a1("h1=2")
    rep = check_category_membership(em, 3)
    assert not rep["axioms"]["1"]["passed"]
    bad = rep["axioms"]["1"]["violations"]
    assert any(v["h"] == ["2"] for v in bad)


def _e1_chain_module(blocks):
    """A1 module on two 2-dimensional spaces at h1 = -5/2 and h1 = -1/2 (d =
    0) whose one table is e1@0, with the given blocks per weight index. e1
    raises h1 by 2: it maps the first space to the second, and the second
    out of the store."""
    weights = [Weight.make([Fraction(-5, 2)]), Weight.make([Fraction(-1, 2)])]
    return ExplicitModule(A1, weights, [["a0", "a1"], ["b0", "b1"]],
                          {(("x", (1,)), 0): blocks})


def _reduced(alg, lam, kmax, window):
    return ExplicitModule.from_reduced_verma(alg, parse_weight(lam, alg.rank),
                                             kmax=kmax, window=window, loop_window=2)


A2_LAMS = ("h1=-1/2,h2=-1/3", "h1=-3/2,h2=-1/3")
# name -> (module, gwindow); every module stores its tables up to loop degree 2
AXIOM2_MODULES = {
    "A1-H1": lambda: _reduced(A1, "h1=-1/2", 3, TruncationWindow(3, 3, 1)),
    "A1-H2": lambda: _reduced(A1, "h1=-1/2", 3, TruncationWindow(3, 3, 2)),
    "A2-H1": lambda: _reduced(A2, A2_LAMS[0], 2, TruncationWindow(3, 2, 1)),
    "A2-H2": lambda: _reduced(A2, A2_LAMS[0], 2, TruncationWindow(3, 2, 2)),
    "A2-sum-scrambled": lambda: ExplicitModule.direct_sum(
        [_reduced(A2, lam, 2, TruncationWindow(3, 2, 1))
         for lam in A2_LAMS]).scrambled(3),
    # e1@0 is undefined on the populated second space; column 1 is absent
    "undefined-block": lambda: _e1_chain_module({0: {0: {0: 1, 1: 2}}}),
    # the second space's column 0 leaves the store after one step
    "leaves-store": lambda: _e1_chain_module({0: {0: {0: 1, 1: 2}, 1: {1: 1}},
                                              1: {0: {0: 1}}}),
}


@cache
def _axiom2_module(name):
    return AXIOM2_MODULES[name]()


@pytest.mark.parametrize("cap", [0, 1, 2, 16])
@pytest.mark.parametrize("name", list(AXIOM2_MODULES))
def test_axiom_two_per_block_matches_basis_vector_reference(name, cap):
    module = _axiom2_module(name)
    got = check_category_membership(module, 2, cap)["axioms"]["2"]
    assert got == axiom2_by_basis_vector(module, 2, cap)


@pytest.mark.parametrize("cap", [0, 1, 2, 16])
@pytest.mark.parametrize("name", list(AXIOM2_MODULES))
def test_membership_report_is_json_data(name, cap):
    report = check_category_membership(_axiom2_module(name), 2, cap)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("name, cap, counts", [
    ("undefined-block", 0, (4, 0, 0)),
    ("undefined-block", 1, (1, 1, 2)),
    ("undefined-block", 16, (0, 1, 3)),
    ("leaves-store", 1, (3, 1, 0)),
    ("leaves-store", 2, (1, 2, 1)),
    ("leaves-store", 16, (0, 2, 2)),
])
def test_axiom_two_counts_on_hand_built_chains(name, cap, counts):
    # (violations, checked, inconclusive): an undefined block counts its whole
    # dimension as inconclusive, an absent column is killed in one step, and
    # a chain that leaves the store is inconclusive once the cap allows the
    # next step
    axiom = check_category_membership(_axiom2_module(name), 2, cap)["axioms"]["2"]
    assert (len(axiom["violations"]), axiom["checked"], axiom["inconclusive"]) == counts


def test_equal_weights_written_differently_are_one_key():
    half = parse_weight("h1=2/4,d=1", 1)
    same = [Weight((Fraction(1, 2),), Fraction(0), Fraction(1)),
            Weight((Fraction(1, 2),), 0, 1)]
    for w in same:
        assert w == half and hash(w) == hash(half) and w.cells == half.cells
    ints = Weight((-1,), 0, 2)
    fracs = Weight.make([Fraction(-1)], Fraction(0), Fraction(2))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert Weight.make([Fraction(1, 2)], d=2) != half
    em = ExplicitModule(A1, [half, ints], [["v"], ["u"]], {})
    assert len(em.windex) == 2
    assert {em.windex[w] for w in same + [half]} == {em.windex[half]}
    assert em.windex[fracs] == em.windex[ints]
    with pytest.raises(ModuleDataError, match="duplicate weights"):
        ExplicitModule(A1, [half, same[1]], [["v"], ["u"]], {})


# -- loop module construction ---------------------------------------------------------


def test_loop_module_weight_grid():
    lm = build_loop_module(A1, sl2_irrep_matrices(2), 3)
    hvals = sorted({w.h_values[0] for w in lm.weights})
    assert hvals == [Fraction(-1), Fraction(1)]
    dvals = sorted({w.d_value for w in lm.weights})
    assert dvals == [Fraction(n) for n in range(-3, 4)]
    assert lm.total_dim == 14


def test_loop_module_action_degree_shift():
    lm = build_loop_module(A1, sl2_irrep_matrices(2), 2)
    # f1@1 sends the highest vector at degree 0 to the lower one at degree 1
    src = next(i for i, w in enumerate(lm.weights)
               if w.h_values == (Fraction(1),) and w.d_value == 0)
    tgt, out = lm.apply((("x", (-1,)), 1), src, {0: Fraction(1)})
    [j] = list(out)
    assert lm.weights[tgt].h_values == (Fraction(-1),)
    assert lm.weights[tgt].d_value == 1


def test_zero_module():
    # its meta names the degree window, like every other loop module's
    lm = build_loop_module(A1, sl2_irrep_matrices(0), 2)
    assert lm.total_dim == 0 and not lm.weights
    assert lm.meta == {"kind": "loop-module", "finite_dim": 0, "degree_window": 2}
    data = lm.to_json_dict()
    back = ExplicitModule.from_json_dict(data)
    assert back.total_dim == 0 and not back.weights
    assert back.to_json_dict() == data


def test_bad_generator_matrices_rejected():
    mats = sl2_irrep_matrices(2)
    broken = {k: [list(r) for r in v] for k, v in mats.items()}
    broken["e1"][0][1] = Fraction(5)  # now [e,f] != h
    with pytest.raises(ModuleDataError, match="bracket table"):
        build_loop_module(A1, broken, 2)
    nondiag = {k: [list(r) for r in v] for k, v in mats.items()}
    nondiag["h1"][0][1] = Fraction(1)
    with pytest.raises(ModuleDataError, match="not diagonal"):
        build_loop_module(A1, nondiag, 2)
    with pytest.raises(ModuleDataError, match="missing generator"):
        build_loop_module(A1, {"e1": mats["e1"]}, 2)


@pytest.mark.parametrize("edit, name", [
    pytest.param(lambda m: m.update(h1=sl2_irrep_matrices(3)["h1"]), "h1",
                 id="h1-3x3-beside-2x2"),
    pytest.param(lambda m: m["f1"][0].append(Fraction(0)), "f1", id="ragged-row"),
])
def test_generator_matrices_of_another_size_rejected(edit, name):
    # the module's dimension is the size of e1, and every matrix must match it
    mats = {k: [list(r) for r in v] for k, v in sl2_irrep_matrices(2).items()}
    edit(mats)
    with pytest.raises(ModuleDataError, match=f"generator matrix '{name}' is not 2 x 2"):
        build_loop_module(A1, mats, 2)


@pytest.mark.parametrize("edit, name", [
    pytest.param(lambda m: m.update(h1=[5, 6]), "h1", id="rows-not-lists"),
    pytest.param(lambda m: m["e1"][0].__setitem__(1, "x"), "e1", id="not-a-number"),
    pytest.param(lambda m: m["f1"][1].__setitem__(0, "1/0"), "f1", id="zero-denominator"),
])
def test_malformed_generator_entries_rejected(edit, name):
    # an entry that is not a rational number is bad data in the matrix holding it
    mats = {k: [list(r) for r in v] for k, v in sl2_irrep_matrices(2).items()}
    edit(mats)
    with pytest.raises(ModuleDataError, match=f"bad module data in '{name}'"):
        build_loop_module(A1, mats, 2)


def a2_standard_matrices():
    """e_i = E_{i,i+1}, f_i = E_{i+1,i}, h_i = E_{ii} - E_{i+1,i+1} on C^3."""
    def unit(*entries):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for r, c, v in entries:
            m[r][c] = Fraction(v)
        return m
    return {"e1": unit((0, 1, 1)), "e2": unit((1, 2, 1)),
            "f1": unit((1, 0, 1)), "f2": unit((2, 1, 1)),
            "h1": unit((0, 0, 1), (1, 1, -1)), "h2": unit((1, 1, 1), (2, 2, -1))}


def test_loop_module_a2_standard_representation():
    # x_{+-(alpha1+alpha2)} are derived from the simple root matrices
    lm = build_loop_module(A2, a2_standard_matrices(), 1)
    assert lm.total_dim == 9
    assert (("x", (1, 1)), 1) in lm.defined and (("x", (-1, -1)), 0) in lm.defined
    checked, failures = check_bracket_compatibility(lm)
    assert checked and failures == []
    flipped = a2_standard_matrices()
    flipped["f2"][2][1] = Fraction(-1)
    with pytest.raises(ModuleDataError, match="violate the bracket table"):
        build_loop_module(A2, flipped, 1)


# -- extraction ----------------------------------------------------------------------


def test_extract_on_highest_weight_vector_is_identity_path():
    em = verma_a1()
    split = torsion_decompose(em, 4)
    [(widx, vec)] = split.torsion_vectors()
    w, out, verified = extract_annihilated_vector(em, widx, vec, 4)
    assert w.h_values == LAM.h_values
    assert out == (widx, vec)
    assert verified > 0


def test_extract_on_sum_of_highest_weight_vectors():
    em = ExplicitModule.direct_sum([verma_a1("h1=-1/2"), verma_a1("h1=-3/2")])
    split = torsion_decompose(em, 4)
    vecs = split.torsion_vectors()
    combined = dict(vecs[0][1])
    # different weights: combine only if same weight space; here they differ,
    # so extract each separately and also a same-space combination
    for widx, vec in vecs:
        w, out, _ = extract_annihilated_vector(em, widx, vec, 4)
        assert out == (widx, vec)
    em2 = ExplicitModule.direct_sum([verma_a1(), verma_a1()])
    split2 = torsion_decompose(em2, 4)
    (wa, va), (wb, vb) = split2.torsion_vectors()
    assert wa == wb
    both = dict(va)
    for k, v in vb.items():
        both[k] = both.get(k, 0) + v
    w, out, _ = extract_annihilated_vector(em2, wa, both, 4)
    assert out == (wa, both)


def test_extract_rejects_non_torsion():
    em = verma_a1()
    fidx = next(i for i, w in enumerate(em.weights)
                if w.h_values != LAM.h_values and w.d_value == 0)
    with pytest.raises(ModuleDataError, match="not torsion"):
        extract_annihilated_vector(em, fidx, {0: Fraction(1)}, 4)


def test_extract_power_iteration_path():
    # hide the Heisenberg tables so the precondition is vacuous, then hand the
    # iteration a vector that is NOT already annihilated: v = F(alpha,0)v_hw.
    # e_{1,0} sends it to lambda(h1) v_hw, so p = 2 and one power step must
    # land on the highest-weight line.
    em = verma_a1()
    for gk in list(em.defined):
        if gk[0][0] == "h":
            em.defined[gk] = {}
    fidx = next(i for i, w in enumerate(em.weights)
                if w.h_values != LAM.h_values and w.d_value == 0)
    w, (widx, out), verified = extract_annihilated_vector(em, fidx, {0: Fraction(1)}, 3)
    assert w.h_values == LAM.h_values
    [j] = list(out)
    assert em.labels[widx][j] == "v"
    assert verified > 0


def test_extract_cap_exceeded():
    # same hidden-table setup as the power-iteration test, but the cap is too
    # small to evaluate the degree-2 nilpotency
    em = verma_a1()
    for gk in list(em.defined):
        if gk[0][0] == "h":
            em.defined[gk] = {}
    fidx = next(i for i, w in enumerate(em.weights)
                if w.h_values != LAM.h_values and w.d_value == 0)
    with pytest.raises(ModuleDataError, match="cap"):
        extract_annihilated_vector(em, fidx, {0: Fraction(1)}, 3, cap=1)


def test_extract_chain_reaching_an_undefined_pair_raises():
    # e1@0 maps the first space into the second, where it is undefined; no
    # Heisenberg table is stored, so the vector passes as torsion
    em = _axiom2_module("undefined-block")
    with pytest.raises(UndefinedActionError, match="^e1@0 undefined at weight index 1$"):
        extract_annihilated_vector(em, 0, {0: Fraction(1)}, 2)


# -- decomposition -------------------------------------------------------------------


def test_decompose_single_module():
    em = verma_a1()
    summands, audit = decompose_into_reduced_vermas(em, 4)
    assert len(summands) == 1
    assert summands[0][0].h_values == LAM.h_values
    assert audit["passed"]


def test_decompose_sum_with_multiplicity():
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1()])
    summands, audit = decompose_into_reduced_vermas(em, 4)
    assert sorted(str(w.h_values[0]) for w, _ in summands) == ["-1/2", "-1/2"]
    assert audit["passed"]


def test_decompose_scrambled_sum_recovers_weights():
    mods = [verma_a1("h1=-1/2"), verma_a1("h1=-3/2"), verma_a1("h1=-7/3")]
    em = ExplicitModule.direct_sum(mods).scrambled(99)
    summands, audit = decompose_into_reduced_vermas(em, 4)
    got = sorted(str(w.h_values[0]) for w, _ in summands)
    assert got == ["-1/2", "-3/2", "-7/3"]
    assert audit["passed"]


@pytest.mark.parametrize("label, summands", [
    # A3 and D4 have orthogonal simple roots: a single h_{i,l} with
    # gamma(h_i) = 0 kills a string, the whole degree-l slice does not
    pytest.param("A3", "h1=-1/2,h2=-1/3,h3=-1/5|h1=-3/2,h2=-1/3,h3=-1/5", id="A3"),
    pytest.param("B2", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3", id="B2"),
    pytest.param("C2", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3", id="C2"),
    pytest.param("D4", "h1=-1/2,h2=-1/3,h3=-1/5,h4=-1/7|"
                       "h1=-3/2,h2=-1/3,h3=-1/5,h4=-1/7", id="D4"),
    pytest.param("G2", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3", id="G2"),
])
def test_decompose_scrambled_sum_of_every_type(label, summands):
    alg = aff(label)
    lams = [parse_weight(text, alg.rank) for text in summands.split("|")]
    mods = [ExplicitModule.from_reduced_verma(
        alg, lam, kmax=2, window=TruncationWindow(L=3, N=2, H=1),
        loop_window=2) for lam in lams]
    got, audit = decompose_into_reduced_vermas(
        ExplicitModule.direct_sum(mods).scrambled(3), 2)
    assert sorted(w.h_values for w, _ in got) == sorted(lam.h_values for lam in lams)
    assert audit["passed"]
    assert all(row["expected"] == row["stored"] for row in audit["per_weight"])


def test_decompose_rejects_non_member():
    lm = build_loop_module(A1, sl2_irrep_matrices(2), 3)
    with pytest.raises(ModuleDataError, match="membership"):
        decompose_into_reduced_vermas(lm, 3)


def test_audit_fails_on_wrong_claim():
    em = verma_a1()
    wrong = Weight.make([Fraction(-3, 2)])
    with pytest.raises(AuditError, match="audit failed"):
        audit_decomposition(em, [wrong])
    with pytest.raises(AuditError, match="audit failed"):
        audit_decomposition(em, [em.weights[0], em.weights[0]])


def test_audit_fails_on_summand_space_the_module_does_not_store():
    # each extra summand has nonzero windowed dimensions only at weights the
    # module does not store, so its claim cannot match
    em = verma_a1()
    for extra in (parse_weight("h1=-1/3", 1),
                  Weight(LAM.h_values, LAM.c_value, LAM.d_value + 100)):
        with pytest.raises(AuditError, match="audit failed"):
            audit_decomposition(em, [LAM, extra])
    assert audit_decomposition(em, [LAM])["passed"]


def test_audit_requires_window_metadata():
    em = verma_a1()
    em.meta = None
    with pytest.raises(AuditError, match="window metadata"):
        audit_decomposition(em, [Weight.make([Fraction(-1, 2)])])


def test_audit_height_above_window_fails_within_reach():
    # L * ht(theta) = 1 <= H = 2, so every offset the window reaches is within
    # H; a build height above H still fails with the window error
    em = _reduced(A1, "h1=-1/2", 3, TruncationWindow(1, 3, 2))
    em.meta = dict(em.meta, height=3)
    with pytest.raises(WindowOverflowError,
                       match="^offset height 3 exceeds window H=2$"):
        audit_decomposition(em, [LAM])


def test_audit_reads_only_the_offsets_the_build_reaches():
    # L * ht(theta) = 1 for A1 at L = 1: a build height far above it lists
    # no further offset, so every count is the same
    em = _reduced(A1, "h1=-1/2", 3, TruncationWindow(1, 3, 1))
    at_reach = audit_decomposition(em, [LAM])["per_weight"]
    em.meta = dict(em.meta, height=10**9, window={"L": 1, "N": 3, "H": 10**9})
    assert audit_decomposition(em, [LAM])["per_weight"] == at_reach


def test_scramble_preserves_dims_and_torsion():
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1("h1=-3/2")])
    sc = em.scrambled(5)
    assert [sc.dim(i) for i in range(len(sc.weights))] == \
        [em.dim(i) for i in range(len(em.weights))]
    assert torsion_decompose(sc, 4).torsion_dim() == 2
    checked, failures = check_bracket_compatibility(sc, max_pairs=80, rng_seed=0)
    assert checked and not failures


# -- targets ----------------------------------------------------------------------


def a2_summands():
    window = TruncationWindow(L=3, N=4, H=1)
    return [ExplicitModule.from_reduced_verma(A2, parse_weight(t, 2), kmax=4,
                                              window=window, loop_window=3)
            for t in ("h1=1/4,h2=-7/4", "h1=-7/4,h2=-3/4")]


def a2_sum():
    """Two A2 summands whose pairs can target the other summand's weights."""
    return ExplicitModule.direct_sum(a2_summands())


def a1_sum():
    return ExplicitModule.direct_sum([verma_a1(), verma_a1("h1=-3/2")])


@pytest.mark.parametrize("build", [
    pytest.param(verma_a1, id="from_reduced_verma"),
    pytest.param(a1_sum, id="direct_sum-A1"),
    pytest.param(a2_sum, id="direct_sum-A2"),
    pytest.param(lambda: a2_sum().scrambled(7), id="scrambled"),
    pytest.param(lambda: torsion_free_restriction(torsion_decompose(a1_sum(), 4)),
                 id="torsion_free_restriction"),
    pytest.param(lambda: ExplicitModule.from_json_dict(
        json.loads(json.dumps(a2_sum().scrambled(7).to_json_dict()))),
                 id="from_json_dict"),
    pytest.param(lambda: build_loop_module(A1, sl2_irrep_matrices(3), 2),
                 id="build_loop_module"),
])
def test_targets_match_weight_shift(build):
    em = build()
    pairs = 0
    for gk, per_src in em.defined.items():
        for src in per_src:
            want = em.windex.get(weight_shift(em.algebra, em.weights[src], gk))
            assert em.table(gk, src)[1] == want
            pairs += 1
    assert pairs


def test_direct_sum_targets_reach_other_summands():
    # a pair whose target weight only the other summand carries: no carrying
    # summand knows that target, so only the weights can supply it
    summands = a2_summands()
    em = ExplicitModule.direct_sum(summands)
    owners = [set(m.weights) for m in summands]
    crossing = 0
    for gk, per_src in em.defined.items():
        for src in per_src:
            tgt = em.table(gk, src)[1]
            if tgt is not None and not any(
                    em.weights[src] in ws and em.weights[tgt] in ws for ws in owners):
                crossing += 1
    assert crossing


# -- serialization -------------------------------------------------------------------


def test_json_round_trip():
    em = ExplicitModule.direct_sum([verma_a1(), verma_a1("h1=-3/2")]).scrambled(3)
    blob = json.dumps(em.to_json_dict(), sort_keys=True)
    em2 = ExplicitModule.from_json_dict(json.loads(blob))
    assert em2.weights == em.weights
    assert em2.labels == em.labels
    assert em2.total_dim == em.total_dim
    assert torsion_decompose(em2, 4).torsion_dim() == 2
    summands, audit = decompose_into_reduced_vermas(em2, 4)
    assert audit["passed"]
    blob2 = json.dumps(em2.to_json_dict(), sort_keys=True)
    assert blob2 == blob  # deterministic serialization


def test_writer_refuses_a_block_without_a_target_weight():
    # e1@0 sends the second space of leaves-store out of the store: the file
    # written would hold [0, 2, "1"], which the reader rejects ("has a row in
    # weight index 0, not in its target weight"); scrambled refuses it too
    module = AXIOM2_MODULES["leaves-store"]()
    for write in (module.to_json_dict, lambda: module.scrambled(1)):
        with pytest.raises(ModuleDataError, match="nonzero block without a target weight"):
            write()


@pytest.mark.parametrize("build", [
    pytest.param(build, id=f"{table}-{name}")
    for table, modules in (("split", SPLIT_MODULES), ("axiom2", AXIOM2_MODULES))
    for name, build in modules.items() if name != "leaves-store"])
def test_library_built_modules_round_trip(build):
    module = build()
    module = module[0] if isinstance(module, tuple) else module
    data = json.loads(json.dumps(module.to_json_dict()))
    assert ExplicitModule.from_json_dict(data).to_json_dict() == data


def test_json_rationals_are_strings():
    em = verma_a1(kmax=2, loop_window=1)
    data = em.to_json_dict()
    assert all(isinstance(w["h"][0], str) for w in data["weights"])
    for triples in data["actions"].values():
        for r, c, v in triples:
            Fraction(v)  # parses as exact rational


def test_json_zero_triple_is_checked_and_not_stored():
    line = {"h1@1": [[1, 0, "1"]]}
    zero = {"h1@1": [[1, 0, "1"], [2, 1, "0"]]}
    defined = {"h1@1": [0, 1]}
    assert (_line_module(zero, defined).to_json_dict()
            == _line_module(line, defined).to_json_dict())
    # h1@1 on weight index 0 targets index 1, so row 0 is outside the target,
    # whatever the value
    for value in ("1", "0"):
        with pytest.raises(ModuleDataError, match="has a row in weight index 0, "
                                                  "not in its target weight"):
            _line_module({"h1@1": [[0, 0, value]]}, defined)
    with pytest.raises(ModuleDataError, match="'defined' list omits"):
        _line_module({"h1@1": [[2, 1, "0"]]}, {"h1@1": [0]})
    # a second value at one entry would leave the table ambiguous, zero or not
    for value in ("1", "0"):
        with pytest.raises(ModuleDataError, match="two values at row 1, column 0"):
            _line_module({"h1@1": [[1, 0, "1"], [1, 0, value]]}, defined)


def test_json_defined_defaults_to_action_support():
    em = verma_a1(kmax=2, loop_window=1)
    data = em.to_json_dict()
    del data["defined"]
    em2 = ExplicitModule.from_json_dict(data)
    # tables without an explicit defined list are taken as total on listed sources
    for gk, per_src in em2.defined.items():
        assert all(per_src.values())
        assert set(per_src) == {s for s, mat in em.defined[gk].items() if mat}


# -- sparse blocks against dense oracles ------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(verma_a1, id="from_reduced_verma"),
    pytest.param(a2_sum, id="direct_sum"),
    pytest.param(lambda: a2_sum().scrambled(7), id="scrambled"),
    pytest.param(lambda: ExplicitModule.from_json_dict(
        json.loads(json.dumps(a1_sum().scrambled(3).to_json_dict()))),
                 id="from_json_dict"),
    pytest.param(lambda: build_loop_module(A2, a2_standard_matrices(), 1),
                 id="build_loop_module"),
])
def test_blocks_are_column_major_without_zeros(build):
    em = build()
    assert any(block for per_src in em.defined.values() for block in per_src.values())
    assert block_violations(em) == []


def _as_dense(mat, nrows, ncols):
    """The dense rows of a column-major block."""
    return [[mat.get(c, {}).get(r, Fraction(0)) for c in range(ncols)]
            for r in range(nrows)]


cancelling_value = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                    Fraction(1, 2), Fraction(-2, 3)])


def sparse_matrix(nrows, ncols, value=cancelling_value):
    """Column-major nrows x ncols blocks; with the default values, zeros and
    empty columns are stored at times."""
    return st.dictionaries(
        st.integers(0, ncols - 1),
        st.dictionaries(st.integers(0, nrows - 1), value, max_size=nrows),
        max_size=ncols)


@st.composite
def sparse_pair(draw):
    """(a, b, n, k, m): sparse n x k and k x m matrices, zeros stored at times."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m)), n, k, m


@settings(max_examples=150, deadline=None)
@given(sparse_pair())
def test_property_sparse_mat_mul_matches_dense(pair):
    a, b, n, k, m = pair
    prod = _mat_mul(a, b)
    assert all(column and all(column.values()) for column in prod.values())
    assert _as_dense(prod, n, m) == dense_mat_mul(_as_dense(a, n, k), _as_dense(b, k, m))


def test_sparse_mat_mul_empty_and_cancelling():
    assert _mat_mul({}, {0: {0: Fraction(1)}}) == {}
    assert _mat_mul({0: {0: Fraction(1)}}, {}) == {}
    assert _mat_mul({0: {0: Fraction(0)}}, {0: {0: Fraction(1)}}) == {}
    # [1 1] @ [1 -1]^T cancels to zero, which must not be stored
    a = {0: {0: Fraction(1)}, 1: {0: Fraction(1)}}
    b = {0: {0: Fraction(1), 1: Fraction(-1)}}
    assert _mat_mul(a, b) == {}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 5).flatmap(
    lambda m: st.tuples(st.just(n), st.just(m), sparse_matrix(
        n, m, st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]))))))
def test_property_transpose_is_an_involution(case):
    n, m, mat = case
    mat = {j: column for j, column in mat.items() if column}
    flipped = _transpose(mat)
    assert _as_dense(flipped, m, n) == [list(row) for row in zip(*_as_dense(mat, n, m))]
    assert _transpose(flipped) == mat


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.integers(0, n))))
def test_property_annihilator_rows_match_t_projection(case):
    rows, t = case
    n = len(rows)
    assume(rank(sparse_rows(rows), n) == n)
    basis = [[Fraction(x) for x in row] for row in rows]
    t_rows, tf_rows = basis[:t], basis[t:]
    # the projection onto T along TF and the rows vanishing on TF share
    # their kernel TF, so they span the same row space
    assert (rref(nullspace(sparse_rows(tf_rows), n), n)
            == rref(sparse_rows(t_projection(t_rows, tf_rows)), n))

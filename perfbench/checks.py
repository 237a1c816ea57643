"""Per-op output checks, with oracles independent of the code they check.

- singular: every reported vector is killed by every
  `annihilator_generators(window)` element, the vectors of one weight space
  are independent, and their count equals the nullity of that space's
  raising-operator matrix. The nullity comes from `rank_exact` here, not from
  `imverma._kernels`.
- decompose: the recovered summand multiset equals the generated lambda
  multiset, and the audit passed.
- dims: each row equals a count of windowed symbol multisets made by
  `dims_oracle` here, not by `VermaModule.basis_monomials`.

Each check returns None when the output is right and a one-line reason when
it is not.
"""

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from imverma.affine import AffineAlgebra
from imverma.cartan import cartan_matrix_of_type
from imverma.finite import build_simple_algebra
from imverma.verma import (ModuleVector, VermaModule, monomial_name,
                           monomial_offset, parse_weight, parse_window)


def rank_exact(rows):
    """Rank over Q of rows of rationals: fraction-free echelon with gcd
    normalisation, stopping once the rank reaches the column count."""
    echelon = {}  # pivot column -> integer row {col: value}, pivot leading
    ncols = None
    for row in rows:
        row = list(row)
        if ncols is None:
            ncols = len(row)
        den = lcm(*(Fraction(x).denominator for x in row if x)) if any(row) else 1
        vec = {j: int(Fraction(x) * den) for j, x in enumerate(row) if x}
        while vec:
            p = min(vec)
            base = echelon.get(p)
            if base is None:
                g = gcd(*vec.values())
                echelon[p] = {j: v // g for j, v in vec.items()}
                break
            a, b = vec[p], base[p]
            out = {j: v * b for j, v in vec.items()}
            for j, v in base.items():
                w = out.get(j, 0) - v * a
                if w:
                    out[j] = w
                else:
                    out.pop(j, None)
            g = gcd(*out.values()) if out else 1
            vec = {j: v // g for j, v in out.items()}
        if len(echelon) == ncols:
            break
    return len(echelon)


def _algebra(label):
    return AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _sort_key(mono):
    return tuple(repr(s) for s in mono)


# -- singular -----------------------------------------------------------------


def check_singular(op, text):
    argv = list(op.argv)
    report = json.loads(text)
    result = report["result"]
    alg = _algebra(op.type)
    reduced = "--full" not in argv
    lam = parse_weight(_arg(argv, "--lambda"), alg.rank)
    window = parse_window(_arg(argv, "--window"))
    if result["reduced"] != reduced:
        return "report has the wrong reduced flag"
    mod = VermaModule(alg, lam, reduced=reduced)
    gens = [g for _, g in mod.annihilator_generators(window)]

    spaces = {}
    for s in product(range(window.H + 1), repeat=alg.rank):
        if sum(s) <= window.H:
            for mono in mod.basis_monomials((None, s), window):
                spaces.setdefault(monomial_offset(mono, alg.rank), set()).add(mono)

    reported = {}
    for entry in result["singular_vectors"]:
        off = (entry["offset"]["delta"], tuple(entry["offset"]["finite"]))
        if off not in spaces:
            return f"vector reported at {off}, which is no weight space"
        names = {monomial_name(m): m for m in spaces[off]}
        terms = {}
        for name, coeff in entry["vector"].items():
            if name not in names:
                return f"vector at {off} has term {name} outside its space"
            terms[names[name]] = Fraction(coeff)
        reported.setdefault(off, []).append(terms)

    for off in sorted(spaces):
        basis = sorted(spaces[off], key=_sort_key)
        vecs = reported.get(off, [])
        for terms in vecs:
            v = ModuleVector(mod, terms)
            if v.is_zero():
                return f"zero vector reported at {off}"
            for g in gens:
                if not mod.act(g, v).is_zero():
                    return f"vector at {off} is not annihilated by {g!r}"
        if vecs and rank_exact([[t.get(m, 0) for m in basis] for t in vecs]) != len(vecs):
            return f"vectors at {off} are dependent"
        rows = {}
        for g in gens:
            for j, mono in enumerate(basis):
                image = mod.act(g, ModuleVector(mod, {mono: Fraction(1)}))
                for m2, c2 in image.terms.items():
                    rows.setdefault((id(g), m2), {})[j] = c2
        matrix = [[r.get(j, 0) for j in range(len(basis))] for r in rows.values()]
        nullity = len(basis) - rank_exact(matrix)
        if nullity != len(vecs):
            return f"{len(vecs)} vectors reported at {off}, nullity is {nullity}"
    return None


# -- decompose ----------------------------------------------------------------


def check_decompose(op, text):
    result = json.loads(text)["result"]
    if result["audit"].get("passed") is not True:
        return "audit did not pass"
    got = sorted(tuple(Fraction(x) for x in s["h"]) for s in result["summands"])
    want = sorted(tuple(Fraction(x) for x in lam) for lam in op.lams)
    if got != want:
        return f"summands {got} differ from generated {want}"
    if any(Fraction(s["c"]) != 0 for s in result["summands"]):
        return "a summand has nonzero c"
    return None


# -- dims ---------------------------------------------------------------------


def dims_oracle(alg, offset_s, window, delta_max):
    """Rows k -> number of PBW monomials of M(lambda) at (-k, s) in the window.

    Counts multisets of symbols F(gamma, n) (gamma positive, |n| <= N) and
    B(i, l) (1 <= l <= N) of length <= L with F-roots summing to s, by a DP
    over symbol types: state (length, root sum, delta degree) -> count.
    """
    n = window.N
    types = [(gamma, d) for gamma in alg.finite.roots.positive_roots
             for d in range(-n, n + 1)]
    types += [((0,) * alg.rank, -l) for _ in range(alg.rank)
              for l in range(1, n + 1)]
    states = {(0, (0,) * alg.rank, 0): 1}
    for gamma, d in types:
        nxt = dict(states)
        for (length, s, k), count in states.items():
            for m in range(1, window.L - length + 1):
                s2 = tuple(a + m * g for a, g in zip(s, gamma))
                if any(a > b for a, b in zip(s2, offset_s)):
                    break
                key = (length + m, s2, k + m * d)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    rows = {k: 0 for k in range(delta_max + 1)}
    for (_, s, k), count in states.items():
        if s == offset_s and -k in rows:
            rows[-k] += count
    return rows


def check_dims(op, text):
    argv = list(op.argv)
    alg = _algebra(op.type)
    offset_s = tuple(int(x) for x in _arg(argv, "--offset").split(","))
    window = parse_window(_arg(argv, "--window"))
    delta_max = int(_arg(argv, "--delta-max"))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "k,dimension":
        return "missing CSV header"
    got = {}
    for ln in lines[1:]:
        k, d = ln.split(",")
        got[int(k)] = int(d)
    want = dims_oracle(alg, offset_s, window, delta_max)
    if got != want:
        bad = sorted(k for k in want if got.get(k) != want[k])
        return f"dimension rows {bad} differ from the oracle"
    return None


CHECKS = {"singular": check_singular, "decompose": check_decompose,
          "dims": check_dims}


def check(op, text):
    """None if `text` (the op's stdout) is right, else a reason."""
    return CHECKS[op.kind](op, text)

"""Untwisted affine algebras in the loop realization, and order-2 twists.

ghat = g (x) C[t,t^-1] + C c + C d with

    [x (x) t^n, y (x) t^m] = [x,y] (x) t^{n+m} + delta_{n,-m} n (x|y) c
    [d, x (x) t^n] = n x (x) t^n,   c central

(x|y) is the invariant form of the finite algebra normalized to
(theta|theta) = 2, so levels come out in standard units. Affine roots are
(finite part, delta coefficient) pairs; the affine simple root alpha_0 is
(-theta, 1) and e_0 = x_{-theta} (x) t, f_0 = x_theta (x) t^{-1},
h_0 = [e_0, f_0] = c - h_theta.

A loop generator key (x) t^n is the pair (key, n), written e1@-2, f2@0, h1@3
or x[1,1]@2 (gen_name, read back by parse_gen); loop_keys, raising_keys and
heisenberg_keys list the stored, raising and Heisenberg families.

Everything here is immutable after construction; operations are pure.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from imverma._kernels import nullspace, rank
from imverma.errors import (AutomorphismError, ContextMismatchError, ImvermaError,
                            ModuleDataError, NotARootError)
from imverma.finite import (DiagramAutomorphism, FiniteAlgebra, FiniteElement,
                            SparseCombination, _neg, add_scaled, key_name,
                            root_height)


@dataclass(frozen=True)
class AffineRoot:
    """finite part (integer tuple over alpha_1..alpha_N) plus n*delta."""

    finite: tuple
    n: int

    def __neg__(self):
        return AffineRoot(tuple(-x for x in self.finite), -self.n)

    def __add__(self, other):
        return AffineRoot(tuple(a + b for a, b in zip(self.finite, other.finite)),
                          self.n + other.n)

    def to_json_dict(self):
        """{"finite": [...], "delta": n}: the record of a root in every report."""
        return {"finite": list(self.finite), "delta": self.n}


@dataclass(eq=False)
class LoopElement(SparseCombination):
    """Finite sparse sum of (basis element (x) t^n) terms plus c and d parts."""

    algebra: "AffineAlgebra"
    terms: dict = field(default_factory=dict)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)
    _scalars = ("c", "d")
    _mismatch = "loop elements from different algebra contexts"

    def __repr__(self):
        bits = [f"{v}*{key_name(k)}@t^{n}" for (k, n), v in sorted(
            self.terms.items(), key=lambda kv: (kv[0][1], str(kv[0][0])))]
        if self.c:
            bits.append(f"{self.c}*c")
        if self.d:
            bits.append(f"{self.d}*d")
        return " + ".join(bits) if bits else "0"


class AffineAlgebra:
    """Loop-realization context over a finite algebra."""

    def __init__(self, finite: FiniteAlgebra):
        self.finite = finite
        self.rank = finite.rank
        theta = finite.roots.theta
        self.theta = theta
        # h_0 = c - h_theta, realized and recorded rather than postulated;
        # [e_0, f_0] is checked against it in the test suite.
        self._h0_finite = finite.coroot(_neg(theta))  # h_{-theta} = -h_theta

    # -- element factories -------------------------------------------------

    def zero(self):
        return LoopElement(self, {})

    def loop(self, x: FiniteElement, n: int) -> LoopElement:
        if x.algebra is not self.finite:
            raise ContextMismatchError("finite element from a different algebra context")
        return LoopElement(self, {(k, n): v for k, v in x.terms.items()})

    def c_elem(self):
        return LoopElement(self, {}, c=Fraction(1))

    def d_elem(self):
        return LoopElement(self, {}, d=Fraction(1))

    def e(self, i, n=0):
        """e_i (x) t^n for i in I_0; i = 0 gives the affine generator e_0 (n must be 0)."""
        if i == 0:
            if n != 0:
                raise ImvermaError("e_0 is a fixed generator; no extra loop degree")
            return self.loop(self.finite.root_vector(_neg(self.theta)), 1)
        return self.loop(self.finite.e(i), n)

    def f(self, i, n=0):
        if i == 0:
            if n != 0:
                raise ImvermaError("f_0 is a fixed generator; no extra loop degree")
            return self.loop(self.finite.root_vector(self.theta), -1)
        return self.loop(self.finite.f(i), n)

    def h(self, i, n=0):
        if i == 0:
            if n != 0:
                raise ImvermaError("h_0 is a fixed generator; no extra loop degree")
            return self.loop(self._h0_finite, 0) + self.c_elem()
        return self.loop(self.finite.h(i), n)

    # -- roots ---------------------------------------------------------------

    def is_affine_root(self, r: AffineRoot) -> bool:
        zero = all(x == 0 for x in r.finite)
        if zero:
            return r.n != 0
        return r.finite in self.finite.roots.root_set

    def classify_root(self, r: AffineRoot) -> str:
        if not self.is_affine_root(r):
            raise NotARootError(f"{r} is not an affine root")
        return "imaginary" if all(x == 0 for x in r.finite) else "real"

    def roots_in_window(self, height, degree):
        """All affine roots with |finite height| <= height and |n| <= degree."""
        fins = [g for g in self.finite.roots.root_set if abs(root_height(g)) <= height]
        fins.append(tuple(0 for _ in range(self.rank)))
        return [r for g in sorted(fins) for n in range(-degree, degree + 1)
                if self.is_affine_root(r := AffineRoot(g, n))]


# -- loop generators -----------------------------------------------------------


def gen_name(algebra: AffineAlgebra, key, n) -> str:
    kind, val = key
    if kind == "h":
        return f"h{val}@{n}"
    rs = algebra.finite.roots
    if val in rs.positive_set and sum(val) == 1:
        return f"e{val.index(1) + 1}@{n}"
    neg = _neg(val)
    if neg in rs.positive_set and sum(neg) == 1:
        return f"f{neg.index(1) + 1}@{n}"
    return "x[" + ",".join(str(c) for c in val) + f"]@{n}"


# e1@-2, f2@0, h1@3, x[1,1]@2: kind, index or root coordinates, loop degree
GEN_NAME = r"(?:([efh])(\d+)|x\[(-?\d+(?:,-?\d+)*)\])@(-?\d+)"


def parse_gen(algebra: AffineAlgebra, name: str):
    if name.partition("@")[0] in ("c", "d"):
        raise ModuleDataError(f"{name[0]} acts by a scalar on every weight space "
                              "and has no generator name")
    match = re.fullmatch(GEN_NAME, name)
    if match is None:
        raise ModuleDataError(f"malformed generator name {name!r} "
                              "(want e1@-2, h2@3 or x[1,1]@2)")
    kind, index, coords, deg = match.groups()
    n = int(deg)
    if coords is not None:
        root = tuple(int(t) for t in coords.split(","))
        if root not in algebra.finite.roots.root_set:
            raise ModuleDataError(f"{name!r} names no root of the algebra")
        return ("x", root), n
    i = int(index)
    if not 1 <= i <= algebra.rank:
        raise ModuleDataError(f"generator index out of range in {name!r}")
    if kind == "h":
        return ("h", i), n
    simple = algebra.finite.roots.simple_roots[i - 1]
    return ("x", simple if kind == "e" else _neg(simple)), n


def loop_keys(algebra: AffineAlgebra, window):
    """The stored loop generators key (x) t^n, |n| <= window: every finite basis
    key at every degree except h_i (x) t^0, which acts from the weights."""
    return [(key, n) for key in algebra.finite.basis
            for n in range(-window, window + 1)
            if not (key[0] == "h" and n == 0)]


def raising_keys(algebra: AffineAlgebra, degrees):
    """e_i (x) t^n for each simple root, then each degree n."""
    return [(("x", simple), n) for simple in algebra.finite.roots.simple_roots
            for n in degrees]


def heisenberg_keys(algebra: AffineAlgebra, gwindow):
    """h_i (x) t^l for 0 < |l| <= gwindow, ordered by l, then i."""
    return [(("h", i), l) for l in range(-gwindow, gwindow + 1) if l
            for i in range(1, algebra.rank + 1)]


def affine_bracket(a: LoopElement, b: LoopElement) -> LoopElement:
    """The loop-realization bracket, including central term and d-grading."""
    if a.algebra is not b.algebra:
        raise ContextMismatchError("loop elements from different algebra contexts")
    alg = a.algebra
    fin = alg.finite
    terms = {}
    c_out = Fraction(0)
    for (k1, n1), c1 in a.terms.items():
        for (k2, n2), c2 in b.terms.items():
            coeff = c1 * c2
            image = fin._bracket_table.get((k1, k2), {})
            add_scaled(terms, {(k, n1 + n2): c for k, c in image.items()}, coeff)
            if n1 == -n2 and n1 != 0:
                c_out += coeff * n1 * fin.form_keys(k1, k2)
    # [d, x (x) t^n] = n x (x) t^n
    if a.d:
        add_scaled(terms, {k: k[1] * c for k, c in b.terms.items() if k[1]}, a.d)
    if b.d:
        add_scaled(terms, {k: k[1] * c for k, c in a.terms.items() if k[1]}, -b.d)
    return LoopElement(alg, terms, c=c_out)


# -- closed partitions ---------------------------------------------------------


def natural_partition_contains(algebra: AffineAlgebra, r: AffineRoot) -> bool:
    """alpha + n*delta for positive alpha (any n), plus k*delta for k > 0."""
    if not algebra.is_affine_root(r):
        raise NotARootError(f"{r} is not an affine root")
    if all(x == 0 for x in r.finite):
        return r.n > 0
    return r.finite in algebra.finite.roots.positive_set


def standard_partition_contains(algebra: AffineAlgebra, r: AffineRoot) -> bool:
    """alpha + n*delta for n > 0 (any alpha), plus positive alpha at n = 0."""
    if not algebra.is_affine_root(r):
        raise NotARootError(f"{r} is not an affine root")
    if r.n > 0:
        return True
    if r.n == 0:
        return r.finite in algebra.finite.roots.positive_set
    return False


def check_closed_partition(alg: AffineAlgebra, contains, height, degree) -> dict:
    """Windowed report on the candidate closed partition S whose membership
    predicate is contains(alg, root), such as natural_partition_contains.

    Checks, over all affine roots with |finite height| <= height and
    |n| <= degree: S(r) xor S(-r) for every root, and closure under addition
    for every pair of members whose sum is again a root. Sums escaping the
    window are counted as skipped, never as failures.
    """
    window_roots = alg.roots_in_window(height, degree)
    violations = []
    members = []
    for r in window_roots:
        in_s = contains(alg, r)
        in_neg = contains(alg, -r)
        if in_s == in_neg:
            axiom = "disjointness" if in_s else "covering"
            violations.append({"axiom": axiom, "witness": [r.to_json_dict()]})
        if in_s:
            members.append(r)
    skipped = 0
    inside = set(window_roots)
    for i, r1 in enumerate(members):
        for r2 in members[i:]:
            s = r1 + r2
            if not alg.is_affine_root(s):
                continue
            if s not in inside:
                skipped += 1
                continue
            if not contains(alg, s):
                violations.append({"axiom": "closure",
                                   "witness": [r1.to_json_dict(), r2.to_json_dict()]})
    return {
        "window": {"height": height, "loop_degree": degree},
        "roots_checked": len(window_roots),
        "skipped_sums": skipped,
        "violations": violations,
        "passed": not violations,
    }


# -- order-2 twisted fixed-point subalgebras -----------------------------------


class TwistedSubalgebra:
    """Graded fixed-point subalgebra of an order-2 twist of the loop algebra.

    Degree m carries mu_0 (x) t^m for even m and mu_1 (x) t^m for odd m, where
    mu_0 / mu_1 are the +1 / -1 eigenspaces of the diagram automorphism on the
    finite algebra; c and d are adjoined at degree 0.
    """

    def __init__(self, algebra: AffineAlgebra, aut: DiagramAutomorphism, window: int):
        if aut.algebra is not algebra.finite:
            raise ContextMismatchError("automorphism belongs to a different algebra")
        if aut.order != 2:
            raise AutomorphismError(
                f"twisted construction needs an order-2 automorphism, got order {aut.order}")
        if window < 0:
            raise ImvermaError("degree window must be non-negative")
        self.algebra = algebra
        self.aut = aut
        self.window = window
        dim = algebra.finite.dimension
        self.even_basis = self._eigenbasis(Fraction(1))
        self.odd_basis = self._eigenbasis(Fraction(-1))
        if len(self.even_basis) + len(self.odd_basis) != dim:
            raise ImvermaError("eigenspaces do not span; automorphism is not semisimple?")

    def _eigenbasis(self, eigval):
        """Basis of the eigval-eigenspace: the kernel of (aut matrix) - eigval."""
        fin = self.algebra.finite
        rows = [{i: -eigval} for i in range(fin.dimension)]
        for j, key in enumerate(fin.basis):
            s, k2 = self.aut.image_key(key)
            add_scaled(rows[fin.basis_index[k2]], {j: s})
        return [fin.element({fin.basis[i]: x for i, x in v.items()})
                for v in nullspace(rows, fin.dimension)]

    def graded_basis(self, m: int):
        """Basis of the degree-m piece as loop elements."""
        if abs(m) > self.window:
            raise ImvermaError(f"degree {m} outside window {self.window}")
        fin_basis = self.even_basis if m % 2 == 0 else self.odd_basis
        return [self.algebra.loop(x, m) for x in fin_basis]

    def graded_dimension(self, m: int) -> int:
        return len(self.even_basis) if m % 2 == 0 else len(self.odd_basis)

    def _finite_coords(self, x: FiniteElement):
        basis_index = self.algebra.finite.basis_index
        return {basis_index[k]: v for k, v in x.terms.items()}

    def natural_borel_slice_dims(self) -> dict:
        """dim of (fixed-point set  intersect  b_nat) per degree in the window.

        b_nat has n_+ + h at degrees >= 0 and n_+ only at degrees < 0; c and d
        (degree 0) are fixed by the twist and counted there.
        """
        fin = self.algebra.finite
        pos_keys = [("x", g) for g in fin.roots.positive_roots]
        h_keys = [("h", i + 1) for i in range(fin.rank)]
        dims = {}
        for m in range(-self.window, self.window + 1):
            keys = pos_keys + h_keys if m >= 0 else pos_keys
            slice_rows = [{fin.basis_index[k]: 1} for k in keys]
            eig = self.even_basis if m % 2 == 0 else self.odd_basis
            eig_rows = [self._finite_coords(x) for x in eig]
            inter = (len(slice_rows) + len(eig_rows)
                     - rank(slice_rows + eig_rows, fin.dimension))
            dims[m] = inter + (2 if m == 0 else 0)  # c and d at degree 0
        return dims


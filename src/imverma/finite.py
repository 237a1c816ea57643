"""Finite simple Lie algebras from their Cartan matrices.

Roots live in the simple-root coordinate basis (integer tuples); basis keys
are ("h", i) for the simple coroots (1-based) and ("x", gamma) for root
vectors. Structure constants are fixed by the extraspecial-pair convention:
positive roots are totally ordered by (height, lexicographic coordinates),
each non-simple positive root xi picks the special pair (alpha, beta),
alpha + beta = xi, with alpha minimal, and N_{alpha,beta} = p + 1 > 0 where p
is the length of the descending alpha-string through beta. All remaining
constants follow from antisymmetry, N_{-a,-b} = -N_{a,b}, and the two Jacobi
consequences

    a+b+c = 0:      N_{a,b}/(c|c) = N_{b,c}/(a|a) = N_{c,a}/(b|b)
    a+b+c+d = 0:    N_{b,c} N_{a,b+c} + N_{c,a} N_{b,c+a} + N_{a,b} N_{c,a+b} = 0

The quadruple relation fixes the other positive pairs of each xi from
constants of lower height. A positive pair alpha + beta = xi with N =
N_{alpha,beta} then writes its triple (alpha, beta, -xi) in closed form: the
twelve pairs are (alpha, beta), (beta, -xi) and (-xi, alpha), with N,
N (alpha|alpha)/(xi|xi) and N (beta|beta)/(xi|xi), their reverses with the
negated values, and the pairs of the negated triple (-alpha, -beta, xi) with
the negated values again. Everything runs in int arithmetic, each ratio an
exact division. The bracket table holds the nonzero brackets only; a pair of
basis keys it does not hold brackets to zero.

The invariant form is normalized so that (theta|theta) = 2 for the highest
root theta; this is the single normalization point of the whole package (it
makes the affine central term come out in standard level units).

Algebra contexts are immutable after construction and all operations are pure.
The root system keeps the root multisets it has listed, one tuple per sum;
their values do not depend on the order of the calls.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, le, mul, neg, sub

from imverma.cartan import CartanMatrix
from imverma.errors import AutomorphismError, ContextMismatchError, ImvermaError


def root_height(gamma):
    return sum(gamma)


def _neg(gamma):
    return tuple(map(neg, gamma))


def _add(a, b):
    return tuple(map(add, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


def add_scaled(out, terms, scale=1):
    """Add scale * terms into the sparse dict out, in place, and return out.

    A sparse {key: coeff} dict never holds a zero: a sum that cancels removes
    its key. With scale 1 the coefficients are added as they are, without a
    multiplication.
    """
    unit = scale == 1
    for k, v in terms.items():
        w = out.get(k, 0) + (v if unit else scale * v)
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


class SparseCombination:
    """The linear arithmetic of a sparse exact combination {key: coeff}.

    A subclass is a dataclass(eq=False) whose fields are, in order, its
    context (the field named by _context: an algebra or a module), terms, and
    the scalar parts named by _scalars, which add, negate and scale together
    with the terms. Operands must share the context object. Combinations are
    mutable, so they are unhashable.
    """

    __hash__ = None
    _context = "algebra"
    _scalars = ()
    _mismatch = "elements belong to different algebra contexts"

    def _new(self, terms, scalars):
        return type(self)(getattr(self, self._context), terms, *scalars)

    def _scalar_parts(self):
        return [getattr(self, name) for name in self._scalars]

    def __add__(self, other):
        if getattr(self, self._context) is not getattr(other, self._context):
            raise ContextMismatchError(self._mismatch)
        scalars = zip(self._scalar_parts(), other._scalar_parts())
        return self._new(add_scaled(dict(self.terms), other.terms),
                         [a + b for a, b in scalars])

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()},
                         [-a for a in self._scalar_parts()])

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        terms = {k: scalar * v for k, v in self.terms.items()} if scalar else {}
        return self._new(terms, [scalar * a for a in self._scalar_parts()])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (getattr(self, self._context) is getattr(other, self._context)
                and self.terms == other.terms
                and self._scalar_parts() == other._scalar_parts())

    def is_zero(self):
        return not self.terms and not any(self._scalar_parts())


class FiniteRootSystem:
    """Root system generated from a Cartan matrix by root strings."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        n = cartan.rank
        self.simple_roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        # the pairings (gamma(h_1), ..., gamma(h_n)) of each positive root,
        # added up along the walk: alpha_i(h_j) = a_ji
        simple_pairings = list(zip(*cartan.entries))
        pos = self._pairings = dict(zip(self.simple_roots, simple_pairings))
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for i, alpha in enumerate(self.simple_roots):
                    if beta == alpha:
                        continue  # 2*alpha is never a root
                    # every root of lower height than beta is in pos already
                    if _string_down(pos, alpha, beta) - pos[beta][i] > 0:
                        cand = _add(beta, alpha)
                        if cand not in pos:
                            pos[cand] = _add(pos[beta], simple_pairings[i])
                            nxt.append(cand)
            frontier = nxt
        self.positive_roots = sorted(pos, key=lambda g: (root_height(g), g))
        self.positive_set = frozenset(pos)
        self.root_set = self.positive_set | frozenset(_neg(g) for g in pos)
        # unique: make_cartan_matrix admits connected Dynkin diagrams only
        self.theta = self.positive_roots[-1]
        self._place = {g: i for i, g in enumerate(self.positive_roots)}
        self._multisets = {tuple([0] * n): ((),)}

    def pairing(self, gamma, i):
        """gamma(h_{i+1}) = sum_j c_j a_{i j} (0-based i)."""
        return sum(map(mul, gamma, self.cartan.entries[i]))

    def root_multisets(self, s):
        """Kostant's partitions of s: the multisets of positive roots with
        sum s, tuples in positive_roots order, listed once and kept. Those at
        s are those at s - gamma followed by each gamma <= s that comes no
        earlier than their last root. Every t with 0 <= t <= s is such an
        s - gamma - gamma' - ..., since the simple roots are positive, so the
        box is filled in lexicographic order, where each t - gamma comes
        before t, and no recursion grows with ht(s)."""
        memo = self._multisets
        s = tuple(s)
        if s not in memo:
            for t in product(*(range(x + 1) for x in s)):
                if t not in memo:
                    memo[t] = tuple(
                        m + (gamma,) for i, gamma in enumerate(self.positive_roots)
                        if all(map(le, gamma, t)) for m in memo[_sub(t, gamma)]
                        if not m or self._place[m[-1]] <= i)
        return memo[s]


def _string_down(roots, alpha, beta):
    """The descending string: max k with beta - k*alpha in roots."""
    p = 0
    walk = _sub(beta, alpha)
    while walk in roots:
        p += 1
        walk = _sub(walk, alpha)
    return p


def _exact(num, den, what):
    """num / den in int arithmetic; a remainder raises: what is non-integral."""
    q, r = divmod(num, den)
    if r:
        raise ImvermaError(f"non-integral {what}")
    return q


_BOOTSTRAP = "structure constant; extraspecial bootstrap failed"


def _structure_constants(rs: FiniteRootSystem, norm):
    """N_{a,b} for every root pair with a+b a root, the extraspecial pairs,
    and the root-vector brackets {(("x", a), ("x", b)): {("x", a+b): N_{a,b}}}.

    norm[g] is (g|g) for every positive root g under any fixed multiple of
    the invariant form; only ratios of root norms enter. Positive roots xi
    are taken in order: the extraspecial pair of xi gets p + 1, its other
    positive pairs follow from Jacobi on constants of lower height, and each
    positive pair then writes the twelve pairs of its triple in closed form.
    The whole bootstrap runs in int arithmetic: each ratio is an exact
    division, and a remainder means the extraspecial bootstrap failed.
    """
    pos = rs.positive_roots
    order = rs._place
    height = [root_height(g) for g in pos]
    full = {}
    brackets = {}
    extraspecial = {}
    for k, xi in enumerate(pos):
        specials = []
        for alpha, h in zip(pos, height):
            if 2 * h > height[k]:
                break  # then beta = xi - alpha is lower than alpha
            beta = _sub(xi, alpha)
            if beta in rs.positive_set and order[alpha] < order[beta]:
                specials.append((alpha, beta))
        if not specials:
            continue  # a simple root
        a1, b1 = specials[0]  # alpha minimal in the order: extraspecial
        n0 = _string_down(rs.root_set, a1, b1) + 1
        extraspecial[xi] = (a1, b1)
        values = [n0]
        for alpha, beta in specials[1:]:
            # Jacobi on the quadruple (a1, b1, -alpha, -beta); every factor is
            # a constant of a triple of lower height, or zero
            na = _neg(alpha)
            t1 = full.get((b1, na), 0) * full.get((a1, _sub(b1, alpha)), 0)
            t2 = full.get((na, a1), 0) * full.get((b1, _sub(a1, alpha)), 0)
            values.append(_exact(-norm[xi] * (t1 + t2), norm[beta] * n0, _BOOTSTRAP))
        nxi = _neg(xi)
        for (alpha, beta), n in zip(specials, values):
            # (a, b, c) sums to zero: N_{b,c} = N_{a,b} (a|a)/(c|c) and
            # N_{c,a} = N_{a,b} (b|b)/(c|c); the negated triple negates them
            p = _exact(n * norm[alpha], norm[xi], _BOOTSTRAP)
            q = _exact(n * norm[beta], norm[xi], _BOOTSTRAP)
            tri, neg_tri = (alpha, beta, nxi), (_neg(alpha), _neg(beta), xi)
            for sign, (a, b, c), (na, nb, nc) in ((1, tri, neg_tri), (-1, neg_tri, tri)):
                for u, v, w, m in ((a, b, nc, n), (b, c, na, p), (c, a, nb, q)):
                    m *= sign
                    xu, xv, xw = ("x", u), ("x", v), ("x", w)
                    full[(u, v)] = m
                    full[(v, u)] = -m
                    brackets[(xu, xv)] = {xw: m}
                    brackets[(xv, xu)] = {xw: -m}
    return full, extraspecial, brackets


@dataclass(eq=False)
class FiniteElement(SparseCombination):
    """Sparse rational combination of basis keys of one algebra context."""

    algebra: "FiniteAlgebra"
    terms: dict = field(default_factory=dict)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=self.algebra.basis_index.__getitem__):
            bits.append(f"{self.terms[k]}*{key_name(k)}")
        return " + ".join(bits)


def key_name(key):
    if key[0] == "h":
        return f"h{key[1]}"
    gamma = key[1]
    return "x[" + ",".join(str(c) for c in gamma) + "]"


class FiniteAlgebra:
    """Immutable context: root system, Chevalley basis, bracket and form tables."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        self.roots = FiniteRootSystem(cartan)
        rs = self.roots

        d = cartan.symmetrizer
        # (g|g) = sum_i g_i d_i g(h_i) under the form d_i a_ij
        norm = {g: sum(map(mul, g, map(mul, d, p))) for g, p in rs._pairings.items()}
        self.form_scale = Fraction(2, norm[rs.theta])

        self.nmat, self.extraspecial, table = _structure_constants(rs, norm)

        self.basis = [("h", i + 1) for i in range(self.rank)]
        self.basis += [("x", g) for g in rs.positive_roots]
        self.basis += [("x", _neg(g)) for g in rs.positive_roots]
        self.basis_index = {k: i for i, k in enumerate(self.basis)}
        self.dimension = len(self.basis)

        # [k1, k2] as {basis key: int} for the nonzero brackets only, from the
        # root data: nmat, the pairings and the coroots
        self._bracket_table = table
        self._coroot = {}
        hs = self.basis[:self.rank]
        for g, pairs in rs._pairings.items():
            # h_g = sum_i g_i (alpha_i|alpha_i)/(g|g) h_i, (alpha_i|alpha_i) = 2 d_i
            coroot = tuple(_exact(2 * c * di, norm[g], "coroot; not a root system")
                           for c, di in zip(g, d))
            ng = _neg(g)
            self._coroot[g], self._coroot[ng] = coroot, _neg(coroot)
            x, y = ("x", g), ("x", ng)
            table[(x, y)] = {h: c for h, c in zip(hs, coroot) if c}
            table[(y, x)] = {h: -c for h, c in zip(hs, coroot) if c}
            for h, c in zip(hs, pairs):
                if c:
                    table[(h, x)], table[(x, h)] = {x: c}, {x: -c}
                    table[(h, y)], table[(y, h)] = {y: -c}, {y: c}

    # -- element constructors ------------------------------------------------

    def zero(self):
        return FiniteElement(self, {})

    def element(self, terms):
        clean = {}
        for k, v in terms.items():
            if k not in self.basis_index:
                raise ImvermaError(f"unknown basis key {k!r}")
            v = Fraction(v)
            if v:
                clean[k] = v
        return FiniteElement(self, clean)

    def h(self, i):
        return self.element({("h", i): 1})

    def e(self, i):
        return self.element({("x", self.roots.simple_roots[i - 1]): 1})

    def f(self, i):
        return self.element({("x", _neg(self.roots.simple_roots[i - 1])): 1})

    def root_vector(self, gamma):
        gamma = tuple(gamma)
        if gamma not in self.roots.root_set:
            raise ImvermaError(f"{gamma} is not a root")
        return self.element({("x", gamma): 1})

    def coroot(self, gamma):
        """h_gamma as a FiniteElement (the element [x_gamma, x_{-gamma}])."""
        return self.element({("h", i + 1): c for i, c in enumerate(self._coroot[tuple(gamma)])})

    # -- bracket ---------------------------------------------------------------

    def bracket(self, x: FiniteElement, y: FiniteElement) -> FiniteElement:
        if x.algebra is not self or y.algebra is not self:
            raise ContextMismatchError("bracket operands from a different algebra context")
        out = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                image = self._bracket_table.get((k1, k2))
                if image:
                    add_scaled(out, image, c1 * c2)
        return FiniteElement(self, out)

    # -- invariant form ----------------------------------------------------------

    def root_form(self, a, b):
        """Invariant form on the root space, normalized to (theta|theta) = 2:
        form_scale * sum_i d_i a_i b(h_i), the sum behind the int root norms."""
        return self.form_scale * sum(
            di * ai * self.roots.pairing(b, i)
            for i, (di, ai) in enumerate(zip(self.cartan.symmetrizer, a)))

    def form_keys(self, k1, k2):
        """The invariant form on two basis keys; on (h_i, h_j) the closed form of
        4 (alpha_i|alpha_j) / ((alpha_i|alpha_i)(alpha_j|alpha_j)), a_ij / (d_j form_scale)."""
        t1, v1 = k1
        t2, v2 = k2
        if t1 == "h" and t2 == "h":
            return self.cartan[v1 - 1, v2 - 1] / (
                self.cartan.symmetrizer[v2 - 1] * self.form_scale)
        if t1 == "h" or t2 == "h":
            return Fraction(0)
        if v1 == _neg(v2):
            return Fraction(2) / self.root_form(v1, v1)
        return Fraction(0)

    def form(self, x: FiniteElement, y: FiniteElement) -> Fraction:
        if x.algebra is not self or y.algebra is not self:
            raise ContextMismatchError("form operands from a different algebra context")
        total = Fraction(0)
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                total += c1 * c2 * self.form_keys(k1, k2)
        return total

    def __repr__(self):
        label = self.cartan.label or f"rank-{self.rank}"
        return f"FiniteAlgebra({label}, dim={self.dimension})"


def build_simple_algebra(cartan: CartanMatrix) -> FiniteAlgebra:
    """Build the algebra context from a Cartan matrix."""
    return FiniteAlgebra(cartan)


def _extend_by_extraspecial(algebra, images, bracket, combine):
    """Extend images, a map given on the e_i, f_i and h_i keys, in place to
    every root vector key: x_xi maps to [x_a, x_b] / N_{a,b} over the
    extraspecial pair (a, b) of xi, and x_{-xi} over (-a, -b), in order of
    height. bracket(u, v) brackets two images; combine(terms) sums c * u over
    the (u, c) terms."""
    for g in algebra.roots.positive_roots:
        if root_height(g) > 1:
            a1, b1 = algebra.extraspecial[g]
            for root, a, b in ((g, a1, b1), (_neg(g), _neg(a1), _neg(b1))):
                images[("x", root)] = combine(
                    [(bracket(images[("x", a)], images[("x", b)]),
                      Fraction(1, algebra.nmat[(a, b)]))])


def _broken_bracket(algebra, images, bracket, combine):
    """The first pair of basis keys (k1, k2) whose images do not bracket to
    the image of [k1, k2], or None; bracket and combine as above."""
    for k1 in algebra.basis:
        for k2 in algebra.basis:
            want = combine((images[k], c)
                           for k, c in algebra._bracket_table.get((k1, k2), {}).items())
            if bracket(images[k1], images[k2]) != want:
                return k1, k2
    return None


class DiagramAutomorphism:
    """Automorphism induced by a Dynkin-diagram symmetry.

    perm is a dict that maps 1-based node i to perm[i]. The map sends e_i,
    f_i and h_i to e_perm[i], f_perm[i] and h_perm[i], and is extended to
    every root vector through the extraspecial pairs
    (_extend_by_extraspecial), so every x_gamma maps to
    sign * x_{sigma(gamma)}. The construction verifies the bracket table.
    """

    def __init__(self, algebra: FiniteAlgebra, perm: dict):
        self.algebra = algebra
        n = algebra.rank
        self.perm = dict(perm)
        if sorted(self.perm) != list(range(1, n + 1)) or \
                sorted(self.perm.values()) != list(range(1, n + 1)):
            raise AutomorphismError("permutation must be a bijection of 1..N")
        a = algebra.cartan
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if a[self.perm[i] - 1, self.perm[j] - 1] != a[i - 1, j - 1]:
                    raise AutomorphismError(
                        f"permutation is not a diagram symmetry at (i,j)=({i},{j})")
        self.order = self._perm_order()
        if self.order > 2:
            raise AutomorphismError(
                f"diagram automorphism of order {self.order} is not supported (order 3 "
                "twists are out of scope; only order 1 and 2)")
        images = {("h", i): algebra.element({("h", j): 1}) for i, j in self.perm.items()}
        for g in algebra.roots.simple_roots:
            for root in (g, _neg(g)):
                images[("x", root)] = algebra.element({("x", self.root_image(root)): 1})

        def combine(terms):
            return sum((c * u for u, c in terms), FiniteElement(algebra, {}))

        _extend_by_extraspecial(algebra, images, algebra.bracket, combine)
        # each image must be a unit multiple of x_{sigma(gamma)}
        self._sign = {}
        for g in algebra.roots.root_set:
            s = images[("x", g)].terms.get(("x", self.root_image(g)))
            if s not in (1, -1):
                raise ImvermaError("automorphism sign is not a unit; bootstrap failed")
            self._sign[g] = int(s)
        broken = _broken_bracket(algebra, images, algebra.bracket, combine)
        if broken:
            raise AutomorphismError("induced map fails to preserve "
                                    f"[{key_name(broken[0])}, {key_name(broken[1])}]")

    def _perm_order(self):
        order = 1
        cur = dict(self.perm)
        while any(cur[i] != i for i in cur):
            cur = {i: self.perm[cur[i]] for i in cur}
            order += 1
        return order

    def root_image(self, gamma):
        out = [0] * self.algebra.rank
        for i, c in enumerate(gamma):
            out[self.perm[i + 1] - 1] = c
        return tuple(out)

    def image_key(self, key):
        """(sign, image basis key)."""
        if key[0] == "h":
            return 1, ("h", self.perm[key[1]])
        gamma = key[1]
        return self._sign[gamma], ("x", self.root_image(gamma))

    def apply(self, x: FiniteElement) -> FiniteElement:
        if x.algebra is not self.algebra:
            raise ContextMismatchError("element from a different algebra context")
        out = {}
        for k, c in x.terms.items():
            s, k2 = self.image_key(k)
            add_scaled(out, {k2: c}, s)
        return FiniteElement(self.algebra, out)

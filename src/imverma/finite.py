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

The invariant form is normalized so that (theta|theta) = 2 for the highest
root theta; this is the single normalization point of the whole package (it
makes the affine central term come out in standard level units).

Algebra contexts are immutable after construction and all operations are pure.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from imverma.cartan import CartanMatrix, make_cartan_matrix
from imverma.errors import AutomorphismError, ContextMismatchError, ImvermaError


def root_height(gamma):
    return sum(gamma)


def _neg(gamma):
    return tuple(-x for x in gamma)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


class FiniteRootSystem:
    """Root system generated from a Cartan matrix by root strings."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        n = cartan.rank
        self.simple_roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        pos = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(n):
                    alpha = self.simple_roots[i]
                    if beta == alpha:
                        continue  # 2*alpha is never a root
                    # descending string: p = max k with beta - k*alpha a root
                    p = 0
                    walk = _sub(beta, alpha)
                    while walk in pos:
                        p += 1
                        walk = _sub(walk, alpha)
                    pairing = sum(c * cartan[i, j] for j, c in enumerate(beta))
                    if p - pairing > 0:
                        cand = _add(beta, alpha)
                        if cand not in pos:
                            pos.add(cand)
                            nxt.append(cand)
            frontier = nxt
        self.positive_roots = sorted(pos, key=lambda g: (root_height(g), g))
        self.positive_set = frozenset(pos)
        self.root_set = frozenset(pos) | frozenset(_neg(g) for g in pos)
        self.theta = self.positive_roots[-1]
        top = [g for g in pos if root_height(g) == root_height(self.theta)]
        if len(top) != 1:
            raise ImvermaError("no unique highest root; matrix is not irreducible simple type")

    def pairing(self, gamma, i):
        """gamma(h_{i+1}) = sum_j c_j a_{i j} (0-based i)."""
        return sum(c * self.cartan[i, j] for j, c in enumerate(gamma))

    def string_down_length(self, alpha, beta):
        """p = max k with beta - k*alpha a root (alpha, beta roots)."""
        p = 0
        walk = _sub(beta, alpha)
        while walk in self.root_set:
            p += 1
            walk = _sub(walk, alpha)
        return p


def _structure_constants(rs: FiniteRootSystem, d_form):
    """Full N_{a,b} lookup for all root pairs with a+b a root.

    d_form(a, b) is any fixed multiple of the invariant form on the root
    space; only ratios of root norms enter the relations.
    """
    pos = rs.positive_roots
    order = {g: i for i, g in enumerate(pos)}
    table = {}
    extraspecial = {}

    def norm(g):
        return d_form(g, g)

    def lookup(a, b):
        # zero whenever the pair does not bracket to a root vector; non-root
        # arguments appear in vanishing Jacobi terms and must short-circuit
        if a not in rs.root_set or b not in rs.root_set:
            return 0
        s = _add(a, b)
        if s not in rs.root_set:
            return 0
        apos, bpos = a in rs.positive_set, b in rs.positive_set
        if apos and bpos:
            return table[(a, b)]
        if not apos and not bpos:
            return -lookup(_neg(a), _neg(b))
        if not apos:
            return -lookup(b, a)
        # a positive, b negative
        beta = _neg(b)
        if s in rs.positive_set:
            # (b, a, -s) sums to zero and s + beta = a
            return -Fraction(norm(s), norm(a)) * lookup(beta, s)
        sigma = _neg(s)  # positive, a + sigma = beta
        return -Fraction(norm(sigma), norm(beta)) * lookup(a, sigma)

    for xi in pos:
        if root_height(xi) < 2:
            continue
        specials = []
        for alpha in pos:
            if order[alpha] >= order[xi]:
                break
            beta = _sub(xi, alpha)
            if beta in rs.positive_set and order[alpha] < order[beta]:
                specials.append((alpha, beta))
        a1, b1 = specials[0]  # alpha minimal in the order: extraspecial
        n0 = rs.string_down_length(a1, b1) + 1
        table[(a1, b1)] = Fraction(n0)
        table[(b1, a1)] = Fraction(-n0)
        extraspecial[xi] = (a1, b1)
        for alpha, beta in specials[1:]:
            # Jacobi on the quadruple (a1, b1, -alpha, -beta)
            t1 = lookup(b1, _neg(alpha)) * lookup(a1, _sub(b1, alpha))
            t2 = lookup(_neg(alpha), a1) * lookup(b1, _sub(a1, alpha))
            val = -Fraction(norm(xi), norm(beta)) * (t1 + t2) / n0
            table[(alpha, beta)] = val
            table[(beta, alpha)] = -val

    full = {}
    for a in rs.root_set:
        for b in rs.root_set:
            s = _add(a, b)
            if s in rs.root_set:
                v = lookup(a, b)
                if v.denominator != 1:
                    raise ImvermaError("non-integral structure constant; "
                                       "extraspecial bootstrap failed")
                full[(a, b)] = int(v)
    return full, extraspecial


@dataclass
class FiniteElement:
    """Sparse rational combination of basis keys of one algebra context."""

    algebra: "FiniteAlgebra"
    terms: dict = field(default_factory=dict)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ContextMismatchError("elements belong to different algebra contexts")

    def __add__(self, other):
        self._check(other)
        return FiniteElement(self.algebra, add_scaled(dict(self.terms), other.terms))

    def __neg__(self):
        return FiniteElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return FiniteElement(self.algebra, {})
        return FiniteElement(self.algebra, {k: scalar * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FiniteElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def is_zero(self):
        return not self.terms

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
        self._d_root_form = lambda a, b: sum(
            d[i] * cartan[i, j] * a[i] * b[j]
            for i in range(self.rank) for j in range(self.rank)
        )
        theta_norm = self._d_root_form(rs.theta, rs.theta)
        self.form_scale = Fraction(2, theta_norm)

        self.nmat, self.extraspecial = _structure_constants(rs, self._d_root_form)

        self.basis = [("h", i + 1) for i in range(self.rank)]
        self.basis += [("x", g) for g in rs.positive_roots]
        self.basis += [("x", _neg(g)) for g in rs.positive_roots]
        self.basis_index = {k: i for i, k in enumerate(self.basis)}
        self.dimension = len(self.basis)

        self._coroot = {}
        for g in rs.root_set:
            gn = self._d_root_form(g, g)
            coeffs = []
            for i in range(self.rank):
                ai = rs.simple_roots[i]
                c = Fraction(g[i] * self._d_root_form(ai, ai), gn)
                if c.denominator != 1:
                    raise ImvermaError("non-integral coroot; not a root system")
                coeffs.append(int(c))
            self._coroot[g] = tuple(coeffs)

        self._bracket_table = {}
        for k1 in self.basis:
            for k2 in self.basis:
                self._bracket_table[(k1, k2)] = self._bracket_keys(k1, k2)

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

    def _bracket_keys(self, k1, k2):
        """[k1, k2] as {basis key: int}: every structure constant is an integer."""
        t1, v1 = k1
        t2, v2 = k2
        if t1 == "h" and t2 == "h":
            return {}
        if t1 == "h":
            c = self.roots.pairing(v2, v1 - 1)
            return {k2: c} if c else {}
        if t2 == "h":
            c = self.roots.pairing(v1, v2 - 1)
            return {k1: -c} if c else {}
        s = _add(v1, v2)
        if all(x == 0 for x in s):
            return {("h", i + 1): c for i, c in enumerate(self._coroot[v1]) if c}
        if s in self.roots.root_set:
            n = self.nmat[(v1, v2)]
            return {("x", s): n} if n else {}
        return {}

    def bracket(self, x: FiniteElement, y: FiniteElement) -> FiniteElement:
        if x.algebra is not self or y.algebra is not self:
            raise ContextMismatchError("bracket operands from a different algebra context")
        out = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                image = self._bracket_table[(k1, k2)]
                if image:
                    add_scaled(out, image, c1 * c2)
        return FiniteElement(self, out)

    # -- invariant form ----------------------------------------------------------

    def root_form(self, a, b):
        """Invariant form on the root space, normalized to (theta|theta) = 2."""
        return self.form_scale * self._d_root_form(a, b)

    def form_keys(self, k1, k2):
        t1, v1 = k1
        t2, v2 = k2
        if t1 == "h" and t2 == "h":
            a = self.roots.simple_roots[v1 - 1]
            b = self.roots.simple_roots[v2 - 1]
            return Fraction(4) * self.root_form(a, b) / (
                self.root_form(a, a) * self.root_form(b, b))
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


def build_simple_algebra(cartan) -> FiniteAlgebra:
    """Build the algebra context from a Cartan matrix (or raw entries)."""
    if not isinstance(cartan, CartanMatrix):
        cartan = make_cartan_matrix(cartan)
    return FiniteAlgebra(cartan)


def bracket_finite(x: FiniteElement, y: FiniteElement) -> FiniteElement:
    return x.algebra.bracket(x, y)


def invariant_form(x: FiniteElement, y: FiniteElement) -> Fraction:
    return x.algebra.form(x, y)


class DiagramAutomorphism:
    """Automorphism induced by a Dynkin-diagram symmetry.

    perm maps 1-based node i to perm[i]; images of non-simple root vectors are
    computed through the extraspecial decomposition, so every x_gamma maps to
    sign * x_{sigma(gamma)}. The construction verifies the bracket table.
    """

    def __init__(self, algebra: FiniteAlgebra, perm: dict):
        self.algebra = algebra
        n = algebra.rank
        self.perm = {int(i): int(perm[i]) for i in perm} if isinstance(perm, dict) \
            else {i + 1: perm[i] for i in range(len(perm))}
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
        self._sign = {}
        self._build_signs()
        self._verify()

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

    def _sign_of(self, gamma):
        if gamma in self._sign:
            return self._sign[gamma]
        rs = self.algebra.roots
        pos = gamma in rs.positive_set
        base = gamma if pos else _neg(gamma)
        a1, b1 = self.algebra.extraspecial[base]
        if not pos:
            a1, b1 = _neg(a1), _neg(b1)
        n_here = self.algebra.nmat[(a1, b1)]
        n_image = self.algebra.nmat[(self.root_image(a1), self.root_image(b1))]
        s = self._sign_of(a1) * self._sign_of(b1) * Fraction(n_image, n_here)
        if s not in (1, -1):
            raise ImvermaError("automorphism sign is not a unit; bootstrap failed")
        self._sign[gamma] = int(s)
        return self._sign[gamma]

    def _build_signs(self):
        rs = self.algebra.roots
        for g in rs.simple_roots:
            self._sign[g] = 1
            self._sign[_neg(g)] = 1
        for g in rs.positive_roots:
            self._sign_of(g)
            self._sign_of(_neg(g))

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

    def _verify(self):
        alg = self.algebra
        for k1 in alg.basis:
            x = alg.element({k1: 1})
            for k2 in alg.basis:
                y = alg.element({k2: 1})
                if self.apply(alg.bracket(x, y)) != alg.bracket(self.apply(x), self.apply(y)):
                    raise AutomorphismError(
                        f"induced map fails to preserve [{key_name(k1)}, {key_name(k2)}]")

    def matrix(self):
        """Column j = coefficients of the image of basis element j."""
        alg = self.algebra
        n = alg.dimension
        m = [[Fraction(0)] * n for _ in range(n)]
        for j, key in enumerate(alg.basis):
            s, k2 = self.image_key(key)
            m[alg.basis_index[k2]][j] = Fraction(s)
        return m


def diagram_automorphism(algebra: FiniteAlgebra, perm) -> DiagramAutomorphism:
    return DiagramAutomorphism(algebra, perm)

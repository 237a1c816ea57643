"""Imaginary Verma modules and their reduced quotients, exactly, on windows.

M(lambda) is the quotient of the enveloping algebra by the left ideal
generated by the positive loop generators e_i (x) t^k, the raising Cartan
loops h_i (x) t^l (l > 0), and h_i - lambda(h_i), c - lambda(c),
d - lambda(d). Its PBW basis consists of monomials in

    F(gamma, n) = x_{-gamma} (x) t^n   (gamma a positive root, n in Z)
    B(i, l)     = h_i (x) t^{-l}       (l > 0)

applied to the highest-weight vector. The reduced module (lambda(c) = 0 only)
additionally kills every h_i (x) t^l with l != 0, leaving F-monomials alone.

Canonical PBW order: B-symbols before F-symbols, then root height, then root
coordinates lexicographically, then loop degree ascending. Any total order
works; this one is fixed so vectors have a unique written form.

A monomial's weight offset from lambda is (k, s): weight = lambda + k*delta
- sum_i s_i alpha_i, where F(gamma, n) contributes (n, gamma) and B(i, l)
contributes (-l, 0).

All weight spaces with s != 0 are infinite dimensional; every enumeration is
over a TruncationWindow (max length L, max per-factor |loop degree| N, max
height H) and is exact on that slice. act() itself is exact and uncapped: it
grows the output rather than truncating, and a per-factor degree cap may be
supplied to detect (not silently absorb) window escapes.

Coefficients are exact int | Fraction. Straightening (_prepend, _act_key)
works with the integer Chevalley structure constants, so it stays in int
arithmetic; lambda enters only on the highest-weight vector (_act_vacuum) and
through the central and d terms of act.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from imverma._kernels import Echelon
from imverma.affine import AffineAlgebra, LoopElement
from imverma.errors import ContextMismatchError, ImvermaError, WindowOverflowError
from imverma.finite import _neg, add_scaled, root_height


@dataclass(frozen=True)
class Weight:
    """A functional on h_1..h_N, c, d with exact rational values."""

    h_values: tuple
    c_value: Fraction = Fraction(0)
    d_value: Fraction = Fraction(0)

    @staticmethod
    def make(h_values, c=0, d=0):
        return Weight(tuple(Fraction(x) for x in h_values), Fraction(c), Fraction(d))

    @property
    def rank(self):
        return len(self.h_values)

    def is_reduced_admissible(self) -> bool:
        """lambda(c) = 0 and no lambda(h_i) a non-negative integer."""
        if self.c_value != 0:
            return False
        return all(v.denominator != 1 or v < 0 for v in self.h_values)

    def __repr__(self):
        hs = ",".join(f"h{i+1}={v}" for i, v in enumerate(self.h_values))
        return f"Weight({hs},c={self.c_value},d={self.d_value})"


def parse_weight(text, rank) -> Weight:
    """Parse "h1=-1/2,h2=0,c=0,d=0"; unassigned entries default to 0."""
    h = [Fraction(0)] * rank
    c = Fraction(0)
    d = Fraction(0)
    text = text.strip()
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            try:
                value = Fraction(val.strip())
            except (ValueError, ZeroDivisionError):
                raise ImvermaError(f"malformed weight assignment {part!r}") from None
            if key == "c":
                c = value
            elif key == "d":
                d = value
            elif key.startswith("h") and key[1:].isdigit() and 1 <= int(key[1:]) <= rank:
                h[int(key[1:]) - 1] = value
            else:
                raise ImvermaError(f"unknown weight key {key!r} (rank {rank})")
    return Weight(tuple(h), c, d)


@dataclass(frozen=True)
class TruncationWindow:
    """L = max monomial length, N = max per-factor |loop degree|, H = max height."""

    L: int
    N: int
    H: int

    def __post_init__(self):
        if self.L <= 0 or self.N <= 0 or self.H <= 0:
            raise ImvermaError("window caps must be positive")


def parse_window(text) -> TruncationWindow:
    """Parse "L=8,N=6,H=4"."""
    vals = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key.strip().upper() not in ("L", "N", "H") or not val:
            raise ImvermaError(f"malformed window component {part!r}")
        try:
            vals[key.strip().upper()] = int(val)
        except ValueError:
            raise ImvermaError(f"malformed window component {part!r}") from None
    if set(vals) != {"L", "N", "H"}:
        raise ImvermaError("window must assign L, N and H")
    return TruncationWindow(vals["L"], vals["N"], vals["H"])


# -- PBW symbols -----------------------------------------------------------------
#
# ("B", i, l): h_i (x) t^{-l}, l > 0       ("F", gamma, n): x_{-gamma} (x) t^n


def symbol_sort_key(sym):
    if sym[0] == "B":
        return (0, 0, (sym[1],), sym[2])
    _, gamma, n = sym
    return (1, root_height(gamma), gamma, n)


def monomial_offset(mono, rank):
    k = 0
    s = [0] * rank
    for sym in mono:
        if sym[0] == "B":
            k -= sym[2]
        else:
            k += sym[2]
            for i, ci in enumerate(sym[1]):
                s[i] += ci
    return (k, tuple(s))


def monomial_name(mono):
    if not mono:
        return "v"
    bits = []
    for sym in mono:
        if sym[0] == "B":
            bits.append(f"B({sym[1]},{sym[2]})")
        else:
            g = ",".join(str(x) for x in sym[1])
            bits.append(f"F([{g}],{sym[2]})")
    return "*".join(bits) + "*v"


@dataclass
class ModuleVector:
    """Sparse exact (int | Fraction) combination of PBW monomials in one
    Verma module."""

    module: "VermaModule"
    terms: dict = field(default_factory=dict)

    def _check(self, other):
        if self.module is not other.module:
            raise ContextMismatchError("vectors from different modules")

    def __add__(self, other):
        self._check(other)
        return ModuleVector(self.module, add_scaled(dict(self.terms), other.terms))

    def __neg__(self):
        return ModuleVector(self.module, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return ModuleVector(self.module, {})
        return ModuleVector(self.module, {k: scalar * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.module is other.module and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def weight_offset(self):
        """(k, s) if homogeneous, else None."""
        offs = {monomial_offset(m, self.module.rank) for m in self.terms}
        if len(offs) == 1:
            return offs.pop()
        return None

    def max_factor_degree(self):
        worst = 0
        for mono in self.terms:
            for sym in mono:
                worst = max(worst, sym[2] if sym[0] == "B" else abs(sym[2]))
        return worst

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: tuple(symbol_sort_key(s) for s in m)):
            bits.append(f"{self.terms[mono]}*{monomial_name(mono)}")
        return " + ".join(bits)


class VermaModule:
    """M(lambda), or the reduced quotient when reduced=True (needs lambda(c)=0)."""

    def __init__(self, algebra: AffineAlgebra, lam: Weight, reduced: bool = False):
        if lam.rank != algebra.rank:
            raise ImvermaError("weight rank does not match the algebra")
        if reduced and lam.c_value != 0:
            raise ImvermaError("reduced module requires lambda(c) = 0")
        self.algebra = algebra
        self.lam = lam
        self.reduced = reduced
        self.rank = algebra.rank
        self.flags = tuple(
            f"lambda(h{i+1}) is a negative integer; reduced-admissibility of "
            "lower weights is not guaranteed"
            for i, v in enumerate(lam.h_values) if v.denominator == 1 and v < 0
        ) if reduced else ()
        self._act_cache = {}
        self._prepend_cache = {}

    def __repr__(self):
        tag = "reduced " if self.reduced else ""
        return f"<{tag}imaginary Verma module over {self.algebra.finite!r}, {self.lam!r}>"

    # -- vectors ------------------------------------------------------------

    def vacuum(self) -> ModuleVector:
        return ModuleVector(self, {(): Fraction(1)})

    def vector(self, mono_coeffs) -> ModuleVector:
        out = {}
        for mono, cv in mono_coeffs.items():
            mono = tuple(mono)
            keys = [symbol_sort_key(s) for s in mono]
            if keys != sorted(keys):
                raise ImvermaError(f"monomial {mono} is not in canonical order")
            for sym in mono:
                self._validate_symbol(sym)
            cv = Fraction(cv)
            if cv:
                out[mono] = cv
        return ModuleVector(self, out)

    def monomial(self, *symbols) -> ModuleVector:
        return self.vector({tuple(sorted(symbols, key=symbol_sort_key)): 1})

    def _validate_symbol(self, sym):
        if sym[0] == "B":
            if self.reduced:
                raise ImvermaError("B-symbols do not exist in the reduced module")
            if sym[2] <= 0:
                raise ImvermaError(f"B symbol needs l > 0, got {sym}")
            if not 1 <= sym[1] <= self.rank:
                raise ImvermaError(f"B symbol index out of range: {sym}")
        elif sym[0] == "F":
            if sym[1] not in self.algebra.finite.roots.positive_set:
                raise ImvermaError(f"F symbol root {sym[1]} is not a positive root")
        else:
            raise ImvermaError(f"unknown symbol kind {sym!r}")

    def weight_of_offset(self, offset) -> Weight:
        k, s = offset
        lam = self.lam
        rs = self.algebra.finite.roots
        hs = tuple(lam.h_values[i] - rs.pairing(s, i) for i in range(self.rank))
        return Weight(hs, lam.c_value, lam.d_value + k)

    # -- generator action -----------------------------------------------------

    def act(self, g: LoopElement, v: ModuleVector, degree_cap=None) -> ModuleVector:
        """Exact action of a loop element; commutes g past PBW factors.

        With degree_cap set, raises WindowOverflowError (carrying the smallest
        sufficient cap) if any output monomial has a per-factor loop degree
        beyond the cap: results are never silently truncated.
        """
        if g.algebra is not self.algebra:
            raise ContextMismatchError("generator from a different affine context")
        if v.module is not self:
            raise ContextMismatchError("vector from a different module")
        out = {}
        for mono, cv in v.terms.items():
            for (key, n), cg in g.terms.items():
                image = self._act_key(key, n, mono)
                if image:
                    add_scaled(out, image, cv * cg)
            if g.c and self.lam.c_value:
                add_scaled(out, {mono: cv * g.c * self.lam.c_value})
            if g.d:
                k, _ = monomial_offset(mono, self.rank)
                val = self.lam.d_value + k
                if val:
                    add_scaled(out, {mono: cv * g.d * val})
        result = ModuleVector(self, out)
        if degree_cap is not None:
            worst = result.max_factor_degree()
            if worst > degree_cap:
                raise WindowOverflowError(
                    f"action output needs per-factor degree window {worst}, "
                    f"cap was {degree_cap}", required=worst)
        return result

    def _act_key(self, key, n, mono):
        ck = (key, n, mono)
        hit = self._act_cache.get(ck)
        if hit is not None:
            return hit
        if not mono:
            out = self._act_vacuum(key, n)
        else:
            out = {}
            head, rest = mono[0], mono[1:]
            for m2, c2 in self._act_key(key, n, rest).items():
                add_scaled(out, self._prepend(head, m2), c2)
            for (k2, n2), c in self._symbol_bracket_loop(key, n, head):
                add_scaled(out, self._act_key(k2, n2, rest), c)
        self._act_cache[ck] = out
        return out

    def _act_vacuum(self, key, n):
        lam = self.lam
        if key == "__c__":
            return {(): lam.c_value} if lam.c_value else {}
        if key[0] == "h":
            if n == 0:
                val = lam.h_values[key[1] - 1]
                return {(): val} if val else {}
            if self.reduced or n > 0:
                return {}
            return {(("B", key[1], -n),): 1}
        gamma = key[1]
        if gamma in self.algebra.finite.roots.positive_set:
            return {}
        return {(("F", _neg(gamma), n),): 1}

    def _symbol_bracket_loop(self, key, n, sym):
        """[key (x) t^n, symbol] as a list of ((key2, n2), coeff) loop terms.

        A central term is encoded under the sentinel key "__c__"; it commutes
        past everything and evaluates to lambda(c) on the vacuum.
        """
        if key == "__c__":
            return []
        fin = self.algebra.finite
        if sym[0] == "B":
            other = ("h", sym[1]), -sym[2]
        else:
            other = ("x", _neg(sym[1])), sym[2]
        (k2, n2) = other
        pairs = []
        for k, c in fin._bracket_table[(key, k2)].items():
            pairs.append(((k, n + n2), c))
        if n == -n2 and n != 0:
            cf = fin.form_keys(key, k2)
            if cf and self.lam.c_value:
                pairs.append((("__c__", 0), n * cf))
        return pairs

    def _prepend(self, sym, mono):
        ck = (sym, mono)
        hit = self._prepend_cache.get(ck)
        if hit is not None:
            return hit
        if not mono or symbol_sort_key(sym) <= symbol_sort_key(mono[0]):
            out = {(sym,) + mono: 1}
        else:
            out = {}
            head, rest = mono[0], mono[1:]
            for m2, c2 in self._prepend(sym, rest).items():
                add_scaled(out, self._prepend(head, m2), c2)
            br = _negative_symbol_bracket(self.algebra.finite, sym, head)
            if br is not None:
                sym2, coeff = br
                if sym2[0] == "B" and self.reduced:
                    pass  # h_i (x) t^{l}, l != 0 is zero in the reduced quotient
                else:
                    add_scaled(out, self._prepend(sym2, rest), coeff)
        self._prepend_cache[ck] = out
        return out

    # -- enumeration ------------------------------------------------------------

    def basis_monomials(self, offset, window: TruncationWindow):
        """All PBW monomials of the given (k, s) offset inside the window.

        k = None aggregates over every delta-degree the window can reach (the
        weight spaces over a fixed h*-weight, all d-eigenvalues at once).
        """
        k, s = offset
        s = tuple(s)
        if any(x < 0 for x in s):
            return []
        if root_height(s) > window.H:
            raise WindowOverflowError(
                f"offset height {root_height(s)} exceeds window H={window.H}",
                required=root_height(s))
        out = []
        for multiset in _root_multisets(self.algebra.finite, s):
            flen = len(multiset)
            if flen > window.L:
                continue
            groups = []
            i = 0
            while i < len(multiset):
                j = i
                while j < len(multiset) and multiset[j] == multiset[i]:
                    j += 1
                groups.append((multiset[i], j - i))
                i = j
            max_b_len = window.L - flen
            if self.reduced:
                b_parts = [((), 0)]
            else:
                # the F degrees reach at most flen*N in absolute value, so the
                # B total is confined to a window around -k
                if k is None:
                    lo, hi = 0, window.N * max_b_len
                else:
                    lo = max(0, -k - flen * window.N)
                    hi = min(window.N * max_b_len, -k + flen * window.N)
                if hi < lo:
                    continue
                b_parts = list(_b_multisets(self.rank, window.N, max_b_len, lo, hi))
            for b_mono, b_total in b_parts:
                target = None if k is None else k + b_total
                for f_sym_groups in _degree_assignments(groups, target, window.N):
                    mono = tuple(b_mono) + f_sym_groups
                    out.append(mono)
        return sorted(out, key=lambda m: tuple(symbol_sort_key(s2) for s2 in m))

    def weight_dim(self, offset, window: TruncationWindow) -> int:
        """Exact count of PBW monomials at the offset inside the window.

        For pure-delta offsets (k <= 0, s = 0) the count is stable once both
        N and L reach |k|: it equals the rank-colored partition number of |k|
        in the unreduced module.
        """
        return len(self.basis_monomials(offset, window))

    # -- singular vectors ----------------------------------------------------------

    def annihilator_generators(self, window: TruncationWindow):
        """e_{i,m} for |m| <= N, plus h_{i,l} (0 < l <= N) in the unreduced case."""
        gens = []
        for i in range(1, self.rank + 1):
            for m in range(-window.N, window.N + 1):
                gens.append((f"e{i}@{m}", self.algebra.e(i, m)))
        if not self.reduced:
            for i in range(1, self.rank + 1):
                for l in range(1, window.N + 1):
                    gens.append((f"h{i}@{l}", self.algebra.h(i, l)))
        return gens

    def singular_vectors(self, offsets, window: TruncationWindow):
        """Basis of the joint kernel of all windowed raising operators.

        Returns a list of (offset, ModuleVector) pairs; the kernel is computed
        weight space by weight space with exact rational elimination. Each
        raising operator's rows (one per image monomial) go to the echelon as
        one batch, in annihilator_generators order; once every basis monomial
        has a pivot the kernel is empty and no further operator is applied.
        The reduced row echelon form is unique, so the basis is the one that
        elimination over every operator's rows gives.
        """
        gens = self.annihilator_generators(window)
        found = []
        spaces = {}
        for offset in offsets:
            for mono in self.basis_monomials(offset, window):
                exact = monomial_offset(mono, self.rank)
                spaces.setdefault(exact, set()).add(mono)
        for exact in sorted(spaces):
            basis = sorted(spaces[exact],
                           key=lambda m: tuple(symbol_sort_key(s2) for s2 in m))
            echelon = Echelon(len(basis))
            for _, g in gens:
                if echelon.full:
                    break
                rows = {}
                for j, mono in enumerate(basis):
                    image = self.act(g, ModuleVector(self, {mono: 1}))
                    for m2, c2 in image.terms.items():
                        rows.setdefault(m2, {})[j] = c2
                echelon.feed(list(rows.values()))
            for vec in echelon.nullspace():
                terms = {basis[j]: x for j, x in vec.items()}
                found.append((exact, ModuleVector(self, terms)))
        return found

    def nilpotency_degree(self, v: ModuleVector, i, n, cap=16):
        """Least p with e_{i,n}^p v = 0, or None when the cap is exceeded."""
        if v.module is not self:
            raise ContextMismatchError("vector from a different module")
        g = self.algebra.e(i, n)
        w = v
        p = 0
        while not w.is_zero():
            w = self.act(g, w)
            p += 1
            if p > cap:
                return None
        return p


def _negative_symbol_bracket(fin, s1, s2):
    """[s1, s2] of two negative-side symbols: one symbol with a coefficient.

    B-B pairs commute; B-F rescales the F loop degree; F-F may produce another
    F. No central terms arise among negative symbols.
    """
    if s1[0] == "B" and s2[0] == "B":
        return None
    if s1[0] == "B":
        i, l = s1[1], s1[2]
        gamma, n = s2[1], s2[2]
        c = -fin.roots.pairing(gamma, i - 1)
        return (("F", gamma, n - l), c) if c else None
    if s2[0] == "B":
        res = _negative_symbol_bracket(fin, s2, s1)
        if res is None:
            return None
        sym, c = res
        return (sym, -c)
    g1, n1 = s1[1], s1[2]
    g2, n2 = s2[1], s2[2]
    total = tuple(a + b for a, b in zip(g1, g2))
    if total not in fin.roots.positive_set:
        return None
    n = fin.nmat[(_neg(g1), _neg(g2))]
    return (("F", total, n1 + n2), n) if n else None


def _root_multisets(fin, s):
    """Weakly decreasing multisets of positive roots with coordinate sum s."""
    pos = fin.roots.positive_roots
    out = []

    def rec(idx, remaining, acc):
        if all(x == 0 for x in remaining):
            out.append(tuple(acc))
            return
        if idx >= len(pos):
            return
        gamma = pos[idx]
        if all(r >= g for r, g in zip(remaining, gamma)):
            acc.append(gamma)
            rec(idx, tuple(r - g for r, g in zip(remaining, gamma)), acc)
            acc.pop()
        rec(idx + 1, remaining, acc)

    rec(0, tuple(s), [])
    return out


def _b_multisets(rank, max_l, max_len, total_min, total_max):
    """((B-monomial, total l)) pairs: colored partitions with parts <= max_l
    and total in [total_min, total_max]."""
    parts = [(i, l) for i in range(1, rank + 1) for l in range(1, max_l + 1)]

    def rec(idx, length_left, acc, total):
        if total_min <= total <= total_max:
            yield tuple(acc), total
        if length_left == 0 or total >= total_max:
            return
        for j in range(idx, len(parts)):
            i, l = parts[j]
            if total + l > total_max:
                continue
            acc.append(("B", i, l))
            yield from rec(j, length_left - 1, acc, total + l)
            acc.pop()

    yield from rec(0, max_len, [], 0)


def _degree_assignments(groups, target, max_n):
    """Assign per-factor loop degrees, summing to target unless target is None.

    groups: list of (root, multiplicity); within a group degrees are weakly
    increasing (multiset), each in [-max_n, max_n]. Yields F-symbol tuples in
    canonical member order.
    """
    results = []

    def rec(gidx, remaining, acc):
        if gidx == len(groups):
            if remaining is None or remaining == 0:
                results.append(tuple(acc))
            return
        gamma, mult = groups[gidx]
        # bound pruning: remaining must be achievable by the groups left
        slots_after = sum(m for _, m in groups[gidx + 1:])
        for combo in combinations_with_replacement(range(-max_n, max_n + 1), mult):
            if remaining is None:
                rest = None
            else:
                rest = remaining - sum(combo)
                if abs(rest) > slots_after * max_n:
                    continue
            acc.extend(("F", gamma, n) for n in combo)
            rec(gidx + 1, rest, acc)
            del acc[len(acc) - mult:]

    rec(0, target, [])
    return results

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

Every PBW symbol has s >= 0 coordinatewise, so every monomial does: the
weight spaces with a negative coordinate of s are zero.

All weight spaces with s != 0 are infinite dimensional; every enumeration is
over a TruncationWindow (max length L, max per-factor |loop degree| N, max
height H) and is exact on that slice. The action is exact and uncapped: it
grows the output rather than truncating.

Every windowed space at one finite offset s is reached in one pass over s,
in two twin forms. weight_dims(s, window) counts: it gives the dimension of
every space as the coefficients of a truncated product with one geometric
factor per PBW symbol, and builds no monomial. weight_bases(s, window) lists:
it gives the basis of every space, {k: monomials in canonical order}, which
the singular search and the explicit tables read; basis_monomials reads one
offset (k, s), or all of s, from it. Both read what the window reaches at s
from _reach(s, window), the one place that decides it: the root multisets of
s short enough to fit, or nothing, as for an s higher than L * ht(theta)
(every symbol adds a root no higher than theta, or nothing). The offsets it
reaches are reached_offsets(window), listed by finite_offsets.

Each module interns (hash-conses) its PBW monomials and loop operators
(key, n) as small ints. A PBW symbol is the lowering operator it names, so
its id is that operator's id: a monomial id keeps its tuple, its head
operator id and its rest id. The action has one memo, on these ids:
_act(op, m) is the sparse image {monomial id: int} of the operator op on the
monomial m, times VermaModule.scale = D, the common denominator of
lambda(h_i) and lambda(c), straightened by recursing through head and rest
ids. One memoised bracket, _bracket, read from the integer bracket table,
moves an operator past a symbol and a symbol past a symbol. lambda enters
only on the highest-weight vector, where _act_vacuum returns D times its
value, and each term reaches it once, so every coefficient is an int. The
singular search interns each basis monomial once and feeds these rows as
they are (the row space is the same). A reduced store of the category layer
is built by the module it stores (windowed_store), on ids too, dividing by D
once per coefficient (unscale); it and the search read one landing rule for
an operator's target space (_landing). At the tuple boundary,
act_monomial(key, n, mono) returns one image as a fresh {monomial: int}
dict, and act() sums images (a c part through the operator c), adds the d
part and unscales.

The singular search feeds the raising operators in one order, that of
annihilator_generators: in the module the Cartan loops h_i (x) t^l
(0 < l <= N) come first, then the e_i (x) t^m; the reduced quotient has no
Cartan loop. A Cartan loop kills v, commutes with every B-symbol up to the
central term l (h_i|h_j) lambda(c), and sends F(gamma, n) to
-gamma(h_i) F(gamma, n + l), so its rows are sparse and its images need no
straightening beyond re-sorting. On A1 it acts on the F-part as
multiplication by a power sum, which has no kernel. So the Cartan loops
alone usually bring a space with s != 0 to full column rank, and the search
stops before the first e_i (x) t^m. The order changes no answer: the rank
does not depend on it, and the reduced row echelon form is unique.
"""

import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations_with_replacement, groupby, product
from math import inf, lcm
from operator import add

from imverma._kernels import Echelon
from imverma.affine import AffineAlgebra, LoopElement, gen_name, raising_keys
from imverma.errors import ContextMismatchError, ImvermaError, WindowOverflowError
from imverma.finite import SparseCombination, _neg, _sub, add_scaled, root_height


@dataclass(frozen=True)
class Weight:
    """A functional on h_1..h_N, c, d with exact rational values.

    A weight computes the integer (numerator, denominator) cells of its
    values once, as cells = ((h_1, ..., h_N, c cells), d cell), and hashes
    those. Equality compares the values, so 2/4 and Fraction(1, 2), or 1 and
    Fraction(1), give equal weights with equal hashes.
    """

    h_values: tuple
    c_value: Fraction = Fraction(0)
    d_value: Fraction = Fraction(0)

    def __post_init__(self):
        hc = tuple((q.numerator, q.denominator) for q in (*self.h_values, self.c_value))
        d = self.d_value
        object.__setattr__(self, "cells", (hc, (d.numerator, d.denominator)))

    def __hash__(self):
        return hash(self.cells)

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

    def to_json_dict(self):
        """{"h": [...], "c": ..., "d": ...} in "p/q" strings, read back by make."""
        return {"h": [str(v) for v in self.h_values], "c": str(self.c_value),
                "d": str(self.d_value)}


def parse_weight(text, rank) -> Weight:
    """Parse "h1=-1/2,h2=0,c=0,d=0"; unassigned entries default to 0, and an
    entry assigned twice is an error."""
    values = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            try:
                value = Fraction(val.strip())
            except (ValueError, ZeroDivisionError):
                raise ImvermaError(f"malformed weight assignment {part!r}") from None
            if key in ("c", "d"):
                entry = key
            elif key.startswith("h") and key[1:].isdigit() and 1 <= int(key[1:]) <= rank:
                entry = int(key[1:])
            else:
                raise ImvermaError(f"unknown weight key {key!r} (rank {rank})")
            if entry in values:
                raise ImvermaError(f"weight key {key!r} assigned twice")
            values[entry] = value
    return Weight.make([values.get(i, 0) for i in range(1, rank + 1)],
                       values.get("c", 0), values.get("d", 0))


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
        key = key.strip().upper()
        if key not in ("L", "N", "H") or not val:
            raise ImvermaError(f"malformed window component {part!r}")
        if key in vals:
            raise ImvermaError(f"window component {key} assigned twice")
        try:
            vals[key] = int(val)
        except ValueError:
            raise ImvermaError(f"malformed window component {part!r}") from None
    if set(vals) != {"L", "N", "H"}:
        raise ImvermaError("window must assign L, N and H")
    return TruncationWindow(vals["L"], vals["N"], vals["H"])


# -- PBW symbols -----------------------------------------------------------------
#
# ("B", i, l): h_i (x) t^{-l}, l > 0       ("F", gamma, n): x_{-gamma} (x) t^n


@cache
def symbol_sort_key(sym):
    """The canonical PBW order of one symbol; cached, since a window holds
    few distinct symbols and every sort and straightening step compares them."""
    if sym[0] == "B":
        return (0, 0, (sym[1],), sym[2])
    _, gamma, n = sym
    return (1, root_height(gamma), gamma, n)


def _monomial_sort_key(mono):
    return tuple(map(symbol_sort_key, mono))


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


@dataclass(eq=False)
class ModuleVector(SparseCombination):
    """Sparse exact (int | Fraction) combination of PBW monomials in one
    Verma module."""

    module: "VermaModule"
    terms: dict = field(default_factory=dict)
    _context = "module"
    _mismatch = "vectors from different modules"

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=_monomial_sort_key):
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
        self.scale = lcm(*(v.denominator for v in lam.h_values), lam.c_value.denominator)
        self.flags = tuple(
            f"lambda(h{i+1}) is a negative integer; reduced-admissibility of "
            "lower weights is not guaranteed"
            for i, v in enumerate(lam.h_values) if v.denominator == 1 and v < 0
        ) if reduced else ()
        # interned PBW monomials: id -> tuple, head operator id, rest id; the
        # empty monomial (the highest-weight vector) is id 0
        self._monos = [()]
        self._mono_id = {(): 0}
        self._head = [None]
        self._rest = [None]
        # interned loop operators (key, n): id -> pair, act memo, bracket
        # memo, and the PBW symbol it is (None if none), its sort key and its
        # prepend memo
        self._ops = []
        self._op_id = {}
        self._act_memo = []
        self._bracket_memo = []
        self._syms = []
        self._sym_key = []
        self._prepend_memo = []

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

    def act(self, g: LoopElement, v: ModuleVector) -> ModuleVector:
        """Exact action of a loop element: the act_monomial images of its
        terms on the monomials of v, plus its c and d parts."""
        if g.algebra is not self.algebra:
            raise ContextMismatchError("generator from a different affine context")
        if v.module is not self:
            raise ContextMismatchError("vector from a different module")
        ops = [(self._op(key, n), cg) for (key, n), cg in g.terms.items()]
        if g.c:
            ops.append((self._op("__c__", 0), g.c))
        out = {}  # scale times the image, on monomial ids
        for mono, cv in v.terms.items():
            m = self._intern(mono)
            for op, cg in ops:
                image = self._act(op, m)
                if image:
                    add_scaled(out, image, cv * cg)
            if g.d:
                k, _ = monomial_offset(mono, self.rank)
                val = self.lam.d_value + k
                if val:
                    add_scaled(out, {m: cv * g.d * val * self.scale})
        monos = self._monos
        return ModuleVector(self, {monos[m]: self.unscale(c) for m, c in out.items()})

    def unscale(self, c):
        """c / scale: an int where the quotient is integral, else a Fraction."""
        q, r = divmod(c, self.scale)
        return Fraction(c, self.scale) if r else q

    def act_monomial(self, key, n, mono):
        """scale times the image of key (x) t^n on the PBW monomial mono
        (applied to the highest-weight vector), as a sparse dict
        {monomial: int}: every coefficient is an int whatever lambda is, and
        unscale(c) gives the coefficient of the image itself.

        key is a basis key of the finite algebra, ("h", i) or ("x", gamma),
        or "__c__" for the central element (with n = 0). The image is exact.
        It is read from the one action memo, _act on interned ids, and
        returned as a fresh tuple-keyed dict that the caller may modify.
        """
        image = self._act(self._op(key, n), self._intern(mono))
        monos = self._monos
        return {monos[m]: c for m, c in image.items()}

    # -- interning ------------------------------------------------------------

    def _intern(self, mono):
        """The id of the PBW monomial mono, interned with its head and rest."""
        m = self._mono_id.get(mono)
        if m is None:
            m = self._cons(self._sym(mono[0]), self._intern(mono[1:]))
        return m

    def _cons(self, op, rest):
        """The id of the monomial with head symbol op and rest id rest."""
        mono = (self._syms[op],) + self._monos[rest]
        m = self._mono_id.get(mono)
        if m is None:
            m = self._mono_id[mono] = len(self._monos)
            self._monos.append(mono)
            self._head.append(op)
            self._rest.append(rest)
        return m

    def _sym(self, sym):
        """The operator id of the PBW symbol sym: B(i, l) is h_i (x) t^{-l},
        F(gamma, n) is x_{-gamma} (x) t^n."""
        if sym[0] == "B":
            return self._op(("h", sym[1]), -sym[2])
        return self._op(("x", _neg(sym[1])), sym[2])

    def _op(self, key, n):
        """The id of the loop operator key (x) t^n. A lowering operator is
        the PBW symbol B(i, l) or F(gamma, n) it names, in the reduced module
        too, and keeps that symbol, its sort key and its prepend memo."""
        op = self._op_id.get((key, n))
        if op is None:
            op = self._op_id[(key, n)] = len(self._ops)
            self._ops.append((key, n))
            self._act_memo.append({})
            self._bracket_memo.append({})
            sym = None
            if key[0] == "h" and n < 0:
                sym = ("B", key[1], -n)
            elif key[0] == "x" and key[1] not in self.algebra.finite.roots.positive_set:
                sym = ("F", _neg(key[1]), n)
            self._syms.append(sym)
            self._sym_key.append(sym and symbol_sort_key(sym))
            self._prepend_memo.append(sym and {})
        return op

    # -- straightening on ids ------------------------------------------------

    def _act(self, op, m):
        """act_monomial on ids: scale times the image of the operator op on
        the monomial m, as {monomial id: int}, memoised per op and m. The
        dict returned is the memo entry and must not be modified."""
        memo = self._act_memo[op]
        hit = memo.get(m)
        if hit is not None:
            return hit
        if not m:
            out = self._act_vacuum(op)
        else:
            out = {}
            head, rest = self._head[m], self._rest[m]
            for m2, c2 in self._act(op, rest).items():
                add_scaled(out, self._prepend(head, m2), c2)
            for op2, c in self._bracket(op, head):
                add_scaled(out, self._act(op2, rest), c)
        memo[m] = out
        return out

    def _act_vacuum(self, op):
        """scale times op on v: a symbol creates itself, but a B-symbol kills
        v in the reduced quotient; h_i (x) t^0 and c give their scalars;
        anything else kills v."""
        sym = self._syms[op]
        if sym is not None and not (self.reduced and sym[0] == "B"):
            return {self._cons(op, 0): self.scale}
        key, n = self._ops[op]
        if key == "__c__":
            val = self.lam.c_value
        elif key[0] == "h" and n == 0:
            val = self.lam.h_values[key[1] - 1]
        else:
            return {}
        return {0: int(self.scale * val)} if val else {}

    def _bracket(self, op, op2):
        """[op, op2] as a tuple of (operator id, coeff) loop terms from the
        bracket table, memoised per op and op2; op2 is a PBW symbol.

        A central term is encoded under the sentinel key "__c__"; it commutes
        past everything and evaluates to lambda(c) on the vacuum, so it is
        left out when lambda(c) = 0. Its coefficient n (key|key2) is an int.
        Two symbols have none, so their bracket is one symbol or nothing.
        """
        memo = self._bracket_memo[op]
        hit = memo.get(op2)
        if hit is not None:
            return hit
        key, n = self._ops[op]
        if key == "__c__":
            pairs = ()
        else:
            k2, n2 = self._ops[op2]
            fin = self.algebra.finite
            pairs = [(self._op(k, n + n2), c)
                     for k, c in fin._bracket_table.get((key, k2), {}).items()]
            if n == -n2 and n != 0 and self.lam.c_value:
                cf = fin.form_keys(key, k2)
                if cf:
                    pairs.append((self._op("__c__", 0), int(n * cf)))
            pairs = tuple(pairs)
        memo[op2] = pairs
        return pairs

    def _prepend(self, sym, m):
        """The symbol sym times the monomial m, straightened: {monomial id:
        int}, memoised per sym and m; a swap adds the _bracket of the two."""
        memo = self._prepend_memo[sym]
        hit = memo.get(m)
        if hit is not None:
            return hit
        if not m or self._sym_key[sym] <= self._sym_key[self._head[m]]:
            out = {self._cons(sym, m): 1}
        else:
            out = {}
            head, rest = self._head[m], self._rest[m]
            for m2, c2 in self._prepend(sym, rest).items():
                add_scaled(out, self._prepend(head, m2), c2)
            for op, c in self._bracket(sym, head):
                add_scaled(out, self._prepend(op, rest), c)
        memo[m] = out
        return out

    # -- enumeration ------------------------------------------------------------

    def basis_monomials(self, offset, window: TruncationWindow):
        """All PBW monomials of the given (k, s) offset inside the window, in
        canonical PBW order (sorted by the symbol_sort_key sequence), each
        once: weight_bases(s, window)[k].

        k = None aggregates over every delta-degree the window can reach (the
        weight spaces over a fixed h*-weight, all d-eigenvalues at once): the
        bases of weight_bases(s, window) together, in canonical order.
        """
        k, s = offset
        bases = self.weight_bases(s, window)
        if k is not None:
            return bases.get(k, [])
        return sorted((m for basis in bases.values() for m in basis),
                      key=_monomial_sort_key)

    def weight_bases(self, s, window: TruncationWindow):
        """{k: basis} for every nonzero windowed space at the finite offset s:
        the PBW monomials of offset (k, s) inside the window, in canonical
        order, listed in one pass; the listing twin of weight_dims.

        A monomial is a B-part followed by an F-part. The F-parts of a
        multiset of f <= L roots from _reach take one degree tuple in [-N, N]
        per run of equal roots, weakly increasing (a multiset of degrees);
        the B-parts are the multisets of at most L - f symbols B(i, l),
        l <= N (only the empty one in the reduced module). A monomial files
        under k = F total - B total. Each part's sort key is built once, and
        the sort keys of distinct monomials differ, so the monomials are
        never compared. Where _reach finds no monomial there is no space, and
        where it raises WindowOverflowError so does this.
        """
        reach = self._reach(s, window)
        if reach is None:
            return {}
        L, N, multisets = reach
        # b_parts[j]: (sort key, B-part, B total) of the B-parts of j symbols
        colours = [] if self.reduced else \
            [("B", i, l) for i in range(1, self.rank + 1) for l in range(1, N + 1)]
        b_parts = [[(_monomial_sort_key(b), b, sum(sym[2] for sym in b))
                    for b in combinations_with_replacement(colours, j)]
                   for j in range(L + 1)]
        degrees = range(-N, N + 1)
        keyed = {}
        for multiset in multisets:
            runs = [(gamma, len(list(run))) for gamma, run in groupby(multiset)]
            f_parts = []
            for choice in product(*(combinations_with_replacement(degrees, m)
                                    for _, m in runs)):
                mono = tuple(("F", gamma, n) for (gamma, _), ns in zip(runs, choice)
                             for n in ns)
                f_parts.append((_monomial_sort_key(mono), mono,
                                sum(map(sum, choice))))
            for j in range(L - len(multiset) + 1):
                for b_key, b_mono, b_total in b_parts[j]:
                    for f_key, f_mono, f_total in f_parts:
                        keyed.setdefault(f_total - b_total, []).append(
                            (b_key + f_key, b_mono + f_mono))
        bases = {}
        for k, pairs in keyed.items():
            pairs.sort()
            bases[k] = [mono for _, mono in pairs]
        return bases

    def weight_dims(self, s, window: TruncationWindow):
        """{k: dim} for every nonzero windowed space at the finite offset s:
        dim is the number of PBW monomials of offset (k, s) inside the window,
        len(weight_bases(s, window)[k]), counted without building one.

        A monomial is a B-part followed by an F-part. The F-parts of a
        multiset of f <= L roots from _reach are its degree tuples in
        [-N, N], weakly increasing over each run of equal roots: a run of m
        equal roots has as many tuples of degree sum t as there are
        multisets of m values in [0, 2N] with sum t + m*N, and the runs are
        convolved. The B-parts are the rank-coloured partitions with parts
        at most N and at most L - f parts (only the empty one in the reduced
        module). A monomial files under k = F total - B total. Like
        weight_bases, it reads _reach: no space where that finds no
        monomial, and WindowOverflowError where that raises it.
        """
        reach = self._reach(s, window)
        if reach is None:
            return {}
        L, N, multisets = reach
        # root multisets whose runs of equal roots have the same lengths have
        # the same F-part counts (equal roots are adjacent in a multiset)
        shapes = Counter(tuple(sorted(len(list(run)) for _, run in groupby(m)))
                         for m in multisets)
        # degree_runs[m][t]: runs of m equal roots with degree sum t - m*N; a
        # run is no longer than its multiset, which has at most ht(s) roots
        degree_runs = _multiset_counts(range(2 * N + 1), min(L, root_height(s)))
        # b_parts[j][b]: the B-parts with at most j parts and total b
        if self.reduced:
            b_parts = [[1]] * (L + 1)
        else:
            colours = [l for _ in range(self.rank) for l in range(1, N + 1)]
            b_parts = list(accumulate(_multiset_counts(colours, L),
                                      lambda a, b: list(map(add, a, b))))
        dims = {}
        for runs, times in shapes.items():
            f = sum(runs)
            counts = [times]
            for m in runs:
                counts = _convolve(counts, degree_runs[m])
            b_counts = b_parts[L - f]
            # the product at index i has F total - B total = i - low
            low = f * N + len(b_counts) - 1
            for i, c in enumerate(_convolve(counts, b_counts[::-1])):
                if c:
                    dims[i - low] = dims.get(i - low, 0) + c
        return dims

    def _reach(self, s, window):
        """(L, N, the root multisets of s with at most L roots): the longest
        monomial the window admits at the finite offset s and its degree cap;
        or None where no windowed monomial has offset s.

        An s with a negative coordinate has none. An s higher than window.H,
        or an unreduced L * N past the largest index of the B-part tables,
        raises WindowOverflowError. An s higher than L * ht(theta) is the sum
        of no L roots, so it has none, and its multisets are never listed. A
        reduced monomial has only its at most ht(s) F-symbols, so its L is
        min(L, ht(s)); an unreduced one may add any number of B-symbols.
        """
        s = tuple(s)
        if min(s) < 0:
            return None
        height = root_height(s)
        if height > window.H:
            raise WindowOverflowError(
                f"offset height {height} exceeds window H={window.H}")
        if not self.reduced and window.L * window.N >= sys.maxsize:
            raise WindowOverflowError(
                f"window L={window.L} is too long to enumerate with N={window.N} "
                "in the unreduced module")
        if height > window.L * root_height(self.algebra.theta):
            return None
        L = min(window.L, height) if self.reduced else window.L
        return L, window.N, (m for m in self.algebra.finite.roots.root_multisets(s)
                             if len(m) <= L)

    def reached_offsets(self, window: TruncationWindow):
        """The finite offsets s, lexicographic, at which the window may hold
        a monomial: s >= 0 no higher than window.H or L * ht(theta)."""
        top = window.L * root_height(self.algebra.theta)
        return finite_offsets(self.rank, min(window.H, top))

    def weight_dim(self, offset, window: TruncationWindow) -> int:
        """Exact count of PBW monomials at the offset (k, s) inside the
        window, read from weight_dims(s, window); k = None sums over every k.

        For pure-delta offsets (k <= 0, s = 0) the count is stable once both
        N and L reach |k|: it equals the rank-colored partition number of |k|
        in the unreduced module.
        """
        k, s = offset
        dims = self.weight_dims(s, window)
        return sum(dims.values()) if k is None else dims.get(k, 0)

    # -- singular vectors ----------------------------------------------------------

    def annihilator_generators(self, window: TruncationWindow):
        """The windowed raising operators as (name, loop element): in the
        unreduced module h_{i,l} (0 < l <= N) first, then e_{i,m} for
        |m| <= N; in the reduced one only the e_{i,m}. Each list is in
        (i, l) or (i, m) order. The Cartan loops go first because their
        images are the cheapest and they are almost always injective where
        s != 0 (see the module docstring); singular_vectors feeds its
        batches in this order."""
        alg = self.algebra
        return [(gen_name(alg, key, n), alg.loop(alg.finite.element({key: 1}), n))
                for key, n in self._raising_operators(window)]

    def _raising_operators(self, window):
        """The annihilator_generators as (key, n), each the single term
        key (x) t^n with coefficient 1, in the same order."""
        cartan = [] if self.reduced else [
            (("h", i), l) for i in range(1, self.rank + 1) for l in range(1, window.N + 1)]
        return cartan + raising_keys(self.algebra, range(-window.N, window.N + 1))

    def singular_vectors(self, offsets, window: TruncationWindow):
        """Basis of the joint kernel of all windowed raising operators.

        offsets are (k, s) pairs, k = None for every k at s; each weight
        space they name is solved once, on its basis from weight_bases.
        Returns a list of (offset, ModuleVector) pairs sorted by offset; the
        kernel is computed weight space by weight space with exact rational
        elimination. Each raising operator's rows (one per image monomial,
        from the int _act images of the interned basis monomials, scale times
        the true ones) go to the echelon as one batch, in
        annihilator_generators order: in the module the Cartan loops
        h_{i,l} first, whose sparse rows usually reach full rank on their
        own where s != 0, then the e_{i,m}. Two kinds of operator are not
        applied:

        - once every basis monomial has a pivot, the kernel is empty and no
          further operator is applied;
        - an operator whose target space is zero by weight (_landing). So
          e_i (x) t^n is skipped where s_i = 0, and at s = alpha_i
          (h_i (x) t^l at s = 0) unless k + n = 0 in the reduced quotient,
          or k + n <= 0 in the module.

        Skipped operators would have fed no row or none that changes the
        echelon, and the reduced row echelon form is unique, so the basis is
        the one that elimination over every operator's rows gives.
        """
        ops = [(key, n, self._op(key, n)) for key, n in self._raising_operators(window)]
        live = {}  # s -> (lo, hi, n, op) of the ops whose targets can be nonzero
        found = []
        asked = {}  # s -> the k asked for there, None for every k
        for k, s in offsets:
            asked.setdefault(tuple(s), set()).add(k)
        spaces = sorted(((k, s), basis) for s, ks in asked.items()
                        for k, basis in self.weight_bases(s, window).items()
                        if None in ks or k in ks)
        for exact, basis in spaces:
            ids = [self._intern(mono) for mono in basis]
            echelon = Echelon(len(basis))
            k, s = exact
            if s not in live:
                live[s] = []
                for key, n, op in ops:
                    _, lo, hi = self._landing(key, s)
                    if lo <= hi:
                        live[s].append((lo, hi, n, op))
            for lo, hi, n, op in live[s]:
                if echelon.full:
                    break
                if not lo <= k + n <= hi:
                    continue
                rows = {}
                for j, m in enumerate(ids):
                    for m2, c2 in self._act(op, m).items():
                        rows.setdefault(m2, {})[j] = c2
                echelon.feed(list(rows.values()))
            for vec in echelon.nullspace():
                terms = {basis[j]: x for j, x in vec.items()}
                found.append((exact, ModuleVector(self, terms)))
        return found

    def _landing(self, key, s):
        """(s - gamma, lo, hi) for the finite key of a loop operator: key (x)
        t^n, with gamma its root (0 for h_i), maps the space at (k, s) into
        the one at (k + n, s - gamma), which is zero unless lo <= k + n <= hi
        (nonzero_degrees). The one landing rule of the singular search and of
        windowed_store."""
        ts = _sub(s, key[1]) if key[0] == "x" else s
        return (ts,) + nonzero_degrees(ts, self.reduced)

    # -- the windowed store ----------------------------------------------------

    def windowed_store(self, kmax, window: TruncationWindow, keys):
        """(spaces, defined): the spaces of windowed_spaces(self, kmax,
        window), and the exact tables of the loop generators keys, (key, n)
        each, on them: {gkey: {space index: block}}. Column j of a block is
        the unscaled image of basis monomial j, {target coordinate: value};
        a pair is stored only when every image stays inside the store.

        Each pair of the reduced module is first decided from where it lands
        (_landing). Into a zero space it is a defined zero. A lowering
        generator x_{-gamma} (x) t^n into a space not stored is undefined:
        the reduced module is free of rank one over U(n_- (x) C[t, t^-1]),
        which has no zero divisors, so every basis vector has a nonzero
        image, and it lies outside the store. Only the other pairs act, on
        the interned basis (_act); a raising generator or a Cartan loop into
        a space not stored still acts, since it can kill a vector.
        """
        spaces = list(windowed_spaces(self, kmax, window))
        off_index = {off: widx for widx, (off, _, _) in enumerate(spaces)}
        ids = [[self._intern(m) for m in basis] for _, _, basis in spaces]
        mono_index = {m: (widx, j) for widx, space in enumerate(ids)
                      for j, m in enumerate(space)}
        positive = self.algebra.finite.roots.positive_set
        landed = {}  # finite key -> per space: _landing at its s
        defined = {}
        for gkey in keys:
            key, n = gkey
            op = self._op(key, n)
            per_src = defined[gkey] = {}
            if key not in landed:
                landed[key] = [self._landing(key, s) for (_, s), _, _ in spaces]
            lowering = key[0] == "x" and key[1] not in positive
            for widx, (((k, _), _, _), (ts, lo, hi)) in enumerate(zip(spaces, landed[key])):
                if not lo <= k + n <= hi:
                    per_src[widx] = {}
                    continue
                want = off_index.get((k + n, ts))
                if want is None and lowering:
                    continue
                block = {}
                ok = True
                for j, m in enumerate(ids[widx]):
                    column = {}
                    for m2, c2 in self._act(op, m).items():
                        hit = mono_index.get(m2)
                        if hit is None:
                            ok = False
                            break
                        if hit[0] != want:
                            raise ImvermaError("weight bookkeeping mismatch")
                        column[hit[1]] = self.unscale(c2)
                    if not ok:
                        break
                    if column:
                        block[j] = column
                if ok:
                    per_src[widx] = block
        return spaces, defined


def nonzero_degrees(s, reduced):
    """(lo, hi): the weight space at offset (k, s) is zero in every window,
    in the module (reduced=False) or in its reduced quotient, unless
    lo <= k <= hi. The bounds may be infinite, and lo > hi when every space
    at s is zero.

    Every PBW symbol adds a positive root to s or nothing, so the spaces are
    zero when s has a negative coordinate. A monomial with s = 0 has no
    F-symbol: it is the empty one, at k = 0, or in the module a product of
    B-symbols, at k < 0.
    """
    if min(s) < 0:
        return (1, 0)
    if any(s):
        return (-inf, inf)
    return (0, 0) if reduced else (-inf, 0)


def windowed_spaces(verma: VermaModule, kmax, window: TruncationWindow):
    """((k, s), weight, PBW basis) of each nonzero windowed weight space
    lambda + k delta - s of a Verma module, ht(s) <= window.H and |k| <= kmax,
    in order of s (lexicographic), then k; an s beyond the window's reach
    (VermaModule.reached_offsets) is not listed."""
    for s in verma.reached_offsets(window):
        bases = verma.weight_bases(s, window)
        for k in range(-kmax, kmax + 1):
            if k in bases:
                yield (k, s), verma.weight_of_offset((k, s)), bases[k]


def finite_offsets(rank, height):
    """Non-negative integer rank-tuples with sum <= height, lexicographic."""
    out = [()]
    for _ in range(rank):
        out = [v + (x,) for v in out for x in range(height - sum(v) + 1)]
    return out


def _multiset_counts(values, max_len):
    """table[j][t]: the number of multisets of j entries of values (equal
    values at two positions count as two colours) with sum t, for
    j <= max_len; every row has length max_len * max(values) + 1."""
    top = max_len * max(values)
    table = [[0] * (top + 1) for _ in range(max_len + 1)]
    table[0][0] = 1
    for v in values:
        # with v used any number of times: row j gains row j - 1 shifted by
        # v, and row j - 1 already holds the multisets that use v
        for j in range(1, max_len + 1):
            prev, row = table[j - 1], table[j]
            for t in range(v, top + 1):
                row[t] += prev[t - v]
    return table


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out

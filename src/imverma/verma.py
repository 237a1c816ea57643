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
it gives the basis of every space, {k: monomials in canonical order};
basis_monomials reads one offset (k, s), or all of s, from it. Both read what
the window reaches at s from _reach(s, window), the one place that decides
it: the root multisets of s short enough to fit, or nothing, as for an s
higher than L * ht(theta) (every symbol adds a root no higher than theta, or
nothing). The offsets it reaches are reached_offsets(window).

Each module hash-conses its loop operators and PBW monomials as small ints.
An operator key (x) t^n is keyed by the index of key in the finite basis and
n; a PBW symbol is the lowering operator it names, so its id is that
operator's id. A monomial is consed right to left on the int pair (head
operator id, rest id) (_cons), and its tuple is built only when asked for
(_mono): for a report, a label or act_monomial. _weight_ids lists each
basis as ids, which the singular search and the reduced store
(windowed_store) read; weight_bases is its tuple view. The action has one
memo, on ids: _act(op, m) is the sparse image {monomial id: int} of op on m
times VermaModule.scale = D, the common denominator of lambda(h_i) and
lambda(c), straightened by recursing through head and rest ids. One
memoised bracket, _bracket, moves an operator past a symbol and a symbol
past a symbol; a miss reads the finite bracket of the two basis indices,
kept once met. lambda enters only on the highest-weight vector, where
_act_vacuum returns D times its value, and each term reaches it once, so
every coefficient is an int. The search feeds these rows as they are (the
row space is the same); the store divides by D once per coefficient
(unscale); both read one landing rule for an operator's target space
(_landing). act_monomial(key, n, mono) returns one image as a fresh
{monomial: int} dict, and act() sums those images (a c part through the
operator c), adds the d part and unscales.

The singular search feeds the raising operators in the order of
annihilator_generators: in the module the Cartan loops h_i (x) t^l
(0 < l <= N) first, then the e_i (x) t^m. A Cartan loop kills v, commutes
with every B-symbol up to the central term l (h_i|h_j) lambda(c), and sends
F(gamma, n) to -gamma(h_i) F(gamma, n + l): its rows are sparse, and on A1 it
acts on the F-part as multiplication by a power sum, which has no kernel. So
the Cartan loops alone usually bring a space with s != 0 to full column
rank, and the search stops before the first e_i (x) t^m. The order changes
no answer: the reduced row echelon form is unique.
"""

import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, groupby
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


def symbol_sort_key(sym):
    """The canonical PBW order of one symbol. A module keeps each operator's
    key once, in _sym_key; this is read by input validation and tuple sorts."""
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
        # interned PBW monomials: id -> head operator id, rest id, and tuple
        # (None until _mono builds it); the empty monomial (v) is id 0
        self._head, self._rest, self._monos = [None], [None], [()]
        # interned loop operators key (x) t^n, keyed by the index i of key in
        # the finite basis (c is one past it) and n: per i, {n: id}; per id,
        # (i, n), act memo, bracket memo, and the PBW symbol it is (None if
        # none), its sort key, its prepend memo and its cons memo {rest: id}
        self._keys = algebra.finite.basis + ["__c__"]
        self._index = {key: i for i, key in enumerate(self._keys)}
        self._op_of = [{} for _ in self._keys]
        self._ops, self._act_memo, self._bracket_memo = [], [], []
        self._syms, self._sym_key, self._prepend_memo, self._cons_memo = [], [], [], []
        # the finite brackets met: i * len(_keys) + j -> ((index, int), ...)
        self._fin_bracket = {}

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
        terms and of its c part on the monomials of v, plus its d part."""
        if g.algebra is not self.algebra:
            raise ContextMismatchError("generator from a different affine context")
        if v.module is not self:
            raise ContextMismatchError("vector from a different module")
        terms = list(g.terms.items())
        if g.c:
            terms.append((("__c__", 0), g.c))
        out = {}  # scale times the image
        for mono, cv in v.terms.items():
            for (key, n), cg in terms:
                add_scaled(out, self.act_monomial(key, n, mono), cv * cg)
            if g.d:
                k, _ = monomial_offset(mono, self.rank)
                add_scaled(out, {mono: cv * g.d * (self.lam.d_value + k) * self.scale})
        return ModuleVector(self, {m: self.unscale(c) for m, c in out.items()})

    def unscale(self, c):
        """c / scale: an int where the quotient is integral, else a Fraction."""
        q, r = divmod(c, self.scale)
        return Fraction(c, self.scale) if r else q

    def act_monomial(self, key, n, mono):
        """scale times the image of key (x) t^n on the PBW monomial mono
        (applied to v), as a fresh {monomial: int} dict that the caller may
        modify: unscale(c) is the coefficient of the image itself. key is a
        finite basis key, ("h", i) or ("x", gamma), or "__c__" for c (with
        n = 0). It is read from the one action memo, _act on interned ids.
        """
        image = self._act(self._op(self._index[key], n), self._intern(mono))
        return {self._mono(m): c for m, c in image.items()}

    # -- interning ------------------------------------------------------------

    def _intern(self, mono):
        """The id of the PBW monomial mono, consed right to left."""
        m = 0
        for sym in reversed(mono):
            m = self._cons(self._sym(sym), m)
        return m

    def _cons(self, op, rest):
        """The id of the monomial with head symbol op and rest id rest,
        hash-consed on the int pair."""
        memo = self._cons_memo[op]
        m = memo.get(rest)
        if m is None:
            m = memo[rest] = len(self._head)
            self._head.append(op)
            self._rest.append(rest)
            self._monos.append(None)
        return m

    def _mono(self, m):
        """The tuple of the monomial m, built the first time it is asked for."""
        mono = self._monos[m]
        if mono is None:
            mono = self._monos[m] = (self._syms[self._head[m]],) + self._mono(self._rest[m])
        return mono

    def _sym(self, sym):
        """The operator id of the PBW symbol sym: B(i, l) is h_i (x) t^{-l},
        F(gamma, n) is x_{-gamma} (x) t^n."""
        if sym[0] == "B":
            return self._op(self._index[("h", sym[1])], -sym[2])
        return self._op(self._index[("x", _neg(sym[1]))], sym[2])

    def _op(self, i, n):
        """The id of the loop operator key (x) t^n, key = _keys[i]. A lowering
        operator is the PBW symbol B(i, l) or F(gamma, n) it names, in the
        reduced module too, and keeps that symbol and its memos."""
        ops = self._op_of[i]
        op = ops.get(n)
        if op is None:
            op = ops[n] = len(self._ops)
            self._ops.append((i, n))
            self._act_memo.append({})
            self._bracket_memo.append({})
            key = self._keys[i]
            sym = None
            if key[0] == "h" and n < 0:
                sym = ("B", key[1], -n)
            elif key[0] == "x" and key[1] not in self.algebra.finite.roots.positive_set:
                sym = ("F", _neg(key[1]), n)
            self._syms.append(sym)
            self._sym_key.append(sym and symbol_sort_key(sym))
            self._prepend_memo.append(sym and {})
            self._cons_memo.append(sym and {})
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
        i, n = self._ops[op]
        key = self._keys[i]
        if key == "__c__":
            val = self.lam.c_value
        elif key[0] == "h" and n == 0:
            val = self.lam.h_values[key[1] - 1]
        else:
            return {}
        return {0: int(self.scale * val)} if val else {}

    def _bracket(self, op, op2):
        """[op, op2] as a tuple of (operator id, coeff) loop terms, memoised
        per op and op2; op2 is a PBW symbol. A miss reads the finite bracket
        of the two basis indices, kept in _fin_bracket once met. A central
        term is the operator c; it evaluates to lambda(c) on v, so it is left
        out when lambda(c) = 0, and its coefficient n (key|key2) is an int.
        Two symbols have none, so their bracket is one symbol or nothing.
        """
        memo = self._bracket_memo[op]
        hit = memo.get(op2)
        if hit is not None:
            return hit
        i, n = self._ops[op]
        j, n2 = self._ops[op2]
        keys = self._keys
        if keys[i] == "__c__":
            pairs = ()
        else:
            fin = self.algebra.finite
            ij = i * len(keys) + j
            terms = self._fin_bracket.get(ij)
            if terms is None:
                terms = self._fin_bracket[ij] = tuple(
                    (self._index[k], c)
                    for k, c in fin._bracket_table.get((keys[i], keys[j]), {}).items())
            pairs = [(self._op(t, n + n2), c) for t, c in terms]
            if n == -n2 and n != 0 and self.lam.c_value:
                cf = fin.form_keys(keys[i], keys[j])
                if cf:
                    pairs.append((self._op(self._index["__c__"], 0), int(n * cf)))
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
        canonical PBW order, each once: weight_bases(s, window)[k]. k = None
        aggregates over every delta-degree the window reaches: the bases of
        weight_bases(s, window) together, in canonical order."""
        k, s = offset
        bases = self.weight_bases(s, window)
        if k is not None:
            return bases.get(k, [])
        return sorted((m for basis in bases.values() for m in basis),
                      key=_monomial_sort_key)

    def weight_bases(self, s, window: TruncationWindow):
        """{k: basis} for every nonzero windowed space at the finite offset s:
        the PBW monomials of offset (k, s) inside the window, in canonical
        order, listed in one pass; the listing twin of weight_dims, and the
        tuple view of _weight_ids."""
        return {k: [self._mono(m) for m in ids]
                for k, ids in self._weight_ids(s, window).items()}

    def _weight_ids(self, s, window, kmax=inf):
        """weight_bases on interned ids, for the spaces with |k| <= kmax.

        A monomial is a B-part followed by an F-part. The F-parts of a
        multiset of f <= L roots from _reach take a multiset of degrees in
        [-N, N] per run of equal roots; the B-parts are the multisets of at
        most L - f symbols B(i, l), l <= N (none in the reduced module). A
        monomial has k = its total degree, and is consed only if |k| <= kmax.
        Its sort key is the tuple of its symbols' ranks by _sym_key, distinct
        for distinct monomials. No space where _reach finds no monomial, and
        WindowOverflowError where it raises it.
        """
        reach = self._reach(s, window)
        if reach is None:
            return {}
        L, N, multisets = reach
        multisets = list(multisets)
        index = self._index
        b_ops = [] if self.reduced else [self._op(index[("h", i)], -l) for i in
                                         range(1, self.rank + 1) for l in range(1, N + 1)]
        f_ops = {gamma: [self._op(index[("x", _neg(gamma))], n) for n in range(-N, N + 1)]
                 for gamma in {gamma for multiset in multisets for gamma in multiset}}
        ranked = sorted(b_ops + [op for ops in f_ops.values() for op in ops],
                        key=self._sym_key.__getitem__)
        place = {op: r for r, op in enumerate(ranked)}

        def parts(ops, j):
            """(ranks, operators reversed, degree sum) of each multiset of j ops."""
            return [(tuple(map(place.__getitem__, c)), c[::-1],
                     sum(self._ops[op][1] for op in c))
                    for c in combinations_with_replacement(ops, j)]

        # b_parts[j]: the B-parts of at most j symbols; a B(i, l) has degree -l
        b_parts = list(accumulate(parts(b_ops, j) for j in range(L + 1)))
        cons = self._cons
        keyed = {}
        for multiset in multisets:
            f_parts = [((), (), 0)]
            for gamma, run in groupby(multiset):
                run = parts(f_ops[gamma], len(list(run)))
                f_parts = [(ra + rb, ob + oa, ta + tb)
                           for ra, oa, ta in f_parts for rb, ob, tb in run]
            for b_rank, b_rev, b_total in b_parts[L - len(multiset)]:
                for f_rank, f_rev, f_total in f_parts:
                    k = f_total + b_total
                    if -kmax <= k <= kmax:
                        m = 0
                        for op in f_rev + b_rev:
                            m = cons(op, m)
                        keyed.setdefault(k, []).append((b_rank + f_rank, m))
        return {k: [m for _, m in sorted(pairs)] for k, pairs in keyed.items()}

    def weight_dims(self, s, window: TruncationWindow):
        """{k: dim} for every nonzero windowed space at the finite offset s:
        dim is the number of PBW monomials of offset (k, s) inside the window,
        len(weight_bases(s, window)[k]), counted without building one.

        The parts are those of _weight_ids: a run of m equal roots has as
        many degree tuples of sum t as there are multisets of m values in
        [0, 2N] with sum t + m*N, the runs are convolved, and the B-parts are
        the rank-coloured partitions with parts at most N and at most L - f
        parts. It reads _reach as _weight_ids does.
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
        # b_parts[j][b]: the B-parts with at most j parts and total b; the
        # reduced module has only the empty one
        colours = [] if self.reduced else [l for _ in range(self.rank)
                                           for l in range(1, N + 1)]
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
        At s = 0, k <= 0 the count is stable once N and L reach |k|: the
        rank-colored partition number of |k| in the unreduced module."""
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

        offsets are (k, s) pairs, k = None for every k at s. The search
        takes one finite offset at a time, in the order offsets names them,
        and solves each weight space there once, on its basis of ids, in
        _weight_ids' listing order: at s = 0 of the module, short B-parts
        first, so each image finds its rest's image memoised and the
        recursion stays shallow. Returns (offset, ModuleVector) pairs, sorted
        by offset once at the end, computed with exact elimination. Each raising
        operator's rows (one per image monomial of its int _act images,
        scale times the true ones) go to the echelon as one batch, in
        annihilator_generators order. Two kinds of operator are not applied:

        - once every basis monomial has a pivot, the kernel is empty and no
          further operator is applied;
        - an operator whose target space is zero by weight (_landing). So
          e_i (x) t^n is skipped where s_i = 0, and at s = alpha_i
          (h_i (x) t^l at s = 0) unless k + n = 0 in the reduced quotient,
          or k + n <= 0 in the module.

        Neither changes the echelon, and the reduced row echelon form is
        unique, so the basis is the one elimination over every row gives.
        """
        ops = [(key, n, self._op(self._index[key], n))
               for key, n in self._raising_operators(window)]
        asked = {}  # s -> the k asked for there, None for every k
        for k, s in offsets:
            asked.setdefault(tuple(s), set()).add(k)
        found = []
        for s, ks in asked.items():
            live = []  # (lo, hi, n, op) of the ops whose targets can be nonzero
            for key, n, op in ops:
                _, lo, hi = self._landing(key, s)
                if lo <= hi:
                    live.append((lo, hi, n, op))
            for k, ids in self._weight_ids(s, window).items():
                if None not in ks and k not in ks:
                    continue
                echelon = Echelon(len(ids))
                for lo, hi, n, op in live:
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
                    terms = {self._mono(ids[j]): x for j, x in vec.items()}
                    found.append(((k, s), ModuleVector(self, terms)))
        found.sort(key=lambda pair: pair[0])
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
        """(spaces, defined): ((k, s), weight, PBW basis) of each nonzero
        windowed space with |k| <= kmax, in order of s, then k, listed on ids
        (_weight_ids); and the exact tables of the loop generators keys,
        (key, n) each, on them: {gkey: {space index: block}}. Column j of a
        block is the unscaled image of basis monomial j, {target coordinate:
        value}; a pair is stored only when every image stays in the store.

        A pair is first decided from where it lands (_landing): into a zero
        space it is a defined zero. A lowering generator x_{-gamma} (x) t^n
        into a space not stored is undefined: the reduced module is free of
        rank one over U(n_- (x) C[t, t^-1]), which has no zero divisors, so
        every basis vector has a nonzero image outside the store. The other
        pairs act (_act); a raising generator or a Cartan loop into a space
        not stored still acts, since it can kill a vector.
        """
        spaces = [((k, s), self.weight_of_offset((k, s)), ids)
                  for s in self.reached_offsets(window)
                  for k, ids in sorted(self._weight_ids(s, window, kmax).items())]
        off_index = {off: widx for widx, (off, _, _) in enumerate(spaces)}
        mono_index = {m: (widx, j) for widx, (_, _, space) in enumerate(spaces)
                      for j, m in enumerate(space)}
        positive = self.algebra.finite.roots.positive_set
        landed = {}  # finite key -> per space: _landing at its s
        defined = {}
        for gkey in keys:
            key, n = gkey
            op = self._op(self._index[key], n)
            per_src = defined[gkey] = {}
            if key not in landed:
                landed[key] = [self._landing(key, s) for (_, s), _, _ in spaces]
            lowering = key[0] == "x" and key[1] not in positive
            for widx, (ts, lo, hi) in enumerate(landed[key]):
                (k, _), _, space = spaces[widx]
                if not lo <= k + n <= hi:
                    per_src[widx] = {}
                    continue
                want = off_index.get((k + n, ts))
                if want is None and lowering:
                    continue
                block = {}
                ok = True
                for j, m in enumerate(space):
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
        return [(off, w, [self._mono(m) for m in space])
                for off, w, space in spaces], defined


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


def finite_offsets(rank, height):
    """Non-negative integer rank-tuples with sum <= height, lexicographic."""
    out = [()]
    for _ in range(rank):
        out = [v + (x,) for v in out for x in range(height - sum(v) + 1)]
    return out


def _multiset_counts(values, max_len):
    """table[j][t]: the number of multisets of j entries of values (equal
    values at two positions count as two colours) with sum t, for
    j <= max_len; every row has length max_len * max(values, default=0) + 1."""
    top = max_len * max(values, default=0)
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

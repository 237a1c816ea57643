"""Explicit modules and the torsion / membership / decomposition machinery.

An ExplicitModule is a finite, weight-indexed slice of a module over the loop
algebra: a basis per weight, plus sparse action tables for the loop basis
generators x_gamma (x) t^n and h_i (x) t^n inside a degree window. The table
for a (generator, source weight) pair is stored only when it is exact, i.e.
when every image of the stored basis stays inside the stored basis; all
report-style checks count the undefined pairs they skip instead of guessing.
h_i (x) t^0, d and c act diagonally straight from the weight data.

A block is the only matrix form: a sparse {(target row, source column): v}
dict. Products, sums and scalings stay sparse (_mat_mul, add_scaled). The
exact kernels take and return sparse rows {column: v}; _rows and _block
convert between a block and its rows, and coordinate vectors (torsion and
torsion-free bases) are kept as such rows. The target
weight index of every stored (generator, source) pair is handed to the module
when it is built, so target_index is a lookup: the constructors that derive
tables (from_reduced_verma, direct_sum, scrambled, torsion_free_restriction)
already know each target, and modules built from weight data alone
(from_json_dict, build_loop_module) shift weights to find them. direct_sum
shifts a weight only for a pair whose target no carrying summand holds: that
target can still be a weight of another summand.

Torsion is the joint kernel of the Heisenberg generators h_{i,l} (l != 0),
computed per weight space over the reduced-admissible weights; weight spaces
outside h*_red are reported as excluded (they already violate the
diagonalizability axiom, and torsion candidates in the source theory carry
reduced-admissible weights). The torsion-free part is the span of the
Heisenberg images arriving from neighboring weight spaces.

The decomposition pipeline: torsion basis -> iterated e_{i,0}-power extraction
of vectors annihilated by every windowed e_{j,n} -> summand weights -> exact
dimension audit against windowed reduced Verma dimensions on every stored
weight space. Audit failures are errors, never silently accepted.
"""

import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from imverma._kernels import nullspace, rank, rref
from imverma.affine import AffineAlgebra
from imverma.cartan import cartan_matrix_of_type, make_cartan_matrix
from imverma.errors import AuditError, ImvermaError, ModuleDataError
from imverma.finite import _neg, add_scaled, build_simple_algebra
from imverma.verma import (ModuleVector, TruncationWindow, VermaModule, Weight,
                           monomial_name)


class UndefinedActionError(ModuleDataError):
    """The requested action table entry is outside the stored window."""


# -- generator naming ------------------------------------------------------------


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
        raise ModuleDataError(f"{name[0]} is implicit and has no stored table")
    match = re.fullmatch(GEN_NAME, name)
    if match is None:
        raise ModuleDataError(f"malformed generator name {name!r}")
    kind, index, coords, deg = match.groups()
    n = int(deg)
    if coords is not None:
        return ("x", tuple(int(t) for t in coords.split(","))), n
    i = int(index)
    if not 1 <= i <= algebra.rank:
        raise ModuleDataError(f"generator index out of range in {name!r}")
    if kind == "h":
        return ("h", i), n
    simple = algebra.finite.roots.simple_roots[i - 1]
    return ("x", simple if kind == "e" else _neg(simple)), n


@contextmanager
def _module_field(name):
    """Turn a parse error inside one field of module data into ModuleDataError."""
    try:
        yield
    except KeyError as ex:
        raise ModuleDataError(f"bad module data in {name!r}: missing key {ex}") from None
    except ZeroDivisionError:
        raise ModuleDataError(f"bad module data in {name!r}: zero denominator") from None
    except (AttributeError, IndexError, TypeError, ValueError) as ex:
        raise ModuleDataError(f"bad module data in {name!r}: {ex}") from None


def _index(value, size):
    i = int(value)
    if not 0 <= i < size:
        raise IndexError(f"index {value!r} out of range for {size} entries")
    return i


def _weight_sort_key(w: Weight):
    return (w.d_value, w.h_values, w.c_value)


def weight_shift(algebra: AffineAlgebra, w: Weight, gkey) -> Weight:
    """The weight a generator x (x) t^n or h_i (x) t^n maps weight w to."""
    (kind, val), n = gkey
    if kind == "h":
        return Weight(w.h_values, w.c_value, w.d_value + n)
    rs = algebra.finite.roots
    hs = tuple(w.h_values[i] + rs.pairing(val, i) for i in range(algebra.rank))
    return Weight(hs, w.c_value, w.d_value + n)


def _shifted_targets(algebra, weights, sources):
    """{gkey: {source: index of its shifted weight, or None}} for the given
    {gkey: sources}: the targets of a module known only by its weights."""
    windex = {w: i for i, w in enumerate(weights)}
    return {gk: {s: windex.get(weight_shift(algebra, weights[s], gk)) for s in srcs}
            for gk, srcs in sources.items()}


class ExplicitModule:
    """Windowed weight-module data with exact sparse action tables.

    targets gives {gkey: {source: target weight index or None}} for every
    stored or defined (generator, source) pair, indexed like weights.
    """

    def __init__(self, algebra: AffineAlgebra, weights, labels, blocks, defined,
                 targets, provenance="user-supplied", loop_window=1, meta=None):
        self.algebra = algebra
        order = sorted(range(len(weights)), key=lambda i: _weight_sort_key(weights[i]))
        remap = {old: new for new, old in enumerate(order)}
        self.weights = [weights[i] for i in order]
        self.labels = [list(labels[i]) for i in order]
        self.windex = {w: i for i, w in enumerate(self.weights)}
        if len(self.windex) != len(self.weights):
            raise ModuleDataError("duplicate weights in module data")
        self.blocks = {}
        self.defined = {}
        for gkey, per_src in blocks.items():
            self.blocks[gkey] = {remap[s]: dict(mat) for s, mat in per_src.items()}
        for gkey, srcs in defined.items():
            self.defined[gkey] = {remap[s] for s in srcs}
            self.blocks.setdefault(gkey, {})
        self.targets = {
            gkey: {remap[s]: None if t is None else remap[t]
                   for s, t in targets[gkey].items()}
            for gkey in self.blocks}
        self.provenance = provenance
        self.loop_window = loop_window
        self.meta = meta
        self._starts = []
        total = 0
        for lab in self.labels:
            self._starts.append(total)
            total += len(lab)
        self.total_dim = total

    # -- structure -----------------------------------------------------------

    def dim(self, widx) -> int:
        return len(self.labels[widx])

    def target_index(self, gkey, src_widx):
        """Target weight index of a stored (generator, source) pair, or None."""
        return self.targets[gkey][src_widx]

    def generator_keys(self):
        return sorted(self.blocks, key=lambda gk: (gk[1], str(gk[0])))

    def heisenberg_keys(self, gwindow):
        out = []
        for l in range(-gwindow, gwindow + 1):
            if l == 0:
                continue
            for i in range(1, self.algebra.rank + 1):
                out.append((("h", i), l))
        return out

    # -- action ------------------------------------------------------------------

    def block(self, gkey, src_widx):
        """(sparse block, target index, target dim), or raise if undefined."""
        if src_widx not in self.defined.get(gkey, ()):
            raise UndefinedActionError(
                f"{gen_name(self.algebra, *gkey)} undefined at weight index {src_widx}")
        tgt = self.target_index(gkey, src_widx)
        ntgt = self.dim(tgt) if tgt is not None else 0
        return self.blocks[gkey].get(src_widx, {}), tgt, ntgt

    def apply(self, gkey, vec):
        """Apply a generator to {(widx, i): coeff}; exact or raises."""
        (kind, val), n = gkey
        out = {}
        if kind == "h" and n == 0:
            for (widx, i), cv in vec.items():
                add_scaled(out, {(widx, i): cv}, self.weights[widx].h_values[val - 1])
            return out
        for (widx, i), cv in vec.items():
            if widx not in self.defined.get(gkey, ()):
                raise UndefinedActionError(
                    f"{gen_name(self.algebra, *gkey)} undefined at weight index {widx}")
            tgt = self.target_index(gkey, widx)
            block = self.blocks[gkey].get(widx, {})
            column = {(tgt, r): v for (r, c), v in block.items() if c == i and v}
            add_scaled(out, column, cv)
        return out

    def apply_d(self, vec):
        out = {}
        for (widx, i), cv in vec.items():
            s = self.weights[widx].d_value * cv
            if s:
                out[(widx, i)] = s
        return out

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_reduced_verma(algebra: AffineAlgebra, lam: Weight, height, kmax,
                           window: TruncationWindow, loop_window):
        """Windowed realization of the reduced module with exact tables.

        Stores weight spaces lambda + k delta - s (ht(s) <= height, |k| <= kmax)
        with the PBW basis truncated by the window; a (generator, source) pair
        is marked defined exactly when every image stays inside the store.
        """
        mod = VermaModule(algebra, lam, reduced=True)
        spaces = []  # (weight, [monomials])
        mono_index = {}
        offsets = []
        for s in _nonneg_vectors(algebra.rank, height):
            for k in range(-kmax, kmax + 1):
                basis = mod.basis_monomials((k, s), window)
                if basis:
                    offsets.append(((k, s), basis))
        weights = []
        labels = []
        off_index = {}
        for (k, s), basis in offsets:
            w = mod.weight_of_offset((k, s))
            widx = len(weights)
            off_index[(k, s)] = widx
            weights.append(w)
            labels.append([monomial_name(m) for m in basis])
            for j, m in enumerate(basis):
                mono_index[m] = (widx, j)
        blocks = {}
        defined = {}
        targets = {}
        gkeys = [(key, n) for key in algebra.finite.basis
                 for n in range(-loop_window, loop_window + 1)
                 if not (key[0] == "h" and n == 0)]
        for gkey in gkeys:
            key, n = gkey
            g = algebra.loop(algebra.finite.element({key: 1}), n)
            blocks[gkey] = {}
            defined[gkey] = set()
            targets[gkey] = {}
            if key[0] == "h":
                shift = (n, (0,) * algebra.rank)
            else:
                shift = (n, key[1])
            for widx, ((k, s), basis) in enumerate(offsets):
                want = off_index.get(
                    (k + shift[0], tuple(a - b for a, b in zip(s, shift[1]))))
                entries = {}
                ok = True
                for j, m in enumerate(basis):
                    image = mod.act(g, ModuleVector(mod, {m: Fraction(1)}))
                    for m2, c2 in image.terms.items():
                        hit = mono_index.get(m2)
                        if hit is None:
                            ok = False
                            break
                        if hit[0] != want:
                            raise ImvermaError("weight bookkeeping mismatch")
                        entries[(hit[1], j)] = entries.get((hit[1], j), 0) + c2
                    if not ok:
                        break
                if ok:
                    defined[gkey].add(widx)
                    targets[gkey][widx] = want
                    if entries:
                        blocks[gkey][widx] = entries
        meta = {"kind": "reduced-verma", "height": height, "kmax": kmax,
                "window": {"L": window.L, "N": window.N, "H": window.H}}
        em = ExplicitModule(algebra, weights, labels, blocks, defined, targets,
                            provenance="reduced-verma", loop_window=loop_window,
                            meta=meta)
        return em

    @staticmethod
    def direct_sum(summands, provenance="direct-sum"):
        if not summands:
            raise ModuleDataError("empty direct sum")
        algebra = summands[0].algebra
        for m in summands:
            if m.algebra is not algebra:
                raise ModuleDataError("direct sum over mixed algebra contexts")
        weights = sorted({w for m in summands for w in m.weights},
                         key=_weight_sort_key)
        windex = {w: i for i, w in enumerate(weights)}
        labels = [[] for _ in weights]
        shift = []  # per summand: widx_local -> (widx_global, offset)
        for si, m in enumerate(summands):
            table = {}
            for li, w in enumerate(m.weights):
                gi = windex[w]
                table[li] = (gi, len(labels[gi]))
                labels[gi].extend(f"s{si}:{lab}" for lab in m.labels[li])
            shift.append(table)
        gkeys = sorted({gk for m in summands for gk in m.blocks},
                       key=lambda gk: (gk[1], str(gk[0])))
        # per weight: (summand index, summand, local weight index) carrying it
        carriers = [[(si, m, m.windex[w]) for si, m in enumerate(summands)
                     if w in m.windex] for w in weights]
        blocks = {gk: {} for gk in gkeys}
        defined = {gk: set() for gk in gkeys}
        targets = {gk: {} for gk in gkeys}
        for gk in gkeys:
            for gi, carried in enumerate(carriers):
                if all(li in m.defined.get(gk, ()) for _, m, li in carried):
                    defined[gk].add(gi)
                    entries = {}
                    tgt = None
                    for si, m, li in carried:
                        tl = m.target_index(gk, li)
                        if tl is None:
                            continue
                        tgt = shift[si][tl][0]
                        mat = m.blocks[gk].get(li)
                        if mat:
                            roff = shift[si][tl][1]
                            coff = shift[si][li][1]
                            for (r, c), v in mat.items():
                                entries[(r + roff, c + coff)] = v
                    if tgt is None:
                        # the shifted weight is outside every carrier; it may
                        # still be a weight of another summand
                        tgt = windex.get(weight_shift(algebra, weights[gi], gk))
                    targets[gk][gi] = tgt
                    if entries:
                        blocks[gk][gi] = entries
        metas = [m.meta for m in summands]
        meta = None
        if all(mt is not None for mt in metas):
            base = [dict(mt, kind=None) for mt in metas]
            if all(b == base[0] for b in base):
                meta = {"kind": "direct-sum",
                        "height": metas[0]["height"], "kmax": metas[0]["kmax"],
                        "window": dict(metas[0]["window"])}
        lw = min(m.loop_window for m in summands)
        return ExplicitModule(algebra, weights, labels, blocks, defined, targets,
                              provenance=provenance, loop_window=lw, meta=meta)

    def scrambled(self, seed):
        """Weight-preserving change of basis by random exact invertible maps.

        Each block B becomes S_tgt^-1 B S_src, computed on sparse blocks.
        """
        rng = random.Random(seed)
        mats = []
        invs = []
        for widx in range(len(self.weights)):
            s, sinv = _random_unimodular(rng, self.dim(widx))
            mats.append(s)
            invs.append(sinv)
        blocks = {}
        defined = {gk: set(srcs) for gk, srcs in self.defined.items()}
        for gk, per_src in self.blocks.items():
            blocks[gk] = {}
            for src in self.defined.get(gk, ()):
                tgt = self.target_index(gk, src)
                mat = per_src.get(src, {})
                if tgt is None:
                    if mat:
                        raise ModuleDataError("nonzero block without a target weight")
                    continue
                entries = _mat_mul(_mat_mul(invs[tgt], mat), mats[src])
                if entries:
                    blocks[gk][src] = entries
        labels = [[f"w{widx}b{j}" for j in range(self.dim(widx))]
                  for widx in range(len(self.weights))]
        return ExplicitModule(self.algebra, list(self.weights), labels, blocks,
                              defined, self.targets,
                              provenance=f"{self.provenance}+scramble",
                              loop_window=self.loop_window, meta=self.meta)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self):
        weights = [{"h": [str(v) for v in w.h_values], "c": str(w.c_value),
                    "d": str(w.d_value)} for w in self.weights]
        basis = []
        for widx, labs in enumerate(self.labels):
            basis.extend({"label": lab, "weight": widx} for lab in labs)
        actions = {}
        defined = {}
        for gk in self.generator_keys():
            name = gen_name(self.algebra, *gk)
            triples = []
            for src in sorted(self.blocks.get(gk, {})):
                base_src = self._starts[src]
                tgt = self.target_index(gk, src)
                base_tgt = self._starts[tgt] if tgt is not None else 0
                for (r, c), v in sorted(self.blocks[gk][src].items()):
                    triples.append([base_tgt + r, base_src + c, str(v)])
            actions[name] = triples
            defined[name] = sorted(self.defined.get(gk, ()))
        alg = {"label": self.algebra.finite.cartan.label} \
            if self.algebra.finite.cartan.label else \
            {"cartan": [list(r) for r in self.algebra.finite.cartan.entries]}
        return {
            "schema_version": "1",
            "provenance": self.provenance,
            "algebra": alg,
            "loop_window": self.loop_window,
            "meta": self.meta,
            "weights": weights,
            "basis": basis,
            "actions": actions,
            "defined": defined,
        }

    @staticmethod
    def from_json_dict(data, algebra=None):
        """Rebuild a module from to_json_dict output.

        Malformed data (a missing key, a bad rational, an index out of range,
        an action row outside the generator's target weight) raises
        ModuleDataError naming the field.
        """
        with _module_field("algebra"):
            if algebra is None:
                spec = data["algebra"]
                cartan = cartan_matrix_of_type(spec["label"]) if "label" in spec \
                    else make_cartan_matrix(spec["cartan"])
                algebra = AffineAlgebra(build_simple_algebra(cartan))
        with _module_field("weights"):
            weights = [Weight(tuple(Fraction(x) for x in w["h"]), Fraction(w["c"]),
                              Fraction(w["d"]))
                       for w in data["weights"]]
            for w in weights:
                if len(w.h_values) != algebra.rank:
                    raise ValueError(f"{len(w.h_values)} h values for rank "
                                     f"{algebra.rank}")
        labels = [[] for _ in weights]
        locs = []  # global index -> (widx, local)
        with _module_field("basis"):
            for entry in data["basis"]:
                widx = _index(entry["weight"], len(weights))
                locs.append((widx, len(labels[widx])))
                labels[widx].append(entry["label"])
        blocks = {}
        defined = {}
        with _module_field("defined"):
            for name, srcs in data.get("defined", {}).items():
                gk = parse_gen(algebra, name)
                defined[gk] = set(_index(s, len(weights)) for s in srcs)
        arrows = {}  # (name, source widx, target widx) -> generator key
        with _module_field("actions"):
            for name, triples in data.get("actions", {}).items():
                gk = parse_gen(algebra, name)
                per_src = {}
                for r, c, v in triples:
                    swidx, slocal = locs[_index(c, len(locs))]
                    twidx, tlocal = locs[_index(r, len(locs))]
                    arrows[(name, swidx, twidx)] = gk
                    per_src.setdefault(swidx, {})[(tlocal, slocal)] = Fraction(v)
                blocks[gk] = per_src
                if gk not in defined:
                    # actions without an explicit defined list are taken as total
                    defined[gk] = set(per_src)
        with _module_field("loop_window"):
            loop_window = int(data.get("loop_window", 1))
        sources = {gk: set(blocks.get(gk, ())) | defined.get(gk, set())
                   for gk in set(blocks) | set(defined)}
        module = ExplicitModule(algebra, weights, labels, blocks, defined,
                                _shifted_targets(algebra, weights, sources),
                                provenance=data.get("provenance", "user-supplied"),
                                loop_window=loop_window, meta=data.get("meta"))
        for name, swidx, twidx in sorted(arrows):
            gk = arrows[(name, swidx, twidx)]
            if weight_shift(algebra, weights[swidx], gk) != weights[twidx]:
                raise ModuleDataError(
                    f"bad module data in 'actions': {name} on weight index {swidx} "
                    f"has a row in weight index {twidx}, not in its target weight")
        return module

    # -- invariant: bracket compatibility ------------------------------------------

    def check_bracket_compatibility(self, max_pairs=None, rng_seed=0):
        """[g,g'] action == commutator of actions wherever everything is defined.

        Returns (checked, failures). max_pairs samples generator pairs for
        large modules; None checks every pair.
        """
        from imverma.affine import affine_bracket

        gkeys = self.generator_keys()
        pairs = [(g1, g2) for i, g1 in enumerate(gkeys) for g2 in gkeys[i + 1:]]
        if max_pairs is not None and len(pairs) > max_pairs:
            pairs = random.Random(rng_seed).sample(pairs, max_pairs)
        checked = 0
        failures = []
        for g1, g2 in pairs:
            b = affine_bracket(
                self.algebra.loop(self.algebra.finite.element({g1[0]: 1}), g1[1]),
                self.algebra.loop(self.algebra.finite.element({g2[0]: 1}), g2[1]))
            for widx in range(len(self.weights)):
                for j in range(self.dim(widx)):
                    vec = {(widx, j): Fraction(1)}
                    # g1 g2 v == [g1, g2] v + g2 g1 v, compared as sparse dicts
                    try:
                        lhs = self.apply(g1, self.apply(g2, vec))
                        rhs = self.apply(g2, self.apply(g1, vec))
                        for (key, n), cv in b.terms.items():
                            add_scaled(rhs, self.apply((key, n), vec), cv)
                        if b.d:
                            add_scaled(rhs, self.apply_d(vec), b.d)
                        if b.c and self.weights[widx].c_value:
                            add_scaled(rhs, {(widx, j): self.weights[widx].c_value}, b.c)
                    except UndefinedActionError:
                        continue
                    checked += 1
                    if lhs != rhs:
                        failures.append({
                            "pair": [gen_name(self.algebra, *g1),
                                     gen_name(self.algebra, *g2)],
                            "weight_index": widx, "basis_index": j})
        return checked, failures


def _nonneg_vectors(rank_, total_max):
    """Non-negative integer rank_-tuples with sum <= total_max, lexicographic."""
    out = []

    def rec(i, left, acc):
        if i == rank_:
            out.append(tuple(acc))
            return
        for v in range(left + 1):
            acc.append(v)
            rec(i + 1, left - v, acc)
            acc.pop()

    rec(0, total_max, [])
    return out


def _random_unimodular(rng, n):
    """(S, S^-1) exact and sparse: a product of elementary shears and swaps."""
    ops = []
    for _ in range(2 * n + 2):
        kind = rng.choice(["shear", "swap"]) if n > 1 else "none"
        if kind == "shear":
            i, j = rng.sample(range(n), 2)
            cval = Fraction(rng.randint(-2, 2))
            if cval:
                ops.append(("shear", i, j, cval))
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            ops.append(("swap", i, j))
    # S applies the row operations in order; S^-1 undoes them in reverse
    s = [{i: Fraction(1)} for i in range(n)]
    sinv = [{i: Fraction(1)} for i in range(n)]
    for rows, sequence, sign in ((s, ops, 1), (sinv, reversed(ops), -1)):
        for op in sequence:
            if op[0] == "shear":
                _, i, j, cval = op
                add_scaled(rows[i], rows[j], sign * cval)
            else:
                _, i, j = op
                rows[i], rows[j] = rows[j], rows[i]
    return tuple({(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
                 for rows in (s, sinv))


def _mat_mul(a, b):
    """Product of sparse {(r, c): v} matrices; a zero is never stored."""
    b_rows = {}
    for (t, j), v in b.items():
        if v:
            b_rows.setdefault(t, []).append((j, v))
    out = {}
    for (i, t), v in a.items():
        if v and t in b_rows:
            add_scaled(out, {(i, j): w for j, w in b_rows[t]}, v)
    return out


def _rows(mat, nrows):
    """The sparse rows {column: v} of a block: the form the kernels take."""
    rows = [{} for _ in range(nrows)]
    for (r, c), v in mat.items():
        rows[r][c] = v
    return rows


def _block(rows):
    """The block whose rows are the given sparse rows."""
    return {(r, c): x for r, row in enumerate(rows) for c, x in row.items()}


def _images(mat, vectors):
    """Sparse rows mat @ v, one per sparse coordinate row v in vectors."""
    transposed = {(c, r): x for (r, c), x in mat.items()}
    return _rows(_mat_mul(_block(vectors), transposed), len(vectors))


# -- Heisenberg slice ---------------------------------------------------------------


def heisenberg_slice(algebra: AffineAlgebra, gwindow: int):
    """Basis of the degree-k delta spaces, 0 < |k| <= gwindow, plus c.

    For an untwisted algebra each slice is the Cartan at loop degree k, so the
    dimension per k is the rank.
    """
    out = {"c": algebra.c_elem(), "slices": {}}
    for k in range(-gwindow, gwindow + 1):
        if k == 0:
            continue
        out["slices"][k] = [algebra.h(i, k) for i in range(1, algebra.rank + 1)]
    return out


# -- torsion decomposition -------------------------------------------------------------


@dataclass
class GCompatibleSplit:
    module: ExplicitModule
    gwindow: int
    torsion: dict = field(default_factory=dict)       # widx -> sparse coord rows
    torsion_free: dict = field(default_factory=dict)  # widx -> sparse coord rows
    excluded: list = field(default_factory=list)      # non-admissible weight indices
    unchecked: list = field(default_factory=list)     # no evaluable G-generator
    deficient: list = field(default_factory=list)     # T + TF short of the space
    verdicts: dict = field(default_factory=dict)

    def torsion_dim(self):
        return sum(len(v) for v in self.torsion.values())

    def torsion_vectors(self):
        out = []
        for widx in sorted(self.torsion):
            for row in self.torsion[widx]:
                out.append((widx, {(widx, i): v for i, v in row.items()}))
        return out

    def passed(self):
        return all(v["passed"] for v in self.verdicts.values())


def torsion_free_restriction(split: GCompatibleSplit) -> ExplicitModule:
    """The TF part as a Heisenberg-module slice (h-generator tables only).

    Supports the idempotence check: re-splitting the restriction must produce
    no torsion. TF is spanned by reduced-echelon rows, so coefficients in the
    TF basis are read off at pivot columns; an image outside the span leaves
    the (generator, source) pair undefined in the restriction.
    """
    module = split.module
    keep = sorted(split.torsion_free)
    new_of_old = {w: i for i, w in enumerate(keep)}
    weights = [module.weights[w] for w in keep]
    labels = [[f"tf{w}b{j}" for j in range(len(split.torsion_free[w]))]
              for w in keep]
    pivots = {w: rref(split.torsion_free[w], module.dim(w))[1] for w in keep}
    blocks = {}
    defined = {}
    targets = {}
    for gk in module.heisenberg_keys(split.gwindow):
        blocks[gk] = {}
        defined[gk] = set()
        targets[gk] = {}
        for src in keep:
            if src not in module.defined.get(gk, ()):
                continue
            mat, tgt, ntgt = module.block(gk, src)
            targets[gk][new_of_old[src]] = new_of_old.get(tgt)
            if tgt is None or tgt not in new_of_old:
                # a zero image is exact; anything else leaves the slice
                if not any(mat.values()):
                    defined[gk].add(new_of_old[src])
                continue
            tgt_rows = split.torsion_free[tgt]
            piv = pivots[tgt]
            entries = {}
            ok = True
            for col, img in enumerate(_images(mat, split.torsion_free[src])):
                coeffs = [img.get(p, 0) for p in piv]
                recon = {}
                for cval, row in zip(coeffs, tgt_rows):
                    add_scaled(recon, row, cval)
                if recon != img:
                    ok = False
                    break
                for r, cval in enumerate(coeffs):
                    if cval:
                        entries[(r, col)] = cval
            if ok:
                defined[gk].add(new_of_old[src])
                if entries:
                    blocks[gk][new_of_old[src]] = entries
    return ExplicitModule(module.algebra, weights, labels, blocks, defined, targets,
                          provenance=f"{module.provenance}+torsion-free",
                          loop_window=split.gwindow, meta=None)


def g_kernel_raw(module: ExplicitModule, widx, gwindow):
    """Joint kernel of all defined Heisenberg generators at one weight space."""
    n = module.dim(widx)
    rows = []
    used = 0
    for gk in module.heisenberg_keys(gwindow):
        if widx not in module.defined.get(gk, ()):
            continue
        used += 1
        mat, _, ntgt = module.block(gk, widx)
        rows.extend(_rows(mat, ntgt))
    return nullspace(rows, n) if used else None, used


def torsion_decompose(module: ExplicitModule, gwindow: int) -> GCompatibleSplit:
    """Split V = T + TF over the reduced-admissible weight spaces.

    T is the exact joint kernel of every evaluable h_{i,l} (0 < |l| <=
    gwindow). TF is the span of the Heisenberg images arriving from
    neighboring weight spaces: the G-stable complement (a coordinate pivot
    complement would not be a G-module and would spuriously fail the
    bijectivity axiom on direct sums whose weights differ by root-lattice
    shifts). Spaces where T + TF falls short of the whole space are reported
    deficient; spaces with no evaluable generator are unchecked; weights
    outside h*_red are excluded (axiom (1) already fails there).
    """
    split = GCompatibleSplit(module, gwindow)
    any_gen = False
    saw_admissible = False
    admissible = []
    for widx, w in enumerate(module.weights):
        if module.dim(widx) == 0:
            continue
        if not w.is_reduced_admissible():
            split.excluded.append(widx)
            continue
        saw_admissible = True
        kernel, used = g_kernel_raw(module, widx, gwindow)
        if kernel is None:
            split.unchecked.append(widx)
            continue
        admissible.append(widx)
        any_gen = True
        if kernel:
            split.torsion[widx] = kernel
    if saw_admissible and not any_gen:
        raise ModuleDataError(
            "window too small: no Heisenberg generator is evaluable on any "
            "admissible weight space")
    # TF per space: span of all arriving Heisenberg images
    gkeys = module.heisenberg_keys(gwindow)
    arrivals = {widx: [] for widx in admissible}
    for gk in gkeys:
        for src in module.defined.get(gk, ()):
            mat, tgt, ntgt = module.block(gk, src)
            if tgt is None or tgt not in arrivals:
                continue
            columns = {(c, r): v for (r, c), v in mat.items()}
            arrivals[tgt].extend(vec for vec in _rows(columns, module.dim(src)) if vec)
    for widx in admissible:
        n = module.dim(widx)
        tf, _ = rref(arrivals[widx], n)
        if tf:
            split.torsion_free[widx] = tf
        t_rows = split.torsion.get(widx, [])
        joint = rank(t_rows + tf, n)
        if joint != len(t_rows) + len(tf):
            raise ModuleDataError(
                f"Heisenberg images meet the torsion kernel at weight index "
                f"{widx}; the split is not direct")
        if joint != n:
            split.deficient.append(widx)
    _check_axioms(split)
    return split


def _check_axioms(split: GCompatibleSplit):
    module = split.module
    gwindow = split.gwindow
    t_dim = split.torsion_dim()
    tf_dim = sum(len(v) for v in split.torsion_free.values())
    split.verdicts["i"] = {
        "passed": t_dim > 0 and tf_dim > 0 and not split.deficient,
        "torsion_dim": t_dim, "torsion_free_dim": tf_dim,
        "excluded_weight_spaces": len(split.excluded),
        "unchecked_weight_spaces": len(split.unchecked),
        "deficient_weight_spaces": split.deficient,
    }
    # (iv): G kills T, exactly, for every evaluable generator
    iv_fail = []
    iv_skip = 0
    for widx, rows in split.torsion.items():
        for gk in module.heisenberg_keys(gwindow):
            if widx not in module.defined.get(gk, ()):
                iv_skip += 1
                continue
            mat, _, ntgt = module.block(gk, widx)
            for img in _images(mat, rows):
                if img:
                    iv_fail.append({"generator": gen_name(module.algebra, *gk),
                                    "weight_index": widx})
    split.verdicts["iv"] = {"passed": not iv_fail, "violations": iv_fail,
                            "skipped": iv_skip}
    # (ii): each h_{i,l} injective on TF; windowed surjectivity strictly inside
    inj_fail = []
    surj_fail = []
    checked = 0
    skipped = 0
    for widx, tf_rows in split.torsion_free.items():
        for gk in module.heisenberg_keys(gwindow):
            if widx not in module.defined.get(gk, ()):
                skipped += 1
                continue
            mat, tgt, ntgt = module.block(gk, widx)
            images = _images(mat, tf_rows)
            checked += 1
            if rank(images, ntgt) != len(tf_rows):
                inj_fail.append({"generator": gen_name(module.algebra, *gk),
                                 "weight_index": widx})
            reverse = (gk[0], -gk[1])
            tgt_inside = (tgt is not None
                          and tgt in module.defined.get(reverse, ()))
            if tgt_inside:
                tgt_tf = split.torsion_free.get(tgt, [])
                base = rank(images, ntgt)
                if rank(images + tgt_tf, ntgt) != base or base != len(tgt_tf):
                    surj_fail.append({"generator": gen_name(module.algebra, *gk),
                                      "weight_index": widx})
            else:
                skipped += 1
    split.verdicts["ii"] = {"passed": not inj_fail and not surj_fail,
                            "injectivity_violations": inj_fail,
                            "surjectivity_violations": surj_fail,
                            "checked": checked, "skipped": skipped}
    # (iii): windowed: no escape-free subspace of TF (candidate submodule).
    # The escape of an image is read by the rows vanishing exactly on TF at
    # its target: their kernel is TF, the same as that of the projection onto
    # T along TF. An image in a space outside the analysis escapes entirely.
    outside = set(split.excluded + split.unchecked + split.deficient)
    annihilators = {w: nullspace(split.torsion_free.get(w, []), module.dim(w))
                    for w in range(len(module.weights)) if w not in outside}
    iii_candidates = []
    for widx, tf_rows in split.torsion_free.items():
        n = module.dim(widx)
        escape_rows = []
        for gk in module.generator_keys():
            if widx not in module.defined.get(gk, ()):
                continue
            mat, tgt, ntgt = module.block(gk, widx)
            if tgt is None:
                continue
            if tgt in outside:
                escape_rows.extend(_rows(mat, ntgt))
            else:
                ann = annihilators[tgt]
                escape_rows.extend(_rows(_mat_mul(_block(ann), mat), len(ann)))
        if not escape_rows:
            continue
        kernel = nullspace(escape_rows, n)
        # a candidate is a nonzero escape-free vector inside TF
        if kernel and rank(kernel + tf_rows, n) < len(kernel) + len(tf_rows):
            iii_candidates.append({"weight_index": widx})
    split.verdicts["iii"] = {
        "passed": not iii_candidates,
        "candidate_invariant_subspaces": iii_candidates,
        "note": f"verified within window (loop degrees <= {gwindow}); "
                "no finite criterion exists beyond the window",
    }
    # isolated-point structure of torsion weights (reported, not required)
    isolated = {}
    for widx in split.torsion:
        w = module.weights[widx]
        alone = True
        for l in range(-gwindow, gwindow + 1):
            if l == 0:
                continue
            neighbor = Weight(w.h_values, w.c_value, w.d_value + l)
            nid = module.windex.get(neighbor)
            if nid is not None and nid in split.torsion:
                alone = False
        isolated[widx] = alone
    split.verdicts["torsion_isolated"] = {"passed": True, "by_weight": isolated}


# -- loop modules ------------------------------------------------------------------


def sl2_irrep_matrices(dim):
    """e, f, h matrices of the irreducible sl2 module of the given dimension."""
    m = dim - 1
    e = [[Fraction(0)] * dim for _ in range(dim)]
    f = [[Fraction(0)] * dim for _ in range(dim)]
    h = [[Fraction(0)] * dim for _ in range(dim)]
    for j in range(dim):
        h[j][j] = Fraction(m - 2 * j)
        if j + 1 < dim:
            f[j + 1][j] = Fraction(1)
            e[j][j + 1] = Fraction((j + 1) * (m - j))
    return {"e1": e, "f1": f, "h1": h}


def build_loop_module(algebra: AffineAlgebra, matrices, dim, degree_window):
    """Loop module of a finite-dimensional weight module, on a degree window.

    matrices maps "e1".."eN", "f1".."fN", "h1".."hN" to dim x dim rational
    matrices; h-matrices must be diagonal (weight basis). The action tables
    for every root vector are derived through the structure constants and the
    whole table is verified against the finite bracket table before use.
    """
    fin = algebra.finite
    n = algebra.rank
    if dim == 0:
        return ExplicitModule(algebra, [], [], {}, {}, {}, provenance="loop-module",
                              loop_window=degree_window,
                              meta={"kind": "loop-module", "finite_dim": 0})
    mats = {}
    for i in range(1, n + 1):
        for nameprefix, key in (("e", ("x", fin.roots.simple_roots[i - 1])),
                                ("f", ("x", _neg(fin.roots.simple_roots[i - 1]))),
                                ("h", ("h", i))):
            name = f"{nameprefix}{i}"
            if name not in matrices:
                raise ModuleDataError(f"missing generator matrix {name!r}")
            mats[key] = {(r, c): v for r, row in enumerate(matrices[name])
                         for c, v in enumerate(map(Fraction, row)) if v}
    for i in range(1, n + 1):
        if any(r != c for r, c in mats[("h", i)]):
            raise ModuleDataError(
                f"h{i} matrix is not diagonal; basis is not a weight basis")
    # derive matrices for all root vectors through extraspecial decompositions
    for g in fin.roots.positive_roots:
        if sum(g) < 2:
            continue
        a1, b1 = fin.extraspecial[g]
        nconst = fin.nmat[(a1, b1)]
        mats[("x", g)] = add_scaled(
            {}, _commutator(mats[("x", a1)], mats[("x", b1)]), Fraction(1, nconst))
        nneg = fin.nmat[(_neg(a1), _neg(b1))]
        mats[("x", _neg(g))] = add_scaled(
            {}, _commutator(mats[("x", _neg(a1))], mats[("x", _neg(b1))]),
            Fraction(1, nneg))
    # verify the full bracket table
    for k1 in fin.basis:
        for k2 in fin.basis:
            want = {}
            for k, cv in fin._bracket_table[(k1, k2)].items():
                add_scaled(want, mats[k], cv)
            got = _commutator(mats[k1], mats[k2])
            if got != want:
                from imverma.finite import key_name
                raise ModuleDataError(
                    "generator matrices violate the bracket table at pair "
                    f"({key_name(k1)}, {key_name(k2)})")
    fin_weights = [tuple(mats[("h", i)].get((j, j), Fraction(0))
                         for i in range(1, n + 1)) for j in range(dim)]
    weights = []
    labels = []
    windex = {}
    locs = {}
    for l in range(-degree_window, degree_window + 1):
        for j in range(dim):
            w = Weight(fin_weights[j], Fraction(0), Fraction(l))
            if w not in windex:
                windex[w] = len(weights)
                weights.append(w)
                labels.append([])
            widx = windex[w]
            locs[(j, l)] = (widx, len(labels[widx]))
            labels[widx].append(f"m{j}@t^{l}")
    gkeys = [(key, nn) for key in fin.basis
             for nn in range(-degree_window, degree_window + 1)
             if not (key[0] == "h" and nn == 0)]
    blocks = {gk: {} for gk in gkeys}
    defined = {gk: set() for gk in gkeys}
    for gk in gkeys:
        key, nn = gk
        mat = mats[key]
        for widx, w in enumerate(weights):
            l = int(w.d_value)
            if abs(l + nn) > degree_window:
                continue
            entries = {}
            for (j, lj), (wj, cj) in locs.items():
                if wj != widx:
                    continue
                for (r, c), v in mat.items():
                    if c == j:
                        entries[(locs[(r, lj + nn)][1], cj)] = v
            defined[gk].add(widx)
            if entries:
                blocks[gk][widx] = entries
    return ExplicitModule(algebra, weights, labels, blocks, defined,
                          _shifted_targets(algebra, weights, defined),
                          provenance="loop-module", loop_window=degree_window,
                          meta={"kind": "loop-module", "finite_dim": dim,
                                "degree_window": degree_window})


def _commutator(a, b):
    return add_scaled(_mat_mul(a, b), _mat_mul(b, a), -1)


# -- category membership -----------------------------------------------------------


def check_category_membership(module: ExplicitModule, gwindow: int,
                              nilpotency_cap: int = 16) -> dict:
    """Report over the four category axioms, with witnesses and skip counts."""
    report = {"gwindow": gwindow, "axioms": {}}
    # (1) diagonalizability over reduced-admissible weights
    bad_weights = []
    for widx, w in enumerate(module.weights):
        if module.dim(widx) and not w.is_reduced_admissible():
            bad_weights.append({"weight_index": widx,
                                "h": [str(v) for v in w.h_values],
                                "c": str(w.c_value)})
    report["axioms"]["1"] = {
        "passed": not bad_weights,
        "violations": bad_weights,
        "note": "weight-indexed basis is diagonal by construction; the check "
                "is admissibility of every populated weight",
    }
    # (2) local nilpotency of e_{i,n}
    fails = []
    inconclusive = 0
    checked = 0
    for i in range(1, module.algebra.rank + 1):
        simple = module.algebra.finite.roots.simple_roots[i - 1]
        for nn in range(-gwindow, gwindow + 1):
            gk = (("x", simple), nn)
            if gk not in module.blocks:
                continue
            for widx in range(len(module.weights)):
                for j in range(module.dim(widx)):
                    vec = {(widx, j): Fraction(1)}
                    steps = 0
                    try:
                        while vec and steps <= nilpotency_cap:
                            vec = module.apply(gk, vec)
                            steps += 1
                        if vec:
                            fails.append({"generator": gen_name(module.algebra, *gk),
                                          "weight_index": widx, "basis_index": j,
                                          "cap": nilpotency_cap})
                        else:
                            checked += 1
                    except UndefinedActionError:
                        inconclusive += 1
    report["axioms"]["2"] = {"passed": not fails, "violations": fails,
                             "checked": checked, "inconclusive": inconclusive,
                             "cap": nilpotency_cap}
    # (3) G-compatibility
    try:
        split = torsion_decompose(module, gwindow)
        report["axioms"]["3"] = {
            "passed": split.passed(),
            "sub_axioms": {k: {"passed": v["passed"]} for k, v in
                           split.verdicts.items() if k in ("i", "ii", "iii", "iv")},
            "torsion_dim": split.torsion_dim(),
        }
        report["_split"] = split
    except ModuleDataError as ex:
        report["axioms"]["3"] = {"passed": False, "error": str(ex)}
    # (4) morphisms: a property of the category, vacuous for a single module
    report["axioms"]["4"] = {"passed": True,
                             "note": "morphism axiom is vacuous for a single module"}
    report["passed"] = all(a["passed"] for a in report["axioms"].values())
    return report


# -- annihilated-vector extraction and decomposition ------------------------------------


def _vec_is_torsion(module, vec, gwindow):
    for gk in module.heisenberg_keys(gwindow):
        try:
            if module.apply(gk, vec):
                return False
        except UndefinedActionError:
            continue
    return True


def extract_annihilated_vector(module: ExplicitModule, vec, gwindow: int,
                               cap: int = 16):
    """Iterated e_{i,0}-power extraction of a fully annihilated vector.

    Given a torsion vector v, repeatedly applies the maximal (p-1)-th powers
    of the zero-degree raising generators until some nonzero result is killed
    by every e_{i,0}; the output is then verified to be annihilated by every
    windowed e_{j,n} that is defined at its weight. Raises on non-torsion
    input or when the cap is exceeded.
    """
    if not vec:
        raise ModuleDataError("zero vector")
    if not _vec_is_torsion(module, vec, gwindow):
        raise ModuleDataError("not torsion: some Heisenberg generator acts "
                              "nontrivially on the input vector")
    alg = module.algebra
    e_keys = [(("x", alg.finite.roots.simple_roots[i - 1]), 0)
              for i in range(1, alg.rank + 1)]

    def nilp(v, gk):
        p = 0
        w = v
        while w:
            w = module.apply(gk, w)
            p += 1
            if p > cap:
                raise ModuleDataError(f"nilpotency cap {cap} exceeded during extraction")
        return p

    frontier = [vec]
    for _ in range(cap):
        degrees = []
        for w in frontier:
            for gk in e_keys:
                degrees.append((nilp(w, gk), w, gk))
        pmax = max(p for p, _, _ in degrees)
        if pmax == 1:
            out = frontier[0]
            break
        nxt = []
        for p, w, gk in degrees:
            if p == pmax:
                img = w
                for _ in range(pmax - 1):
                    img = module.apply(gk, img)
                if img:
                    nxt.append(img)
        if not nxt:
            raise ModuleDataError("extraction produced no nonzero vector")
        frontier = nxt
    else:
        raise ModuleDataError(f"extraction did not stabilize within {cap} rounds")
    # verify annihilation at every windowed loop degree, wherever defined
    verified = 0
    for i in range(1, alg.rank + 1):
        simple = alg.finite.roots.simple_roots[i - 1]
        for nn in range(-gwindow, gwindow + 1):
            gk = (("x", simple), nn)
            try:
                if module.apply(gk, out):
                    raise ModuleDataError(
                        f"extracted vector not annihilated by {gen_name(alg, *gk)}")
                verified += 1
            except UndefinedActionError:
                continue
    widxs = {k[0] for k in out}
    if len(widxs) != 1:
        raise ModuleDataError("extracted vector is not weight-homogeneous")
    return module.weights[widxs.pop()], out, verified


def decompose_into_reduced_vermas(module: ExplicitModule, gwindow: int,
                                  cap: int = 16):
    """Summand weights with highest-weight vectors, plus a dimension audit.

    Requires category membership on the window; each independent torsion
    vector is pushed to a fully annihilated vector, and the multiset of their
    weights is audited: on every stored weight space the stored dimension must
    equal the sum of windowed reduced Verma dimensions of the claimed
    summands. Audit failure raises AuditError.
    """
    report = check_category_membership(module, gwindow)
    if not report["passed"]:
        failed = [k for k, v in report["axioms"].items() if not v["passed"]]
        raise ModuleDataError(
            f"module fails category membership axioms {failed}; not decomposable")
    split = report["_split"]
    summands = []
    for widx, vec in split.torsion_vectors():
        w, out, _ = extract_annihilated_vector(module, vec, gwindow, cap)
        summands.append((w, out))
    audit = audit_decomposition(module, [w for w, _ in summands])
    return summands, audit


def audit_decomposition(module: ExplicitModule, summand_weights):
    """Exact windowed dimension audit of a claimed decomposition."""
    meta = module.meta
    if not meta or "window" not in meta:
        raise AuditError("module carries no window metadata; cannot audit "
                         "against windowed reduced Verma dimensions")
    window = TruncationWindow(meta["window"]["L"], meta["window"]["N"],
                              meta["window"]["H"])
    height, kmax = meta["height"], meta["kmax"]
    mismatches = []
    per_weight = []
    modules = {}
    for nu_idx, nu in enumerate(module.weights):
        expected = 0
        for lam in summand_weights:
            off = _offset_between(module.algebra, lam, nu)
            if off is None:
                continue
            k, s = off
            if sum(s) > height or abs(k) > kmax:
                continue
            key = (lam.h_values, lam.c_value, lam.d_value)
            if key not in modules:
                modules[key] = VermaModule(module.algebra, lam, reduced=True)
            expected += modules[key].weight_dim((k, s), window)
        got = module.dim(nu_idx)
        per_weight.append({"weight_index": nu_idx, "expected": expected,
                           "stored": got})
        if expected != got:
            mismatches.append(per_weight[-1])
    if mismatches:
        raise AuditError(f"decomposition audit failed on {len(mismatches)} "
                         f"weight spaces: {mismatches[:5]}")
    return {"passed": True, "weights_audited": len(per_weight),
            "per_weight": per_weight}


def _offset_between(algebra: AffineAlgebra, lam: Weight, nu: Weight):
    """(k, s) with nu = lam + k delta - sum s_i alpha_i, or None."""
    if nu.c_value != lam.c_value:
        return None
    k = nu.d_value - lam.d_value
    if k.denominator != 1:
        return None
    diff = [lam.h_values[i] - nu.h_values[i] for i in range(algebra.rank)]
    # solve sum_j s_j a_{ij} = diff_i
    a = algebra.finite.cartan
    n = algebra.rank
    aug = [{j: a[i, j] for j in range(n) if a[i, j]} | {n: diff[i]} for i in range(n)]
    ech, pivots = rref(aug, n + 1)
    if pivots != list(range(n)):
        return None
    s = [row.get(n, 0) for row in ech]
    if any(x.denominator != 1 or x < 0 for x in s):
        return None
    return (int(k), tuple(int(x) for x in s))

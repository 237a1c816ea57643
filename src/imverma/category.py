"""Explicit modules and the torsion / membership / decomposition machinery.

An ExplicitModule is a finite, weight-indexed slice of a module over the loop
algebra: a basis per weight, plus sparse action tables for the loop basis
generators x_gamma (x) t^n and h_i (x) t^n inside a degree window. The table
for a (generator, source weight) pair is stored only when it is exact, i.e.
when every image of the stored basis stays inside the stored basis; all
report-style checks count the undefined pairs they skip instead of guessing.
h_i (x) t^0, d and c act diagonally straight from the weight data.

A block is the only matrix form: column-major {source coordinate j: {target
coordinate r: v}}, with no zero and no empty column. Column j is the image of
basis vector j, in the {coordinate: v} form of the kernels' sparse rows and of
torsion and torsion-free coordinate vectors: _image applies a block to such a
vector, and _transpose gives the rows of a block where a kernel needs them.

One map holds the action: defined = {gkey: {source weight index: block}}. A
present key is a defined pair, and {} is a defined zero action; table() reads
one pair as (block, target index), or None if undefined. The target
weight index of each pair is derived once, when the module is built, from the
weights alone (_targets): x_gamma (x) t^n moves the (h, c) part of a weight by
gamma and its d value by n, so each (h, c) class is shifted once per root and
each d value once per loop degree, on integer (numerator, denominator) cells,
and a pair then costs integer lookups. No constructor hands targets in, and a
scrambled copy shares its source's weight index.

A reduced Verma store is built by the module it stores
(VermaModule.windowed_store), which decides its pairs; this layer adds only
the labels and the build's meta (from_reduced_verma).

Torsion is the joint kernel of the Heisenberg generators h_{i,l} (l != 0),
computed per weight space over the reduced-admissible weights; weight spaces
outside h*_red are reported as excluded (they already violate the
diagonalizability axiom, and torsion candidates in the source theory carry
reduced-admissible weights). The torsion-free part is the span of the
Heisenberg images arriving from neighboring weight spaces.

Membership, the split, its verdicts and extraction have one reader of the
action: each generator's blocks and targets, read as one map, never through
table() or apply() one (generator, weight) pair at a time. Powers of a
generator have one walk (_power_walk), which axiom (2) starts from a weight's
basis and extraction from one vector.

The decomposition pipeline: torsion basis -> iterated e_{i,0}-power extraction
of vectors annihilated by every windowed e_{j,n} -> summand weights -> exact
dimension audit: the summands' windowed reduced Verma dimensions, counted by
VermaModule.weight_dims once per offset the build reaches, must fill every
stored weight space exactly and no other weight. Audit failures are errors,
never silently accepted.
"""

import copy
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate

from imverma._kernels import nullspace, rank, rref
from imverma.affine import (AffineAlgebra, gen_name, heisenberg_keys, loop_keys,
                            parse_gen, raising_keys)
from imverma.cartan import cartan_matrix_of_type, make_cartan_matrix
from imverma.errors import AuditError, ImvermaError, ModuleDataError, WindowOverflowError
from imverma.finite import (_broken_bracket, _extend_by_extraspecial, _neg,
                            add_scaled, build_simple_algebra, key_name)
from imverma.verma import TruncationWindow, VermaModule, Weight, monomial_name


class UndefinedActionError(ModuleDataError):
    """The requested action table entry is outside the stored window."""


NILPOTENCY_CAP = 16  # the largest nilpotency degree of e_{i,n} accepted by default


def _parse_gen_once(algebra, name, named):
    """parse_gen, refusing h_i (x) t^0, which acts from the weights, and a
    generator that named ({gkey: name}) already holds under another spelling,
    such as e1@0 and x[1]@0."""
    gk = parse_gen(algebra, name)
    if gk[0][0] == "h" and gk[1] == 0:
        raise ValueError(f"{name!r} is implicit and has no stored table")
    if gk in named:
        raise ValueError(f"{name!r} and {named[gk]!r} name the same generator")
    named[gk] = name
    return gk


@contextmanager
def _module_field(name):
    """Turn a parse error inside one field of module data into ModuleDataError."""
    try:
        yield
    except KeyError as ex:
        raise ModuleDataError(f"bad module data in {name!r}: missing key {ex}") from None
    except ZeroDivisionError:
        raise ModuleDataError(f"bad module data in {name!r}: zero denominator") from None
    except (AttributeError, IndexError, TypeError, ValueError, ImvermaError) as ex:
        raise ModuleDataError(f"bad module data in {name!r}: {ex}") from None


def _index(value, size):
    i = int(value)
    if not 0 <= i < size:
        raise IndexError(f"index {value!r} out of range for {size} entries")
    return i


def _targets(algebra: AffineAlgebra, weights, defined):
    """{gkey: {source: target weight index or None}} for the pairs of defined.

    Weights are indexed by ((h, c) class, d value), each read from the
    integer (numerator, denominator) cells of Weight.cells. Each class is
    shifted once per root, and each d value once per loop degree, by integer
    arithmetic: adding p to a/b gives (a + p*b)/b, still in lowest terms.
    Every pair is then a lookup of integers.
    """
    classes = {}
    dvals = {}
    cells = []
    for w in weights:
        hc, d = w.cells
        cells.append((classes.setdefault(hc, len(classes)),
                      dvals.setdefault(d, len(dvals))))
    at = {cell: i for i, cell in enumerate(cells)}
    rs = algebra.finite.roots
    class_moves = {}  # finite key -> per class: shifted class, or None
    d_moves = {}  # loop degree -> per d value: shifted d value, or None
    targets = {}
    for gkey, per_src in defined.items():
        key, n = gkey
        if key not in class_moves:
            if key[0] == "h":
                class_moves[key] = range(len(classes))
            else:
                # c is last in a class and never moves
                shift = [rs.pairing(key[1], i) for i in range(algebra.rank)] + [0]
                class_moves[key] = [
                    classes.get(tuple((a + p * b, b) for (a, b), p in zip(hc, shift)))
                    for hc in classes]
        if n not in d_moves:
            d_moves[n] = [dvals.get((a + n * b, b)) for a, b in dvals]
        cmove, dmove = class_moves[key], d_moves[n]
        targets[gkey] = {s: at.get((cmove[cells[s][0]], dmove[cells[s][1]]))
                         for s in per_src}
    return targets


class ExplicitModule:
    """Windowed weight-module data with exact sparse action tables.

    defined gives {gkey: {source: column-major block}} for every (generator,
    source) pair whose table is exact, indexed like weights; targets gives the
    target weight index (or None) of the same pairs. The module keeps its
    weights in (d, h, c) value order, whatever order its constructor lists.
    """

    def __init__(self, algebra: AffineAlgebra, weights, labels, defined,
                 provenance="user-supplied", loop_window=1, meta=None):
        self.algebra = algebra
        keys = [(w.d_value, w.h_values, w.c_value) for w in weights]
        order = sorted(range(len(weights)), key=keys.__getitem__)
        remap = {old: new for new, old in enumerate(order)}
        self.weights = [weights[i] for i in order]
        self.labels = [list(labels[i]) for i in order]
        self.windex = {w: i for i, w in enumerate(self.weights)}
        if len(self.windex) != len(self.weights):
            raise ModuleDataError("duplicate weights in module data")
        self.defined = {gkey: {remap[s]: mat for s, mat in per_src.items()}
                        for gkey, per_src in defined.items()}
        self.targets = _targets(algebra, self.weights, self.defined)
        self.provenance = provenance
        self.loop_window = loop_window
        self.meta = meta
        self.total_dim = sum(map(len, self.labels))

    # -- structure -----------------------------------------------------------

    def dim(self, widx) -> int:
        return len(self.labels[widx])

    def generator_keys(self):
        return sorted(self.defined, key=lambda gk: (gk[1], str(gk[0])))

    # -- action ------------------------------------------------------------------

    def table(self, gkey, src_widx):
        """(sparse block, target index or None) of a stored (generator,
        source) pair, or None where the pair is undefined."""
        per_src = self.defined.get(gkey)
        if per_src is None or src_widx not in per_src:
            return None
        return per_src[src_widx], self.targets[gkey][src_widx]

    def apply(self, gkey, widx, vec):
        """Apply a generator to the row vec {i: c} of weight space widx:
        (target weight index, image row), exact. h_i (x) t^0 scales by
        lambda(h_i), an undefined pair raises UndefinedActionError, and the
        zero vector maps to (None, {}) under every generator."""
        if not vec:
            return None, {}
        (kind, val), n = gkey
        if kind == "h" and n == 0:
            return widx, add_scaled({}, vec, self.weights[widx].h_values[val - 1])
        entry = self.table(gkey, widx)
        if entry is None:
            raise UndefinedActionError(
                f"{gen_name(self.algebra, *gkey)} undefined at weight index {widx}")
        block, tgt = entry
        return tgt, _image(block, vec)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_reduced_verma(algebra: AffineAlgebra, lam: Weight, kmax,
                           window: TruncationWindow, loop_window):
        """Windowed realization of the reduced module with exact tables:
        weight spaces lambda + k delta - s (ht(s) <= window.H, |k| <= kmax)
        with the PBW basis truncated by the window, and the tables of every
        loop generator of degree at most loop_window, as the module stores
        itself (VermaModule.windowed_store)."""
        mod = VermaModule(algebra, lam, reduced=True)
        spaces, defined = mod.windowed_store(kmax, window,
                                             loop_keys(algebra, loop_window))
        labels = [[monomial_name(m) for m in basis] for _, _, basis in spaces]
        meta = {"kind": "reduced-verma", "height": window.H, "kmax": kmax,
                "window": asdict(window)}
        return ExplicitModule(algebra, [w for _, w, _ in spaces], labels, defined,
                              provenance="reduced-verma", loop_window=loop_window,
                              meta=meta)

    @staticmethod
    def direct_sum(summands):
        if not summands:
            raise ModuleDataError("empty direct sum")
        algebra = summands[0].algebra
        for m in summands:
            if m.algebra is not algebra:
                raise ModuleDataError("direct sum over mixed algebra contexts")
        weights = list(dict.fromkeys(w for m in summands for w in m.weights))
        windex = {w: i for i, w in enumerate(weights)}
        labels = [[] for _ in weights]
        # per weight: (summand index, local weight index) carrying it
        carriers = [[] for _ in weights]
        shift = []  # per summand: local weight index -> offset in the sum's space
        for si, m in enumerate(summands):
            offsets = []
            for li, w in enumerate(m.weights):
                gi = windex[w]
                offsets.append(len(labels[gi]))
                carriers[gi].append((si, li))
                labels[gi].extend(f"s{si}:{lab}" for lab in m.labels[li])
            shift.append(offsets)
        defined = {}
        for gk in dict.fromkeys(gk for m in summands for gk in m.defined):
            # per summand: its blocks and targets of gk, or None where it has no gk
            local = [m.defined.get(gk) for m in summands]
            targets = [m.targets.get(gk) for m in summands]
            per_src = defined[gk] = {}
            for gi, carried in enumerate(carriers):
                block = {}
                for si, li in carried:
                    blocks = local[si]
                    if blocks is None or li not in blocks:
                        break
                    mat = blocks[li]
                    if mat:
                        roff, coff = shift[si][targets[si][li]], shift[si][li]
                        for j, column in mat.items():
                            block[j + coff] = {r + roff: v for r, v in column.items()}
                else:
                    per_src[gi] = block
        # metas that agree apart from their kind carry over to the sum
        metas = [m.meta for m in summands]
        meta = None
        if None not in metas and all(dict(mt, kind=None) == dict(metas[0], kind=None)
                                     for mt in metas):
            meta = dict(metas[0], kind="direct-sum")
        lw = min(m.loop_window for m in summands)
        return ExplicitModule(algebra, weights, labels, defined,
                              provenance="direct-sum", loop_window=lw, meta=meta)

    def scrambled(self, seed):
        """Weight-preserving change of basis by random exact invertible maps.

        Each block B becomes S_tgt^-1 B S_src, computed on sparse blocks. The
        copy keeps this module's weights, so it shares their order, index and
        targets instead of rebuilding them.
        """
        rng = random.Random(seed)
        mats = []
        invs = []
        for widx in range(len(self.weights)):
            s, sinv = _random_unimodular(rng, self.dim(widx))
            mats.append(s)
            invs.append(sinv)
        defined = {}
        for gk, per_src in self.defined.items():
            defined[gk] = {}
            targets = self.targets[gk]
            for src, mat in per_src.items():
                tgt = targets[src]
                if tgt is None and mat:
                    raise ModuleDataError("nonzero block without a target weight")
                defined[gk][src] = _mat_mul(_mat_mul(invs[tgt], mat), mats[src]) \
                    if mat else {}
        out = copy.copy(self)
        out.labels = [[f"w{widx}b{j}" for j in range(self.dim(widx))]
                      for widx in range(len(self.weights))]
        out.defined = defined
        out.provenance = f"{self.provenance}+scramble"
        return out

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self):
        weights = [w.to_json_dict() for w in self.weights]
        basis = []
        for widx, labs in enumerate(self.labels):
            basis.extend({"label": lab, "weight": widx} for lab in labs)
        starts = [0, *accumulate(map(len, self.labels))]
        actions = {}
        defined = {}
        for gk in self.generator_keys():
            name = gen_name(self.algebra, *gk)
            triples = []
            for src, mat in sorted(self.defined[gk].items()):
                base_src = starts[src]
                tgt = self.targets[gk][src]
                base_tgt = starts[tgt] if tgt is not None else 0
                triples.extend(sorted([base_tgt + r, base_src + c, str(v)]
                                      for c, column in mat.items()
                                      for r, v in column.items()))
            actions[name] = triples
            defined[name] = sorted(self.defined[gk])
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
    def from_json_dict(data):
        """Rebuild a module from to_json_dict output.

        Malformed data (a missing key, a bad rational, an index out of range,
        a generator named twice in one field, a table for h_i (x) t^0 (it acts
        from the weights), two values at one entry of a table, an action row
        outside the generator's target weight or at a source its defined list
        omits, audit metadata that cannot be read) raises ModuleDataError
        naming the field. A zero action value is checked like any other and
        then not stored.
        """
        with _module_field("algebra"):
            spec = data["algebra"]
            cartan = cartan_matrix_of_type(spec["label"]) if "label" in spec \
                else make_cartan_matrix(spec["cartan"])
            algebra = AffineAlgebra(build_simple_algebra(cartan))
        with _module_field("weights"):
            weights = [Weight.make(w["h"], w["c"], w["d"]) for w in data["weights"]]
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
        defined = {}
        with _module_field("defined"):
            named = {}
            for name, srcs in data.get("defined", {}).items():
                gk = _parse_gen_once(algebra, name, named)
                defined[gk] = {_index(s, len(weights)): {} for s in srcs}
        arrows = {}  # (name, source widx, target widx) -> generator key
        with _module_field("actions"):
            named = {}
            for name, triples in data.get("actions", {}).items():
                gk = _parse_gen_once(algebra, name, named)
                # actions without an explicit defined list are taken as total
                listed = gk in defined
                per_src = defined.setdefault(gk, {})
                seen = set()
                for r, c, v in triples:
                    c, r = _index(c, len(locs)), _index(r, len(locs))
                    if (r, c) in seen:
                        raise ValueError(f"{name} has two values at row {r}, column {c}")
                    seen.add((r, c))
                    swidx, slocal = locs[c]
                    twidx, tlocal = locs[r]
                    if listed and swidx not in per_src:
                        raise ValueError(f"{name} has a row at weight index {swidx}, "
                                         "which its 'defined' list omits")
                    arrows[(name, swidx, twidx)] = gk
                    block = per_src.setdefault(swidx, {})
                    value = Fraction(v)
                    if value:
                        block.setdefault(slocal, {})[tlocal] = value
        with _module_field("loop_window"):
            loop_window = int(data.get("loop_window", 1))
        with _module_field("meta"):
            meta = data.get("meta")
            if meta and "window" in meta:
                _audit_bounds(meta)
        module = ExplicitModule(algebra, weights, labels, defined,
                                provenance=data.get("provenance", "user-supplied"),
                                loop_window=loop_window, meta=meta)
        at = [module.windex[w] for w in weights]
        for name, swidx, twidx in sorted(arrows):
            if module.table(arrows[(name, swidx, twidx)], at[swidx])[1] != at[twidx]:
                raise ModuleDataError(
                    f"bad module data in 'actions': {name} on weight index {swidx} "
                    f"has a row in weight index {twidx}, not in its target weight")
        return module


# -- nilpotency chains and windowed spaces --------------------------------------------


def _power_walk(per_src, targets, widx, cur, cap):
    """Apply one generator, given its blocks per_src and their targets, at
    most cap times to the columns cur {j: vector} of weight widx; cur None
    stands for the basis, whose first images are the block's own columns.
    The columns walk together and each drops out once it dies. Returns
    (stop, p, t, cur): "killed" where the p-th application kills every
    column, cur at weight t being what the one before left; "undefined"
    where the pair at t, reached after p applications, is undefined; "cap"
    where cur at t is still nonzero after p = cap applications."""
    for p in range(cap):
        block = per_src.get(widx)
        if block is None:
            return "undefined", p, widx, cur
        image = block if cur is None else _mat_mul(block, cur)
        if not image:
            return "killed", p + 1, widx, cur
        widx, cur = targets[widx], image
    return "cap", cap, widx, cur


def _random_unimodular(rng, n):
    """(S, S^-1) exact, sparse and int: a product of shears and swaps."""
    ops = []
    for _ in range(2 * n + 2):
        kind = rng.choice(["shear", "swap"]) if n > 1 else "none"
        if kind == "shear":
            i, j = rng.sample(range(n), 2)
            cval = rng.randint(-2, 2)
            if cval:
                ops.append(("shear", i, j, cval))
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            ops.append(("swap", i, j))
    # S applies the row operations in order; S^-1 undoes them in reverse
    s = [{i: 1} for i in range(n)]
    sinv = [{i: 1} for i in range(n)]
    for rows, sequence, sign in ((s, ops, 1), (sinv, reversed(ops), -1)):
        for op in sequence:
            if op[0] == "shear":
                _, i, j, cval = op
                add_scaled(rows[i], rows[j], sign * cval)
            else:
                _, i, j = op
                rows[i], rows[j] = rows[j], rows[i]
    return _transpose(dict(enumerate(s))), _transpose(dict(enumerate(sinv)))


def _image(block, vec):
    """block @ vec for a sparse coordinate vector {j: v}: the combination of
    the block's columns; a zero is never stored."""
    out = {}
    for j, v in vec.items():
        column = block.get(j)
        if column:
            add_scaled(out, column, v)
    return out


def _transpose(block):
    """The transpose of a block: its columns are the nonzero rows of the
    block, {target coordinate r: {source coordinate j: v}}."""
    out = {}
    for j, column in block.items():
        for r, v in column.items():
            out.setdefault(r, {})[j] = v
    return out


def _mat_mul(a, b):
    """Product of column-major blocks: column j of a @ b is a @ (column j of
    b). A zero or an empty column is never stored."""
    out = {}
    for j, column in b.items():
        image = _image(a, column)
        if image:
            out[j] = image
    return out


def _block_sum(terms):
    """The sum of c * block over the (block, c) terms, column by column."""
    out = {}
    for block, c in terms:
        for j, column in block.items():
            add_scaled(out.setdefault(j, {}), column, c)
    return {j: column for j, column in out.items() if column}


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
        """(weight index, row copy) of each torsion basis vector, by weight index."""
        return [(widx, dict(row)) for widx in sorted(self.torsion)
                for row in self.torsion[widx]]

    def passed(self):
        return all(v["passed"] for v in self.verdicts.values())


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

    Each generator's blocks and targets are read once, as one map: T and the
    arrivals read one per Heisenberg key, (ii) one list per degree-l slice
    (and the slice -l for onto), (iii) one per generator. Verdicts (ii) and
    (iii) read TF through the reduced rows kept here, with no annihilator,
    and on a TF line neither eliminates. Verdict (iv), G kills T, holds by
    construction; it reports only the undefined pairs.
    """
    split = GCompatibleSplit(module, gwindow)
    # per Heisenberg key, in heisenberg_keys order; an absent key defines no pair
    hmaps = [(module.defined.get(gk, {}), module.targets.get(gk, {}))
             for gk in heisenberg_keys(module.algebra, gwindow)]
    admissible = []
    for widx, w in enumerate(module.weights):
        if module.dim(widx) == 0:
            continue
        if not w.is_reduced_admissible():
            split.excluded.append(widx)
            continue
        blocks = [per_src[widx] for per_src, _ in hmaps if widx in per_src]
        if not blocks:
            split.unchecked.append(widx)
            continue
        admissible.append(widx)
        rows = [row for block in blocks for row in _transpose(block).values()]
        kernel = nullspace(rows, module.dim(widx))
        if kernel:
            split.torsion[widx] = kernel
    if split.unchecked and not admissible:
        raise ModuleDataError(
            "window too small: no Heisenberg generator is evaluable on any "
            "admissible weight space")
    # TF per space: span of all arriving Heisenberg images
    arrivals = {widx: [] for widx in admissible}
    for per_src, targets in hmaps:
        for src, mat in per_src.items():
            tgt = targets[src]
            if tgt in arrivals:
                arrivals[tgt].extend(mat.values())
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
    _check_axioms(split, hmaps)
    return split


def _check_axioms(split: GCompatibleSplit, hmaps):
    """The verdicts of a split, given torsion_decompose's Heisenberg maps."""
    module = split.module
    gwindow = split.gwindow
    hkeys = heisenberg_keys(module.algebra, gwindow)
    t_dim = split.torsion_dim()
    tf_dim = sum(len(v) for v in split.torsion_free.values())
    split.verdicts["i"] = {
        "passed": t_dim > 0 and tf_dim > 0 and not split.deficient,
        "torsion_dim": t_dim, "torsion_free_dim": tf_dim,
        "excluded_weight_spaces": len(split.excluded),
        "unchecked_weight_spaces": len(split.unchecked),
        "deficient_weight_spaces": split.deficient,
    }
    # (iv): G kills T by construction, since T is the joint kernel of every
    # block defined at its space; only the undefined pairs are reported
    split.verdicts["iv"] = {"passed": True, "violations": [], "skipped": sum(
        widx not in per_src for widx in split.torsion for per_src, _ in hmaps)}
    # (ii): each degree-l slice G_{l delta} = span{h_{i,l}} injective on TF, and
    # onto TF at its target where the whole opposite slice is defined there.
    # TF at an analysed target is the span of every image arriving there, and
    # 0 at any other, so onto is a rank count. Where TF, or TF at the target,
    # is at most a line, whether some image is nonzero decides, with no rank
    inj_fail = []
    surj_fail = []
    checked = 0
    skipped = 0
    slices = {}  # l -> the maps of h_{1,l}, ..., h_{r,l}, l ascending
    for ((_, l), hmap) in zip(hkeys, hmaps):
        slices.setdefault(l, []).append(hmap)
    for widx, tf_rows in split.torsion_free.items():
        for l, maps in slices.items():
            blocks = [per_src.get(widx) for per_src, _ in maps]
            if None in blocks:
                skipped += 1
                continue
            checked += 1
            tgt = maps[0][1][widx]
            ntgt = 0 if tgt is None else module.dim(tgt)
            images = [[_image(mat, row) for row in tf_rows] for mat in blocks]
            moved = any(map(any, images))
            # v -> (h_{1,l} v, ..., h_{r,l} v), one column block per generator
            if not moved or len(tf_rows) > 1 and rank(
                    [{c + i * ntgt: x for i, imgs in enumerate(images)
                      for c, x in imgs[j].items()} for j in range(len(tf_rows))],
                    len(blocks) * ntgt) < len(tf_rows):
                inj_fail.append({"degree": l, "weight_index": widx})
            if all(tgt in per_src for per_src, _ in slices[-l]):
                tf_tgt = len(split.torsion_free.get(tgt, []))
                spanned = moved if tf_tgt <= 1 else rank(
                    [img for imgs in images for img in imgs], ntgt)
                if spanned != tf_tgt:
                    surj_fail.append({"degree": l, "weight_index": widx})
            else:
                skipped += 1
    split.verdicts["ii"] = {"passed": not inj_fail and not surj_fail,
                            "injectivity_violations": inj_fail,
                            "surjectivity_violations": surj_fail,
                            "checked": checked, "skipped": skipped}
    # (iii): windowed: no escape-free subspace of TF (candidate submodule). An
    # image escapes unless its remainder against the reduced rows of TF at its
    # target, img - _image(proj[t], img), is zero; TF is 0 outside the
    # analysis. An h_{i,l} image (|l| <= gwindow) at an analysed target lies
    # in TF by construction, so it is not computed
    outside = set(split.excluded + split.unchecked + split.deficient)
    proj = {w: {min(row): row for row in rows}
            for w, rows in split.torsion_free.items() if w not in outside}
    gmaps = [(gk in hkeys, module.defined[gk], module.targets[gk])
             for gk in module.generator_keys()]
    iii_candidates = []
    for widx, tf_rows in split.torsion_free.items():
        reads = [(heis, per_src[widx], targets[widx]) for heis, per_src, targets in gmaps
                 if widx in per_src and targets[widx] is not None]
        # a TF is tested only where TF at some target falls short of its space
        if all(len(proj.get(t, ())) == module.dim(t) for _, _, t in reads):
            continue
        stacked = [{} for _ in tf_rows]  # per TF row: its remainders side by side
        offset = 0
        for heis, block, t in reads:
            if heis and t not in outside:
                continue
            for row, v in zip(stacked, tf_rows):
                img = _image(block, v)
                add_scaled(img, _image(proj.get(t, {}), img), -1)
                row.update((c + offset, x) for c, x in img.items())
            offset += module.dim(t)
        # a candidate is a nonzero vector of TF whose every remainder is zero
        if (not stacked[0]) if len(stacked) == 1 else rank(stacked, offset) < len(stacked):
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
        isolated[widx] = not any(
            module.windex.get(Weight(w.h_values, w.c_value, w.d_value + l)) in split.torsion
            for l in range(-gwindow, gwindow + 1) if l)
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


def build_loop_module(algebra: AffineAlgebra, matrices, degree_window):
    """Loop module of a finite-dimensional weight module, on a degree window.

    matrices maps "e1".."eN", "f1".."fN", "h1".."hN" to square rational
    matrices of one size, the dimension of the module; h-matrices must be
    diagonal (weight basis). The action tables for every root vector are
    derived through the extraspecial pairs and the whole table is verified
    against the finite bracket table before use.
    """
    fin = algebra.finite
    n = algebra.rank
    keys = {}
    for i, simple in enumerate(fin.roots.simple_roots, 1):
        keys.update({f"e{i}": ("x", simple), f"f{i}": ("x", _neg(simple)), f"h{i}": ("h", i)})
    rows = {}
    for name in keys:
        if name not in matrices:
            raise ModuleDataError(f"missing generator matrix {name!r}")
        with _module_field(name):
            rows[name] = [list(map(Fraction, row)) for row in matrices[name]]
    dim = len(rows["e1"])
    for name, block in rows.items():
        if {len(block), *map(len, block)} - {dim}:
            raise ModuleDataError(f"generator matrix {name!r} is not {dim} x {dim} like 'e1'")
    mats = {key: _transpose({r: {c: v for c, v in enumerate(row) if v}
                             for r, row in enumerate(rows[name])})
            for name, key in keys.items()}
    for i in range(1, n + 1):
        if any(r != c for c, column in mats[("h", i)].items() for r in column):
            raise ModuleDataError(
                f"h{i} matrix is not diagonal; basis is not a weight basis")
    _extend_by_extraspecial(fin, mats, _commutator, _block_sum)
    broken = _broken_bracket(fin, mats, _commutator, _block_sum)
    if broken:
        raise ModuleDataError("generator matrices violate the bracket table at pair "
                              f"({key_name(broken[0])}, {key_name(broken[1])})")
    fin_weights = [tuple(mats[("h", i)].get(j, {}).get(j, Fraction(0))
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
    defined = {}
    for gk in loop_keys(algebra, degree_window):
        key, nn = gk
        mat = mats[key]
        per_src = defined[gk] = {}
        for (j, l), (widx, cj) in locs.items():
            if abs(l + nn) > degree_window:
                continue
            block = per_src.setdefault(widx, {})
            if j in mat:
                block[cj] = {locs[(r, l + nn)][1]: v for r, v in mat[j].items()}
    return ExplicitModule(algebra, weights, labels, defined,
                          provenance="loop-module", loop_window=degree_window,
                          meta={"kind": "loop-module", "finite_dim": dim,
                                "degree_window": degree_window})


def _commutator(a, b):
    return _block_sum([(_mat_mul(a, b), 1), (_mat_mul(b, a), -1)])


# -- category membership -----------------------------------------------------------


def check_category_membership(module: ExplicitModule, gwindow: int,
                              nilpotency_cap: int = NILPOTENCY_CAP) -> dict:
    """Report over the four category axioms, with witnesses and skip counts.

    Axiom (2) asks each windowed e_{i,n} to kill every basis vector within
    nilpotency_cap applications. The basis vectors of a weight walk together
    (_power_walk): an undefined block adds its whole dimension to
    inconclusive, an absent column is killed in one step (p = 1) with no
    action applied, a vector whose chain reaches an undefined pair is
    inconclusive and one still nonzero after the cap a violation. At cap 0
    every basis vector of every populated weight is a violation. Violations
    are listed by generator, then weight index, then basis index.
    """
    return _membership(module, gwindow, nilpotency_cap)[0]


def _membership(module, gwindow, nilpotency_cap):
    """(check_category_membership's report, axiom (3)'s split or None)."""
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
    for gk in raising_keys(module.algebra, range(-gwindow, gwindow + 1)):
        per_src = module.defined.get(gk)
        if per_src is None:
            continue
        name = gen_name(module.algebra, *gk)
        targets = module.targets[gk]
        for widx in range(len(module.weights)):
            n = module.dim(widx)
            stop, _, _, cur = _power_walk(per_src, targets, widx, None, nilpotency_cap)
            # the basis coordinates still alive where the walk stopped
            live = [] if stop == "killed" else range(n) if cur is None else sorted(cur)
            checked += n - len(live)
            if stop == "undefined":
                inconclusive += len(live)
            else:
                fails.extend({"generator": name, "weight_index": widx,
                              "basis_index": j, "cap": nilpotency_cap} for j in live)
    report["axioms"]["2"] = {"passed": not fails, "violations": fails,
                             "checked": checked, "inconclusive": inconclusive,
                             "cap": nilpotency_cap}
    # (3) G-compatibility
    split = None
    try:
        split = torsion_decompose(module, gwindow)
        report["axioms"]["3"] = {
            "passed": split.passed(),
            "sub_axioms": {k: {"passed": v["passed"]} for k, v in
                           split.verdicts.items() if k in ("i", "ii", "iii", "iv")},
            "torsion_dim": split.torsion_dim(),
        }
    except ModuleDataError as ex:
        report["axioms"]["3"] = {"passed": False, "error": str(ex)}
    # (4) morphisms: a property of the category, vacuous for a single module
    report["axioms"]["4"] = {"passed": True,
                             "note": "morphism axiom is vacuous for a single module"}
    report["passed"] = all(a["passed"] for a in report["axioms"].values())
    return report, split


# -- annihilated-vector extraction and decomposition ------------------------------------


def _blocks_at(module, keys, widx):
    """(gk, block) for each key of keys defined at weight widx."""
    return [(gk, module.defined[gk][widx]) for gk in keys
            if widx in module.defined.get(gk, ())]


def extract_annihilated_vector(module: ExplicitModule, widx, vec, gwindow: int,
                               cap: int = NILPOTENCY_CAP):
    """Iterated e_{i,0}-power extraction of a fully annihilated vector.

    Given a torsion vector v, the row vec of weight space widx, repeatedly
    applies the maximal (p-1)-th powers of the zero-degree raising generators
    until some nonzero result is killed by every e_{i,0}; the output is then
    verified to be annihilated by every windowed e_{j,n} that is defined at
    its weight. Returns (weight, (weight index, row), generators verified).
    Raises on non-torsion input, when the cap is exceeded, and
    UndefinedActionError where an e_{i,0} chain reaches an undefined pair.
    """
    if not vec:
        raise ModuleDataError("zero vector")
    if any(_image(block, vec) for _, block in _blocks_at(
            module, heisenberg_keys(module.algebra, gwindow), widx)):
        raise ModuleDataError("not torsion: some Heisenberg generator acts "
                              "nontrivially on the input vector")
    alg = module.algebra
    e_keys = raising_keys(alg, (0,))

    def nilp(v, gk):
        stop, p, t, cur = _power_walk(module.defined.get(gk, {}), module.targets.get(gk),
                                      v[0], {0: v[1]}, cap)
        if stop == "undefined":
            raise UndefinedActionError(f"{gen_name(alg, *gk)} undefined at weight index {t}")
        if stop == "cap":
            raise ModuleDataError(f"nilpotency cap {cap} exceeded during extraction")
        return p, (t, cur[0])

    frontier = [(widx, vec)]
    for _ in range(cap):
        # (p, e^(p-1) w) per frontier vector w and e in e_keys; e^(p-1) w != 0
        degrees = [nilp(w, gk) for w in frontier for gk in e_keys]
        pmax = max(p for p, _ in degrees)
        if pmax == 1:
            out = frontier[0]
            break
        frontier = [img for p, img in degrees if p == pmax]
    else:
        raise ModuleDataError(f"extraction did not stabilize within {cap} rounds")
    # verify annihilation at every windowed loop degree, wherever defined
    blocks = _blocks_at(module, raising_keys(alg, range(-gwindow, gwindow + 1)), out[0])
    for gk, block in blocks:
        if _image(block, out[1]):
            raise ModuleDataError(
                f"extracted vector not annihilated by {gen_name(alg, *gk)}")
    return module.weights[out[0]], out, len(blocks)


def decompose_into_reduced_vermas(module: ExplicitModule, gwindow: int,
                                  cap: int = NILPOTENCY_CAP):
    """Summand weights with highest-weight vectors, plus a dimension audit.

    Requires category membership on the window, with cap the largest
    nilpotency degree accepted both by axiom (2) and by extraction; each
    independent torsion vector is pushed to a fully annihilated vector, and
    the multiset of their weights is audited: on every stored weight space the
    stored dimension must equal the sum of windowed reduced Verma dimensions
    of the claimed summands, and no summand space may lie outside the store.
    Audit failure raises AuditError. A summand is (weight, (weight index, row)).
    """
    report, split = _membership(module, gwindow, cap)
    if not report["passed"]:
        failed = [k for k, v in report["axioms"].items() if not v["passed"]]
        raise ModuleDataError(
            f"module fails category membership axioms {failed}; not decomposable")
    summands = [extract_annihilated_vector(module, widx, vec, gwindow, cap)[:2]
                for widx, vec in split.torsion_vectors()]
    audit = audit_decomposition(module, [w for w, _ in summands])
    return summands, audit


def audit_decomposition(module: ExplicitModule, summand_weights):
    """Exact windowed dimension audit of a claimed decomposition.

    Each claimed summand's windowed weight spaces, with the bounds of the
    module's build and in the order of VermaModule.windowed_store, are added
    forward onto their weights: each offset s the build reaches
    (reached_offsets, no higher than its height) is counted once by
    weight_dims, which reads no lambda. Every stored weight space must match
    its sum, and a summand space of nonzero dimension at a weight the module
    does not store is a mismatch too. A build higher than its window raises
    WindowOverflowError.
    """
    meta = module.meta
    if not meta or "window" not in meta:
        raise AuditError("module carries no window metadata; cannot audit "
                         "against windowed reduced Verma dimensions")
    window, height, kmax = _audit_bounds(meta)
    expected = {}
    reached = None  # (s, weight_dims at s) per offset the build reaches
    for lam, mult in Counter(summand_weights).items():
        verma = VermaModule(module.algebra, lam, reduced=True)
        if reached is None:
            if height > window.H:  # weight_dims fails at the lowest offset past H
                raise WindowOverflowError(
                    f"offset height {window.H + 1} exceeds window H={window.H}")
            reached = [(s, verma.weight_dims(s, window))
                       for s in verma.reached_offsets(window) if sum(s) <= height]
        for s, dims in reached:
            for k in range(-kmax, kmax + 1):
                if k in dims:
                    w = verma.weight_of_offset((k, s))
                    expected[w] = expected.get(w, 0) + mult * dims[k]
    per_weight = [{"weight_index": nu_idx, "expected": expected.pop(nu, 0),
                   "stored": module.dim(nu_idx)}
                  for nu_idx, nu in enumerate(module.weights)]
    mismatches = [row for row in per_weight if row["expected"] != row["stored"]]
    mismatches += [{"weight": repr(w), "expected": n, "stored": 0}
                   for w, n in expected.items()]
    if mismatches:
        raise AuditError(f"decomposition audit failed on {len(mismatches)} "
                         f"weight spaces: {mismatches[:5]}")
    return {"passed": True, "weights_audited": len(per_weight),
            "per_weight": per_weight}


def _audit_bounds(meta):
    """(window, height, kmax) of the build that the dimension audit compares to."""
    w = meta["window"]
    return (TruncationWindow(int(w["L"]), int(w["N"]), int(w["H"])),
            int(meta["height"]), int(meta["kmax"]))

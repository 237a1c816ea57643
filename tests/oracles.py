"""Independent oracles: deliberately different computation paths from the
library (reflection closure instead of root strings, generating functions
instead of enumeration, dense Gauss-Jordan over Fraction cells instead of the
package's sparse fraction-free kernel, dense matrix products and an explicit
basis inverse instead of sparse blocks and annihilator rows, one weight shift
per action pair instead of shifts cached per weight class, every multiset of
window symbols instead of pruned PBW enumeration, symbol-by-symbol weight
offsets, repeated application of VermaModule.act for nilpotency degrees,
the full module's singular report in closed form instead of by elimination,
the reduced module's singular space at an offset whose support is
disconnected as products of its components' spaces instead of one search,
trial action on every table pair instead of pair rules read from the target
weights, axiom (2) one basis vector at a time instead of one chain per
(generator, weight) block, the torsion split and its verdicts one (generator,
weight) table at a time instead of one map per generator, every multiset of at
most ht(s) positive roots instead of the root system's table of Kostant
partitions, every root pair's structure constant reduced to a positive pair
in Fractions instead of each positive triple written out in ints, the
bracket of two PBW symbols from the root pairing and the structure constants
instead of the bracket table, the affine bracket's central term against the
loop translations T_mu), so an agreement is meaningful. sparse_rows
and dense_rows convert between the dense test matrices and the sparse rows
the package kernels take and return.

The last section holds the checks the tests run on library objects and that
the library itself never calls: annihilation of singular vectors beyond the
search window, the affine Cartan entries from the finite
root data, bracket closure of a twisted subalgebra, bracket compatibility of
explicit action tables, the torsion-free restriction of a split, the
column-major form of stored blocks, and the trace of a diagram
automorphism."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from imverma._kernels import nullspace, rank, rref
from imverma.affine import LoopElement, affine_bracket
from imverma.category import (ExplicitModule, GCompatibleSplit,
                              UndefinedActionError, _image, _transpose, gen_name,
                              heisenberg_keys, loop_keys, raising_keys)
from imverma.errors import ModuleDataError
from imverma.finite import _neg, add_scaled
from imverma.verma import VermaModule, Weight, monomial_name, symbol_sort_key


def roots_by_reflection_closure(cartan):
    """All roots as the closure of the simple roots under simple reflections.

    s_i(beta) = beta - beta(h_i) alpha_i with beta(h_i) = sum_j c_j a_ij.
    """
    n = cartan.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple) | {tuple(-x for x in s) for s in simple}
    frontier = list(roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(c * cartan[i, j] for j, c in enumerate(beta))
                image = tuple(beta[j] - (pairing if j == i else 0)
                              for j in range(n))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


def kostant_partitions(positive_roots, s):
    """The multisets of positive roots with coordinate sum s, by brute force:
    every multiset of at most ht(s) roots, each a tuple in positive_roots
    order, kept when its coordinates sum to s."""
    return [combo for f in range(sum(s) + 1)
            for combo in combinations_with_replacement(positive_roots, f)
            if all(sum(g[i] for g in combo) == x for i, x in enumerate(s))]


def colored_partition_counts(ncolors, kmax):
    """Coefficients of prod_{l>=1} (1 - q^l)^(-ncolors) up to q^kmax."""
    series = [0] * (kmax + 1)
    series[0] = 1
    for l in range(1, kmax + 1):
        for _ in range(ncolors):
            for i in range(l, kmax + 1):
                series[i] += series[i - l]
    return series


def string_length_down(root_set, alpha, beta):
    """p = max k with beta - k alpha a root, walked directly."""
    p = 0
    walk = tuple(b - a for a, b in zip(alpha, beta))
    while walk in root_set:
        p += 1
        walk = tuple(w - a for a, w in zip(alpha, walk))
    return p


def structure_constants_by_pairs(rs, norm):
    """N_{a,b} for every pair (a, b) of roots with a + b a root, norm[g] =
    (g|g) for every root g. The positive pairs are bootstrapped from the
    extraspecial pairs (N = p + 1) by Jacobi; every other pair is reduced to
    a positive one by antisymmetry, negation and the norm relation of its
    zero-sum triple, memoised in Fractions."""
    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def minus(a):
        return tuple(-x for x in a)

    table, memo = {}, {}

    def const(a, b):
        if (a, b) not in memo:
            s = plus(a, b)
            if not {a, b, s} <= rs.root_set:
                val = 0
            elif a in rs.positive_set and b in rs.positive_set:
                val = table[(a, b)]
            elif a not in rs.positive_set and b not in rs.positive_set:
                val = -const(minus(a), minus(b))
            elif a not in rs.positive_set:
                val = -const(b, a)
            elif s in rs.positive_set:
                val = Fraction(-norm[s] * const(minus(b), s), norm[a])
            else:
                val = Fraction(-norm[minus(s)] * const(a, minus(s)), norm[minus(b)])
            memo[(a, b)] = val
        return memo[(a, b)]

    pos = rs.positive_roots
    for k, xi in enumerate(pos):
        specials = [(a, b) for j, a in enumerate(pos[:k])
                    if (b := plus(xi, minus(a))) in rs.positive_set and pos.index(b) > j]
        if not specials:
            continue
        (a1, b1), n0 = specials[0], string_length_down(rs.root_set, *specials[0]) + 1
        table[(a1, b1)], table[(b1, a1)] = n0, -n0
        for alpha, beta in specials[1:]:
            # Jacobi on the quadruple (a1, b1, -alpha, -beta)
            t1 = const(b1, minus(alpha)) * const(a1, plus(b1, minus(alpha)))
            t2 = const(minus(alpha), a1) * const(b1, plus(a1, minus(alpha)))
            val = Fraction(-norm[xi] * (t1 + t2), norm[beta] * n0)
            table[(alpha, beta)], table[(beta, alpha)] = val, -val
    return {(a, b): const(a, b) for a in rs.root_set for b in rs.root_set
            if plus(a, b) in rs.root_set}


def dense_rref(rows):
    """Dense Gauss-Jordan reduced row echelon form over Fraction cells.

    Returns (echelon_rows, pivot_columns) with zero rows dropped, the same
    contract as the package's sparse fraction-free rref.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def sparse_rows(rows):
    """Dense rows as the sparse rows {column: value} the package kernels take."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """Sparse rows {column: value}, such as the package kernels return, as
    dense Fraction rows of length ncols, for comparison with the oracles."""
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def gauss_solve_nullspace(rows, ncols):
    """From-scratch exact nullspace: the free-column basis of dense_rref."""
    ech, pivots = dense_rref(rows)
    out = []
    piv = set(pivots)
    for free in range(ncols):
        if free in piv:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -ech[prow][free]
        out.append(v)
    return out


def dense_mat_mul(a, b):
    """Product of dense Fraction row lists, cell by cell ([] if either is empty)."""
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] += v * b[t][j]
    return out


def t_projection(t_rows, tf_rows):
    """Rows projecting a vector onto its T coordinates along TF.

    The T and TF rows together are a basis; the first len(t_rows) rows of the
    inverse of the matrix with these basis vectors as columns read off the T
    part of a vector's coordinates. The inverse comes from dense_rref of the
    matrix augmented by the identity.
    """
    basis = t_rows + tf_rows
    n = len(basis)
    aug = [[basis[r][c] for r in range(n)] + [Fraction(int(j == c)) for j in range(n)]
           for c in range(n)]
    ech, pivots = dense_rref(aug)
    assert pivots == list(range(n)), "T and TF rows are not a basis"
    return [row[n:] for row in ech[:len(t_rows)]]


def solve_invariant_form(algebra):
    """Symmetric invariant form from first principles.

    Unknowns: B(b_i, b_j) for i <= j. Constraints: B([x,y],z) = B(x,[y,z])
    over all basis triples. The solution space of a simple algebra is one
    dimensional; the anchor B(x_theta, x_{-theta}) = 1 matches normalizing
    (theta|theta) = 2. Returns a dict over basis-key pairs.
    """
    basis = algebra.basis
    n = len(basis)
    var_index = {}
    for i in range(n):
        for j in range(i, n):
            var_index[(i, j)] = len(var_index)
    nvars = len(var_index)

    def vi(i, j):
        return var_index[(i, j)] if i <= j else var_index[(j, i)]

    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * nvars
                for key, c in algebra._bracket_table.get((basis[i], basis[j]), {}).items():
                    row[vi(algebra.basis_index[key], k)] += c
                for key, c in algebra._bracket_table.get((basis[j], basis[k]), {}).items():
                    row[vi(i, algebra.basis_index[key])] -= c
                if any(row):
                    rows.append(row)
    kernel = gauss_solve_nullspace(rows, nvars)
    assert len(kernel) == 1, f"invariant form space has dim {len(kernel)}"
    sol = kernel[0]
    theta = algebra.roots.theta
    i_top = algebra.basis_index[("x", theta)]
    i_bot = algebra.basis_index[("x", tuple(-x for x in theta))]
    anchor = sol[vi(i_top, i_bot)]
    assert anchor != 0
    scale = Fraction(1) / anchor
    out = {}
    for i in range(n):
        for j in range(n):
            out[(basis[i], basis[j])] = scale * sol[vi(i, j)]
    return out


def sl2_lowering_string_coefficient(lam_h, k):
    """e f^k v = k (lam - k + 1) f^{k-1} v in the sl2 Verma module."""
    return Fraction(k) * (lam_h - k + 1)


def weight_offset(v):
    """(k, s) of a homogeneous ModuleVector, else None: each symbol adds its
    own offset, (n, gamma) for F(gamma, n) and (-l, 0) for B(i, l)."""
    offsets = set()
    for mono in v.terms:
        k, s = 0, (0,) * v.module.rank
        for sym in mono:
            if sym[0] == "B":
                k -= sym[2]
            else:
                k += sym[2]
                s = tuple(a + b for a, b in zip(s, sym[1]))
        offsets.add((k, s))
    return offsets.pop() if len(offsets) == 1 else None


def nilpotency_degree(mod, v, i, n, cap=16):
    """The least p <= cap with e_{i,n}^p v = 0 under VermaModule.act, or None."""
    g = mod.algebra.e(i, n)
    for p in range(cap + 1):
        if v.is_zero():
            return p
        v = mod.act(g, v)
    return None


def vanishes_by_weight(key, s):
    """True when key (x) t^n is zero on every weight space of offset s, in the
    module and in its reduced quotient, for every n.

    A root vector x_gamma maps the offset s to s - gamma. Every PBW monomial
    has an offset with no negative coordinate, since each symbol adds a
    positive root or nothing; so when s - gamma has a negative coordinate
    the target weight space is zero, and so is the image. Only positive
    roots gamma can do this, as s >= 0; Cartan loops keep s and never do.
    """
    return key[0] == "x" and any(a < g for a, g in zip(s, key[1]))


def weight_shift(algebra, w, gkey):
    """The weight x_gamma (x) t^n or h_i (x) t^n maps w to, with
    gamma(h_i) = sum_j c_j a_ij read off the Cartan matrix."""
    (kind, val), n = gkey
    hs = w.h_values
    if kind == "x":
        cartan = algebra.finite.cartan
        hs = tuple(h + sum(c * cartan[i, j] for j, c in enumerate(val))
                   for i, h in enumerate(hs))
    return Weight(hs, w.c_value, w.d_value + n)


def loop_translation(algebra, mu, x):
    """T_mu(x) for a loop element x with no d part and mu = sum_i m_i h_i in
    the coroot lattice, given as (m_1, ..., m_N), with c fixed:

        T_mu(x_gamma (x) t^n) = x_gamma (x) t^{n + gamma(mu)}
        T_mu(h (x) t^n)       = h (x) t^n + delta_{n,0} (mu|h) c

    gamma(mu) is read through FiniteRootSystem.pairing and (mu|h) through
    form_keys. T_mu is an automorphism of the loop algebra plus C c: the
    central shift is what the bracket's central term asks for."""
    fin = algebra.finite
    terms = {}
    c = x.c
    for (key, n), v in x.terms.items():
        if key[0] == "x":
            terms[(key, n + sum(m * fin.roots.pairing(key[1], i)
                                for i, m in enumerate(mu)))] = v
        else:
            terms[(key, n)] = v
            if n == 0:
                c += v * sum(m * fin.form_keys(("h", i + 1), key)
                             for i, m in enumerate(mu))
    return LoopElement(algebra, terms, c=c)


def negative_symbol_bracket(fin, s1, s2):
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
        res = negative_symbol_bracket(fin, s2, s1)
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


def brute_basis_monomials(mod, offset, window):
    """Every multiset of at most window.L window symbols with the given (k, s)
    offset (only s when k is None), in canonical order.

    The symbols are B(i, l) for 1 <= l <= N unless the module is reduced, and
    F(gamma, n) for |n| <= N with gamma a positive root from
    roots_by_reflection_closure; nothing is pruned before the offset filter.
    """
    k, s = offset
    rank = mod.rank
    n_max = window.N
    positive = [r for r in roots_by_reflection_closure(mod.algebra.finite.cartan)
                if min(r) >= 0]
    symbols = [("F", gamma, n) for gamma in positive
               for n in range(-n_max, n_max + 1)]
    if not mod.reduced:
        symbols += [("B", i, l) for i in range(1, rank + 1)
                    for l in range(1, n_max + 1)]
    symbols.sort(key=symbol_sort_key)
    out = []
    for length in range(window.L + 1):
        for mono in combinations_with_replacement(symbols, length):
            degree = sum(sym[2] if sym[0] == "F" else -sym[2] for sym in mono)
            coords = tuple(sum(sym[1][i] for sym in mono if sym[0] == "F")
                           for i in range(rank))
            if coords == tuple(s) and k in (None, degree):
                out.append(mono)
    return sorted(out, key=lambda m: [symbol_sort_key(sym) for sym in m])


def full_singular_closed_form(mod, window):
    """The windowed singular report of the full module M(lambda), in closed
    form instead of by elimination, as the (offset, {monomial: 1}) pairs that
    singular_vectors lists over every s of height <= window.H.

    At lambda(c) = 0 a Cartan loop h_{i,l} (l > 0) commutes with every
    B-symbol and multiplies the F-part by sum_j -gamma_j(h_i) z_j^l, so the
    h_{i,1} are jointly injective on every space with s != 0; every vector
    at s = 0 is killed, by the h_{i,l} since they kill v, and by the e_{i,m}
    by weight. The report is each PBW basis vector at s = 0, a unit vector,
    by k, then in canonical order: every F-symbol adds a positive root to s,
    so these are the multisets of at most window.L symbols B(i, l), l <= N.
    At lambda(c) != 0 it is the line of v (Futorny, Canad. Math. Bull. 37,
    1994).
    """
    zero = (0,) * mod.rank
    if mod.lam.c_value:
        return [((0, zero), {(): 1})]
    symbols = sorted((("B", i, l) for i in range(1, mod.rank + 1)
                      for l in range(1, window.N + 1)), key=symbol_sort_key)
    monos = [m for length in range(window.L + 1)
             for m in combinations_with_replacement(symbols, length)]
    monos.sort(key=lambda m: (-sum(sym[2] for sym in m), [symbol_sort_key(s) for s in m]))
    return [((-sum(sym[2] for sym in m), zero), {m: 1}) for m in monos]


def support_components(cartan, s):
    """s = s_1 + ... + s_c split by the connected components of its support
    in the Dynkin diagram (i and j adjacent when a_ij != 0), each s_j the
    restriction of s to one component, by least index."""
    left = [i for i, x in enumerate(s) if x]
    parts = []
    while left:
        component = [left.pop(0)]
        for i in component:  # a breadth-first walk: the list grows as it is read
            near = [j for j in left if cartan[i, j]]
            component += near
            left = [j for j in left if j not in near]
        parts.append(tuple(x if i in component else 0 for i, x in enumerate(s)))
    return parts


def factored_singular_space(mod, s, window):
    """{k: singular vectors as {monomial: coeff}} at the finite offset s of the
    reduced module mod, built from its components instead of one search: for
    s = s_1 + ... + s_c split by support_components, the products
    u_1 ... u_c v of the search's vectors u_j v at (k_j, s_j) over every
    k_1 + ... + k_c = k. F-symbols of different components commute (their
    roots' sum is not a root, and the reduced module has no central term), so
    a product of monomials is their symbols merged in canonical order, with
    the product of the coefficients. With window.L >= ht(s) these span the
    search's space at each (k, s) (README, Windowing semantics)."""
    assert mod.reduced and sum(s) <= window.L
    products = {0: [{(): 1}]}
    for part in support_components(mod.algebra.finite.cartan, s):
        found = {}
        for (k, _), u in mod.singular_vectors([(None, part)], window):
            found.setdefault(k, []).append(u.terms)
        convolved = {}
        for k1, us in products.items():
            for k2, ws in found.items():
                convolved.setdefault(k1 + k2, []).extend(
                    {tuple(sorted(m1 + m2, key=symbol_sort_key)): c1 * c2
                     for m1, c1 in u.items() for m2, c2 in w.items()}
                    for u in us for w in ws)
        products = convolved
    return products


def _nilpotency(module, gkey, widx, vec, cap):
    """(p, (weight index, gkey^(p-1) vec)) for the least p <= cap with
    gkey^p vec = 0 on the row vec of space widx, or None; gkey is applied at
    most cap times."""
    p, last = 0, None
    while vec:
        if p >= cap:
            return None
        last = widx, vec
        widx, vec = module.apply(gkey, widx, vec)
        p += 1
    return p, last


def axiom2_by_basis_vector(module, gwindow, cap):
    """Axiom (2) of check_category_membership one basis vector at a time:
    each windowed e_{i,n} that the module stores is applied to each unit
    vector through ExplicitModule.apply until the image vanishes (checked),
    the cap is reached first (a violation) or an undefined pair raises
    (inconclusive)."""
    fails = []
    inconclusive = 0
    checked = 0
    for gk in raising_keys(module.algebra, range(-gwindow, gwindow + 1)):
        if gk not in module.defined:
            continue
        for widx in range(len(module.weights)):
            for j in range(module.dim(widx)):
                try:
                    found = _nilpotency(module, gk, widx, {j: Fraction(1)}, cap)
                except UndefinedActionError:
                    inconclusive += 1
                    continue
                if found is None:
                    fails.append({"generator": gen_name(module.algebra, *gk),
                                  "weight_index": widx, "basis_index": j,
                                  "cap": cap})
                else:
                    checked += 1
    return {"passed": not fails, "violations": fails, "checked": checked,
            "inconclusive": inconclusive, "cap": cap}


def g_kernel_raw(module, widx, gwindow):
    """(joint kernel of the Heisenberg generators defined at one weight space,
    read one table at a time, or None where none is; their number)."""
    n = module.dim(widx)
    rows = []
    used = 0
    for gk in heisenberg_keys(module.algebra, gwindow):
        entry = module.table(gk, widx)
        if entry is None:
            continue
        used += 1
        rows.extend(_transpose(entry[0]).values())
    return nullspace(rows, n) if used else None, used


def torsion_decompose_by_pair(module, gwindow):
    """torsion_decompose one (generator, weight) pair at a time: every block
    and target, for the torsion kernel, the arrivals and verdicts (ii)-(iv),
    is read through ExplicitModule.table at that pair."""
    split = GCompatibleSplit(module, gwindow)
    hkeys = heisenberg_keys(module.algebra, gwindow)
    admissible = []
    for widx, w in enumerate(module.weights):
        if module.dim(widx) == 0:
            continue
        if not w.is_reduced_admissible():
            split.excluded.append(widx)
            continue
        kernel, _ = g_kernel_raw(module, widx, gwindow)
        if kernel is None:
            split.unchecked.append(widx)
            continue
        admissible.append(widx)
        if kernel:
            split.torsion[widx] = kernel
    if split.unchecked and not admissible:
        raise ModuleDataError(
            "window too small: no Heisenberg generator is evaluable on any "
            "admissible weight space")
    arrivals = {widx: [] for widx in admissible}
    for gk in hkeys:
        for src in module.defined.get(gk, ()):
            mat, tgt = module.table(gk, src)
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
    _check_axioms_by_pair(split)
    return split


def _check_axioms_by_pair(split):
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
    iv_fail = []
    iv_skip = 0
    for widx, rows in split.torsion.items():
        for gk in hkeys:
            entry = module.table(gk, widx)
            if entry is None:
                iv_skip += 1
                continue
            for row in rows:
                if _image(entry[0], row):
                    iv_fail.append({"generator": gen_name(module.algebra, *gk),
                                    "weight_index": widx})
    split.verdicts["iv"] = {"passed": not iv_fail, "violations": iv_fail,
                            "skipped": iv_skip}
    inj_fail = []
    surj_fail = []
    checked = 0
    skipped = 0
    gens = range(1, module.algebra.rank + 1)
    for widx, tf_rows in split.torsion_free.items():
        for l in (l for l in range(-gwindow, gwindow + 1) if l):
            entries = [module.table((("h", i), l), widx) for i in gens]
            if None in entries:
                skipped += 1
                continue
            checked += 1
            tgt = entries[0][1]
            ntgt = 0 if tgt is None else module.dim(tgt)
            images = [[_image(mat, row) for row in tf_rows] for mat, _ in entries]
            stacked = [{c + i * ntgt: x for i, imgs in enumerate(images)
                        for c, x in imgs[j].items()} for j in range(len(tf_rows))]
            if rank(stacked, len(gens) * ntgt) != len(tf_rows):
                inj_fail.append({"degree": l, "weight_index": widx})
            if all(module.table((("h", i), -l), tgt) is not None for i in gens):
                spanned = rank([img for imgs in images for img in imgs], ntgt)
                if spanned != len(split.torsion_free.get(tgt, [])):
                    surj_fail.append({"degree": l, "weight_index": widx})
            else:
                skipped += 1
    split.verdicts["ii"] = {"passed": not inj_fail and not surj_fail,
                            "injectivity_violations": inj_fail,
                            "surjectivity_violations": surj_fail,
                            "checked": checked, "skipped": skipped}
    outside = set(split.excluded + split.unchecked + split.deficient)
    annihilators = {w: nullspace(split.torsion_free.get(w, []), module.dim(w))
                    for w in range(len(module.weights)) if w not in outside}
    iii_candidates = []
    for widx, tf_rows in split.torsion_free.items():
        n = module.dim(widx)
        escape_rows = []
        for gk in module.generator_keys():
            entry = module.table(gk, widx)
            if entry is None or entry[1] is None:
                continue
            mat, tgt = entry
            ntgt = module.dim(tgt)
            rows = _transpose(mat)
            if tgt in outside:
                escape_rows.extend(rows.get(r, {}) for r in range(ntgt))
            else:
                escape_rows.extend(_image(rows, a) for a in annihilators[tgt])
        if not escape_rows:
            continue
        kernel = nullspace(escape_rows, n)
        if kernel and rank(kernel + tf_rows, n) < len(kernel) + len(tf_rows):
            iii_candidates.append({"weight_index": widx})
    split.verdicts["iii"] = {
        "passed": not iii_candidates,
        "candidate_invariant_subspaces": iii_candidates,
        "note": f"verified within window (loop degrees <= {gwindow}); "
                "no finite criterion exists beyond the window",
    }
    isolated = {}
    for widx in split.torsion:
        w = module.weights[widx]
        isolated[str(widx)] = True
        for l in range(-gwindow, gwindow + 1):
            nid = module.windex.get(Weight(w.h_values, w.c_value, w.d_value + l))
            if l and nid is not None and nid in split.torsion:
                isolated[str(widx)] = False
    split.verdicts["torsion_isolated"] = {"passed": True, "by_weight": isolated}


def windowed_spaces(mod, kmax, window):
    """((k, s), weight, PBW basis) of each nonzero windowed weight space of
    mod with |k| <= kmax, in order of s, then k: every space that
    weight_bases lists at each reached s, with those out of range dropped
    after listing (VermaModule.windowed_store drops them before)."""
    for s in mod.reached_offsets(window):
        bases = mod.weight_bases(s, window)
        for k in range(-kmax, kmax + 1):
            if k in bases:
                yield (k, s), mod.weight_of_offset((k, s)), bases[k]


def reduced_verma_by_trial_action(algebra, lam, kmax, window, loop_window):
    """ExplicitModule.from_reduced_verma by trial action alone: every
    (generator, source) pair that does not vanish by weight acts on each
    basis monomial in turn, and is undefined at the first image monomial
    outside the store; no pair is decided from its target weight. Every
    image monomial inside the store must lie at weight_shift of its source."""
    mod = VermaModule(algebra, lam, reduced=True)
    spaces = list(windowed_spaces(mod, kmax, window))
    mono_index = {m: (widx, j) for widx, (_, _, basis) in enumerate(spaces)
                  for j, m in enumerate(basis)}
    defined = {}
    for gkey in loop_keys(algebra, loop_window):
        key, n = gkey
        per_src = defined[gkey] = {}
        for widx, ((_, s), w, basis) in enumerate(spaces):
            if vanishes_by_weight(key, s):
                per_src[widx] = {}
                continue
            block = {}
            try:
                for j, m in enumerate(basis):
                    for m2, c2 in mod.act_monomial(key, n, m).items():
                        tgt, r = mono_index[m2]
                        assert spaces[tgt][1] == weight_shift(algebra, w, gkey)
                        block.setdefault(j, {})[r] = mod.unscale(c2)
            except KeyError:
                continue
            per_src[widx] = block
    meta = {"kind": "reduced-verma", "height": window.H, "kmax": kmax,
            "window": {"L": window.L, "N": window.N, "H": window.H}}
    return ExplicitModule(algebra, [w for _, w, _ in spaces],
                          [[monomial_name(m) for m in basis] for _, _, basis in spaces],
                          defined, provenance="reduced-verma",
                          loop_window=loop_window, meta=meta)


# -- checks on library objects -------------------------------------------------------


def beyond_window_survivors(mod, found, window, extra=2):
    """The (offset, operator name) pairs where a raising operator just past
    the window fails to kill a reported singular vector, by exact
    VermaModule.act: e_{i,m} for N < |m| <= N + extra, and h_{i,l} for
    N < l <= N + extra in the unreduced module. A singular vector of the
    module is killed by all of them, so an entry is a window artifact."""
    alg = mod.algebra
    beyond = range(window.N + 1, window.N + extra + 1)
    ops = []
    for i in range(1, mod.rank + 1):
        ops += [(f"e{i}@{m}", alg.e(i, m)) for l in beyond for m in (-l, l)]
        if not mod.reduced:
            ops += [(f"h{i}@{l}", alg.h(i, l)) for l in beyond]
    return [(offset, name) for offset, v in found for name, g in ops
            if not mod.act(g, v).is_zero()]


def affine_cartan_entry(algebra, i, j):
    """a_ij of the affine Cartan matrix, indices 0..N, from the finite root
    data: alpha_j(h_0) = -alpha_j(h_theta) since h_0 = c - h_theta, and
    alpha_0(h_i) = -theta(h_i)."""
    fin = algebra.finite
    theta = algebra.theta
    if i >= 1 and j >= 1:
        return fin.cartan[i - 1, j - 1]
    if i == 0 and j == 0:
        return 2
    if j == 0:
        return -fin.roots.pairing(theta, i - 1)
    # alpha_j(h_theta) = 2 (alpha_j|theta)/(theta|theta)
    aj = fin.roots.simple_roots[j - 1]
    val = 2 * fin.root_form(aj, theta) / fin.root_form(theta, theta)
    assert val.denominator == 1, "non-integral affine Cartan entry"
    return -int(val)


def check_bracket_closure(tw):
    """Whether [piece_m, piece_m'] lands in piece_{m+m'} + C c for every pair
    of degrees inside the window of a TwistedSubalgebra."""
    dim = tw.algebra.finite.dimension
    failures = []
    checked = 0
    for m in range(-tw.window, tw.window + 1):
        for mp in range(m, tw.window + 1):
            if abs(m + mp) > tw.window:
                continue
            target = tw.even_basis if (m + mp) % 2 == 0 else tw.odd_basis
            target_rows = [tw._finite_coords(x) for x in target]
            base_rank = rank(target_rows, dim)
            for u in tw.graded_basis(m):
                for v in tw.graded_basis(mp):
                    w = affine_bracket(u, v)
                    checked += 1
                    if w.d:
                        failures.append({"degrees": [m, mp], "reason": "d component"})
                        continue
                    fin_terms = {}
                    for (k, n), cv in w.terms.items():
                        if n != m + mp:
                            failures.append({"degrees": [m, mp],
                                             "reason": f"stray degree {n}"})
                            break
                        fin_terms[k] = cv
                    else:
                        x = tw.algebra.finite.element(fin_terms)
                        if not x.is_zero() and (
                                rank(target_rows + [tw._finite_coords(x)], dim)
                                != base_rank):
                            failures.append({"degrees": [m, mp],
                                             "reason": "image outside eigenspace"})
    return {"checked_brackets": checked, "failures": failures,
            "passed": not failures}


def _keyed(image):
    """An apply result (target, row) as {(target, r): v}."""
    target, row = image
    return {(target, r): v for r, v in row.items()}


def check_bracket_compatibility(module, max_pairs=None, rng_seed=0):
    """[g,g'] action == commutator of actions wherever everything is defined,
    on an ExplicitModule.

    Returns (checked, failures). max_pairs samples generator pairs for
    large modules; None checks every pair.
    """
    alg = module.algebra
    gkeys = module.generator_keys()
    pairs = [(g1, g2) for i, g1 in enumerate(gkeys) for g2 in gkeys[i + 1:]]
    if max_pairs is not None and len(pairs) > max_pairs:
        pairs = random.Random(rng_seed).sample(pairs, max_pairs)
    checked = 0
    failures = []
    for g1, g2 in pairs:
        b = affine_bracket(alg.loop(alg.finite.element({g1[0]: 1}), g1[1]),
                           alg.loop(alg.finite.element({g2[0]: 1}), g2[1]))
        for widx, w in enumerate(module.weights):
            for j in range(module.dim(widx)):
                vec = {j: Fraction(1)}
                # g1 g2 v == [g1, g2] v + g2 g1 v, compared as sparse dicts
                try:
                    lhs = _keyed(module.apply(g1, *module.apply(g2, widx, vec)))
                    rhs = _keyed(module.apply(g2, *module.apply(g1, widx, vec)))
                    for (key, n), cv in b.terms.items():
                        add_scaled(rhs, _keyed(module.apply((key, n), widx, vec)), cv)
                    if b.c and w.c_value:
                        add_scaled(rhs, {(widx, j): w.c_value}, b.c)
                except UndefinedActionError:
                    continue
                checked += 1
                if lhs != rhs:
                    failures.append({"pair": [gen_name(alg, *g1), gen_name(alg, *g2)],
                                     "weight_index": widx, "basis_index": j})
    return checked, failures


def torsion_free_restriction(split):
    """The TF part of a GCompatibleSplit as a Heisenberg-module slice
    (h-generator tables only).

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
    defined = {}
    for gk in heisenberg_keys(module.algebra, split.gwindow):
        per_src = defined[gk] = {}
        for src in keep:
            entry = module.table(gk, src)
            if entry is None:
                continue
            mat, tgt = entry
            if tgt not in new_of_old:
                # a zero image is exact; anything else leaves the slice
                if not mat:
                    per_src[new_of_old[src]] = {}
                continue
            tgt_rows = split.torsion_free[tgt]
            piv = pivots[tgt]
            block = {}
            ok = True
            for col, tf_row in enumerate(split.torsion_free[src]):
                img = _image(mat, tf_row)
                coeffs = [img.get(p, 0) for p in piv]
                recon = {}
                for cval, row in zip(coeffs, tgt_rows):
                    add_scaled(recon, row, cval)
                if recon != img:
                    ok = False
                    break
                column = {r: cval for r, cval in enumerate(coeffs) if cval}
                if column:
                    block[col] = column
            if ok:
                per_src[new_of_old[src]] = block
    return ExplicitModule(module.algebra, weights, labels, defined,
                          provenance=f"{module.provenance}+torsion-free",
                          loop_window=split.gwindow, meta=None)


def block_violations(module):
    """(generator name, source weight index, reason) for every stored block of
    an ExplicitModule that breaks the column-major form {source coordinate:
    {target coordinate: v}}: keys are ints below the source and target
    dimensions, no value is zero, no column is empty, and a block without a
    target weight is empty."""
    out = []
    for gk, per_src in module.defined.items():
        name = gen_name(module.algebra, *gk)
        for src, block in per_src.items():
            tgt = module.table(gk, src)[1]
            ntgt = 0 if tgt is None else module.dim(tgt)
            if tgt is None and block:
                out.append((name, src, "nonzero block without a target weight"))
            for j, column in block.items():
                if type(j) is not int or not 0 <= j < module.dim(src):
                    out.append((name, src, f"source key {j!r}"))
                if not isinstance(column, dict) or not column:
                    out.append((name, src, f"column {j!r} is not a nonempty dict"))
                    continue
                for r, v in column.items():
                    if type(r) is not int or not 0 <= r < ntgt:
                        out.append((name, src, f"target key {r!r} in column {j!r}"))
                    if not v:
                        out.append((name, src, f"zero at ({r!r}, {j!r})"))
    return out


def automorphism_trace(aut):
    """Trace of a DiagramAutomorphism on the finite algebra: the sign of each
    basis key that image_key sends to itself."""
    total = 0
    for key in aut.algebra.basis:
        s, image = aut.image_key(key)
        if image == key:
            total += s
    return total

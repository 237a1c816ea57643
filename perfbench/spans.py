"""Spans around the library's layer entry points, recorded from outside it.

The library imports its entry points by name (`category` and `affine` bind
`nullspace`/`rank`/`rref`, `cli` binds `torsion_decompose` and friends,
`VermaModule.singular_vectors` imports `nullspace` lazily from
`imverma._kernels`), so a wrapper on the defining module alone would miss most
calls. `Tracer.install` therefore replaces the original at every lookup site:
each `imverma.*` module attribute that is the original function, and the class
attribute for methods. The backend modules under `imverma._kernels.` are
skipped, so a kernel's internal calls stay inside its own span.

A span is (id, parent id, op id, name, start, end). Spans are kept in memory
in one flat array and written once, by `Tracer.dump`. Self time is a span's
duration minus the time of its child spans; bookkeeping done by the wrapper
after a call (shape statistics) is charged to no layer.
"""

import gzip
import json
import sys
from array import array
from collections import defaultdict
from itertools import count
from time import perf_counter

# (span name, module, attribute) for module functions, (span name, module,
# class, attribute) for methods.
FUNCTIONS = (
    ("kernels.nullspace", "imverma._kernels", "nullspace"),
    ("kernels.rref", "imverma._kernels", "rref"),
    ("kernels.rank", "imverma._kernels", "rank"),
    ("finite.build_simple_algebra", "imverma.finite", "build_simple_algebra"),
    ("category.torsion_decompose", "imverma.category", "torsion_decompose"),
    ("category.check_category_membership", "imverma.category",
     "check_category_membership"),
    ("category.extract_annihilated_vector", "imverma.category",
     "extract_annihilated_vector"),
    ("category.audit_decomposition", "imverma.category", "audit_decomposition"),
    ("category.decompose_into_reduced_vermas", "imverma.category",
     "decompose_into_reduced_vermas"),
    ("cli.main", "imverma.cli", "main"),
)
METHODS = (
    ("affine.AffineAlgebra", "imverma.affine", "AffineAlgebra", "__init__"),
    ("verma.act", "imverma.verma", "VermaModule", "act"),
    ("verma.singular_vectors", "imverma.verma", "VermaModule", "singular_vectors"),
    ("verma.basis_monomials", "imverma.verma", "VermaModule", "basis_monomials"),
    ("category.from_reduced_verma", "imverma.category", "ExplicitModule",
     "from_reduced_verma"),
    ("category.direct_sum", "imverma.category", "ExplicitModule", "direct_sum"),
    ("category.scrambled", "imverma.category", "ExplicitModule", "scrambled"),
    ("category.apply", "imverma.category", "ExplicitModule", "apply"),
)
KERNELS = ("kernels.nullspace", "kernels.rref", "kernels.rank")
COUNTED = KERNELS + ("verma.act", "verma.basis_monomials",
                     "category.from_reduced_verma")


def _kernel_shape(name, args, result):
    """(rows, cols, nnz, rank, kernel dim, max numerator bits, max den bits)."""
    rows = args[0]
    if name == "kernels.nullspace":
        cols = args[1]
    else:
        cols = len(rows[0]) if rows else 0
    nnz = num_bits = den_bits = 0
    for row in rows:
        for x in (row.values() if isinstance(row, dict) else row):
            if x:
                nnz += 1
                num_bits = max(num_bits, abs(x.numerator).bit_length())
                den_bits = max(den_bits, x.denominator.bit_length())
    if name == "kernels.nullspace":
        rk = cols - len(result)
    elif name == "kernels.rref":
        rk = len(result[1])
    else:
        rk = result
    return (len(rows), cols, nnz, rk, cols - rk, num_bits, den_bits)


class Tracer:
    def __init__(self):
        self.names = [n for n, *_ in FUNCTIONS + METHODS]
        self._name_ix = {n: i for i, n in enumerate(self.names)}
        # six numbers per span: id, parent id, op id, name index, start, end
        self.spans = array("d")
        self.shapes = []  # (kernel name, *_kernel_shape(...)) per kernel call
        self.stats = {n: defaultdict(float) for n in self.names}
        self.op_id = 0
        self._ids = count(1)
        self._stack = [[0, 0.0]]  # [span id, child time]; bottom is the root
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _post(self, name, stat, args, result):
        if name in KERNELS:
            shape = _kernel_shape(name, args, result)
            self.shapes.append((name,) + shape)
            stat["cells"] += shape[0] * shape[1]
            stat["nnz"] += shape[2]
            if name == "kernels.nullspace" and not result:
                stat["empty"] += 1
        elif name == "verma.act":
            stat["terms_out"] += len(result.terms)
        elif name == "verma.basis_monomials":
            stat["monomials"] += len(result)
        elif name == "category.from_reduced_verma":
            stat["defined_pairs"] += sum(len(s) for s in result.defined.values())
            stat["attempted_pairs"] += len(result.defined) * len(result.weights)

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        ids = self._ids
        stat = self.stats[name]
        name_ix = self._name_ix[name]
        counted = name in COUNTED

        def traced(*args, **kwargs):
            t0 = perf_counter()
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += (t1 - t0) - frame[1]
                spans.extend((frame[0], parent[0], tracer.op_id, name_ix, t0, t1))
                if ok and counted:
                    tracer._post(name, stat, args, result)
                parent[1] += perf_counter() - t0
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        sites = [m for n, m in sorted(sys.modules.items())
                 if (n == "imverma" or n.startswith("imverma."))
                 and not n.startswith("imverma._kernels.")]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in sites:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            if isinstance(orig, staticmethod):
                wrapper = staticmethod(self._wrap(name, orig.__func__))
            else:
                wrapper = self._wrap(name, orig)
            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def take_stats(self):
        """Stats since the last call, as {name: {stat: value}}; then reset."""
        out = {k: dict(v) for k, v in self.stats.items() if v}
        for v in self.stats.values():
            v.clear()
        return out

    # -- output ------------------------------------------------------------

    def shape_histogram(self):
        """Kernel calls bucketed by kernel and power-of-two rows and cols."""
        buckets = {}
        for name, rows, cols, nnz, rk, kdim, nbits, dbits in sorted(
                self.shapes, key=lambda s: (s[0], s[1].bit_length(), s[2].bit_length())):
            key = f"{name} rows {_bin(rows)} cols {_bin(cols)}"
            b = buckets.setdefault(key, {"calls": 0, "cells": 0, "nnz": 0,
                                         "rank_max": 0, "kdim_max": 0,
                                         "empty_kernel": 0, "num_bits_max": 0,
                                         "den_bits_max": 0})
            b["calls"] += 1
            b["cells"] += rows * cols
            b["nnz"] += nnz
            b["rank_max"] = max(b["rank_max"], rk)
            b["kdim_max"] = max(b["kdim_max"], kdim)
            b["empty_kernel"] += kdim == 0
            b["num_bits_max"] = max(b["num_bits_max"], nbits)
            b["den_bits_max"] = max(b["den_bits_max"], dbits)
        for b in buckets.values():
            b["density"] = round(b["nnz"] / b["cells"], 4) if b["cells"] else 0.0
        return buckets

    def dump(self, path, extra):
        """Write every span, the shape histogram and `extra`, once."""
        cols = [self.spans[i::6] for i in range(6)]
        t0 = cols[4][0] if self.spans else 0.0
        blob = dict(extra)
        blob["span_names"] = self.names
        blob["spans"] = {
            "id": [int(x) for x in cols[0]],
            "parent": [int(x) for x in cols[1]],
            "op": [int(x) for x in cols[2]],
            "name": [int(x) for x in cols[3]],
            "start_us": [round((t - t0) * 1e6) for t in cols[4]],
            "end_us": [round((t - t0) * 1e6) for t in cols[5]],
        }
        blob["kernel_shapes"] = self.shape_histogram()
        with gzip.open(path, "wt") as fh:
            json.dump(blob, fh)


def _bin(n):
    """Power-of-two bin label: 0, 1, 2-3, 4-7, ..."""
    if n < 2:
        return str(n)
    lo = 1 << (n.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"

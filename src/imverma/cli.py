"""Command-line interface: batch computations with deterministic reports.

Subcommands: algebra | roots | partition | verma-dims | verma-act | singular |
category-check | category-split | category-decompose | loopmod.

Every report embeds the configuration it was produced from; JSON is emitted
with sorted keys and CSV rows in a fixed order, so identical configs give
byte-identical output. Rationals are serialized as exact "p/q" strings. Exit
codes: 0 success, 1 domain error (library diagnostic verbatim on stderr),
2 usage error.
"""

import argparse
import json
import os
import re
import sys
from functools import cache

from imverma.affine import (AffineAlgebra, check_closed_partition, natural_spec,
                            standard_spec, twisted_fixed_subalgebra)
from imverma.cartan import cartan_matrix_of_type, cartan_matrix_from_text
from imverma.category import (GEN_NAME, ExplicitModule, _nonneg_vectors,
                              build_loop_module, check_category_membership,
                              decompose_into_reduced_vermas, parse_gen,
                              sl2_irrep_matrices, torsion_decompose)
from imverma.errors import CartanMatrixError, ImvermaError, ModuleDataError
from imverma.finite import build_simple_algebra, diagram_automorphism
from imverma.verma import (TruncationWindow, VermaModule, _monomial_sort_key,
                           monomial_name, parse_weight, parse_window, symbol_sort_key)

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _load_algebra(args) -> AffineAlgebra:
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as ex:
                raise CartanMatrixError(f"{args.matrix_file}: not text: {ex}") from None
        cartan = cartan_matrix_from_text(text)
    elif getattr(args, "type", None):
        try:
            cartan = cartan_matrix_of_type(args.type)
        except CartanMatrixError as ex:
            raise UsageError(str(ex))
    else:
        raise UsageError("one of --type or --matrix-file is required")
    return AffineAlgebra(build_simple_algebra(cartan))


def _parse_weight_arg(text, rank):
    try:
        return parse_weight(text or "", rank)
    except ImvermaError as ex:
        raise UsageError(str(ex))


def _parse_window_arg(text):
    try:
        return parse_window(text)
    except ImvermaError as ex:
        raise UsageError(str(ex))


# parsed values that are not configuration: the subcommand and its handler
# (named by the report itself), and where and how the report is written
_NOT_CONFIG = {"command", "config", "func", "out", "format"}


def _report(args, result):
    """The report of a run: its command, the configuration it ran with (every
    flag value that was set) and its result."""
    config = {k: v for k, v in vars(args).items()
              if v is not None and k not in _NOT_CONFIG}
    return {"schema_version": SCHEMA_VERSION, "command": args.command,
            "config": config, "result": result}


def _emit(args, payload):
    """Write a report: a dict as sorted JSON, a str (pre-rendered CSV) as is."""
    text = payload if isinstance(payload, str) else \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        outdir = os.environ.get("IMVERMA_OUTDIR", "")
        if outdir and not os.path.isabs(out):
            out = os.path.join(outdir, out)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# PBW symbols F[1,1]@-2 and B1@3; a --monomial list splits only at commas
# outside [...]
_SYMBOL = r"F\[(-?\d+(?:,-?\d+)*)\]@(-?\d+)|B(\d+)@(-?\d+)"
_SYMBOL_SEP = r",(?![^\[\]]*\])"


def _parse_symbol(text, rank):
    text = text.strip()
    match = re.fullmatch(_SYMBOL, text)
    if match is None:
        raise UsageError(f"malformed PBW symbol {text!r} (want F[coords]@n or Bi@l)")
    coords, n, i, l = match.groups()
    if coords is not None:
        return ("F", tuple(int(x) for x in coords.split(",")), int(n))
    i, l = int(i), int(l)
    if not 1 <= i <= rank:
        raise UsageError(f"B symbol index out of range in {text!r}")
    if l <= 0:
        raise UsageError(f"B symbol needs positive degree: {text!r}")
    return ("B", i, l)


def _parse_gen_string(algebra, text):
    text = text.strip()
    if not re.fullmatch(GEN_NAME, text):
        raise UsageError(f"malformed generator {text!r} (want e1@-2, h2@3 or x[1,1]@2)")
    key, n = parse_gen(algebra, text)
    return algebra.loop(algebra.finite.element({key: 1}), n)


def _require_nonneg(args, *names):
    for name in names:
        if getattr(args, name) < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be non-negative")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_algebra(args):
    _require_nonneg(args, "loop_degree")
    alg = _load_algebra(args)
    fin = alg.finite
    result = {
        "label": fin.cartan.label or None,
        "rank": fin.rank,
        "dimension": fin.dimension,
        "positive_roots": [list(g) for g in fin.roots.positive_roots],
        "highest_root": list(fin.roots.theta),
        "symmetrizer": list(fin.cartan.symmetrizer),
        "form_scale": str(fin.form_scale),
        "structure_constant_pairs": len(fin.nmat),
    }
    if getattr(args, "twist", None):
        perm = _parse_perm(args.twist, fin.rank)
        aut = diagram_automorphism(fin, perm)
        tw = twisted_fixed_subalgebra(alg, aut, args.loop_degree)
        result["twist"] = {
            "permutation": {str(k): v for k, v in sorted(perm.items())},
            "order": aut.order,
            "graded_dimensions": {str(m): tw.graded_dimension(m)
                                  for m in range(-args.loop_degree,
                                                 args.loop_degree + 1)},
            "natural_borel_slice_dims": {str(m): v for m, v in
                                         sorted(tw.natural_borel_slice_dims().items())},
        }
    _emit(args, _report(args, result))
    return 0


def _parse_perm(text, rank):
    perm = {}
    for part in text.split(","):
        a, _, b = part.partition(":")
        try:
            perm[int(a)] = int(b)
        except ValueError:
            raise UsageError(f"malformed permutation {text!r} (want 1:3,3:1)") from None
    for i in range(1, rank + 1):
        perm.setdefault(i, i)
    return perm


def _cmd_roots(args):
    _require_nonneg(args, "height", "loop_degree")
    alg = _load_algebra(args)
    spec = natural_spec(alg) if args.which == "natural" else standard_spec(alg)
    records = []
    for r in alg.roots_in_window(args.height, args.loop_degree):
        records.append({
            "root": {"finite": list(r.finite), "delta": r.n},
            "real": alg.classify_root(r) == "real",
            "in_S": spec.contains(r),
            "in_minus_S": spec.contains(-r),
        })
    _emit(args, _report(args, {"partition": args.which, "roots": records}))
    return 0


def _cmd_partition(args):
    _require_nonneg(args, "height", "loop_degree")
    alg = _load_algebra(args)
    spec = natural_spec(alg) if args.which == "natural" else standard_spec(alg)
    rep = check_closed_partition(spec, args.height, args.loop_degree)
    rep["status"] = "pass" if rep["passed"] else "fail"
    _emit(args, _report(args, rep))
    return 0


def _cmd_verma_dims(args):
    _require_nonneg(args, "delta_max")
    alg = _load_algebra(args)
    lam = _parse_weight_arg(args.lam, alg.rank)
    window = _parse_window_arg(args.window) if args.window else None
    mod = VermaModule(alg, lam, reduced=args.reduced)
    try:
        offset_s = tuple(int(x) for x in args.offset.split(",")) if args.offset \
            else tuple(0 for _ in range(alg.rank))
    except ValueError:
        raise UsageError(f"malformed offset {args.offset!r} (want s1,s2,...)") from None
    if len(offset_s) != alg.rank:
        raise UsageError("offset length must equal the rank")
    if window is None:
        # the default window reaches the offset's height, in length too: a
        # monomial of offset s has up to ht(s) F-factors. An offset with a
        # negative coordinate has no monomials, whatever the window
        cap = max(args.delta_max, 1)
        reach = max(cap, sum(offset_s) if min(offset_s) >= 0 else 0)
        window = TruncationWindow(L=reach, N=cap, H=reach)
    rows = []
    for k in range(args.delta_max + 1):
        rows.append((k, mod.weight_dim((-k, offset_s), window)))
    if args.format == "csv":
        lines = ["# command=verma-dims",
                 f"# type={args.type or args.matrix_file}",
                 f"# lambda={args.lam or ''}",
                 f"# reduced={args.reduced}",
                 f"# offset={','.join(str(x) for x in offset_s)}",
                 f"# window=L={window.L},N={window.N},H={window.H}",
                 f"# schema_version={SCHEMA_VERSION}",
                 "k,dimension"]
        lines += [f"{k},{d}" for k, d in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _report(args, {"window": {"L": window.L, "N": window.N, "H": window.H},
                                   "dims": [{"k": k, "dimension": d} for k, d in rows]}))
    return 0


def _cmd_verma_act(args):
    alg = _load_algebra(args)
    lam = _parse_weight_arg(args.lam, alg.rank)
    mod = VermaModule(alg, lam, reduced=args.reduced)
    symbols = []
    if args.monomial:
        for tok in re.split(_SYMBOL_SEP, args.monomial):
            if tok.strip():
                symbols.append(_parse_symbol(tok, alg.rank))
    v = mod.monomial(*symbols)
    g = _parse_gen_string(alg, args.gen)
    image = mod.act(g, v)
    result = {
        "generator": args.gen,
        "input": monomial_name(tuple(sorted(symbols, key=symbol_sort_key))),
        "image": {monomial_name(m): str(c) for m, c in sorted(
            image.terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))},
        "flags": list(mod.flags),
    }
    _emit(args, _report(args, result))
    return 0


def _cmd_singular(args):
    alg = _load_algebra(args)
    lam = _parse_weight_arg(args.lam, alg.rank)
    window = _parse_window_arg(args.window) if args.window else None
    if window is None:
        raise UsageError("--window L=..,N=..,H=.. is required")
    mod = VermaModule(alg, lam, reduced=args.reduced)
    offsets = []
    for s in _nonneg_vectors(alg.rank, window.H):
        offsets.append((None, s))
    found = mod.singular_vectors(offsets, window)
    result = {
        "window": {"L": window.L, "N": window.N, "H": window.H},
        "reduced": args.reduced,
        "singular_vectors": [
            {"offset": {"delta": k, "finite": list(s)},
             "vector": {monomial_name(m): str(c) for m, c in sorted(
                 v.terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))}}
            for (k, s), v in found
        ],
    }
    _emit(args, _report(args, result))
    return 0


def _load_module(args):
    _require_nonneg(args, "kmax", "gwindow")
    if getattr(args, "module", None):
        with open(args.module) as fh:
            try:
                data = json.load(fh)
            except ValueError as ex:
                raise ModuleDataError(f"{args.module}: not JSON: {ex}") from None
        try:
            return ExplicitModule.from_json_dict(data)
        except ModuleDataError as ex:
            raise ModuleDataError(f"{args.module}: {ex}") from None
    if getattr(args, "summands", None):
        alg = _load_algebra(args)
        window = _parse_window_arg(args.window) if args.window else None
        if window is None:
            raise UsageError("--window is required when building from --summands")
        mods = []
        for text in args.summands.split("|"):
            lam = _parse_weight_arg(text, alg.rank)
            mods.append(ExplicitModule.from_reduced_verma(
                alg, lam, height=window.H, kmax=args.kmax,
                window=window, loop_window=args.gwindow))
        em = mods[0] if len(mods) == 1 else ExplicitModule.direct_sum(mods)
        if args.scramble is not None:
            em = em.scrambled(args.scramble)
        return em
    raise UsageError("one of --module or --summands is required")


def _split_result(module, split):
    def vecs(rows_by_widx):
        # the report lists every coordinate of a vector, zeros included
        out = {}
        for widx, rows in sorted(rows_by_widx.items()):
            n = module.dim(widx)
            out[str(widx)] = [[str(row.get(i, 0)) for i in range(n)] for row in rows]
        return out

    verdicts = {}
    for k, v in split.verdicts.items():
        verdicts[k] = {kk: vv for kk, vv in v.items() if not kk.startswith("_")}
        if "by_weight" in verdicts[k]:
            verdicts[k]["by_weight"] = {str(i): b for i, b in
                                        verdicts[k]["by_weight"].items()}
    return {
        "weights": [{"h": [str(x) for x in w.h_values], "c": str(w.c_value),
                     "d": str(w.d_value), "dim": module.dim(i)}
                    for i, w in enumerate(module.weights)],
        "torsion": vecs(split.torsion),
        "torsion_free_dims": {str(w): len(r) for w, r in
                              sorted(split.torsion_free.items())},
        "excluded_weight_indices": split.excluded,
        "unchecked_weight_indices": split.unchecked,
        "verdicts": verdicts,
    }


def _cmd_category_check(args):
    _require_nonneg(args, "nilpotency_cap")
    module = _load_module(args)
    rep = check_category_membership(module, args.gwindow, args.nilpotency_cap)
    rep.pop("_split", None)
    _emit(args, _report(args, rep))
    return 0


def _cmd_category_split(args):
    module = _load_module(args)
    split = torsion_decompose(module, args.gwindow)
    _emit(args, _report(args, _split_result(module, split)))
    return 0


def _cmd_category_decompose(args):
    _require_nonneg(args, "nilpotency_cap")
    module = _load_module(args)
    summands, audit = decompose_into_reduced_vermas(module, args.gwindow,
                                                    args.nilpotency_cap)
    result = {
        "summands": [{"h": [str(x) for x in w.h_values], "c": str(w.c_value),
                      "d": str(w.d_value)} for w, _ in summands],
        "audit": audit,
    }
    _emit(args, _report(args, result))
    return 0


def _cmd_loopmod(args):
    if args.dim < 1:
        raise UsageError("--dim must be positive")
    _require_nonneg(args, "loop_degree")
    alg = _load_algebra(args)
    if alg.rank != 1:
        raise UsageError("built-in loop modules exist for type A1 only")
    module = build_loop_module(alg, sl2_irrep_matrices(args.dim), args.dim,
                               args.loop_degree)
    blob = module.to_json_dict()
    if args.out:
        _emit(args, blob)
        summary = {"written": args.out, "weights": len(module.weights),
                   "total_dim": module.total_dim}
        sys.stdout.write(json.dumps(_report(args, summary), indent=2, sort_keys=True)
                         + "\n")
    else:
        _emit(args, _report(args, blob))
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_algebra_flags(p):
    p.add_argument("--type", help="algebra type label, e.g. A2, C3")
    p.add_argument("--matrix-file", dest="matrix_file",
                   help="Cartan matrix text file: one row per line")


def _add_common_out(p):
    p.add_argument("--out", help="output path (IMVERMA_OUTDIR joins relative paths)")


def build_parser():
    parser = _Parser(
        prog="imverma",
        description="Exact computations with imaginary Verma modules over "
                    "affine Lie algebras in the loop realization.")
    parser.add_argument("--config", help="key=value file supplying default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build and summarize a finite algebra")
    _add_algebra_flags(p)
    p.add_argument("--twist", help="diagram permutation, e.g. 1:3,3:1")
    p.add_argument("--loop-degree", dest="loop_degree", type=int, default=2)
    _add_common_out(p)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("roots", help="affine roots in a window with partition flags")
    _add_algebra_flags(p)
    p.add_argument("--which", choices=["natural", "standard"], default="natural")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--loop-degree", dest="loop_degree", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("partition", help="windowed closed-partition check")
    _add_algebra_flags(p)
    p.add_argument("--which", choices=["natural", "standard"], default="natural")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--loop-degree", dest="loop_degree", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verma-dims", help="delta-string dimension table (CSV)")
    _add_algebra_flags(p)
    p.add_argument("--lambda", dest="lam", help='e.g. "h1=-1/2,d=0"')
    p.add_argument("--delta-max", dest="delta_max", type=int, required=True)
    p.add_argument("--offset", help="finite offset s1,s2,... (default zeros)")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--window", help='e.g. "L=8,N=6,H=4"')
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    _add_common_out(p)
    p.set_defaults(func=_cmd_verma_dims)

    p = sub.add_parser("verma-act", help="apply a loop generator to a PBW monomial")
    _add_algebra_flags(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--gen", required=True, help='generator, e.g. "e1@-2" or "h2@3"')
    p.add_argument("--monomial", help='PBW symbols, e.g. "F[1]@2,B1@3"')
    _add_common_out(p)
    p.set_defaults(func=_cmd_verma_act)

    p = sub.add_parser("singular", help="windowed singular-vector kernels")
    _add_algebra_flags(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--reduced", action="store_true", default=True)
    p.add_argument("--full", dest="reduced", action="store_false",
                   help="search the unreduced module M(lambda)")
    p.add_argument("--window", required=True)
    _add_common_out(p)
    p.set_defaults(func=_cmd_singular)

    for name, func in (("category-check", _cmd_category_check),
                       ("category-split", _cmd_category_split),
                       ("category-decompose", _cmd_category_decompose)):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} an explicit module")
        p.add_argument("--module", help="ExplicitModule JSON file")
        p.add_argument("--summands", help='build: weights joined by "|"')
        _add_algebra_flags(p)
        p.add_argument("--window", help="build window for --summands")
        p.add_argument("--kmax", type=int, default=4)
        p.add_argument("--gwindow", type=int, default=2,
                       help="Heisenberg/loop degree window for the checks")
        p.add_argument("--scramble", type=int, help="scramble seed")
        if name != "category-split":
            p.add_argument("--nilpotency-cap", dest="nilpotency_cap", type=int,
                           default=16,
                           help="largest nilpotency degree of e_{i,n} accepted")
        _add_common_out(p)
        p.set_defaults(func=func)

    p = sub.add_parser("loopmod", help="loop module of a finite sl2 irrep")
    _add_algebra_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--loop-degree", dest="loop_degree", type=int, default=3)
    _add_common_out(p)
    p.set_defaults(func=_cmd_loopmod)
    return parser


@cache
def _parser():
    """The parser main uses, built by build_parser on the first call.

    Parsing does not modify a parser, so one serves every call in a process.
    """
    return build_parser()


def _apply_config_file(argv):
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    extra = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag in argv:
                continue  # explicit flags win
            extra.extend([flag, val.strip()])
    out = argv[:idx] + argv[idx + 2:]
    # insert config-derived flags right after the subcommand token
    for i, a in enumerate(out):
        if not a.startswith("-"):
            return out[: i + 1] + extra + out[i + 1:]
    return out + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except (OSError, UnicodeDecodeError) as ex:
        print(f"cannot read config file: {ex}", file=sys.stderr)
        return 2
    try:
        args = _parser().parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except UsageError as ex:
        print(str(ex), file=sys.stderr)
        return 2
    except ImvermaError as ex:
        print(str(ex), file=sys.stderr)
        return 1
    except OSError as ex:
        print(str(ex), file=sys.stderr)
        return 1


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

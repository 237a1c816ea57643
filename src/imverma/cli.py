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
from dataclasses import asdict
from functools import cache

from imverma.affine import (AffineAlgebra, TwistedSubalgebra, check_closed_partition,
                            natural_partition_contains, parse_gen,
                            standard_partition_contains)
from imverma.cartan import cartan_matrix_of_type, cartan_matrix_from_text
from imverma.category import (NILPOTENCY_CAP, ExplicitModule, build_loop_module,
                              check_category_membership, decompose_into_reduced_vermas,
                              sl2_irrep_matrices, torsion_decompose)
from imverma.errors import CartanMatrixError, ImvermaError, ModuleDataError
from imverma.finite import DiagramAutomorphism, build_simple_algebra
from imverma.verma import (TruncationWindow, VermaModule, monomial_name, parse_weight,
                           parse_window)

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _load_algebra(args) -> AffineAlgebra:
    if args.matrix_file:
        with open(args.matrix_file, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as ex:
                raise CartanMatrixError(f"{args.matrix_file}: not text: {ex}") from None
        cartan = cartan_matrix_from_text(text)
    elif args.type:
        cartan = _usage(cartan_matrix_of_type, args.type)
    else:
        raise UsageError("one of --type or --matrix-file is required")
    return AffineAlgebra(build_simple_algebra(cartan))


def _usage(parse, *args):
    """parse(*args), with a flag value the library rejects (ImvermaError)
    reported as a usage error."""
    try:
        return parse(*args)
    except ImvermaError as ex:
        raise UsageError(str(ex)) from None


# parsed values that are not configuration: the subcommand and its handler
# (named by the report itself), and where and how the report is written
_NOT_CONFIG = {"command", "func", "out", "format"}


def _report(args, result):
    """The report of a run: its command, the configuration it ran with (every
    flag value that was set) and its result."""
    config = {k: v for k, v in vars(args).items()
              if v is not None and k not in _NOT_CONFIG}
    return {"schema_version": SCHEMA_VERSION, "command": args.command,
            "config": config, "result": result}


def _emit(out, payload):
    """Write a report to the path out, or to stdout if out is None: a dict as
    sorted JSON, a str (pre-rendered CSV) as is."""
    text = payload if isinstance(payload, str) else \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
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


def _parse_symbol(text):
    """The shape of a PBW symbol; VermaModule.vector validates it."""
    text = text.strip()
    match = re.fullmatch(_SYMBOL, text)
    if match is None:
        raise UsageError(f"malformed PBW symbol {text!r} (want F[coords]@n or Bi@l)")
    coords, n, i, l = match.groups()
    if coords is not None:
        return ("F", tuple(int(x) for x in coords.split(",")), int(n))
    return ("B", int(i), int(l))


def _count(text):
    """The argparse type of a count flag: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


_count.__name__ = "int"  # a non-integer reads "invalid int value", as for int


# -- subcommand handlers ---------------------------------------------------------


def _cmd_algebra(args):
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
    if args.twist:
        perm = _parse_perm(args.twist, fin.rank)
        aut = DiagramAutomorphism(fin, perm)
        tw = TwistedSubalgebra(alg, aut, args.loop_degree)
        result["twist"] = {
            "permutation": {str(k): v for k, v in perm.items()},
            "order": aut.order,
            "graded_dimensions": {str(m): tw.graded_dimension(m)
                                  for m in range(-args.loop_degree,
                                                 args.loop_degree + 1)},
            "natural_borel_slice_dims": {str(m): v for m, v in
                                         tw.natural_borel_slice_dims().items()},
        }
    return result


def _parse_perm(text, rank):
    perm = {}
    for part in text.split(","):
        a, _, b = part.partition(":")
        try:
            node, image = int(a), int(b)
        except ValueError:
            raise UsageError(f"malformed permutation {text!r} (want 1:3,3:1)") from None
        if node in perm:
            raise UsageError(f"twist node {node} assigned twice")
        perm[node] = image
    for i in range(1, rank + 1):
        perm.setdefault(i, i)
    return perm


PARTITIONS = {"natural": natural_partition_contains,
              "standard": standard_partition_contains}


def _cmd_roots(args):
    alg = _load_algebra(args)
    contains = PARTITIONS[args.which]
    records = []
    for r in alg.roots_in_window(args.height, args.loop_degree):
        records.append({
            "root": {"finite": list(r.finite), "delta": r.n},
            "real": alg.classify_root(r) == "real",
            "in_S": contains(alg, r),
            "in_minus_S": contains(alg, -r),
        })
    return {"partition": args.which, "roots": records}


def _cmd_partition(args):
    rep = check_closed_partition(_load_algebra(args), PARTITIONS[args.which],
                                 args.height, args.loop_degree)
    return {**rep, "partition": args.which,
            "status": "pass" if rep["passed"] else "fail"}


def _cmd_verma_dims(args):
    alg = _load_algebra(args)
    lam = _usage(parse_weight, args.lam or "", alg.rank)
    window = _usage(parse_window, args.window) if args.window else None
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
    dims = mod.weight_dims(offset_s, window)
    rows = [(k, dims.get(-k, 0)) for k in range(args.delta_max + 1)]
    if args.format == "csv":
        lines = ["# command=verma-dims",
                 f"# type={args.type or args.matrix_file}",
                 f"# lambda={args.lam or ''}",
                 f"# reduced={args.reduced}",
                 f"# offset={','.join(str(x) for x in offset_s)}",
                 f"# window=L={window.L},N={window.N},H={window.H}",
                 f"# schema_version={SCHEMA_VERSION}",
                 "k,dimension"]
        return "\n".join(lines + [f"{k},{d}" for k, d in rows]) + "\n"
    return {"window": asdict(window),
            "dims": [{"k": k, "dimension": d} for k, d in rows]}


def _cmd_verma_act(args):
    alg = _load_algebra(args)
    lam = _usage(parse_weight, args.lam or "", alg.rank)
    mod = VermaModule(alg, lam, reduced=args.reduced)
    symbols = []
    if args.monomial:
        for tok in re.split(_SYMBOL_SEP, args.monomial):
            if tok.strip():
                symbols.append(_parse_symbol(tok))
    v = _usage(mod.monomial, *symbols)
    key, n = _usage(parse_gen, alg, args.gen.strip())
    image = mod.act(alg.loop(alg.finite.element({key: 1}), n), v)
    return {
        "generator": args.gen,
        "input": monomial_name(next(iter(v.terms))),
        "image": {monomial_name(m): str(c) for m, c in image.terms.items()},
        "flags": list(mod.flags),
    }


def _cmd_singular(args):
    alg = _load_algebra(args)
    lam = _usage(parse_weight, args.lam or "", alg.rank)
    window = _usage(parse_window, args.window)
    mod = VermaModule(alg, lam, reduced=args.reduced)
    found = mod.singular_vectors([(None, s) for s in mod.reached_offsets(window)], window)
    return {
        "window": asdict(window),
        "reduced": args.reduced,
        "singular_vectors": [
            {"offset": {"delta": k, "finite": list(s)},
             "vector": {monomial_name(m): str(c) for m, c in v.terms.items()}}
            for (k, s), v in found
        ],
    }


def _load_module(args):
    if args.module:
        with open(args.module) as fh:
            try:
                data = json.load(fh)
            except ValueError as ex:
                raise ModuleDataError(f"{args.module}: not JSON: {ex}") from None
        try:
            return ExplicitModule.from_json_dict(data)
        except ModuleDataError as ex:
            raise ModuleDataError(f"{args.module}: {ex}") from None
    if args.summands:
        alg = _load_algebra(args)
        if not args.window:
            raise UsageError("--window is required when building from --summands")
        window = _usage(parse_window, args.window)
        mods = []
        for text in args.summands.split("|"):
            if not text.strip():
                raise UsageError(f"empty --summands entry in {args.summands!r}")
            lam = _usage(parse_weight, text, alg.rank)
            mods.append(ExplicitModule.from_reduced_verma(
                alg, lam, kmax=args.kmax, window=window, loop_window=args.gwindow))
        em = mods[0] if len(mods) == 1 else ExplicitModule.direct_sum(mods)
        if args.scramble is not None:
            em = em.scrambled(args.scramble)
        return em
    raise UsageError("one of --module or --summands is required")


def _split_result(module, split):
    verdicts = {k: dict(v) for k, v in split.verdicts.items()}
    for v in verdicts.values():
        if "by_weight" in v:
            v["by_weight"] = {str(i): b for i, b in v["by_weight"].items()}
    return {
        "weights": [{**w.to_json_dict(), "dim": module.dim(i)}
                    for i, w in enumerate(module.weights)],
        # every coordinate of a torsion vector, zeros included
        "torsion": {str(w): [[str(row.get(i, 0)) for i in range(module.dim(w))]
                             for row in rows] for w, rows in split.torsion.items()},
        "torsion_free_dims": {str(w): len(r) for w, r in split.torsion_free.items()},
        "excluded_weight_indices": split.excluded,
        "unchecked_weight_indices": split.unchecked,
        "verdicts": verdicts,
    }


def _cmd_category_check(args):
    module = _load_module(args)
    return check_category_membership(module, args.gwindow, args.nilpotency_cap)


def _cmd_category_split(args):
    module = _load_module(args)
    return _split_result(module, torsion_decompose(module, args.gwindow))


def _cmd_category_decompose(args):
    module = _load_module(args)
    summands, audit = decompose_into_reduced_vermas(module, args.gwindow,
                                                    args.nilpotency_cap)
    return {
        "summands": [w.to_json_dict() for w, _ in summands],
        "audit": audit,
    }


def _cmd_loopmod(args):
    if args.dim < 1:
        raise UsageError("--dim must be positive")
    alg = _load_algebra(args)
    if alg.rank != 1:
        raise UsageError("built-in loop modules exist for type A1 only")
    module = build_loop_module(alg, sl2_irrep_matrices(args.dim), args.loop_degree)
    blob = module.to_json_dict()
    if not args.out:
        return blob
    # the module goes to --out and its summary to stdout
    _emit(args.out, blob)
    _emit(None, _report(args, {"written": args.out, "weights": len(module.weights),
                               "total_dim": module.total_dim}))
    return None


# -- argument plumbing ---------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="imverma",
        description="Exact computations with imaginary Verma modules over "
                    "affine Lie algebras in the loop realization.")
    parser.add_argument("--config", help="key=value file supplying default flags")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # every subcommand's flags
    shared.add_argument("--type", help="algebra type label, e.g. A2, C3")
    shared.add_argument("--matrix-file", help="Cartan matrix text file: one row per line")
    shared.add_argument("--out", help="output path (IMVERMA_OUTDIR joins relative paths)")

    def command(name, func, text):
        p = sub.add_parser(name, parents=[shared], help=text)
        p.set_defaults(func=func)
        return p

    p = command("algebra", _cmd_algebra, "build and summarize a finite algebra")
    p.add_argument("--twist", help="diagram permutation, e.g. 1:3,3:1")
    p.add_argument("--loop-degree", type=_count, default=2)

    for name, func, text in (
            ("roots", _cmd_roots, "affine roots in a window with partition flags"),
            ("partition", _cmd_partition, "windowed closed-partition check")):
        p = command(name, func, text)
        p.add_argument("--which", choices=list(PARTITIONS), default="natural")
        p.add_argument("--height", type=_count, required=True)
        p.add_argument("--loop-degree", type=_count, required=True)

    p = command("verma-dims", _cmd_verma_dims, "delta-string dimension table (CSV)")
    p.add_argument("--lambda", dest="lam", help='e.g. "h1=-1/2,d=0"')
    p.add_argument("--delta-max", type=_count, required=True)
    p.add_argument("--offset", help="finite offset s1,s2,... (default zeros)")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--window", help='e.g. "L=8,N=6,H=4"')
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = command("verma-act", _cmd_verma_act, "apply a loop generator to a PBW monomial")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--gen", required=True, help='generator, e.g. "e1@-2" or "h2@3"')
    p.add_argument("--monomial", help='PBW symbols, e.g. "F[1]@2,B1@3"')

    p = command("singular", _cmd_singular, "windowed singular-vector kernels")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--reduced", action="store_true", default=True)
    p.add_argument("--full", dest="reduced", action="store_false",
                   help="search the unreduced module M(lambda)")
    p.add_argument("--window", required=True)

    for name, func in (("category-check", _cmd_category_check),
                       ("category-split", _cmd_category_split),
                       ("category-decompose", _cmd_category_decompose)):
        p = command(name, func, f"{name.split('-')[1]} an explicit module")
        p.add_argument("--module", help="ExplicitModule JSON file")
        p.add_argument("--summands", help='build: weights joined by "|"')
        p.add_argument("--window", help="build window for --summands")
        p.add_argument("--kmax", type=_count, default=4)
        p.add_argument("--gwindow", type=_count, default=2,
                       help="Heisenberg/loop degree window for the checks")
        p.add_argument("--scramble", type=int, help="scramble seed")
        if name != "category-split":
            p.add_argument("--nilpotency-cap", type=_count, default=NILPOTENCY_CAP,
                           help="largest nilpotency degree of e_{i,n} accepted")

    p = command("loopmod", _cmd_loopmod, "loop module of a finite sl2 irrep")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--loop-degree", type=_count, default=3)
    # per subcommand, the flags that take a value: the keys a config file may set
    parser.value_flags = {cmd: {s for a in cp._actions if a.nargs != 0
                                for s in a.option_strings}
                          for cmd, cp in sub.choices.items()}
    return parser


@cache
def _parser():
    """The parser main uses, built by build_parser on the first call.

    Parsing does not modify a parser, so one serves every call in a process.
    """
    return build_parser()


@cache
def _config_parser():
    """Finds --config PATH or --config=PATH anywhere in argv."""
    pre = _Parser(prog="imverma", add_help=False)
    pre.add_argument("--config")
    return pre


def _apply_config_file(argv):
    """argv without its --config flag, and with the config file's key=value
    lines inserted as flags right after the subcommand.

    A key names a flag that takes a value. The file sets only the flags the
    subcommand takes, so one file serves several subcommands; a key that no
    subcommand takes is a usage error, and a flag given in argv wins.
    """
    pre, argv = _config_parser().parse_known_args(argv)
    if pre.config is None:
        return argv
    try:
        with open(pre.config, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as ex:
        raise UsageError(f"cannot read config file: {ex}") from None
    value_flags = _parser().value_flags
    command = next((a for a in argv if not a.startswith("-")), None)
    given = {a.partition("=")[0] for a in argv}
    extra = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if not any(flag in flags for flags in value_flags.values()):
            raise UsageError(f"config key {key!r} names no flag that takes a value")
        if flag in value_flags.get(command, ()) and flag not in given:
            extra.append(f"{flag}={val}")
    i = argv.index(command) + 1 if extra else 0
    return argv[:i] + extra + argv[i:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_apply_config_file(argv))
        result = args.func(args)
        if result is not None:
            _emit(args.out, result if isinstance(result, str) else _report(args, result))
    except SystemExit as ex:
        return int(ex.code or 0)
    except UsageError as ex:
        print(str(ex), file=sys.stderr)
        return 2
    except (ImvermaError, OSError) as ex:
        print(str(ex), file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as ex:
        # a MemoryError carries no message: the exception's name is the cause
        print(f"{type(ex).__name__}: the input is too large to compute", file=sys.stderr)
        return 1
    return 0


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

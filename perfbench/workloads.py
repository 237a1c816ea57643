"""Seeded CLI workloads for the end-to-end benchmark.

A workload is a fixed list of op slots. Each op is one `imverma` CLI
invocation (an argv list) plus what its check needs to know. The seed changes
only values: the lambda entries and the scramble seeds. Types, windows, ranks
and summand counts are fixed per slot, so the work done is comparable across
seeds.

Every lambda entry is p/4 with p = 1 (mod 4). A coroot sum_i c_i h_i of A1,
A2, A3 or C2 has sum_i c_i <= 3, so lambda(h_gamma) = (sum_i c_i)/4 (mod 1)
is never an integer: no seed makes a module reducible and changes the kernel
sizes, and every entry has the same denominator.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str          # "singular" | "decompose" | "dims"
    type: str
    lams: tuple = ()   # decompose: the generated summand h-tuples (strings)


def _entry(rng, lo=-15, hi=13):
    """A seeded p/4 with p = 1 (mod 4) and lo <= p <= hi."""
    return f"{rng.choice([p for p in range(lo, hi + 1) if p % 4 == 1])}/4"


def _lam_text(values):
    return ",".join(f"h{i + 1}={v}" for i, v in enumerate(values))


_RANK = {"A1": 1, "A2": 2, "C2": 2, "A3": 3}


def singular_tall(rng):
    lam = _lam_text([_entry(rng)])
    return [Op(("singular", "--full", "--type", "A1", "--lambda", lam,
                "--window", "L=4,N=3,H=2"), "singular", "A1")]


_RANK_SLOTS = (("A2", 2), ("A2", 3), ("C2", 2), ("C2", 3), ("A3", 2), ("A3", 3))


def singular_rank(rng):
    ops = []
    for _ in range(6):
        for typ, n in _RANK_SLOTS:
            lam = _lam_text([_entry(rng) for _ in range(_RANK[typ])])
            ops.append(Op(("singular", "--type", typ, "--lambda", lam,
                           "--window", f"L=3,N={n},H=2"), "singular", typ))
    return ops


# Summand lambdas are a seeded base plus fixed integer shifts, so which
# summands share weight spaces (and hence every block size) is the same for
# every seed. In the 3-summand slots the third lambda is a root below one of
# the others (A1: alpha_1 below the second; A2: alpha_1 below the first), so
# two summands share a weight space.
_DECOMPOSE_SHIFTS = {
    "A1": (((0,),), ((0,), (-1,)), ((0,), (-1,), (-3,))),
    "A2": (((0, 0),), ((0, 0), (-1, 0)), ((0, 0), (-1, 0), (-2, 1))),
}
_DECOMPOSE_WINDOW = {"A1": ("L=4,N=5,H=1", "5", "4"),
                     "A2": ("L=3,N=4,H=1", "4", "3")}


def decompose(rng):
    ops = []
    for typ in ("A1", "A2"):
        window, kmax, gwindow = _DECOMPOSE_WINDOW[typ]
        for _ in range(2):
            for shifts in _DECOMPOSE_SHIFTS[typ]:
                base = [_entry(rng, -7, 5) for _ in range(_RANK[typ])]
                lams = tuple(tuple(_shift(b, d) for b, d in zip(base, shift))
                             for shift in shifts)
                summands = "|".join(_lam_text(lam) for lam in lams)
                argv = ("category-decompose", "--type", typ,
                        "--summands", summands, "--window", window,
                        "--kmax", kmax, "--gwindow", gwindow,
                        "--scramble", str(rng.randint(0, 10 ** 6)))
                ops.append(Op(argv, "decompose", typ, lams))
    return ops


def _shift(entry, d):
    p = int(entry.split("/")[0]) + 4 * d
    return f"{p}/4"


_DIMS_SLOTS = (("A2", "1,1", "L=5,N=5,H=2", "6"),
               ("A2", "2,1", "L=5,N=5,H=3", "6"),
               ("A1", "2", "L=7,N=7,H=2", "9"),
               ("C2", "1,1", "L=5,N=5,H=2", "6"),
               ("A3", "1,1,0", "L=4,N=4,H=2", "4"))


def dims(rng):
    ops = []
    for typ, offset, window, delta_max in _DIMS_SLOTS:
        lam = _lam_text([_entry(rng) for _ in range(_RANK[typ])])
        ops.append(Op(("verma-dims", "--type", typ, "--lambda", lam,
                       "--offset", offset, "--window", window,
                       "--delta-max", delta_max), "dims", typ))
    return ops


WORKLOADS = {
    "singular-tall": singular_tall,
    "singular-rank": singular_rank,
    "decompose": decompose,
    "dims": dims,
}

# The layer expected to hold the most self time in a traced run.
DOMINANT_LAYER = {
    "singular-tall": "kernels.nullspace",
    "singular-rank": "verma.act",
    "decompose": "category.*",
    "dims": "verma.basis_monomials",
}


def generate(name, seed):
    """The op list of a workload; the same seed gives the same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def types_used(ops):
    return sorted({op.type for op in ops})

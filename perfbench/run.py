#!/usr/bin/env python3
"""End-to-end benchmark of the imverma CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's ops (see workloads.py) through `imverma.cli.main` in
worker processes (worker.py), started one after another, closed-loop, one op
at a time, each repeating the whole op list as a batch until its share of the
time is used. Every op's first report is checked (checks.py) after the timed
runs, and every repeat, in any worker, must be byte-identical to it.

--trace 0 runs 5 workers and reports the end-to-end metrics: wall_s (sum
over the ops of each op's median time) and op_p50_s (median over the ops of
each op's median time), both from times scaled to full machine speed (see
PROBE_REF_S); setup_s (median over fresh processes of importing imverma.cli
and building the AffineAlgebra of every type used); and peak_rss_mb (largest
peak RSS of a worker). --trace 1 runs one worker that alternates untraced and
traced batches and reports per-layer metrics (spans.py). The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
Per-op sha1s and timings go to perfbench/out/<workload>-seed<seed>[-trace].json,
the traced spans and kernel shape histogram to
perfbench/out/<workload>.trace.json.gz. See README.md for the workloads and
what each metric should move.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 11
WORKERS = 5
# Time of worker._probe at full speed on the machine the benchmark was tuned
# on (2 vCPUs of an Intel Xeon VM). Each run's time is scaled by PROBE_REF_S /
# the mean probe time over the run (worker.Speedometer): the probe and the op
# slow down together when their CPU is busy elsewhere, so the scaled times
# read as seconds at full speed and are far steadier than raw times on a
# shared host.
PROBE_REF_S = 0.00004

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import imverma.cli
from imverma.affine import AffineAlgebra
from imverma.cartan import cartan_matrix_of_type
from imverma.finite import build_simple_algebra
for label in sys.argv[2].split(","):
    AffineAlgebra(build_simple_algebra(cartan_matrix_of_type(label)))
print(repr(time.perf_counter() - t0))
"""

# Per-layer metrics, "<layer>.<stat>", read from one traced batch's stats
# (spans.py) by `layer_value`.
PER_LAYER = (
    [f"kernels.{k}.{stat}" for k in ("nullspace", "rref", "rank")
     for stat in ("calls", "self_s", "cells")]
    + ["kernels.nullspace.nnz", "kernels.nullspace.empty_frac",
       "verma.act.calls", "verma.act.self_s", "verma.act.terms_out",
       "verma.singular_vectors.self_s", "verma.basis_monomials.calls",
       "verma.basis_monomials.self_s", "verma.basis_monomials.monomials"]
    + [f"category.{f}.self_s" for f in (
        "from_reduced_verma", "direct_sum", "scrambled", "torsion_decompose",
        "check_category_membership", "extract_annihilated_vector",
        "audit_decomposition", "decompose_into_reduced_vermas")]
    + ["category.apply.calls", "category.apply.self_s",
       "category.from_reduced_verma.defined_frac",
       "finite.build_simple_algebra.self_s", "affine.AffineAlgebra.self_s",
       "cli.main.self_s"]
)
RATIOS = {"empty_frac": ("empty", "calls"),
          "defined_frac": ("defined_pairs", "attempted_pairs")}


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat.endswith("_frac") else "count"


def layer_value(name, stats):
    layer, stat = name.rsplit(".", 1)
    st = stats.get(layer, {})
    if stat in RATIOS:
        num, den = RATIOS[stat]
        return st.get(num, 0.0) / st[den] if st.get(den) else 0.0
    return st.get(stat, 0.0)


def measure_setup(types, cpu):
    times = []
    for _ in range(SETUP_RUNS):
        cpu.pin()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), ",".join(types)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    cpu.release()
    return statistics.median(times)


class Runs:
    """Every run of every op, merged over the worker processes."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None     # stdout of each op's first run
        self.sha1 = None
        self.times = [[] for _ in ops]          # untraced runs
        self.times_traced = [[] for _ in ops]
        self.failures = [[] for _ in ops]       # per run: reason or None
        self.attempted = 0
        self.scaled = [[] for _ in ops]         # untraced, see PROBE_REF_S
        self.maxrss_kb = 0
        self.batches = []
        self.kernel_shapes = None

    def add(self, result):
        """Merge one worker's result. A run whose report differs from the
        op's first report, in any worker, fails."""
        if self.first is None:
            self.first = result["first"]
            self.sha1 = [hashlib.sha1(t.encode()).hexdigest() for t in self.first]
        for i, op_runs in enumerate(result["runs"]):
            for traced, dt, digest, error, probe in op_runs:
                self.attempted += 1
                (self.times_traced if traced else self.times)[i].append(dt)
                if not traced:
                    self.scaled[i].append(dt * PROBE_REF_S / probe)
                if error is None and digest != self.sha1[i]:
                    error = "report bytes differ from the op's first run"
                self.failures[i].append(error)
        self.maxrss_kb = max(self.maxrss_kb, result["maxrss_kb"])
        self.batches += result["batches"]
        self.kernel_shapes = result.get("kernel_shapes")

    def check_outputs(self, check):
        """Run the output check once per op, on its first report; a failing
        check fails every run of that op."""
        for i, op in enumerate(self.ops):
            if self.failures[i][0] is not None:
                continue
            try:
                reason = check(op, self.first[i])
            except Exception:
                reason = "check raised: " + traceback.format_exc().strip().splitlines()[-1]
            if reason:
                self.failures[i] = [r or reason for r in self.failures[i]]

    def failed(self):
        return sum(r is not None for rs in self.failures for r in rs)


class WorkerError(Exception):
    pass


def run_workers(args, runs, count, spans_path=None):
    """Start `count` worker processes one after another, sharing
    `args.seconds` between them, and merge their results into `runs`."""
    deadline = perf_counter() + args.seconds
    for k in range(count):
        budget = max(0.0, (deadline - perf_counter()) / (count - k))
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
               str(args.seed), repr(budget), str(args.trace)]
        if spans_path:
            cmd.append(str(spans_path))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        runs.add(json.loads(proc.stdout.strip().splitlines()[-1]))


def best_total(times):
    """Sum over ops of each op's fastest run."""
    return sum(min(ts) for ts in times)


def per_layer_metrics(runs):
    """Each layer metric from the traced batch where it is lowest; counts are
    the same in every batch."""
    traced = [(w, st) for t, w, st in runs.batches if t]
    values = {name: min(layer_value(name, st) for _, st in traced)
              for name in PER_LAYER}
    values["trace.overhead_frac"] = (best_total(runs.times_traced)
                                     / best_total(runs.times) - 1)
    values["trace.unattributed_s"] = min(
        w - sum(s.get("self_s", 0.0) for s in st.values()) for w, st in traced)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def dominant_layer(metrics):
    """The layer with the most self time; category.* is taken as one."""
    totals = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            if layer.startswith("category."):
                layer = "category.*"
            totals[layer] = totals.get(layer, 0.0) + m["value"]
    return max(totals, key=totals.get), totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imverma" / "cli.py").is_file():
        print(f"imverma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from worker import Cpu

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.generate(args.workload, args.seed)
    runs = Runs(ops)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            run_workers(args, runs, 1, OUT / f"{args.workload}.trace.json.gz")
        else:
            setup_s = measure_setup(workloads.types_used(ops), Cpu())
            run_workers(args, runs, WORKERS)
    except (WorkerError, subprocess.SubprocessError) as ex:
        print(ex, file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(runs)
    else:
        op_s = [statistics.median(ts) for ts in runs.scaled]
        metrics = {
            "wall_s": {"value": sum(op_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": runs.maxrss_kb / 1024, "unit": "MB"},
        }
    runs.check_outputs(checks.check)
    failed = runs.failed()

    print(f"workload {args.workload} seed {args.seed}: {len(runs.batches)} batches "
          f"of {len(ops)} ops, {'traced every other batch' if args.trace else 'untraced'}")
    for i, op in enumerate(ops):
        times = runs.scaled[i] or runs.times_traced[i]
        print(f"  op {i:2d} sha1 {runs.sha1[i]} median {statistics.median(times):.4f}s "
              f"of {len(times)}  {' '.join(op.argv)}")
    print(f"report sha1 (all ops): "
          f"{hashlib.sha1(''.join(runs.sha1).encode()).hexdigest()}")
    for i, reasons in enumerate(runs.failures):
        for r in sorted({r for r in reasons if r}):
            print(f"FAILED op {i}: {r}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':44s} {failed / runs.attempted:.6g} "
          f"({failed} of {runs.attempted} op runs failed)")
    extra = {}
    if args.trace:
        leader, totals = dominant_layer(metrics)
        want = workloads.DOMINANT_LAYER[args.workload]
        verdict = "match" if leader == want else "MISMATCH"
        print(f"dominant layer: {leader} ({totals[leader]:.4g} s of self time "
              f"per batch), expected {want}: {verdict}")
        hist = runs.kernel_shapes
        print("kernel input shapes (traced batches):")
        for key, b in hist.items():
            print(f"  {key:40s} calls {b['calls']:6d} density {b['density']:.3f} "
                  f"rank<={b['rank_max']} kdim<={b['kdim_max']} "
                  f"empty {b['empty_kernel']} bits {b['num_bits_max']}/{b['den_bits_max']}")
        extra = {"dominant_layer": leader, "expected_dominant_layer": want,
                 "kernel_shapes": hist}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version, "batches": [[t, w] for t, w, _ in runs.batches],
        "ops": [{"argv": list(op.argv), "sha1": runs.sha1[i],
                 "seconds": runs.times[i], "seconds_scaled": runs.scaled[i],
                 "seconds_traced": runs.times_traced[i],
                 "failures": [r for r in runs.failures[i] if r]}
                for i, op in enumerate(ops)],
        "metrics": metrics, **extra,
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": runs.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's generator, oracles and result format.

Not collected by a plain `pytest` run of the repository; run them with

    python3 -m pytest -q perfbench/tests/check_workloads.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from imverma.affine import AffineAlgebra  # noqa: E402
from imverma.cartan import cartan_matrix_of_type  # noqa: E402
from imverma.finite import build_simple_algebra  # noqa: E402
from imverma.verma import (TruncationWindow, VermaModule,  # noqa: E402
                           parse_weight)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def shape(op):
    """The argv with seeded values masked: lambda values, scramble seeds."""
    out = []
    argv = list(op.argv)
    for i, a in enumerate(argv):
        prev = argv[i - 1] if i else None
        if prev in ("--lambda", "--summands"):
            out.append([[kv.split("=")[0] for kv in lam.split(",")]
                        for lam in a.split("|")])
        elif prev == "--scramble":
            out.append("<seed>")
        else:
            out.append(a)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 7)
    assert [op.argv for op in a] == [op.argv for op in b]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_values_not_shapes(name):
    a = workloads.generate(name, 1)
    b = workloads.generate(name, 2)
    assert [shape(op) for op in a] == [shape(op) for op in b]
    assert [op.argv for op in a] != [op.argv for op in b]


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_rank_exact():
    assert checks.rank_exact([]) == 0
    assert checks.rank_exact([[0, 0], [0, 0]]) == 0
    assert checks.rank_exact([[1, 2], [2, 4], ["1/2", 1]]) == 1
    assert checks.rank_exact([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3


def test_dims_oracle_matches_enumeration_on_a_small_window():
    alg = AffineAlgebra(build_simple_algebra(cartan_matrix_of_type("A2")))
    mod = VermaModule(alg, parse_weight("h1=-1/2,h2=-3/2", 2))
    window = TruncationWindow(3, 2, 2)
    want = {k: mod.weight_dim((-k, (1, 0)), window) for k in range(4)}
    assert checks.dims_oracle(alg, (1, 0), window, 3) == want


def _run(name, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_has_no_failed_op_and_all_layer_metrics(name):
    proc = _run(name, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("dims", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("dims", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

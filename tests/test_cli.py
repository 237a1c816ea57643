"""CLI surface: the documented subcommands, exit codes, output formats,
determinism, config file and output-directory environment variable."""

import gc
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imverma
from imverma.affine import AffineAlgebra
from imverma.cartan import cartan_matrix_of_type
from imverma.category import ExplicitModule, build_loop_module, sl2_irrep_matrices
from imverma.cli import main
from imverma.finite import build_simple_algebra
from imverma.verma import (TruncationWindow, VermaModule, monomial_name, parse_weight,
                           parse_window)
from oracles import full_singular_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ("singular", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/2",
     "--window", "L=3,N=2,H=2"),
    ("category-decompose", "--type", "A2",
     "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
     "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3", "--scramble", "5"),
], ids=["singular", "category-decompose"])
def test_a_call_leaves_no_package_cycles(capsys, argv):
    # everything the package builds in a call is freed by reference counting;
    # the collector keeps what it finds in gc.garbage under DEBUG_SAVEALL
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, *argv)[0] == 0
        gc.collect()
        found = [obj for obj in gc.garbage
                 if str(getattr(obj, "__module__", None)).startswith("imverma")
                 or type(obj).__module__.startswith("imverma")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
        if not enabled:
            gc.disable()
    assert not found


def test_verma_dims_matches_documented_example(capsys):
    code, out, err = run(capsys, "verma-dims", "--type", "A1",
                         "--lambda", "h1=-1/2", "--delta-max", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "k,dimension"
    assert rows[1:] == ["0,1", "1,1", "2,2", "3,3", "4,5"]


def test_verma_dims_embeds_config_header(capsys):
    code, out, _ = run(capsys, "verma-dims", "--type", "A2",
                       "--lambda", "h1=-1/2,h2=-1/2", "--delta-max", "2")
    assert code == 0
    assert "# lambda=h1=-1/2,h2=-1/2" in out
    assert "# window=" in out and "# schema_version=" in out


def test_verma_dims_json_format(capsys):
    code, out, _ = run(capsys, "verma-dims", "--type", "A1", "--delta-max", "2",
                       "--format", "json")
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["command"] == "verma-dims"
    assert data["result"]["dims"][0] == {"k": 0, "dimension": 1}


@pytest.mark.parametrize("typ, lam, offset, window, rows", [
    # three F-factors of degrees in [-1, 1]: (-1, 0, 1), (0, 0, 0) at k = 0
    # and (-1, -1, 1), (-1, 0, 0) at k = 1
    pytest.param("A1", "h1=-1/2", "3", "L=3,N=1,H=3", ["0,2", "1,2"],
                 id="A1-offset-3"),
    # F(a1+a2) with or without one B(i, 1), and F(a1) F(a2)
    pytest.param("A2", "", "1,1", "L=2,N=1,H=2", ["0,6", "1,5"], id="A2-offset-1-1"),
    # no monomials at a negative coordinate, so the height is not needed
    pytest.param("A2", "", "3,-1", "L=1,N=1,H=1", ["0,0", "1,0"], id="A2-negative"),
])
def test_verma_dims_default_window_reaches_offset_height(capsys, typ, lam, offset,
                                                         window, rows):
    code, out, err = run(capsys, "verma-dims", "--type", typ, "--lambda", lam,
                         "--offset", offset, "--delta-max", "1")
    assert (code, err) == (0, "")
    assert f"# window={window}" in out
    assert out.splitlines()[-3:] == ["k,dimension", *rows]


@pytest.mark.parametrize("typ, offset, window", [
    ("A1", "500", "L=2,N=1,H=500"),
    ("A3", "30,30,30", "L=2,N=1,H=90"),
])
def test_verma_dims_offset_beyond_reach_lists_zeros(capsys, typ, offset, window):
    # two symbols reach no higher than 2 ht(theta), so the rows are zero and
    # no root multiset of the offset is listed
    code, out, err = run(capsys, "verma-dims", "--type", typ, "--offset", offset,
                         "--window", window, "--delta-max", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == ["k,dimension", "0,0", "1,0"]


def test_verma_dims_offset_higher_than_the_recursion_limit(capsys):
    # 500 copies of F(alpha_1, n), n in [-1, 1]: a copies of n = 1 and b of
    # n = -1 with a + b <= 500, a - b = k
    code, out, err = run(capsys, "verma-dims", "--type", "A1", "--lambda", "h1=-1/2",
                         "--offset", "500", "--window", "L=500,N=1,H=500",
                         "--delta-max", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == ["k,dimension", "0,251", "1,250"]


def test_singular_height_beyond_reach_lists_nothing_more(capsys):
    argv = ("singular", "--type", "A1", "--lambda", "h1=-1/2", "--window")
    code, out, err = run(capsys, *argv, "L=2,N=1,H=1000000000")
    assert (code, err) == (0, "")
    _, short, _ = run(capsys, *argv, "L=2,N=1,H=2")
    assert json.loads(out)["result"]["singular_vectors"] == \
        json.loads(short)["result"]["singular_vectors"]


def test_verma_dims_user_window_below_offset_height_fails(capsys):
    code, out, err = run(capsys, "verma-dims", "--type", "A1", "--offset", "3",
                         "--delta-max", "1", "--window", "L=2,N=2,H=2")
    assert code == 1
    assert out == ""
    assert err.strip() == "offset height 3 exceeds window H=2"


def test_verma_dims_window_length_past_the_list_index(capsys):
    # the reduced module caps the length at the offset height; the
    # unreduced one uses L itself, and one that long is a one-line error
    argv = ("verma-dims", "--type", "A1", "--lambda", "h1=-1/2", "--offset", "1",
            "--delta-max", "2")
    long = ("--window", "L=100000000000000000000,N=1,H=1")
    code, out, err = run(capsys, *argv, "--reduced", *long)
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == \
        run(capsys, *argv, "--reduced", "--window", "L=1,N=1,H=1")[1].splitlines()[-3:]
    code, out, err = run(capsys, *argv, *long)
    assert (code, out) == (1, "")
    assert err.strip() == ("window L=100000000000000000000 is too long to "
                           "enumerate with N=1 in the unreduced module")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verma_dims_counts_without_enumerating(capsys, monkeypatch, fmt):
    argv = ("verma-dims", "--type", "A2", "--offset", "2,1", "--format", fmt,
            "--window", "L=3,N=2,H=3", "--delta-max", "3")
    code, want, _ = run(capsys, *argv)
    assert code == 0

    def enumerate_basis(*_):
        raise AssertionError("verma-dims enumerated PBW monomials")

    for name in ("weight_bases", "basis_monomials"):
        monkeypatch.setattr(VermaModule, name, enumerate_basis)
    assert run(capsys, *argv) == (0, want, "")


def test_unknown_type_is_usage_error(capsys):
    code, out, err = run(capsys, "verma-dims", "--type", "Z9", "--delta-max", "2")
    assert code == 2
    assert "unknown type" in err


@pytest.mark.parametrize("argv, word", [
    pytest.param(("singular", "--type", "A1", "--lambda", "h1=0",
                  "--window", "L=2,N=2"), "window", id="window-missing-H"),
    pytest.param(("singular", "--type", "A1", "--lambda", "h1=0",
                  "--window", "L=x,N=1,H=1"), "window", id="window-not-int"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@x"), "generator",
                 id="gen-degree-not-int"),
    pytest.param(("verma-dims", "--type", "A1", "--lambda", "h1=1/0",
                  "--delta-max", "2"), "weight", id="lambda-zero-denominator"),
    pytest.param(("verma-dims", "--type", "A1", "--lambda", "h1=abc",
                  "--delta-max", "2"), "weight", id="lambda-not-rational"),
    pytest.param(("roots", "--type", "A1", "--height", "-1",
                  "--loop-degree", "1"), "height", id="negative-height"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "B1@x"), "symbol", id="symbol-degree-not-int"),
    pytest.param(("verma-act", "--type", "A2", "--gen", "e1@0",
                  "--monomial", "F[1,x]@0"), "symbol", id="symbol-root-not-int"),
    pytest.param(("verma-dims", "--type", "A2", "--offset", "1,a",
                  "--delta-max", "2"), "offset", id="offset-not-int"),
    pytest.param(("algebra", "--type", "A3", "--twist", "1:x"), "permutation",
                 id="twist-not-int"),
    # a node mapped twice, to the same image or to another one
    pytest.param(("algebra", "--type", "A3", "--twist", "1:3,3:1,1:3"),
                 "twist node 1 assigned twice", id="twist-node-repeated"),
    pytest.param(("algebra", "--type", "A3", "--twist", "1:3,1:1"),
                 "twist node 1 assigned twice", id="twist-node-reassigned"),
    pytest.param(("loopmod", "--type", "A1", "--dim", "-1"), "dim",
                 id="negative-dim"),
    pytest.param(("loopmod", "--type", "A1", "--dim", "0"), "dim",
                 id="zero-dim"),
    pytest.param(("category-check", "--type", "A1", "--summands", "h1=-1/2",
                  "--window", "L=3,N=4,H=1", "--kmax", "-1"), "kmax",
                 id="negative-kmax"),
    pytest.param(("category-split", "--type", "A1", "--summands", "h1=-1/2",
                  "--window", "L=3,N=4,H=1", "--gwindow", "-1"), "gwindow",
                 id="negative-gwindow"),
    pytest.param(("category-decompose", "--type", "A1", "--summands", "h1=-1/2",
                  "--window", "L=3,N=4,H=1", "--nilpotency-cap", "-1"),
                 "nilpotency-cap", id="negative-nilpotency-cap"),
    pytest.param(("category-split", "--type", "A1", "--summands", "h1=-1/2",
                  "--window", "L=3,N=4,H=1", "--nilpotency-cap", "1"),
                 "--nilpotency-cap", id="split-takes-no-nilpotency-cap"),
    pytest.param(("algebra", "--type", "A3", "--twist", "1:3,3:1",
                  "--loop-degree", "-1"), "loop-degree",
                 id="algebra-negative-loop-degree"),
    pytest.param(("loopmod", "--type", "A1", "--dim", "2", "--loop-degree", "-1"),
                 "loop-degree", id="loopmod-negative-loop-degree"),
    pytest.param(("algebra", "--type", "A1", "--format", "csv"), "--format",
                 id="format-without-csv-rendering"),
    pytest.param(("verma-dims", "--type", "A1", "--delta-max", "-1"), "--delta-max",
                 id="negative-delta-max"),
    pytest.param(("roots", "--type", "A1", "--height", "1", "--loop-degree", "-1"),
                 "--loop-degree", id="roots-negative-loop-degree"),
    pytest.param(("partition", "--type", "A1", "--height", "-1",
                  "--loop-degree", "1"), "--height", id="partition-negative-height"),
    pytest.param(("roots", "--type", "A1", "--height", "x", "--loop-degree", "1"),
                 "invalid int value", id="height-not-int"),
    pytest.param(("verma-dims", "--type", "A1", "--delta-max", "2",
                  "--window", "L=3,N=2,H=2,L=1"), "component L", id="window-repeated"),
    pytest.param(("verma-dims", "--type", "A1", "--lambda", "h1=-1/2,h1=5",
                  "--delta-max", "1"), "'h1'", id="lambda-h-repeated"),
    # h01 and h1 name the same entry
    pytest.param(("singular", "--type", "A2", "--lambda", "h1=-1/2,h2=0,h01=1",
                  "--window", "L=2,N=1,H=1"), "'h01'", id="lambda-h-respelled"),
    pytest.param(("verma-act", "--type", "A1", "--lambda", "d=1,h1=0,d=2",
                  "--gen", "e1@0"), "'d'", id="lambda-d-repeated"),
    pytest.param(("category-check", "--type", "A1",
                  "--summands", "h1=-1/2|c=0,h1=-3/2,c=0",
                  "--window", "L=3,N=4,H=1"), "'c'", id="summand-c-repeated"),
    # an empty entry is not the weight 0
    pytest.param(("category-check", "--type", "A1", "--summands", "h1=-1/2|",
                  "--window", "L=2,N=2,H=1"), "empty --summands entry",
                 id="summand-empty-last"),
    pytest.param(("category-split", "--type", "A1", "--summands", "|h1=-1/2",
                  "--window", "L=2,N=2,H=1"), "empty --summands entry",
                 id="summand-empty-first"),
    pytest.param(("category-decompose", "--type", "A1",
                  "--summands", "h1=-1/2| |h1=-3/2", "--window", "L=2,N=2,H=1"),
                 "empty --summands entry", id="summand-blank"),
    # a generator or symbol the algebra or module has no place for
    pytest.param(("verma-act", "--type", "A1", "--gen", "e3@0"), "out of range",
                 id="gen-index"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e2@0"), "out of range",
                 id="gen-index-rank-plus-one"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "x[1,1]@0"), "no root",
                 id="gen-root"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "B2@1"), "out of range", id="symbol-index"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "F[2]@1"), "positive root", id="symbol-root"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "F[1,1]@0"), "positive root", id="symbol-root-rank"),
    pytest.param(("verma-act", "--type", "A1", "--reduced", "--gen", "e1@0",
                  "--monomial", "B1@1"), "reduced", id="symbol-b-in-reduced"),
    # the CLI parses a symbol's shape; VermaModule.vector and parse_gen judge it
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "B1@0"), "l > 0", id="symbol-b-degree-zero"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "B1@-2"), "l > 0", id="symbol-b-degree-negative"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@0",
                  "--monomial", "B0@1"), "out of range", id="symbol-b-index-zero"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "c@0"), "acts by a scalar",
                 id="gen-c"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "d@1"), "acts by a scalar",
                 id="gen-d"),
    pytest.param(("verma-act", "--type", "A1", "--gen", "e1@x"), "want e1@-2",
                 id="gen-malformed-hint"),
])
def test_malformed_window_is_usage_error(capsys, argv, word):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert word in err


def _tampered(edit):
    data = build_loop_module(
        AffineAlgebra(build_simple_algebra(cartan_matrix_of_type("A1"))),
        sl2_irrep_matrices(2), 1).to_json_dict()
    edit(data)
    return json.dumps(data)


def _row_off_target(data):
    triples = next(v for _, v in sorted(data["actions"].items()) if v)
    triples[0][0] = triples[0][1]  # e/f changes the weight, so row != column


def _row_at_undefined_source(data):
    name, triples = next((k, v) for k, v in sorted(data["actions"].items()) if v)
    data["defined"][name].remove(data["basis"][triples[0][1]]["weight"])


def _generator_named_twice(field):
    """Repeat e1@0's entry of one field under the spelling x[1]@0."""
    def edit(data):
        data[field]["x[1]@0"] = data[field]["e1@0"]
    return edit


@pytest.mark.parametrize("text, word", [
    pytest.param("not json", "JSON", id="not-json"),
    pytest.param("{}", "'algebra'", id="empty-object"),
    pytest.param('{"weights": [{"h": ["x"]}]}', "'algebra'", id="no-algebra"),
    pytest.param("[1, 2]", "'algebra'", id="not-an-object"),
    pytest.param(_tampered(lambda d: d.update(algebra={"cartan": []})),
                 "empty Cartan matrix", id="empty-cartan"),
    pytest.param(_tampered(lambda d: d["weights"][0].update(h=["x"])), "'weights'",
                 id="bad-rational"),
    pytest.param(_tampered(lambda d: d["weights"][0].update(c="1/0")), "'weights'",
                 id="zero-denominator"),
    pytest.param(_tampered(lambda d: d["weights"][0].update(h=["1", "2"])),
                 "'weights'", id="wrong-rank"),
    pytest.param(_tampered(lambda d: d.pop("basis")), "'basis'", id="no-basis"),
    pytest.param(_tampered(lambda d: d["basis"][0].update(weight=-1)), "'basis'",
                 id="negative-weight-index"),
    pytest.param(_tampered(lambda d: d["defined"].update({"e1@0": [99]})),
                 "'defined'", id="defined-index-out-of-range"),
    pytest.param(_tampered(lambda d: d["actions"].update({"e1@0": [[0, 99, "1"]]})),
                 "'actions'", id="action-index-out-of-range"),
    pytest.param(_tampered(_row_off_target), "'actions'", id="action-off-target"),
    pytest.param(_tampered(_row_at_undefined_source), "'actions'",
                 id="action-at-undefined-source"),
    pytest.param(_tampered(lambda d: d["actions"].update({"x[1,1]@0": [[0, 0, "1"]]})),
                 "'actions'", id="action-name-not-a-root"),
    pytest.param(_tampered(lambda d: d["actions"].update({"x[2]@0": [[0, 0, "1"]]})),
                 "'actions'", id="action-name-twice-a-root"),
    pytest.param(_tampered(_generator_named_twice("actions")), "'actions'",
                 id="action-generator-named-twice"),
    pytest.param(_tampered(_generator_named_twice("defined")), "'defined'",
                 id="defined-generator-named-twice"),
    # h_i (x) t^0 acts from the weights, so a stored table for it is refused
    pytest.param(_tampered(lambda d: d["actions"].update({"h1@0": [[0, 0, "5"]]})),
                 "'actions'", id="action-h-degree-zero"),
    pytest.param(_tampered(lambda d: d["defined"].update({"h1@0": [0]})),
                 "'defined'", id="defined-h-degree-zero"),
    # c and d act by scalars from the weights and have no generator name
    pytest.param(_tampered(lambda d: d["actions"].update({"c@0": [[0, 0, "1"]]})),
                 "'actions'", id="action-c"),
    pytest.param(_tampered(lambda d: d["defined"].update({"d@0": [0]})),
                 "'defined'", id="defined-d"),
])
def test_malformed_module_file_is_one_line(tmp_path, capsys, text, word):
    path = tmp_path / "module.json"
    path.write_text(text)
    code, out, err = run(capsys, "category-check", "--module", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err and word in err


@pytest.mark.parametrize("argv, content, want_code, word", [
    pytest.param(("algebra", "--matrix-file", "FILE"), b"2 x\n", 1, "'x'",
                 id="matrix-entry-not-an-integer"),
    pytest.param(("algebra", "--matrix-file", "FILE"), b"\xff\n", 1, "0xff",
                 id="matrix-file-not-utf8"),
    # cycle 1-2-3 has products a_12 a_23 a_31 = -2 and a_21 a_32 a_13 = -1
    pytest.param(("algebra", "--matrix-file", "FILE"), b"2 -1 -1\n-1 2 -1\n-2 -1 2\n",
                 1, "matrix is not symmetrizable", id="matrix-not-symmetrizable"),
    # A2 + A1 and A2 + B2: Dynkin diagrams of two components
    pytest.param(("algebra", "--matrix-file", "FILE"), b"2 -1 0\n-1 2 0\n0 0 2\n",
                 1, "matrix is decomposable", id="matrix-decomposable"),
    pytest.param(("algebra", "--matrix-file", "FILE"),
                 b"2 -1 0 0\n-1 2 0 0\n0 0 2 -1\n0 0 -2 2\n",
                 1, "matrix is decomposable", id="matrix-decomposable-B2"),
    pytest.param(("singular", "--matrix-file", "FILE", "--window", "L=2,N=1,H=1"),
                 b"2 -1 0\n-1 2 0\n0 0 2\n", 1, "matrix is decomposable",
                 id="singular-matrix-decomposable"),
    pytest.param(("--config", "FILE", "algebra", "--type", "A1"), b"\xff\n", 2,
                 "0xff", id="config-file-not-utf8"),
])
def test_unreadable_input_file_is_one_line(tmp_path, capsys, argv, content,
                                           want_code, word):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == want_code
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert word in err


def _reduced_verma_file(tmp_path, edit):
    alg = AffineAlgebra(build_simple_algebra(cartan_matrix_of_type("A1")))
    data = ExplicitModule.from_reduced_verma(
        alg, parse_weight("h1=-1/2", 1), kmax=3,
        window=TruncationWindow(L=3, N=4, H=1), loop_window=3).to_json_dict()
    edit(data["meta"])
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    return path


def test_decompose_module_file_with_meta(tmp_path, capsys):
    path = _reduced_verma_file(tmp_path, lambda meta: None)
    code, out, _ = run(capsys, "category-decompose", "--module", str(path))
    assert code == 0
    assert json.loads(out)["result"]["audit"]["passed"]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda meta: meta["window"].pop("N"), id="no-window-N"),
    pytest.param(lambda meta: meta.pop("height"), id="no-height"),
    pytest.param(lambda meta: meta.update(kmax="x"), id="bad-kmax"),
    pytest.param(lambda meta: meta["window"].update(L=0), id="zero-window-L"),
])
def test_unreadable_audit_meta_is_one_line(tmp_path, capsys, edit):
    path = _reduced_verma_file(tmp_path, edit)
    for command in ("category-decompose", "category-check"):
        code, out, err = run(capsys, command, "--module", str(path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err and "'meta'" in err


def test_audit_meta_height_above_window_is_one_line(tmp_path, capsys):
    # the audit cannot count summand spaces above the window's H
    path = _reduced_verma_file(tmp_path, lambda meta: meta.update(height=3))
    code, out, err = run(capsys, "category-decompose", "--module", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "exceeds window H=1" in err


def test_check_reports_nilpotency_cap_violations(tmp_path, capsys):
    mod_file = tmp_path / "loop.json"
    code, _, _ = run(capsys, "loopmod", "--type", "A1", "--dim", "3",
                     "--loop-degree", "1", "--out", str(mod_file))
    assert code == 0
    # the cap bounds the nilpotency degree itself: the middle vectors have
    # degree 2 and the lowest degree 3, so both fail at cap 1, the lowest
    # alone at cap 2, and none from cap 3 on
    for cap, violations in (("1", 14), ("2", 5), ("3", 0), ("16", 0)):
        code, out, _ = run(capsys, "category-check", "--module", str(mod_file),
                           "--gwindow", "1", "--nilpotency-cap", cap)
        assert code == 0
        axiom = json.loads(out)["result"]["axioms"]["2"]
        assert len(axiom["violations"]) == violations
        assert axiom["passed"] == (violations == 0)


def test_decompose_applies_the_nilpotency_cap(capsys):
    # both summands' e_{1,n} nilpotency degrees exceed 1, so membership fails
    # axiom 2 at cap 1 and holds at the default cap of 16
    argv = ("category-decompose", "--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
            "--window", "L=3,N=4,H=1", "--gwindow", "3")
    code, out, err = run(capsys, *argv, "--nilpotency-cap", "1")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "['2']" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"]["nilpotency_cap"] == 16


def test_verma_act_non_simple_root_monomial(capsys):
    # the comma inside F[1,1] belongs to the root, not to the symbol list
    code, out, _ = run(capsys, "verma-act", "--type", "A2",
                       "--lambda", "h1=-1/2,h2=-1/2", "--reduced",
                       "--gen", "e1@0", "--monomial", "F[1,1]@0")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["input"] == "F([1,1],0)*v"
    assert data["result"]["image"] == {"F([0,1],0)*v": "1"}


def test_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "verma-act", "--type", "A1", "--lambda", "h1=0,c=1",
                       "--reduced", "--gen", "e1@0")
    assert code == 1
    assert "lambda(c) = 0" in err


@pytest.mark.parametrize("argv", [
    ("verma-act", "--type", "A1", "--gen", "h1@1", "--monomial", ",".join(["B1@1"] * 1000)),
], ids=["verma-act-long-monomial"])
def test_recursion_error_is_one_line_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "RecursionError: the input is too large to compute\n"


def test_long_full_window_prints_the_closed_form(capsys):
    # the search solves the spaces at s = 0 in listing order, short B-parts
    # first, so the image of B(1,1)^j finds that of B(1,1)^(j-1) memoised;
    # most negative k first would straighten B(1,1)^1000 on an empty memo
    code, out, err = run(capsys, "singular", "--full", "--type", "A1",
                         "--lambda", "h1=-1/2", "--window", "L=1000,N=1,H=1")
    assert (code, err) == (0, "")
    alg = AffineAlgebra(build_simple_algebra(cartan_matrix_of_type("A1")))
    mod = VermaModule(alg, parse_weight("h1=-1/2", 1))
    closed = full_singular_closed_form(mod, parse_window("L=1000,N=1,H=1"))
    expected = [{"offset": {"delta": k, "finite": list(s)},
                 "vector": {monomial_name(m): str(c) for m, c in terms.items()}}
                for (k, s), terms in closed]
    assert len(expected) == 1001
    assert json.loads(out)["result"]["singular_vectors"] == expected


def test_memory_error_is_one_line_exit_one(capsys, monkeypatch):
    def exhausted(self, window):
        raise MemoryError

    monkeypatch.setattr(VermaModule, "reached_offsets", exhausted)
    code, out, err = run(capsys, "singular", "--type", "A1", "--lambda", "h1=-1/2",
                         "--window", "L=100000000,N=1,H=100000000")
    assert (code, out) == (1, "")
    assert err == "MemoryError: the input is too large to compute\n"


def test_missing_subcommand_usage(capsys):
    code = main([])
    assert code == 2


def test_determinism_byte_identical(capsys):
    args = ("partition", "--type", "A2", "--which", "natural",
            "--height", "3", "--loop-degree", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["result"]["status"] == "pass"


SEQUENCE = [
    ("singular", "--type", "A1", "--lambda", "h1=0"),  # --window is required
    ("singular", "--type", "A2", "--lambda", "h1=1,h2=0", "--window", "L=3,N=2,H=2"),
    ("category-decompose", "--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
     "--window", "L=3,N=4,H=1", "--gwindow", "3", "--scramble", "11"),
    ("verma-dims", "--type", "A2", "--offset", "1,1", "--delta-max", "2"),
]


def test_subcommands_in_one_process_match_fresh_processes(capsys):
    # main reuses one parser within a process: each run must still give the
    # bytes and exit code of a fresh process running that argv alone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(imverma.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    for argv in SEQUENCE:
        alone = subprocess.run([sys.executable, "-m", "imverma.cli", *argv],
                               capture_output=True, text=True, env=env)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
        assert code == (2 if argv is SEQUENCE[0] else 0)


def test_algebra_twist_loop_degree_zero(capsys):
    code, out, _ = run(capsys, "algebra", "--type", "A3",
                       "--twist", "1:3,3:1", "--loop-degree", "0")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["loop_degree"] == 0
    assert data["result"]["twist"]["graded_dimensions"] == {"0": 10}


def test_roots_record_shape(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A1", "--which", "natural",
                       "--height", "1", "--loop-degree", "1")
    data = json.loads(out)
    recs = data["result"]["roots"]
    assert recs
    for rec in recs:
        assert set(rec) == {"root", "real", "in_S", "in_minus_S"}
        assert rec["in_S"] != rec["in_minus_S"]


def test_algebra_summary_and_twist(capsys):
    code, out, _ = run(capsys, "algebra", "--type", "A3",
                       "--twist", "1:3,3:1", "--loop-degree", "2")
    data = json.loads(out)
    assert data["result"]["dimension"] == 15
    assert data["result"]["twist"]["graded_dimensions"]["0"] == 10
    assert data["result"]["twist"]["graded_dimensions"]["1"] == 5


def test_singular_cli(capsys):
    code, out, _ = run(capsys, "singular", "--type", "A1", "--lambda", "h1=0",
                       "--window", "L=4,N=3,H=1")
    data = json.loads(out)
    assert code == 0
    vecs = data["result"]["singular_vectors"]
    assert len(vecs) == 8  # v itself plus F(alpha,n) for |n| <= 3


def test_verma_act_cli(capsys):
    code, out, _ = run(capsys, "verma-act", "--type", "A1",
                       "--lambda", "h1=-1/2", "--reduced",
                       "--gen", "e1@-2", "--monomial", "F[1]@2")
    data = json.loads(out)
    assert data["result"]["image"] == {"v": "-1/2"}


def test_category_pipeline_with_files(tmp_path, capsys):
    mod_file = tmp_path / "loop.json"
    code, out, _ = run(capsys, "loopmod", "--type", "A1", "--dim", "3",
                       "--loop-degree", "3", "--out", str(mod_file))
    assert code == 0 and mod_file.exists()
    summary = json.loads(out)
    assert summary["result"]["total_dim"] == 21
    code, out, _ = run(capsys, "category-check", "--module", str(mod_file),
                       "--gwindow", "3")
    data = json.loads(out)
    assert not data["result"]["axioms"]["1"]["passed"]
    assert not data["result"]["axioms"]["3"]["passed"]
    assert data["result"]["axioms"]["2"]["passed"]


def test_category_split_and_decompose_from_summands(capsys):
    args = ("--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
            "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3")
    code, out, _ = run(capsys, "category-split", *args)
    data = json.loads(out)
    assert code == 0
    torsion = data["result"]["torsion"]
    assert sum(len(v) for v in torsion.values()) == 2
    code, out, _ = run(capsys, "category-decompose", *args, "--scramble", "5")
    data = json.loads(out)
    hs = sorted(s["h"][0] for s in data["result"]["summands"])
    assert hs == ["-1/2", "-3/2"]
    assert data["result"]["audit"]["passed"]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("type=A1\ndelta-max=3\nlambda=h1=-1/2\n")
    code, out, _ = run(capsys, "verma-dims", "--config", str(cfg))
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[1:] == ["0,1", "1,1", "2,2", "3,3"]


def test_config_file_given_with_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "a2.cfg"
    cfg.write_text("type=A2\n")
    code, out, err = run(capsys, f"--config={cfg}", "verma-dims", "--delta-max", "1")
    assert (code, err) == (0, "")
    assert "# type=A2" in out


def test_config_file_serves_several_subcommands(tmp_path, capsys):
    # each subcommand takes the keys it has a flag for and skips the others
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("# one file for every run\ntype=A1\nnilpotency_cap=3\nformat=json\n")
    build = ("--summands", "h1=-1/2", "--window", "L=2,N=1,H=1", "--gwindow", "1")
    for argv, want in ((("category-check", *build), {"nilpotency_cap": 3}),
                       (("category-split", *build), {}),
                       (("roots", "--height", "1", "--loop-degree", "1"), {})):
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, err) == (0, ""), argv
        config = json.loads(out)["config"]
        assert config["type"] == "A1"
        assert config.get("nilpotency_cap") == want.get("nilpotency_cap")


def test_config_file_flag_given_in_argv_wins(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("type=A1\nheight=-1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "roots", "--height=2",
                       "--loop-degree", "1")
    assert code == 0
    assert json.loads(out)["config"]["height"] == 2


@pytest.mark.parametrize("text, word", [
    pytest.param("type=A1\nfoo=1\n", "foo", id="key-of-no-subcommand"),
    pytest.param("type=A1\nreduced=true\n", "reduced", id="switch"),
    pytest.param("type=A1\nhelp=1\n", "help", id="help"),
])
def test_config_file_key_without_value_flag_is_usage_error(tmp_path, capsys, text,
                                                           word):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    for argv in (("verma-dims", "--delta-max", "1"),
                 ("roots", "--height", "1", "--loop-degree", "1")):
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert word in err


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IMVERMA_OUTDIR", str(tmp_path))
    code, out, _ = run(capsys, "partition", "--type", "A1", "--which", "natural",
                       "--height", "1", "--loop-degree", "2",
                       "--out", "report.json")
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["result"]["status"] == "pass"


def test_matrix_file_input(tmp_path, capsys):
    mf = tmp_path / "cartan.txt"
    mf.write_text("2 -1\n-1 2\n")
    code, out, _ = run(capsys, "algebra", "--matrix-file", str(mf))
    data = json.loads(out)
    assert data["result"]["dimension"] == 8


@pytest.mark.parametrize("argv", [
    pytest.param(("algebra",), id="algebra"),
    pytest.param(("singular", "--lambda", "h1=-1/2", "--window", "L=2,N=1,H=1"),
                 id="singular"),
    pytest.param(("category-check", "--summands", "h1=-1/2", "--window", "L=2,N=1,H=1",
                  "--gwindow", "1"), id="category-check"),
    pytest.param(("category-split", "--summands", "h1=-1/2", "--window", "L=2,N=1,H=1",
                  "--gwindow", "1"), id="category-split"),
    pytest.param(("category-decompose", "--summands", "h1=-1/2", "--window",
                  "L=2,N=1,H=1", "--gwindow", "1"), id="category-decompose"),
    pytest.param(("loopmod", "--dim", "2", "--loop-degree", "1"), id="loopmod"),
])
def test_report_config_names_the_matrix_file(tmp_path, capsys, argv):
    mf = tmp_path / "cartan.txt"
    mf.write_text("2\n")
    code, out, _ = run(capsys, argv[0], "--matrix-file", str(mf), *argv[1:])
    assert code == 0
    config = json.loads(out)["config"]
    assert config["matrix_file"] == str(mf)
    assert "type" not in config


# Small valid and malformed values per flag; windows stay within L=2,N=1,H=1
# so one example runs in milliseconds. None marks a flag without a value.
_TYPE = ["A1", "A1", "A2", "Z9", ""]
_LAMBDA = ["h1=-1/2", "h1=-1/2,h2=-1/2", "h1=1/0", "h1=abc", "x", ""]
_WINDOW = ["L=2,N=1,H=1", "L=1,N=1,H=1", "L=2,N=1", "L=x,N=1,H=1",
           "L=0,N=0,H=0", "L=-1,N=1,H=1", ""]
_INT = ["-1", "0", "1", "2", "x", ""]
_SUMMANDS = ["h1=-1/2", "h1=-1/2|h1=-3/2", "h1=-1/2,h2=-1/2", "h1=x", "|"]
_CATEGORY = {"--type": _TYPE, "--summands": _SUMMANDS, "--window": _WINDOW,
             "--kmax": _INT, "--gwindow": _INT, "--scramble": ["3", "x"],
             "--nilpotency-cap": _INT, "--module": ["", "/nonexistent.json"]}
_FLAGS = {
    "algebra": {"--type": _TYPE + ["A3"], "--twist": ["1:3,3:1", "1:x", "1:2"],
                "--loop-degree": _INT},
    "roots": {"--type": _TYPE, "--which": ["natural", "standard", "other"],
              "--height": _INT, "--loop-degree": _INT},
    "partition": {"--type": _TYPE, "--which": ["natural", "standard"],
                  "--height": _INT, "--loop-degree": ["-1", "0", "1", "x"]},
    "verma-dims": {"--type": _TYPE, "--lambda": _LAMBDA, "--delta-max": _INT,
                   "--offset": ["1", "1,0", "1,a", ""], "--reduced": [None],
                   "--window": _WINDOW},
    "verma-act": {"--type": _TYPE, "--lambda": _LAMBDA, "--reduced": [None],
                  "--gen": ["e1@0", "f1@-1", "h1@1", "x[1,1]@0", "c@0", "e3@0",
                            "e1@x", ""],
                  "--monomial": ["F[1]@1", "B1@1", "B1@0", "F[1,x]@0", "F[1]@1,B1@2",
                                 ""]},
    "singular": {"--type": _TYPE, "--lambda": _LAMBDA, "--full": [None],
                 "--window": _WINDOW},
    "category-check": _CATEGORY,
    "category-split": _CATEGORY,
    "category-decompose": _CATEGORY,
    "loopmod": {"--type": _TYPE, "--dim": _INT, "--loop-degree": ["-1", "0", "1"]},
}
for _pool in _FLAGS.values():
    _pool["--format"] = ["json", "csv", "xml"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, pool in _FLAGS[command].items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(pool))
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1


def _readme_cli_examples():
    """The argvs of the fenced block under README's "## CLI" heading, with
    backslash continuations joined and trailing # comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # loopmod --out loop3.json writes the module that category-check reads
    monkeypatch.delenv("IMVERMA_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert examples
    for argv in examples:
        assert argv[0] == "imverma"
        code, _, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv

"""CLI surface: the documented subcommands, exit codes, output formats,
determinism, config file and output-directory environment variable."""

import json

import pytest

from imverma.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
])
def test_malformed_window_is_usage_error(capsys, argv, word):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert word in err


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
    code, _, err = run(capsys, "verma-act", "--type", "A1", "--lambda", "h1=0",
                       "--reduced", "--gen", "e3@0")
    assert code == 1
    assert "out of range" in err


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

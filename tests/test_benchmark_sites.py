"""The names the benchmark harness under perfbench/ looks up in the library
still exist: every span site of perfbench/spans.py, every name a perfbench
script imports from the library, the VermaModule methods that
perfbench/checks.py calls to verify singular reports, and the shape of
ExplicitModule.defined that spans.py counts. The full workload check
(perfbench/tests/check_workloads.py) runs the workloads and takes about a
minute; this only resolves names, so a deletion in the library that would
break the benchmark fails here first."""

import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from imverma.affine import AffineAlgebra
from imverma.cartan import cartan_matrix_of_type
from imverma.category import ExplicitModule
from imverma.finite import build_simple_algebra
from imverma.verma import TruncationWindow, parse_weight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")


@pytest.mark.parametrize("span, modname, attr", SPANS.FUNCTIONS,
                         ids=[f[0] for f in SPANS.FUNCTIONS])
def test_span_function_resolves(span, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("span, modname, clsname, attr", SPANS.METHODS,
                         ids=[m[0] for m in SPANS.METHODS])
def test_span_method_resolves(span, modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname)
    assert callable(getattr(cls, attr))


def _library_imports(name):
    """(module, name) of every name that perfbench/<name>.py imports from
    imverma, with name None for a plain import, read from its source."""
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
    return [(m, attr) for m, attr in found if m.split(".")[0] == "imverma"]


@pytest.mark.parametrize("name", sorted(p.stem for p in PERFBENCH.glob("*.py")))
def test_library_imports_resolve(name):
    for modname, attr in _library_imports(name):
        module = importlib.import_module(modname)
        assert attr is None or hasattr(module, attr), (name, modname, attr)


def test_checks_module_names_resolve():
    assert ("imverma.verma", "VermaModule") in _library_imports("checks")
    checks = _load("checks")
    for attr in ("annihilator_generators", "act", "basis_monomials"):
        assert callable(getattr(checks.VermaModule, attr))


def test_defined_keeps_the_shape_spans_counts():
    # spans.py counts category.from_reduced_verma.defined_frac as the stored
    # (generator, source) pairs over generators x weights: defined must stay
    # {gkey: {source weight index: block}}
    alg = AffineAlgebra(build_simple_algebra(cartan_matrix_of_type("A1")))
    em = ExplicitModule.from_reduced_verma(alg, parse_weight("h1=-1/2", 1),
                                           kmax=2, window=TruncationWindow(3, 2, 1),
                                           loop_window=2)
    for gk, per_src in em.defined.items():
        assert set(per_src) <= set(range(len(em.weights)))
        for src, block in per_src.items():
            assert em.table(gk, src)[0] is block
    stat = defaultdict(float)
    SPANS.Tracer()._post("category.from_reduced_verma", stat, (), em)
    assert stat["defined_pairs"] == sum(len(s) for s in em.defined.values())
    assert 0 < stat["defined_pairs"] < stat["attempted_pairs"]
    assert stat["attempted_pairs"] == len(em.defined) * len(em.weights)

"""The names the benchmark harness under perfbench/ looks up in the library
still exist: every span site of perfbench/spans.py, and the VermaModule
methods that perfbench/checks.py calls to verify singular reports. The full
workload check (perfbench/tests/check_workloads.py) runs the workloads and
takes about a minute; this only resolves names, so a deletion in the library
that would break the benchmark fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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


def test_checks_module_names_resolve():
    checks = _load("checks")
    for attr in ("annihilator_generators", "act", "basis_monomials"):
        assert callable(getattr(checks.VermaModule, attr))

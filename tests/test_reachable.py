"""Every top-level function and class of the library is reached: src/ keeps
only what the system uses, and a helper that only tests call lives in
tests/oracles.py. A definition counts as reached when its name appears as a
name or an attribute anywhere in src/ outside its own definition, is
exported in imverma.__all__, or appears as a name, an attribute or a string
in a perfbench script (the span sites and the harness's imports). The scan
reads source with ast and imports nothing but the package itself."""

import ast
from pathlib import Path

import imverma

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "imverma"


def _names(tree, strings=False):
    """Every Name id and Attribute attr in tree, and string constants when
    strings is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached_definitions():
    """(file, name) of each top-level function or class in src/imverma/*.py
    that nothing reaches."""
    # (path, top-level statement, the names it uses) over every file of src/
    top = [(path, node, _names(node)) for path in sorted(SRC.rglob("*.py"))
           for node in ast.parse(path.read_text()).body]
    reached = set(imverma.__all__)
    for path in ROOT.joinpath("perfbench").glob("*.py"):
        reached |= _names(ast.parse(path.read_text()), strings=True)
    return [(path.name, node.name) for path, node, _ in top
            if path.parent == SRC and isinstance(node, DEFINITIONS)
            and node.name not in reached
            and not any(node.name in names for _, other, names in top
                        if other is not node)]


def test_every_library_definition_is_reached():
    assert unreached_definitions() == []

"""Every top-level function and class of the library is reached: src/ keeps
only what the system uses, and a helper that only tests call lives in
tests/oracles.py. A definition counts as reached when its name appears as a
name or an attribute anywhere in src/ outside its own definition, is
exported in imverma.__all__, or is reached from a perfbench script. A
perfbench script reaches a library name in three ways only: it imports the
name with `from imverma... import`, reads it as an attribute, or names it in
a span site of spans.FUNCTIONS or spans.METHODS: a function site reaches its
function, and a method site its class and its own Class.method only.
Its other names and strings (a local variable f, a JSON key "h") reach
nothing. Public methods of the library's classes follow the same rule, read
on attributes only in src/ (a method is called as obj.method, and a local
variable of the same name does not reach it), except for a named set kept as
public API. Since a use reads obj.method whatever obj is, the scan cannot
tell apart methods of one name on different classes: the names that two or
more classes define are pinned in SHARED_PUBLIC, so a new shared name fails
until someone checks KEPT_PUBLIC for it by hand. imverma.__all__ itself is
pinned as a literal list.
The other half of the rule: every top-level definition of tests/oracles.py is
reached from a tests/test_*.py module, by name or through another oracle
definition that is.
One boundary is checked the same way: imverma.category reads no private
member of VermaModule, so the PBW action on interned ids stays in
imverma.verma. And one claim of the README's Concurrency section: no library
function keeps a process-wide memo through functools.cache or lru_cache,
except the CLI's two argument parsers.
The scan reads source with ast and imports nothing but the package itself."""

import ast
from collections import Counter
from pathlib import Path

import imverma

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "imverma"
TESTS = ROOT / "tests"

# Public methods that nothing in src/ or perfbench/ calls, kept as API: the
# vacuum vector, the count of one windowed space, the zero elements, the
# affine generators e_i, f_i and h_i (x) t^n, the d element, the twisted
# graded basis, the invariant form on elements and a diagram automorphism
# applied to an element.
KEPT_PUBLIC = {
    "VermaModule.vacuum", "VermaModule.weight_dim",
    "AffineAlgebra.zero", "AffineAlgebra.e", "AffineAlgebra.f", "AffineAlgebra.h",
    "AffineAlgebra.d_elem", "FiniteAlgebra.zero", "TwistedSubalgebra.graded_basis",
    "FiniteAlgebra.form", "DiagramAutomorphism.apply",
}

# Public method and property names that two or more library classes define,
# which the scan cannot tell apart (see the module docstring).
SHARED_PUBLIC = {"apply", "e", "f", "h", "rank", "to_json_dict", "zero"}

# The package's public names. Adding or dropping an export is a public-API
# decision, so it edits this list on purpose.
PUBLIC_API = [
    "AffineAlgebra", "AffineRoot", "CartanMatrix", "DiagramAutomorphism",
    "ExplicitModule", "FiniteAlgebra", "FiniteElement", "ImvermaError",
    "LoopElement", "ModuleVector", "TruncationWindow", "TwistedSubalgebra",
    "VermaModule", "Weight", "WindowOverflowError", "affine_bracket",
    "build_loop_module", "build_simple_algebra", "cartan_matrix_from_text",
    "cartan_matrix_of_type", "check_category_membership", "check_closed_partition",
    "decompose_into_reduced_vermas", "extract_annihilated_vector",
    "make_cartan_matrix", "natural_partition_contains", "parse_weight",
    "parse_window", "sl2_irrep_matrices", "standard_partition_contains",
    "torsion_decompose",
]


def _names(tree, names=True):
    """Every Attribute attr in tree, once per occurrence, with every Name id
    when names is set."""
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


SPAN_TABLES = ("FUNCTIONS", "METHODS")


def _perfbench_reach(tree):
    """The library names a perfbench script reaches: each name it imports
    from imverma, each attribute it reads, and for each span site in a
    SPAN_TABLES assignment its function ((span, module, attribute)) or its
    class and "class.attribute" ((span, module, class, attribute)), so a
    method site reaches no method of the same name on another class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("imverma"):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in SPAN_TABLES for t in node.targets):
            for site in ast.literal_eval(node.value):
                yield site[2]
                if len(site) == 4:
                    yield ".".join(site[2:])


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreached(definitions, names, exported=()):
    """The labels of the (label, definition node) pairs that nothing reaches:
    the name is used nowhere in src/ outside the node (as _names reads it),
    is not exported and no perfbench script reaches the name or the label
    (_perfbench_reach)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    uses = Counter(name for tree in trees for name in _names(tree, names))
    reached = set(exported)
    for path in ROOT.joinpath("perfbench").glob("*.py"):
        reached.update(_perfbench_reach(ast.parse(path.read_text())))
    return [label for label, node in definitions
            if node.name not in reached and label not in reached
            and uses[node.name] == Counter(_names(node, names))[node.name]]


def _top_level():
    """(file name, top-level statement) over every file of src/imverma."""
    return [(path.name, node) for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body]


def unreached_definitions():
    """(file, name) of each top-level function or class in src/imverma/*.py
    that nothing reaches."""
    definitions = [((name, node.name), node) for name, node in _top_level()
                   if isinstance(node, DEFINITIONS)]
    return _unreached(definitions, names=True, exported=imverma.__all__)


def _public_methods():
    """("Class.method", node) for each public method or property of a
    top-level class in src/imverma/*.py."""
    return [(f"{cls.name}.{node.name}", node)
            for _, cls in _top_level() if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def unreached_public_methods():
    """"Class.method" for each public method of a top-level class in
    src/imverma/*.py that nothing reaches."""
    return set(_unreached(_public_methods(), names=False))


def shared_public_names():
    """The public method and property names that two or more library
    classes define: the scan counts a use of one as a use of every other."""
    counts = Counter(node.name for _, node in _public_methods())
    return {name for name, n in counts.items() if n > 1}


def unreached_oracles():
    """Each top-level function or class of tests/oracles.py that no test
    module names, directly or through oracle definitions it names."""
    definitions = {node.name: node for node in ast.parse(
        (TESTS / "oracles.py").read_text()).body if isinstance(node, DEFINITIONS)}
    frontier = {name for path in TESTS.glob("test_*.py")
                for name in _names(ast.parse(path.read_text()))}
    reached = set()
    while frontier:
        reached |= frontier
        frontier = {name for found in frontier & definitions.keys()
                    for name in _names(definitions[found])} - reached
    return sorted(definitions.keys() - reached)


def private_verma_reads():
    """The attribute names that category.py reads, once each, that start
    with _ and that VermaModule defines: a method, or an attribute its
    methods assign on self."""
    verma = next(node for node in ast.parse((SRC / "verma.py").read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "VermaModule")
    members = {node.name for node in verma.body if isinstance(node, DEFINITIONS)}
    members.update(node.attr for node in ast.walk(verma)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self")
    category = ast.parse((SRC / "category.py").read_text())
    return sorted({name for name in _names(category, names=False)
                   if name.startswith("_") and name in members})


# The definitions allowed a functools memo: the CLI builds its argument
# parsers once per process and never modifies them.
MEMOISED = {("cli.py", "_parser"), ("cli.py", "_config_parser")}
MEMO_NAMES = {"cache", "lru_cache"}


def memoised_definitions():
    """(file, name) of each function or method of src/imverma whose
    decorators include functools.cache or lru_cache, bare or called, read as
    an attribute or imported from functools under any name."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        memos = MEMO_NAMES | {alias.asname for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              and node.module == "functools"
                              for alias in node.names
                              if alias.name in MEMO_NAMES and alias.asname}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "attr", getattr(dec, "id", None)) in memos:
                        found.add((path.name, node.name))
    return found


def test_category_reads_no_private_verma_member():
    assert private_verma_reads() == []


def test_no_definition_keeps_a_memo_but_the_cli_parsers():
    assert memoised_definitions() - MEMOISED == set()


def test_every_library_definition_is_reached():
    assert unreached_definitions() == []


def test_unreached_public_methods_are_the_kept_ones():
    """A new public method nothing calls fails, and so does a kept entry
    that something now calls or that is gone."""
    assert unreached_public_methods() == KEPT_PUBLIC


def test_shared_public_names_are_pinned():
    """A new shared name fails until KEPT_PUBLIC is checked for it by hand."""
    assert shared_public_names() == SHARED_PUBLIC


def test_every_oracle_is_reached_from_a_test():
    assert unreached_oracles() == []


def test_public_api_is_the_pinned_list():
    assert sorted(imverma.__all__) == PUBLIC_API

"""Source hygiene of the package itself, checked with the standard library's ast
and inspect."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import qcft
from qcft import boson, mock, special, virasoro

MODULES = sorted(p for p in Path(qcft.__file__).parent.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads (__future__ imports aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import math\nfrom fractions import Fraction\nFraction(1)\n") == ["math"]
    assert unused_imports("import os.path\nos.sep\n") == []
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def public_callables(module):
    """(name, callable) for every public function and class defined in module, and every
    public method of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_numeric_entry_point_takes_a_cutoff():
    # adaptive_cutoff is the only truncation, and the fixed facts are module constants:
    # mock.KAPPA, mock.DEFAULT_Z_LIST and boson.SPECTRAL_CUTOFF
    fixed = {"cutoff", "kappa", "z_list"}
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (special, mock, boson, virasoro)
             for name, obj in public_callables(module)
             if fixed & set(inspect.signature(obj).parameters)}
    assert found == set()   # a class's signature is its __init__'s: JacobiPoint's fields


def defined_names(source: str) -> list[str]:
    """The functions, methods and classes a module defines, nested ones too, dunders aside."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_defined_name_is_used():
    # a name that src/qcft defines and nothing in src/qcft, tests or perfbench mentions
    # again (word match, comments and strings included) is code nothing uses
    assert defined_names("def f():\n    def g(): pass\nclass C:\n    def __init__(s): pass\n"
                         ) == ["f", "C", "g"]
    sources = sorted(Path(qcft.__file__).parent.glob("*.py"))
    searched = [*sources, *(REPO / "tests").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    words = Counter(w for p in searched for w in re.findall(r"\w+", p.read_text()))
    defined = Counter(name for p in sources for name in defined_names(p.read_text()))
    assert sorted(name for name, n in defined.items() if words[name] <= n) == []


# the library computes and returns values; reports, checks, config and cli judge and
# print them, so no library module may import one of those four
LIBRARY = ("series", "special", "partitions", "regularization", "virasoro", "boson", "mock")
JUDGES = {"reports", "checks", "config", "cli"}


def package_imports(source: str) -> set[str]:
    """The qcft modules a module imports: relatively, or by the package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "qcft"):
            path = (node.module or "").split(".")[0 if node.level else 1:]
            found.update(path[:1] if path and path[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qcft."))
    return found


def test_no_library_module_imports_the_judging_layer():
    assert package_imports("from .reports import R\nfrom . import checks, series\nimport numpy\n"
                           "import qcft.config\nfrom qcft.cli import main\nfrom qcft import mock\n"
                           ) == {"reports", "checks", "series", "config", "cli", "mock"}
    package = Path(qcft.__file__).parent
    found = {name: package_imports((package / f"{name}.py").read_text()) & JUDGES
             for name in LIBRARY}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_package_has_no_assert_statement():
    # a fact the package states is a record of checks, not an assert (which python -O drops)
    found = {p.name: [node.lineno for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Assert)]
             for p in Path(qcft.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_library_class_writes_its_own_record():
    # checks alone turns values into records; a series keeps its to_record because the
    # series.serialization_stable record checks that serialization
    package = Path(qcft.__file__).parent
    found = {f"{name}.{node.name}" for name in LIBRARY
             for node in ast.walk(ast.parse((package / f"{name}.py").read_text()))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(f, ast.FunctionDef) and f.name == "to_record" for f in node.body)}
    assert found == {"series.FracQSeries"}

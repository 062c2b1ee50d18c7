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
    # adaptive_cutoff is the only truncation; the one declared cutoff is the spectral
    # sum that the lattice determinant ratios are checked against
    declared = {"boson.continuum_determinant_ratio"}
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (special, mock, boson, virasoro)
             for name, obj in public_callables(module)
             if "cutoff" in inspect.signature(obj).parameters}
    assert found == declared   # a class's signature is its __init__'s: JacobiPoint's fields


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

"""Source hygiene of the package itself, checked with the standard library's ast
and inspect."""

import ast
import inspect
from pathlib import Path

import qcft
from qcft import boson, mock, special, virasoro

MODULES = sorted(p for p in Path(qcft.__file__).parent.glob("*.py") if p.name != "__init__.py")


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

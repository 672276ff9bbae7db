"""Every name a module of the package imports is used in that module.

No linter runs in CI, so this reads each module under src/cubicunits/
with the standard library's ast: a name bound by an import must appear
as a name in the module's code (a docstring or comment does not count),
or in its __all__.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubicunits"


def unused_imports(source: str) -> list[str]:
    """The names source binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names a module lists for export
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from math import floor, isqrt\nimport os.path\nimport sys as system\nisqrt(4)\n"
    assert unused_imports(source) == ["floor (line 1)", "os (line 2)", "system (line 3)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []

"""No module of the package or of the tests imports a name it never uses.

A standard-library AST scan stands in for a linter.  A name bound by an
``import`` counts as used when the module loads it anywhere else (attribute
access ``mod.x`` counts for ``mod``) or lists it in ``__all__``.  The
package ``__init__.py`` re-exports the public API, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "skewchain").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """The names bound by imports in ``source`` that nothing else uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    src = "import os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]

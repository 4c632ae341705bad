"""No module imports a name it never uses, and the package defines nothing
that no module of it references.

A standard-library AST scan stands in for a linter.  A name bound by an
``import`` counts as used when the module loads it anywhere else (attribute
access ``mod.x`` counts for ``mod``) or lists it in ``__all__``.  The
package ``__init__.py`` re-exports the public API, so it is exempt.

A module-level function or class of the package, or a public method of
such a class, counts as referenced when a package module loads its name or
an attribute of that name outside the definition's own body, or when
``__all__`` lists it.  Definitions that are kept without a caller are named
in ``UNREFERENCED_ALLOWED`` with the reason.  A reason that cites
``perfbench/`` must name something the benchmark's modules still use, so
such an exception fails loudly once the benchmark stops using it.

Every attribute that a class of the package sets, on ``self`` or in its
class body, must be read somewhere in the package, the tests, ``perfbench/``
or ``scripts/``: as an attribute load, or as the name string of a
``getattr``.  ``__slots__`` is exempt; attributes kept unread are named in
``UNREAD_ATTRIBUTES_ALLOWED`` with the reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "skewchain").glob("*.py"))
MODULES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)

#: Definitions the package keeps although none of its modules uses them.
UNREFERENCED_ALLOWED = {
    "transport_down": "the paper's translation from the bar resolution back "
                      "to the twisted complex; test_cochains checks "
                      "transport_down∘transport_up = id",
    "FactoredSolver": "perfbench/tracer.py patches linalg.FactoredSolver by "
                      "name",
    "FactoredSolver.solve": "perfbench/tracer.py patches "
                            "linalg.FactoredSolver by name",
    "Cochain.scaled": "the scalar multiple of the cochain vector space; "
                      "test_cochains checks the circle-product identities "
                      "with it",
    "as_vector": "perfbench/workloads.py compares pi(iota(x)) against "
                 "complexes.as_vector(x)",
}

#: Attributes (``Class.attr``) the package sets although nothing reads them.
UNREAD_ATTRIBUTES_ALLOWED: dict = {}


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


def unreferenced_definitions(sources: dict) -> list:
    """The (module, name) of each module-level function or class, and of
    each public method (``Class.method``) of a module-level class, in
    ``sources`` (module name -> source text) that nothing references.

    A reference is a loaded name or an attribute; one made inside the body
    of the definition it names does not count.
    """
    defined = []
    referenced = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            referenced.add(name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                referenced |= {sub.value for sub in ast.walk(node.value)
                               if isinstance(sub, ast.Constant)}
            visit(node, frozenset())
    return sorted((module, name) for module, name in defined
                  if name.rpartition(".")[2] not in referenced)


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    found = unreferenced_definitions(sources)
    assert [(m, n) for m, n in found if n not in UNREFERENCED_ALLOWED] == []
    # an exception whose definition gained a caller is stale
    assert sorted(n for _, n in found) == sorted(UNREFERENCED_ALLOWED)


def used_names(paths) -> set:
    """Every name, attribute and string constant of the modules:
    the ways they reach into the package, directly or by ``getattr``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                names.add(node.value)
    return names


def test_exceptions_kept_for_the_benchmark_are_still_used():
    cited = [name for name, why in UNREFERENCED_ALLOWED.items()
             if "perfbench/" in why]
    used = used_names((ROOT / "perfbench").glob("*.py"))
    assert cited
    assert [name for name in cited
            if not set(name.split(".")) <= used] == []


def test_scan_sees_an_unreferenced_definition():
    sources = {
        "a": "def f():\n    return f()\n\nclass C:\n    pass\n\n"
             "def g():\n    return h()\n\ndef h():\n    pass\n",
        "b": "__all__ = ['C']\n",
    }
    assert unreferenced_definitions(sources) == [("a", "f"), ("a", "g")]


def test_scan_sees_an_unreferenced_method():
    sources = {
        "a": "class C:\n    def m(self):\n        return self.m()\n\n"
             "    def n(self):\n        return self.k()\n\n"
             "    def k(self):\n        pass\n\n"
             "    def _p(self):\n        pass\n\n"
             "    def __len__(self):\n        return 0\n",
        "b": "from a import C\nC().n()\n",
    }
    assert unreferenced_definitions(sources) == [("a", "C.m")]


def attributes_set(sources: dict) -> list:
    """``(module, "Class.attr")`` for every attribute that a class in
    ``sources`` (module name -> source text) sets: a name assigned in the
    class body, or an attribute of ``self`` stored in any of its methods.
    """
    out = []
    for module, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            for item in cls.body:
                if isinstance(item, ast.Assign):
                    targets = item.targets
                elif (isinstance(item, ast.AnnAssign)
                      and item.value is not None):
                    targets = [item.target]
                else:
                    continue
                for target in targets:
                    names |= {t.id for t in getattr(target, "elts", [target])
                              if isinstance(t, ast.Name)}
            names |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"}
            names.discard("__slots__")
            out += [(module, f"{cls.name}.{name}") for name in names]
    return sorted(out)


def attributes_read(texts) -> set:
    """Every attribute name the sources load, or pass to ``getattr`` as a
    string."""
    names = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def unread_attributes(package: dict, readers) -> list:
    """The attributes set by the classes of ``package`` that no source
    text of ``readers`` reads."""
    read = attributes_read(readers)
    return [(module, name) for module, name in attributes_set(package)
            if name.partition(".")[2] not in read]


def test_every_attribute_is_read():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in [
        *PACKAGE, *(ROOT / "tests").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]]
    found = unread_attributes(package, readers)
    assert [(m, n) for m, n in found
            if n not in UNREAD_ATTRIBUTES_ALLOWED] == []
    # an exception whose attribute is now read, or gone, is stale
    assert sorted(n for _, n in found) == sorted(UNREAD_ATTRIBUTES_ALLOWED)


def test_scan_sees_an_unread_attribute():
    package = {
        "a": "class C:\n    __slots__ = ('x', 'y', 'z')\n    k = 1\n"
             "    j: int = 2\n    n: int\n\n"
             "    def __init__(self, o):\n        self.x, self.y = 1, 2\n"
             "        self.z = 3\n        o.w = 4\n"
             "        print(self.x)\n",
    }
    readers = [*package.values(), "getattr(c, 'z')\nc.j += 1\n"]
    assert unread_attributes(package, readers) == [
        ("a", "C.j"), ("a", "C.k"), ("a", "C.y")]

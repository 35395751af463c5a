"""Every module of the package, every test file and every demo uses every
name it imports, the package imports nothing outside the standard library,
every private function or class of the package is used in the package, and
every public one has a library caller.

The checks are stdlib ast walks.  A name bound by an import at any level of
a file must appear as a Name somewhere else in that file; the package's
__init__.py re-exports names on purpose and is left out of that check, and
so is bench/, whose files change only together with the benchmark's
recorded baseline.  Every absolute import of every package module,
__init__.py included, must name a module in sys.stdlib_module_names.  A
function or class whose name starts with one underscore must appear as a
Name or an attribute in some module of the package, so a helper that lost
its last caller is seen.  A public top-level function or class, and a
public non-dunder method of a package class, must be mentioned (a method
as an attribute of its own name, so a local variable of that name does
not count) in the package outside its own definition, in a demo, or as a
"<module>.<name>" metric of bench/tracing.py; code that only tests
call belongs in tests/oracles.py, and each exception is listed with its
reason.  The package's __all__ lists each name it
imports once, and each entry resolves.
"""

import ast
import sys
from pathlib import Path

import pytest

import tropitheta

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropitheta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRACING = ROOT / "bench" / "tracing.py"

# "module.name" (a method as "module.Class.method") -> why that public
# definition stays without a library caller
UNCALLED_PUBLIC = {
    "cli._Parser.error": "argparse calls it: it overrides "
                         "ArgumentParser.error to make usage errors exit 1",
}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


def non_stdlib_imports(source):
    # top-level names of absolute imports; relative ones have level > 0
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return sorted((line, name) for line, name in names
                  if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_the_check_sees_a_third_party_import():
    source = ("import os.path\nimport numpy as np\n"
              "from sympy.core import S\nfrom . import theta\n"
              "from .errors import SchemaError\n")
    assert non_stdlib_imports(source) == [(2, "numpy"), (3, "sympy.core")]


def unreferenced_private_defs(sources):
    # (label, line, name) of every function or class named _x in the
    # sources (label -> text) that no Name or attribute of them mentions
    defined = []
    used = set()
    for label, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") \
                        and not node.name.startswith("__"):
                    defined.append((label, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defined if d[2] not in used)


def test_every_private_definition_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_the_check_sees_an_unused_private_definition():
    sources = {"a.py": "def _used():\n    pass\n\n\n"
                       "class _Gone:\n    def _method(self):\n"
                       "        return _used()\n",
               "b.py": "import a\n\n\ndef _left():\n    pass\n\n\n"
                       "a._Gone()._method\n"}
    assert unreferenced_private_defs(sources) == [("b.py", 4, "_left")]


def _mentions(tree):
    # (line, name, is an attribute) of every Name and attribute
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree):
    # the public top-level functions and classes of a module, as (node,
    # name), and the public non-dunder methods of its classes, as (node,
    # "Class.method")
    for top in tree.body:
        if isinstance(top, FUNCTIONS + (ast.ClassDef,)) \
                and not top.name.startswith("_"):
            yield top, top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, FUNCTIONS) \
                        and not node.name.startswith("_"):
                    yield node, "%s.%s" % (top.name, node.name)


def uncalled_public_defs(package, scripts, metrics):
    # (module, line, name) of every public definition of the package
    # sources (module -> text), as _public_defs gives them, whose last
    # name part no Name or attribute (for a method, no attribute) mentions
    # outside the definition's own lines, in the package or in the scripts
    # (texts), and that metrics (of "module.name") does not name
    defined = []
    mentions = {}
    for module, source in package.items():
        tree = ast.parse(source)
        defined += [(module, node.lineno, node.end_lineno, name)
                    for node, name in _public_defs(tree)]
        for line, name, attr in _mentions(tree):
            mentions.setdefault(name, []).append((module, line, attr))
    for source in scripts:
        for _, name, attr in _mentions(ast.parse(source)):
            mentions.setdefault(name, []).append((None, 0, attr))

    def called(module, first, last, name):
        method = "." in name
        return any((attr or not method)
                   and (where != module or not first <= line <= last)
                   for where, line, attr
                   in mentions.get(name.split(".")[-1], ()))
    return sorted((module, first, name)
                  for module, first, last, name in defined
                  if not called(module, first, last, name)
                  and "%s.%s" % (module, name) not in metrics)


def metric_names(source):
    # the two-part "module.name" strings of a source
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.count(".") == 1
            and all(part.isidentifier() for part in node.value.split("."))}


def test_every_public_definition_has_a_library_caller():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = uncalled_public_defs(package, [p.read_text() for p in DEMOS],
                                 metric_names(TRACING.read_text()))
    names = {"%s.%s" % (d[0], d[2]) for d in found}
    assert sorted(names - set(UNCALLED_PUBLIC)) == []
    # every exception still is one, and says why
    assert sorted(set(UNCALLED_PUBLIC) - names) == []
    assert all(reason for reason in UNCALLED_PUBLIC.values())


def test_the_check_sees_an_uncalled_public_definition():
    package = {"a": "def used():\n    pass\n\n\n"
                    "def gone():\n    return gone()\n\n\n"
                    "class Shown:\n    def method(self):\n"
                    "        return Shown()\n\n\n"
                    "def traced():\n    pass\n",
               "b": "from .a import used\n\n\nclass Left:\n    pass\n\n\n"
                    "used()\n"}
    scripts = ["from tropitheta.a import Shown\n\nShown().method()\n"]
    assert uncalled_public_defs(package, scripts, {"a.traced"}) == [
        ("a", 5, "gone"), ("b", 4, "Left")]


def test_the_check_sees_an_uncalled_public_method():
    package = {"a": "class Kept:\n"
                    "    def __init__(self):\n        self.helper()\n\n"
                    "    def helper(self):\n        pass\n\n"
                    "    def only_itself(self):\n"
                    "        return self.only_itself()\n\n"
                    "    def _private(self):\n        pass\n\n\n"
                    "Kept()\n"}
    assert uncalled_public_defs(package, [], set()) == [
        ("a", 8, "Kept.only_itself")]
    # a local variable named like a method is no call of it
    shadowed = {"a": "class Kept:\n"
                     "    def col(self):\n        pass\n\n\n"
                     "def walk(rows):\n"
                     "    return [col for col in rows]\n\n\n"
                     "walk(Kept())\n"}
    assert uncalled_public_defs(shadowed, [], set()) == [
        ("a", 2, "Kept.col")]
    # a test calling a method is no library caller: scripts are demos only
    assert uncalled_public_defs(package, ["Kept().only_itself()\n"],
                                set()) == []
    assert metric_names('X = {"a.traced": 1, "a.b.c": 2, "a": 3}') \
        == {"a.traced"}


def test_the_export_list_is_what_the_package_imports():
    names = tropitheta.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(tropitheta, n)] == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(n for n in imported
                  if not n.startswith("_") and n not in names) == []

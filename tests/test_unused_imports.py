"""Every module of the package, every test file and every demo uses every
name it imports, the package imports nothing outside the standard library,
and every private function or class of the package is used in the package.

The checks are stdlib ast walks.  A name bound by an import at any level of
a file must appear as a Name somewhere else in that file; the package's
__init__.py re-exports names on purpose and is left out of that check, and
so is bench/, whose files change only together with the benchmark's
recorded baseline.  Every absolute import of every package module,
__init__.py included, must name a module in sys.stdlib_module_names.  A
function or class whose name starts with one underscore must appear as a
Name or an attribute in some module of the package, so a helper that lost
its last caller is seen.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropitheta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


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

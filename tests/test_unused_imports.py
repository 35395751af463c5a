"""Every module of the package, every test file and every demo uses every
name it imports, and the package imports nothing outside the standard
library.

The checks are stdlib ast walks.  A name bound by an import at any level of
a file must appear as a Name somewhere else in that file; the package's
__init__.py re-exports names on purpose and is left out of that check, and
so is bench/, whose files change only together with the benchmark's
recorded baseline.  Every absolute import of every package module,
__init__.py included, must name a module in sys.stdlib_module_names.
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

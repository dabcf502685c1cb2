"""Static checks on the package's imports, read with ``ast``.

Every module-level import is used by its module, or carries
``# noqa: F401`` with a reason on its line.  Each name imported from a
package module is defined there, not passed through.  The GF(2) layers
sit at the bottom of the import graph: ``_gf2core`` imports nothing from
the package, and ``_butterfly`` only ``_gf2core``.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "highgirth"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
NOQA = re.compile(r"#\s*noqa:\s*F401\s*-\s*\S")


@functools.cache
def parse(name):
    text = (SRC / f"{name}.py").read_text()
    return ast.parse(text), text.splitlines()


def package_imports(tree):
    """(package module, imported name or None) for every relative import,
    at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    yield node.module, alias.name
                else:  # from . import module
                    yield alias.name, None


def defined(tree):
    """Names a module binds at module level other than by importing."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_level_imports_are_used(name):
    tree, lines = parse(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and not NOQA.search(lines[alias.lineno - 1]):
                    unused.append((alias.lineno, bound))
    assert not unused, (name, unused)


@pytest.mark.parametrize("name", MODULES)
def test_names_come_from_the_module_that_defines_them(name):
    tree, _ = parse(name)
    for module, imported in package_imports(tree):
        if imported is not None:
            assert imported in defined(parse(module)[0]), (name, module, imported)


def test_gf2_layers_sit_at_the_bottom_of_the_import_graph():
    deps = {name: {module for module, _ in package_imports(parse(name)[0])} for name in MODULES}
    assert deps["_gf2core"] == set()
    assert deps["_butterfly"] == {"_gf2core"}

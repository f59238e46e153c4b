"""No module of the package imports a name it never uses, or another
module's private (``_``-prefixed) name.

No linter runs on this repository, so a change that deletes code could
leave an import behind unnoticed.  ``__init__.py`` is exempt from the first
rule, since it imports to re-export, and so is an import marked
``# noqa: F401``: the benchmark's tracer patches those names in the module
that imports them.  The second rule keeps each helper, such as the trace
record rule, in the one module that owns it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sectorsched"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, in sorted order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys\nfrom x import (a,\n    b)\n"
              "from y import c  # noqa: F401\nsys.exit(b)\n")
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("module", [name for name in MODULES if name != "__init__.py"])
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names ``source`` imports from the package, in sorted order."""
    return sorted(
        alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "sectorsched")
        for alias in node.names if alias.name.startswith("_"))


def test_the_check_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .simulate import (simulate,\n    _helper)\nfrom sectorsched.io import _x\n")
    assert private_imports(source) == ["_helper", "_x"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_private_name(module):
    assert private_imports((PACKAGE / module).read_text(encoding="utf-8")) == []

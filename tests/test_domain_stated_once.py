"""The numeric domain is stated once, in ``sectorsched.model``.

``model`` states the domain in its docstring and in ``INT_LIMIT``,
``TIME_RANGE`` and ``TRACE_LIMIT``, and every constructor enforces it, so
no module guards a sum or a quotient against the float range.  This guard
keeps it so: no module in ``src/`` reads ``sys.float_info`` or names the
removed float-range helpers ``finite_fsum`` and ``_id_text``, and only
``model.py`` binds a domain constant.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sectorsched"
DOMAIN = {"INT_LIMIT", "TIME_RANGE", "TRACE_LIMIT"}
GONE = {"finite_fsum", "_id_text"}


def float_range_uses(source: str) -> list[str]:
    """Each ``sys.float_info`` read and each name in ``GONE`` in ``source``,
    as a name, an attribute, an import or a definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Attribute):
            names = [ast.unparse(node), node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        found += [name for name in names if name in GONE or name == "sys.float_info"]
    return found


def domain_bindings(source: str) -> list[str]:
    """The domain constants that ``source`` binds by assignment or definition."""
    bound = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id in DOMAIN]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in DOMAIN:
            bound.append(node.name)
    return bound


def test_the_checks_find_what_they_look_for():
    source = ("import sys\nfrom .model import finite_fsum\n"
              "x = sys.float_info.max\ndef _id_text(t):\n    return t\n"
              "INT_LIMIT, y = 2 ** 63, 0\nTRACE_LIMIT: float = 2.0 ** 128\n")
    assert sorted(float_range_uses(source)) == ["_id_text", "finite_fsum", "sys.float_info"]
    assert sorted(domain_bindings(source)) == ["INT_LIMIT", "TRACE_LIMIT"]


def test_no_module_guards_the_float_range():
    uses = {module.name: float_range_uses(module.read_text(encoding="utf-8"))
            for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_model_binds_the_domain_constants():
    bindings = {module.name: sorted(domain_bindings(module.read_text(encoding="utf-8")))
                for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: bound for name, bound in bindings.items() if bound} == {
        "model.py": sorted(DOMAIN)}

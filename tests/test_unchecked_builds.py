"""Only ``simulate`` builds a ``SimulationTrace`` without its record check.

``SimulationTrace.__post_init__`` checks every record, so a trace that
reaches a reader meets the record rule.  ``simulate`` alone skips that
walk, with ``object.__new__(SimulationTrace)``, since its records are ints
of the scenario and float sums and ``check_trace`` re-checks them.  This
guard keeps any other producer in ``src/`` from skipping the check.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sectorsched"


def unchecked_builds(source: str) -> list[str]:
    """Names of the functions that call ``object.__new__(SimulationTrace)``
    in ``source``, once per call, ``<module>`` outside any function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
                and [ast.unparse(arg) for arg in node.args] == ["SimulationTrace"]):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_an_unchecked_build():
    source = ("t = object.__new__(SimulationTrace)\n"
              "def f():\n    def g():\n        return object.__new__(SimulationTrace)\n"
              "    return object.__new__(Scenario), g\n")
    assert unchecked_builds(source) == ["<module>", "g"]


def test_only_simulate_builds_a_trace_without_its_check():
    builds = {module.name: unchecked_builds(module.read_text(encoding="utf-8"))
              for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: owners for name, owners in builds.items() if owners} == {
        "simulate.py": ["simulate"]}

"""Only ``simulate`` builds a ``SimulationTrace`` without its record check,
and only ``SurveillanceTask.__init__``, after its checks, stores a task's
fields through the slots' own setters.

``SimulationTrace.__post_init__`` checks every record, so a trace that
reaches a reader meets the record rule.  ``simulate`` alone skips that
walk, with ``object.__new__(SimulationTrace)``, since its records are ints
of the scenario and float sums and ``check_trace`` re-checks them.  This
guard keeps any other producer in ``src/`` from skipping the check.

``model`` binds the setters of ``SurveillanceTask``'s slots (``.__set__``),
which skip the frozen ``__setattr__``.  A task is valid because nothing but
its ``__init__`` calls them, and only once its checks have passed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sectorsched"


def unchecked_builds(source: str, kind: str = "SimulationTrace") -> list[str]:
    """Names of the functions that call ``object.__new__(kind)`` in
    ``source``, once per call, ``<module>`` outside any function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
                and [ast.unparse(arg) for arg in node.args] == [kind]):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def setter_uses(node: ast.AST, owner: str = "<module>") -> list[str]:
    """Where ``node`` touches a slot setter: for each ``.__set__`` attribute
    and each read of a ``_set_*`` name, the dotted name of the class and
    function around it, ``<module>`` outside any."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "__set__"
                or isinstance(node, ast.Name) and node.id.startswith("_set_")
                and isinstance(node.ctx, ast.Load)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(node, owner)
    return found


def task_init(source: str) -> ast.FunctionDef:
    (init,) = [node for cls in ast.parse(source).body
               if isinstance(cls, ast.ClassDef) and cls.name == "SurveillanceTask"
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    return init


def stores_after_checks(init: ast.FunctionDef) -> bool:
    """Whether ``init`` touches no setter until it has made a check (a
    ``raise`` or a ``check_number`` call), and then only setter calls follow."""
    touches = [bool(setter_uses(statement)) for statement in init.body]
    if True not in touches:
        return False
    first = touches.index(True)
    checks = [node for statement in init.body[:first] for node in ast.walk(statement)
              if isinstance(node, ast.Raise)
              or isinstance(node, ast.Call) and ast.unparse(node.func) == "check_number"]
    return bool(checks) and all(
        isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
        and isinstance(statement.value.func, ast.Name)
        and statement.value.func.id.startswith("_set_")
        for statement in init.body[first:])


def test_the_check_finds_an_unchecked_build():
    source = ("t = object.__new__(SimulationTrace)\n"
              "def f():\n    def g():\n        return object.__new__(SimulationTrace)\n"
              "    return object.__new__(Scenario), g\n")
    assert unchecked_builds(source) == ["<module>", "g"]
    assert unchecked_builds(source, "Scenario") == ["f"]


def test_only_simulate_builds_a_trace_without_its_check():
    builds = {module.name: unchecked_builds(module.read_text(encoding="utf-8"))
              for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: owners for name, owners in builds.items() if owners} == {
        "simulate.py": ["simulate"]}


def test_the_check_finds_a_setter_out_of_place():
    source = ("class SurveillanceTask:\n"
              "    def __init__(self, id):\n"
              "        _set_id(self, id)\n"
              "        if id < 0:\n            raise ValueError\n"
              "_set_id = SurveillanceTask.id.__set__\n"
              "def build(t):\n    _set_id(t, 1)\n")
    assert setter_uses(ast.parse(source)) == [
        "SurveillanceTask.__init__", "<module>", "build"]
    assert not stores_after_checks(task_init(source))
    checked = source.replace("        _set_id(self, id)\n", "").replace(
        "raise ValueError\n", "raise ValueError\n        _set_id(self, id)\n")
    assert stores_after_checks(task_init(checked))
    assert not stores_after_checks(task_init(checked.replace(
        "_set_id(self, id)\n", "_set_id(self, id)\n        print(id)\n", 1)))


def test_only_a_task_s_init_calls_its_slot_setters():
    # The one ``.__set__`` binds the setters at module level in model.py.
    uses = {module.name: setter_uses(ast.parse(module.read_text(encoding="utf-8")))
            for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: owners for name, owners in uses.items() if owners} == {
        "model.py": ["SurveillanceTask.__init__"] * 4 + ["<module>"]}
    assert all(not unchecked_builds(module.read_text(encoding="utf-8"), "SurveillanceTask")
               for module in PACKAGE.glob("*.py"))


def test_a_task_stores_its_fields_only_after_its_checks():
    assert stores_after_checks(task_init((PACKAGE / "model.py").read_text(encoding="utf-8")))

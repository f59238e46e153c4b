"""The public surface: the names the package exports, and the module
attributes the benchmark's tracer wraps from outside the package."""

import importlib
from pathlib import Path

import sectorsched

PUBLIC = [
    "CAP_SLACK", "ExactSolution", "ExecutionRecord", "GenParams", "InfeasibleScenarioError",
    "InvalidInputError", "LimitsExceededError", "LoadReport", "POLICY_EDF", "POLICY_PARTITION",
    "PROVENANCE_FOV", "PROVENANCE_LEFTOVER", "PROVENANCE_OWN", "RevisitStats", "Scenario",
    "ScenarioFormatError", "ScenarioValidationError", "SchedulePartition", "SearchLimits",
    "SectorSchedError", "SectorTargets", "SimulationTrace", "SurveillanceTask", "TaskRevisit",
    "TraceProblem", "Xorshift64Star", "bin_packing_reduce", "broadside_baseline",
    "build_partition", "check_assignment", "check_partition", "check_trace", "equalize",
    "exact_min_passes", "generate", "load_report", "maximal_subset", "measure_resources",
    "revisit_stats", "sector_targets", "simulate",
]


def test_all_lists_each_public_name_once_and_each_resolves():
    assert sorted(sectorsched.__all__) == PUBLIC
    assert len(set(sectorsched.__all__)) == len(sectorsched.__all__)
    for name in sectorsched.__all__:
        assert hasattr(sectorsched, name), name


def test_benchmark_tracer_finds_every_patch_point(monkeypatch):
    # install() looks each wrapped function up with getattr, so a renamed or
    # deleted one fails here with an AttributeError that names it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
    finally:
        tracer.uninstall()

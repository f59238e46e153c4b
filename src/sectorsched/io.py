"""File formats: scenario and partition JSON, report/trace/revisit CSV.

Floats are serialized with Python's shortest round-trip representation, so
``read(write(x)) == x`` holds bit for bit, and identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .errors import ScenarioFormatError, ScenarioValidationError
from .loads import LoadReport, SchedulePartition
from .model import (
    Direction,
    Scenario,
    SurveillanceTask,
    sector_of_direction,
    validate_scenario,
)
from .simulate import ExecutionRecord, RevisitStats, SimulationTrace


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    payload = {
        "n_sectors": scenario.n_sectors,
        "fov_half_width": scenario.fov_half_width,
        "dt": scenario.dt,
        "resources": list(scenario.resources),
        "tasks": [
            {"id": t.id, "phi": t.phi, "theta": t.theta, "duration": t.duration}
            for t in scenario.tasks
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _typed(value, kinds, where: str):
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ScenarioFormatError(f"{where}: unexpected type {type(value).__name__}")
    return value


def _number(value: int | float, where: str) -> float:
    """A JSON number as a float; an integer beyond float range is malformed."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _require(mapping: dict, key: str, kinds, where: str):
    if key not in mapping:
        raise ScenarioFormatError(f"{where}: missing field {key!r}")
    return _typed(mapping[key], kinds, f"{where}.{key}")


def read_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Malformed content raises :class:`ScenarioFormatError` with a field path;
    well-formed content violating scenario invariants raises
    :class:`ScenarioValidationError` listing every violation.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")

    n_sectors = _require(payload, "n_sectors", int, "scenario")
    fov = _require(payload, "fov_half_width", int, "scenario")
    dt = _number(_require(payload, "dt", (int, float), "scenario"), "scenario.dt")
    resources = []
    for i, r in enumerate(_require(payload, "resources", list, "scenario")):
        where = f"scenario.resources[{i}]"
        resources.append(_number(_typed(r, (int, float), where), where))
    raw_tasks = _require(payload, "tasks", list, "scenario")
    # Structure first, so that home sectors are derived from a sector count
    # known to match the resources.
    try:
        scenario = Scenario(n_sectors=n_sectors, fov_half_width=fov, dt=dt,
                            resources=tuple(resources))
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc

    tasks = []
    for k, entry in enumerate(raw_tasks):
        where = f"tasks[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        tid = _require(entry, "id", int, where)
        phi, theta, duration = (
            _number(_require(entry, key, (int, float), where), f"{where}.{key}")
            for key in ("phi", "theta", "duration"))
        try:
            direction = Direction(phi, theta)
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
        tasks.append(SurveillanceTask(
            id=tid, direction=direction, duration=duration,
            home_sector=sector_of_direction(phi, n_sectors)))
    scenario = replace(scenario, tasks=tuple(tasks))
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def write_partition(partition: SchedulePartition, path: str | Path) -> None:
    payload = {
        "assignments": [list(ids) for ids in partition.assignments],
        "provenance": {str(tid): tag
                       for tid, tag in sorted(partition.provenance.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_partition(path: str | Path) -> SchedulePartition:
    """Parse a partition file; malformed content raises :class:`ScenarioFormatError`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    assignments = _require(payload, "assignments", list, "partition")
    provenance = _require(payload, "provenance", dict, "partition")
    for i, ids in enumerate(assignments):
        if not isinstance(ids, list) or not all(
                isinstance(t, int) and not isinstance(t, bool) for t in ids):
            raise ScenarioFormatError(
                f"partition.assignments[{i}]: expected a list of integer task ids")
    for key in provenance:
        if not (key.isascii() and key.isdigit()):
            raise ScenarioFormatError(
                f"partition.provenance: task id {key!r} is not an integer")
    return SchedulePartition(
        assignments=tuple(tuple(ids) for ids in assignments),
        provenance={int(key): tag for key, tag in provenance.items()},
    )


def write_load_report(report: LoadReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sector", "absolute_load", "target", "relative_load"])
        for i in range(len(report.absolute_load)):
            writer.writerow([i, repr(float(report.absolute_load[i])),
                             repr(float(report.target[i])),
                             repr(float(report.relative_load[i]))])


def read_load_report(path: str | Path) -> list[tuple[int, float, float, float]]:
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            rows.append((int(row["sector"]), float(row["absolute_load"]),
                         float(row["target"]), float(row["relative_load"])))
    return rows


def write_trace(trace: SimulationTrace, scenario: Scenario, path: str | Path) -> None:
    by_id = scenario.task_by_id()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pass", "rotation", "sector", "task_id",
                         "start_offset", "duration", "timestamp"])
        for rec in trace.records:
            writer.writerow([rec.pass_index, rec.rotation, rec.sector, rec.task_id,
                             repr(rec.start_offset), repr(by_id[rec.task_id].duration),
                             repr(rec.timestamp)])


def read_trace(path: str | Path) -> list[ExecutionRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            records.append(ExecutionRecord(
                task_id=int(row["task_id"]), sector=int(row["sector"]),
                pass_index=int(row["pass"]), rotation=int(row["rotation"]),
                start_offset=float(row["start_offset"]),
                timestamp=float(row["timestamp"])))
    return records


def write_revisit_stats(stats: RevisitStats, path: str | Path) -> None:
    """One row per task with its worst interval, seconds and rotations."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["task_id", "home_sector", "exec_sector",
                         "interval_s", "interval_rot"])
        for tr in stats.per_task:
            writer.writerow([tr.task_id, tr.home_sector, tr.exec_sector,
                             repr(tr.max_interval_s), repr(tr.max_interval_rot)])


def write_comparison(rows: Sequence[dict], path: str | Path,
                     fmt: str = "csv") -> None:
    """Policy comparison table; ``fmt`` is ``csv`` or ``json``."""
    fields = list(rows[0].keys()) if rows else [
        "policy", "max_relative_load", "worst_revisit_rotations", "completion_pass"]
    if fmt == "json":
        Path(path).write_text(json.dumps(list(rows), indent=2) + "\n", encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([
                repr(v) if isinstance(v, float) else v for v in row.values()])

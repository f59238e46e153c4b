"""File formats: scenario and partition JSON, report/trace/revisit CSV.

Floats are serialized with Python's shortest round-trip representation, so
``read(write(x)) == x`` holds bit for bit, and identical inputs always
produce byte-identical files.

The scenario and partition writers format their JSON directly, with
f-strings: the bytes ``json.dumps(payload, indent=2)`` writes, plus a final
newline.  An object or list puts one member a line, indented two spaces a
level (an empty one is ``[]`` or ``{}``); an int is spelled by
``int.__repr__``, a float by ``float.__repr__`` (``1e-05``), and a
provenance tag by ``json.dumps``.

A CSV file is a header row, then one row per record.  Values are joined by
``,`` with no quoting, every row ends in ``\r\n``, and floats are written
as their ``repr`` (``1e-05``, ``inf``): the bytes ``csv.writer`` writes for
the same rows.  No value the writers format from numbers holds a comma,
quote or line break; the comparison table, whose cells and field names the
caller gives, refuses one whose text holds ``,``, ``"``, ``\r`` or ``\n``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidInputError, ScenarioFormatError, ScenarioValidationError
from .loads import LoadReport, SchedulePartition
from .model import Scenario, SurveillanceTask, as_tuple, check_instance
from .model import validate_scenario  # noqa: F401  perfbench's tracer patches it here
from .simulate import ExecutionRecord, RevisitStats, SimulationTrace


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """``items``, each already JSON text, as ``json.dumps(indent=2)`` writes a
    list (or with ``brackets="{}"`` an object) whose line starts at ``indent``:
    one item a line, or the bare brackets when there is none."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _number(x) -> str:
    """An int or float as ``json`` spells it: by ``int.__repr__`` or
    ``float.__repr__``, whatever ``repr`` a subclass defines."""
    return float.__repr__(x) if isinstance(x, float) else int.__repr__(x)


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    check_instance(scenario, Scenario)
    # A scenario holds ids and counts of type int and resources of type float,
    # whose str is their repr; the other numbers may be ints or subclasses.
    tasks = [f'{{\n      "id": {t.id},\n      "phi": {_number(t.phi)},'
             f'\n      "theta": {_number(t.theta)},\n      "duration": {_number(t.duration)}'
             f'\n    }}' for t in scenario.tasks]
    text = (f'{{\n  "n_sectors": {scenario.n_sectors},\n'
            f'  "fov_half_width": {scenario.fov_half_width},\n'
            f'  "dt": {_number(scenario.dt)},\n'
            f'  "resources": {_block(list(map(repr, scenario.resources)), "  ")},\n'
            f'  "tasks": {_block(tasks, "  ")}\n}}\n')
    Path(path).write_text(text, encoding="utf-8")


_NUMBER = (int, float)


def _path(where: str, index: int | None, key: str | None) -> str:
    where = where if index is None else f"{where}[{index}]"
    return where if key is None else f"{where}.{key}"


def _typed(value, kinds: tuple, where: str, index: int | None = None,
           key: str | None = None):
    """``value`` if its JSON type is in ``kinds`` (a bool is no number), a number
    as a float.  The field path is only built when a check fails."""
    if type(value) not in kinds:
        raise ScenarioFormatError(
            f"{_path(where, index, key)}: unexpected type {type(value).__name__}")
    try:
        return float(value) if float in kinds else value
    except OverflowError as exc:  # an integer beyond float range
        raise ScenarioFormatError(f"{_path(where, index, key)}: {exc}") from exc


def _require(mapping: dict, key: str, kinds: tuple, where: str,
             index: int | None = None):
    if key not in mapping:
        raise ScenarioFormatError(f"{_path(where, index, None)}: missing field {key!r}")
    return _typed(mapping[key], kinds, where, index, key)


def _read_object(path: str | Path) -> dict:
    """The JSON object in ``path``; anything else raises :class:`ScenarioFormatError`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    return payload


def read_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    The file's task objects become the tasks, then the one scenario is built.
    Malformed content raises :class:`ScenarioFormatError` with a field path,
    or the file name for a structural problem such as a resource list of the
    wrong length; well-formed content violating scenario invariants raises
    :class:`ScenarioValidationError` listing every violation.
    """
    payload = _read_object(path)

    n_sectors = _require(payload, "n_sectors", (int,), "scenario")
    fov = _require(payload, "fov_half_width", (int,), "scenario")
    dt = _require(payload, "dt", _NUMBER, "scenario")
    resources = tuple(
        _typed(r, _NUMBER, "scenario.resources", i)
        for i, r in enumerate(_require(payload, "resources", (list,), "scenario")))
    raw_tasks = _require(payload, "tasks", (list,), "scenario")
    tasks = []
    for k, entry in enumerate(raw_tasks):
        if type(entry) is not dict:
            raise ScenarioFormatError(f"tasks[{k}]: expected an object")
        tid = _require(entry, "id", (int,), "tasks", k)
        phi = _require(entry, "phi", _NUMBER, "tasks", k)
        theta = _require(entry, "theta", _NUMBER, "tasks", k)
        duration = _require(entry, "duration", _NUMBER, "tasks", k)
        try:
            tasks.append(SurveillanceTask(tid, phi, theta, duration))
        except ValueError as exc:
            raise ScenarioFormatError(f"tasks[{k}]: {exc}") from exc
    try:
        return Scenario(n_sectors=n_sectors, fov_half_width=fov, dt=dt,
                        resources=resources, tasks=tuple(tasks))
    except ScenarioValidationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def write_partition(partition: SchedulePartition, path: str | Path) -> None:
    check_instance(partition, SchedulePartition)
    quoted = {tag: json.dumps(tag) for tag in set(partition.provenance.values())}
    assignments = [_block(list(map(int.__repr__, ids)), "    ")
                   for ids in partition.assignments]
    provenance = [f'"{tid}": {quoted[tag]}' for tid, tag in sorted(partition.provenance.items())]
    text = (f'{{\n  "assignments": {_block(assignments, "  ")},\n'
            f'  "provenance": {_block(provenance, "  ", "{}")}\n}}\n')
    Path(path).write_text(text, encoding="utf-8")


def read_partition(path: str | Path) -> SchedulePartition:
    """Parse a partition file; malformed content raises :class:`ScenarioFormatError`."""
    payload = _read_object(path)
    assignments = _require(payload, "assignments", (list,), "partition")
    provenance = _require(payload, "provenance", (dict,), "partition")
    for key in provenance:
        # The form write_partition writes, str(int(key)): no sign, no leading zero.
        if not (key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
            raise ScenarioFormatError(f"partition.provenance: task id {key!r} is not an "
                                      "integer without sign or leading zero")
    try:
        tags = {int(key): tag for key, tag in provenance.items()}
    except ValueError as exc:  # a key beyond the int-to-str digit limit
        raise ScenarioFormatError(f"partition.provenance: {exc}") from exc
    try:  # the partition checks its rows and tags
        return SchedulePartition(
            assignments=tuple(tuple(ids) if type(ids) is list else ids for ids in assignments),
            provenance=tags)
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"partition.{exc}") from exc


def _write_csv(path: str | Path, fields: Sequence[str], lines: Iterable[str]) -> None:
    """The header ``fields``, then ``lines`` (rows already joined by commas)."""
    text = "\r\n".join((",".join(fields), *lines, ""))  # "" ends the last row
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_load_report(report: LoadReport, path: str | Path) -> None:
    check_instance(report, LoadReport)
    _write_csv(path, ("sector", "absolute_load", "target", "relative_load"), (
        f"{i},{float(load)!r},{float(target)!r},{float(relative)!r}"
        for i, (load, target, relative) in enumerate(zip(
            report.absolute_load, report.target, report.relative_load, strict=True))))


def _read_csv(path: str | Path, parse) -> list:
    """``parse`` applied to each data row of a CSV file, a dict by column name.
    A missing column, a short row or a bad cell raises
    :class:`ScenarioFormatError` naming the file and the row (1 = first after
    the header)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = []
        try:
            for row in reader:
                rows.append(parse(row))
            return rows
        except csv.Error as exc:  # the reader's own refusal, e.g. a cell past its size limit
            raise ScenarioFormatError(f"{path}: row {len(rows) + 1}: {exc}") from exc
        except KeyError as exc:
            raise ScenarioFormatError(
                f"{path}: row {reader.line_num - 1}: missing column {exc}") from exc
        except TypeError as exc:  # a short row's missing cells read as None
            raise ScenarioFormatError(
                f"{path}: row {reader.line_num - 1}: missing cell") from exc
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: row {reader.line_num - 1}: {exc}") from exc


def read_load_report(path: str | Path) -> list[tuple[int, float, float, float]]:
    return _read_csv(path, lambda row: (
        int(row["sector"]), float(row["absolute_load"]),
        float(row["target"]), float(row["relative_load"])))


def write_trace(trace: SimulationTrace, scenario: Scenario, path: str | Path) -> None:
    check_instance(trace, SimulationTrace)
    check_instance(scenario, Scenario)
    duration = {t.id: repr(t.duration) for t in scenario.tasks}
    n = scenario.n_sectors
    try:
        lines = [f"{pass_index},{pass_index // n},{sector},{tid},{offset!r},{duration[tid]},{stamp!r}"
                 for tid, sector, pass_index, offset, stamp in trace.records]
    except KeyError as exc:
        raise InvalidInputError(f"trace record of task {exc.args[0]!r}, "
                                "which is not in the scenario") from None
    _write_csv(path, ("pass", "rotation", "sector", "task_id",
                      "start_offset", "duration", "timestamp"), lines)


def read_trace(path: str | Path) -> list[ExecutionRecord]:
    return _read_csv(path, lambda row: ExecutionRecord(
        task_id=int(row["task_id"]), sector=int(row["sector"]),
        pass_index=int(row["pass"]), start_offset=float(row["start_offset"]),
        timestamp=float(row["timestamp"])))


def write_revisit_stats(stats: RevisitStats, path: str | Path) -> None:
    """One row per task with its worst interval, seconds and rotations."""
    check_instance(stats, RevisitStats)
    _write_csv(path, ("task_id", "home_sector", "exec_sector", "interval_s", "interval_rot"), [
        f"{tid},{home},{sector},{seconds!r},{rotations!r}"
        for tid, home, sector, seconds, rotations in stats.per_task])


_CSV_SPECIAL = frozenset(',"\r\n')


def write_comparison(rows: Sequence[dict], path: str | Path, fmt: str = "csv", *,
                     fields: Sequence[str]) -> None:
    """Policy comparison table; ``fmt`` is ``csv`` or ``json``.  ``fields`` is
    the CSV header, and each row is a dict whose keys are ``fields`` in that
    order.  JSON has no non-finite number, so there an infinite or NaN float
    is the string of its ``repr`` (``"inf"``), the token the CSV form writes.
    Any other ``fmt``, a field that is not a ``str``, any other row, or, for
    CSV, a field or cell whose text holds ``,``, ``"``, ``\r`` or ``\n``
    raises :class:`InvalidInputError` before the file is opened."""
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"fmt={fmt!r} must be 'csv' or 'json'")
    fields = as_tuple(fields, "fields")
    if not all(type(name) is str for name in fields):
        raise InvalidInputError(f"fields={fields!r} must be column names (str)")
    rows = as_tuple(rows, "rows")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InvalidInputError(f"rows[{i}]={row!r} is not a dict")
        if tuple(row) != fields:
            raise InvalidInputError(
                f"rows[{i}] has the keys {tuple(row)}, not the fields {fields}")
    if fmt == "json":
        rows = [{k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in rows]
        Path(path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        return
    cells = [[repr(v) if isinstance(v, float) else str(v) for v in row.values()]
             for row in rows]
    for i, texts in enumerate((fields, *cells)):
        for text in texts:
            if not _CSV_SPECIAL.isdisjoint(text):
                where = f"rows[{i - 1}]" if i else "fields"
                raise InvalidInputError(f"{where}: {text!r} holds a comma, quote or line "
                                        "break, which this CSV writer does not quote")
    _write_csv(path, fields, map(",".join, cells))

"""Domain model: surveillance tasks, scenarios, sector geometry.

A task is a beam direction, azimuth ``phi`` in [0, 2*pi) and elevation
``theta`` in [-pi, pi], plus the dwell time it needs every update cycle:
``(id, phi, theta, duration)``, the task object of a scenario file.

Azimuth is divided into ``n_sectors`` equal slices; a task belongs to the
sector its azimuth falls into (its home sector), which depends on the
sector count, so the scenario derives it: ``Scenario.home``.  The antenna
boresight rotates at a constant rate of one sector per ``dt`` seconds, and
the electronically steered beam can reach ``fov_half_width`` sectors to
either side of the current main sector.

Sector indices are plain ints, always reduced into ``[0, n_sectors)`` by the
functions that produce them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InvalidInputError, ScenarioValidationError

# Absolute slack applied to every capacity / budget comparison so that sums
# of real-valued durations do not flip a decision through accumulation noise.
CAP_SLACK = 1e-9

# Tolerance on the floor in Scenario.home: an azimuth sitting within 1e-9
# (in sector units) below a sector boundary resolves to the next sector.
_FLOOR_EPS = 1e-9


def check_number(value, name: str) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` is a number a scenario
    file can hold: an int or a float, not a bool, and an int within the float
    range.  Callers test ``type(value) is float`` first, the common case."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name}={value!r} must be an int or a float")
    try:
        float(value)
    except OverflowError as exc:  # its repr may exceed the int-to-str digit limit
        raise InvalidInputError(f"{name}: an int beyond the float range") from exc


def check_count(value, name: str, least: int = 1) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` is an int from
    ``least`` (1 or 0) up to the float range; a bool is no count."""
    if type(value) is int and least <= value <= sys.float_info.max:
        return
    if type(value) is int and abs(value) > sys.float_info.max:  # its repr may be too long
        raise InvalidInputError(f"{name}: an int beyond the float range")
    kind = "positive" if least == 1 else "non-negative"
    raise InvalidInputError(f"{name}={value!r} must be a {kind} integer")


def as_tuple(value, name: str) -> tuple:
    """The items of the iterable ``value`` as a tuple, read once; anything
    else raises :class:`InvalidInputError`."""
    try:
        items = iter(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be iterable, not {type(value).__name__}") from None
    return tuple(items)


def as_tasks(value, name: str) -> tuple:
    """The items of ``value`` as a tuple, as :func:`as_tuple` reads them,
    each a :class:`SurveillanceTask`; anything else raises
    :class:`InvalidInputError`."""
    tasks = as_tuple(value, name)
    if not all(issubclass(kind, SurveillanceTask) for kind in set(map(type, tasks))):
        i = next(i for i, t in enumerate(tasks) if not isinstance(t, SurveillanceTask))
        raise InvalidInputError(f"{name}[{i}]={tasks[i]!r} is not a SurveillanceTask")
    return tasks


def check_positive(value, name: str) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` passes
    :func:`check_number` and is positive and finite, as a pass time must be."""
    if type(value) is not float:
        check_number(value, name)
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError(f"{name}={value!r} must be positive and finite")


@dataclass(frozen=True, slots=True)  # slots: no per-task dict, thousands per scenario
class SurveillanceTask:
    """One beam pointing direction (radians) to refresh every update cycle.

    ``phi``, ``theta`` and ``duration`` are ints or floats (a bool or another
    number type raises :class:`InvalidInputError`), so a scenario file holds them.
    """

    id: int
    phi: float
    theta: float
    duration: float

    def __post_init__(self):
        if type(self.phi) is not float:
            check_number(self.phi, "phi")
        if type(self.theta) is not float:
            check_number(self.theta, "theta")
        if type(self.duration) is not float:
            check_number(self.duration, "duration")
        if not 0.0 <= self.phi < math.tau:
            raise InvalidInputError(f"phi={self.phi!r} outside [0, 2*pi)")
        if not -math.pi <= self.theta <= math.pi:
            raise InvalidInputError(f"theta={self.theta!r} outside [-pi, pi]")


@dataclass(frozen=True)
class Scenario:
    """A full problem instance.

    An invalid scenario cannot be built.  Structural problems (bad sector
    count, bad dt, a resource that is no number, resource vector of the
    wrong length, ``resources`` or ``tasks`` not iterable, a task that is no
    :class:`SurveillanceTask`) raise
    :class:`InvalidInputError` at once.  Then :func:`validate_scenario`
    checks the data (non-finite or non-positive durations, non-finite or
    negative resources, ids that are not non-negative ints, duplicate ids,
    zero total resources, sums or a load ratio beyond the float range), and
    any violation raises :class:`ScenarioValidationError` listing them all.
    Every function that takes a scenario relies on this and does not check
    its data again; it checks only that the argument is a scenario
    (:func:`check_instance`).  ``home`` maps each task id to its home
    sector, derived from the azimuth, so ``dataclasses.replace`` derives it
    afresh.

    A field of view wider than half the circle adds nothing under mod-N
    arithmetic, so ``fov_half_width`` is clamped to ``n_sectors // 2``.
    """

    n_sectors: int
    fov_half_width: int
    dt: float
    resources: tuple[float, ...]
    tasks: tuple[SurveillanceTask, ...] = field(default_factory=tuple)
    home: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count(self.n_sectors, "n_sectors")
        check_count(self.fov_half_width, "fov_half_width", least=0)
        check_positive(self.dt, "dt")
        resources = as_tuple(self.resources, "resources")
        for i, r in enumerate(resources):
            if type(r) is not float:
                check_number(r, f"resources[{i}]")
        object.__setattr__(self, "resources", tuple(map(float, resources)))
        object.__setattr__(self, "tasks", as_tasks(self.tasks, "tasks"))
        if len(self.resources) != self.n_sectors:
            raise InvalidInputError(
                f"resources has {len(self.resources)} entries, expected {self.n_sectors}")
        object.__setattr__(
            self, "fov_half_width", min(self.fov_half_width, self.n_sectors // 2))
        violations = validate_scenario(self)
        if violations:
            raise ScenarioValidationError(violations)
        n = self.n_sectors  # n >= 1 and each phi in [0, 2*pi): checked above
        object.__setattr__(self, "home", {
            t.id: min(math.floor(t.phi / math.tau * n + _FLOOR_EPS), n - 1) for t in self.tasks})

    @property
    def rotation_time(self) -> float:
        """Duration of one full rotation, seconds."""
        return self.n_sectors * self.dt

    def task_by_id(self) -> dict[int, SurveillanceTask]:
        return {t.id: t for t in self.tasks}


def check_instance(value, kind: type) -> None:
    """Raise :class:`InvalidInputError` unless ``value`` is a ``kind``, such
    as a :class:`Scenario`."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"expected a {kind.__name__}, not {type(value).__name__}")


def fov_offsets(fov_half_width: int, n_sectors: int) -> range:
    """Offsets c from a sector to the sectors in its field of view.

    Runs from -w to +w, where w is the half-width clamped to n_sectors // 2;
    when 2w == n_sectors, +w names the same sector as -w and is left out.
    So (m + c) mod n_sectors lists every reachable sector once, and |c| is
    its cyclic distance from m.
    """
    w = min(fov_half_width, n_sectors // 2)
    return range(-w, w + 1 - (2 * w == n_sectors))


def _sum_overflows(values) -> bool:
    """Whether the exact sum of ``values`` lies beyond the float range."""
    try:
        return math.isinf(math.fsum(values))
    except OverflowError:  # "intermediate overflow in fsum"
        return True


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; returns violations (empty list = ok)."""
    violations: list[str] = []
    for i, r in enumerate(scenario.resources):
        if not math.isfinite(r):
            violations.append(f"non-finite resources {r!r} in sector {i}")
        elif r < 0:
            violations.append(f"negative resources {r!r} in sector {i}")
    seen_ids: set[int] = set()
    for task in scenario.tasks:
        if type(task.id) is not int or task.id < 0:  # a bool is no id
            violations.append(f"task id {task.id!r} is not a non-negative integer")
        elif task.id in seen_ids:
            violations.append(f"duplicate task id {task.id}")
        else:
            seen_ids.add(task.id)
        if not math.isfinite(task.duration):
            violations.append(f"non-finite duration {task.duration!r}, task id {task.id}")
        elif not task.duration > 0:
            violations.append(f"non-positive duration, task id {task.id}")
    if (scenario.tasks and all(map(math.isfinite, scenario.resources))
            and not max(scenario.resources) > 0):
        violations.append("all sector resources are zero but the task set is non-empty")
    if _sum_overflows(filter(math.isfinite, scenario.resources)):
        violations.append("sector resources sum beyond the float range")
    if _sum_overflows(filter(math.isfinite, (t.duration for t in scenario.tasks))):
        violations.append("task durations sum beyond the float range")
    # With all else valid, the load ratio sector_targets takes must be finite.
    if not violations and scenario.tasks and math.isinf(
            math.fsum(t.duration for t in scenario.tasks) / math.fsum(scenario.resources)):
        violations.append("task durations over sector resources beyond the float range")
    return violations

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

TWO_PI = 2.0 * math.pi

# Absolute slack applied to every capacity / budget comparison so that sums
# of real-valued durations do not flip a decision through accumulation noise.
CAP_SLACK = 1e-9

# Tolerance on floor(ratio) computations: an instant or angle sitting within
# 1e-9 (in ratio units) below a sector boundary resolves to the next sector.
_FLOOR_EPS = 1e-9


def _floor_ratio(ratio: float) -> int:
    return math.floor(ratio + _FLOOR_EPS)


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
        if not 0.0 <= self.phi < TWO_PI:
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
    it again.  ``home`` maps each task id to its home sector, derived from
    the azimuth, so ``dataclasses.replace`` derives it afresh.

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
        tasks = as_tuple(self.tasks, "tasks")
        if not all(issubclass(kind, SurveillanceTask) for kind in set(map(type, tasks))):
            i = next(i for i, t in enumerate(tasks) if not isinstance(t, SurveillanceTask))
            raise InvalidInputError(f"tasks[{i}]={tasks[i]!r} is not a SurveillanceTask")
        object.__setattr__(self, "tasks", tasks)
        if len(self.resources) != self.n_sectors:
            raise InvalidInputError(
                f"resources has {len(self.resources)} entries, expected {self.n_sectors}")
        object.__setattr__(
            self, "fov_half_width", min(self.fov_half_width, self.n_sectors // 2))
        violations = validate_scenario(self)
        if violations:
            raise ScenarioValidationError(violations)
        object.__setattr__(self, "home", {
            t.id: sector_of_direction(t.phi, self.n_sectors) for t in self.tasks})

    @property
    def rotation_time(self) -> float:
        """Duration of one full rotation, seconds."""
        return self.n_sectors * self.dt

    def task_by_id(self) -> dict[int, SurveillanceTask]:
        return {t.id: t for t in self.tasks}


def sector_of_direction(phi: float, n_sectors: int) -> int:
    """Sector index owning azimuth ``phi``: floor(phi / (2*pi) * n_sectors)."""
    check_count(n_sectors, "n_sectors")
    if type(phi) is not float:
        check_number(phi, "phi")
    if not 0.0 <= phi < TWO_PI:
        raise InvalidInputError(f"phi={phi!r} outside [0, 2*pi)")
    idx = _floor_ratio(phi / TWO_PI * n_sectors)
    return min(idx, n_sectors - 1)


def main_sector(t: float, n_sectors: int, dt: float) -> int:
    """Sector the boresight points at time ``t``, wrapped into [0, n_sectors)."""
    check_positive(dt, "dt")
    check_count(n_sectors, "n_sectors")
    if type(t) is not float:
        check_number(t, "t")
    if not (t >= 0 and math.isfinite(t)):
        raise InvalidInputError(f"t={t!r} must be non-negative and finite")
    ratio = t / dt
    if math.isinf(ratio):
        raise InvalidInputError(f"t / dt = {t!r} / {dt!r} lies beyond the float range")
    return _floor_ratio(ratio) % n_sectors


def fov_offsets(fov_half_width: int, n_sectors: int) -> range:
    """Offsets c from a sector to the sectors in its field of view.

    Runs from -w to +w, where w is the half-width clamped to n_sectors // 2;
    when 2w == n_sectors, +w names the same sector as -w and is left out.
    So (m + c) mod n_sectors lists every reachable sector once, and |c| is
    its cyclic distance from m.
    """
    w = min(fov_half_width, n_sectors // 2)
    return range(-w, w + 1 - (2 * w == n_sectors))


def active_sectors(m: int, fov_half_width: int, n_sectors: int) -> tuple[int, ...]:
    """Sectors reachable while the main sector is ``m``.

    Returns (m + c) mod n_sectors for c in :func:`fov_offsets`, so the
    result has min(2w + 1, n_sectors) distinct entries, w being the clamped
    half-width, and always contains m.
    """
    check_count(n_sectors, "n_sectors")
    if type(m) is not int or not 0 <= m < n_sectors:  # a bool is no sector
        raise InvalidInputError(f"main sector {m!r} is not an integer in [0, {n_sectors})")
    check_count(fov_half_width, "fov_half_width", least=0)
    return tuple((m + c) % n_sectors for c in fov_offsets(fov_half_width, n_sectors))


def angular_sector_distance(a: int, b: int, n_sectors: int) -> int:
    """Cyclic distance between two sector indices, in sectors."""
    check_count(n_sectors, "n_sectors")
    if not type(a) is type(b) is int:  # a bool is no sector
        raise InvalidInputError(f"sector pair ({a!r}, {b!r}) must be integers")
    if not (0 <= a < n_sectors and 0 <= b < n_sectors):
        raise InvalidInputError(f"sector pair ({a!r}, {b!r}) outside [0, {n_sectors})")
    d = (a - b) % n_sectors
    return min(d, n_sectors - d)


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

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

The numeric domain, which every constructor enforces: ints (task ids, counts,
a trace's task ids, sectors and passes) have magnitude below ``INT_LIMIT`` =
2**63, ids and counts >= 0; times (``dt``, durations, positive resources) lie
in ``TIME_RANGE`` = [2**-64, 2**64] s, and a resource may be 0; trace offsets
and timestamps are finite, at most ``TRACE_LIMIT`` = 2**128 in magnitude.  So
no sum, difference or quotient overflows (2**63 durations of 2**64 s over
2**-64 s stay below 2**191), and no message prints an out-of-domain int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InvalidInputError, ScenarioValidationError

# Absolute slack applied to every capacity / budget comparison so that sums
# of real-valued durations do not flip a decision through accumulation noise.
CAP_SLACK = 1e-9

# Tolerance on the floor in Scenario.home: an azimuth sitting within 1e-9
# (in sector units) below a sector boundary resolves to the next sector.
_FLOOR_EPS = 1e-9

# The numeric domain of the module docstring.
INT_LIMIT = 2 ** 63
TIME_RANGE = (2.0 ** -64, 2.0 ** 64)
TRACE_LIMIT = 2.0 ** 128


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
    ``least`` (1 or 0) to below ``INT_LIMIT``; a bool is no count."""
    if type(value) is int and least <= value < INT_LIMIT:
        return
    if type(value) is int and abs(value) >= INT_LIMIT:
        raise InvalidInputError(f"{name}: an int of magnitude 2**63 or more")
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
    :func:`check_number` and is a time in ``TIME_RANGE``, as a pass time is."""
    if type(value) is not float:
        check_number(value, name)
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError(f"{name}={value!r} must be positive and finite")
    if not TIME_RANGE[0] <= value <= TIME_RANGE[1]:
        raise InvalidInputError(f"{name}={float(value)!r} outside [2**-64, 2**64] s")


@dataclass(frozen=True, slots=True, init=False)  # slots: no per-task dict, thousands per scenario
class SurveillanceTask:
    """One beam pointing direction (radians) to refresh every update cycle.

    ``phi``, ``theta`` and ``duration`` are ints or floats (a bool or another
    number type raises :class:`InvalidInputError`), so a scenario file holds them.

    The ``__init__`` is written out, not generated: it checks its arguments
    first and then stores them through the slots' own setters, which skip
    the frozen ``__setattr__`` that a generated ``__init__`` calls once per
    field.  That halves the cost of a task, and a scenario builds thousands.
    Nothing else calls the setters, so a task that exists passed the checks;
    ``dataclasses.replace`` builds through this ``__init__`` and checks again.
    """

    id: int
    phi: float
    theta: float
    duration: float

    def __init__(self, id: int, phi: float, theta: float, duration: float) -> None:
        if type(phi) is not float:
            check_number(phi, "phi")
        if type(theta) is not float:
            check_number(theta, "theta")
        if type(duration) is not float:
            check_number(duration, "duration")
        if not 0.0 <= phi < math.tau:
            raise InvalidInputError(f"phi={phi!r} outside [0, 2*pi)")
        if not -math.pi <= theta <= math.pi:
            raise InvalidInputError(f"theta={theta!r} outside [-pi, pi]")
        _set_id(self, id)
        _set_phi(self, phi)
        _set_theta(self, theta)
        _set_duration(self, duration)


# The slots' own setters, for SurveillanceTask.__init__ alone, after its checks
# (tests/test_unchecked_builds.py refuses any other caller).
_set_id, _set_phi, _set_theta, _set_duration = (
    getattr(SurveillanceTask, name).__set__ for name in ("id", "phi", "theta", "duration"))


@dataclass(frozen=True)
class Scenario:
    """A full problem instance.

    An invalid scenario cannot be built.  Structural problems (bad sector
    count, a dt outside the numeric domain of the module docstring, a
    resource that is no number, resource vector of the wrong length,
    ``resources`` or ``tasks`` not iterable, a task that is no
    :class:`SurveillanceTask`) raise :class:`InvalidInputError` at once.
    Then :func:`validate_scenario` checks the data (ids, durations and
    resources outside the domain, duplicate ids, zero total resources), and
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


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; returns violations (empty list = ok)."""
    violations: list[str] = []
    shortest, longest = TIME_RANGE
    for i, r in enumerate(scenario.resources):
        if r and not shortest <= r <= longest:  # 0 is a dead sector's resources
            violations.append(
                f"non-finite resources {r!r} in sector {i}" if not math.isfinite(r) else
                f"negative resources {r!r} in sector {i}" if r < 0 else
                f"resources {r!r} in sector {i} neither 0 nor in [2**-64, 2**64] s")
    seen_ids: set[int] = set()
    for k, task in enumerate(scenario.tasks):
        tid, duration = task.id, task.duration
        valid_id = type(tid) is int and 0 <= tid < INT_LIMIT  # a bool is no id
        if not valid_id:
            violations.append(f"tasks[{k}]: task id is not an int in [0, 2**63)")
        elif tid in seen_ids:
            violations.append(f"duplicate task id {tid}")
        else:
            seen_ids.add(tid)
        if not shortest <= duration <= longest:
            task_name = f"task id {tid}" if valid_id else f"tasks[{k}]"
            violations.append(
                f"non-finite duration {duration!r}, {task_name}" if not math.isfinite(duration)
                else f"non-positive duration, {task_name}" if not duration > 0
                else f"duration {float(duration)!r} outside [2**-64, 2**64] s, {task_name}")
    if scenario.tasks and not any(scenario.resources):
        violations.append("all sector resources are zero but the task set is non-empty")
    return violations

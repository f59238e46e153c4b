"""Domain model: surveillance tasks, scenarios, sector geometry.

A task is a beam direction, azimuth ``phi`` in [0, 2*pi) and elevation
``theta`` in [-pi, pi], plus the dwell time it needs every update cycle.

Azimuth is divided into ``n_sectors`` equal slices; a task belongs to the
sector its azimuth falls into (its home sector).  The antenna boresight
rotates at a constant rate of one sector per ``dt`` seconds, and the
electronically steered beam can reach ``fov_half_width`` sectors to either
side of the current main sector.

Sector indices are plain ints, always reduced into ``[0, n_sectors)`` by the
functions that produce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SurveillanceTask:
    """One beam pointing direction (radians) to refresh every update cycle.

    ``home_sector`` is derived from the azimuth; keep it consistent with
    ``sector_of_direction(phi, n_sectors)`` for the scenario the task lives
    in (the scenario checks this when it is built).
    """

    id: int
    phi: float
    theta: float
    duration: float
    home_sector: int

    def __post_init__(self):
        if not 0.0 <= self.phi < TWO_PI:
            raise InvalidInputError(f"phi={self.phi!r} outside [0, 2*pi)")
        if not -math.pi <= self.theta <= math.pi:
            raise InvalidInputError(f"theta={self.theta!r} outside [-pi, pi]")


def make_task(task_id: int, phi: float, theta: float, duration: float,
              n_sectors: int) -> SurveillanceTask:
    """Build a task with its home sector derived from phi."""
    return SurveillanceTask(
        id=task_id,
        phi=phi,
        theta=theta,
        duration=duration,
        home_sector=sector_of_direction(phi, n_sectors),
    )


@dataclass(frozen=True)
class Scenario:
    """A full problem instance.

    An invalid scenario cannot be built.  Structural problems (bad sector
    count, bad dt, resource vector of the wrong length) raise
    :class:`InvalidInputError` at once.  Then :func:`validate_scenario`
    checks the data (non-finite or non-positive durations, non-finite or
    negative resources, inconsistent home sectors, duplicate ids, zero total
    resources, sums beyond the float range), and any violation raises
    :class:`ScenarioValidationError` listing them all.  Every function that
    takes a scenario relies on this and does not check it again.

    A field of view wider than half the circle adds nothing under mod-N
    arithmetic, so ``fov_half_width`` is clamped to ``n_sectors // 2``.
    """

    n_sectors: int
    fov_half_width: int
    dt: float
    resources: tuple[float, ...]
    tasks: tuple[SurveillanceTask, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.n_sectors, int) or self.n_sectors < 1:
            raise InvalidInputError(f"n_sectors={self.n_sectors!r} must be a positive integer")
        if not isinstance(self.fov_half_width, int) or self.fov_half_width < 0:
            raise InvalidInputError(f"fov_half_width={self.fov_half_width!r} must be a non-negative integer")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidInputError(f"dt={self.dt!r} must be positive and finite")
        object.__setattr__(self, "resources", tuple(float(r) for r in self.resources))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if len(self.resources) != self.n_sectors:
            raise InvalidInputError(
                f"resources has {len(self.resources)} entries, expected {self.n_sectors}")
        object.__setattr__(
            self, "fov_half_width", min(self.fov_half_width, self.n_sectors // 2))
        violations = validate_scenario(self)
        if violations:
            raise ScenarioValidationError(violations)

    @property
    def rotation_time(self) -> float:
        """Duration of one full rotation, seconds."""
        return self.n_sectors * self.dt

    def task_by_id(self) -> dict[int, SurveillanceTask]:
        return {t.id: t for t in self.tasks}


def sector_of_direction(phi: float, n_sectors: int) -> int:
    """Sector index owning azimuth ``phi``: floor(phi / (2*pi) * n_sectors)."""
    if n_sectors < 1:
        raise InvalidInputError(f"n_sectors={n_sectors!r} must be >= 1")
    if not 0.0 <= phi < TWO_PI:
        raise InvalidInputError(f"phi={phi!r} outside [0, 2*pi)")
    idx = _floor_ratio(phi / TWO_PI * n_sectors)
    return min(idx, n_sectors - 1)


def main_sector(t: float, n_sectors: int, dt: float) -> int:
    """Sector the boresight points at time ``t``, wrapped into [0, n_sectors)."""
    if dt <= 0:
        raise InvalidInputError(f"dt={dt!r} must be positive")
    if n_sectors < 1:
        raise InvalidInputError(f"n_sectors={n_sectors!r} must be >= 1")
    if t < 0:
        raise InvalidInputError(f"t={t!r} must be non-negative")
    return _floor_ratio(t / dt) % n_sectors


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
    if n_sectors < 1:
        raise InvalidInputError(f"n_sectors={n_sectors!r} must be >= 1")
    if not 0 <= m < n_sectors:
        raise InvalidInputError(f"main sector {m!r} outside [0, {n_sectors})")
    if fov_half_width < 0:
        raise InvalidInputError(f"fov_half_width={fov_half_width!r} must be >= 0")
    return tuple((m + c) % n_sectors for c in fov_offsets(fov_half_width, n_sectors))


def angular_sector_distance(a: int, b: int, n_sectors: int) -> int:
    """Cyclic distance between two sector indices, in sectors."""
    if n_sectors < 1:
        raise InvalidInputError(f"n_sectors={n_sectors!r} must be >= 1")
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
        if not isinstance(task.id, int) or task.id < 0:
            violations.append(f"task id {task.id!r} is not a non-negative integer")
        elif task.id in seen_ids:
            violations.append(f"duplicate task id {task.id}")
        else:
            seen_ids.add(task.id)
        if not math.isfinite(task.duration):
            violations.append(f"non-finite duration {task.duration!r}, task id {task.id}")
        elif not task.duration > 0:
            violations.append(f"non-positive duration, task id {task.id}")
        expected = sector_of_direction(task.phi, scenario.n_sectors)
        if task.home_sector != expected:
            violations.append(
                f"inconsistent home sector, task id {task.id}: "
                f"stored {task.home_sector}, phi implies {expected}")
    if (scenario.tasks and all(map(math.isfinite, scenario.resources))
            and not max(scenario.resources) > 0):
        violations.append("all sector resources are zero but the task set is non-empty")
    if _sum_overflows(filter(math.isfinite, scenario.resources)):
        violations.append("sector resources sum beyond the float range")
    if _sum_overflows(filter(math.isfinite, (t.duration for t in scenario.tasks))):
        violations.append("task durations sum beyond the float range")
    return violations

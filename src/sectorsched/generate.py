"""Seeded random scenario generation.

Randomness comes from a self-contained xorshift64* generator so that a seed
produces the same scenario on any platform and any implementation of this
format, independent of a language runtime's RNG.  The update is

    x ^= x >> 12;  x ^= x << 25 (mod 2^64);  x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2^64

with the state seeded through one splitmix64 step (constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB) so that seed 0
is usable.  Doubles take the top 53 output bits; integer ranges reduce the
output modulo the range width.

Draw order is fixed: first one resource value per sector, then per sector a
task count followed by (azimuth fraction, elevation, duration) per task.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import InvalidInputError
from .model import Scenario, SurveillanceTask, check_count, check_number, check_positive

_MASK64 = (1 << 64) - 1

# Most sectors, and most tasks, a GenParams may ask for: generate makes them
# one by one, so a count that is finite but huge would run for as long.
# Far above the largest benchmarked request (360 sectors x 15 x 4 = 21,600).
MAX_GENERATED = 1_000_000


class Xorshift64Star:
    """Minimal deterministic PRNG; see module docstring for the constants."""

    def __init__(self, seed: int):
        if type(seed) is not int:
            raise InvalidInputError(f"seed={seed!r} must be an integer")
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_range(self, lo: float, hi: float) -> float:
        """Double between the numbers ``lo`` <= ``hi``, finite and at most
        the float range apart."""
        if type(lo) is not float:
            check_number(lo, "lo")
        if type(hi) is not float:
            check_number(hi, "hi")
        width = hi - lo
        if not (lo <= hi and width <= sys.float_info.max):  # also refuses NaN and inf
            raise InvalidInputError(f"range ({lo!r}, {hi!r}) must be finite, ordered "
                                    "and at most the float range wide")
        return lo + self.uniform() * width

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends inclusive."""
        if type(lo) is not int or type(hi) is not int:
            raise InvalidInputError(f"integer range ends ({lo!r}, {hi!r}) must be ints")
        if hi < lo:
            raise InvalidInputError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def _numbers(value, arity: int, what: str) -> tuple:
    """``value`` as a tuple of ``arity`` numbers (see :func:`check_number`),
    else InvalidInputError."""
    if not (isinstance(value, (tuple, list)) and len(value) == arity):
        raise InvalidInputError(f"{what} {value!r} must be {arity} numbers")
    for x in value:
        check_number(x, what)
    return tuple(value)


@dataclass(frozen=True)
class GenParams:
    """Knobs for random scenario generation.

    ``hotspots`` maps chosen sectors to (resource multiplier, task-count
    multiplier) pairs to create deliberately overloaded or starved sectors;
    a resource multiplier of 0 yields a dead sector, and no sector may be
    listed twice.  The ``duration`` and ``resources`` ranges are finite,
    ordered, and positive (non-negative for resources).  Neither ``n_sectors`` nor ``n_sectors x tasks_per_sector[1]
    x`` the largest hotspot task multiplier (at least 1), which sizes the
    task count, may pass ``MAX_GENERATED``.
    """

    n_sectors: int = 30
    fov_half_width: int = 5
    dt: float = 25.0
    tasks_per_sector: tuple[int, int] = (5, 15)
    duration: tuple[float, float] = (0.5, 3.0)
    resources: tuple[float, float] = (5.0, 20.0)
    hotspots: tuple[tuple[int, float, float], ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        check_count(self.n_sectors, "n_sectors")
        if self.n_sectors > MAX_GENERATED:
            raise InvalidInputError(
                f"n_sectors={self.n_sectors} exceeds MAX_GENERATED={MAX_GENERATED}")
        check_count(self.fov_half_width, "fov_half_width", least=0)
        check_positive(self.dt, "dt")
        if type(self.seed) is not int:
            raise InvalidInputError(f"seed={self.seed!r} must be an integer")
        lo, most_per_sector = _numbers(self.tasks_per_sector, 2, "tasks_per_sector range")
        check_count(lo, "tasks_per_sector range", least=0)
        check_count(most_per_sector, "tasks_per_sector range", least=0)
        if most_per_sector < lo:
            raise InvalidInputError(f"bad tasks_per_sector range {self.tasks_per_sector!r}")
        lo, hi = _numbers(self.duration, 2, "duration range")
        if not 0 < lo <= hi < math.inf:
            raise InvalidInputError(f"bad duration range {self.duration!r}")
        lo, hi = _numbers(self.resources, 2, "resources range")
        if not 0 <= lo <= hi < math.inf:
            raise InvalidInputError(f"bad resources range {self.resources!r}")
        if not isinstance(self.hotspots, (tuple, list)):
            raise InvalidInputError(f"hotspots {self.hotspots!r} must be a sequence of hotspots")
        hot_sectors: set[int] = set()
        for hotspot in self.hotspots:
            if not (isinstance(hotspot, (tuple, list)) and len(hotspot) == 3):
                raise InvalidInputError(f"hotspot {hotspot!r} must be 3 numbers")
            sector, res_mult, task_mult = hotspot
            if type(sector) is not int or not 0 <= sector < self.n_sectors:
                raise InvalidInputError(f"hotspot sector {sector!r} out of range")
            if sector in hot_sectors:
                raise InvalidInputError(f"hotspot sector {sector} listed twice")
            hot_sectors.add(sector)
            _numbers((res_mult, task_mult), 2, "hotspot multipliers")
            if not (0 <= res_mult < math.inf and 0 <= task_mult < math.inf):
                raise InvalidInputError(
                    f"hotspot multipliers ({res_mult!r}, {task_mult!r}) must be finite and >= 0")
        most_mult = max((task_mult for _, _, task_mult in self.hotspots), default=1.0)
        if (most_per_sector > MAX_GENERATED  # else the product may pass the float range
                or self.n_sectors * most_per_sector * max(1.0, most_mult) > MAX_GENERATED):
            raise InvalidInputError(
                f"n_sectors x tasks_per_sector[1] x hotspot task multiplier "
                f"exceeds MAX_GENERATED={MAX_GENERATED}")


def generate(params: GenParams) -> Scenario:
    """Deterministic-in-seed random scenario.

    Azimuths are uniform within each sector's slice, elevations uniform over
    their full range, durations and resources uniform in the configured
    ranges, and hotspot multipliers applied on top.
    """
    rng = Xorshift64Star(params.seed)
    n = params.n_sectors
    hot = {sector: (rm, tm) for sector, rm, tm in params.hotspots}

    resources = []
    for i in range(n):
        r = rng.uniform_range(*params.resources)
        if i in hot:
            r *= hot[i][0]
        resources.append(r)

    tasks: list[SurveillanceTask] = []
    task_id = 0
    width = math.tau / n
    for i in range(n):
        count = rng.randint(*params.tasks_per_sector)
        if i in hot:
            count = int(round(count * hot[i][1]))
        for _ in range(count):
            phi = (i + rng.uniform()) * width
            if phi >= math.tau:
                phi = math.nextafter(math.tau, 0.0)
            theta = rng.uniform_range(-math.pi, math.pi)
            duration = rng.uniform_range(*params.duration)
            tasks.append(SurveillanceTask(task_id, phi, theta, duration))
            task_id += 1

    return Scenario(
        n_sectors=n,
        fov_half_width=params.fov_half_width,
        dt=params.dt,
        resources=tuple(resources),
        tasks=tuple(tasks),
    )

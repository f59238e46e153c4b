"""
Sectors, the rotating boresight, and the field of view
======================================================

The surveillance volume is cut into N equal azimuth sectors.  A beam
direction belongs to the sector its azimuth falls into, the antenna
boresight advances one sector every dt seconds, and the electronically
steered beam reaches n sectors to either side of wherever the boresight
currently points.
"""

import math

from sectorsched import Scenario, SurveillanceTask

N = 30          # sectors
DT = 0.1        # seconds per sector pass
FOV = 5         # half-width: 11 sectors, about 130 degrees


def reachable_from(m, n):
    """Sectors within cyclic distance n of sector m (n < N / 2 here)."""
    return tuple((m + c) % N for c in range(-n, n + 1))


# Where do beam directions live?  A scenario maps each task to its home sector.
scenario = Scenario(n_sectors=N, fov_half_width=FOV, dt=DT, resources=(1.0,) * N,
                    tasks=tuple(SurveillanceTask(i, phi, 0.0, DT)
                                for i, phi in enumerate((0.0, math.pi / 2, math.pi, 5.5))))
for task in scenario.tasks:
    print(f"azimuth {task.phi:5.2f} rad -> sector {scenario.home[task.id]:2d}")

# The boresight sweeps one sector per pass and wraps after a full rotation.
print()
for t in (0.0, 0.35, 1.5, 3.0, 3.05):
    print(f"t = {t:4.2f} s -> main sector {math.floor(t / DT) % N:2d}")

# While the main sector is m, the beam can serve 2n+1 sectors around it.
print()
for m in (0, 15, 29):
    reachable = reachable_from(m, FOV)
    span = len(reachable) / N * 360.0
    print(f"main sector {m:2d} -> {len(reachable)} reachable sectors "
          f"({span:.0f} deg): {reachable}")

# A narrow field of view trades coverage for less beam steering loss.
print()
narrow = reachable_from(0, 1)
print(f"half-width 1 -> {len(narrow)} sectors "
      f"({len(narrow) / N * 360.0:.0f} deg): {narrow}")

"""
Simulating rotations and measuring revisit times
================================================

The simulator sweeps the boresight pass by pass, executes whatever the
policy makes eligible (oldest illumination first), enforces the per-sector
resource limits, and records every execution.  Revisit time, the gap between
consecutive illuminations of the same direction, is the quantity the whole
scheme exists to equalize.
"""

from sectorsched import (
    GenParams,
    POLICY_EDF,
    POLICY_PARTITION,
    broadside_baseline,
    equalize,
    generate,
    measure_resources,
    revisit_stats,
    simulate,
)

scenario = generate(GenParams(n_sectors=12, fov_half_width=2, seed=9,
                              tasks_per_sector=(2, 6),
                              hotspots=((4, 0.6, 3.0),)))
print(f"{len(scenario.tasks)} tasks on {scenario.n_sectors} sectors, "
      f"rotation time {scenario.rotation_time:.0f} s")

partition = equalize(scenario)
for label, policy, part in (
    ("equalized", POLICY_PARTITION, partition),
    ("broadside", POLICY_PARTITION, broadside_baseline(scenario)),
    ("edf      ", POLICY_EDF, None),
):
    trace = simulate(scenario, policy, part, cycles=4)
    stats = revisit_stats(trace, scenario)
    print(f"{label}: worst revisit {stats.max_interval_rot:5.2f} rotations, "
          f"mean {stats.mean_interval_rot:5.2f}, "
          f"first update cycle done by pass {trace.completion_pass}")

# When resources are managed dynamically, estimate them from observed usage.
print()
observed_busy = [14.0, 15.5, 13.0, 16.0] * 25  # seconds used by other functions
estimate = measure_resources(observed_busy, n_sectors=4, dt=25.0, alpha=0.2)
print("smoothed available time per sector:",
      [round(float(v), 2) for v in estimate])

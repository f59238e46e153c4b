import dataclasses
import json
import math

import pytest

from sectorsched import Scenario, SurveillanceTask


def scenario_from(n_sectors, fov, dt, resources, homed_durations):
    """Scenario with tasks placed by (home_sector, duration) pairs.

    Azimuths are spread evenly inside each home sector so that every task
    maps back to the sector it was declared in.
    """
    counts = {}
    for home, _ in homed_durations:
        counts[home] = counts.get(home, 0) + 1
    width = math.tau / n_sectors
    placed = {}
    tasks = []
    for task_id, (home, duration) in enumerate(homed_durations):
        k = placed.get(home, 0)
        placed[home] = k + 1
        phi = (home + (k + 1) / (counts[home] + 1)) * width
        tasks.append(SurveillanceTask(task_id, phi, 0.0, duration))
    return Scenario(n_sectors=n_sectors, fov_half_width=fov, dt=dt,
                    resources=tuple(resources), tasks=tuple(tasks))


def scenario_payload(scenario):
    """The JSON object of a scenario file, as a ``json.dumps`` payload."""
    return {
        "n_sectors": scenario.n_sectors,
        "fov_half_width": scenario.fov_half_width,
        "dt": scenario.dt,
        "resources": list(scenario.resources),
        "tasks": [
            {"id": t.id, "phi": t.phi, "theta": t.theta, "duration": t.duration}
            for t in scenario.tasks
        ],
    }


def partition_payload(partition):
    """The JSON object of a partition file, as a ``json.dumps`` payload."""
    return {
        "assignments": [list(ids) for ids in partition.assignments],
        "provenance": {str(tid): tag
                       for tid, tag in sorted(partition.provenance.items())},
    }


def reference_json(payload):
    """The text ``write_scenario`` and ``write_partition`` must write for ``payload``."""
    return json.dumps(payload, indent=2) + "\n"


# One-field breakages that validate_scenario reports, as (field, value) for
# ``mutated``; an id of 1 duplicates the second task of a generated scenario.
INVALID_FIELDS = {
    "nan duration": ("duration", math.nan),
    "negative duration": ("duration", -1.0),
    "zero duration": ("duration", 0.0),
    "duplicate id": ("id", 1),
    "infinite resource": ("resources", math.inf),
    "nan resource": ("resources", math.nan),
}


def mutated(scenario, field, value):
    """``scenario`` with ``field`` of its first task, or the resources of
    sector 0 for ``field == "resources"``, set to ``value``."""
    if field == "resources":
        return dataclasses.replace(scenario, resources=(value,) + scenario.resources[1:])
    task = dataclasses.replace(scenario.tasks[0], **{field: value})
    return dataclasses.replace(scenario, tasks=(task,) + scenario.tasks[1:])


def cyclic_distance(a, b, n_sectors):
    """Sectors between ``a`` and ``b`` around the circle, the short way."""
    return min((a - b) % n_sectors, (b - a) % n_sectors)


def dedup_active_sectors(m, fov, n_sectors):
    """Reachable sectors by their first definition: (m + c) mod N for c in
    -w..w with w = min(fov, N // 2), repeats dropped in first-seen order."""
    w = min(fov, n_sectors // 2)
    out = []
    for c in range(-w, w + 1):
        j = (m + c) % n_sectors
        if j not in out:
            out.append(j)
    return tuple(out)


@pytest.fixture
def tri_scenario():
    """Three sectors, unit FOV, two tasks home 0 and one home 1, all 2 s."""
    return scenario_from(3, 1, 1.0, (2.0, 2.0, 2.0),
                         [(0, 2.0), (0, 2.0), (1, 2.0)])

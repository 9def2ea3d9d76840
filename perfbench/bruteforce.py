"""Recompute the plan-exhaustive optimum by independent brute force.

    python3 perfbench/bruteforce.py

Enumerates every (group, slot) level assignment of the acceptance instance
and scores each one without the package: in an all-to-all group whose
members share schedules and initial value, every member follows the scalar
recurrence in ``reference.group_recurrence``, and without cross-group
weights a group's path depends only on its own slots. So each group's
``levels ** slots`` profiles are integrated once and every assignment is
scored from them. The instance is checked to have that structure first.

Prints the optimal plan in the program's ``plan.json`` layout, plus its
objective. Assignments whose objectives lie
within ``TIE_TOLERANCE`` of the best are ties, broken by the
lexicographically smallest assignment, as the package README documents.
"""

from __future__ import annotations

import itertools
import json
import math

import inputs
import reference

TIE_TOLERANCE = 1e-12


def _check_structure(doc: dict) -> None:
    p = inputs.params_of(doc)
    groups = doc["agents"]["groups"]
    d0 = inputs.initial_of(doc)
    elec = inputs.breakpoints_of(doc, "electricity")
    media = inputs.breakpoints_of(doc, "media_access")
    problems = []
    if "full_within_groups" not in doc["network"]:
        problems.append("network is not full_within_groups")
    if p["rate_floor"] != 0.0:
        problems.append("rate_floor is not 0")
    for g in set(groups):
        idx = [a for a, ga in enumerate(groups) if ga == g]
        if len(idx) < 2:
            problems.append(f"group {g} has fewer than two members")
        for name, values in (("initial value", d0), ("electricity", elec), ("media access", media)):
            if any(values[a] != values[idx[0]] for a in idx):
                problems.append(f"group {g} members differ in {name}")
    if problems:
        raise SystemExit("brute force needs homogeneous all-to-all groups: " + "; ".join(problems))


def brute_force(doc: dict, required: float, granularity: float, levels, fairness_weight: float = 1.0) -> dict:
    _check_structure(doc)
    p = inputs.params_of(doc)
    dt = p["dt_hours"]
    horizon = p["horizon_hours"]
    n_steps = reference.step_count(horizon, dt)
    spr = round(p["report_every_hours"] / dt)
    n_slots = round(horizon / granularity)
    levels = sorted({float(v) for v in levels} | {0.0})
    groups = doc["agents"]["groups"]
    n = len(groups)
    n_groups = max(groups) + 1
    first = [groups.index(g) for g in range(n_groups)]
    sizes = [groups.count(g) for g in range(n_groups)]
    d0 = inputs.initial_of(doc)
    elec = inputs.ticks_of(doc, "electricity")
    media = inputs.ticks_of(doc, "media_access")
    slot_ticks = [reference.tick_of(s * granularity, dt) for s in range(n_slots)] + [n_steps]

    profiles = list(itertools.product(levels, repeat=n_slots))
    paths = []  # paths[g][profile] -> group D at each report time
    for g in range(n_groups):
        base = elec[first[g]]
        by_profile = {}
        for profile in profiles:
            shed = list(base)
            for s, level in enumerate(profile):
                for k in range(slot_ticks[s], slot_ticks[s + 1]):
                    shed[k] = max(0.0, base[k] - level)
            by_profile[profile] = reference.group_recurrence(
                d0[first[g]], shed, media[first[g]],
                omega1=p["omega1"], omega2=p["omega2"], dt=dt, steps_per_report=spr,
            )
        paths.append(by_profile)
    time_mean = [{pr: math.fsum(path) / len(path) for pr, path in by_g.items()} for by_g in paths]

    scored = []
    enumerated = 0
    for assignment in itertools.product(levels, repeat=n_groups * n_slots):
        enumerated += 1
        energy = math.fsum(
            level * granularity * sizes[i // n_slots] for i, level in enumerate(assignment)
        )
        if energy + 1e-9 < required:
            continue
        chosen = [assignment[g * n_slots:(g + 1) * n_slots] for g in range(n_groups)]
        series = [paths[g][chosen[g]] for g in range(n_groups)]
        peak = max(
            math.fsum(sizes[g] * series[g][t] for g in range(n_groups)) / n for t in range(len(series[0]))
        )
        means = [time_mean[g][chosen[g]] for g in range(n_groups)]
        unfairness = max(means) - min(means)
        scored.append((peak + fairness_weight * unfairness, assignment, peak, unfairness))
    if not scored:
        raise SystemExit("no assignment meets the energy requirement")
    best = min(c for c, *_ in scored)
    ties = [s for s in scored if s[0] <= best + TIE_TOLERANCE]
    combined, assignment, peak, unfairness = min(ties, key=lambda s: s[1])
    slots = [
        {"group": i // n_slots, "start_hour": (i % n_slots) * granularity,
         "duration_hours": granularity, "shed_level": level}
        for i, level in enumerate(assignment) if level > 0.0
    ]
    return {
        "plan": {"schema_version": 1, "granularity_hours": granularity, "slots": slots},
        "combined": combined,
        "peak_mean_dissatisfaction": peak,
        "unfairness": unfairness,
        "enumerated": enumerated,
        "feasible": len(scored),
        "ties": len(ties),
    }


def c6_optimum() -> dict:
    return brute_force(inputs.c6_doc(), inputs.C6_REQUIRED_ENERGY, inputs.C6_GRANULARITY, inputs.C6_LEVELS)


if __name__ == "__main__":
    print(json.dumps(c6_optimum(), indent=2, sort_keys=True))

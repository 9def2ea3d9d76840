"""Seeded inputs for the benchmark workloads, as scenario documents.

The documents follow the package's versioned scenario schema but are built
here from plain Python, so the program receives only generated files. The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference

# plan-exhaustive: the acceptance-suite instance (3 groups of 3, 12 h, 3 h
# slots, levels {0, 0.5}, two slot-equivalents of energy). Fixed, not seeded.
C6_REQUIRED_ENERGY = 9.0
C6_GRANULARITY = 3.0
C6_LEVELS = (0.0, 0.5)

SCALE_AGENTS = 3000
SCALE_GROUPS = 12
HORIZON_48H = 48.0


def _doc(label, horizon, groups, initial, network, electricity, media):
    return {
        "schema_version": 1,
        "label": label,
        "params": {"horizon_hours": horizon},
        "agents": {"count": len(groups), "groups": groups, "initial_dissatisfaction": initial},
        "network": network,
        "schedules": {"electricity": electricity, "media_access": media},
    }


def c6_doc() -> dict:
    groups = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    return _doc(
        "planner-base",
        12.0,
        groups,
        0.5,
        {"full_within_groups": {"weight": 1.0}},
        {"broadcast": [[0.0, 1.0]]},
        {"broadcast": [[0.0, 1.0]]},
    )


def scale_doc(seed: int) -> dict:
    """3000 agents in 12 all-to-all groups of 250, members scattered over ids.

    Each group has its own electricity schedule (a shedding pattern switching
    on whole hours), its own media-access schedule and its own initial
    dissatisfaction, shared by all of its members.
    """
    rng = random.Random(seed)
    size = SCALE_AGENTS // SCALE_GROUPS
    groups = [g for g in range(SCALE_GROUPS) for _ in range(size)]
    rng.shuffle(groups)
    elec, media, d0 = [], [], []
    for _ in range(SCALE_GROUPS):
        starts = sorted(rng.sample(range(1, int(HORIZON_48H)), 4))
        elec.append([[0.0, 1.0]] + [[float(s), round(rng.uniform(0.3, 1.0), 2)] for s in starts])
        switch = float(rng.randrange(1, int(HORIZON_48H)))
        media.append([[0.0, round(rng.uniform(0.5, 1.0), 2)], [switch, round(rng.uniform(0.5, 1.0), 2)]])
        d0.append(round(rng.uniform(0.2, 0.8), 3))
    return _doc(
        f"scale-seed{seed}",
        HORIZON_48H,
        groups,
        [d0[g] for g in groups],
        {"full_within_groups": {"weight": 1.0}},
        {"per_agent": [elec[g] for g in groups]},
        {"per_agent": [media[g] for g in groups]},
    )


def write_doc(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path


# --- Reading a document back for the references, without the package. ---


def params_of(doc: dict) -> dict:
    p = {"omega1": 0.5, "omega2": 0.5, "dt_hours": 0.1, "rate_floor": 0.0, "report_every_hours": 1.0}
    p.update(doc["params"])
    return p


def euler_kwargs(doc: dict) -> dict:
    """Keyword arguments of ``reference.plain_euler`` for this document."""
    p = params_of(doc)
    return {
        "omega1": p["omega1"],
        "omega2": p["omega2"],
        "dt": p["dt_hours"],
        "rate_floor": p["rate_floor"],
        "steps_per_report": round(p["report_every_hours"] / p["dt_hours"]),
    }


def weights_of(doc: dict) -> list[list[float]]:
    net = doc["network"]
    if "dense" in net:
        return [[float(w) for w in row] for row in net["dense"]]
    w = float(net["full_within_groups"].get("weight", 1.0))
    groups = doc["agents"]["groups"]
    return [[w if ga == gb and a != b else 0.0 for b, gb in enumerate(groups)] for a, ga in enumerate(groups)]


def initial_of(doc: dict) -> list[float]:
    d0 = doc["agents"]["initial_dissatisfaction"]
    n = doc["agents"]["count"]
    return [float(d0)] * n if isinstance(d0, (int, float)) else [float(v) for v in d0]


def breakpoints_of(doc: dict, key: str) -> list[list[list[float]]]:
    block = doc["schedules"][key]
    n = doc["agents"]["count"]
    return [block["broadcast"]] * n if "broadcast" in block else block["per_agent"]


def ticks_of(doc: dict, key: str) -> list[list[float]]:
    """Per-agent schedule values on the step ticks (shared lists for equal schedules)."""
    p = params_of(doc)
    n_steps = reference.step_count(p["horizon_hours"], p["dt_hours"])
    cache: dict[str, list[float]] = {}
    out = []
    for points in breakpoints_of(doc, key):
        k = json.dumps(points)
        if k not in cache:
            cache[k] = reference.sample_on_ticks(points, p["dt_hours"], n_steps)
        out.append(cache[k])
    return out


def casestudy_doc(variant: str) -> dict:
    """The built-in 48 h case study as the package documents it: 9 agents in
    3 all-to-all groups, availability 0.5 on [17, 34) h, media access 1.0
    (full) or 0.5 (limited), everyone starting at 0.5."""
    access = {"full": 1.0, "limited": 0.5}[variant]
    return _doc(
        f"case-study-{variant}-access",
        HORIZON_48H,
        [0, 0, 0, 1, 1, 1, 2, 2, 2],
        0.5,
        {"full_within_groups": {"weight": 1.0}},
        {"broadcast": [[0.0, 1.0], [17.0, 0.5], [34.0, 1.0]]},
        {"broadcast": [[0.0, access]]},
    )

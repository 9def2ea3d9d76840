"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the package under test or ``tests/oracles.py``. The
integrators are written straight from the model's update rule, work on
plain Python lists, and sample schedules on integer step ticks rather than
on the floating-point times ``k * dt``.

Update rule, per agent n and step k (``README.md`` of the package):

    pull[n]   = I[n] * sum_m alpha[n][m] * I[m] * D[m] / sum_m alpha[n][m]
    rate[n]   = max(pull[n], rate_floor)       (rate_floor when omega2 = 0)
    target[n] = omega1 * (1 - E[n]) + omega2 * pull[n]
    D'[n]     = clip(D[n] + rate[n] * (target[n] - D[n]) * dt, 0, 1)
"""

from __future__ import annotations

import math
from typing import Sequence

# A breakpoint that lies within this many steps of a tick starts at that tick.
TICK_TOLERANCE = 1e-6


def tick_of(hour: float, dt: float) -> int:
    """First step index k whose start time k*dt is at or after ``hour``."""
    return math.ceil(hour / dt - TICK_TOLERANCE)


def step_count(horizon: float, dt: float) -> int:
    """Whole steps of size ``dt`` that fit in the horizon."""
    return math.floor(horizon / dt + TICK_TOLERANCE)


def sample_on_ticks(breakpoints: Sequence[Sequence[float]], dt: float, n_steps: int) -> list[float]:
    """Left-closed piecewise-constant schedule, one value per step tick."""
    values = [0.0] * n_steps
    starts = [tick_of(float(s), dt) for s, _ in breakpoints] + [n_steps]
    for (_, value), lo, hi in zip(breakpoints, starts, starts[1:]):
        for k in range(max(lo, 0), min(hi, n_steps)):
            values[k] = float(value)
    return values


def plain_euler(
    weights: Sequence[Sequence[float]],
    initial: Sequence[float],
    electricity: Sequence[Sequence[float]],
    access: Sequence[Sequence[float]],
    *,
    omega1: float,
    omega2: float,
    dt: float,
    rate_floor: float,
    steps_per_report: int,
) -> list[list[float]]:
    """Per-agent Euler integration; returns D at t = 0 and at every report.

    ``electricity[n]`` and ``access[n]`` are agent n's values per step tick
    (see :func:`sample_on_ticks`); their length is the step count.
    """
    n = len(initial)
    n_steps = len(electricity[0])
    row_sum = [math.fsum(row) for row in weights]
    nonzero = [[(m, w) for m, w in enumerate(row) if w != 0.0] for row in weights]
    d = [float(v) for v in initial]
    rows = [list(d)]
    for k in range(n_steps):
        a = [access[m][k] for m in range(n)]
        nxt = [0.0] * n
        for i in range(n):
            pull = 0.0
            if row_sum[i] > 0.0:
                pull = a[i] * sum(w * a[m] * d[m] for m, w in nonzero[i]) / row_sum[i]
            rate = max(pull, rate_floor) if omega2 > 0.0 else rate_floor
            target = omega1 * (1.0 - electricity[i][k]) + omega2 * pull
            nxt[i] = min(1.0, max(0.0, d[i] + rate * (target - d[i]) * dt))
        d = nxt
        if (k + 1) % steps_per_report == 0:
            rows.append(list(d))
    return rows


def group_recurrence(
    d0: float,
    electricity: Sequence[float],
    access: Sequence[float],
    *,
    omega1: float,
    omega2: float,
    dt: float,
    steps_per_report: int,
) -> list[float]:
    """Exact scalar path of one all-to-all group whose agents share schedules.

    With equal weights inside the group, no weights across groups, equal
    initial values, zero rate floor and at least two members, every member
    follows d' = d + i^2 d (omega1 (1 - E) + omega2 i^2 d - d) dt.
    """
    d = float(d0)
    out = [d]
    for k, (e, i) in enumerate(zip(electricity, access)):
        contagion = i * i * d
        d = d + contagion * (omega1 * (1.0 - e) + omega2 * contagion - d) * dt
        if (k + 1) % steps_per_report == 0:
            out.append(d)
    return out


def plan_objective(
    rows: Sequence[Sequence[float]], groups: Sequence[int], fairness_weight: float
) -> tuple[float, float, float]:
    """(combined, peak, unfairness) of a report-time trajectory of D.

    Peak is the largest global mean over report times; unfairness is the
    spread of the groups' time-mean D.
    """
    n = len(groups)
    n_groups = max(groups) + 1
    members = [[a for a in range(n) if groups[a] == g] for g in range(n_groups)]
    peak = max(math.fsum(row) / n for row in rows)
    time_means = [
        math.fsum(math.fsum(row[a] for a in idx) / len(idx) for row in rows) / len(rows) for idx in members
    ]
    unfairness = max(time_means) - min(time_means)
    return peak + fairness_weight * unfairness, peak, unfairness

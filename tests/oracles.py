"""Independent reference implementations used only by the tests.

Nothing here shares code with the engine's simulation loop or the planner's
search: the integrator below is written straight from the update formulas
with explicit weight matrices and per-agent loops, and the brute-force plan
search builds its shedding schedules by hand.
"""

from __future__ import annotations

import itertools

import numpy as np

from socio_grid_sim import (
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    simulate,
)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bits: unlike ``np.array_equal``, ``-0.0`` is not ``0.0``."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_trajectory(
    scenario: Scenario, dt_hours: float | None = None, report_every_hours: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Plain-loop integrator: gamma materialized every step, agents handled
    one by one. Returns (report_times, dissatisfaction matrix)."""
    p = scenario.params
    dt = p.dt_hours if dt_hours is None else dt_hours
    report = p.report_every_hours if report_every_hours is None else report_every_hours
    n = scenario.n_agents
    alpha = np.array(scenario.network.base_weights)
    row_sum = alpha.sum(axis=1)
    d = np.array(scenario.initial_dissatisfaction, dtype=float)
    n_steps = int(np.floor(p.horizon_hours / dt + 1e-9))
    spr = round(report / dt)
    rows = [d.copy()]
    for k in range(n_steps):
        t = k * dt
        elec = np.array([s.value_at(t) for s in scenario.electricity])
        access = np.array([s.value_at(t) for s in scenario.media_access])
        gamma = alpha * access[:, None] * access[None, :]
        g = np.zeros(n)
        for a in range(n):
            if row_sum[a] > 0.0:
                g[a] = p.omega2 * float(gamma[a] @ d) / row_sum[a]
        rate = np.empty(n)
        for a in range(n):
            if p.omega2 > 0.0:
                rate[a] = max(g[a] / p.omega2, p.rate_floor)
            else:
                rate[a] = p.rate_floor
        target = p.omega1 * (1.0 - elec) + g
        d = np.clip(d + rate * (target - d) * dt, 0.0, 1.0)
        if (k + 1) % spr == 0:
            rows.append(d.copy())
    times = np.arange(len(rows)) * report
    return times, np.array(rows)


def rk4_scalar(f, y0: float, t_end: float, dt: float = 1e-3) -> float:
    """Classic fixed-step RK4 for a scalar ODE y' = f(t, y)."""
    y = float(y0)
    t = 0.0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = f(t, y)
        k2 = f(t + h / 2.0, y + h * k1 / 2.0)
        k3 = f(t + h / 2.0, y + h * k2 / 2.0)
        k4 = f(t + h, y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def symmetric_planner_base(horizon: float = 12.0) -> Scenario:
    """Three groups of three, full electricity and media access everywhere."""
    groups = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    return Scenario(
        params=ModelParams(horizon_hours=horizon),
        network=ContagionNetwork.full_within_groups(groups, 1.0),
        electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 9,
        media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 9,
        initial_dissatisfaction=np.full(9, 0.5),
        label="planner-base",
    )


def reference_objective(
    d: np.ndarray, groups: np.ndarray, fairness_weight: float
) -> tuple[float, float, float]:
    """(peak, unfairness, combined) of a (T, N) dissatisfaction trajectory.

    Peak is the worst report-time global mean; unfairness is the spread of
    the groups' time-mean dissatisfaction, each taken over the group's own
    columns.
    """
    peak = float(d.mean(axis=1).max())
    time_means = [float(d[:, groups == g].mean(axis=1).mean()) for g in np.unique(groups)]
    unfairness = max(time_means) - min(time_means)
    return peak, unfairness, peak + fairness_weight * unfairness


def brute_force_plan_search(
    base: Scenario,
    required_energy: float,
    granularity_hours: float,
    levels: list[float],
    fairness_weight: float = 1.0,
):
    """Enumerate every lattice assignment, building schedules by hand.

    Assumes the base electricity schedules are constant (true for the test
    instances). Returns (assignment, combined, peak, unfairness) for the best
    feasible assignment, ties broken by the lexicographically smallest
    assignment tuple.
    """
    p = base.params
    horizon = p.horizon_hours
    n_slots = round(horizon / granularity_hours)
    n_groups = base.network.n_groups
    groups = base.network.group_of
    sizes = [int(np.sum(groups == g)) for g in range(n_groups)]
    base_values = [s.value_at(0.0) for s in base.electricity]
    levels = sorted(set(float(l) for l in levels) | {0.0})

    best_key = None
    best = None
    for assignment in itertools.product(levels, repeat=n_groups * n_slots):
        grid = [assignment[g * n_slots : (g + 1) * n_slots] for g in range(n_groups)]
        energy = sum(
            level * granularity_hours * sizes[g]
            for g in range(n_groups)
            for level in grid[g]
        )
        if energy + 1e-9 < required_energy:
            continue
        electricity = []
        for agent in range(base.n_agents):
            g = int(groups[agent])
            points = tuple(
                (slot * granularity_hours, max(0.0, base_values[agent] - grid[g][slot]))
                for slot in range(n_slots)
            )
            electricity.append(PiecewiseSchedule(points, horizon))
        scenario = Scenario(
            params=p,
            network=base.network,
            electricity=tuple(electricity),
            media_access=base.media_access,
            initial_dissatisfaction=base.initial_dissatisfaction,
            label=base.label,
        )
        peak, unfairness, combined = reference_objective(
            simulate(scenario).dissatisfaction, groups, fairness_weight
        )
        key = (combined, assignment)
        if best_key is None or key < best_key:
            best_key = key
            best = (assignment, combined, peak, unfairness)
    return best


def random_scenario(
    rng: np.random.Generator,
    max_agents: int = 20,
    max_horizon: float = 100.0,
    cross_group_weights: bool = True,
    rate_floor: float = 0.0,
) -> Scenario:
    """Random valid scenario for the property suite."""
    n_groups = int(rng.integers(1, 5))
    sizes = rng.integers(1, 6, size=n_groups)
    while sizes.sum() > max_agents:
        sizes = rng.integers(1, 6, size=n_groups)
    group_of = np.repeat(np.arange(n_groups), sizes)
    rng.shuffle(group_of)
    n = group_of.size

    same = group_of[:, None] == group_of[None, :]
    weights = rng.uniform(0.0, 2.0, size=(n, n))
    weights[rng.uniform(size=(n, n)) < 0.3] = 0.0
    if cross_group_weights:
        weights = np.where(same, weights, weights * (rng.uniform(size=(n, n)) < 0.3))
    else:
        weights = np.where(same, weights, 0.0)
    np.fill_diagonal(weights, 0.0)

    dt = float(rng.choice([0.25, 0.5, 1.0]))
    horizon = float(rng.integers(1, int(max_horizon) + 1))
    report_candidates = [m * dt for m in (1, 2, 4) if m * dt <= horizon]
    report = float(rng.choice(report_candidates)) if report_candidates else dt
    omega1 = float(rng.uniform(0.0, 1.0))
    omega2 = float(rng.uniform(0.0, 1.0 - omega1))
    params = ModelParams(
        horizon_hours=horizon,
        omega1=omega1,
        omega2=omega2,
        dt_hours=dt,
        rate_floor=rate_floor,
        report_every_hours=report,
    )

    def random_schedule() -> PiecewiseSchedule:
        n_points = int(rng.integers(1, 5))
        starts = np.unique(np.concatenate([[0.0], rng.uniform(0.0, horizon, size=n_points - 1)]))
        starts = starts[starts < horizon]
        values = rng.uniform(0.0, 1.0, size=starts.size)
        return PiecewiseSchedule(tuple(zip(starts.tolist(), values.tolist())), horizon)

    return Scenario(
        params=params,
        network=ContagionNetwork(n, weights, group_of),
        electricity=tuple(random_schedule() for _ in range(n)),
        media_access=tuple(random_schedule() for _ in range(n)),
        initial_dissatisfaction=rng.uniform(0.0, 1.0, size=n),
        label="random",
    )


def reference_agents_csv(times, dissatisfaction, groups) -> str:
    """agents.csv written one agent line at a time, from plain floats."""
    lines = ["t_hours,agent_id,group,dissatisfaction,satisfaction\n"]
    for t, row in zip(times, dissatisfaction):
        for a, (g, d) in enumerate(zip(groups, row)):
            t, g, d = float(t), int(g), float(d)
            lines.append(f"{t:.9g},{a},{g},{d:.9g},{1 - d:.9g}\n")
    return "".join(lines)


def valid_breakpoints(entry, horizon: float) -> bool:
    """Whether a ``per_agent`` entry is a valid breakpoint list over
    ``[0, horizon)``, decided apart from the loader: a nonempty list of
    ``[start, value]`` pairs (lists or tuples) of finite ints and floats,
    not bools, starting at hour 0, with increasing starts below the horizon
    and values in [0, 1]."""
    if not isinstance(entry, list) or not entry:
        return False
    for pair in entry:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            return False
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x) for x in pair):
            return False
    starts = [float(start) for start, _ in entry]
    return (
        starts[0] == 0.0
        and all(a < b for a, b in zip(starts, starts[1:]))
        and starts[-1] < horizon
        and all(0.0 <= value <= 1.0 for _, value in entry)
    )

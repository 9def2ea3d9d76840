"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import time

import numpy as np

from socio_grid_sim import (
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    builtin_case_study,
    simulate,
    plan_shedding,
)
from socio_grid_sim.cli import main

import property_checks as props
from oracles import (
    brute_force_plan_search,
    random_scenario,
    reference_trajectory,
    symmetric_planner_base,
)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_c1_case_study_shape():
    start = time.perf_counter()
    result = simulate(builtin_case_study("full_access"))
    elapsed = time.perf_counter() - start
    s = result.global_mean_satisfaction()
    assert result.n_times == 49
    assert np.all(np.diff(s[0:18]) > 0.0), "mean satisfaction must rise on hours 0-17"
    assert s[17] >= 0.85
    assert np.all(np.diff(s[17:35]) < 0.0), "mean satisfaction must fall on hours 17-34"
    assert np.all(np.diff(s[34:49]) > 0.0), "mean satisfaction must rise on hours 34-48"
    assert 0.85 <= s[48] <= 0.95
    assert elapsed < 1.0
    _report(1, f"case-study shape holds, S(17)={s[17]:.4f}, S(48)={s[48]:.4f}, {elapsed*1e3:.0f} ms")


def test_c2_limited_access_damping():
    full = simulate(builtin_case_study("full_access")).global_mean_satisfaction()
    limited = simulate(builtin_case_study("limited_access")).global_mean_satisfaction()
    assert limited[17] < full[17]
    full_swing = abs(full[34] - full[17])
    limited_swing = abs(limited[34] - limited[17])
    assert limited_swing < full_swing
    _report(2, f"limited access damps the swing ({limited_swing:.4f} < {full_swing:.4f})")


def test_c3_fixed_point_convergence():
    horizon = 500.0
    scenario = Scenario(
        params=ModelParams(horizon_hours=horizon),
        network=ContagionNetwork.full_within_groups([0, 0, 0], 1.0),
        electricity=(PiecewiseSchedule.constant(0.5, horizon),) * 3,
        media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 3,
        initial_dissatisfaction=np.full(3, 0.9),
        label="fixed-point",
    )
    result = simulate(scenario)
    gap = float(np.max(np.abs(result.dissatisfaction[-1] - 0.5)))
    assert gap <= 1e-3
    _report(3, f"|D(500) - 0.5| = {gap:.2e} <= 1e-3")


def test_c4_integrator_against_fine_step_oracle():
    scenario = builtin_case_study("full_access")
    start = time.perf_counter()
    coarse = simulate(scenario)
    _, fine = reference_trajectory(scenario, dt_hours=1e-3, report_every_hours=1.0)
    elapsed = time.perf_counter() - start
    assert fine.shape == coarse.dissatisfaction.shape
    sup = float(np.max(np.abs(coarse.dissatisfaction - fine)))
    assert sup <= 5e-3
    assert elapsed < 10.0
    _report(4, f"dt=0.1 vs dt=1e-3 oracle sup-norm {sup:.2e} <= 5e-3 in {elapsed:.1f} s")


def test_c5_hand_computed_steps():
    net = ContagionNetwork.full_within_groups([0, 0, 0], 1.0)
    params = ModelParams(horizon_hours=1.0, dt_hours=1.0)
    d = np.full(3, 0.5)

    # At rate_floor = 1 a one-hour step lands on the target.
    target, _ = props.one_step(net, d, 1.0, 1.0, params, rate_floor=1.0)
    assert np.all(np.abs(target - 0.25) <= 1e-12)
    nxt, _ = props.one_step(net, d, 1.0, 1.0, params)
    assert np.all(np.abs(nxt - 0.375) <= 1e-12)

    nxt_half, _ = props.one_step(net, d, 0.5, 1.0, params)
    assert np.all(np.abs(nxt_half - 0.4453125) <= 1e-12)
    _report(5, "hand-computed steps match: target 0.25, next 0.375 and 0.4453125")


def test_c6_planner_exhaustive_equals_brute_force():
    base = symmetric_planner_base(horizon=12.0)
    granularity = 3.0  # 4 slots per group
    levels = [0.0, 0.5]
    required = 2 * 0.5 * granularity * 3  # two slot-equivalents of energy

    start = time.perf_counter()
    plan, objective = plan_shedding(base, required, granularity, levels, strategy="exhaustive")
    oracle = brute_force_plan_search(base, required, granularity, levels)
    elapsed = time.perf_counter() - start

    assert oracle is not None
    assignment, combined, peak, unfairness = oracle
    n_slots = round(base.params.horizon_hours / granularity)
    produced = [0.0] * (3 * n_slots)
    for slot in plan.slots:
        produced[slot.group * n_slots + round(slot.start_hour / granularity)] = slot.shed_level
    assert tuple(produced) == assignment, "plan encoding must match the oracle optimum"
    assert objective.combined == combined
    assert objective.peak_mean_dissatisfaction == peak
    assert objective.unfairness == unfairness
    assert elapsed < 30.0
    _report(6, f"exhaustive optimum matches brute force (combined {combined:.4f}) in {elapsed:.1f} s")


def test_c7_randomized_property_suite():
    n_seeds = 500  # two scenarios per seed -> 1000 randomized scenarios
    scenarios_checked = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(10_000 + seed)
        scenario = random_scenario(rng, max_agents=20, max_horizon=100.0)
        base_run = simulate(scenario)
        props.check_boundedness_without_clamp(scenario, base_run)
        props.check_scale_invariance(scenario, rng, base_run)
        props.check_permutation_equivariance(scenario, rng, base_run)
        props.check_target_monotonicity(scenario, rng)
        scenarios_checked += 1

        blocked = random_scenario(rng, max_agents=20, max_horizon=100.0, cross_group_weights=False)
        blocked_run = simulate(blocked)
        props.check_boundedness_without_clamp(blocked, blocked_run)
        props.check_group_isolation(blocked, blocked_run)
        props.check_absorbing_zero(blocked, rng)
        scenarios_checked += 1
    assert scenarios_checked >= 1000
    _report(7, f"all six invariants held on {scenarios_checked} randomized scenarios")


def test_c8_casestudy_determinism(tmp_path):
    for run in ("a", "b"):
        assert main(["casestudy", "--variant", "both", "--out", str(tmp_path / run)]) == 0
    files = [
        "comparison.csv",
        "full/agents.csv",
        "full/aggregates.csv",
        "full/manifest.json",
        "limited/agents.csv",
        "limited/aggregates.csv",
        "limited/manifest.json",
    ]
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    _report(8, f"two casestudy runs produced byte-identical output ({len(files)} files)")

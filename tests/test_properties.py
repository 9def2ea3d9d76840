from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from socio_grid_sim import ContagionNetwork, ModelParams

import property_checks as props
from oracles import random_scenario

unit = st.floats(0.0, 1.0)


@given(
    agents=st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=6),
    weights=st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=36, max_size=36),
    omega1=unit,
    share=unit,
    dt=st.floats(0.001, 1.0),
    rate_floor=unit,
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_convex_step_stays_in_unit_interval(agents, weights, omega1, share, dt, rate_floor):
    # One step of the engine from drawn (d, access, electricity) per agent,
    # on a dense network of drawn weights (or the group block they form).
    # Subnormal weights are left out: a row summing below 2**-1024 is
    # defect (j), pinned by test_tiny_weights_match_unit_weights.
    d, access, electricity = np.array(agents).T
    n = d.size
    alpha = np.array(weights).reshape(6, 6)[:n, :n]
    np.fill_diagonal(alpha, 0.0)
    network = ContagionNetwork(n, alpha, np.zeros(n, dtype=int))
    omega2 = share * (1.0 - omega1)
    assume(omega1 + omega2 <= 1.0)
    params = ModelParams(1.0, omega1=omega1, omega2=omega2, rate_floor=rate_floor)
    target, target_clamps = props.one_step(network, d, access, electricity, params, rate_floor=1.0, dt_hours=1.0)
    nxt, clamps = props.one_step(network, d, access, electricity, params, dt_hours=dt)
    # A convex combination of D and the target: the clamp never acts.
    assert clamps == 0 and target_clamps == 0
    assert np.all(nxt >= np.minimum(d, target)) and np.all(nxt <= np.maximum(d, target))


@pytest.mark.parametrize("seed", range(40))
def test_simulation_invariants_on_random_scenarios(seed):
    rng = np.random.default_rng(1000 + seed)
    scenario = random_scenario(rng, max_horizon=40.0)
    props.check_boundedness_without_clamp(scenario)
    props.check_scale_invariance(scenario, rng)
    props.check_permutation_equivariance(scenario, rng)
    props.check_target_monotonicity(scenario, rng)

    blocked = random_scenario(rng, max_horizon=40.0, cross_group_weights=False)
    props.check_group_isolation(blocked)
    props.check_absorbing_zero(blocked, rng)


def test_rate_floor_scenarios_stay_bounded():
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        scenario = random_scenario(rng, max_horizon=30.0, rate_floor=float(rng.uniform(0.0, 1.0)))
        props.check_boundedness_without_clamp(scenario)

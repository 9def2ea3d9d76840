from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socio_grid_sim import ContagionSnapshot, step

import property_checks as props
from oracles import random_scenario

unit = st.floats(0.0, 1.0)


@given(
    d=st.lists(unit, min_size=1, max_size=8),
    rate=st.lists(unit, min_size=8, max_size=8),
    target=st.lists(unit, min_size=8, max_size=8),
    dt=st.floats(0.001, 1.0),
)
@settings(max_examples=300)
def test_convex_step_stays_in_unit_interval(d, rate, target, dt):
    d = np.asarray(d)
    n = d.size
    rate = np.asarray(rate[:n])
    target = np.asarray(target[:n])
    nxt = step(d, ContagionSnapshot(social_term=np.zeros(n), rate=rate), target, dt)
    assert np.all(nxt >= 0.0) and np.all(nxt <= 1.0)
    # A convex combination of D and the target: the clamp in step never acts.
    assert np.all(nxt >= np.minimum(d, target) - 1e-15) and np.all(nxt <= np.maximum(d, target) + 1e-15)


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

from __future__ import annotations

import copy
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from socio_grid_sim import ContagionNetwork, ModelParams, ValidationError, scenario_from_dict

import property_checks as props
from oracles import random_scenario, valid_breakpoints

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


_HORIZON = 4.0


@st.composite
def _entry(draw):
    """A per-agent breakpoint entry, valid about half the time: starts from
    0, 0.0 or -0.0, then increasing starts (5 lies past the horizon); values
    among ints, floats, +-0.0, True, a string and out-of-range numbers; pairs
    as lists or tuples. Now and then plain junk instead."""
    junk = [True, "x", [], [[0, 1, 1]], [[0]], 0.5]
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(junk))
    starts = [draw(st.sampled_from([0, 0.0, -0.0]))] + sorted(draw(st.sets(st.sampled_from([1, 2.5, 3, 5]), max_size=2)))
    values = st.sampled_from([0, 1, 0.0, -0.0, 0.5, 1.0, 0.25, True, "1", 1.5])
    return [list(p) if draw(st.booleans()) else p for p in zip(starts, draw(st.lists(values, min_size=len(starts), max_size=len(starts))))]


def _float_bits(entry) -> bytes:
    return struct.pack(f"<{2 * len(entry)}d", *(float(x) for pair in entry for x in pair))


@given(data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_per_agent_block_names_bad_agents_or_shares_by_bits(data):
    # A small per_agent block of repeated entries, some copies of others:
    # either the error names exactly the agents whose entries are invalid,
    # or every agent's schedule holds float() of its entry, bit for bit, and
    # agents share one schedule object exactly when those bits are equal.
    pool = data.draw(st.lists(_entry(), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    entries = [copy.deepcopy(e) if data.draw(st.booleans()) else e for e in picks]
    n = len(entries)
    doc = {
        "schema_version": 1,
        "params": {"horizon_hours": _HORIZON},
        "agents": {"count": n, "groups": [0] * n, "initial_dissatisfaction": 0.5},
        "network": {"full_within_groups": {}},
        "schedules": {"electricity": {"per_agent": entries}, "media_access": {"broadcast": [[0, 1]]}},
    }
    bad = {i for i, entry in enumerate(entries) if not valid_breakpoints(entry, _HORIZON)}
    try:
        electricity = scenario_from_dict(doc).electricity
    except ValidationError as exc:
        named = {i for i in range(n) if any(f"electricity.per_agent[{i}]" in v for v in exc.violations)}
        assert bad and named == bad, exc.violations
        return
    assert not bad
    bits = [_float_bits(entry) for entry in entries]
    assert [_float_bits(sched.breakpoints) for sched in electricity] == bits
    for i in range(n):
        for j in range(n):
            assert (electricity[i] is electricity[j]) == (bits[i] == bits[j])

"""The six randomized simulation invariants, shared by the fast property
tests and the full-scale acceptance sweep."""

from __future__ import annotations

import numpy as np

from socio_grid_sim import (
    ContagionNetwork,
    Scenario,
    compute_target,
    contagion_snapshot,
    simulate,
)

from oracles import same_bits


def rebuild(scenario: Scenario, **fields) -> Scenario:
    base = dict(
        params=scenario.params,
        network=scenario.network,
        electricity=scenario.electricity,
        media_access=scenario.media_access,
        initial_dissatisfaction=scenario.initial_dissatisfaction,
        label=scenario.label,
    )
    base.update(fields)
    return Scenario(**base)


def check_boundedness_without_clamp(scenario: Scenario, base_run=None) -> None:
    result = base_run if base_run is not None else simulate(scenario)
    assert result.manifest["clamp_activations"] == 0
    assert np.all(result.dissatisfaction >= 0.0)
    assert np.all(result.dissatisfaction <= 1.0)


def check_scale_invariance(scenario: Scenario, rng: np.random.Generator, base_run=None) -> None:
    # Power-of-two factors scale every product and sum exactly, so the
    # trajectories must be bit-identical; the factor cancels in the
    # contagion ratio for any c > 0 mathematically.
    exponent = int(rng.choice([-6, -4, -2, -1, 1, 2, 4, 6]))
    factor = 2.0 ** exponent
    net = scenario.network
    scaled = ContagionNetwork(net.n_agents, net.base_weights * factor, net.group_of)
    if base_run is None:
        base_run = simulate(scenario)
    scaled_run = simulate(rebuild(scenario, network=scaled))
    assert same_bits(base_run.dissatisfaction, scaled_run.dissatisfaction)

    arbitrary = float(rng.uniform(0.1, 10.0))
    loose = ContagionNetwork(net.n_agents, net.base_weights * arbitrary, net.group_of)
    loose_run = simulate(rebuild(scenario, network=loose))
    assert np.allclose(base_run.dissatisfaction, loose_run.dissatisfaction, atol=1e-9)


def solo_group_scenario(scenario: Scenario, group: int) -> Scenario:
    members = scenario.network.members(group)
    net = scenario.network
    solo_net = ContagionNetwork(
        members.size,
        net.base_weights[np.ix_(members, members)],
        np.zeros(members.size, dtype=int),
    )
    return Scenario(
        params=scenario.params,
        network=solo_net,
        electricity=tuple(scenario.electricity[i] for i in members),
        media_access=tuple(scenario.media_access[i] for i in members),
        initial_dissatisfaction=scenario.initial_dissatisfaction[members],
        label=scenario.label,
    )


def check_group_isolation(scenario: Scenario, base_run=None) -> None:
    """Requires a scenario with zero cross-group weights."""
    full = (base_run if base_run is not None else simulate(scenario)).dissatisfaction
    for group in range(scenario.network.n_groups):
        members = scenario.network.members(group)
        solo = simulate(solo_group_scenario(scenario, group)).dissatisfaction
        assert np.max(np.abs(full[:, members] - solo)) <= 1e-9


def check_permutation_equivariance(scenario: Scenario, rng: np.random.Generator, base_run=None) -> None:
    n = scenario.n_agents
    perm = rng.permutation(n)
    net = scenario.network
    permuted = Scenario(
        params=scenario.params,
        network=ContagionNetwork(
            n, net.base_weights[np.ix_(perm, perm)], net.group_of[perm]
        ),
        electricity=tuple(scenario.electricity[i] for i in perm),
        media_access=tuple(scenario.media_access[i] for i in perm),
        initial_dissatisfaction=scenario.initial_dissatisfaction[perm],
        label=scenario.label,
    )
    base = (base_run if base_run is not None else simulate(scenario)).dissatisfaction
    perm_run = simulate(permuted).dissatisfaction
    assert np.max(np.abs(perm_run - base[:, perm])) <= 1e-9


def check_target_monotonicity(scenario: Scenario, rng: np.random.Generator) -> None:
    n = scenario.n_agents
    params = scenario.params
    d = rng.uniform(0.0, 1.0, size=n)
    access = rng.uniform(0.0, 1.0, size=n)
    elec = rng.uniform(0.0, 1.0, size=n)
    snapshot = contagion_snapshot(scenario.network, access, d, params)
    assert np.all(snapshot.social_term >= 0.0)
    assert np.all(snapshot.social_term <= params.omega2 + 1e-15)
    assert np.all(snapshot.rate >= 0.0) and np.all(snapshot.rate <= 1.0 + 1e-15)
    target = compute_target(elec, snapshot.social_term, params.omega1)
    assert np.all(target >= 0.0) and np.all(target <= 1.0 + 1e-15)

    # nonincreasing in each agent's electricity availability
    raised_elec = np.minimum(elec + rng.uniform(0.0, 1.0, size=n), 1.0)
    assert np.all(compute_target(raised_elec, snapshot.social_term, params.omega1) <= target)

    # nondecreasing in any other agent's dissatisfaction
    agent = int(rng.integers(n))
    raised_d = d.copy()
    raised_d[agent] = min(1.0, raised_d[agent] + float(rng.uniform(0.0, 1.0)))
    raised_snapshot = contagion_snapshot(scenario.network, access, raised_d, params)
    assert np.all(compute_target(elec, raised_snapshot.social_term, params.omega1) >= target)


def check_absorbing_zero(scenario: Scenario, rng: np.random.Generator) -> None:
    """Requires zero cross-group weights and rate_floor = 0."""
    assert scenario.params.rate_floor == 0.0
    group = int(rng.integers(scenario.network.n_groups))
    members = scenario.network.members(group)
    d0 = scenario.initial_dissatisfaction.copy()
    d0[members] = 0.0
    result = simulate(rebuild(scenario, initial_dissatisfaction=d0))
    assert np.all(result.dissatisfaction[:, members] == 0.0)

from __future__ import annotations

import numpy as np
import pytest
from dataclasses import replace

from socio_grid_sim import (
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    ValidationError,
    compute_target,
    contagion_snapshot,
    simulate,
    step,
)

from oracles import reference_trajectory, rk4_scalar, same_bits
from property_checks import rebuild

TRIAD = ContagionNetwork.full_within_groups([0, 0, 0], 1.0)
THREE_GROUPS = ContagionNetwork.full_within_groups([0, 0, 0, 1, 1, 1, 2, 2, 2], 1.0)


def homogeneous_scenario(
    n: int = 3,
    electricity: float = 1.0,
    access: float = 1.0,
    d0: float = 0.5,
    horizon: float = 48.0,
    **param_overrides,
) -> Scenario:
    params = ModelParams(horizon_hours=horizon, **param_overrides)
    return Scenario(
        params=params,
        network=ContagionNetwork.full_within_groups([0] * n, 1.0),
        electricity=(PiecewiseSchedule.constant(electricity, horizon),) * n,
        media_access=(PiecewiseSchedule.constant(access, horizon),) * n,
        initial_dissatisfaction=np.full(n, d0),
        label="homogeneous",
    )


def social_term(network: ContagionNetwork, access, d, omega2: float = 0.5) -> np.ndarray:
    return contagion_snapshot(network, access, d, ModelParams(1.0, omega1=0.5, omega2=omega2)).social_term


class TestContagionWeights:
    """Media-access attenuation of the base weights, seen through the
    contagion term of :func:`contagion_snapshot`."""

    def test_identity_access(self):
        # Full access: omega2 times the mean of the agent's group neighbours,
        # and nothing from the other groups.
        d = np.linspace(0.1, 0.9, 9)
        term = social_term(THREE_GROUPS, np.ones(9), d)
        neighbours = [(d[THREE_GROUPS.members(g)].sum() - d[n]) / 2 for n, g in enumerate(THREE_GROUPS.group_of)]
        assert np.max(np.abs(term - 0.5 * np.array(neighbours))) <= 1e-15
        other_groups_moved = np.concatenate([d[:3], 1.0 - d[3:]])
        assert np.array_equal(social_term(THREE_GROUPS, np.ones(9), other_groups_moved)[:3], term[:3])

    def test_half_access_product(self):
        # gamma[n, m] = alpha[n, m] * I[n] * I[m]: both endpoints attenuate.
        access = np.array([1.0, 0.5, 0.25])
        d = np.array([0.2, 0.6, 1.0])
        term = social_term(TRIAD, access, d)
        expected = [0.5 * access[n] * sum(access[m] * d[m] for m in range(3) if m != n) / 2 for n in range(3)]
        assert np.max(np.abs(term - expected)) <= 1e-15

    def test_zero_access_severs_agent(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 2.0, size=(4, 4))
        np.fill_diagonal(weights, 0.0)
        net = ContagionNetwork(4, weights, np.zeros(4, dtype=int))
        access = np.array([1.0, 0.0, 0.7, 1.0])
        d = np.array([0.3, 0.9, 0.5, 0.1])
        term = social_term(net, access, d)
        assert term[1] == 0.0
        for moved in (0.0, 0.4, 1.0):
            assert np.array_equal(social_term(net, access, np.where(np.arange(4) == 1, moved, d)), term)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            social_term(TRIAD, np.ones(4), np.full(3, 0.5))


class TestSocialDiffusion:
    """The contagion pull g of :func:`contagion_snapshot`, normalized by the
    base row sums."""

    def test_full_access_homogeneous(self):
        assert np.all(social_term(TRIAD, np.ones(3), np.full(3, 0.5)) == 0.25)

    def test_half_access_homogeneous(self):
        assert np.all(social_term(TRIAD, np.full(3, 0.5), np.full(3, 0.5)) == 0.0625)

    def test_isolated_agent_empty_sum(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0  # agent 0 listens to 1; agent 2 is isolated
        net = ContagionNetwork(3, weights, np.zeros(3, dtype=int))
        g = social_term(net, np.ones(3), np.array([0.2, 0.8, 0.9]))
        assert g[2] == 0.0
        assert g[0] == pytest.approx(0.5 * 0.8)

    def test_reduces_to_weighted_mean_under_full_access(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.0, 3.0, size=(5, 5))
        np.fill_diagonal(weights, 0.0)
        net = ContagionNetwork(5, weights, np.zeros(5, dtype=int))
        d = rng.uniform(0.0, 1.0, size=5)
        g = social_term(net, np.ones(5), d, omega2=0.4)
        expected = 0.4 * (weights @ d) / weights.sum(axis=1)
        assert np.max(np.abs(g - expected)) <= 1e-15

    def test_huge_weights_match_unit_weights(self):
        # Row sums of 1e308 weights overflow to inf; the contagion term must
        # still give the unit-weight values instead of zeros.
        access = np.array([0.9, 0.6, 0.3])
        d = np.array([0.2, 0.5, 0.9])
        huge, unit = (
            social_term(ContagionNetwork.full_within_groups([0, 0, 0], weight), access, d) for weight in (1e308, 1.0)
        )
        assert np.max(np.abs(huge - unit)) <= 1e-9


class TestComputeTarget:
    def test_full_electricity_with_contagion(self):
        snapshot = contagion_snapshot(TRIAD, np.ones(3), np.full(3, 0.5), ModelParams(1.0))
        target = compute_target(np.ones(3), snapshot.social_term, 0.5)
        assert np.all(target == 0.25)

    def test_deprivation_only(self):
        target = compute_target(np.zeros(4), np.zeros(4), 0.5)
        assert np.all(target == 0.5)

    def test_stationary_when_weights_sum_to_one(self):
        for elec in (0.0, 0.25, 0.5, 0.75, 1.0):
            d = np.full(3, 1.0 - elec)
            snapshot = contagion_snapshot(TRIAD, np.ones(3), d, ModelParams(1.0))
            target = compute_target(np.full(3, elec), snapshot.social_term, 0.5)
            assert np.array_equal(target, d)


class TestStep:
    def test_hand_computed_full_access(self):
        params = ModelParams(horizon_hours=1.0, dt_hours=1.0)
        d = np.full(3, 0.5)
        snapshot = contagion_snapshot(TRIAD, np.ones(3), d, params)
        assert np.all(snapshot.rate == 0.5)
        target = compute_target(np.ones(3), snapshot.social_term, params.omega1)
        nxt = step(d, snapshot, target, 1.0)
        assert np.all(np.abs(nxt - 0.375) <= 1e-12)

    def test_hand_computed_half_access(self):
        params = ModelParams(horizon_hours=1.0, dt_hours=1.0)
        d = np.full(3, 0.5)
        snapshot = contagion_snapshot(TRIAD, np.full(3, 0.5), d, params)
        assert np.all(snapshot.rate == 0.125)
        target = compute_target(np.ones(3), snapshot.social_term, params.omega1)
        nxt = step(d, snapshot, target, 1.0)
        assert np.all(np.abs(nxt - 0.4453125) <= 1e-12)

    def test_zero_state_is_absorbing_without_floor(self):
        params = ModelParams(horizon_hours=1.0, dt_hours=1.0)
        d = np.zeros(3)
        for elec in (0.0, 0.5, 1.0):
            snapshot = contagion_snapshot(TRIAD, np.ones(3), d, params)
            target = compute_target(np.full(3, elec), snapshot.social_term, params.omega1)
            assert np.all(step(d, snapshot, target, 1.0) == 0.0)

    def test_rate_floor_breaks_absorbing_state(self):
        params = ModelParams(horizon_hours=1.0, dt_hours=1.0, rate_floor=0.1)
        d = np.zeros(3)
        snapshot = contagion_snapshot(TRIAD, np.ones(3), d, params)
        target = compute_target(np.zeros(3), snapshot.social_term, params.omega1)
        nxt = step(d, snapshot, target, 1.0)
        assert np.all(nxt == pytest.approx(0.1 * 0.5))

    def test_exact_fixed_point_stationarity(self):
        # Groups of 3 and 5 give power-of-two neighbor counts, so the
        # contagion average of a homogeneous state is exact in floating point.
        for size in (3, 5):
            net = ContagionNetwork.full_within_groups([0] * size, 1.0)
            params = ModelParams(horizon_hours=1.0, dt_hours=1.0)
            for elec in (0.0, 0.25, 0.5, 0.75, 1.0):
                d = np.full(size, 1.0 - elec)
                snapshot = contagion_snapshot(net, np.ones(size), d, params)
                target = compute_target(np.full(size, elec), snapshot.social_term, params.omega1)
                assert np.array_equal(step(d, snapshot, target, 1.0), d)


class TestSimulate:
    def test_case_study_mean_satisfaction_examples(self):
        from socio_grid_sim import builtin_case_study

        result = simulate(builtin_case_study("full_access"))
        s = result.global_mean_satisfaction()
        assert s[48] == pytest.approx(0.90, abs=0.05)

    def test_absorbing_fixed_point_at_zero(self):
        scenario = homogeneous_scenario(electricity=1.0, d0=0.0, horizon=10.0)
        result = simulate(scenario)
        assert np.all(result.dissatisfaction == 0.0)

    def test_converges_to_deprivation_fixed_point(self):
        scenario = homogeneous_scenario(electricity=0.5, d0=0.9, horizon=500.0)
        result = simulate(scenario)
        assert abs(result.dissatisfaction[-1, 0] - 0.5) <= 1e-3
        # Cross-check the trajectory against an RK4 solution of the
        # homogeneous-limit ODE: dD/dt = omega1 * D * (1 - E - D).
        for t_idx in (50, 200, 500):
            ode_value = rk4_scalar(lambda t, y: 0.5 * y * (0.5 - y), 0.9, float(t_idx))
            assert result.dissatisfaction[t_idx, 0] == pytest.approx(ode_value, abs=5e-3)

    def test_matches_reference_integrator(self):
        scenario = homogeneous_scenario(electricity=0.25, access=0.5, d0=0.7, horizon=12.0)
        times, expected = reference_trajectory(scenario)
        result = simulate(scenario)
        assert np.array_equal(result.times, times)
        assert np.max(np.abs(result.dissatisfaction - expected)) <= 1e-12

    def test_aggregates_recomputable_from_trajectories(self):
        from socio_grid_sim import aggregate_trajectory

        result = simulate(homogeneous_scenario(electricity=0.4, access=0.6, horizon=6.0))
        recomputed = np.concatenate(
            [
                aggregate_trajectory([t], result.dissatisfaction[idx][None], result.groups)
                for idx, t in enumerate(result.times)
            ],
            axis=1,
        )
        assert result.aggregates.shape == recomputed.shape == (4, result.n_times, 2)
        mean, low, high, std = result.aggregates
        assert np.max(np.abs(mean - recomputed[0])) <= 1e-12
        assert np.max(np.abs(std - recomputed[3])) <= 1e-12
        assert np.array_equal(low, recomputed[1])
        assert np.array_equal(high, recomputed[2])

    def test_records_hourly_with_default_params(self):
        result = simulate(homogeneous_scenario(horizon=48.0))
        assert result.n_times == 49
        assert result.times[0] == 0.0 and result.times[-1] == 48.0
        assert result.manifest["clamp_activations"] == 0

    def test_reporting_interval_respected(self):
        result = simulate(homogeneous_scenario(horizon=12.0, report_every_hours=3.0))
        assert np.array_equal(result.times, [0.0, 3.0, 6.0, 9.0, 12.0])

    def test_deterministic_rerun(self):
        scenario = homogeneous_scenario(electricity=0.3, access=0.8, horizon=24.0)
        a = simulate(scenario)
        b = simulate(scenario)
        assert same_bits(a.dissatisfaction, b.dissatisfaction)
        assert a.manifest == b.manifest

    def test_huge_weights_keep_contagion(self):
        # Row sums of 1e308 weights overflow to inf; the run must still match
        # the unit-weight run instead of freezing with contagion switched off.
        horizon = 24.0
        groups = [0, 0, 0, 0, 1, 1, 1]
        electricity = PiecewiseSchedule(((0.0, 1.0), (6.0, 0.4), (12.0, 1.0)), horizon)

        def run(weight: float):
            return simulate(
                Scenario(
                    params=ModelParams(horizon_hours=horizon, rate_floor=0.01),
                    network=ContagionNetwork.full_within_groups(groups, weight),
                    electricity=(electricity,) * 7,
                    media_access=tuple(PiecewiseSchedule.constant(a, horizon) for a in np.linspace(0.4, 1.0, 7)),
                    initial_dissatisfaction=np.linspace(0.1, 0.9, 7),
                    label="overflow",
                )
            )

        huge = run(1e308)
        unit = run(1.0)
        with np.errstate(over="ignore"):
            assert np.isinf(ContagionNetwork.full_within_groups(groups, 1e308).base_weights.sum(axis=1)).all()
        assert np.max(np.abs(huge.dissatisfaction - unit.dissatisfaction)) <= 1e-9
        assert huge.manifest["clamp_activations"] == 0

    def test_equal_schedules_sampled_once(self, monkeypatch):
        calls = []
        original = PiecewiseSchedule.sample

        def counting(self, dt, n_steps):
            calls.append(self)
            return original(self, dt, n_steps)

        monkeypatch.setattr(PiecewiseSchedule, "sample", counting)
        horizon = 6.0
        # Distinct but equal objects, as a per_agent schedule block builds them.
        scenario = Scenario(
            params=ModelParams(horizon_hours=horizon),
            network=ContagionNetwork.full_within_groups([0, 0, 0, 1, 1, 1], 1.0),
            electricity=tuple(PiecewiseSchedule(((0.0, 1.0), (2.0, 0.5)), horizon) for _ in range(6)),
            media_access=tuple(PiecewiseSchedule.constant(0.5 + 0.5 * (n % 2), horizon) for n in range(6)),
            initial_dissatisfaction=np.full(6, 0.5),
        )
        simulate(scenario)
        assert len(calls) == 3

    def test_sampled_grid_is_c_contiguous_columns(self):
        # The (steps, K) table of distinct columns and each agent's pick into
        # it. Picking every agent's column gives the column_stack of every
        # agent's samples; the table is row-major so that each step's row is
        # contiguous.
        from socio_grid_sim.dynamics import _sample_schedules

        horizon = 6.0
        a = PiecewiseSchedule(((0.0, 1.0), (2.0, 0.5)), horizon)
        b = PiecewiseSchedule(((0.0, 0.25), (0.35, 0.75)), horizon)
        # Equal objects share a column, and -0.0 is told apart from 0.0 in either order.
        signed, unsigned = PiecewiseSchedule.constant(-0.0, horizon), PiecewiseSchedule.constant(0.0, horizon)
        for zeros, order in (((signed, unsigned), [2, 3]), ((unsigned, signed), [3, 2])):
            schedules = (a, b, a, PiecewiseSchedule(a.breakpoints, horizon), *zeros, b, a, signed, unsigned)
            table, picks = _sample_schedules(schedules, 0.1, 60)
            assert table.shape == (60, 4)
            assert table.flags.c_contiguous
            assert picks.dtype == np.intp and picks.tolist() == [0, 1, 0, 0, 2, 3, 1, 0, *order]
            assert same_bits(table.take(picks, axis=1), np.column_stack([s.sample(0.1, 60) for s in schedules]))

    def test_peak_memory_below_one_agent_grid(self):
        # 3000 agents in 12 groups with 12 distinct schedules per set: the
        # kernel reads (steps, 12) tables through per-agent picks, so the
        # whole call stays below a single (steps, N) float64 grid.
        import tracemalloc

        n, horizon = 3000, 48.0
        params = ModelParams(horizon_hours=horizon, dt_hours=0.1)
        groups = np.arange(n) % 12
        electricity = [PiecewiseSchedule(((0.0, 1.0), (1.0 + k, 0.2 + 0.05 * k)), horizon) for k in range(12)]
        access = [PiecewiseSchedule(((0.0, 0.3 + 0.05 * k), (30.0 - k, 1.0)), horizon) for k in range(12)]
        scenario = Scenario(
            params=params,
            network=ContagionNetwork.full_within_groups(groups, 1.0),
            electricity=tuple(electricity[g] for g in groups),
            media_access=tuple(access[5 * g % 12] for g in groups),
            initial_dissatisfaction=np.linspace(0.0, 1.0, n),
        )
        simulate(scenario)
        tracemalloc.start()
        try:
            simulate(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.n_steps * n * np.dtype(float).itemsize

    def test_step_chain_reproduces_simulate(self):
        # contagion_snapshot -> compute_target -> step is one step of the
        # kernel behind simulate, so chaining it over a run is bit-identical.
        from socio_grid_sim import builtin_case_study

        from oracles import random_scenario

        rng = np.random.default_rng(8)
        scenarios = [builtin_case_study("full_access"), builtin_case_study("limited_access")]
        scenarios += [random_scenario(rng, max_horizon=48.0, rate_floor=floor) for floor in [0.0] * 10 + [0.05] * 10]
        scenarios.append(replace_params(random_scenario(rng, max_horizon=48.0, rate_floor=0.05), omega2=0.0))
        # -0.0 and 0.0 access interleaved, from -0.0 states at a zero floor:
        # each agent keeps its own zero's sign, whichever spelling comes first.
        # Group 1 is a singleton, on a group block and on a dense matrix.
        dense = ContagionNetwork(4, [[0.0, 1.0, 0.5, 0.0], [2.0, 0.0, 0.0, 0.0], [0.25, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0]], [0, 0, 0, 1])
        for zeros in ((-0.0, 0.0, -0.0, 0.0), (0.0, -0.0, -0.0, 0.0)):
            for network in (ContagionNetwork.full_within_groups([0, 0, 0, 1], 1.0), dense):
                scenarios.append(
                    Scenario(
                        params=ModelParams(horizon_hours=4.0),
                        network=network,
                        electricity=(PiecewiseSchedule.constant(1.0, 4.0),) * 4,
                        media_access=tuple(PiecewiseSchedule.constant(z, 4.0) for z in zeros),
                        initial_dissatisfaction=np.full(4, -0.0),
                    )
                )
        for scenario in scenarios:
            params = scenario.params
            electricity, access = (
                np.column_stack([s.sample(params.dt_hours, params.n_steps) for s in schedules])
                for schedules in (scenario.electricity, scenario.media_access)
            )
            d = scenario.initial_dissatisfaction
            chained = [d]
            for k in range(params.n_steps):
                snapshot = contagion_snapshot(scenario.network, access[k], d, params)
                target = compute_target(electricity[k], snapshot.social_term, params.omega1)
                d = step(d, snapshot, target, params.dt_hours)
                if (k + 1) % params.steps_per_report == 0:
                    chained.append(d)
            assert same_bits(np.array(chained), simulate(scenario).dissatisfaction)

    def test_euler_consistency_dt_halving(self):
        scenario = homogeneous_scenario(electricity=0.25, d0=0.8, horizon=24.0)
        coarse = simulate(scenario)
        halved = simulate(replace_params(scenario, dt_hours=0.05))
        assert np.max(np.abs(coarse.dissatisfaction - halved.dissatisfaction)) < 5e-3


class TestGroupLayout:
    # The network works out its group order once; the kernel and the
    # aggregates read it, and no caller can write into it.
    @pytest.mark.parametrize("dense", [False, True])
    def test_layout_arrays_cannot_be_written(self, dense):
        groups = [2, 0, 1, 0, 2, 1, 1, 0, 2]
        network = ContagionNetwork.full_within_groups(groups, 1.0)
        if dense:
            network = ContagionNetwork(9, network.base_weights * np.linspace(0.5, 1.5, 9), groups)
        scenario = replace(homogeneous_scenario(n=9, horizon=4.0), network=network,
                           initial_dissatisfaction=np.linspace(0.1, 0.9, 9))
        before = simulate(scenario)
        for array in (network.members(0), network.members(9), network.group_sizes):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        after = simulate(scenario)
        assert same_bits(before.dissatisfaction, after.dissatisfaction)
        assert same_bits(before.aggregates, after.aggregates)

    def test_simulate_block_derives_the_layout_once(self, monkeypatch):
        from socio_grid_sim import builtin_case_study, core_types
        from socio_grid_sim.dynamics import _simulate_block

        scenarios = [builtin_case_study("full_access"), builtin_case_study("limited_access")]
        calls = []

        def spy(groups, _real=core_types._group_layout):
            calls.append(groups.size)
            return _real(groups)

        monkeypatch.setattr(core_types, "_group_layout", spy)
        _simulate_block(scenarios)
        assert calls == [9]


class TestGroupBlockOperator:
    """The O(N) group-block operator against the dense product and the
    plain-loop reference."""

    def test_matches_dense_operator(self):
        from socio_grid_sim.core_types import Dense, GroupBlock

        from oracles import random_scenario

        rng = np.random.default_rng(31)
        for idx in range(30):
            scenario = random_scenario(rng, max_horizon=24.0, cross_group_weights=False, rate_floor=0.05)
            weight = 1e308 if idx % 10 == 0 else float(rng.uniform(0.1, 3.0))
            block = ContagionNetwork.full_within_groups(scenario.network.group_of, weight)
            dense = ContagionNetwork.__new__(ContagionNetwork)
            dense._assign(block.group_of, Dense(block.base_weights))
            runs = [simulate(rebuild(scenario, network=net)) for net in (block, dense)]
            assert isinstance(block.operator, GroupBlock)
            assert np.max(np.abs(runs[0].dissatisfaction - runs[1].dissatisfaction)) <= 1e-12

    @pytest.mark.parametrize("weight, groups", [(0.0, [0, 0, 1, 1, 1]), (-0.0, [0, 0, 1]), (1.0, [0, 1, 2, 3])])
    def test_zero_weight_and_singletons_give_no_contagion(self, weight, groups):
        n = len(groups)
        horizon = 6.0
        scenario = Scenario(
            params=ModelParams(horizon_hours=horizon, rate_floor=0.1),
            network=ContagionNetwork.full_within_groups(groups, weight),
            electricity=(PiecewiseSchedule(((0.0, 1.0), (2.0, 0.3)), horizon),) * n,
            media_access=tuple(PiecewiseSchedule.constant(a, horizon) for a in np.linspace(0.5, 1.0, n)),
            initial_dissatisfaction=np.linspace(0.1, 0.9, n),
        )
        snapshot = contagion_snapshot(scenario.network, np.full(n, 0.7), np.linspace(0.2, 1.0, n), scenario.params)
        assert np.all(snapshot.social_term == 0.0) and np.all(snapshot.rate == 0.1)
        _, expected = reference_trajectory(scenario)
        assert np.max(np.abs(simulate(scenario).dissatisfaction - expected)) <= 1e-12

    def test_large_shorthand_run_builds_no_matrix(self, tmp_path):
        # 3000 agents: a dense N x N matrix alone would take 72 MB.
        import json
        import tracemalloc

        from socio_grid_sim import load_scenario

        rng = np.random.default_rng(5)
        n = 3000
        doc = {
            "schema_version": 1,
            "label": "wide",
            "params": {"horizon_hours": 4.0},
            "agents": {
                "count": n,
                "groups": rng.permutation(np.repeat(np.arange(12), n // 12)).tolist(),
                "initial_dissatisfaction": rng.uniform(0.2, 0.8, n).tolist(),
            },
            "network": {"full_within_groups": {"weight": 1.0}},
            "schedules": {
                "electricity": {"broadcast": [[0.0, 1.0], [1.0, 0.5]]},
                "media_access": {"broadcast": [[0.0, 0.8]]},
            },
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        # 1500 scattered pairs: the digest of a group block hashes its
        # weight's bits and the group ids, never a row of the matrix.
        pairs = ContagionNetwork.full_within_groups(rng.permutation(np.arange(n) // 2), 1.0)
        tracemalloc.start()
        try:
            scenario = load_scenario(path)
            result = simulate(scenario)
            pairs_digest = rebuild(scenario, network=pairs).content_digest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.manifest["clamp_activations"] == 0
        assert pairs_digest != result.manifest["scenario_digest"]
        assert peak < 16 * 2**20


def replace_params(scenario: Scenario, **overrides) -> Scenario:
    return Scenario(
        params=replace(scenario.params, **overrides),
        network=scenario.network,
        electricity=scenario.electricity,
        media_access=scenario.media_access,
        initial_dissatisfaction=scenario.initial_dissatisfaction,
        label=scenario.label,
    )


def batched_blocks():
    """Kernel blocks drawn from fixed seeds, as (network, shared, block) with
    ``block`` the arguments of ``_euler`` after the network.

    For each of 20 random scenarios: its own network and a group block on its
    groups, each with fresh inputs, where every (row, agent) has its own
    initial state, and shared ones, which draw a few picks and initial states
    (0.0 and -0.0 among them), so a group block's rows collapse to a few
    classes of interchangeable agents. Access picks are shared by every row
    and out of agent order; pull picks are per row.
    """
    from socio_grid_sim.dynamics import _sample_schedules

    from oracles import random_scenario

    rng = np.random.default_rng(21)
    shared_rng = np.random.default_rng(22)
    for _ in range(20):
        scenario = random_scenario(rng, max_agents=40, max_horizon=24.0, rate_floor=0.02)
        params = scenario.params
        n = scenario.n_agents
        block_net = ContagionNetwork.full_within_groups(scenario.network.group_of, float(rng.uniform(0.5, 2.0)))
        table, _ = _sample_schedules(scenario.media_access, params.dt_hours, params.n_steps)
        # Extra access columns and a random pick, shared and out of agent order.
        access = np.hstack([table, rng.uniform(0.0, 1.0, size=(params.n_steps, n))])
        access_index = rng.integers(0, access.shape[1], size=(1, n))
        pull = params.omega1 * (1.0 - rng.uniform(0.0, 1.0, size=(params.n_steps, 3 * n)))
        index = rng.integers(0, 3 * n, size=(int(rng.integers(8, 60)), n))
        d0 = rng.uniform(0.0, 1.0, size=index.shape)
        fresh = access_index, index, d0

        def by_group(values, rows):
            # One draw per (row, group) for all its members, then about one
            # member in ten drawn again.
            groups = scenario.network.group_of
            out = shared_rng.choice(values, size=(rows, groups.max() + 1))[:, groups]
            again = shared_rng.uniform(size=out.shape) < 0.1
            out[again] = shared_rng.choice(values, size=int(again.sum()))
            return out

        n_rows = index.shape[0]
        shared = by_group([0, 1], 1), by_group([0, 1, 2], n_rows), by_group([0.0, -0.0, 0.25], n_rows)
        for network in (scenario.network, block_net):
            for picks in (fresh, shared):
                access_index, index, d0 = picks
                yield network, picks is shared, (access, access_index, pull, index, d0, params)


def clamped_block():
    """A 4-row block on 6 agents in 2 groups whose rows 1 and 2 leave [0, 1]:
    pull columns 2 and 3 lie above 1. Returns (groups, block) with ``block``
    the arguments of ``_euler`` after the network."""
    params = ModelParams(horizon_hours=6.0, dt_hours=0.5, rate_floor=0.4, report_every_hours=1.0)
    groups = [0, 1, 0, 1, 1, 0]
    n = len(groups)
    steps = np.arange(params.n_steps)[:, None]
    access = np.hstack([np.full((params.n_steps, 1), 0.8), 0.5 + 0.04 * steps])
    pull = np.hstack([np.full((params.n_steps, 1), 0.2), 0.45 - 0.03 * steps, 1.5 + 0.1 * steps,
                      np.full((params.n_steps, 1), 2.5)])
    access_index = np.array([[0, 1, 0, 1, 0, 0]])
    index = np.array([[0, 1, 0, 1, 1, 0], [2, 1, 2, 1, 1, 2], [3, 3, 2, 0, 1, 2], [0, 0, 0, 0, 0, 0]])
    d0 = np.array([[0.5] * n, [0.5] * n, [0.9, 0.9, 0.1, 0.1, 0.9, 0.1], [0.3] * n])
    return groups, (access, access_index, pull, index, d0, params)


def block_states(network, access_index, index, d0) -> int:
    """The kernel states of a block, counted by plain Python, apart from the kernel.

    A dense network keeps one state per (row, agent). On a group block a
    (row, group) bin is the tuple of its members' (access pick, pull pick,
    initial bits) in agent order; equal tuples are one bin class, and the
    agents of a class with one key are one state.
    """
    from socio_grid_sim.core_types import GroupBlock

    if not isinstance(network.operator, GroupBlock):
        return index.size
    groups = network.group_of.tolist()
    access_index = np.broadcast_to(access_index, index.shape)
    states = set()
    for row in range(index.shape[0]):
        keys = [(int(access_index[row, a]), int(index[row, a]), d0[row, a].tobytes()) for a in range(len(groups))]
        for group in set(groups):
            members = tuple(key for key, g in zip(keys, groups) if g == group)
            states.update((members, key) for key in members)
    return len(states)


class TestBatchedKernel:
    def test_rows_match_single_runs_for_any_block(self):
        # Both operators: the dense (B, N, 1) matrix-vector stack and the
        # group block's one bincount per step. Each row of a block of 7 and
        # of the whole block, read through access and pull picks, must equal
        # its own run as a block of one on the gathered grids, where every
        # agent has a pick of its own (:func:`batched_blocks`).
        from socio_grid_sim.core_types import GroupBlock
        from socio_grid_sim.dynamics import _euler

        collapsed = []
        for network, shared, (access, access_index, pull, index, d0, params) in batched_blocks():
            n = network.n_agents
            identity = np.arange(n)[None]
            # Each row alone, on its own gathered (steps, N) grids read in agent order.
            singles = [
                _euler(network, access[:, access_index[0]], identity,
                       pull[:, index[row]], identity, d0[row : row + 1], params)[0][0]
                for row in range(index.shape[0])
            ]
            for size in (7, index.shape[0]):
                states = expected_states = 0
                for start in range(0, index.shape[0], size):
                    rows = slice(start, start + size)
                    block, hits, count = _euler(network, access, access_index, pull, index[rows], d0[rows], params)
                    states += count
                    expected_states += block_states(network, access_index, index[rows], d0[rows])
                    assert hits.tolist() == [0] * block.shape[0]
                    for offset, single in enumerate(singles[rows]):
                        assert same_bits(block[offset], single)
                assert states == expected_states
            if shared and isinstance(network.operator, GroupBlock):
                collapsed.append((expected_states, index.size))
        # The shared inputs ran on far fewer states than agents, although
        # these groups hold only one to five agents each.
        states, agents = np.sum(collapsed, axis=0)
        assert states <= 0.6 * agents

    def test_clamp_is_counted_per_row(self):
        # Each row's clamp count and clipped trajectory must equal its own
        # run, where every agent is a state of its own: a row counts a step
        # once, however many classes it clips.
        from socio_grid_sim.dynamics import _euler

        groups, (access, access_index, pull, index, d0, params) = clamped_block()
        n = len(groups)
        identity = np.arange(n)[None]
        for network in (ContagionNetwork.full_within_groups(groups, 1.0), ContagionNetwork(n, 1.0 - np.eye(n), groups)):
            block, hits, _ = _euler(network, access, access_index, pull, index, d0, params)
            for row in range(4):
                single, single_hits, states = _euler(
                    network, access[:, access_index[0]], identity,
                    pull[:, index[row]], identity, d0[row : row + 1], params,
                )
                assert states == n
                assert hits[row] == single_hits[0]
                assert same_bits(block[row], single[0])
            assert hits[0] == hits[3] == 0 and hits[1] > 0 and hits[2] > 0
            assert np.all(block[1:3, -1][index[1:3] >= 2] == 1.0)
            assert hits.max() <= params.n_steps


class TestExecutors:
    # _euler advances a small group block on Python floats and any other
    # block on numpy vectors. Each executor runs here directly, on _euler's
    # own set-up, and the two must agree in bits, clamp counts and states.
    @staticmethod
    def _assert_executors_agree(network, access, access_index, pull, index, d0, params):
        from socio_grid_sim.dynamics import _classes, _euler_arrays, _euler_floats, _picked_rows

        runs = []
        for executor in (_euler_floats, _euler_arrays):
            operator, state_access, state_pull, d, expand = _classes(network, access_index, index, d0)
            recorded = np.empty((d0.shape[0], params.n_steps // params.steps_per_report + 1, d0.shape[1]))
            recorded[:, 0] = d0
            hits = np.zeros(d0.shape[0], dtype=int)
            executor(operator, _picked_rows(access, state_access), _picked_rows(pull, state_pull),
                     d, expand, recorded, hits, params)
            runs.append((recorded, hits.tolist(), d.size))
        (floats, float_hits, float_states), (arrays, array_hits, array_states) = runs
        assert same_bits(floats, arrays)
        assert float_hits == array_hits and float_states == array_states
        return floats, float_hits

    def test_batched_blocks(self):
        from socio_grid_sim.core_types import GroupBlock

        for network, _, block in batched_blocks():
            if isinstance(network.operator, GroupBlock):
                self._assert_executors_agree(network, *block)

    def test_clamped_rows(self):
        groups, (access, access_index, pull, index, d0, params) = clamped_block()
        network = ContagionNetwork.full_within_groups(groups, 1.0)
        _, hits = self._assert_executors_agree(network, access, access_index, pull, index, d0, params)
        assert hits[0] == hits[3] == 0 and hits[1] > 0 and hits[2] > 0
        for row in range(4):
            rows = slice(row, row + 1)
            self._assert_executors_agree(network, access, access_index, pull, index[rows], d0[rows], params)

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    @pytest.mark.parametrize("omega2, rate_floor", [(0.5, 0.0), (0.5, 0.05), (0.0, 0.0), (0.0, 0.05)])
    def test_signed_zeros_and_singletons(self, omega2, rate_floor, weight):
        # -0.0 access and initial states, and group 1 a singleton (inv = 0),
        # as every group is under a zero weight.
        params = ModelParams(horizon_hours=3.0, omega1=0.4, omega2=omega2, rate_floor=rate_floor,
                             report_every_hours=0.5)
        network = ContagionNetwork.full_within_groups([0, 0, 1, 2, 2, 2], weight)
        steps = np.arange(params.n_steps)[:, None]
        access = np.hstack([np.full_like(steps, -0.0, dtype=float), np.zeros_like(steps, dtype=float),
                            1.0 - 0.02 * steps, np.full_like(steps, 0.5, dtype=float)])
        pull = np.hstack([np.zeros_like(steps, dtype=float), 0.3 + 0.01 * steps, np.full_like(steps, 0.4, dtype=float)])
        access_index = np.array([[0, 1, 0, 2, 3, 0]])
        index = np.array([[0, 0, 1, 2, 0, 1], [2, 2, 0, 1, 1, 0]])
        d0 = np.array([[-0.0, 0.0, -0.0, 0.5, -0.0, 0.2], [0.0, -0.0, 0.7, -0.0, 0.0, 0.0]])
        floats, _ = self._assert_executors_agree(network, access, access_index, pull, index, d0, params)
        if omega2 > 0.0 and rate_floor == 0.0:
            # Its rate is then -0.0, so an agent with -0.0 access and state
            # keeps its -0.0 to the end.
            assert np.signbit(floats[0, -1, 0]) and floats[0, -1, 0] == 0.0

    def test_dispatch(self, monkeypatch):
        # The case-study block runs on floats: in each variant the 3 areas
        # share their schedules and initial state, so the 2 rows are 2 states
        # spread over 18 (row, agent) pairs. A block of 3000 agents in 12
        # classes and a dense block, however small, run on numpy.
        from socio_grid_sim import builtin_case_study, dynamics

        ran = []
        for name in ("_euler_floats", "_euler_arrays"):
            def spy(*args, _real=getattr(dynamics, name), _name=name):
                ran.append((_name, args[3].size, args[4].size))
                return _real(*args)

            monkeypatch.setattr(dynamics, name, spy)

        dynamics._simulate_block([builtin_case_study("full_access"), builtin_case_study("limited_access")])
        assert ran == [("_euler_floats", 2, 18)]

        # Shaped like the benchmark's 3000-agent society: 12 groups of 250
        # scattered over the ids, one schedule and initial state per group.
        rng = np.random.default_rng(3)
        groups = rng.permutation(np.repeat(np.arange(12), 250))
        horizon = 2.0
        electricity = [PiecewiseSchedule(((0.0, 1.0), (1.0, float(v))), horizon) for v in rng.uniform(0.3, 1.0, 12)]
        access = [PiecewiseSchedule.constant(float(v), horizon) for v in rng.uniform(0.5, 1.0, 12)]
        simulate(Scenario(
            params=ModelParams(horizon_hours=horizon),
            network=ContagionNetwork.full_within_groups(groups, 1.0),
            electricity=tuple(electricity[g] for g in groups),
            media_access=tuple(access[g] for g in groups),
            initial_dissatisfaction=rng.uniform(0.2, 0.8, 12)[groups],
        ))
        weights = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
        simulate(replace(homogeneous_scenario(horizon=2.0), network=ContagionNetwork(3, weights, [0, 0, 0])))
        assert ran[1:] == [("_euler_arrays", 12, 3000), ("_euler_arrays", 3, 3)]


class TestInterchangeableGroups:
    # Bins of a group block with the same size and the same member keys in
    # agent order advance as one. The oracle needs no merge: each group's
    # columns must equal its columns in a one-row run where every agent of
    # every other group has an initial state of its own, so that no bin can
    # match another.
    PARAMS = dict(horizon_hours=6.0, omega1=0.4, omega2=0.5, report_every_hours=1.0)

    @staticmethod
    def _tables(params):
        steps = np.arange(params.n_steps, dtype=float)[:, None]
        access = np.hstack([np.full_like(steps, -0.0), np.zeros_like(steps), 1.0 - 0.005 * steps, 0.6 + 0.003 * steps])
        pull = np.hstack([np.zeros_like(steps), 0.1 + 0.002 * steps, np.full_like(steps, 0.3)])
        return access, pull

    @pytest.mark.parametrize(
        "groups, weight, rate_floor, access_index, index, d0, states",
        [
            # Groups 0 and 2 hold (0.2, 0.5, 0.9) in agent order, interleaved
            # over the ids, and merge: 3 states. Group 1 holds the same
            # members as (0.2, 0.9, 0.5), another summation order: 3 more.
            ([0, 1, 2, 0, 1, 2, 0, 1, 2], 1.0, 0.05, [2] * 9, [[1] * 9],
             [[0.2, 0.2, 0.2, 0.5, 0.9, 0.5, 0.9, 0.5, 0.9]], 6),
            # Singletons: 5 bins of one agent and 3 distinct keys.
            ([0, 1, 2, 3, 4], 1.0, 0.05, [2, 2, 2, 3, 2], [[1] * 5], [[0.3, 0.3, 0.6, 0.3, 0.6]], 3),
            # -0.0 access (column 0) against 0.0 (column 1), and -0.0 initial
            # states against 0.0: only groups 0 and 3 are equal, so 4 bins
            # of 2 distinct keys are 3 classes and 6 states.
            ([0, 0, 1, 1, 2, 2, 3, 3], 1.0, 0.0, [0, 2, 1, 2, 0, 2, 0, 2], [[0] * 8],
             [[-0.0, 0.4, -0.0, 0.4, 0.0, 0.4, -0.0, 0.4]], 6),
            # A zero weight: groups 0 and 1 merge (2 states), the singleton is 1.
            ([0, 0, 1, 1, 2], 0.0, 0.05, [2, 3, 2, 3, 2], [[1] * 5], [[0.2, 0.7, 0.2, 0.7, 0.2]], 3),
            # Three rows: rows 0 and 2 are equal, and row 1 gives group 0 other
            # pull columns. Group 0 of rows 0 and 2 is one class (2 states),
            # group 1 of all three rows another (3), group 0 of row 1 a third (2).
            ([0, 0, 1, 1, 1], 1.0, 0.05, [2, 3, 2, 3, 2], [[1] * 5, [2, 2, 1, 1, 1], [1] * 5],
             [[0.2, 0.7, 0.2, 0.7, 0.4]] * 3, 7),
        ],
    )
    def test_merged_groups_match_unmerged_runs(self, groups, weight, rate_floor, access_index, index, d0, states):
        from socio_grid_sim.dynamics import _euler

        params = ModelParams(rate_floor=rate_floor, **self.PARAMS)
        access, pull = self._tables(params)
        network = ContagionNetwork.full_within_groups(groups, weight)
        access_index, index, d0 = np.array([access_index]), np.array(index), np.array(d0)
        recorded, hits, count = _euler(network, access, access_index, pull, index, d0, params)
        assert count == states == block_states(network, access_index, index, d0)
        assert hits.tolist() == [0] * index.shape[0]
        for row in range(index.shape[0]):
            for group in range(network.n_groups):
                own = network.group_of == group
                apart = d0[row].copy()
                apart[~own] = [v for v in np.linspace(0.05, 0.95, 3 * apart.size) if v not in apart[own]][: (~own).sum()]
                rows = index[row : row + 1]
                single, _, single_states = _euler(network, access, access_index, pull, rows, apart[None], params)
                # Every agent outside the group is a state of its own.
                keys = {(access_index[0, a], index[row, a], apart[a].tobytes()) for a in np.flatnonzero(own)}
                assert single_states == (~own).sum() + len(keys)
                assert same_bits(recorded[row][:, own], single[0][:, own])
        TestExecutors._assert_executors_agree(network, access, access_index, pull, index, d0, params)


class TestSimulateBlock:
    # Scenarios on one network and one parameter set advance as one (B, N)
    # kernel block; each result must equal the scenario's own run.
    @staticmethod
    def _assert_rows_match(scenarios):
        from socio_grid_sim.dynamics import _simulate_block

        for block, scenario in zip(_simulate_block(scenarios), scenarios, strict=True):
            single = simulate(scenario)
            assert same_bits(block.times, single.times)
            assert same_bits(block.dissatisfaction, single.dissatisfaction)
            assert same_bits(block.aggregates, single.aggregates)
            assert block.manifest == single.manifest

    def test_case_study_variants(self):
        from socio_grid_sim import builtin_case_study

        self._assert_rows_match([builtin_case_study("full_access"), builtin_case_study("limited_access")])

    def test_group_block_with_signed_zeros(self):
        # At rate_floor 0 an agent's zeros keep the sign its own access and
        # initial state give it, so each row must run on its own spellings.
        horizon = 4.0
        groups = [0, 0, 0, 1, 1]
        params = ModelParams(horizon_hours=horizon, omega1=0.0, omega2=0.5, rate_floor=0.0)
        network = ContagionNetwork.full_within_groups(groups, 1.0)

        def scenario(access, d0, label):
            return Scenario(
                params=params,
                network=network,
                electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 5,
                media_access=tuple(PiecewiseSchedule.constant(a, horizon) for a in access),
                initial_dissatisfaction=np.array(d0),
                label=label,
            )

        a = scenario([-0.0, 0.0, -0.0, 1.0, 0.5], [-0.0, -0.0, -0.0, 0.2, 0.9], "a")
        b = scenario([0.0, -0.0, 0.0, 0.5, 0.5], [0.0, -0.0, 0.0, 0.7, 0.1], "b")
        c = scenario([-0.0, -0.0, 0.0, 1.0, 1.0], [-0.0, 0.0, -0.0, 0.2, 0.9], "c")
        # Group 0 ends at -0, 0, -0 in a; 0, -0, 0 in b; -0, 0, 0 in c.
        zeros = [simulate(s).dissatisfaction[:, :3] for s in (a, b, c)]
        assert not same_bits(zeros[0], zeros[1]) and not same_bits(zeros[0], zeros[2])
        self._assert_rows_match([a, b, c])
        self._assert_rows_match([c, a, a, b])

    def test_dense_network(self):
        from oracles import random_scenario

        rng = np.random.default_rng(31)
        base = random_scenario(rng, max_agents=12, max_horizon=12.0, rate_floor=0.02)
        n = base.n_agents
        weights = rng.uniform(0.0, 2.0, size=(n, n))
        np.fill_diagonal(weights, 0.0)
        network = ContagionNetwork(n, weights, base.network.group_of)
        scenarios = [
            replace(base, network=network, initial_dissatisfaction=rng.uniform(size=n), label=f"row{row}")
            for row in range(3)
        ]
        scenarios.append(replace(scenarios[0], media_access=scenarios[0].media_access[::-1]))
        self._assert_rows_match(scenarios)

    @pytest.mark.parametrize("field, value", [("omega2", 0.25), ("rate_floor", -0.0), ("dt_hours", 0.05)])
    def test_mismatched_params_raise(self, field, value):
        from socio_grid_sim.dynamics import _simulate_block

        base = homogeneous_scenario(horizon=2.0)
        other = replace(base, params=replace(base.params, **{field: value}))
        if field == "rate_floor":
            assert other.params == base.params  # equal values, other bits
        with pytest.raises(ValueError, match="parameter set"):
            _simulate_block([base, other])

    def test_mismatched_network_raises(self):
        # Another weight, and a dense matrix that spells the group block but
        # keeps a -0.0 among its zeros and so rounds differently.
        from socio_grid_sim.dynamics import _simulate_block

        base = replace(homogeneous_scenario(n=4, horizon=2.0), network=ContagionNetwork.full_within_groups([0, 0, 1, 1]))
        weights = np.array(base.network.base_weights)
        weights[0, 2] = -0.0
        signed = ContagionNetwork(4, weights, [0, 0, 1, 1])
        assert signed != base.network
        for network in (ContagionNetwork.full_within_groups([0, 0, 1, 1], 2.0), signed):
            with pytest.raises(ValueError, match="network"):
                _simulate_block([base, replace(base, network=network)])

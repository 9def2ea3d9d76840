from __future__ import annotations

import hashlib
import itertools
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socio_grid_sim import (
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    SimulationResult,
    ValidationError,
    aggregate_trajectory,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
)
from socio_grid_sim.core_types import Dense, GroupBlock


class TestPiecewiseSchedule:
    def test_shedding_window_lookup(self):
        sched = PiecewiseSchedule(((0.0, 0.0), (17.0, 0.5), (34.0, 0.0)), 48.0)
        assert sched.value_at(20.0) == 0.5

    def test_single_segment_identity(self):
        sched = PiecewiseSchedule(((0.0, 1.0),), 48.0)
        assert sched.value_at(0.0) == 1.0
        assert sched.value_at(5.0) == 1.0

    def test_left_closed_boundary(self):
        sched = PiecewiseSchedule(((0.0, 0.0), (17.0, 0.5), (34.0, 0.0)), 48.0)
        assert sched.value_at(17.0) == 0.5
        assert sched.value_at(16.999) == 0.0
        assert sched.value_at(34.0) == 0.0

    def test_out_of_range_lookup(self):
        sched = PiecewiseSchedule(((0.0, 1.0),), 48.0)
        with pytest.raises(ValueError, match="outside"):
            sched.value_at(48.0)
        with pytest.raises(ValueError, match="outside"):
            sched.value_at(-0.1)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValidationError, match="start at hour 0"):
            PiecewiseSchedule(((1.0, 0.5),), 10.0)
        with pytest.raises(ValidationError, match="exceed the previous"):
            PiecewiseSchedule(((0.0, 0.5), (5.0, 0.2), (5.0, 0.3)), 10.0)
        with pytest.raises(ValidationError, match=r"value must be in \[0, 1\]"):
            PiecewiseSchedule(((0.0, 1.5),), 10.0)
        with pytest.raises(ValidationError, match="inside"):
            PiecewiseSchedule(((0.0, 0.5), (10.0, 0.2)), 10.0)
        with pytest.raises(ValidationError, match="horizon_hours"):
            PiecewiseSchedule(((0.0, 0.5),), 0.0)

    @pytest.mark.parametrize("bad", ["4", "x", True, None])
    def test_rejects_non_numeric_fields_without_coercion(self, bad):
        with pytest.raises(ValidationError, match="horizon_hours"):
            PiecewiseSchedule(((0.0, 0.5),), bad)
        with pytest.raises(ValidationError, match=r"breakpoints\[1\]\.start_hour"):
            PiecewiseSchedule(((0.0, 0.5), (bad, 0.5)), 10.0)
        with pytest.raises(ValidationError, match=r"breakpoints\[0\]\.value"):
            PiecewiseSchedule(((0.0, bad),), 10.0)

    def test_accepts_numpy_floats(self):
        # The planner builds schedules from numpy floats.
        sched = PiecewiseSchedule(((np.float64(0.0), np.float64(0.5)), (2, 1)), np.float64(10.0))
        assert sched.breakpoints == ((0.0, 0.5), (2.0, 1.0)) and sched.horizon_hours == 10.0
        assert {type(x) for pair in sched.breakpoints for x in pair} == {float}

    @given(
        starts=st.lists(st.floats(0.001, 99.0), min_size=0, max_size=6, unique=True),
        values=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
        t=st.floats(0.0, 100.0, exclude_max=True),
    )
    @settings(max_examples=200)
    def test_lookup_total_and_piecewise_constant(self, starts, values, t):
        points = sorted([0.0] + starts)
        sched = PiecewiseSchedule(tuple(zip(points, values[: len(points)])), 100.0)
        value = sched.value_at(t)
        # value equals the segment value exactly
        idx = max(i for i, s in enumerate(points) if s <= t)
        assert value == values[idx]

    def test_sample_matches_value_at(self):
        sched = PiecewiseSchedule(((0.0, 1.0), (17.0, 0.5), (34.0, 1.0)), 48.0)
        grid = sched.sample(0.1, 480)
        for k in (0, 7, 169, 170, 340, 479):
            assert grid[k] == sched.value_at(k * 0.1)

    @pytest.mark.parametrize("breakpoints", [(0.0, 1.0), ((0.0, 1.0, 2.0),), ((0.0,),)], ids=["flat", "triple", "single"])
    def test_rejects_breakpoints_that_are_not_pairs(self, breakpoints):
        with pytest.raises(ValidationError) as excinfo:
            PiecewiseSchedule(breakpoints, 10.0)
        assert excinfo.value.violations == [f"breakpoints must be (start_hour, value) pairs (got {breakpoints!r})"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect (b): float step times sample one step late")
    def test_breakpoint_on_a_step_is_sampled_at_that_step(self):
        # 3 * 0.3 is 0.8999999999999999, so the float time of step 3 falls
        # short of the 0.9 h breakpoint.
        assert PiecewiseSchedule(((0, 1), (0.9, 0.5)), 2).sample(0.3, 5).tolist() == [1, 1, 1, 0.5, 0.5]


class TestModelParams:
    def test_defaults(self):
        params = ModelParams(horizon_hours=48.0)
        assert params.omega1 == 0.5 and params.omega2 == 0.5
        assert params.dt_hours == 0.1 and params.report_every_hours == 1.0
        assert params.rate_floor == 0.0

    def test_rejects_weight_sum(self):
        with pytest.raises(ValidationError, match="omega1 \\+ omega2 must be <= 1"):
            ModelParams(horizon_hours=1.0, omega1=0.7, omega2=0.7)

    @pytest.mark.parametrize("dt", [0.0, -0.1, 1.5])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValidationError, match="dt_hours"):
            ModelParams(horizon_hours=1.0, dt_hours=dt)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValidationError, match="horizon_hours"):
            ModelParams(horizon_hours=0.0)
        with pytest.raises(ValidationError, match="horizon_hours"):
            ModelParams(horizon_hours=-5.0)

    @pytest.mark.parametrize("field", ["horizon_hours", "dt_hours", "report_every_hours"])
    def test_rejects_non_numeric_time_fields(self, field):
        # A string must be a named violation, not a TypeError from math.isfinite.
        with pytest.raises(ValidationError, match=f"^{field} .*'0.5'"):
            ModelParams(**{"horizon_hours": 1.0, field: "0.5"})

    def test_rejects_indivisible_report_interval(self):
        with pytest.raises(ValidationError, match="divide"):
            ModelParams(horizon_hours=10.0, dt_hours=0.3, report_every_hours=1.0)

    def test_collects_multiple_violations(self):
        with pytest.raises(ValidationError) as excinfo:
            ModelParams(horizon_hours=-1.0, omega1=2.0, dt_hours=0.0)
        assert len(excinfo.value.violations) >= 3

    def test_step_grid_helpers(self):
        params = ModelParams(horizon_hours=48.0)
        assert params.n_steps == 480
        assert params.steps_per_report == 10

    @pytest.mark.parametrize("horizon", [1e6, 1e308])
    def test_step_count_past_the_cap_is_a_named_violation(self, horizon):
        # 10**7 steps, or a count too large for an int: a ValidationError, not an OverflowError.
        assert ModelParams(horizon_hours=999_999.9).n_steps == 9_999_999
        expected = f"horizon_hours = {horizon!r} must span fewer than 10000000 steps"
        with pytest.raises(ValidationError, match=re.escape(expected)):
            ModelParams(horizon_hours=horizon).n_steps

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect (c): n_steps floors the horizon")
    def test_horizon_off_the_step_grid_is_rejected_or_reported(self):
        # 1.05 h at dt 0.1 h: either the horizon is named as invalid, or the
        # run reports its state at 1.05 h. Today it stops at 1.0 h silently.
        try:
            params = ModelParams(horizon_hours=1.05, dt_hours=0.1, report_every_hours=0.1)
            full = (PiecewiseSchedule.constant(1.0, 1.05),) * 2
            result = simulate(
                Scenario(
                    params=params,
                    network=ContagionNetwork.full_within_groups([0, 0]),
                    electricity=full,
                    media_access=full,
                    initial_dissatisfaction=np.full(2, 0.5),
                    label="off-grid horizon",
                )
            )
        except ValidationError as error:
            assert "horizon_hours" in str(error)
        else:
            assert abs(result.times[-1] - 1.05) < 1e-9


class TestContagionNetwork:
    def test_full_within_groups(self):
        net = ContagionNetwork.full_within_groups([0, 0, 1], 2.0)
        expected = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(net.base_weights, expected)
        assert net.n_groups == 2
        assert np.array_equal(net.group_sizes, [2, 1])
        assert np.array_equal(net.members(0), [0, 1])

    def test_members_follow_shuffled_ids_with_singletons(self):
        # The members come from one group layout the network keeps; an id
        # outside 0..G-1 has none, where a plain slice would give the last group.
        groups = np.random.default_rng(5).permutation(np.repeat(np.arange(6), [4, 1, 3, 1, 5, 1]))
        n = groups.size
        weights = np.where(groups[:, None] == groups, np.linspace(0.5, 2.0, n), 0.0)
        np.fill_diagonal(weights, 0.0)
        for net in (ContagionNetwork.full_within_groups(groups, 1.0), ContagionNetwork(n, weights, groups)):
            assert net.n_groups == 6
            assert np.array_equal(net.group_sizes, np.bincount(groups))
            for group in range(6):
                assert np.array_equal(net.members(group), np.flatnonzero(groups == group))
            for group in (-1, 6):
                assert net.members(group).size == 0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            ContagionNetwork(2, np.array([[0.1, 0.0], [0.0, 0.0]]), np.array([0, 0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError, match=">= 0"):
            ContagionNetwork(2, np.array([[0.0, -1.0], [0.0, 0.0]]), np.array([0, 0]))

    def test_rejects_sparse_group_ids(self):
        with pytest.raises(ValidationError, match="dense"):
            ContagionNetwork(2, np.zeros((2, 2)), np.array([0, 2]))

    def test_stray_large_group_id_is_named_briefly(self):
        # An id past the agent count is named itself, not every id missing below it.
        with pytest.raises(ValidationError) as excinfo:
            ContagionNetwork.full_within_groups([0, 10**6])
        message = str(excinfo.value)
        assert "1000000" in message and len(message) < 200

    def test_asymmetric_weights_allowed(self):
        weights = np.array([[0.0, 1.0], [0.5, 0.0]])
        net = ContagionNetwork(2, weights, np.array([0, 0]))
        assert net.base_weights[0, 1] != net.base_weights[1, 0]

    def test_operator_is_a_group_block_only_for_exact_block_bits(self, monkeypatch):
        from socio_grid_sim import core_types

        groups = [0, 0, 1, 1, 1, 2]
        shorthand = ContagionNetwork.full_within_groups(groups, 2.5)
        assert shorthand.operator == GroupBlock(2.5)
        # With 6 mask items the within-group pairs are checked one row at a time.
        for mask_items in (core_types._MASK_ITEMS, 6):
            monkeypatch.setattr(core_types, "_MASK_ITEMS", mask_items)
            spelled = ContagionNetwork(6, shorthand.base_weights, groups)
            assert spelled.operator == GroupBlock(2.5)
            assert spelled == shorthand
            # The last three keep the count of nonzero entries: a pair of the
            # last group of two holds other bits, a pair moves across groups,
            # and every within-group pair moves across groups.
            within = [(n, m, 0.0) for n, m in itertools.permutations(range(6), 2) if groups[n] == groups[m]]
            cross = [(n, m, 2.5) for n, m in itertools.permutations(range(6), 2) if groups[n] != groups[m]]
            across = within + cross[: len(within)]
            for changes in ([(0, 1, 2.0)], [(0, 2, 1.0)], [(3, 0, -0.0)], [(5, 5, -0.0)], [(4, 2, 3.0)],
                            [(4, 3, 0.0), (5, 0, 2.5)], across):
                weights = np.array(shorthand.base_weights)
                for n, m, value in changes:
                    weights[n, m] = value
                net = ContagionNetwork(6, weights, groups)
                assert isinstance(net.operator, Dense), changes
                assert net.base_weights.view(np.uint64).tolist() == weights.view(np.uint64).tolist()
        # Two cross-group entries stand where the one group of two has its pairs.
        coupled = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert isinstance(ContagionNetwork(3, coupled, [0, 0, 1]).operator, Dense)
        # Without a within-group pair every weight gives the same zero matrix.
        assert ContagionNetwork.full_within_groups([0, 1, 2], 2.5).operator == GroupBlock(0.0)
        assert ContagionNetwork(3, np.zeros((3, 3)), [0, 1, 2]).operator == GroupBlock(0.0)

    def test_equal_exactly_when_kind_groups_and_weight_bits_are(self):
        groups = [0, 0, 1, 1]
        block = ContagionNetwork.full_within_groups(groups, 1.0)
        assert block == ContagionNetwork.full_within_groups(groups, 1.0)
        assert block != ContagionNetwork.full_within_groups([0, 1, 1, 0], 1.0)
        assert ContagionNetwork.full_within_groups(groups, -0.0) != ContagionNetwork.full_within_groups(groups, 0.0)
        signed = np.array([[0.0, 1.0, -0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        dense = ContagionNetwork(4, signed, groups)
        assert isinstance(dense.operator, Dense) and dense == ContagionNetwork(4, signed, groups)
        assert dense != block and block != dense
        assert "base_weights" not in vars(block)
        moved = np.abs(signed)
        moved[0, 3] = -0.0
        assert dense != ContagionNetwork(4, moved, groups)

    @pytest.mark.parametrize(
        "n, weights, groups, message",
        [
            (3, np.zeros((3, 3)), [0, 0], "group_of must have shape (3,) (got (2,))"),
            (0, np.zeros((0, 0)), [], "n_agents must be positive (got 0)"),
            (3, np.zeros((2, 2)), [0, 0, 1], "base_weights must have shape (3, 3) (got (2, 2))"),
        ],
        ids=["groups", "no-agents", "weights"],
    )
    def test_rejects_wrong_shapes_and_no_agents(self, n, weights, groups, message):
        with pytest.raises(ValidationError) as excinfo:
            ContagionNetwork(n, weights, groups)
        assert excinfo.value.violations == [message]

    def test_shorthand_rejects_no_agents(self):
        with pytest.raises(ValidationError) as excinfo:
            ContagionNetwork.full_within_groups([])
        assert excinfo.value.violations == ["n_agents must be positive (got 0)"]

    def test_is_unequal_to_another_type(self):
        network = ContagionNetwork.full_within_groups([0, 0, 1])
        assert network.__eq__(network.operator) is NotImplemented
        assert network != network.operator and network != 3

    def test_shorthand_accepts_numpy_float_weight(self):
        net = ContagionNetwork.full_within_groups([0, 0, 1], np.float64(2.0))
        assert net.operator == GroupBlock(2.0) and type(net.operator.weight) is float

    def test_group_block_matrix_is_lazy_and_read_only(self):
        net = ContagionNetwork.full_within_groups([0, 1, 0], 3.0)
        assert "base_weights" not in vars(net)
        weights = net.base_weights
        assert net.base_weights is weights
        assert weights.tolist() == [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            weights[0, 2] = 1.0

    @pytest.mark.parametrize("weight", [-2.0, -1e-300, float("inf"), float("nan"), "1", "x", True, None])
    def test_shorthand_rejects_bad_weight_even_without_pairs(self, weight):
        # All-singleton groups build an all-zero matrix, but the weight is
        # still checked.
        for groups in ([0, 0, 1], [0, 1, 2]):
            with pytest.raises(ValidationError, match="weight must be finite and >= 0"):
                ContagionNetwork.full_within_groups(groups, weight)


class TestAgentState:
    """The agents' initial dissatisfaction state, carried by a Scenario."""

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValidationError) as excinfo:
            Scenario(
                params=ModelParams(horizon_hours=2.0),
                network=ContagionNetwork.full_within_groups([0, 0, 0]),
                electricity=(PiecewiseSchedule.constant(1.0, 2.0),) * 3,
                media_access=(PiecewiseSchedule.constant(1.0, 2.0),) * 3,
                initial_dissatisfaction=np.array([0.2, 1.5, -0.1]),
            )
        message = str(excinfo.value)
        assert "initial_dissatisfaction[1]" in message and "initial_dissatisfaction[2]" in message
        assert "initial_dissatisfaction[0]" not in message


class TestScenario:
    def _scenario(self, **kwargs):
        horizon = kwargs.pop("horizon", 2.0)
        n = kwargs.pop("n", 3)
        defaults = dict(
            params=ModelParams(horizon_hours=horizon),
            network=ContagionNetwork.full_within_groups([0] * n),
            electricity=(PiecewiseSchedule.constant(1.0, horizon),) * n,
            media_access=(PiecewiseSchedule.constant(1.0, horizon),) * n,
            initial_dissatisfaction=np.full(n, 0.5),
        )
        defaults.update(kwargs)
        return Scenario(**defaults)

    def test_is_unequal_to_another_type(self):
        scenario = self._scenario()
        assert scenario.__eq__(scenario.network) is NotImplemented
        assert scenario != scenario.network and scenario != "scenario"

    def test_valid_scenario_builds(self):
        scenario = self._scenario()
        assert scenario.n_agents == 3
        assert scenario.validate() == []

    def test_rejects_mismatched_horizon(self):
        with pytest.raises(ValidationError, match="horizon_hours"):
            self._scenario(electricity=(PiecewiseSchedule.constant(1.0, 5.0),) * 3)

    def test_mismatched_horizons_are_named_per_agent(self):
        # The check runs over distinct schedules but names every agent whose
        # schedule is off, in agent order, also where its breakpoints equal
        # those of a schedule on the right horizon.
        good, off = PiecewiseSchedule.constant(1.0, 2.0), PiecewiseSchedule.constant(1.0, 5.0)
        with pytest.raises(ValidationError) as excinfo:
            self._scenario(n=4, electricity=(good, off, good, off), media_access=(off, good, good, good))
        assert excinfo.value.violations == [
            "electricity[1].horizon_hours = 5.0 must equal params.horizon_hours = 2.0",
            "electricity[3].horizon_hours = 5.0 must equal params.horizon_hours = 2.0",
            "media_access[0].horizon_hours = 5.0 must equal params.horizon_hours = 2.0",
        ]

    def test_rejects_wrong_schedule_count(self):
        with pytest.raises(ValidationError, match="one schedule per agent"):
            self._scenario(media_access=(PiecewiseSchedule.constant(1.0, 2.0),) * 2)

    def test_rejects_wrong_initial_state_length(self):
        for d0 in (np.full(4, 0.5), np.full(2, 0.5), np.full((3, 1), 0.5)):
            with pytest.raises(ValidationError, match=r"initial_dissatisfaction must have shape \(3,\)"):
                self._scenario(initial_dissatisfaction=d0)

    def test_rejects_out_of_bounds_initial_state(self):
        # The value is spelled as the loader spells it: 1.5, not np.float64(1.5).
        with pytest.raises(ValidationError) as built:
            self._scenario(initial_dissatisfaction=np.array([0.5, 1.5, 0.5]))
        doc = scenario_to_dict(self._scenario())
        doc["agents"]["initial_dissatisfaction"] = [0.5, 1.5, 0.5]
        with pytest.raises(ValidationError) as loaded:
            scenario_from_dict(doc)
        assert built.value.violations == ["initial_dissatisfaction[1] = 1.5 outside [0, 1]"]
        assert loaded.value.violations == ["agents." + built.value.violations[0]]

    def test_initial_state_is_read_only(self):
        scenario = self._scenario()
        with pytest.raises(ValueError):
            scenario.initial_dissatisfaction[0] = 0.9

    def test_lists_all_violations_at_once(self):
        with pytest.raises(ValidationError) as excinfo:
            self._scenario(
                electricity=(PiecewiseSchedule.constant(1.0, 5.0),) * 3,
                initial_dissatisfaction=np.array([-0.5, 1.5, 0.5]),
            )
        assert len(excinfo.value.violations) >= 4

    def test_content_digest_stable_and_sensitive(self):
        a = self._scenario()
        b = self._scenario()
        assert a.content_digest() == b.content_digest()
        c = self._scenario(initial_dissatisfaction=np.full(3, 0.25))
        assert a.content_digest() != c.content_digest()

    def test_equal_exactly_when_digests_are(self):
        # Separately built equal scenarios are equal; access that differs
        # only by -0.0 against 0.0 has other bits, another digest and another run.
        assert self._scenario() == self._scenario()
        signed = self._scenario(media_access=(PiecewiseSchedule.constant(-0.0, 2.0),) * 3)
        plain = self._scenario(media_access=(PiecewiseSchedule.constant(0.0, 2.0),) * 3)
        assert signed.content_digest() != plain.content_digest()
        assert signed != plain
        assert self._scenario() != self._scenario(label="other")

    def test_content_digest_hashes_the_canonical_document(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.0, 2.0, size=(4, 4))
        np.fill_diagonal(weights, 0.0)
        scenario = self._scenario(
            n=4,
            network=ContagionNetwork(4, weights, [0, 0, 1, 1]),
            electricity=(PiecewiseSchedule(((0.0, 1.0), (0.5, 0.25)), 2.0),) * 4,
            initial_dissatisfaction=rng.uniform(0.0, 1.0, size=4),
            label="d\u00e9mo \"quoted\"",
        )
        assert scenario.content_digest() == self._format2_digest(scenario, weights)

    @staticmethod
    def _format2_digest(scenario, weights):
        """Digest format 2, encoded here from the scenario's public fields.

        ``weights`` is the group block's weight, or the dense matrix the test
        built. Every section leads with its byte length or count.
        """
        def section(data):
            return struct.pack("<q", len(data)) + data

        def f64(values):
            return struct.pack(f"<{len(values)}d", *values)

        if isinstance(weights, float):
            network = {"kind": "group_block", "weight_bits": struct.unpack("<Q", struct.pack("<d", weights))[0]}
        else:
            network = {"kind": "dense"}
        header = {
            "digest_format": 2,
            "n_agents": scenario.n_agents,
            "label": scenario.label,
            "params": {key: float(value) for key, value in scenario.params.as_dict().items()},
            "network": network,
        }
        groups = scenario.network.group_of.tolist()
        payload = section(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        payload += section(struct.pack(f"<{len(groups)}q", *groups))
        if network["kind"] == "dense":
            payload += section(f64([w for row in weights.tolist() for w in row]))
        for schedules in (scenario.electricity, scenario.media_access):
            bits = [f64([x for pair in s.breakpoints for x in pair]) for s in schedules]
            distinct = list(dict.fromkeys(bits))
            payload += struct.pack("<q", len(distinct)) + b"".join(map(section, distinct))
            payload += section(struct.pack(f"<{len(bits)}q", *map(distinct.index, bits)))
        payload += section(f64(scenario.initial_dissatisfaction.tolist()))
        return "sha256:" + hashlib.sha256(payload).hexdigest()

    @pytest.mark.parametrize("weight", [1.0, 2.5, 1e-300, 5e-324, 0.0, -0.0, 1e308])
    def test_group_block_digest_hashes_the_canonical_document(self, weight):
        # The block's weight is hashed by its bits, without its matrix;
        # groups 1 and 3 are singletons.
        groups = [0, 1, 0, 2, 2, 3, 0, 2]
        scenario = self._scenario(n=8, network=ContagionNetwork.full_within_groups(groups, weight))
        assert isinstance(scenario.network.operator, GroupBlock)
        digest = scenario.content_digest()
        assert "base_weights" not in vars(scenario.network)
        assert digest == self._format2_digest(scenario, weight)
        # A dense spelling of the same block is the same operator and digest.
        same = np.equal.outer(groups, groups) & ~np.eye(8, dtype=bool)
        spelled = self._scenario(n=8, network=ContagionNetwork(8, np.where(same, weight, 0.0), groups))
        assert spelled.content_digest() == digest

    def test_dense_digest_hashes_the_canonical_document(self):
        # Many distinct weights, with -0.0, 1e-300 and 5e-324 among them: the
        # matrix's float64 bits keep -0.0 apart from 0.0 and the subnormal exact.
        n = 12
        rng = np.random.default_rng(17)
        weights = rng.uniform(0.0, 3.0, size=(n, n))
        weights[rng.uniform(size=(n, n)) < 0.2] = 0.0
        for (row, col), value in zip([(0, 5), (3, 1), (7, 2), (11, 4), (2, 9)], [-0.0, 1e-300, 5e-324, -0.0, 1e-300]):
            weights[row, col] = value
        np.fill_diagonal(weights, 0.0)
        network = ContagionNetwork(n, weights, [g % 3 for g in range(n)])
        assert isinstance(network.operator, Dense)
        assert len(np.unique(weights)) > 100
        scenario = self._scenario(n=n, network=network)
        assert scenario.content_digest() == self._format2_digest(scenario, weights)

    def test_equal_schedules_hash_alike_shared_or_not(self):
        # Schedules are numbered by bits, not by object: unshared equal
        # objects hash like the one object a loaded file interns, and a
        # -0.0 value does not.
        def points(zero):
            return ((0.0, 1.0), (1.0, zero))

        shared = PiecewiseSchedule(points(0.0), 2.0)
        interned = self._scenario(n=4, electricity=(shared,) * 4)
        unshared = self._scenario(n=4, electricity=tuple(PiecewiseSchedule(points(0.0), 2.0) for _ in range(4)))
        signed = self._scenario(n=4, electricity=(shared,) * 3 + (PiecewiseSchedule(points(-0.0), 2.0),))
        assert unshared.content_digest() == interned.content_digest()
        assert interned.content_digest() == self._format2_digest(interned, 1.0)
        assert signed.content_digest() == self._format2_digest(signed, 1.0)
        assert signed.content_digest() != interned.content_digest()

    def test_dense_digest_reads_the_matrix_in_place(self):
        # N = 1000: one copy of the matrix would be 8 MB.
        n = 1000
        rng = np.random.default_rng(3)
        weights = np.where(rng.uniform(size=(n, n)) < 0.02, rng.uniform(0.0, 1.0, size=(n, n)), 0.0)
        np.fill_diagonal(weights, 0.0)
        scenario = self._scenario(n=n, network=ContagionNetwork(n, weights, [g % 10 for g in range(n)]))
        assert isinstance(scenario.network.operator, Dense)
        tracemalloc.start()
        try:
            scenario.content_digest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_per_agent_negative_zero_keeps_its_own_schedule(self):
        # Entries equal by value but not by bits load as separate objects, so
        # the digest hashes the -0.0 bits where the file has them.
        plain, signed = [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, -0.0]]
        scenario = scenario_from_dict({
            "schema_version": 1,
            "params": {"horizon_hours": 2.0},
            "agents": {"count": 4, "groups": [0, 0, 1, 1], "initial_dissatisfaction": 0.5},
            "network": {"full_within_groups": {"weight": 1.0}},
            "schedules": {
                "electricity": {"per_agent": [plain, signed, plain, signed]},
                "media_access": {"broadcast": [[0.0, 1.0]]},
            },
        })
        elec = scenario.electricity
        assert elec[0] is elec[2] and elec[1] is elec[3] and elec[0] is not elec[1]
        assert str(elec[1].breakpoints[1][1]) == "-0.0"
        assert scenario.content_digest() == self._format2_digest(scenario, 1.0)

    def test_dense_digest_keeps_negative_zero(self):
        # A block matrix with one -0.0 among its zeros is not a block: it
        # stays dense and the digest hashes the -0.0 bits where the file has them.
        groups = [0, 0, 1, 1]
        weights = np.array(ContagionNetwork.full_within_groups(groups, 1.0).base_weights)
        weights[0, 2] = -0.0
        scenario = self._scenario(n=4, network=ContagionNetwork(4, weights, groups))
        assert isinstance(scenario.network.operator, Dense)
        assert scenario.content_digest() == self._format2_digest(scenario, weights)
        assert scenario.content_digest() != self._scenario(
            n=4, network=ContagionNetwork.full_within_groups(groups, 1.0)
        ).content_digest()


class TestSimulationResult:
    def test_satisfaction_is_derived(self):
        d = [[0.0, 0.25, 1.0]]
        result = SimulationResult(
            times=[0.0], dissatisfaction=d, groups=[0, 0, 1], aggregates=aggregate_trajectory([0.0], d, [0, 0, 1])
        )
        assert np.array_equal(result.satisfaction, np.array([[1.0, 0.75, 0.0]]))
        assert result.n_agents == 3
        assert result.global_mean_satisfaction().tolist() == [pytest.approx(1.75 / 3)]

    @pytest.mark.parametrize(
        "aggregates",
        [(), np.zeros((4, 2, 2)), np.zeros((4, 1, 3)), np.zeros((3, 1, 2)), np.zeros((1, 4, 2))],
        ids=["empty", "times", "scopes", "stats", "transposed"],
    )
    def test_rejects_aggregates_of_the_wrong_shape(self, aggregates):
        with pytest.raises(ValidationError, match=r"aggregates must have shape \(4, 1, 2\)"):
            SimulationResult(times=[0.0], dissatisfaction=[[0.5, 0.5]], groups=[0, 0], aggregates=aggregates)

    def test_rejects_a_row_count_other_than_the_times(self):
        with pytest.raises(ValidationError) as excinfo:
            SimulationResult(times=[0.0, 1.0], dissatisfaction=[[0.5, 0.5]], groups=[0, 0],
                             aggregates=np.zeros((4, 2, 2)))
        assert excinfo.value.violations == [
            "dissatisfaction must have one row per report time (got (1, 2) for 2 times)"
        ]

    def test_aggregates_are_read_only(self):
        aggregates = np.zeros((4, 1, 2))
        result = SimulationResult(times=[0.0], dissatisfaction=[[0.5]], groups=[0], aggregates=aggregates)
        aggregates[0, 0, 1] = 1.0
        assert result.global_mean_satisfaction().tolist() == [0.0]
        with pytest.raises(ValueError):
            result.aggregates[0, 0, 1] = 1.0

from __future__ import annotations

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from socio_grid_sim import (
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    PlanInfeasibleError,
    PlanObjective,
    Scenario,
    SheddingPlan,
    SheddingSlot,
    ValidationError,
    apply_plan,
    builtin_case_study,
    evaluate_plan,
    plan_from_dict,
    plan_shedding,
    plan_to_dict,
    simulate,
)
from socio_grid_sim import planner
from socio_grid_sim.core_types import Dense
from socio_grid_sim.plans import validate_plan
from socio_grid_sim.planner import _block_objectives, _LatticeSearch

from oracles import brute_force_plan_search, reference_objective, same_bits, symmetric_planner_base


def small_base(n_groups: int = 2, horizon: float = 4.0) -> Scenario:
    groups = [g for g in range(n_groups) for _ in range(2)]
    n = len(groups)
    return Scenario(
        params=ModelParams(horizon_hours=horizon),
        network=ContagionNetwork.full_within_groups(groups, 1.0),
        electricity=(PiecewiseSchedule.constant(1.0, horizon),) * n,
        media_access=(PiecewiseSchedule.constant(1.0, horizon),) * n,
        initial_dissatisfaction=np.full(n, 0.5),
        label="small",
    )


class TestApplyPlan:
    def test_slot_drops_availability(self):
        base = small_base()
        plan = SheddingPlan(
            slots=(SheddingSlot(group=0, start_hour=1.0, duration_hours=2.0, shed_level=0.5),),
            granularity_hours=1.0,
        )
        shed = apply_plan(base, plan)
        assert shed.electricity[0].value_at(0.5) == 1.0
        assert shed.electricity[0].value_at(1.0) == 0.5
        assert shed.electricity[0].value_at(2.9) == 0.5
        assert shed.electricity[0].value_at(3.0) == 1.0
        # other group untouched
        assert shed.electricity[2].value_at(2.0) == 1.0

    def test_shedding_floors_at_zero(self):
        base = small_base()
        low = Scenario(
            params=base.params,
            network=base.network,
            electricity=(PiecewiseSchedule.constant(0.3, 4.0),) * 4,
            media_access=base.media_access,
            initial_dissatisfaction=base.initial_dissatisfaction,
            label=base.label,
        )
        plan = SheddingPlan(
            slots=(SheddingSlot(group=0, start_hour=0.0, duration_hours=4.0, shed_level=0.5),),
            granularity_hours=4.0,
        )
        shed = apply_plan(low, plan)
        assert shed.electricity[0].value_at(1.0) == 0.0

    def test_rejects_overlap_and_overflow(self):
        base = small_base()
        plan = SheddingPlan(
            slots=(
                SheddingSlot(group=0, start_hour=0.0, duration_hours=2.0, shed_level=0.5),
                SheddingSlot(group=0, start_hour=1.0, duration_hours=2.0, shed_level=0.5),
                SheddingSlot(group=1, start_hour=3.0, duration_hours=2.0, shed_level=0.5),
                SheddingSlot(group=5, start_hour=0.0, duration_hours=1.0, shed_level=0.5),
            ),
            granularity_hours=1.0,
        )
        with pytest.raises(ValidationError) as excinfo:
            apply_plan(base, plan)
        text = "\n".join(excinfo.value.violations)
        assert "overlap" in text
        assert "beyond the horizon" in text
        assert "group" in text

    def test_rejects_non_finite_start(self):
        # A NaN start compares false with every bound, so it must be caught
        # as "not >= 0" rather than pass as an empty slot.
        plan = SheddingPlan(
            slots=(SheddingSlot(group=0, start_hour=float("nan"), duration_hours=2.0, shed_level=0.5),),
            granularity_hours=1.0,
        )
        with pytest.raises(ValidationError) as excinfo:
            apply_plan(small_base(), plan)
        assert len(excinfo.value.violations) == 1
        assert excinfo.value.violations[0].startswith("slots[0].start_hour = nan")


    @pytest.mark.parametrize("group", [1.7, 1.0, True, "1"])
    def test_rejects_non_integer_group(self, group):
        # A fractional group lies inside 0..G-1 but matches no agent, so it
        # would be scored as the empty plan if the range check let it pass.
        base = builtin_case_study("full_access")
        plan = SheddingPlan(
            slots=(SheddingSlot(group=group, start_hour=0.0, duration_hours=6.0, shed_level=0.5),),
            granularity_hours=6.0,
        )
        assert validate_plan(plan, base) == [f"slots[0].group = {group!r} must be an integer"]
        with pytest.raises(ValidationError, match=r"slots\[0\]\.group"):
            evaluate_plan(plan, base)

    def test_accepts_numpy_integer_group(self):
        base = builtin_case_study("full_access")
        plan = SheddingPlan(
            slots=(SheddingSlot(group=np.int64(1), start_hour=0.0, duration_hours=6.0, shed_level=0.5),),
            granularity_hours=6.0,
        )
        assert validate_plan(plan, base) == []


class TestEvaluatePlan:
    def test_empty_plan_equals_baseline(self):
        base = small_base()
        objective = evaluate_plan(SheddingPlan.empty(1.0), base)
        baseline = simulate(base).dissatisfaction
        assert objective.peak_mean_dissatisfaction == float(baseline.mean(axis=1).max())
        assert objective.unfairness == 0.0
        assert objective.combined == objective.peak_mean_dissatisfaction

    def test_replicates_case_study_window(self):
        base = builtin_case_study("full_access")
        flat = Scenario(
            params=base.params,
            network=base.network,
            electricity=(PiecewiseSchedule.constant(1.0, 48.0),) * 9,
            media_access=base.media_access,
            initial_dissatisfaction=base.initial_dissatisfaction,
            label=base.label,
        )
        plan = SheddingPlan(
            slots=tuple(
                SheddingSlot(group=g, start_hour=17.0, duration_hours=17.0, shed_level=0.5)
                for g in range(3)
            ),
            granularity_hours=17.0,
        )
        via_plan = simulate(apply_plan(flat, plan))
        direct = simulate(base)
        assert same_bits(via_plan.dissatisfaction, direct.dissatisfaction)

    def test_symmetric_plan_is_fair(self):
        base = symmetric_planner_base()
        plan = SheddingPlan(
            slots=tuple(
                SheddingSlot(group=g, start_hour=3.0, duration_hours=3.0, shed_level=0.5)
                for g in range(3)
            ),
            granularity_hours=3.0,
        )
        objective = evaluate_plan(plan, base)
        assert objective.unfairness == 0.0

    def test_asymmetric_plan_is_unfair(self):
        base = symmetric_planner_base()
        plan = SheddingPlan(
            slots=(SheddingSlot(group=0, start_hour=0.0, duration_hours=12.0, shed_level=0.5),),
            granularity_hours=3.0,
        )
        objective = evaluate_plan(plan, base, fairness_weight=2.0)
        assert objective.unfairness > 0.0
        assert objective.combined == pytest.approx(
            objective.peak_mean_dissatisfaction + 2.0 * objective.unfairness, abs=1e-15
        )

    def test_rejects_negative_fairness_weight(self):
        with pytest.raises(ValidationError, match="fairness_weight"):
            evaluate_plan(SheddingPlan.empty(1.0), small_base(), fairness_weight=-1.0)


def own_schedules_search() -> _LatticeSearch:
    """A search on 2 isolated groups of 50 agents, each agent with its own
    electricity schedule, and 4 slots at levels {0, 0.5}."""
    horizon = 24.0
    rng = np.random.default_rng(8)
    n = 100
    base = Scenario(
        params=ModelParams(horizon_hours=horizon),
        network=ContagionNetwork.full_within_groups(np.arange(n) // 50, 1.0),
        electricity=tuple(
            PiecewiseSchedule(((0.0, 1.0), (float(t), float(v))), horizon)
            for t, v in zip(rng.uniform(1.0, 23.0, n), rng.uniform(0.5, 1.0, n))
        ),
        media_access=(PiecewiseSchedule.constant(1.0, horizon),) * n,
        initial_dissatisfaction=rng.uniform(0.1, 0.3, n),
    )
    return _LatticeSearch(base, 600.0, 6.0, [0.5], 1.0)


class TestPlanShedding:
    def test_zero_requirement_returns_empty_plan(self):
        base = small_base()
        plan, objective = plan_shedding(base, 0.0, 1.0, [0.0, 0.5])
        assert plan.slots == ()
        assert objective == evaluate_plan(plan, base)

    def test_forced_unique_solution(self):
        groups = [0, 0]
        horizon = 2.0
        base = Scenario(
            params=ModelParams(horizon_hours=horizon),
            network=ContagionNetwork.full_within_groups(groups, 1.0),
            electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 2,
            media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 2,
            initial_dissatisfaction=np.full(2, 0.5),
            label="forced",
        )
        # one group, one slot, requirement equal to max capacity
        plan, _ = plan_shedding(base, required_energy=0.5 * 2.0 * 2, granularity_hours=2.0,
                                shed_levels=[0.0, 0.5])
        assert plan.slots == (
            SheddingSlot(group=0, start_hour=0.0, duration_hours=2.0, shed_level=0.5),
        )

    def test_infeasible_requirement_reports_maximum(self):
        base = small_base()
        with pytest.raises(PlanInfeasibleError, match="maximum achievable"):
            plan_shedding(base, required_energy=100.0, granularity_hours=1.0, shed_levels=[0.0, 0.5])

    def test_exhaustive_matches_brute_force_small(self):
        base = small_base(n_groups=2, horizon=4.0)  # 2 groups x 2 slots x 2 levels = 16
        required = 2.0
        plan, objective = plan_shedding(base, required, 2.0, [0.0, 0.5], strategy="exhaustive")
        best = brute_force_plan_search(base, required, 2.0, [0.0, 0.5])
        assert best is not None
        assignment, combined, peak, unfairness = best
        assert objective.combined == combined
        assert objective.peak_mean_dissatisfaction == peak
        assert objective.unfairness == unfairness
        # reconstruct the lattice from the returned plan and compare
        produced = [0.0] * 4
        for slot in plan.slots:
            produced[slot.group * 2 + round(slot.start_hour / 2.0)] = slot.shed_level
        assert tuple(produced) == assignment

    def test_greedy_never_beats_exhaustive(self):
        base = small_base(n_groups=2, horizon=4.0)
        for required in (1.0, 2.0, 3.0):
            _, exhaustive = plan_shedding(base, required, 2.0, [0.0, 0.5], strategy="exhaustive")
            _, greedy = plan_shedding(base, required, 2.0, [0.0, 0.5],
                                      strategy="greedy_restarts", seed=3)
            assert exhaustive.combined <= greedy.combined + 1e-15

    def test_returned_objective_matches_evaluate_plan(self):
        base = small_base(n_groups=2, horizon=4.0)
        plan, objective = plan_shedding(base, 2.0, 2.0, [0.0, 0.5], strategy="greedy_restarts", seed=1)
        assert evaluate_plan(plan, base) == objective

    def test_deterministic_given_seed(self):
        base = small_base(n_groups=2, horizon=4.0)
        a = plan_shedding(base, 2.0, 2.0, [0.0, 0.5], strategy="greedy_restarts", seed=42)
        b = plan_shedding(base, 2.0, 2.0, [0.0, 0.5], strategy="greedy_restarts", seed=42)
        assert a[0].encoding() == b[0].encoding()
        assert a[1] == b[1]

    def test_group_relabeling_equivalence(self):
        base = symmetric_planner_base(horizon=6.0)
        relabeled_groups = [2, 2, 2, 0, 0, 0, 1, 1, 1]
        relabeled = Scenario(
            params=base.params,
            network=ContagionNetwork.full_within_groups(relabeled_groups, 1.0),
            electricity=base.electricity,
            media_access=base.media_access,
            initial_dissatisfaction=base.initial_dissatisfaction,
            label=base.label,
        )
        plan_a, _ = plan_shedding(base, 4.5, 3.0, [0.0, 0.5], strategy="exhaustive")
        plan_b, _ = plan_shedding(relabeled, 4.5, 3.0, [0.0, 0.5], strategy="exhaustive")
        # fully symmetric instance: the relabeled search sees an identical
        # problem, so the canonical winner is identical
        assert plan_a.encoding() == plan_b.encoding()

    def test_exhaustive_keeps_only_a_running_minimum(self):
        search = _LatticeSearch(symmetric_planner_base(horizon=12.0), 9.0, 3.0, [0.0, 0.5], 1.0)
        assert search.exhaustive() == (0.0, 0.0, 0.0, 0.5) * 3
        assert search._memo == {}
        # 2 groups x 8 slots x 2 levels: 2**16 candidates, about 32 MB as a memo.
        horizon = 8.0
        base = Scenario(
            params=ModelParams(horizon_hours=horizon, dt_hours=0.5),
            network=ContagionNetwork.full_within_groups([0, 0, 1, 1], 1.0),
            electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 4,
            media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 4,
            initial_dissatisfaction=np.full(4, 0.5),
        )
        tracemalloc.start()
        try:
            plan, _ = plan_shedding(base, 0.5, 1.0, [0.0, 0.5], strategy="exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.encoding() == "0:7:1:0.5;1:7:1:0.5"
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("block", [None, 4])
    def test_deprivation_table_is_held_once(self, block):
        # own_schedules_search's 16 slot profiles give 100 * 16 deprivation
        # columns of 240 steps, a 3.1 MB table. Each kernel block samples only
        # the columns of its own rows, so the default block (all 16 profiles)
        # holds the table once, and blocks of 4 rows hold a quarter of it.
        search = own_schedules_search()
        search._block = block or search._block
        tracemalloc.start()
        try:
            search.exhaustive()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 100 * 16 * 240 * 8
        # One block peaks at 1.46 tables and blocks of 4 at 0.54. A list of
        # the columns beside a stacked table peaks at 2.6 and 3.0, and a
        # search-wide table at 1.5 and 1.3 (1.9 when regrown block by block).
        assert peak < (1.7 if block is None else 0.8) * table

    def test_greedy_deprivation_table_peak(self):
        # own_schedules_search under greedy search, which meets its profiles
        # block by block, 1450 of the 1600 columns in all. A search-wide
        # table regrown with each block peaked at 2.12 such tables; sampling
        # each block's columns on their own peaks at 0.60.
        search = own_schedules_search()
        tracemalloc.start()
        try:
            search.greedy_restarts(0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 1450 * 240 * 8
        assert peak < 0.8 * table

    def test_exhaustive_refuses_oversized_lattice(self):
        # 3 groups x 16 slots x 2 levels: 2**48 candidates.
        base = symmetric_planner_base(horizon=16.0)
        with pytest.raises(ValidationError, match=f"{2**48}.*greedy_restarts"):
            plan_shedding(base, 9.0, 1.0, [0.0, 0.5], strategy="exhaustive")

    def test_exhaustive_names_a_huge_lattice_by_its_size(self):
        # 3 groups x 480 slots of one step: 2**1440, a 434-digit count.
        with pytest.raises(ValidationError) as info:
            plan_shedding(builtin_case_study("full_access"), 9.0, 0.1, [0.0, 0.5], strategy="exhaustive")
        [message] = info.value.violations
        assert "2 ** 1440 (434 digits)" in message and "greedy_restarts" in message
        assert len(message) < 200

    @pytest.mark.parametrize("fairness_weight", [-1.0, float("inf"), float("nan")])
    def test_rejects_non_finite_or_negative_fairness_weight(self, fairness_weight):
        # An infinite weight would make every combined value inf or nan.
        base = symmetric_planner_base(horizon=12.0)
        with pytest.raises(ValidationError, match="fairness_weight must be finite"):
            plan_shedding(base, 9.0, 3.0, [0.0, 0.5], fairness_weight=fairness_weight)
        with pytest.raises(ValidationError, match="fairness_weight must be finite"):
            evaluate_plan(SheddingPlan.empty(3.0), base, fairness_weight)

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy_restarts"])
    def test_rejects_nan_required_energy(self, strategy):
        # A NaN requirement is neither feasible nor infeasible; inf stays infeasible.
        base = small_base()
        with pytest.raises(ValidationError, match="required_energy") as caught:
            plan_shedding(base, float("nan"), 1.0, [0.0, 0.5], strategy=strategy)
        assert not isinstance(caught.value, PlanInfeasibleError)
        with pytest.raises(PlanInfeasibleError, match="maximum achievable"):
            plan_shedding(base, float("inf"), 1.0, [0.0, 0.5], strategy=strategy)

    def test_reports_every_bad_argument_together(self):
        with pytest.raises(ValidationError) as caught:
            plan_shedding(small_base(), float("nan"), 3.0, [0.0, 1.5], fairness_weight=-1.0)
        assert [v.split()[0] for v in caught.value.violations] == [
            "required_energy", "granularity_hours", "shed", "fairness_weight",
        ]

    def test_rejects_bad_granularity_and_levels(self):
        base = small_base()
        with pytest.raises(ValidationError, match="divide"):
            plan_shedding(base, 1.0, 3.0, [0.0, 0.5])
        with pytest.raises(ValidationError, match="level"):
            plan_shedding(base, 1.0, 1.0, [0.0, 1.5])
        with pytest.raises(ValidationError, match="strategy"):
            plan_shedding(base, 1.0, 1.0, [0.0, 0.5], strategy="anneal")


def coupled_base(seed: int = 0, omega2: float = 0.4, rate_floor: float = 0.02) -> Scenario:
    """4 groups of 6 with cross-group weights, uneven base electricity and
    media access below 1."""
    rng = np.random.default_rng(seed)
    horizon = 12.0
    groups = np.repeat(np.arange(4), 6)
    n = groups.size
    same = groups[:, None] == groups[None, :]
    weights = np.where(
        same,
        rng.uniform(0.5, 1.5, size=(n, n)),
        rng.uniform(0.05, 0.5, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3),
    )
    np.fill_diagonal(weights, 0.0)
    # Two base schedules per group, with breakpoints off the slot grid and
    # levels low enough that a 0.5 shed floors at zero.
    base_schedules = [
        PiecewiseSchedule(((0.0, 1.0), (2.5, float(low)), (7.0, 0.9)), horizon)
        for low in rng.uniform(0.3, 0.8, size=8)
    ]
    electricity = tuple(base_schedules[2 * g + (i % 2)] for i, g in enumerate(groups))
    media = tuple(PiecewiseSchedule.constant(float(a), horizon) for a in rng.uniform(0.5, 1.0, size=n))
    return Scenario(
        params=ModelParams(horizon_hours=horizon, omega1=0.5, omega2=omega2, rate_floor=rate_floor),
        network=ContagionNetwork(n, weights, groups),
        electricity=electricity,
        media_access=media,
        initial_dissatisfaction=rng.uniform(0.3, 0.7, size=n),
        label="coupled",
    )


def reference_greedy(base, required, granularity, levels, seed, restarts, fairness_weight=1.0):
    """Greedy restarts written out plainly, one evaluate_plan per distinct candidate."""
    n_slots = round(base.params.horizon_hours / granularity)
    sizes = base.network.group_sizes
    levels = sorted(set(levels) | {0.0})
    cells = [(g, s) for g in range(base.network.n_groups) for s in range(n_slots)]
    memo = {}

    def score(assignment):
        if assignment not in memo:
            plan = SheddingPlan(
                slots=tuple(
                    SheddingSlot(g, s * granularity, granularity, level)
                    for (g, s), level in zip(cells, assignment)
                    if level > 0.0
                ),
                granularity_hours=granularity,
            )
            memo[assignment] = (plan, evaluate_plan(plan, base, fairness_weight))
        return memo[assignment]

    def feasible(assignment):
        energy = sum(level * (granularity * float(sizes[g])) for (g, _), level in zip(cells, assignment))
        return energy + 1e-9 >= required

    def one_pass(rng):
        assignment = [0.0] * len(cells)
        while not feasible(assignment):
            moves = []
            for idx, current in enumerate(assignment):
                for level in levels:
                    if level > current:
                        trial = tuple(assignment[:idx]) + (level,) + tuple(assignment[idx + 1 :])
                        moves.append((score(trial)[1].combined, trial, idx, level))
            moves.sort(key=lambda m: (m[0], m[1]))
            chosen = moves[0] if rng is None else rng.choice(moves[:3])
            assignment[chosen[2]] = chosen[3]
        return tuple(assignment)

    rng = random.Random(seed)
    passes = [one_pass(None)] + [one_pass(rng) for _ in range(restarts)]
    return score(min(passes, key=lambda a: (score(a)[1].combined, a)))


class TestBatchedScoring:
    """The planner scores candidates in blocks through the simulation kernel;
    every score must equal evaluate_plan (simulate on the shed scenario)."""

    def test_every_c6_candidate_matches_evaluate_plan(self):
        base = symmetric_planner_base(horizon=12.0)
        search = _LatticeSearch(base, 9.0, 3.0, [0.0, 0.5], 1.0)
        candidates = [
            a for a in itertools.product(search.levels, repeat=len(search.cells)) if search.feasible(a)
        ]
        assert len(candidates) == 4083
        search.score_all(candidates)
        for assignment in candidates:
            assert search.score(assignment) == evaluate_plan(search.plan_for(assignment), base), assignment

    @pytest.mark.parametrize("omega2, rate_floor", [(0.4, 0.02), (0.0, 0.05)])
    def test_coupled_candidates_match_evaluate_plan(self, omega2, rate_floor):
        base = coupled_base(seed=3, omega2=omega2, rate_floor=rate_floor)
        search = _LatticeSearch(base, 0.0, 4.0, [0.0, 0.25, 0.5], 1.5)
        rng = np.random.default_rng(8)
        candidates = [tuple(rng.choice(search.levels, size=len(search.cells)).tolist()) for _ in range(150)]
        search.score_all(candidates)
        for assignment in candidates:
            expected = evaluate_plan(search.plan_for(assignment), base, 1.5)
            assert search.score(assignment) == expected, assignment

    def test_single_report_wide_groups_match_evaluate_plan(self):
        # One report time and groups of 10: the group means then reduce over
        # a contiguous axis, the layout case that differs from the others.
        horizon = 4.0
        base = Scenario(
            params=ModelParams(horizon_hours=horizon, report_every_hours=8.0),
            network=ContagionNetwork.full_within_groups([0] * 10 + [1] * 10, 1.0),
            electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 20,
            media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 20,
            initial_dissatisfaction=np.random.default_rng(13).uniform(0.0, 1.0, size=20),
        )
        search = _LatticeSearch(base, 0.0, 2.0, [0.0, 0.5], 1.0)
        candidates = list(itertools.product(search.levels, repeat=len(search.cells)))
        search.score_all(candidates)
        for assignment in candidates:
            assert search.score(assignment) == evaluate_plan(search.plan_for(assignment), base)

    @pytest.mark.parametrize("report_every_hours", [1.0, 24.0])
    def test_wide_groups_match_reference_objective(self, report_every_hours):
        # Groups of 10 and 13 over 13 report times and over one. Reducing a
        # (B, T, n_g) gather of the group's columns instead of the contiguous
        # per-row layout can change the last bit once a group has 8 or more
        # members (with numpy 2.4 it does at one report time), so this pins the
        # objective's reduction layout against the plain reference.
        horizon = 12.0
        rng = np.random.default_rng(21)
        groups = np.array([0] * 10 + [1] * 13)
        rng.shuffle(groups)
        n = groups.size
        weights = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(weights, 0.0)
        base = Scenario(
            params=ModelParams(horizon_hours=horizon, omega2=0.4, report_every_hours=report_every_hours),
            network=ContagionNetwork(n, weights, groups),
            electricity=tuple(
                PiecewiseSchedule(((0.0, float(v)), (5.0, 1.0)), horizon) for v in rng.uniform(0.4, 1.0, n)
            ),
            media_access=(PiecewiseSchedule.constant(0.8, horizon),) * n,
            initial_dissatisfaction=rng.uniform(0.0, 1.0, size=n),
        )
        search = _LatticeSearch(base, 0.0, 4.0, [0.0, 0.5], 1.5)
        candidates = list(itertools.product(search.levels, repeat=len(search.cells)))
        search.score_all(candidates)
        for assignment in candidates:
            plan = search.plan_for(assignment)
            peak, unfairness, combined = reference_objective(
                simulate(apply_plan(base, plan)).dissatisfaction, groups, 1.5
            )
            expected = PlanObjective(peak, unfairness, 1.5, combined)
            assert evaluate_plan(plan, base, 1.5) == expected, assignment
            assert search.score(assignment) == expected, assignment

    def test_block_size_does_not_change_scores(self):
        base = coupled_base(seed=5)
        rng = np.random.default_rng(9)
        candidates = list(
            dict.fromkeys(tuple(rng.choice([0.0, 0.25, 0.5], size=12).tolist()) for _ in range(60))
        )
        runs = []
        for block in (1, 7, len(candidates)):
            search = _LatticeSearch(base, 0.0, 4.0, [0.0, 0.25, 0.5], 1.0)
            search._block = block
            search.score_all(candidates)
            runs.append([search.score(a) for a in candidates])
        assert runs[0] == runs[1] == runs[2]

    def test_greedy_matches_reference_greedy(self):
        base = coupled_base(seed=11)
        plan, objective = plan_shedding(
            base, 27.0, 3.0, [0.0, 0.25, 0.5], strategy="greedy_restarts", seed=4, restarts=3
        )
        expected_plan, expected_objective = reference_greedy(base, 27.0, 3.0, [0.0, 0.25, 0.5], 4, 3)
        assert plan.encoding() == expected_plan.encoding()
        assert objective == expected_objective

    @pytest.mark.parametrize(
        "sizes, dense, rate_floor, symmetric, required",
        [
            ([2, 3, 4], False, 0.02, False, 8.0),
            ([3, 1, 4], True, 0.0, False, 8.0),
            ([3, 3, 3], False, 0.0, True, 9.0),
            ([3, 3, 3], True, 0.0, True, 9.0),
        ],
    )
    def test_greedy_from_the_table_matches_reference_greedy(self, sizes, dense, rate_floor, symmetric, required):
        # Isolated group-block and dense networks, where every move is
        # assembled from the (group, profile) table. With identical groups
        # every permutation of a move across groups ties.
        base = isolated_base(7, sizes, dense, rate_floor, symmetric=symmetric)
        stats = {}
        plan, objective = plan_shedding(
            base, required, 2.0, [0.0, 0.25, 0.5], strategy="greedy_restarts", seed=4, restarts=3, stats=stats
        )
        expected_plan, expected_objective = reference_greedy(base, required, 2.0, [0.0, 0.25, 0.5], 4, 3)
        assert plan.encoding() == expected_plan.encoding()
        assert objective == expected_objective
        assert stats["table_profiles"] > 0

    def test_every_isolated_dense_candidate_matches_evaluate_plan(self):
        # Within-group weights only, in a dense matrix: every candidate is
        # assembled from the table, whose full-N rows keep the gemv's rounding.
        base = isolated_base(2, [1, 4, 6], True, 0.05)
        search = _LatticeSearch(base, 10.0, 3.0, [0.25, 0.5], 1.5)
        candidates = [
            a for a in itertools.product(search.levels, repeat=len(search.cells)) if search.feasible(a)
        ]
        search.score_all(candidates)
        # Each group's 3 ** 2 slot profiles, one kernel row per profile.
        assert search.kernel_rows == 3**2
        for assignment in candidates:
            assert search.score(assignment) == evaluate_plan(search.plan_for(assignment), base, 1.5), assignment

    def test_search_builds_no_scenario_per_candidate(self, monkeypatch):
        calls = {"simulate": 0, "apply_plan": 0, "validate_plan": 0}
        for name in calls:
            original = getattr(planner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(planner, name, counted)
        # A zero requirement is the all-zero assignment, scored like any other.
        for required_energy in (2.0, 0.0):
            calls.update(dict.fromkeys(calls, 0))
            plan_shedding(
                small_base(n_groups=2, horizon=4.0), required_energy, 1.0, [0.0, 0.5], strategy="exhaustive"
            )
            assert calls == {"simulate": 0, "apply_plan": 0, "validate_plan": 1}, required_energy


def isolated_base(seed: int, sizes: list[int], dense: bool, rate_floor: float, symmetric: bool = False) -> Scenario:
    """Groups of the given sizes and no cross-group weight: a group block, or
    a dense matrix of random within-group weights. Unless ``symmetric``,
    groups are shuffled, base electricity has breakpoints off the slot grid
    and media access lies below 1."""
    rng = np.random.default_rng(seed)
    horizon = 6.0
    groups = np.repeat(np.arange(len(sizes)), sizes)
    if not symmetric:
        rng.shuffle(groups)
    n = groups.size
    if dense:
        weights = np.where(groups[:, None] == groups[None, :], rng.uniform(0.2, 2.0, size=(n, n)), 0.0)
        np.fill_diagonal(weights, 0.0)
        if symmetric:
            weights = np.where(weights > 0.0, 1.5, 0.0)
        network = ContagionNetwork(n, weights, groups)
    else:
        network = ContagionNetwork.full_within_groups(groups, 1.0)
    # Dissatisfaction starts low and shedding raises it, so the peak, and not
    # only the unfairness, depends on the plan.
    if symmetric:
        electricity = (PiecewiseSchedule.constant(0.8, horizon),) * n
        media = (PiecewiseSchedule.constant(0.8, horizon),) * n
        initial = np.full(n, 0.1)
    else:
        electricity = tuple(
            PiecewiseSchedule(((0.0, 0.9), (1.5, float(low)), (4.5, 0.8)), horizon)
            for low in rng.uniform(0.3, 1.0, size=n)
        )
        media = tuple(PiecewiseSchedule.constant(float(a), horizon) for a in rng.uniform(0.5, 1.0, size=n))
        initial = rng.uniform(0.0, 0.3, size=n)
    return Scenario(
        params=ModelParams(horizon_hours=horizon, omega1=0.6, omega2=0.4, dt_hours=0.25, rate_floor=rate_floor),
        network=network,
        electricity=electricity,
        media_access=media,
        initial_dissatisfaction=initial,
        label="isolated",
    )


def streaming_best(search: _LatticeSearch) -> tuple[tuple[float, ...], PlanObjective]:
    """Exhaustive search without decomposition or table: every feasible
    candidate simulated through the kernel. The least (combined, assignment)
    and its objective."""
    lattice = filter(search.feasible, itertools.product(search.levels, repeat=len(search.cells)))
    best = None
    while block := list(itertools.islice(lattice, search._block)):
        recorded = search._simulate(search._profiles(block))
        for assignment, objective in zip(block, _block_objectives(recorded, search._members, search.fairness_weight)):
            if best is None or (objective.combined, assignment) < (best[1].combined, best[0]):
                best = (assignment, objective)
    return best


class TestDecomposedSearch:
    """On group-isolated networks exhaustive search simulates each group's
    slot profiles once and scores only the near-best combinations, assembled
    from a (group, profile) table; it must choose exactly what simulating
    every feasible candidate through the kernel chooses."""

    @pytest.mark.parametrize(
        "seed, sizes, dense, rate_floor, fairness_weight, levels, granularity, share",
        [
            (1, [2, 3, 5], False, 0.0, 1.0, [0.5], 2.0, 0.4),
            (2, [1, 4, 6], True, 0.05, 0.0, [0.25, 0.5], 3.0, 0.3),
            (3, [3, 3, 2], True, 0.0, 24.0, [0.5], 2.0, 0.5),
            (4, [5, 1, 2, 3], False, 0.05, 24.0, [0.5], 3.0, 0.25),
            (5, [9, 2], True, 0.02, 1.0, [0.25, 0.5], 2.0, 0.6),
            (6, [1, 1, 7], False, 0.0, 0.0, [0.25, 0.5], 3.0, 0.7),
        ],
    )
    def test_matches_streaming_search(self, seed, sizes, dense, rate_floor, fairness_weight, levels, granularity, share):
        base = isolated_base(seed, sizes, dense, rate_floor)
        assert isinstance(base.network.operator, Dense) == dense
        required = share * _LatticeSearch(base, 0.0, granularity, levels, fairness_weight).max_energy
        self._check(base, required, granularity, levels, fairness_weight)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("fairness_weight, required", [(1.0, 9.0), (1.0, 13.5), (0.0, 13.5), (24.0, 4.5)])
    def test_symmetric_ties_match_streaming_search(self, dense, fairness_weight, required):
        # Identical groups: every permutation of a plan across groups ties.
        base = isolated_base(0, [3, 3, 3], dense, 0.0, symmetric=True)
        stats = self._check(base, required, 2.0, [0.5], fairness_weight)
        # Only the P = 2 ** 3 slot profiles run through the kernel; however
        # many candidates tie, each is assembled from the table.
        assert stats["kernel_rows"] == 2**3

    @staticmethod
    def _check(base, required, granularity, levels, fairness_weight):
        stats = {}
        plan, objective = plan_shedding(
            base, required, granularity, levels, fairness_weight=fairness_weight, stats=stats
        )
        streaming = _LatticeSearch(base, required, granularity, levels, fairness_weight)
        expected, expected_objective = streaming_best(streaming)
        assert plan.encoding() == streaming.plan_for(expected).encoding()
        assert objective == expected_objective
        assert stats["decomposed"]
        return stats

    def test_c6_simulates_profiles_and_ties_only(self):
        stats = {}
        plan, _ = plan_shedding(symmetric_planner_base(horizon=12.0), 9.0, 3.0, [0.0, 0.5], stats=stats)
        assert plan.encoding() == "0:9:3:0.5;1:9:3:0.5;2:9:3:0.5"
        # The 16 slot profiles fill the table for all 3 groups in 16 rows; the
        # 15 candidates tied at the optimum and the final score are assembled
        # from it. Simulating every feasible candidate takes 4083 + 1 rows.
        # Row r gives all 3 groups profile r, and the 9 agents share their
        # schedules and initial state: a row's 3 groups are one bin class
        # and its 9 agents one state.
        assert stats == {"kernel_rows": 16, "kernel_classes": 16, "decomposed": True, "table_profiles": 3 * 16}

    def test_c6_profile_block_matches_golden_digest(self):
        # The (B, T, N) block of every slot profile that _near_best runs on
        # c6, pinned to the bit across commits by the sha256 of its
        # little-endian float64 bytes.
        search = _LatticeSearch(symmetric_planner_base(horizon=12.0), 9.0, 3.0, [0.0, 0.5], 1.0)
        profiles = itertools.product(search.levels, repeat=search.n_slots)
        block = search._simulate([[profile] * search.n_groups for profile in profiles])
        raw = np.ascontiguousarray(block, dtype="<f8")
        assert raw.shape == (16, 13, 9)
        assert hashlib.sha256(raw).hexdigest() == "7be76e227635f88906eaedc37e0155177985052d4f72f5cc605b1fff3c6c0cd4"

    def test_profiles_beyond_one_block_keep_only_near_best_pairs(self):
        # 9 slot profiles in kernel blocks of 2: the profile rows are not
        # kept, and the table holds only the near-best candidates' pairs.
        base = isolated_base(2, [1, 4, 6], True, 0.05)
        required = 0.3 * _LatticeSearch(base, 0.0, 3.0, [0.25, 0.5], 0.0).max_energy
        searches = [_LatticeSearch(base, required, 3.0, [0.25, 0.5], 0.0) for _ in range(3)]
        for search in searches:
            search._block = 2
        search, probe, streaming = searches
        near = list(probe._near_best())
        n = search.n_slots
        pairs = {(g, a[g * n : (g + 1) * n]) for a in near for g in range(search.n_groups)}
        assert len(pairs) < search.n_groups * 3**n
        assert search.exhaustive() == streaming_best(streaming)[0]
        assert set(search._table) == pairs

    def test_one_group_streams_without_a_table(self):
        # One group of 2 agents, 4 slots at levels {0, 0.5}: a shed cell gives
        # 1.0 of energy, so the 11 candidates shedding 2 or more cells are
        # feasible. Each is simulated, then the final score: 12 rows, each
        # one state, as both agents share everything.
        stats = {}
        plan_shedding(small_base(n_groups=1), 2.0, 1.0, [0.0, 0.5], stats=stats)
        assert stats == {"kernel_rows": 11 + 1, "kernel_classes": 11 + 1, "decomposed": False, "table_profiles": 0}

    def test_eighteen_cell_lattice(self):
        # 3 groups x 6 slots x 2 levels: 2**18 candidates, 249528 of them
        # feasible. Streaming every one gives this same plan.
        search = _LatticeSearch(symmetric_planner_base(horizon=6.0), 9.0, 1.0, [0.0, 0.5], 1.0)
        assert search.exhaustive() == (0.0, 0.0, 0.0, 0.0, 0.5, 0.5) * 3
        assert search.decomposed
        # 64 slot profiles fill the table; the 57 candidates tied at the
        # optimum are assembled from it.
        assert search.kernel_rows == 64

    def test_coupled_network_streams_every_feasible_candidate(self):
        base = coupled_base(seed=3)
        search = _LatticeSearch(base, 0.0, 6.0, [0.0, 0.5], 1.0)
        required = 0.3 * search.max_energy
        feasible = sum(
            _LatticeSearch(base, required, 6.0, [0.0, 0.5], 1.0).feasible(a)
            for a in itertools.product(search.levels, repeat=len(search.cells))
        )
        stats = {}
        plan_shedding(base, required, 6.0, [0.0, 0.5], stats=stats)
        # A dense network keeps one state per agent. A coupled network has no table.
        assert stats == {
            "kernel_rows": feasible + 1,
            "kernel_classes": 24 * (feasible + 1),
            "decomposed": False,
            "table_profiles": 0,
        }

    def test_feasibility_is_exactly_the_cell_order_sum(self):
        # 0.1 h slots and levels {0.1, 0.3}: the cell-order energy sums of
        # candidates with one true energy round to different floats, and the
        # requirement sits on one of them. Without deprivation (omega1 = 0)
        # every candidate ties, so the search yields every candidate it takes
        # to be feasible.
        horizon = 0.4
        groups = [0, 1, 1]
        base = Scenario(
            params=ModelParams(horizon_hours=horizon, omega1=0.0, omega2=0.5, report_every_hours=0.2),
            network=ContagionNetwork.full_within_groups(groups, 1.0),
            electricity=(PiecewiseSchedule.constant(1.0, horizon),) * 3,
            media_access=(PiecewiseSchedule.constant(1.0, horizon),) * 3,
            initial_dissatisfaction=np.array([0.2, 0.5, 0.9]),
        )
        probe = _LatticeSearch(base, 0.0, 0.1, [0.1, 0.3], 1.0)
        lattice = list(itertools.product(probe.levels, repeat=len(probe.cells)))
        near = [a for a in lattice if abs(probe.energy_of(a) - 0.12) < 1e-12]
        # Summed group by group, these energies round differently again.
        by_group = [probe.energy_of(a[:4] + (0.0,) * 4) + probe.energy_of((0.0,) * 4 + a[4:]) for a in near]
        assert by_group != [probe.energy_of(a) for a in near]
        energies = sorted({probe.energy_of(a) for a in near})
        assert len(energies) == 3
        search = _LatticeSearch(base, energies[1] + 1e-9, 0.1, [0.1, 0.3], 1.0)
        feasible = [a for a in lattice if search.feasible(a)]
        assert {search.feasible(a) for a in near} == {True, False}
        assert list(search._near_best()) == feasible
        assert search.kernel_rows == 3**4


class TestPlanDocuments:
    def test_round_trip(self):
        plan = SheddingPlan(
            slots=(
                SheddingSlot(group=1, start_hour=3.0, duration_hours=3.0, shed_level=0.5),
                SheddingSlot(group=0, start_hour=0.0, duration_hours=3.0, shed_level=0.25),
            ),
            granularity_hours=3.0,
        )
        doc = plan_to_dict(plan)
        assert doc["schema_version"] == 1
        restored = plan_from_dict(doc)
        assert restored == plan
        assert restored.encoding() == plan.encoding()

    def test_slots_canonically_sorted(self):
        plan = SheddingPlan(
            slots=(
                SheddingSlot(group=1, start_hour=0.0, duration_hours=1.0, shed_level=0.5),
                SheddingSlot(group=0, start_hour=2.0, duration_hours=1.0, shed_level=0.5),
                SheddingSlot(group=0, start_hour=0.0, duration_hours=1.0, shed_level=0.5),
            ),
            granularity_hours=1.0,
        )
        assert [(s.group, s.start_hour) for s in plan.slots] == [(0, 0.0), (0, 2.0), (1, 0.0)]

    def test_rejects_malformed_document(self):
        with pytest.raises(ValidationError) as excinfo:
            plan_from_dict({"schema_version": 2, "granularity_hours": "x", "slots": [{"group": 0}]})
        assert len(excinfo.value.violations) == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("group", 1.7),
            ("group", True),
            ("group", "x"),
            ("group", 1.0),
            ("start_hour", "2"),
            ("start_hour", float("nan")),
            ("duration_hours", float("inf")),
            ("shed_level", None),
        ],
    )
    def test_rejects_slot_fields_without_coercion(self, field, value):
        slot = {"group": 1, "start_hour": 0.0, "duration_hours": 3.0, "shed_level": 0.5}
        doc = {"schema_version": 1, "granularity_hours": 3.0, "slots": [slot, {**slot, field: value}]}
        with pytest.raises(ValidationError) as excinfo:
            plan_from_dict(doc)
        assert len(excinfo.value.violations) == 1
        assert excinfo.value.violations[0].startswith(f"slots[1].{field} must be ")

"""Search over per-group shedding allocations with the simulator as oracle.

Plans live on a discrete lattice: the horizon splits into slots of
``granularity_hours`` and every (group, slot) cell gets a shed level from a
small discrete set. Discreteness keeps the search space enumerable, so the
exhaustive strategy is a true global optimum over the lattice and can be
checked against independent brute-force enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core_types import PiecewiseSchedule, Scenario, ValidationError
from .dynamics import _contagion_operator, _euler, _sample_schedules, simulate

PLAN_SCHEMA_VERSION = 1


class PlanInfeasibleError(ValidationError):
    """The energy requirement cannot be met even at maximal shedding."""


@dataclass(frozen=True, order=True)
class SheddingSlot:
    """One shedding interval for one group: availability drops by ``shed_level``."""

    group: int
    start_hour: float
    duration_hours: float
    shed_level: float

    @property
    def end_hour(self) -> float:
        return self.start_hour + self.duration_hours


@dataclass(frozen=True)
class SheddingPlan:
    """A set of non-overlapping (per group) shedding slots on a slot lattice."""

    slots: tuple[SheddingSlot, ...]
    granularity_hours: float

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(sorted(self.slots)))

    def total_energy(self, group_sizes: Sequence[int]) -> float:
        """Shed energy in level x hours x agents units."""
        sizes = np.asarray(group_sizes)
        return float(sum(s.shed_level * s.duration_hours * sizes[s.group] for s in self.slots))

    def encoding(self) -> str:
        """Canonical text form, used for tie-breaking and byte-level comparisons."""
        parts = [
            f"{s.group}:{s.start_hour:.9g}:{s.duration_hours:.9g}:{s.shed_level:.9g}"
            for s in self.slots
        ]
        return ";".join(parts)

    @classmethod
    def empty(cls, granularity_hours: float) -> "SheddingPlan":
        return cls(slots=(), granularity_hours=granularity_hours)


@dataclass(frozen=True)
class PlanObjective:
    """Objective components for one plan, all recomputable from the run."""

    peak_mean_dissatisfaction: float
    unfairness: float
    fairness_weight: float
    combined: float


def validate_plan(plan: SheddingPlan, base: Scenario) -> list[str]:
    """Every way the plan is inconsistent with the base scenario."""
    errors: list[str] = []
    horizon = base.params.horizon_hours
    n_groups = base.network.n_groups
    if not plan.granularity_hours > 0.0:
        errors.append(f"granularity_hours must be > 0 (got {plan.granularity_hours!r})")
    for i, slot in enumerate(plan.slots):
        if not 0 <= slot.group < n_groups:
            errors.append(f"slots[{i}].group = {slot.group!r} outside 0..{n_groups - 1}")
        if slot.start_hour < 0.0:
            errors.append(f"slots[{i}].start_hour = {slot.start_hour!r} must be >= 0")
        if not slot.duration_hours > 0.0:
            errors.append(f"slots[{i}].duration_hours = {slot.duration_hours!r} must be > 0")
        if slot.end_hour > horizon + 1e-9:
            errors.append(
                f"slots[{i}] ends at {slot.end_hour!r}, beyond the horizon {horizon!r}"
            )
        if not 0.0 <= slot.shed_level <= 1.0:
            errors.append(f"slots[{i}].shed_level = {slot.shed_level!r} outside [0, 1]")
    by_group: dict[int, list[SheddingSlot]] = {}
    for slot in plan.slots:
        by_group.setdefault(slot.group, []).append(slot)
    for group, slots in sorted(by_group.items()):
        slots.sort()
        for prev, cur in zip(slots, slots[1:]):
            if cur.start_hour < prev.end_hour - 1e-9:
                errors.append(
                    f"group {group} slots overlap: [{prev.start_hour!r}, {prev.end_hour!r}) and "
                    f"[{cur.start_hour!r}, {cur.end_hour!r})"
                )
    return errors


def _shed_level_at(slots: Sequence[SheddingSlot], t: float) -> float:
    for slot in slots:
        if slot.start_hour <= t < slot.end_hour:
            return slot.shed_level
    return 0.0


def _shed_schedule(base: PiecewiseSchedule, slots: Sequence[SheddingSlot]) -> PiecewiseSchedule:
    horizon = base.horizon_hours
    cuts = {s for s, _ in base.breakpoints}
    for slot in slots:
        for edge in (slot.start_hour, slot.end_hour):
            if 0.0 <= edge < horizon:
                cuts.add(edge)
    points: list[tuple[float, float]] = []
    for t in sorted(cuts):
        value = max(0.0, base.value_at(t) - _shed_level_at(slots, t))
        if not points or value != points[-1][1]:
            points.append((t, value))
    return PiecewiseSchedule(tuple(points), horizon)


def apply_plan(base: Scenario, plan: SheddingPlan) -> Scenario:
    """Overlay the plan's shedding on the base electricity schedules.

    While a slot with level L is active, its group's availability drops by L
    (floored at 0). Raises with the full violation list for infeasible plans.
    """
    errors = validate_plan(plan, base)
    if errors:
        raise ValidationError(errors)
    by_group: dict[int, list[SheddingSlot]] = {}
    for slot in plan.slots:
        by_group.setdefault(slot.group, []).append(slot)
    # Agents in the same group with the same base schedule share the merged one.
    cache: dict[tuple[int, PiecewiseSchedule], PiecewiseSchedule] = {}
    merged: list[PiecewiseSchedule] = []
    for agent, sched in enumerate(base.electricity):
        group = int(base.network.group_of[agent])
        slots = by_group.get(group, [])
        if not slots:
            merged.append(sched)
            continue
        key = (group, sched)
        if key not in cache:
            cache[key] = _shed_schedule(sched, slots)
        merged.append(cache[key])
    return Scenario(
        params=base.params,
        network=base.network,
        electricity=tuple(merged),
        media_access=base.media_access,
        initial_dissatisfaction=base.initial_dissatisfaction,
        label=base.label,
    )


def _block_objectives(
    recorded: np.ndarray, members: Sequence[np.ndarray], fairness_weight: float
) -> list[PlanObjective]:
    """Objective of each (T, N) trajectory in a (B, T, N) block.

    Each group's time-mean reduces a contiguous (T, n_g) copy of its members'
    columns, first over agents and then over time. That is the layout of
    ``d[:, groups == g].mean(axis=1).mean()``. The plain gather
    ``recorded[:, :, m].mean(axis=2).mean(axis=1)`` can round differently in
    the last bit once a group has 8 or more members.
    """
    peak = recorded.mean(axis=2).max(axis=1)
    by_agent = recorded.transpose(0, 2, 1)
    time_means = np.column_stack(
        [
            np.ascontiguousarray(
                np.ascontiguousarray(by_agent[:, group]).transpose(0, 2, 1).mean(axis=2)
            ).mean(axis=1)
            for group in members
        ]
    )
    unfairness = time_means.max(axis=1) - time_means.min(axis=1)
    combined = peak + fairness_weight * unfairness
    return [
        PlanObjective(p, u, fairness_weight, c)
        for p, u, c in zip(peak.tolist(), unfairness.tolist(), combined.tolist())
    ]


def evaluate_plan(plan: SheddingPlan, base: Scenario, fairness_weight: float = 1.0) -> PlanObjective:
    """Simulate the base scenario under the plan and score it.

    The objective combines the worst report-time global mean dissatisfaction
    with the spread between the most and least burdened groups (each group's
    time-mean dissatisfaction): peak + fairness_weight * spread.
    """
    if not fairness_weight >= 0.0:
        raise ValidationError([f"fairness_weight must be >= 0 (got {fairness_weight!r})"])
    recorded = simulate(apply_plan(base, plan)).dissatisfaction[None]
    members = [base.network.members(g) for g in range(base.network.n_groups)]
    return _block_objectives(recorded, members, fairness_weight)[0]


# Candidates scored together hold about this many floats of state and recorded
# trajectory (512 KB), which keeps one block's working set to a few MB.
_BLOCK_FLOATS = 1 << 16

# Largest lattice ``exhaustive`` enumerates: about a minute of scoring.
_MAX_EXHAUSTIVE = 1 << 20

# A randomized greedy move is drawn from this many best-scoring candidates.
_SHORTLIST = 3


class _LatticeSearch:
    """Shared state for searches over the (group, slot) shedding lattice.

    Candidates are scored in blocks by the simulation kernel directly: no
    candidate builds a shed ``Scenario`` or a ``SimulationResult``. Each
    agent's deprivation column is sampled once per (base schedule, slot
    profile of its group) and gathered per candidate.
    """

    def __init__(
        self,
        base: Scenario,
        required_energy: float,
        granularity_hours: float,
        levels: Sequence[float],
        fairness_weight: float,
    ):
        errors: list[str] = []
        horizon = base.params.horizon_hours
        if not granularity_hours > 0.0:
            errors.append(f"granularity_hours must be > 0 (got {granularity_hours!r})")
            n_slots = 0
        else:
            n_slots = round(horizon / granularity_hours)
            if n_slots < 1 or abs(n_slots * granularity_hours - horizon) > 1e-9:
                errors.append(
                    f"granularity_hours = {granularity_hours!r} must divide the horizon {horizon!r}"
                )
        level_set = sorted({float(l) for l in levels} | {0.0})
        for level in level_set:
            if not 0.0 <= level <= 1.0:
                errors.append(f"shed level {level!r} outside [0, 1]")
        if errors:
            raise ValidationError(errors)

        self.base = base
        self.required = float(required_energy)
        self.granularity = float(granularity_hours)
        self.levels = level_set
        self.fairness_weight = float(fairness_weight)
        self.n_groups = base.network.n_groups
        self.n_slots = n_slots
        self.cells = [(g, s) for g in range(self.n_groups) for s in range(n_slots)]
        sizes = base.network.group_sizes
        self.cell_energy = [self.granularity * float(sizes[g]) for g, _ in self.cells]
        self.max_energy = max(self.levels) * sum(self.cell_energy)
        # Greedy passes and restarts revisit moves; exhaustive search keeps no memo.
        self._memo: dict[tuple[float, ...], PlanObjective] = {}

        # Every candidate is a sub-plan of the all-top-level plan, at levels
        # already checked to lie in [0, 1], so this one check covers them all.
        errors = validate_plan(self.plan_for([max(self.levels)] * len(self.cells)), base)
        if errors:
            raise ValidationError(errors)

        params = base.params
        self._members = [base.network.members(g) for g in range(self.n_groups)]
        self._access = _sample_schedules(base.media_access, params.dt_hours, params.n_steps)
        # One block holds each row's state plus its recorded report times.
        report_times = params.n_steps // params.steps_per_report + 1
        self._block = max(1, _BLOCK_FLOATS // (base.n_agents * (report_times + 1)))
        self._column_ids: dict[tuple[PiecewiseSchedule, tuple[float, ...]], int] = {}
        self._columns: list[np.ndarray] = []
        self._pull = np.zeros((params.n_steps, 0))
        self._profile_ids: dict[tuple[int, tuple[float, ...]], np.ndarray] = {}

    def plan_for(self, assignment: Sequence[float]) -> SheddingPlan:
        slots = tuple(
            SheddingSlot(
                group=g,
                start_hour=s * self.granularity,
                duration_hours=self.granularity,
                shed_level=level,
            )
            for (g, s), level in zip(self.cells, assignment)
            if level > 0.0
        )
        return SheddingPlan(slots=slots, granularity_hours=self.granularity)

    def energy_of(self, assignment: Sequence[float]) -> float:
        return sum(level * energy for level, energy in zip(assignment, self.cell_energy))

    def feasible(self, assignment: Sequence[float]) -> bool:
        return self.energy_of(assignment) + 1e-9 >= self.required

    def _profile_columns(self, group: int, profile: tuple[float, ...]) -> np.ndarray:
        """Ids of the group members' deprivation columns while its slots take ``profile``.

        A column holds what ``simulate`` would sample after :func:`apply_plan`:
        the same ``_shed_schedule`` overlay, or the base schedule when the
        profile sheds nothing.
        """
        key = (group, profile)
        if key not in self._profile_ids:
            params = self.base.params
            slots = [
                SheddingSlot(group, s * self.granularity, self.granularity, level)
                for s, level in enumerate(profile)
                if level > 0.0
            ]
            ids = []
            for agent in self._members[group]:
                sched = self.base.electricity[agent]
                column = (sched, profile)
                if column not in self._column_ids:
                    shed = _shed_schedule(sched, slots) if slots else sched
                    self._column_ids[column] = len(self._columns)
                    sampled = shed.sample(params.dt_hours, params.n_steps)
                    self._columns.append(params.omega1 * (1.0 - sampled))
                ids.append(self._column_ids[column])
            self._profile_ids[key] = np.array(ids, dtype=np.intp)
        return self._profile_ids[key]

    def _score_block(self, block: Sequence[tuple[float, ...]]) -> list[PlanObjective]:
        base = self.base
        n_slots = self.n_slots
        pull_index = np.empty((len(block), base.n_agents), dtype=np.intp)
        for g, members in enumerate(self._members):
            pull_index[:, members] = [
                self._profile_columns(g, assignment[g * n_slots : (g + 1) * n_slots])
                for assignment in block
            ]
        if self._pull.shape[1] != len(self._columns):
            self._pull = np.column_stack(self._columns)
        d0 = np.broadcast_to(base.initial_dissatisfaction, pull_index.shape)
        operator = _contagion_operator(base.network, len(block))
        recorded, _ = _euler(operator, self._access, self._pull, d0, base.params, pull_index)
        return _block_objectives(recorded, self._members, self.fairness_weight)

    def score_all(self, assignments: Sequence[tuple[float, ...]]) -> None:
        """Score every assignment not yet memoised, in blocks."""
        pending = list(dict.fromkeys(a for a in assignments if a not in self._memo))
        for start in range(0, len(pending), self._block):
            block = pending[start : start + self._block]
            self._memo.update(zip(block, self._score_block(block)))

    def score(self, assignment: Sequence[float]) -> PlanObjective:
        key = tuple(assignment)
        self.score_all([key])
        return self._memo[key]

    def exhaustive(self) -> tuple[float, ...]:
        count = len(self.levels) ** len(self.cells)
        if count > _MAX_EXHAUSTIVE:
            raise ValidationError(
                [
                    f"exhaustive search would enumerate {count} candidates, more than "
                    f"{_MAX_EXHAUSTIVE}; use strategy 'greedy_restarts' or a coarser lattice"
                ]
            )
        # The feasible lattice streams through in blocks; only the best
        # (combined, assignment) is kept, so memory does not grow with it.
        feasible = filter(self.feasible, itertools.product(self.levels, repeat=len(self.cells)))
        best = None
        while block := list(itertools.islice(feasible, self._block)):
            for assignment, objective in zip(block, self._score_block(block)):
                if best is None or (objective.combined, assignment) < best:
                    best = (objective.combined, assignment)
        return best[1]

    def greedy_pass(self, rng: random.Random | None) -> tuple[float, ...]:
        """Raise one cell at a time until feasible, taking the best-scoring move.

        With an rng, each move is drawn from the ``_SHORTLIST`` best candidates
        instead of always the single best; that is the restart randomization.
        All moves of one step are scored together, in blocks.
        """
        assignment = [0.0] * len(self.cells)
        while not self.feasible(assignment):
            moves = []
            for idx, current in enumerate(assignment):
                for level in self.levels:
                    if level <= current:
                        continue
                    trial = list(assignment)
                    trial[idx] = level
                    moves.append((tuple(trial), idx, level))
            self.score_all([trial for trial, _, _ in moves])
            candidates = [(self._memo[t].combined, t, idx, level) for t, idx, level in moves]
            candidates.sort(key=lambda c: (c[0], c[1]))
            chosen = candidates[0] if rng is None else rng.choice(candidates[:_SHORTLIST])
            assignment[chosen[2]] = chosen[3]
        return tuple(assignment)

    def greedy_restarts(self, seed: int, restarts: int) -> tuple[float, ...]:
        rng = random.Random(seed)
        passes = [self.greedy_pass(None)]
        passes.extend(self.greedy_pass(rng) for _ in range(restarts))
        return min(passes, key=lambda a: (self.score(a).combined, a))


def plan_shedding(
    base: Scenario,
    required_energy: float,
    granularity_hours: float,
    shed_levels: Sequence[float],
    strategy: str = "exhaustive",
    seed: int = 0,
    fairness_weight: float = 1.0,
    restarts: int = 8,
) -> tuple[SheddingPlan, PlanObjective]:
    """Find a shedding plan meeting the energy requirement at minimal objective.

    ``exhaustive`` enumerates the full lattice (levels ** (groups x slots)
    candidates) and returns the global optimum, ties broken by the
    lexicographically smallest assignment. ``greedy_restarts`` runs one pure
    greedy pass plus ``restarts`` seeded randomized passes and returns the
    best, so its objective never beats exhaustive but never trails the plain
    greedy baseline. Identical inputs and seed give identical plans.
    """
    if strategy not in ("exhaustive", "greedy_restarts"):
        raise ValidationError([f"strategy must be 'exhaustive' or 'greedy_restarts' (got {strategy!r})"])
    if not fairness_weight >= 0.0:
        raise ValidationError([f"fairness_weight must be >= 0 (got {fairness_weight!r})"])
    search = _LatticeSearch(base, required_energy, granularity_hours, shed_levels, fairness_weight)
    if search.required > search.max_energy + 1e-9:
        raise PlanInfeasibleError(
            [
                f"required_energy = {required_energy!r} exceeds the maximum achievable "
                f"{search.max_energy!r} (all slots at level {max(search.levels)!r})"
            ]
        )
    if search.required <= 0.0:
        assignment = (0.0,) * len(search.cells)
    elif strategy == "exhaustive":
        assignment = search.exhaustive()
    else:
        assignment = search.greedy_restarts(seed, restarts)
    return search.plan_for(assignment), search.score(assignment)


def plan_to_dict(plan: SheddingPlan) -> dict:
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "granularity_hours": plan.granularity_hours,
        "slots": [
            {
                "group": s.group,
                "start_hour": s.start_hour,
                "duration_hours": s.duration_hours,
                "shed_level": s.shed_level,
            }
            for s in plan.slots
        ],
    }


def plan_from_dict(doc: Mapping) -> SheddingPlan:
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValidationError([f"plan document must be a mapping (got {type(doc).__name__})"])
    if doc.get("schema_version") != PLAN_SCHEMA_VERSION:
        errors.append(f"schema_version must be {PLAN_SCHEMA_VERSION} (got {doc.get('schema_version')!r})")
    granularity = doc.get("granularity_hours")
    if not isinstance(granularity, (int, float)) or isinstance(granularity, bool):
        errors.append(f"granularity_hours must be a number (got {granularity!r})")
    raw_slots = doc.get("slots")
    slots: list[SheddingSlot] = []
    if not isinstance(raw_slots, list):
        errors.append("slots must be a list")
    else:
        keys = {"group", "start_hour", "duration_hours", "shed_level"}
        for i, raw in enumerate(raw_slots):
            if not isinstance(raw, Mapping) or set(raw) != keys:
                errors.append(f"slots[{i}] must be a mapping with keys {sorted(keys)}")
                continue
            slots.append(
                SheddingSlot(
                    group=int(raw["group"]),
                    start_hour=float(raw["start_hour"]),
                    duration_hours=float(raw["duration_hours"]),
                    shed_level=float(raw["shed_level"]),
                )
            )
    if errors:
        raise ValidationError(errors)
    return SheddingPlan(slots=tuple(slots), granularity_hours=float(granularity))

"""Search over per-group shedding allocations with the simulator as oracle.

Plans live on a discrete lattice: the horizon splits into slots of
``granularity_hours`` and every (group, slot) cell gets a shed level from a
small discrete set. Discreteness keeps the search space enumerable, so the
exhaustive strategy is a true global optimum over the lattice and can be
checked against independent brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core_types import GroupBlock, Scenario, ValidationError
from .dynamics import _euler, _sample_schedules, simulate
from .plans import SheddingPlan, SheddingSlot, _shed_schedule, apply_plan, validate_plan


class PlanInfeasibleError(ValidationError):
    """The energy requirement cannot be met even at maximal shedding."""


@dataclass(frozen=True)
class PlanObjective:
    """Objective components for one plan, all recomputable from the run."""

    peak_mean_dissatisfaction: float
    unfairness: float
    fairness_weight: float
    combined: float


def _group_time_means(recorded: np.ndarray, members: Sequence[np.ndarray]) -> np.ndarray:
    """(B, G) time-mean dissatisfaction of each group in a (B, T, N) block.

    Each group's time-mean reduces a (T, n_g) copy of its members' columns,
    first over agents and then over time. The copy keeps time innermost, so
    the member axis is strided and the members are added one after another
    in agent order: the layout of ``d[:, groups == g].mean(axis=1).mean()``.
    A copy with the members contiguous would add them pairwise and can round
    differently in the last bit once a group has 8 or more members, and so can
    the plain gather ``recorded[:, :, group]`` with one report time and several rows.
    """
    by_agent = recorded.transpose(0, 2, 1)
    return np.column_stack(
        [np.ascontiguousarray(by_agent[:, group]).transpose(0, 2, 1).mean(axis=2).mean(axis=1) for group in members]
    )


def _block_objectives(
    recorded: np.ndarray, members: Sequence[np.ndarray], fairness_weight: float
) -> list[PlanObjective]:
    """Objective of each (T, N) trajectory in a (B, T, N) block."""
    peak = recorded.mean(axis=2).max(axis=1)
    time_means = _group_time_means(recorded, members)
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
    if not 0.0 <= fairness_weight < math.inf:
        raise ValidationError([f"fairness_weight must be finite and >= 0 (got {fairness_weight!r})"])
    recorded = simulate(apply_plan(base, plan)).dissatisfaction[None]
    members = [base.network.members(g) for g in range(base.network.n_groups)]
    return _block_objectives(recorded, members, fairness_weight)[0]


# Candidates scored together hold about this many floats of state and recorded
# trajectory (512 KB), which keeps one block's working set to a few MB.
_BLOCK_FLOATS = 1 << 16

# Candidates combined together from group profiles hold about this many
# floats of report-time sums (64 KB), so combining adds little to the peak
# memory of a search.
_COMBINE_FLOATS = 1 << 13

# Largest lattice ``exhaustive`` enumerates. On a coupled network that is
# about a minute of scoring; a group-isolated one simulates only each
# group's slot profiles.
_MAX_EXHAUSTIVE = 1 << 20

# A randomized greedy move is drawn from this many best-scoring candidates.
_SHORTLIST = 3


class _LatticeSearch:
    """Shared state for searches over the (group, slot) shedding lattice.

    Candidates are scored in blocks by the simulation kernel directly: no
    candidate builds a shed ``Scenario`` or a ``SimulationResult``. Each
    kernel block samples the deprivation columns its rows need (see
    :meth:`_simulate`); nothing of them is kept between blocks. When no
    weight couples two of several groups, candidates are assembled from a
    table of member trajectories per (group, slot profile) instead.
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
        if math.isnan(required_energy):
            errors.append(f"required_energy must be a number (got {required_energy!r})")
        horizon, dt = base.params.horizon_hours, base.params.dt_hours
        # A slot shorter than a step may hold no step start, yet its energy would count.
        if not granularity_hours >= dt:
            errors.append(f"granularity_hours = {granularity_hours!r} must be at least dt_hours = {dt!r}")
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
        if not 0.0 <= fairness_weight < math.inf:
            errors.append(f"fairness_weight must be finite and >= 0 (got {fairness_weight!r})")
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
        # Deterministic search counters: rows and states advanced through the
        # kernel, and whether exhaustive search took the group-decomposed path.
        self.kernel_rows = 0
        self.kernel_classes = 0
        self.decomposed = False

        # Every candidate is a sub-plan of the all-top-level plan, at levels
        # already checked to lie in [0, 1], so this one check covers them all.
        errors = validate_plan(self.plan_for([max(self.levels)] * len(self.cells)), base)
        if errors:
            raise ValidationError(errors)

        params = base.params
        self._members = [base.network.members(g) for g in range(self.n_groups)]
        self._access, self._access_index = _sample_schedules([base._schedule_sets[1]], params.dt_hours, params.n_steps)
        # One block holds each row's state plus its recorded report times.
        self._report_times = params.n_steps // params.steps_per_report + 1
        self._block = max(1, _BLOCK_FLOATS // (base.n_agents * (self._report_times + 1)))
        self._electricity, self._electricity_index = base._schedule_sets[0]
        # With one group the slot profiles are the candidates themselves, and
        # a table would only copy each candidate's trajectory.
        self._isolated = self.n_groups > 1 and self._group_isolated()
        # (group, slot profile) -> the (T, n_g) trajectories of the group's members.
        self._table: dict[tuple[int, tuple[float, ...]], np.ndarray] = {}

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

    def _profiles(self, block: Sequence[tuple[float, ...]]) -> list[list[tuple[float, ...]]]:
        """Each assignment of a block as its groups' slot profiles."""
        n = self.n_slots
        return [[assignment[g * n : (g + 1) * n] for g in range(self.n_groups)] for assignment in block]

    def _fill(self, rows: Sequence[Sequence[tuple[float, ...]]]) -> None:
        """Run the (group, profile) pairs of ``rows`` missing from the table through the kernel.

        Kernel row r gives each group its r-th missing profile, or the
        all-zero profile once it has none left. A row spans all N agents, so
        a dense network keeps the rounding of its full matrix-vector product.
        """
        if not self._isolated:
            return
        missing = [
            [p for p in dict.fromkeys(row[g] for row in rows) if (g, p) not in self._table]
            for g in range(self.n_groups)
        ]
        fills = list(itertools.zip_longest(*missing, fillvalue=(0.0,) * self.n_slots))
        for start in range(0, len(fills), self._block):
            chunk = fills[start : start + self._block]
            self._keep(chunk, self._simulate(chunk))

    def _keep(self, rows: Sequence[Sequence[tuple[float, ...]]], recorded: np.ndarray) -> None:
        """Add the member columns of each row's (group, profile) pairs the table lacks."""
        for trajectory, row in zip(recorded, rows):
            for g, profile in enumerate(row):
                if (g, profile) not in self._table:
                    self._table[g, profile] = trajectory[:, self._members[g]]

    def _simulate(self, rows: Sequence[Sequence[tuple[float, ...]]]) -> np.ndarray:
        """(B, T, N) trajectories of rows of group profiles, advanced together by the kernel.

        The block samples each (base schedule, slot profile) deprivation
        column its rows use once, into a (steps, K) table of its own. A
        column holds what ``simulate`` would sample after :func:`apply_plan`:
        the same ``_shed_schedule`` overlay, or the base schedule when the
        profile sheds nothing.
        """
        base, params = self.base, self.base.params
        columns: dict[tuple[int, tuple[float, ...]], int] = {}
        pull_index = np.empty((len(rows), base.n_agents), dtype=np.intp)
        for g, members in enumerate(self._members):
            picks = self._electricity_index[members].tolist()
            profiles = dict.fromkeys(row[g] for row in rows)
            ids = {p: [columns.setdefault((k, p), len(columns)) for k in picks] for p in profiles}
            pull_index[:, members] = [ids[row[g]] for row in rows]
        pull = np.empty((params.n_steps, len(columns)))
        for (k, profile), column in columns.items():
            # The overlay reads a slot's hours and level, not its group.
            slots = [
                SheddingSlot(0, s * self.granularity, self.granularity, level)
                for s, level in enumerate(profile)
                if level > 0.0
            ]
            sched = self._electricity[k]
            shed = _shed_schedule(sched, slots) if slots else sched
            pull[:, column] = params.omega1 * (1.0 - shed.sample(params.dt_hours, params.n_steps))
        d0 = np.broadcast_to(base.initial_dissatisfaction, pull_index.shape)
        recorded, expand, _ = _euler(base.network, self._access, self._access_index, pull, pull_index, d0, params)
        self.kernel_rows += len(rows)
        self.kernel_classes += recorded.shape[1]
        return np.ascontiguousarray(recorded[:, expand].transpose(1, 0, 2))

    def _objectives(self, rows: Sequence[Sequence[tuple[float, ...]]]) -> list[PlanObjective]:
        """Objective of each row of group profiles: assembled from the table,
        once :meth:`_fill` has added its pairs, or simulated if there is none."""
        if self._isolated:
            recorded = np.empty((len(rows), self._report_times, self.base.n_agents))
            for g, members in enumerate(self._members):
                recorded[:, :, members] = np.stack([self._table[g, row[g]] for row in rows])
        else:
            recorded = self._simulate(rows)
        return _block_objectives(recorded, self._members, self.fairness_weight)

    def _scored(
        self, chunks: Iterable[Sequence[tuple[float, ...]]]
    ) -> Iterator[tuple[tuple[float, ...], PlanObjective]]:
        """Each assignment of each chunk with its objective.

        The table first takes the missing pairs of the whole chunk, so that
        they share kernel rows; the chunk is then scored in blocks.
        """
        for chunk in chunks:
            rows = self._profiles(chunk)
            self._fill(rows)
            for start in range(0, len(chunk), self._block):
                end = start + self._block
                yield from zip(chunk[start:end], self._objectives(rows[start:end]))

    def score_all(self, assignments: Sequence[tuple[float, ...]]) -> None:
        """Score every assignment not yet memoised, as one chunk."""
        pending = list(dict.fromkeys(a for a in assignments if a not in self._memo))
        self._memo.update(self._scored([pending]))

    def score(self, assignment: Sequence[float]) -> PlanObjective:
        key = tuple(assignment)
        self.score_all([key])
        return self._memo[key]

    def exhaustive(self) -> tuple[float, ...]:
        count = len(self.levels) ** len(self.cells)
        if count > _MAX_EXHAUSTIVE:
            if count < 10**20:
                shown = f"{count}"
            else:
                digits = math.floor(len(self.cells) * math.log10(len(self.levels))) + 1
                shown = f"{len(self.levels)} ** {len(self.cells)} ({digits} digits)"
            raise ValidationError(
                [
                    f"exhaustive search would enumerate {shown} candidates, more than "
                    f"{_MAX_EXHAUSTIVE}; use strategy 'greedy_restarts' or a coarser lattice"
                ]
            )
        self.decomposed = self._isolated
        if self.decomposed:
            return self._best_of(self._near_best())
        return self._best_of(
            filter(self.feasible, itertools.product(self.levels, repeat=len(self.cells)))
        )

    def _best_of(self, candidates: Iterator[tuple[float, ...]]) -> tuple[float, ...]:
        """The least ``(combined, assignment)`` of the candidates.

        They are scored in blocks and only the best is kept. The table, if
        any, grows with their distinct (group, profile) pairs, at most
        ``G * P``; no other memory grows with their number.
        """
        blocks = iter(lambda: list(itertools.islice(candidates, self._block)), [])
        return min(self._scored(blocks), key=lambda scored: (scored[1].combined, scored[0]))[0]

    def _group_isolated(self) -> bool:
        """True when no weight couples two groups.

        A group's trajectory then depends only on its own slots: a group
        block sums each group on its own, and a dense product adds exact
        zeros for every other group's agents.
        """
        operator = self.base.network.operator
        if isinstance(operator, GroupBlock):
            return True
        within = sum(np.count_nonzero(operator.matrix[np.ix_(m, m)]) for m in self._members)
        # A Python bool: ``decomposed`` is written to objective.json.
        return bool(within == np.count_nonzero(operator.matrix))

    def _near_best(self) -> Iterator[tuple[float, ...]]:
        """Every feasible assignment that may be the optimum, for a group-isolated network.

        All ``P = levels ** slots`` slot profiles run through the kernel in
        blocks, row r giving every group profile r, each block with the
        deprivation columns of its own profiles only; when they fit in one
        block, the table keeps them. A group's columns in that row are
        bit-identical to its columns in any candidate where it takes profile
        r, so each group's time-mean, and with it every candidate's
        unfairness, is exact. A candidate's peak is estimated from the group
        sums at each report time, its energy from the group energies, and
        the ``P ** G`` candidates are walked in lexicographic order, in chunks.

        Both estimates sum the same nonnegative terms in another order. With
        u = 2**-53, a sum in which no term passes through more than k
        roundings is within gamma_k = k u / (1 - k u) of the exact sum,
        relative to it.

        - Energy: a cell's product and at most K - 1 additions over the K
          cells, so the estimate and :meth:`energy_of` differ by at most
          2 gamma_K times the energy, itself at most ``max_energy``. A
          candidate whose estimate lies within ``slack = 4 (K + 2) u
          (max_energy + 1e-9)`` of the threshold is checked with
          :meth:`feasible`; the rest of the slack covers the roundings of
          the two comparisons. Feasibility is therefore exactly
          :meth:`feasible`.
        - Peak: a global mean of N values in [0, 1] takes at most N - 1
          additions, in the kernel's sum over agents or in each group's sum
          followed by the sum over groups ((n_g - 1) + (G - 1) <= N - 1), and
          one division, so each lies within gamma_N of the exact mean and
          the two peaks differ by at most 2 gamma_N.
        - Combined: adding the exact fairness term rounds once more on each
          side, by at most u (1 + fairness_weight), since peak and
          unfairness lie in [0, 1]. So ``margin = 2 gamma_N + 4 u (1 +
          fairness_weight)`` bounds the estimate's error, with room for the
          rounding of the fairness term and of the bound below.

        The optimum's estimate is then at most the least estimate plus twice
        the margin, so every feasible candidate under that bound is yielded,
        in lexicographic order, to be assembled from the table (filled with
        any pair it lacks) and scored exactly. The lattice is walked once: a
        chunk keeps (16 bytes each) its feasible candidates under the bound
        of the least estimate so far, which is never below the final bound.
        """
        n_groups, n_agents = self.n_groups, self.base.n_agents
        profiles = list(itertools.product(self.levels, repeat=self.n_slots))
        n_profiles = len(profiles)
        sums, time_means = [], []
        for start in range(0, n_profiles, self._block):
            rows = [[profile] * n_groups for profile in profiles[start : start + self._block]]
            recorded = self._simulate(rows)
            sums.append(np.stack([recorded[:, :, m].sum(axis=2) for m in self._members]))
            time_means.append(_group_time_means(recorded, self._members).T)
            # Keeping the profiles costs no more than this one block; a larger
            # lattice fills the table with the near-best candidates' pairs only.
            if n_profiles <= self._block:
                self._keep(rows, recorded)
        # Per group and profile: (G, P, T) sums at each report time, (G, P)
        # time-means and (G, P) energies.
        sums, time_means = np.concatenate(sums, axis=1), np.concatenate(time_means, axis=1)
        table = np.array(profiles)
        energy = np.reshape(self.cell_energy, (n_groups, self.n_slots)) @ table.T

        u = 2.0**-53  # float64's unit roundoff, the relative error of one rounding
        margin = 2.0 * n_agents * u / (1.0 - n_agents * u) + 4.0 * u * (1.0 + self.fairness_weight)
        slack = 4.0 * (len(self.cells) + 2) * u * (self.max_energy + 1e-9)
        threshold = self.required - 1e-9
        shape = (n_profiles,) * n_groups
        total = n_profiles**n_groups
        chunk = max(1, _COMBINE_FLOATS // sums.shape[2])

        def assignments(flat: np.ndarray) -> Iterator[tuple[float, ...]]:
            rows = table[np.stack(np.unravel_index(flat, shape))].transpose(1, 0, 2)
            return map(tuple, rows.reshape(flat.size, len(self.cells)).tolist())

        least, kept = math.inf, []
        for start in range(0, total, chunk):
            flat = np.arange(start, min(start + chunk, total))
            digits = np.unravel_index(flat, shape)
            shed = sum(e[d] for e, d in zip(energy, digits))
            feasible = shed >= threshold + slack
            border = np.flatnonzero(~feasible & (shed >= threshold - slack))
            if border.size:
                feasible[border] = list(map(self.feasible, assignments(flat[border])))
            flat = flat[feasible]
            digits = [d[feasible] for d in digits]
            peak = sum(s[d] for s, d in zip(sums, digits)).max(axis=1) / n_agents
            means = np.stack([t[d] for t, d in zip(time_means, digits)])
            combined = peak + self.fairness_weight * (means.max(axis=0) - means.min(axis=0))
            least = combined.min(initial=least)
            near = combined <= least + 2.0 * margin
            kept.append((flat[near], combined[near]))
        bound = least + 2.0 * margin
        for flat, combined in kept:
            # Built a chunk at a time: when every candidate ties, all are kept.
            yield from assignments(flat[combined <= bound])

    def greedy_pass(self, rng: random.Random | None) -> tuple[float, ...]:
        """Raise one cell at a time until feasible, taking the best-scoring move.

        With an rng, each move is drawn from the ``_SHORTLIST`` best candidates
        instead of always the single best; that is the restart randomization.
        All moves of one step are scored together, in blocks.
        """
        assignment = (0.0,) * len(self.cells)
        while not self.feasible(assignment):
            moves = [
                assignment[:idx] + (level,) + assignment[idx + 1 :]
                for idx, current in enumerate(assignment)
                for level in self.levels
                if level > current
            ]
            self.score_all(moves)
            moves.sort(key=lambda move: (self._memo[move].combined, move))
            assignment = moves[0] if rng is None else rng.choice(moves[:_SHORTLIST])
        return assignment

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
    stats: dict | None = None,
) -> tuple[SheddingPlan, PlanObjective]:
    """Find a shedding plan meeting the energy requirement at minimal objective.

    ``exhaustive`` searches the full lattice (levels ** (groups x slots)
    candidates) and returns the global optimum, ties broken by the
    lexicographically smallest assignment. When no weight couples two
    groups, each group's slot profiles are simulated once and combined, and
    only the candidates within a float-error margin of the best combination
    are assembled from a table of (group, slot profile) trajectories and
    scored exactly; otherwise every feasible candidate is simulated.
    ``greedy_restarts`` runs one pure greedy pass plus ``restarts`` seeded
    randomized passes and returns the best, so its objective never beats
    exhaustive but never trails the plain greedy baseline; with isolated
    groups its moves come from such a table. Identical inputs and seed give
    identical plans.

    ``stats``, if given, receives the search counters: ``kernel_rows``, the
    rows simulated (on a group-isolated network with two or more groups the
    profile rows and the table's fills, elsewhere every candidate scored,
    the returned plan's final scoring included), ``kernel_classes``, the
    kernel states those rows took (one per class of interchangeable agents
    on a group block, one per agent on a dense network), ``decomposed``,
    whether exhaustive search combined group profiles, and
    ``table_profiles``, the (group, slot profile) pairs in the table (0 on a
    coupled network or with one group).
    """
    if strategy not in ("exhaustive", "greedy_restarts"):
        raise ValidationError([f"strategy must be 'exhaustive' or 'greedy_restarts' (got {strategy!r})"])
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
    objective = search.score(assignment)
    if stats is not None:
        stats.update(
            kernel_rows=search.kernel_rows, kernel_classes=search.kernel_classes,
            decomposed=search.decomposed, table_profiles=len(search._table),
        )
    return search.plan_for(assignment), objective

"""Shared domain vocabulary: schedules, network, parameters, scenarios, results.

Everything in this module is immutable after construction and safe to share
read-only across parallel workers. All state variables live on [0, 1];
satisfaction is always the derived view ``1 - dissatisfaction`` and is never
stored as independent state.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Agent ids are dense indices 0..N-1, stable for the lifetime of a scenario.
AgentId = int

# The byte encoding that Scenario.content_digest hashes; manifests record it.
DIGEST_FORMAT = 2


class ValidationError(ValueError):
    """Invalid domain object. ``violations`` lists every broken invariant."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _is_number(value: object) -> bool:
    """A finite int or float, and not a bool (JSON ``true`` is not 1)."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_unit(value: float, name: str, errors: list[str]) -> None:
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        errors.append(f"{name} must be in [0, 1] (got {value!r})")


def _bits(points: Sequence[tuple[float, float]]) -> bytes:
    """The breakpoints' little-endian float64 bits, so that ``-0.0`` and ``0.0`` differ."""
    return struct.pack(f"<{2 * len(points)}d", *chain.from_iterable(points))


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PiecewiseSchedule:
    """Piecewise-constant signal in [0, 1] over the time span [0, horizon_hours).

    ``breakpoints`` are (start_hour, value) pairs; each value holds on the
    left-closed interval [start_i, start_{i+1}). The first breakpoint must sit
    at hour 0 and starts must be strictly increasing.
    """

    breakpoints: tuple[tuple[float, float], ...]
    horizon_hours: float

    def __post_init__(self):
        try:
            pairs = tuple((s, v) for s, v in self.breakpoints)
        except (TypeError, ValueError):
            raise ValidationError([f"breakpoints must be (start_hour, value) pairs (got {self.breakpoints!r})"])
        errors: list[str] = []
        for i, (start, value) in enumerate(pairs):
            if not _is_number(start):
                errors.append(f"breakpoints[{i}].start_hour must be a finite number (got {start!r})")
            _check_unit(value, f"breakpoints[{i}].value", errors)
        if not (_is_number(self.horizon_hours) and self.horizon_hours > 0.0):
            errors.append(f"horizon_hours must be > 0 (got {self.horizon_hours!r})")
        if errors:
            raise ValidationError(errors)
        points = tuple((float(s), float(v)) for s, v in pairs)
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "horizon_hours", float(self.horizon_hours))
        if not points:
            errors.append("breakpoints must be nonempty")
        else:
            if points[0][0] != 0.0:
                errors.append(f"first breakpoint must start at hour 0 (got {points[0][0]!r})")
            for i, (start, _) in enumerate(points):
                if i > 0 and not (start > points[i - 1][0]):
                    errors.append(
                        f"breakpoints[{i}].start_hour = {start!r} must exceed the previous start {points[i - 1][0]!r}"
                    )
                if start >= self.horizon_hours and i > 0:
                    errors.append(
                        f"breakpoints[{i}].start_hour = {start!r} must lie inside [0, {self.horizon_hours!r})"
                    )
        if errors:
            raise ValidationError(errors)

    def value_at(self, t: float) -> float:
        """Value of the unique segment containing ``t`` (left-closed)."""
        if not (0.0 <= t < self.horizon_hours):
            raise ValueError(f"t = {t!r} outside schedule span [0, {self.horizon_hours!r})")
        return self.breakpoints[bisect_right(self.breakpoints, (t, math.inf)) - 1][1]

    def sample(self, dt: float, n_steps: int) -> np.ndarray:
        """Values on the step grid 0, dt, ..., (n_steps-1)*dt."""
        grid = np.arange(n_steps) * dt
        starts, values = np.array(self.breakpoints).T
        return values[np.searchsorted(starts, grid, side="right") - 1]

    @classmethod
    def constant(cls, value: float, horizon_hours: float) -> "PiecewiseSchedule":
        return cls(((0.0, value),), horizon_hours)


def _distinct(schedules: Sequence[PiecewiseSchedule]) -> tuple[list[PiecewiseSchedule], np.ndarray]:
    """The schedules with distinct breakpoint bits (``-0.0`` is not ``0.0``), in
    order of first appearance, and each item's (N,) intp index into them.

    A scenario's schedules share one horizon, so the bits decide. Each
    distinct object is keyed once, so shared ones cost one lookup.
    """
    first: dict[bytes, tuple[int, PiecewiseSchedule]] = {}
    picks = {
        key: first.setdefault(_bits(sched.breakpoints), (len(first), sched))[0]
        for key, sched in dict(zip(map(id, schedules), schedules)).items()
    }
    index = np.fromiter(map(picks.__getitem__, map(id, schedules)), np.intp, len(schedules))
    return [sched for _, sched in first.values()], index


@dataclass(frozen=True)
class GroupBlock:
    """All-to-all ``weight`` within each group, zero across groups and on the diagonal."""

    weight: float


@dataclass(frozen=True, eq=False)
class Dense:
    """An explicit N x N base weight matrix (read-only)."""

    matrix: np.ndarray


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct items of ``values``, ascending.

    A plain ``np.unique`` would take numpy 2.4's hash path, which first asks
    ``np.ma.is_masked`` and so imports ``numpy.ma`` (10 to 23 ms and 1.2 MB
    in a fresh process); asking for the counts takes the sort path instead.
    """
    return np.unique(values, return_counts=True)[0]


def _group_ids(n: int, group_of: object, errors: list[str]) -> np.ndarray | None:
    """``group_of`` as a read-only int array of dense ids 0..G-1, or None after adding errors."""
    try:
        groups = np.asarray(group_of)
        if groups.shape != (n,):
            errors.append(f"group_of must have shape ({n},) (got {groups.shape})")
            return None
        if not np.all(groups == groups.astype(int)):
            errors.append("group_of must hold integer group ids")
            return None
        groups = np.array(groups, dtype=int, copy=True)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"group_of must hold integer group ids (got {group_of!r})")
        return None
    if (groups < 0).any():
        errors.append("group ids must be nonnegative")
        return None
    present = _sorted_distinct(groups)
    if present.size and present[-1] != present.size - 1:
        # A stray large id would leave millions missing: then name the first ids past n.
        if present[-1] + 1 - present.size > n:
            detail = f"got ids {present[present >= n][:3].tolist()} for n_agents = {n}"
        else:
            detail = f"missing groups {np.setdiff1d(np.arange(present[-1] + 1), present).tolist()}"
        errors.append(f"group ids must be dense 0..G-1 ({detail})")
        return None
    groups.setflags(write=False)
    return groups


def _group_layout(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked group ids as read-only ``(order, sizes, starts)``: the agents by group, in
    agent order within one (a stable argsort), each group's size and its start in ``order``."""
    sizes = np.bincount(groups)
    layout = np.argsort(groups, kind="stable"), sizes, np.cumsum(sizes) - sizes
    for array in layout:
        array.setflags(write=False)
    return layout


# Entries of the boolean within-group mask that _as_group_block builds at once.
_MASK_ITEMS = 1 << 16


def _as_group_block(weights: np.ndarray, groups: np.ndarray) -> GroupBlock | None:
    """The group block whose matrix is ``weights`` bit for bit, if there is one.

    Bits, not values, are compared, so a ``-0.0`` entry is not taken for
    ``0.0``: equal matrices then have equal digests and one arithmetic path.
    Without any nonzero entry the block's weight is moot and set to 0.
    A block has as many nonzero entries as within-group pairs, so most dense
    matrices fail on that count alone; otherwise the within-group pairs are
    checked a few rows at a time, so that no N x N mask is built.
    """
    bits = weights.view(np.uint64)
    nonzero = np.count_nonzero(bits)
    if nonzero == 0:
        return GroupBlock(0.0)
    sizes = np.bincount(groups)
    if nonzero != int((sizes * (sizes - 1)).sum()):
        return None
    # As many within-group pairs as nonzero entries: the block is there when
    # every pair holds the bits of the first, the first two members of the
    # first group that has two, and those bits are not zero (else the
    # nonzero entries all lie across groups).
    i, j = np.flatnonzero(groups == groups[np.flatnonzero(sizes[groups] > 1)[0]])[:2]
    if bits[i, j] == 0:
        return None
    n = groups.size
    chunk = max(1, _MASK_ITEMS // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        within = groups[start:stop, None] == groups
        within[np.arange(stop - start), np.arange(start, stop)] = False
        if np.any(bits[start:stop][within] != bits[i, j]):
            return None
    return GroupBlock(float(weights[i, j]))


@dataclass(frozen=True, init=False, eq=False)
class ContagionNetwork:
    """Directed nonnegative base influence weights plus a group per agent.

    ``base_weights[n, m]`` is the raw strength of agent m's influence on
    agent n before media-access attenuation. The diagonal is zero (no
    self-contagion) and weights need not be symmetric. Groups are dense ids
    0..G-1, one per agent.

    The weights are held as an ``operator``: a :class:`GroupBlock` when they
    are all-to-all within groups (the ``full_within_groups`` shorthand, or a
    matrix that spells exactly that), otherwise :class:`Dense`. A group block
    takes O(N) memory; ``base_weights`` builds its matrix on first use.
    """

    n_agents: int
    group_of: np.ndarray
    operator: GroupBlock | Dense

    def __init__(self, n_agents: int, base_weights: np.ndarray, group_of: Iterable[int]):
        self._check(n_agents, np.array(base_weights, dtype=float, copy=True), group_of)

    @classmethod
    def _of_matrix(cls, n_agents: int, weights: np.ndarray, group_of: Iterable[int]) -> "ContagionNetwork":
        """The network of a float matrix that nothing else holds, such as a
        loader's: checked like the constructor's argument, and kept without a copy."""
        network = cls.__new__(cls)
        network._check(n_agents, weights, group_of)
        return network

    def _check(self, n_agents: int, weights: np.ndarray, group_of: Iterable[int]) -> None:
        errors: list[str] = []
        n = int(n_agents)
        if n <= 0:
            errors.append(f"n_agents must be positive (got {n_agents!r})")
        if weights.shape != (n, n):
            errors.append(f"base_weights must have shape ({n}, {n}) (got {weights.shape})")
        elif not np.all(np.isfinite(weights)):
            errors.append("base_weights must be finite")
        else:
            if (weights < 0.0).any():
                bad = np.argwhere(weights < 0.0)[0]
                errors.append(
                    f"base_weights[{bad[0]}, {bad[1]}] = {weights[bad[0], bad[1]]!r} must be >= 0"
                )
            if np.any(np.diagonal(weights) != 0.0):
                idx = int(np.flatnonzero(np.diagonal(weights) != 0.0)[0])
                errors.append(f"base_weights diagonal must be zero (agent {idx} has self-weight)")
        groups = _group_ids(n, group_of, errors)
        if errors:
            raise ValidationError(errors)
        weights.setflags(write=False)
        self._assign(groups, _as_group_block(weights, groups) or Dense(weights))

    def _assign(self, groups: np.ndarray, operator: GroupBlock | Dense) -> None:
        object.__setattr__(self, "n_agents", int(groups.size))
        object.__setattr__(self, "group_of", groups)
        object.__setattr__(self, "operator", operator)

    @cached_property
    def base_weights(self) -> np.ndarray:
        """The N x N weight matrix, read-only; a group block builds it on first use."""
        if isinstance(self.operator, Dense):
            return self.operator.matrix
        weights = np.where(self.group_of[:, None] == self.group_of[None, :], self.operator.weight, 0.0)
        np.fill_diagonal(weights, 0.0)
        weights.setflags(write=False)
        return weights

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _group_layout(self.group_of)

    @property
    def n_groups(self) -> int:
        return self._layout[1].size

    @property
    def group_sizes(self) -> np.ndarray:
        return self._layout[1]

    def members(self, group: int) -> np.ndarray:
        """The agents of ``group`` in agent order (read-only); none for an id outside 0..G-1."""
        order, sizes, starts = self._layout
        return order[starts[group] : starts[group] + sizes[group]] if 0 <= group < sizes.size else order[:0]

    @classmethod
    def full_within_groups(cls, group_of: Iterable[int], weight: float = 1.0) -> "ContagionNetwork":
        """All-to-all weight within each group, zero across groups and on the diagonal.

        Validates only the weight and the group ids; no N x N matrix is built.
        """
        ids = list(group_of)
        errors: list[str] = []
        if not ids:
            errors.append("n_agents must be positive (got 0)")
        if not (_is_number(weight) and weight >= 0.0):
            errors.append(f"weight must be finite and >= 0 (got {weight!r})")
        groups = _group_ids(len(ids), ids, errors)
        if errors:
            raise ValidationError(errors)
        weight = float(weight)
        network = cls.__new__(cls)
        paired = np.bincount(groups).max() > 1
        network._assign(groups, GroupBlock(weight if paired else 0.0))
        return network

    def __eq__(self, other: object) -> bool:
        """Equal when the operator kind, the group ids and the weights' float64 bits are."""
        if not isinstance(other, ContagionNetwork):
            return NotImplemented
        mine, theirs = self.operator, other.operator
        if type(mine) is not type(theirs) or not np.array_equal(self.group_of, other.group_of):
            return False
        if isinstance(mine, GroupBlock):
            return struct.pack("<d", mine.weight) == struct.pack("<d", theirs.weight)
        return np.array_equal(mine.matrix.view(np.uint64), theirs.matrix.view(np.uint64))


@dataclass(frozen=True)
class ModelParams:
    """Resolved model parameters.

    ``omega1`` weighs the electricity-deprivation pull, ``omega2`` the
    contagion pull; their sum may not exceed 1, which keeps every update a
    convex combination and the state provably inside [0, 1] without clamping.
    ``rate_floor`` optionally lifts the per-step response rate off zero so an
    all-zero group is not permanently absorbed.
    """

    horizon_hours: float
    omega1: float = 0.5
    omega2: float = 0.5
    dt_hours: float = 0.1
    rate_floor: float = 0.0
    report_every_hours: float = 1.0

    def __post_init__(self):
        errors: list[str] = []
        _check_unit(self.omega1, "omega1", errors)
        _check_unit(self.omega2, "omega2", errors)
        if not errors and self.omega1 + self.omega2 > 1.0:
            errors.append(
                f"omega1 + omega2 must be <= 1 (got {self.omega1!r} + {self.omega2!r} = {self.omega1 + self.omega2!r})"
            )
        if not (_is_number(self.dt_hours) and 0.0 < self.dt_hours <= 1.0):
            errors.append(f"dt_hours must be in (0, 1] (got {self.dt_hours!r})")
        _check_unit(self.rate_floor, "rate_floor", errors)
        if not (_is_number(self.horizon_hours) and self.horizon_hours > 0.0):
            errors.append(f"horizon_hours must be > 0 (got {self.horizon_hours!r})")
        if not (_is_number(self.report_every_hours) and self.report_every_hours > 0.0):
            errors.append(f"report_every_hours must be > 0 (got {self.report_every_hours!r})")
        elif _is_number(self.dt_hours) and 0.0 < self.dt_hours <= 1.0:
            steps = round(self.report_every_hours / self.dt_hours)
            if steps < 1 or abs(steps * self.dt_hours - self.report_every_hours) > 1e-9:
                errors.append(
                    f"dt_hours = {self.dt_hours!r} must divide report_every_hours = {self.report_every_hours!r}"
                )
        if errors:
            raise ValidationError(errors)

    @property
    def steps_per_report(self) -> int:
        return round(self.report_every_hours / self.dt_hours)

    @property
    def n_steps(self) -> int:
        steps = self.horizon_hours / self.dt_hours
        if not steps < _MAX_STEPS:
            raise ValidationError([f"horizon_hours = {self.horizon_hours!r} must span fewer than {_MAX_STEPS} steps"])
        return int(math.floor(steps + 1e-9))

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


# The largest run a scenario may ask for, in Euler steps and in values
# recorded (report times x agents, 512 MiB of float64), so that its sampled
# schedules and its trajectory fit in memory.
_MAX_STEPS = 10**7
_MAX_RECORDED = 2**26


def _feed(digest, data: bytes | np.ndarray, dtype=None) -> None:
    """Feed ``digest`` the byte length of ``data``, then its bytes (as ``dtype``), read in place."""
    view = memoryview(data if dtype is None else np.ascontiguousarray(data, dtype=dtype)).cast("B")
    digest.update(struct.pack("<q", view.nbytes))
    digest.update(view)


@dataclass(frozen=True)
class Scenario:
    """Complete simulation input: parameters, network, schedules, initial state."""

    params: ModelParams
    network: ContagionNetwork
    electricity: tuple[PiecewiseSchedule, ...]
    media_access: tuple[PiecewiseSchedule, ...]
    initial_dissatisfaction: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "electricity", tuple(self.electricity))
        object.__setattr__(self, "media_access", tuple(self.media_access))
        object.__setattr__(
            self, "initial_dissatisfaction", _readonly(np.atleast_1d(np.asarray(self.initial_dissatisfaction, dtype=float)))
        )
        violations = self.validate()
        if violations:
            raise ValidationError(violations)

    @property
    def n_agents(self) -> int:
        return self.network.n_agents

    def validate(self) -> list[str]:
        """Every violated invariant, empty when the scenario is valid."""
        errors: list[str] = []
        n = self.network.n_agents
        for name, schedules in (("electricity", self.electricity), ("media_access", self.media_access)):
            if len(schedules) != n:
                errors.append(f"{name} must provide one schedule per agent (got {len(schedules)} for {n} agents)")
            for idx, sched in enumerate(schedules):
                if sched.horizon_hours != self.params.horizon_hours:
                    errors.append(
                        f"{name}[{idx}].horizon_hours = {sched.horizon_hours!r} must equal params.horizon_hours = {self.params.horizon_hours!r}"
                    )
        d0 = self.initial_dissatisfaction
        if d0.shape != (n,):
            errors.append(f"initial_dissatisfaction must have shape ({n},) (got {d0.shape})")
        else:
            for idx in np.flatnonzero(~((d0 >= 0.0) & (d0 <= 1.0))).tolist():
                errors.append(f"initial_dissatisfaction[{idx}] = {d0[idx].item()!r} outside [0, 1]")
        params = self.params
        try:
            if (params.n_steps // params.steps_per_report + 1) * n > _MAX_RECORDED:
                errors.append(f"params.horizon_hours = {params.horizon_hours!r} must span fewer than {_MAX_STEPS} steps"
                              f" and record at most {_MAX_RECORDED} values (report times x agents)")
        except ValidationError as exc:  # the step cap, which n_steps holds
            errors.extend(f"params.{v}" for v in exc.violations)
        return errors

    def content_digest(self) -> str:
        """Stable sha256 over the scenario in digest format 2, for manifests.

        Each section of the hashed stream leads with its byte length or
        count, so no two scenarios give the same bytes: a canonical JSON
        header (format, N, label, params, network kind and a group block's
        weight bits); the group ids as little-endian int64; a dense matrix's
        float64 buffer, read in place; per schedule set, each distinct
        schedule's breakpoint bits in order of first appearance and every
        agent's int64 index into them; the initial state's float64 bits.
        Schedules are told apart by bits, not by object, so ``-0.0`` stays
        apart from ``0.0``.
        """
        network, operator = self.network, self.network.operator
        if isinstance(operator, Dense):
            kind = {"kind": "dense"}
        else:
            kind = {"kind": "group_block", "weight_bits": int.from_bytes(struct.pack("<d", operator.weight), "little")}
        header = {
            "digest_format": DIGEST_FORMAT,
            "n_agents": network.n_agents,
            "label": self.label,
            "params": {key: float(value) for key, value in self.params.as_dict().items()},
            "network": kind,
        }
        digest = hashlib.sha256()
        _feed(digest, json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        _feed(digest, network.group_of, "<i8")
        if isinstance(operator, Dense):
            _feed(digest, operator.matrix, "<f8")
        for schedules in (self.electricity, self.media_access):
            distinct, index = _distinct(schedules)
            digest.update(struct.pack("<q", len(distinct)))
            for sched in distinct:
                _feed(digest, _bits(sched.breakpoints))
            _feed(digest, index, "<i8")
        _feed(digest, self.initial_dissatisfaction, "<f8")
        return "sha256:" + digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        """Equal exactly when the digests are: the same bits, label included."""
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.content_digest() == other.content_digest()


@dataclass(frozen=True)
class SimulationResult:
    """Per-agent dissatisfaction trajectories plus per-report aggregates.

    ``dissatisfaction`` has one row per report time. ``aggregates`` is the
    (4, T, G + 1) array of :func:`~socio_grid_sim.aggregate_trajectory` for
    the same times: mean, min, max and population std of satisfaction, per
    group and, in the last column, for the whole population. The manifest
    records every resolved parameter needed to reproduce the run.
    """

    times: np.ndarray
    dissatisfaction: np.ndarray
    groups: np.ndarray
    aggregates: np.ndarray
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        times = _readonly(np.atleast_1d(np.asarray(self.times, dtype=float)))
        traj = np.asarray(self.dissatisfaction, dtype=float)
        if traj.ndim != 2 or traj.shape[0] != times.size:
            raise ValidationError(
                [f"dissatisfaction must have one row per report time (got {traj.shape} for {times.size} times)"]
            )
        groups = np.array(np.asarray(self.groups), dtype=int, copy=True)
        groups.setflags(write=False)
        aggregates = _readonly(self.aggregates)
        scopes = int(groups.max()) + 2 if groups.size else 1
        if aggregates.shape != (4, times.size, scopes):
            raise ValidationError(
                [f"aggregates must have shape (4, {times.size}, {scopes}): 4 statistics per report time"
                 f" of each group and the population (got {aggregates.shape})"]
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dissatisfaction", _readonly(traj))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "aggregates", aggregates)

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def n_agents(self) -> int:
        return int(self.dissatisfaction.shape[1])

    @property
    def satisfaction(self) -> np.ndarray:
        return 1.0 - self.dissatisfaction

    def global_mean_satisfaction(self) -> np.ndarray:
        """Global mean satisfaction per report time: the aggregates' global mean column."""
        return self.aggregates[0, :, -1]

"""Contagion-weighted dissatisfaction dynamics and the simulation loop.

The model couples each agent's dissatisfaction D in [0, 1] to two pulls:
electricity deprivation (weighted by ``omega1``) and the media-access-gated
average of everyone else's dissatisfaction (weighted by ``omega2``). Each
fixed Euler step of size ``dt`` moves D toward the combined pull target at a
rate proportional to how much contagion the agent currently receives, so an
agent cut off from media (or surrounded by content neighbors) reacts slowly.

With ``omega1 + omega2 <= 1`` and ``dt <= 1`` every step is a convex
combination of values in [0, 1]; the clamp in :func:`step` is a pure guard
and the engine counts how often it fires (it never should for valid inputs).

The kernel behind :func:`simulate` and the planner has two executors of the
same step, with the same roundings. A group block of at most
``_FLOAT_STATES`` kernel states and ``_FLOAT_PAIRS`` summed pairs, such as
the two-row case study, advances on Python floats (:func:`_euler_floats`),
where numpy's fixed cost per call would dominate. Every other block, and any
dense one, advances on numpy vectors (:func:`_euler_arrays`).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._version import __version__
from .core_types import (
    DIGEST_FORMAT,
    ContagionNetwork,
    Dense,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    SimulationResult,
    ValidationError,
    _distinct,
)
# aggregate_trajectory stays bound here for perfbench/tracing.py, which wraps it by this name.
from .metrics import _aggregate, aggregate_trajectory  # noqa: F401


@dataclass(frozen=True)
class ContagionSnapshot:
    """Contagion state at one instant.

    ``social_term`` is the contagion pull g per agent (at most ``omega2``)
    and ``rate`` the per-agent response rate g / omega2 lifted to at least
    the rate floor.
    """

    social_term: np.ndarray
    rate: np.ndarray


def _agent_vector(network: ContagionNetwork, values: Sequence[float], name: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.shape != (network.n_agents,):
        raise ValidationError([f"{name} must have shape ({network.n_agents},) (got {out.shape})"])
    return out


def compute_target(
    electricity: Sequence[float], social_term: Sequence[float], omega1: float
) -> np.ndarray:
    """Pull target: omega1 * (1 - E) + g.

    Nonincreasing in each agent's electricity availability and, through g,
    nondecreasing in every other agent's dissatisfaction. Guaranteed to lie
    in [0, 1] whenever omega1 + omega2 <= 1.
    """
    return omega1 * (1.0 - np.asarray(electricity, dtype=float)) + np.asarray(social_term, dtype=float)


def contagion_snapshot(
    network: ContagionNetwork,
    access: Sequence[float],
    dissatisfaction: Sequence[float],
    params: ModelParams,
) -> ContagionSnapshot:
    """The contagion pull and the response rate at one instant.

    This is one step of the kernel behind :func:`simulate`: a block of one
    row through :func:`_classes`, each agent picking its own column of a
    one-step access table. Chaining it with :func:`compute_target` and
    :func:`step` therefore reproduces a run bit for bit.
    """
    access = _agent_vector(network, access, "access")
    d = _agent_vector(network, dissatisfaction, "dissatisfaction")
    own = np.arange(network.n_agents)
    operator, state_access, _, state_d, expand = _classes(network, own, own, d[None])
    ratio = _contagion_ratio(operator, access.take(state_access), state_d).take(expand[0])
    if params.omega2 > 0.0:
        # As in the kernel: a zero floor leaves the ratio, and its -0.0, as it is.
        rate = np.maximum(ratio, params.rate_floor) if params.rate_floor > 0.0 else ratio
    else:
        rate = np.full(network.n_agents, params.rate_floor)
    return ContagionSnapshot(social_term=params.omega2 * ratio, rate=rate)


def step(
    dissatisfaction: Sequence[float],
    snapshot: ContagionSnapshot,
    target: Sequence[float],
    dt: float,
) -> np.ndarray:
    """One Euler step: move D toward the target at the snapshot's rate.

    D'[n] = D[n] + rate[n] * (target[n] - D[n]) * dt, clamped to [0, 1].
    The clamp is a guard only: with rate and target in [0, 1] and dt <= 1
    the update is a convex combination and cannot leave the interval.
    """
    d = np.asarray(dissatisfaction, dtype=float)
    nxt = d + snapshot.rate * (np.asarray(target, dtype=float) - d) * dt
    return np.clip(nxt, 0.0, 1.0)


def _sample_schedules(
    schedules: Sequence[PiecewiseSchedule], dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the distinct schedules (:func:`_distinct`) on the step grid, and pick one per agent.

    Returns the C-contiguous (n_steps, K) table of the K distinct columns,
    so that the kernel reads each step's row in one run, and the (N,) intp
    column index of every agent. No (n_steps, N) grid is built.
    """
    distinct, index = _distinct(schedules)
    table = np.zeros((n_steps, len(distinct)))
    for k, sched in enumerate(distinct):
        table[:, k] = sched.sample(dt, n_steps)
    return table, index


def _scaled_rows(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contagion weights and the reciprocal row sums of ``base`` (0 for empty rows).

    A row whose sum overflows is scaled, in a copy, by a power of two that
    brings its sum below 1. The scaling is exact and cancels in the
    contagion ratio, so huge weights act like any other multiple of the same
    row. Rows with a finite sum are used as they are, without a copy.
    """
    with np.errstate(over="ignore"):
        row_sum = base.sum(axis=1)
    overflow = ~np.isfinite(row_sum)
    if overflow.any():
        # Scaled entries lie below 1 / N, so each scaled row sums to less than 1.
        exponent = np.frexp(base[overflow].max(axis=1))[1] + math.ceil(math.log2(base.shape[0]))
        scale = np.ldexp(1.0, -exponent)[:, None]
        row_sum[overflow] = (base[overflow] * scale).sum(axis=1)
        base = base.copy()
        base[overflow] *= scale
    inv_row = np.zeros(base.shape[0])
    np.divide(1.0, row_sum, out=inv_row, where=row_sum > 0.0)
    return base, inv_row


class _DenseProduct(NamedTuple):
    """A :class:`Dense` operator in kernel form: the weights, with any
    overflowing row rescaled, and the (N,) reciprocal base row sums."""

    alpha: np.ndarray
    inv_row: np.ndarray


class _GroupSums(NamedTuple):
    """A group block in kernel form, as :func:`_classes` builds it for a
    (B, N) block of agents.

    ``bins[i]`` is the bin class of the summed pair ``i`` and ``states[i]``
    the state it reads, in agent order, so one bincount gives every bin's
    sum; the pairs are those of one (row, group) bin per class. ``keys`` and
    ``inv`` hold each state's bin class and 1 / (n_g - 1), 0 for singleton
    groups and for a zero weight. The weight itself cancels from the ratio,
    so there is nothing to overflow.
    """

    bins: np.ndarray
    states: np.ndarray
    keys: np.ndarray
    inv: np.ndarray


def _contagion_ratio(
    operator: _DenseProduct | _GroupSums, access: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """(gamma @ d) / row_sum with gamma = alpha * outer(i, i), i = ``access``.

    Factored so the attenuated matrix is never materialized:
    i * (alpha @ (i * d)) / row_sum. The contagion pull is omega2 times this
    ratio, and the response rate is the ratio lifted to the rate floor.

    ``access`` and ``d`` hold one value per state. A group block spreads
    them over its agents and sums each row's groups with one bincount, in
    agent order: i * (S[g] - i * d) / (n_g - 1). A dense operator's states
    are the (B, N) block itself, and it multiplies a (B, N, 1) stack, one
    matrix-vector product per row: the same call, and the same rounding, as
    the 1-D ``alpha @ x``. Either way every row is bit-identical for any B.
    """
    if isinstance(operator, _GroupSums):
        x = access * d
        sums = np.bincount(operator.bins, x.take(operator.states))
        return access * (sums.take(operator.keys) - x) * operator.inv
    access = access.reshape(-1, operator.inv_row.size)
    product = operator.alpha @ (access * d.reshape(access.shape))[..., None]
    return (access * product[..., 0] * operator.inv_row).ravel()


def _rank(code: np.ndarray) -> np.ndarray:
    """Each code's rank among the distinct codes.

    A binary search: the argsort behind ``np.unique(..., return_inverse=True)``
    would touch sort kernels that nothing else in a plan uses, about 0.3 MB
    of resident code.
    """
    return np.unique(code).searchsorted(code)


def _fold(code: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """One int64 code per tuple (code, *columns): equal for equal tuples,
    and ordered like them.

    Each column is folded in as ``code * (column.max() + 1) + column``. The
    code is ranked first only where that product could pass 2**62, so a
    column's range times the number of items must stay below it.
    """
    for column in columns:
        width = int(column.max()) + 1
        if int(code.max()) >= 2**62 // width:
            code = _rank(code)
        code = code * width + column
    return code


# An odd multiplier (PCG's). Its powers weigh a bin's member keys by position
# in the hash that buckets bins; the int64 products wrap, as intended.
_MIX = 6364136223846793005


def _classes(
    network: ContagionNetwork, access_index: np.ndarray, pull_index: np.ndarray, d0: np.ndarray
) -> tuple[_DenseProduct | _GroupSums, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The network's operator in kernel form, over one state per class of a
    (B, N) block's (row, agent) pairs. Nothing else builds it.

    A dense network keeps one state per (row, agent) and takes its matrix
    with any overflowing row rescaled (:func:`_scaled_rows`).
    On a group block, a (row, group) bin runs on its size and on its
    members' keys in agent order, a key being the access pick, the pull pick
    and the initial float64 bits. Bins equal in both run the same float
    operations in the same order, so they form one bin class, and the
    members of a class with one key are one state. The per-step group sums
    run over one bin per class. Bins whose members come in another order
    would sum in another order, so they stay apart.

    Bins are bucketed by size and by a position-weighted hash of their
    member keys, taken group by group in agent order: the group order the
    network holds (``ContagionNetwork._layout``), so a run sorts its group
    ids once, for this and for its aggregates (an int64 sort of (group,
    agent) codes here took about 0.2 MB more peak RSS on 3000 agents).
    A bin joins the bin that stands for its bucket only when every member
    key matches, position by position: a hash collision can cost a merge,
    never join unequal bins.

    Returns the operator over the states, each state's access pick, pull
    pick and initial value, and the (B, N) state of every agent.
    """
    shape = d0.shape
    access_index = np.broadcast_to(access_index, shape).ravel()
    pull_index = np.broadcast_to(pull_index, shape).ravel()
    d0 = np.asarray(d0, dtype=float).ravel()
    if isinstance(network.operator, Dense):
        operator = _DenseProduct(*_scaled_rows(network.operator.matrix))
        return operator, access_index, pull_index, d0, np.arange(d0.size).reshape(shape)
    # A key needs only equal bits, and plain np.unique is what the group-id check runs.
    key = _fold(access_index, pull_index, _rank(d0.view(np.int64)))
    # The bin g + G * b of each (row b, agent) of group g, and every bin's
    # member keys, group after group and in agent order within a group, row after row:
    n = shape[1]
    by_group, sizes, starts = network._layout
    bins = (network.group_of + sizes.size * np.arange(shape[0])[:, None]).ravel()
    members = key.reshape(shape)[:, by_group].ravel()
    offsets = (n * np.arange(shape[0])[:, None] + starts).ravel()
    lengths = np.tile(sizes, shape[0])
    position = np.tile(np.arange(n) - np.repeat(starts, sizes), shape[0])
    digest = np.add.reduceat((members + 1) * np.cumprod(np.full(sizes.max(), _MIX))[position], offsets)
    bucket = _rank(_fold(_rank(digest), lengths))
    # Any bin of a bucket stands for it.
    first = np.empty(bucket.max() + 1, dtype=np.intp)
    first[bucket] = np.arange(bucket.size)
    candidate = first[bucket]
    same = members == members[np.repeat(offsets[candidate], lengths) + position]
    stand_in = np.where(np.logical_and.reduceat(same, offsets), candidate, np.arange(bucket.size))
    bin_class = _rank(stand_in)[bins]
    code = _rank(_fold(key, bin_class))
    summed = stand_in[bins] == bins
    # Any member stands for its state.
    first = np.empty(code.max() + 1, dtype=np.intp)
    first[code] = np.arange(code.size)
    inv = np.zeros(sizes.size)
    if network.operator.weight != 0.0:
        np.divide(1.0, sizes - 1, out=inv, where=sizes > 1)
    classes = _GroupSums(bin_class[summed], code[summed], bin_class[first], inv[network.group_of[first % n]])
    return classes, access_index[first], pull_index[first], d0[first], code.reshape(shape)


# Floats gathered per table at once: a few steps' rows when there are many
# states, the whole horizon of a small block, so that small runs pay one gather.
_GATHER_FLOATS = 2**14

# The largest group block that advances on Python floats, in states and in
# pairs summed per step (those of one bin per class). Measured over one-row
# 48 h blocks of 1 to 32 states and 6 to 128 pairs: up to 8 states and 64
# pairs the float loop takes 0.4 to 0.9 times as long as the numpy loop; at
# 12 states 0.9 to 1.0 times, at 16 states and 48 pairs 1.2 times, and at 8
# states and 96 pairs 1.07 times.
_FLOAT_STATES = 8
_FLOAT_PAIRS = 64


def _picked_rows(table: np.ndarray, index: np.ndarray):
    """Each step's row ``table[k].take(index)``, gathered a few steps at a time."""
    chunk = max(1, _GATHER_FLOATS // index.size)
    for start in range(0, table.shape[0], chunk):
        yield from table[start : start + chunk].take(index, axis=1)


def _clamp(d: np.ndarray, expand: np.ndarray, clamp_hits: np.ndarray) -> None:
    """Clip the states ``d`` to [0, 1] in place and count a hit for each row
    of ``expand`` with any state outside."""
    spread = d.take(expand)
    clamp_hits += ((spread < 0.0) | (spread > 1.0)).any(axis=1)
    np.clip(d, 0.0, 1.0, out=d)


def _euler(
    network: ContagionNetwork,
    access: np.ndarray,
    access_index: np.ndarray,
    pull: np.ndarray,
    pull_index: np.ndarray,
    d0: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Advance a (B, N) block of agents together on the shared step grid.

    The kernel takes the ``network`` itself; :func:`_classes` builds its
    operator for the block, with the group order the network holds.
    ``access`` is a (steps, K) table of distinct media-access columns and
    ``pull`` a (steps, K') table of distinct deprivation columns omega1 * (1 - E).
    ``access_index`` and ``pull_index`` pick each agent's column: (1, N) when
    every row shares the pick, (B, N) when each row has its own.
    The kernel advances one state per class of interchangeable agents in
    interchangeable groups (:func:`_classes`) and spreads the states over
    the agents only at report times. Step k reads ``access[k]`` at each
    state's pick, gathered a few steps at a time (:func:`_picked_rows`), so
    the kernel holds O(steps * K) floats of input, never a (steps, N) grid.
    Two executors run the same step with the same roundings:
    :func:`_euler_floats` on Python floats for a group block of at most
    ``_FLOAT_STATES`` states and ``_FLOAT_PAIRS`` summed pairs, where
    numpy's cost per call would dominate, and :func:`_euler_arrays` on numpy
    vectors for any other block. A dense block always stays on numpy, whose
    matrix-vector product a Python sum would not round like.
    Returns the (B, reports + 1, N) trajectories recorded at t = 0 and every
    ``steps_per_report`` steps, each row's clamp count and the number of
    states advanced. Every row is bit-identical for any B (see
    :func:`_contagion_ratio`).
    """
    b, n = d0.shape
    operator, access_index, pull_index, d, expand = _classes(network, access_index, pull_index, d0)
    recorded = np.empty((b, params.n_steps // params.steps_per_report + 1, n))
    recorded[:, 0] = d0
    clamp_hits = np.zeros(b, dtype=int)
    small = isinstance(operator, _GroupSums) and d.size <= _FLOAT_STATES and operator.bins.size <= _FLOAT_PAIRS
    executor = _euler_floats if small else _euler_arrays
    executor(operator, _picked_rows(access, access_index), _picked_rows(pull, pull_index),
             d, expand, recorded, clamp_hits, params)
    return recorded, clamp_hits, d.size


def _euler_arrays(operator, access_rows, pull_rows, d, expand, recorded, clamp_hits, params) -> None:
    """The step loop of :func:`_euler` on numpy vectors of states.

    Fills ``recorded`` from its second report on and adds each row's clamp
    count to ``clamp_hits``.
    """
    dt = params.dt_hours
    spr = params.steps_per_report
    floor = params.rate_floor
    omega2 = params.omega2
    has_contagion = omega2 > 0.0
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    steps = zip(access_rows, pull_rows)
    for k, (local_access, local_pull) in enumerate(steps):
        if has_contagion:
            pull_ratio = _contagion_ratio(operator, local_access, d)
            rate = np.maximum(pull_ratio, floor) if floor > 0.0 else pull_ratio
            target = local_pull + omega2 * pull_ratio
        else:
            rate = floor
            target = local_pull
        d = d + rate * (target - d) * dt
        if lowest(d) < 0.0 or highest(d) > 1.0:
            _clamp(d, expand, clamp_hits)
        if (k + 1) % spr == 0:
            recorded[:, (k + 1) // spr] = d.take(expand)


def _euler_floats(operator: _GroupSums, access_rows, pull_rows, d, expand, recorded, clamp_hits, params) -> None:
    """The step loop of :func:`_euler_arrays` on Python floats, for a small group block.

    Every operation is the numpy loop's, in its order: each group sum adds
    ``x[state]`` into its bin in agent order, as ``bincount`` does, and each
    state computes ``(a * (S - x)) * inv``, the target and the update as the
    vectors do, so every state keeps its bits. The rare clamp and each
    report go through numpy.
    """
    dt = params.dt_hours
    spr = params.steps_per_report
    floor = params.rate_floor
    omega2 = params.omega2
    pairs = list(zip(operator.bins.tolist(), operator.states.tolist()))
    keys, inv = operator.keys.tolist(), operator.inv.tolist()
    n_bins = int(operator.bins.max()) + 1
    d = d.tolist()
    # One step's rows at a time become Python floats: the whole horizon as
    # lists would take three times the memory of its gathered rows.
    steps = zip(map(np.ndarray.tolist, access_rows), map(np.ndarray.tolist, pull_rows))
    for k, (local_access, local_pull) in enumerate(steps):
        if omega2 > 0.0:
            x = [a * v for a, v in zip(local_access, d)]
            sums = [0.0] * n_bins
            for key, state in pairs:
                sums[key] += x[state]
            new = []
            for a, p, v, xv, key, w in zip(local_access, local_pull, d, x, keys, inv):
                ratio = a * (sums[key] - xv) * w
                # max returns the first of equal values, so a zero floor leaves a -0.0 ratio as it is.
                new.append(v + max(ratio, floor) * (p + omega2 * ratio - v) * dt)
            d = new
        else:
            d = [v + floor * (p - v) * dt for v, p in zip(d, local_pull)]
        if min(d) < 0.0 or max(d) > 1.0:
            states = np.array(d)
            _clamp(states, expand, clamp_hits)
            d = states.tolist()
        if (k + 1) % spr == 0:
            recorded[:, (k + 1) // spr] = np.take(d, expand)


def simulate(scenario: Scenario) -> SimulationResult:
    """Run the fixed-step Euler loop over the scenario horizon.

    Schedules are sampled at each step's start; state is recorded at t = 0
    and every ``report_every_hours`` thereafter. The run is deterministic:
    identical scenarios produce bit-identical results.
    """
    return _simulate_block([scenario])[0]


def _simulate_block(scenarios: Sequence[Scenario]) -> list[SimulationResult]:
    """Scenarios that share one network and one parameter set, simulated as
    one (B, N) kernel block: result b equals ``simulate(scenarios[b])``.

    The params must match bit for bit (``-0.0`` is not ``0.0``) and each
    network must be ``==`` to the first: the same operator kind, group ids
    and weight bits. Anything else raises ValueError.
    """
    params, net = scenarios[0].params, scenarios[0].network
    for scenario in scenarios[1:]:
        if np.array(astuple(scenario.params)).tobytes() != np.array(astuple(params)).tobytes():
            raise ValueError(f"a block needs one parameter set ({scenario.params} is not {params})")
        if scenario.network != net:
            raise ValueError(f"a block needs one network (scenario {scenario.label!r} has another)")
    dt, n_steps, shape = params.dt_hours, params.n_steps, (len(scenarios), net.n_agents)
    access, access_index = _sample_schedules([m for s in scenarios for m in s.media_access], dt, n_steps)
    electricity, pull_index = _sample_schedules([e for s in scenarios for e in s.electricity], dt, n_steps)
    recorded, clamp_hits, _ = _euler(
        net, access, access_index.reshape(shape), params.omega1 * (1.0 - electricity),
        pull_index.reshape(shape), np.stack([s.initial_dissatisfaction for s in scenarios]), params,
    )
    times = np.arange(recorded.shape[1]) * params.report_every_hours
    return [
        SimulationResult(
            times=times,
            dissatisfaction=trajectory,
            groups=net.group_of,
            aggregates=_aggregate(trajectory, net._layout),
            manifest={
                "tool": "socio-grid-sim",
                "tool_version": __version__,
                "label": scenario.label,
                "params": scenario.params.as_dict(),
                "n_agents": net.n_agents,
                "n_groups": net.n_groups,
                "groups": net.group_of.tolist(),
                "scenario_digest": scenario.content_digest(),
                "digest_format": DIGEST_FORMAT,
                "aggregation_std": "population",
                "rate_floor_active": params.rate_floor > 0.0,
                "clamp_activations": hits,
                "n_report_times": trajectory.shape[0],
            },
        )
        for scenario, trajectory, hits in zip(scenarios, recorded, clamp_hits.tolist())
    ]

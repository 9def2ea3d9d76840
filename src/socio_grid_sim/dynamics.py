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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._version import __version__
from .core_types import (
    ContagionNetwork,
    Dense,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    SimulationResult,
    ValidationError,
    _once_per_object,
)
from .metrics import aggregate_trajectory


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

    This is one step of the kernel behind :func:`simulate`, a block of one
    row on the network's own operator, so chaining it with
    :func:`compute_target` and :func:`step` reproduces a run bit for bit.
    """
    access = _agent_vector(network, access, "access")
    d = _agent_vector(network, dissatisfaction, "dissatisfaction")
    ratio = _contagion_ratio(_contagion_operator(network), access, d[None])[0]
    if params.omega2 > 0.0:
        rate = np.maximum(ratio, params.rate_floor)
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
    """Sample the distinct schedules on the step grid, and pick one per agent.

    Agents that share a schedule object share a column, found by ``id``
    without hashing the schedule; equal objects then share one by value.
    Returns the C-contiguous (n_steps, K) table of the K distinct columns,
    so that the kernel reads each step's row in one run, and the (N,) intp
    column index of every agent. No (n_steps, N) grid is built.
    """
    by_value: dict[PiecewiseSchedule, int] = {}
    picks = _once_per_object(lambda s: by_value.setdefault(s, len(by_value)), schedules)
    table = np.zeros((n_steps, len(by_value)))
    for sched, k in by_value.items():
        table[:, k] = sched.sample(dt, n_steps)
    return table, np.array(picks, dtype=np.intp)


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
    overflowing row rescaled, and the (1, N) reciprocal base row sums."""

    alpha: np.ndarray
    inv_row: np.ndarray


class _GroupSums(NamedTuple):
    """A group block in kernel form for a (B, N) block of states.

    ``keys[b, n] = g(n) + G * b`` numbers every (row, group) pair, so one
    bincount gives each row's group sums. ``inv`` is (1, N): 1 / (n_g - 1)
    per agent, 0 for singleton groups and for a zero weight. The weight
    itself cancels from the ratio, so there is nothing to overflow.
    """

    keys: np.ndarray
    inv: np.ndarray


def _contagion_operator(network: ContagionNetwork, rows: int = 1) -> _DenseProduct | _GroupSums:
    """The network's operator in kernel form, for a block of ``rows`` states."""
    operator = network.operator
    if isinstance(operator, Dense):
        alpha, inv_row = _scaled_rows(operator.matrix)
        return _DenseProduct(alpha, inv_row[None])
    sizes = network.group_sizes
    inv = np.zeros(sizes.size)
    if operator.weight != 0.0:
        np.divide(1.0, sizes - 1, out=inv, where=sizes > 1)
    keys = network.group_of + sizes.size * np.arange(rows)[:, None]
    return _GroupSums(keys, inv[network.group_of][None])


def _contagion_ratio(
    operator: _DenseProduct | _GroupSums, access: np.ndarray | float, d: np.ndarray
) -> np.ndarray:
    """(gamma @ d) / row_sum with gamma = alpha * outer(i, i), i = ``access``.

    Factored so the attenuated matrix is never materialized:
    i * (alpha @ (i * d)) / row_sum. The contagion pull is omega2 times this
    ratio, and the response rate is the ratio lifted to the rate floor.

    ``d`` is a (B, N) block of states. A group block sums each row's groups
    with one bincount, in agent order: i * (S[g] - i * d) / (n_g - 1). A
    dense operator multiplies a (B, N, 1) stack, one matrix-vector product
    per row: the same call, and the same rounding, as the 1-D ``alpha @ x``.
    Either way every row is bit-identical for any B.
    """
    if isinstance(operator, _GroupSums):
        x = access * d
        sums = np.bincount(operator.keys.ravel(), x.ravel())
        return access * (sums.take(operator.keys) - x) * operator.inv
    return access * (operator.alpha @ (access * d)[..., None])[..., 0] * operator.inv_row


# Floats gathered per table at once: a few steps' rows when N is large, the
# whole horizon of a small network, so that small runs pay one gather.
_GATHER_FLOATS = 2**14


def _picked_rows(table: np.ndarray, index: np.ndarray):
    """Each step's row ``table[k].take(index)``, gathered a few steps at a time."""
    chunk = max(1, _GATHER_FLOATS // index.size)
    for start in range(0, table.shape[0], chunk):
        yield from table[start : start + chunk].take(index, axis=1)


def _euler(
    operator: _DenseProduct | _GroupSums,
    access: np.ndarray,
    access_index: np.ndarray,
    pull: np.ndarray,
    pull_index: np.ndarray,
    d0: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (B, N) block of states together on the shared step grid.

    ``operator`` is :func:`_contagion_operator` for B rows. ``access`` is a
    (steps, K) table of distinct media-access columns and ``pull`` a
    (steps, K') table of distinct deprivation columns omega1 * (1 - E).
    ``access_index`` and ``pull_index`` pick each agent's column: (1, N) when
    every row shares the pick, (B, N) when each row has its own. Step k reads
    ``access[k].take(access_index)``, gathered a few steps at a time
    (:func:`_picked_rows`), so the kernel holds O(steps * K) floats of
    input, never a (steps, N) grid.
    Returns the (B, reports + 1, N) trajectories recorded at t = 0 and every
    ``steps_per_report`` steps, and each row's clamp count. Every row is
    bit-identical for any B (see :func:`_contagion_ratio`).
    """
    b, n = d0.shape
    dt = params.dt_hours
    spr = params.steps_per_report
    floor = params.rate_floor
    omega2 = params.omega2
    has_contagion = omega2 > 0.0

    d = np.array(d0, dtype=float)
    recorded = np.empty((b, params.n_steps // spr + 1, n))
    recorded[:, 0] = d
    clamp_hits = np.zeros(b, dtype=int)
    lowest, highest = np.minimum.reduce, np.maximum.reduce

    steps = zip(_picked_rows(access, access_index), _picked_rows(pull, pull_index))
    for k, (local_access, local_pull) in enumerate(steps):
        if has_contagion:
            pull_ratio = _contagion_ratio(operator, local_access, d)
            rate = np.maximum(pull_ratio, floor) if floor > 0.0 else pull_ratio
            target = local_pull + omega2 * pull_ratio
        else:
            rate = floor
            target = local_pull
        d = d + rate * (target - d) * dt
        flat = d.ravel()
        if lowest(flat) < 0.0 or highest(flat) > 1.0:
            clamp_hits += ((d < 0.0) | (d > 1.0)).any(axis=1)
            np.clip(d, 0.0, 1.0, out=d)
        if (k + 1) % spr == 0:
            recorded[:, (k + 1) // spr] = d
    return recorded, clamp_hits


def simulate(scenario: Scenario) -> SimulationResult:
    """Run the fixed-step Euler loop over the scenario horizon.

    Schedules are sampled at each step's start; state is recorded at t = 0
    and every ``report_every_hours`` thereafter. The run is deterministic:
    identical scenarios produce bit-identical results.
    """
    params = scenario.params
    net = scenario.network
    dt = params.dt_hours
    n_steps = params.n_steps

    access, access_index = _sample_schedules(scenario.media_access, dt, n_steps)
    electricity, pull_index = _sample_schedules(scenario.electricity, dt, n_steps)
    recorded, clamp_hits = _euler(
        _contagion_operator(net),
        access,
        access_index[None],
        params.omega1 * (1.0 - electricity),
        pull_index[None],
        scenario.initial_dissatisfaction[None, :],
        params,
    )
    recorded = recorded[0]
    times = np.arange(recorded.shape[0]) * params.report_every_hours
    rows = aggregate_trajectory(times, recorded, net.group_of)

    manifest = {
        "tool": "socio-grid-sim",
        "tool_version": __version__,
        "label": scenario.label,
        "params": params.as_dict(),
        "n_agents": net.n_agents,
        "n_groups": net.n_groups,
        "groups": net.group_of.tolist(),
        "scenario_digest": scenario.content_digest(),
        "aggregation_std": "population",
        "rate_floor_active": params.rate_floor > 0.0,
        "clamp_activations": int(clamp_hits[0]),
        "n_report_times": recorded.shape[0],
    }
    return SimulationResult(
        times=times,
        dissatisfaction=recorded,
        groups=net.group_of,
        aggregates=tuple(rows),
        manifest=manifest,
    )

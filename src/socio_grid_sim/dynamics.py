"""Contagion-weighted dissatisfaction dynamics, the simulation loop, and the
group-level satisfaction statistics that summarise a run.

The model couples each agent's dissatisfaction D in [0, 1] to two pulls:
electricity deprivation (weighted by ``omega1``) and the media-access-gated
average of everyone else's dissatisfaction (weighted by ``omega2``). Each
fixed Euler step of size ``dt`` moves D toward the combined pull target at a
rate proportional to how much contagion the agent currently receives, so an
agent cut off from media (or surrounded by content neighbors) reacts slowly.

With ``omega1 + omega2 <= 1`` and ``dt <= 1`` every step is a convex
combination of values in [0, 1]; the kernel's :func:`_clamp` is a pure guard
and the engine counts how often it fires (it never should for valid inputs).

The kernel behind :func:`simulate` and the planner has two executors of the
same step, with the same roundings. A group block of at most
``_FLOAT_STATES`` kernel states and ``_FLOAT_PAIRS`` summed pairs, such as
the two-row case study or the planner's 16-row profile block on the
acceptance instance, advances on Python floats (:func:`_euler_floats`) in a
straight-line loop compiled once per block structure (:func:`_float_loop`),
where numpy's fixed cost per call would dominate. Every other block advances
on numpy vectors (:func:`_euler_arrays`), and so does any dense one, whose
matrix-vector product a Python sum would not round like.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple
from typing import Iterator, NamedTuple, Sequence

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
    _group_ids,
    _group_layout,
    _sorted_distinct,
)


def _sample_schedules(
    sets: Sequence[tuple[Sequence[PiecewiseSchedule], np.ndarray]], dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample B schedule sets, each as ``(distinct, index)`` (:func:`_distinct`),
    on the step grid: the (n_steps, K) table of :func:`_distinct` over all
    B x N schedules, merged from the sets' short lists and C-contiguous so
    that each step's row is one run, and every agent's (B, N) intp column
    index. No (n_steps, N) grid is built.
    """
    distinct, merged = _distinct([sched for schedules, _ in sets for sched in schedules])
    starts = np.cumsum([0] + [len(schedules) for schedules, _ in sets])[:-1, None]
    index = merged[np.stack([picks for _, picks in sets]) + starts]
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
    """Each code's rank among the distinct codes: int64 codes, or rows of
    them viewed as one raw-bytes item each, which rank equal exactly when
    the rows are.

    A binary search: the argsort behind ``np.unique(..., return_inverse=True)``
    would touch sort kernels that nothing else in a plan uses, about 0.3 MB
    of resident code.
    """
    return _sorted_distinct(code).searchsorted(code)


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

    Each size's bins are ranked by their rows of member keys, exactly, and
    equal rows are one class. A bin's row is taken in the group order the
    network holds (``ContagionNetwork._layout``), so a run sorts its group
    ids once, for this and for its aggregates (an int64 sort of (group,
    agent) codes here took about 0.2 MB more peak RSS on 3000 agents).

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
    # A key needs only equal bits, and the group-id check sorts int64s too.
    key = _fold(access_index, pull_index, _rank(d0.view(np.int64)))
    # The bin g + G * b of each (row b, agent) of group g. Equal member-key
    # rows of one size are one bin class, and any bin of a class stands in for it.
    n = shape[1]
    by_group, sizes, starts = network._layout
    row_bins = sizes.size * np.arange(shape[0])[:, None]
    bins = (network.group_of + row_bins).ravel()
    members = key.reshape(shape)[:, by_group]
    stand_in = np.empty(row_bins.size * sizes.size, dtype=np.intp)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        groups = np.flatnonzero(sizes == size)
        rows = members.take(starts[groups, None] + np.arange(size), axis=1)
        rank = _rank(rows.view(f"V{8 * size}").ravel())
        same = (groups + row_bins).ravel()
        first = np.empty(rank.max() + 1, dtype=np.intp)
        first[rank] = same
        stand_in[same] = first[rank]
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
# pairs summed per step (those of one bin per class). On the planner's profile
# block on the acceptance instance, 16 states and 48 pairs, the compiled loop
# takes 0.45 times as long as numpy over 120 steps and 0.42 over 480. A first
# call also compiles it (1.1 ms): 1.3 times numpy over 120 steps, 0.7 over 480.
# So a one-shot short run of 9 to 16 states loses, and a process that runs a
# block structure more than once gains.
_FLOAT_STATES = 16
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a (B, N) block of agents together on the shared step grid.

    The kernel takes the ``network`` itself; :func:`_classes` builds its
    operator for the block, with the group order the network holds.
    ``access`` is a (steps, K) table of distinct media-access columns and
    ``pull`` a (steps, K') table of distinct deprivation columns omega1 * (1 - E).
    ``access_index`` and ``pull_index`` pick each agent's column: (1, N) when
    every row shares the pick, (B, N) when each row has its own.
    The kernel advances and records one state per class of interchangeable
    agents in interchangeable groups (:func:`_classes`). Step k reads
    ``access[k]`` at each state's pick, gathered a few steps at a time
    (:func:`_picked_rows`), so the kernel holds O(steps * K) floats of
    input, never a (steps, N) grid. The module docstring says which of the
    two executors runs a block.
    Returns the (reports + 1, S) record of the S states at t = 0 and every
    ``steps_per_report`` steps, the (B, N) state of every agent, so that
    ``recorded[:, expand[b]]`` is row b's (T, N) trajectory, and each row's
    clamp count. Every row is bit-identical for any B (see
    :func:`_contagion_ratio`).
    """
    operator, access_index, pull_index, d, expand = _classes(network, access_index, pull_index, d0)
    recorded = np.empty((params.n_steps // params.steps_per_report + 1, d.size))
    recorded[0] = d
    clamp_hits = np.zeros(d0.shape[0], dtype=int)
    small = isinstance(operator, _GroupSums) and d.size <= _FLOAT_STATES and operator.bins.size <= _FLOAT_PAIRS
    executor = _euler_floats if small else _euler_arrays
    executor(operator, _picked_rows(access, access_index), _picked_rows(pull, pull_index),
             d, expand, recorded, clamp_hits, params)
    return recorded, expand, clamp_hits


def _euler_arrays(operator, access_rows, pull_rows, d, expand, recorded, clamp_hits, params) -> None:
    """The step loop of :func:`_euler` on numpy vectors of states.

    Fills ``recorded`` with the states from its second report on and adds
    each row's clamp count to ``clamp_hits``.
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
            recorded[(k + 1) // spr] = d


def _euler_floats(operator: _GroupSums, access_rows, pull_rows, d, expand, recorded, clamp_hits, params) -> None:
    """The step loop of :func:`_euler_arrays` on Python floats, for a small group block.

    The loop is straight-line code compiled for the block's structure
    (:func:`_float_loop`). The rare clamp and each report go through numpy.
    """
    spr = params.steps_per_report

    def report(k, states, clamp):
        if clamp:
            array = np.array(states)
            _clamp(array, expand, clamp_hits)
            states = array.tolist()
        if k % spr == 0:
            recorded[k // spr] = states
        return states

    run = _float_loop(tuple(operator.bins.tolist()), tuple(operator.states.tolist()),
                      tuple(operator.keys.tolist()), params.omega2 > 0.0)
    # One step's rows at a time become Python floats: the whole horizon as
    # lists would take three times the memory of its gathered rows.
    rows = zip(map(np.ndarray.tolist, access_rows), map(np.ndarray.tolist, pull_rows))
    run(rows, d.tolist(), operator.inv.tolist(), params.omega2, params.rate_floor, params.dt_hours, spr, report)


@functools.lru_cache(maxsize=64)
def _float_loop(bins: tuple, states: tuple, keys: tuple, contagion: bool):
    """Compile the float step loop of one block structure into straight-line Python.

    Each state is a local. Each bin's sum is one left-to-right expression
    from 0.0 over its pairs, in agent order, as ``bincount`` adds (and turns
    a -0.0 sum into 0.0). Each state then does the numpy loop's operations in
    its order, ``(a * (S - x)) * inv``, the target and the update, so every
    state keeps its bits. The source holds only names and state and bin
    numbers; every float comes in as an argument.
    """
    n = len(keys)
    ds, access, pull, inv = (", ".join(f"{c}{i}" for i in range(n)) for c in "dapw")
    sums = dict.fromkeys(keys, "0.0")
    for b, state in zip(bins, states):
        sums[b] += f" + x{state}"
    lines = ["def run(rows, d, w, omega2, floor, dt, spr, report):", f"    {ds}, = d", f"    {inv}, = w",
             "    k = 0", f"    for ({access},), ({pull},) in rows:"]
    if contagion:
        lines += [f"        x{i} = a{i} * d{i}" for i in range(n)]
        lines += [f"        s{b} = {total}" for b, total in sums.items()]
        for i, key in enumerate(keys):
            # max(r, floor) as the builtin computes it, without its call: a
            # zero floor leaves a -0.0 ratio as it is, as numpy's loop does.
            lines += [f"        r = a{i} * (s{key} - x{i}) * w{i}",
                      f"        d{i} = d{i} + (floor if floor > r else r) * (p{i} + omega2 * r - d{i}) * dt"]
    else:
        lines += [f"        d{i} = d{i} + floor * (p{i} - d{i}) * dt" for i in range(n)]
    inside = " and ".join(f"0.0 <= d{i} <= 1.0" for i in range(n))
    lines += ["        k += 1", f"        if not ({inside}):", f"            {ds}, = report(k, ({ds},), True)",
              "        elif k % spr == 0:", f"            report(k, ({ds},), False)"]
    namespace = {}
    exec(compile("\n".join(lines), "<float loop>", "exec"), namespace)
    return namespace["run"]


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
    electricity, pull_index = _sample_schedules([s._schedule_sets[0] for s in scenarios], params.dt_hours, params.n_steps)
    access, access_index = _sample_schedules([s._schedule_sets[1] for s in scenarios], params.dt_hours, params.n_steps)
    recorded, expand, clamp_hits = _euler(
        net, access, access_index, params.omega1 * (1.0 - electricity),
        pull_index, np.stack([s.initial_dissatisfaction for s in scenarios]), params,
    )
    times = np.arange(recorded.shape[0]) * params.report_every_hours
    results = []
    # Every result shares the block's record, for the writer, and spreads it through its row of expand
    # once for its trajectory and aggregates: a mean or std keeps its bits only summed over members in agent order.
    recorded.setflags(write=False)
    for scenario, states, hits in zip(scenarios, expand, clamp_hits.tolist()):
        trajectory = recorded.take(states, axis=1)
        result = SimulationResult(
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
        object.__setattr__(result, "_states", (recorded, states))
        results.append(result)
    return results


def _stats(s: np.ndarray) -> Iterator[np.ndarray]:
    """Mean, min, max and std over the last axis, each computed only when the
    previous one is consumed, so that one result is alive at a time."""
    return (stat(axis=-1) for stat in (s.mean, s.min, s.max, s.std))


def aggregate_trajectory(
    times: Sequence[float], dissatisfaction: np.ndarray, group_of: Sequence[int]
) -> np.ndarray:
    """Aggregate a whole trajectory at once, into a (4, T, G + 1) array.

    ``out[i, t, scope]`` is statistic i (mean, min, max and population std,
    in that order) at report time t, for group ``scope``; the last column,
    ``scope == G``, is the whole population. Statistics are computed on
    satisfaction = 1 - dissatisfaction, so the mean commutes with the flip
    while min and max swap roles. Groups of equal size reduce together:
    their members, by group and in agent order within a group, are gathered
    into one (T, k, size) array, and each statistic reduces its last axis.
    The gather keeps time innermost, so the member axis is strided, as in
    the masked copy ``d[:, groups == g]`` of each group: the same values,
    added one after another in the same order. A copy with the members
    contiguous would add them pairwise and can differ in the last bit.
    """
    d = np.asarray(dissatisfaction, dtype=float)
    if d.ndim != 2:
        raise ValidationError([f"dissatisfaction must be 2-D (times x agents), got shape {d.shape}"])
    times = np.asarray(times, dtype=float)
    if times.shape != (d.shape[0],):
        raise ValidationError([f"times must have shape ({d.shape[0]},) (got {times.shape})"])
    errors = [] if d.shape[1] else ["dissatisfaction must be nonempty"]
    groups = _group_ids(d.shape[1], group_of, errors)
    if errors:
        raise ValidationError(errors)
    return _aggregate(d, _group_layout(groups))


def _aggregate(d: np.ndarray, layout: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """:func:`aggregate_trajectory` of a (T, N) float array, for the
    ``(order, sizes, starts)`` layout of checked group ids (a network's own)."""
    order, sizes, starts = layout
    s = 1.0 - d
    out = np.empty((4, d.shape[0], sizes.size + 1))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        same = np.flatnonzero(sizes == size)
        for column, stat in zip(out, _stats(s[:, order[starts[same, None] + np.arange(size)]])):
            column[:, same] = stat
    for column, stat in zip(out, _stats(s)):
        column[:, -1] = stat
    return out

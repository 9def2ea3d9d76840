"""Group-level satisfaction statistics: mean, min, max, and spread."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .core_types import ValidationError, _group_ids, _group_layout


def _checked_groups(n_agents: int, group_of: Sequence[int]) -> np.ndarray:
    errors = [] if n_agents else ["dissatisfaction must be nonempty"]
    groups = _group_ids(n_agents, group_of, errors)
    if errors:
        raise ValidationError(errors)
    return groups


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
    their members, by group and in agent order within a group, form one
    (T, k, size) copy, and each statistic reduces its contiguous last axis.
    That is the same values in the same order as a masked copy of each group.
    """
    d = np.asarray(dissatisfaction, dtype=float)
    if d.ndim != 2:
        raise ValidationError([f"dissatisfaction must be 2-D (times x agents), got shape {d.shape}"])
    times = np.asarray(times, dtype=float)
    if times.shape != (d.shape[0],):
        raise ValidationError([f"times must have shape ({d.shape[0]},) (got {times.shape})"])
    return _aggregate(d, _group_layout(_checked_groups(d.shape[1], group_of)))


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

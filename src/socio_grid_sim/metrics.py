"""Group-level satisfaction statistics: mean, min, max, and spread."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_types import ValidationError


@dataclass(frozen=True)
class AggregateRow:
    """Satisfaction statistics for one scope (a group, or the whole population)
    at one report time. ``scope`` is a group index, or None for the global row.
    Standard deviation is the population form (divide by N, not N - 1)."""

    time_hours: float
    scope: int | None
    mean_satisfaction: float
    min_satisfaction: float
    max_satisfaction: float
    std_satisfaction: float

    @property
    def scope_label(self) -> str:
        return "global" if self.scope is None else f"group_{self.scope}"


def _checked_groups(n_agents: int, group_of: Sequence[int]) -> np.ndarray:
    groups = np.atleast_1d(np.asarray(group_of, dtype=int))
    errors: list[str] = []
    if n_agents == 0:
        errors.append("dissatisfaction must be nonempty")
    if groups.shape != (n_agents,):
        errors.append(f"group_of must have shape ({n_agents},) (got {groups.shape})")
    if errors:
        raise ValidationError(errors)
    sizes = np.bincount(groups, minlength=int(groups.max()) + 1)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValidationError([f"group {g} has no members" for g in empty])
    return groups


def aggregate_trajectory(
    times: Sequence[float], dissatisfaction: np.ndarray, group_of: Sequence[int]
) -> list[AggregateRow]:
    """Aggregate a whole trajectory at once.

    One row per group followed by one global row, for each report time in
    turn, with the statistics vectorized over the time axis. Statistics are
    computed on satisfaction = 1 - dissatisfaction, so the mean commutes
    with the flip while min and max swap roles. Agents are
    sorted by group once (stably, so each group keeps agent order), and each
    group reduces its own contiguous columns of that one copy: the same
    values in the same order as a masked copy of the group.
    """
    d = np.asarray(dissatisfaction, dtype=float)
    if d.ndim != 2:
        raise ValidationError([f"dissatisfaction must be 2-D (times x agents), got shape {d.shape}"])
    times = np.asarray(times, dtype=float)
    if times.shape != (d.shape[0],):
        raise ValidationError([f"times must have shape ({d.shape[0]},) (got {times.shape})"])
    groups = _checked_groups(d.shape[1], group_of)
    order = np.argsort(groups, kind="stable")
    by_group = 1.0 - d[:, order]
    ends = np.cumsum(np.bincount(groups)).tolist()

    scopes: list[tuple[int | None, np.ndarray]] = [
        (g, by_group[:, start:end]) for g, (start, end) in enumerate(zip([0] + ends, ends))
    ]
    scopes.append((None, 1.0 - d))
    per_scope = [
        (scope, *(stat(axis=1).tolist() for stat in (sub.mean, sub.min, sub.max, sub.std)))
        for scope, sub in scopes
    ]
    return [
        AggregateRow(t, scope, mean[t_idx], mn[t_idx], mx[t_idx], std[t_idx])
        for t_idx, t in enumerate(times.tolist())
        for scope, mean, mn, mx, std in per_scope
    ]

"""Shedding plans: slots on the (group, slot) lattice, their validation
against a base scenario, their overlay on its electricity schedules, and
the plan document.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

from .core_types import PiecewiseSchedule, Scenario, ValidationError, _is_number

PLAN_SCHEMA_VERSION = 1


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


def validate_plan(plan: SheddingPlan, base: Scenario) -> list[str]:
    """Every way the plan is inconsistent with the base scenario."""
    errors: list[str] = []
    horizon = base.params.horizon_hours
    n_groups = base.network.n_groups
    if not plan.granularity_hours > 0.0:
        errors.append(f"granularity_hours must be > 0 (got {plan.granularity_hours!r})")
    for i, slot in enumerate(plan.slots):
        if not isinstance(slot.group, Integral) or isinstance(slot.group, bool):
            errors.append(f"slots[{i}].group = {slot.group!r} must be an integer")
        elif not 0 <= slot.group < n_groups:
            errors.append(f"slots[{i}].group = {slot.group!r} outside 0..{n_groups - 1}")
        if not slot.start_hour >= 0.0:
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
    distinct, index = base._schedule_sets[0]
    cache: dict[tuple[int, int], PiecewiseSchedule] = {}
    merged: list[PiecewiseSchedule] = []
    for sched, group, k in zip(base.electricity, base.network.group_of.tolist(), index.tolist()):
        if group not in by_group:
            merged.append(sched)
            continue
        if (group, k) not in cache:
            cache[group, k] = _shed_schedule(distinct[k], by_group[group])
        merged.append(cache[group, k])
    return Scenario(
        params=base.params,
        network=base.network,
        electricity=tuple(merged),
        media_access=base.media_access,
        initial_dissatisfaction=base.initial_dissatisfaction,
        label=base.label,
    )


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
    if not _is_number(granularity):
        errors.append(f"granularity_hours must be a number (got {granularity!r})")
    raw_slots = doc.get("slots")
    slots: list[SheddingSlot] = []
    if not isinstance(raw_slots, list):
        errors.append("slots must be a list")
    else:
        keys = ("group", "start_hour", "duration_hours", "shed_level")
        for i, raw in enumerate(raw_slots):
            if not isinstance(raw, Mapping) or set(raw) != set(keys):
                errors.append(f"slots[{i}] must be a mapping with keys {sorted(keys)}")
                continue
            # No coercion: 1.7 or true is not group 1, and "2" is not hour 2.
            bad = [
                f"slots[{i}].{key} must be {'an integer' if key == 'group' else 'a finite number'}"
                f" (got {raw[key]!r})"
                for key in keys
                if not _is_number(raw[key]) or (key == "group" and not isinstance(raw[key], int))
            ]
            errors.extend(bad)
            if not bad:
                slots.append(SheddingSlot(raw["group"], *(float(raw[key]) for key in keys[1:])))
    if errors:
        raise ValidationError(errors)
    return SheddingPlan(slots=tuple(slots), granularity_hours=float(granularity))

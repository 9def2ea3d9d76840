"""Scenario documents on disk, the built-in case study, and result output.

Scenario files are JSON with a versioned schema. Loading either yields a
fully validated :class:`Scenario` or raises with the complete list of
violations, each naming the offending field and bound. Result output is
deterministic: fixed 9-significant-digit formatting and a manifest with no
wall-clock timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .core_types import (
    ContagionNetwork,
    GroupBlock,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    SimulationResult,
    ValidationError,
    _bits,
    _distinct,
    _is_number,
    _sorted_distinct,
)

SCHEMA_VERSION = 1

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))


class ScenarioParseError(ValueError):
    """The file is not parseable as a scenario document at all."""


def _breakpoints_from_block(block: object, context: str, errors: list[str]) -> list[tuple[float, float]] | None:
    if not isinstance(block, list) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and _is_number(p[0]) and _is_number(p[1]) for p in block
    ):
        errors.append(f"{context} must be a list of [start_hour, value] pairs (got {block!r})")
        return None
    return [(float(s), float(v)) for s, v in block]


def _entry_bits(entries: list) -> Iterator[bytes] | None:
    """Each entry's float64 bits, if every entry is a list of pairs of Python ints and floats.

    Such entries with equal bits pass or fail the same checks and give the
    same schedule, and bits keep ``-0.0`` apart from ``0.0``. The types are
    checked in one pass over the whole block; a block holding ``True``,
    ``"1"``, a numpy scalar, nested junk or an int too large for a float
    gives None, and then each of its entries is checked on its own.
    """
    if set(map(type, entries)) != {list}:
        return None
    pairs = list(chain.from_iterable(entries))
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
        return None
    if not set(map(type, chain.from_iterable(pairs))) <= {int, float}:
        return None
    try:
        blob = struct.pack(f"<{2 * len(pairs)}d", *chain.from_iterable(pairs))
    except struct.error:  # an int too large for a float
        return None
    ends = list(accumulate(map(len, entries), initial=0))
    return (blob[16 * start : 16 * end] for start, end in zip(ends, ends[1:]))


def _schedules_from_block(
    block: object, context: str, count: int, horizon: float | None, errors: list[str]
) -> tuple[PiecewiseSchedule, ...] | None:
    if not isinstance(block, Mapping) or set(block) not in ({"broadcast"}, {"per_agent"}):
        errors.append(f"{context} must contain exactly one of 'broadcast' or 'per_agent'")
        return None
    if "broadcast" in block:
        entries, copies, where = [block["broadcast"]], count, f"{context}.broadcast"
    else:
        entries, copies, where = block["per_agent"], 1, f"{context}.per_agent[{{}}]"
        if not isinstance(entries, list) or len(entries) != count:
            errors.append(f"{context}.per_agent must list one breakpoint list per agent ({count} expected)")
            return None
    # Agents whose entries hold the same float bits share one schedule object.
    # Bits, not values: a -0.0 entry keeps its own object. An entry whose raw
    # bits (from _entry_bits) name a schedule already built is not checked
    # again; without them every entry is checked. Only valid schedules are
    # kept, so a repeated bad entry reports every agent.
    out: list[PiecewiseSchedule] = []
    interned: dict[bytes | None, PiecewiseSchedule] = {}
    for idx, (entry, bits) in enumerate(zip(entries, _entry_bits(entries) or [None] * len(entries))):
        if bits not in interned:
            points = _breakpoints_from_block(entry, where.format(idx), errors)
            if points is None or horizon is None:  # horizon None: params block already failed
                continue
            bits = _bits(points)
            if bits not in interned:
                try:
                    interned[bits] = PiecewiseSchedule(tuple(points), horizon)
                except ValidationError as exc:
                    errors.extend(f"{where.format(idx)}: {v}" for v in exc.violations)
                    continue
        out.append(interned[bits])
    return tuple(out) * copies if len(out) == len(entries) else None


def _finite_floats(values: list) -> np.ndarray | None:
    """``values``, a list of numbers, as a float array if every number is
    finite, else None. Python ints and floats alone take one vectorized
    check: ``np.asarray`` would turn ``True`` and ``"1"`` into numbers, so
    any other type, numpy scalars included, is checked entry by entry."""
    if set(map(type, values)) <= {int, float}:
        try:
            array = np.asarray(values, dtype=float)
        except OverflowError:  # an int too large for a float
            return None
        return array if np.isfinite(array).all() else None
    if all(map(_is_number, values)):
        return np.asarray(values, dtype=float)
    return None


def _dense_matrix(dense: object, count: int) -> np.ndarray | None:
    """``dense`` as a float array if it is a ``count`` x ``count`` list of
    ints and floats (not bools), else None. Only shape and types are checked
    here; ``ContagionNetwork._check`` is the one check of the values."""
    if not (
        isinstance(dense, list)
        and len(dense) == count
        and all(isinstance(row, list) and len(row) == count for row in dense)
        and all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, chain.from_iterable(dense))))
    ):
        return None
    try:
        return np.asarray(dense, dtype=float)
    except OverflowError:  # an int too large for a float
        return None


def scenario_from_dict(doc: object) -> Scenario:
    """Build a validated scenario from a parsed document.

    Collects every violation before raising, so a broken file reports all of
    its problems at once.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioParseError(f"scenario document must be a mapping (got {type(doc).__name__})")
    errors: list[str] = []

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION} (got {version!r})")
    unknown = set(doc) - {"schema_version", "label", "params", "agents", "network", "schedules"}
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")

    label = doc.get("label", "")
    if not isinstance(label, str):
        errors.append(f"label must be a string (got {label!r})")
        label = ""

    # params
    params = None
    horizon = None
    raw_params = doc.get("params")
    if not isinstance(raw_params, Mapping):
        errors.append("params block is required and must be a mapping")
    else:
        unknown = set(raw_params) - set(_PARAM_KEYS)
        if unknown:
            errors.append(f"params: unknown keys {sorted(unknown)}")
        bad_types = [k for k in _PARAM_KEYS if k in raw_params and not _is_number(raw_params[k])]
        for key in bad_types:
            errors.append(f"params.{key} must be a finite number (got {raw_params[key]!r})")
        if "horizon_hours" not in raw_params:
            errors.append("params.horizon_hours is required")
        elif not bad_types and not unknown:
            try:
                params = ModelParams(**{k: float(raw_params[k]) for k in _PARAM_KEYS if k in raw_params})
                horizon = params.horizon_hours
            except ValidationError as exc:
                errors.extend(f"params: {v}" for v in exc.violations)
        if horizon is None and _is_number(raw_params.get("horizon_hours")):
            horizon = float(raw_params["horizon_hours"])  # lets schedule checks still run

    # agents
    count = None
    groups = None
    initial = None
    raw_agents = doc.get("agents")
    if not isinstance(raw_agents, Mapping):
        errors.append("agents block is required and must be a mapping")
    else:
        unknown = set(raw_agents) - {"count", "groups", "initial_dissatisfaction"}
        if unknown:
            errors.append(f"agents: unknown keys {sorted(unknown)}")
        raw_count = raw_agents.get("count")
        if not (isinstance(raw_count, int) and not isinstance(raw_count, bool) and raw_count >= 1):
            errors.append(f"agents.count must be an integer >= 1 (got {raw_count!r})")
        else:
            count = raw_count
        raw_groups = raw_agents.get("groups")
        # Plain JSON ints take one pass over the types; anything else is checked on its own.
        if not isinstance(raw_groups, list) or not (set(map(type, raw_groups)) <= {int} or all(
            isinstance(g, int) and not isinstance(g, bool) for g in raw_groups
        )):
            errors.append("agents.groups must be a list of integer group ids")
        elif count is not None and len(raw_groups) != count:
            errors.append(f"agents.groups must have length {count} (got {len(raw_groups)})")
        else:
            groups = list(raw_groups)
        if groups is None:
            # Only a group list of that length bounds the count by the file's
            # size; an unconfirmed 10**9 would otherwise size broadcasts.
            count = None
        raw_initial = raw_agents.get("initial_dissatisfaction")
        if _is_number(raw_initial):
            raw_initial = [float(raw_initial)] * (count or 0)
        values = _finite_floats(raw_initial) if isinstance(raw_initial, list) else None
        if values is None:
            errors.append("agents.initial_dissatisfaction must be a number or a list of numbers")
        elif count is not None and len(values) != count:
            errors.append(f"agents.initial_dissatisfaction must have length {count} (got {len(values)})")
        else:
            initial = values
            for idx in np.flatnonzero(~((values >= 0.0) & (values <= 1.0))).tolist():
                errors.append(f"agents.initial_dissatisfaction[{idx}] = {values[idx].item()!r} outside [0, 1]")

    # network
    network = None
    raw_network = doc.get("network")
    if not isinstance(raw_network, Mapping) or set(raw_network) not in ({"full_within_groups"}, {"dense"}):
        errors.append("network block must contain exactly one of 'full_within_groups' or 'dense'")
    elif count is not None and groups is not None:
        try:
            if "full_within_groups" in raw_network:
                shorthand = raw_network["full_within_groups"]
                weight = shorthand.get("weight", 1.0) if isinstance(shorthand, Mapping) else None
                if not isinstance(shorthand, Mapping) or set(shorthand) - {"weight"} or not _is_number(weight):
                    errors.append("network.full_within_groups must be a mapping with an optional numeric 'weight'")
                else:
                    network = ContagionNetwork.full_within_groups(groups, float(weight))
            else:
                matrix = _dense_matrix(raw_network["dense"], count)
                if matrix is None:
                    errors.append(f"network.dense must be a {count} x {count} matrix of numbers")
                else:
                    network = ContagionNetwork._of_matrix(count, matrix, np.asarray(groups))
        except ValidationError as exc:
            errors.extend(f"network: {v}" for v in exc.violations)

    # schedules
    electricity = None
    media_access = None
    raw_schedules = doc.get("schedules")
    if not isinstance(raw_schedules, Mapping) or set(raw_schedules) != {"electricity", "media_access"}:
        errors.append("schedules block must contain exactly 'electricity' and 'media_access'")
    elif count is not None:
        electricity = _schedules_from_block(
            raw_schedules["electricity"], "schedules.electricity", count, horizon, errors
        )
        media_access = _schedules_from_block(
            raw_schedules["media_access"], "schedules.media_access", count, horizon, errors
        )

    if errors:
        raise ValidationError(errors)
    assert params is not None and network is not None
    assert electricity is not None and media_access is not None and initial is not None
    return Scenario(
        params=params,
        network=network,
        electricity=electricity,
        media_access=media_access,
        initial_dissatisfaction=np.asarray(initial),
        label=label,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical on-disk form; inverse of :func:`scenario_from_dict`."""
    def sched_block(schedules: Sequence[PiecewiseSchedule]) -> dict:
        points = [[list(p) for p in s.breakpoints] for s in schedules]
        return {"broadcast": points[0]} if len(_distinct(schedules)[0]) == 1 else {"per_agent": points}

    operator = scenario.network.operator
    if isinstance(operator, GroupBlock):
        network = {"full_within_groups": {"weight": operator.weight}}
    else:
        network = {"dense": operator.matrix.tolist()}
    return {
        "schema_version": SCHEMA_VERSION,
        "label": scenario.label,
        "params": scenario.params.as_dict(),
        "agents": {
            "count": scenario.n_agents,
            "groups": scenario.network.group_of.tolist(),
            "initial_dissatisfaction": scenario.initial_dissatisfaction.tolist(),
        },
        "network": network,
        "schedules": {
            "electricity": sched_block(scenario.electricity),
            "media_access": sched_block(scenario.media_access),
        },
    }


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(doc)


def _create(path: Path) -> TextIO:
    """A new file at ``path``, open for writing text; a file already there is removed first.

    Every output goes through here. Truncating a previous run's file instead
    makes ext4 (``auto_da_alloc``, its default) flush it again at close: on
    an ext4 virtual disk a 4.9 MB ``agents.csv`` rewritten that way took
    7.1 ms, against 2.4 ms when removed and created anew. That flush is
    also what keeps a crash from emptying the file, and the speed is bought
    with it: after a crash before the new data is written back (about half
    a minute by default), an output can be empty, even beside complete
    ones, where the truncated file held the old or the new bytes. A hard
    link or an open reader of the old file keeps its bytes, and a symlink
    at the path is replaced, not written through.
    """
    path.unlink(missing_ok=True)
    return path.open("w", newline="", encoding="utf-8")


def _write_json(doc: object, path: Path) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the canonical document; ``load_scenario`` restores it exactly."""
    _write_json(scenario_to_dict(scenario), Path(path))


def builtin_case_study(variant: str = "full_access") -> Scenario:
    """Nine agents in three areas of three, 48 hours, with a midday shedding window.

    Electricity availability is 1.0 except on hours [17, 34) where shedding
    0.5 drops it to 0.5. Media access is 1.0 throughout for ``full_access``
    and fixed at 0.5 for ``limited_access``. Everyone starts neutral at
    dissatisfaction 0.5.
    """
    if variant not in ("full_access", "limited_access"):
        raise ValidationError([f"variant must be 'full_access' or 'limited_access' (got {variant!r})"])
    horizon = 48.0
    groups = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    electricity = PiecewiseSchedule(((0.0, 1.0), (17.0, 0.5), (34.0, 1.0)), horizon)
    access_level = 1.0 if variant == "full_access" else 0.5
    media = PiecewiseSchedule.constant(access_level, horizon)
    return Scenario(
        params=ModelParams(horizon_hours=horizon),
        network=ContagionNetwork.full_within_groups(groups, 1.0),
        electricity=(electricity,) * len(groups),
        media_access=(media,) * len(groups),
        initial_dissatisfaction=np.full(len(groups), 0.5),
        label=f"case-study-{variant.replace('_', '-')}",
    )


# Floats of trajectory indexed at once when writing agents.csv: one report
# time of a large population. Blocks of 2**14 floats were no faster at 3000
# agents and doubled the writer's peak memory with the sort's temporaries.
_BLOCK_FLOATS = 2**12


def write_results(
    result: SimulationResult, out_dir: str | Path, extra_manifest: Mapping | None = None
) -> list[Path]:
    """Write per-agent CSV, aggregate CSV, and the manifest into ``out_dir``.

    Returns the written paths. Output is byte-reproducible: fixed numeric
    formatting, sorted manifest keys, and no timestamps.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agents_path = out / "agents.csv"
    aggregates_path = out / "aggregates.csv"
    manifest_path = out / "manifest.json"

    # Every field is a number or a scope label, so none ever needs CSV
    # quoting. agents.csv is written a block of report times at a time. Each
    # distinct float64 bit pattern of a block is formatted once: np.unique on
    # the bits gives the patterns and each entry's rank among them, and bits
    # keep -0.0 (text "-0") apart from 0.0. A report time's lines are one
    # join of alternating time, agent id and value texts.
    ids = [f",{agent},{group}," for agent, group in enumerate(result.groups.tolist())]
    parts = [""] * (3 * len(ids))
    parts[1::3] = ids
    traj = result.dissatisfaction
    rows = max(1, _BLOCK_FLOATS // max(len(ids), 1))
    with _create(agents_path) as fh:
        fh.write("t_hours,agent_id,group,dissatisfaction,satisfaction\n")
        for start in range(0, traj.shape[0], rows) if ids else ():
            block = traj[start : start + rows]
            bits, ranks = np.unique(block.view(np.uint64), return_inverse=True)
            texts = np.array([f"{d:.9g},{1.0 - d:.9g}\n" for d in bits.view(np.float64).tolist()], dtype=object)
            for t, rank in zip(result.times[start : start + rows].tolist(), ranks.reshape(block.shape)):
                parts[::3] = [f"{t:.9g}"] * len(ids)
                parts[2::3] = texts.take(rank).tolist()
                fh.write("".join(parts))

    # As in agents.csv, each distinct float64 bit pattern is formatted once.
    labels = [f"group_{g}," for g in range(result.aggregates.shape[2] - 1)] + ["global,"]
    bits = result.aggregates.transpose(1, 2, 0).view(np.int64)
    distinct = _sorted_distinct(bits)
    texts = np.array([f"{v:.9g}" for v in distinct.view(np.float64).tolist()], dtype=object)
    with _create(aggregates_path) as fh:
        fh.write("t_hours,scope,mean_s,min_s,max_s,std_s\n")
        fh.write(
            "".join(
                f"{t:.9g},{label}{mean},{low},{high},{std}\n"
                for t, stats in zip(result.times.tolist(), texts.take(distinct.searchsorted(bits)).tolist())
                for label, (mean, low, high, std) in zip(labels, stats)
            )
        )

    manifest = dict(result.manifest)
    if extra_manifest:
        manifest.update(extra_manifest)
    _write_json(manifest, manifest_path)
    return [agents_path, aggregates_path, manifest_path]

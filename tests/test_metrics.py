from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socio_grid_sim import ValidationError, aggregate_trajectory


MEAN, MIN, MAX, STD = range(4)


def test_neutral_population():
    stats = aggregate_trajectory([0.0], np.full((1, 9), 0.5), [0, 0, 0, 1, 1, 1, 2, 2, 2])
    assert stats.shape == (4, 1, 4)
    assert np.all(stats[MEAN] == 0.5)
    assert np.all(stats[STD] == 0.0)


def test_spread_population():
    stats = aggregate_trajectory([1.0], np.array([[0.0, 0.5, 1.0]]), [0, 0, 0])
    assert stats.shape == (4, 1, 2)
    mean, low, high, std = stats[:, 0, -1]
    assert mean == pytest.approx(0.5, abs=1e-15)
    assert low == 0.0
    assert high == 1.0
    assert std == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-15)


def test_singleton_group():
    stats = aggregate_trajectory([2.0], np.array([[0.3]]), [0])
    assert np.all(stats[[MEAN, MIN, MAX]] == 0.7)
    assert np.all(stats[STD] == 0.0)


def test_satisfaction_stats_mirror_dissatisfaction():
    d = np.array([0.1, 0.4, 0.9, 0.2])
    mean, low, high, std = aggregate_trajectory([0.0], d[None], [0, 0, 0, 0])[:, 0, -1]
    assert mean == pytest.approx(1.0 - d.mean(), abs=1e-12)
    assert low == pytest.approx(1.0 - d.max(), abs=1e-12)
    assert high == pytest.approx(1.0 - d.min(), abs=1e-12)
    assert std == pytest.approx(d.std(), abs=1e-12)


def test_empty_group_rejected():
    with pytest.raises(ValidationError, match=r"missing groups \[1\]"):
        aggregate_trajectory([0.0], np.array([[0.5, 0.5]]), [0, 2])


@pytest.mark.parametrize(
    "groups, message",
    [([0, 0.7, 1.2], "integer group ids"), (["0", "1", "1"], "integer group ids"), ([0, -1, 1], "nonnegative")],
    ids=["fractional", "strings", "negative"],
)
def test_malformed_group_ids_rejected(groups, message):
    # The scenario's own group-id check: nothing is cast to int on the way.
    with pytest.raises(ValidationError, match=message):
        aggregate_trajectory([0.0], np.full((1, 3), 0.5), groups)


@pytest.mark.parametrize(
    "times, d, message",
    [
        ([0.0], np.full(3, 0.5), "dissatisfaction must be 2-D (times x agents), got shape (3,)"),
        ([0.0, 1.0], np.full((1, 3), 0.5), "times must have shape (1,) (got (2,))"),
    ],
    ids=["1-D", "times"],
)
def test_malformed_trajectory_rejected(times, d, message):
    with pytest.raises(ValidationError) as excinfo:
        aggregate_trajectory(times, d, [0, 0, 1])
    assert excinfo.value.violations == [message]


def test_empty_population_rejected():
    with pytest.raises(ValidationError, match="nonempty"):
        aggregate_trajectory([0.0], np.empty((1, 0)), [])


@given(
    d=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=200)
def test_permutation_invariant_within_group(d, seed):
    values = np.asarray(d)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(values.size)
    base = aggregate_trajectory([0.0], values[None], np.zeros(values.size, dtype=int))
    shuffled = aggregate_trajectory([0.0], values[perm][None], np.zeros(values.size, dtype=int))
    assert base[[MEAN, STD]] == pytest.approx(shuffled[[MEAN, STD]], abs=1e-12)
    assert np.array_equal(base[[MIN, MAX]], shuffled[[MIN, MAX]])


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=200)
def test_global_mean_is_size_weighted_group_mean(sizes, seed):
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    d = rng.uniform(0.0, 1.0, size=groups.size)
    stats = aggregate_trajectory([0.0], d[None], groups)[:, 0]
    weighted = sum(mean * s for mean, s in zip(stats[MEAN, :-1].tolist(), sizes)) / sum(sizes)
    assert stats[MEAN, -1] == pytest.approx(weighted, abs=1e-12)
    assert np.all(stats[MIN] <= stats[MEAN]) and np.all(stats[MEAN] <= stats[MAX])
    assert np.all(stats[STD] >= 0.0)


def test_trajectory_matches_per_time_rows():
    # The trajectory equals its one-row calls, one report time each.
    rng = np.random.default_rng(3)
    d = rng.uniform(0.0, 1.0, size=(5, 7))
    groups = np.array([0, 0, 1, 1, 1, 2, 2])
    times = np.arange(5.0)
    per_time = [aggregate_trajectory([t], d[i][None], groups) for i, t in enumerate(times)]
    assert np.array_equal(aggregate_trajectory(times, d, groups), np.concatenate(per_time, axis=1))


def masked_rows(times, d, groups):
    """Statistics over a masked (T, n_g) copy of each group's columns."""
    s = 1.0 - d
    scopes = [(g, s[:, groups == g]) for g in range(groups.max() + 1)] + [(None, s)]
    stats = [(scope, sub.mean(axis=1), sub.min(axis=1), sub.max(axis=1), sub.std(axis=1)) for scope, sub in scopes]
    return [
        (float(t), scope, float(mean[i]), float(mn[i]), float(mx[i]), float(std[i]))
        for i, t in enumerate(times)
        for scope, mean, mn, mx, std in stats
    ]


@pytest.mark.parametrize("n_times", [1, 49])
@pytest.mark.parametrize(
    "sizes",
    [[1] * 7, [3, 1, 9, 1, 12, 2], [8, 8, 8], [40], [1, 25], [5] * 40, [2, 2, 3, 3, 3], [9]],
    ids=["singletons", "mixed", "eights", "one-group", "singleton-and-wide", "forty-fives", "twos-and-threes", "nine"],
)
def test_trajectory_matches_masked_groups_bit_for_bit(sizes, n_times):
    rng = np.random.default_rng(sum(sizes) + n_times)
    groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    d = rng.uniform(0.0, 1.0, size=(n_times, groups.size))
    times = np.arange(n_times) * 0.5
    stats = aggregate_trajectory(times, d, groups)
    labels = list(range(len(sizes))) + [None]
    got = [
        (t, scope, *stats[:, i, column].tolist())
        for i, t in enumerate(times.tolist())
        for column, scope in enumerate(labels)
    ]
    want = masked_rows(times, d, groups)
    assert [tuple(map(_bits, row)) for row in got] == [tuple(map(_bits, row)) for row in want]


def _bits(value):
    return value.hex() if isinstance(value, float) else value

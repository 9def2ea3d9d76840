from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from socio_grid_sim import (
    ScenarioParseError,
    SimulationResult,
    ValidationError,
    builtin_case_study,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    write_results,
    write_scenario,
)
from socio_grid_sim.cli import main

from oracles import reference_agents_csv, same_bits


def minimal_doc() -> dict:
    return {
        "schema_version": 1,
        "label": "demo",
        "params": {"horizon_hours": 4.0},
        "agents": {"count": 3, "groups": [0, 0, 1], "initial_dissatisfaction": 0.5},
        "network": {"full_within_groups": {"weight": 1.0}},
        "schedules": {
            "electricity": {"broadcast": [[0.0, 1.0], [2.0, 0.5]]},
            "media_access": {"broadcast": [[0.0, 1.0]]},
        },
    }


def with_section(key: str, value: object) -> dict:
    """``minimal_doc`` with its top-level ``key`` set to ``value``, or removed for None."""
    doc = minimal_doc()
    doc[key] = value
    if value is None:
        del doc[key]
    return doc


_NETWORK_FORMS = "network block must contain exactly one of 'full_within_groups' or 'dense'"

# Document checks that only a hand-written file reaches: the document and the
# one violation it gives.
BROKEN_DOCUMENTS = {
    "not-a-mapping": ([], "scenario document must be a mapping (got list)"),
    "label": (with_section("label", 7), "label must be a string (got 7)"),
    "no-params": (with_section("params", None), "params block is required and must be a mapping"),
    "no-horizon": (with_section("params", {"omega1": 0.5}), "params.horizon_hours is required"),
    "no-agents": (with_section("agents", None), "agents block is required and must be a mapping"),
    "agents-key": (
        with_section("agents", {**minimal_doc()["agents"], "size": 3}), "agents: unknown keys ['size']"
    ),
    "both-networks": (
        with_section("network", {"full_within_groups": {}, "dense": [[0.0] * 3] * 3}), _NETWORK_FORMS
    ),
    "no-network": (with_section("network", {}), _NETWORK_FORMS),
    "schedules-key": (
        with_section("schedules", {"electricity": {"broadcast": [[0.0, 1.0]]}}),
        "schedules block must contain exactly 'electricity' and 'media_access'",
    ),
}


class TestBuiltinCaseStudy:
    def test_population_structure(self):
        scenario = builtin_case_study("full_access")
        assert scenario.n_agents == 9
        assert scenario.network.n_groups == 3
        assert np.array_equal(scenario.network.group_sizes, [3, 3, 3])
        assert np.all(scenario.initial_dissatisfaction == 0.5)
        assert scenario.params.horizon_hours == 48.0

    def test_full_access_schedules(self):
        scenario = builtin_case_study("full_access")
        assert scenario.electricity[0].value_at(20.0) == 0.5
        assert scenario.media_access[0].value_at(20.0) == 1.0

    def test_limited_access_schedules(self):
        scenario = builtin_case_study("limited_access")
        for t in (0.0, 17.0, 33.9, 47.9):
            assert scenario.media_access[4].value_at(t) == 0.5

    def test_no_shedding_outside_window(self):
        for variant in ("full_access", "limited_access"):
            scenario = builtin_case_study(variant)
            for t in (5.0, 40.0):
                assert 1.0 - scenario.electricity[0].value_at(t) == 0.0
            assert 1.0 - scenario.electricity[0].value_at(20.0) == 0.5

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValidationError, match="variant"):
            builtin_case_study("offline")


class TestScenarioDocuments:
    def test_loads_minimal_document(self, tmp_path: Path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()))
        scenario = load_scenario(path)
        assert scenario.label == "demo"
        assert scenario.n_agents == 3
        assert scenario.electricity[0].value_at(3.0) == 0.5
        assert scenario.params.omega1 == 0.5  # defaults fill in

    def test_round_trip_identity(self, tmp_path: Path):
        original = scenario_from_dict(minimal_doc())
        path = tmp_path / "out.json"
        write_scenario(original, path)
        reloaded = load_scenario(path)
        assert reloaded == original
        write_scenario(reloaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_round_trip_builtin(self, tmp_path: Path):
        original = builtin_case_study("limited_access")
        path = tmp_path / "case.json"
        write_scenario(original, path)
        assert load_scenario(path) == original

    def test_per_agent_schedules_and_dense_network(self, tmp_path: Path):
        doc = minimal_doc()
        doc["network"] = {"dense": [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        doc["schedules"]["electricity"] = {
            "per_agent": [[[0.0, 1.0]], [[0.0, 0.5]], [[0.0, 0.25], [1.0, 0.75]]]
        }
        scenario = scenario_from_dict(doc)
        assert scenario.network.base_weights[0, 1] == 2.0
        assert scenario.electricity[2].value_at(2.0) == 0.75

    def test_equal_per_agent_entries_load_as_one_object(self):
        doc = minimal_doc()
        doc["schedules"]["electricity"] = {
            "per_agent": [[[0.0, 1.0], [2.0, 0.5]], [[0.0, 0.25]], [[0, 1], [2, 0.5]]]
        }
        elec = scenario_from_dict(doc).electricity
        assert elec[0] is elec[2] and elec[0] is not elec[1]

    @pytest.mark.parametrize("bad", [[[0.0, True]], [[0.0, 1.0], [1.0, 1.5]], [[0.0, float("nan")]]])
    def test_repeated_invalid_entry_names_every_agent(self, bad):
        doc = minimal_doc()
        doc["schedules"]["media_access"] = {"per_agent": [bad, [[0.0, 1.0]], bad]}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        text = "\n".join(excinfo.value.violations)
        assert "media_access.per_agent[0]" in text and "media_access.per_agent[2]" in text
        assert "media_access.per_agent[1]" not in text

    # A numpy float first, then a look-alike of its 8 bytes: marshal, which
    # keys the entries, writes every buffer as its bytes, so both share a key.
    _BUFFERS = [
        ([[0, np.float64(1.0)]], [[0, np.float64(1.0).tobytes()]]),
        ([[0, np.float64(1.0)]], [[0, memoryview(np.float64(1.0).tobytes())]]),
    ]

    @pytest.mark.parametrize(
        "look_alike", [[[0, True]], [[0, "1"]], [[0, 1, 1]], [[0, [1]]], [[0, np.int64(1)]], *_BUFFERS]
    )
    def test_checked_entry_does_not_pass_a_look_alike(self, look_alike):
        # A valid entry checked once must not vouch for a later entry that
        # only resembles it: the later agent is rejected by name.
        first, look_alike = look_alike if isinstance(look_alike, tuple) else ([[0, 1]], look_alike)
        doc = minimal_doc()
        doc["schedules"]["electricity"] = {"per_agent": [first, look_alike, first]}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        text = "\n".join(excinfo.value.violations)
        assert "electricity.per_agent[1]" in text
        assert "electricity.per_agent[0]" not in text and "electricity.per_agent[2]" not in text

    class Pairs(list):
        pass

    @pytest.mark.parametrize(
        "first, later",
        [
            ([[0, 1]], Pairs([[0, 0.5]])),
            ([[0, 1]], [Pairs([0, 0.5])]),
            ([[0, 0.0]], [[0, -0.0]]),
            ([[0, -0.0]], [[0, 0.0]]),
        ],
    )
    def test_valid_look_alike_gets_its_own_bits(self, first, later):
        # A list subclass, or a -0.0 where the first entry has 0.0, loads as
        # its own numbers, not as the entry before it.
        doc = minimal_doc()
        doc["schedules"]["electricity"] = {"per_agent": [first, later, first]}
        elec = scenario_from_dict(doc).electricity
        assert elec[0] is elec[2] and elec[0] is not elec[1]
        for sched, entry in zip(elec, (first, later)):
            assert same_bits(np.array(sched.breakpoints), np.array([[float(x) for x in p] for p in entry]))

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_negative_zero_entry_keeps_its_own_schedule_in_either_order(self, first, second):
        doc = minimal_doc()
        doc["schedules"]["electricity"] = {"per_agent": [[[0.0, first]], [[0.0, second]], [[0.0, first]]]}
        elec = scenario_from_dict(doc).electricity
        assert elec[0] is elec[2] and elec[0] is not elec[1]
        assert [str(s.breakpoints[0][1]) for s in elec] == [str(first), str(second), str(first)]

    def test_numpy_scalars_load_like_floats(self):
        # Python callers may pass numpy floats; they take the entry-by-entry
        # checks and load equal to the plain document.
        doc = minimal_doc()
        doc["network"] = {"dense": [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        doc["schedules"]["electricity"] = {"per_agent": [[[0.0, 1.0]], [[0.0, 0.5]], [[0.0, 1.0]]]}
        plain = scenario_from_dict(doc)
        doc["network"]["dense"][0] = list(np.array(doc["network"]["dense"][0]))
        doc["schedules"]["electricity"]["per_agent"][1] = [list(np.array([0.0, 0.5]))]
        doc["agents"]["initial_dissatisfaction"] = list(np.full(3, 0.5))
        assert scenario_from_dict(doc) == plain

    @pytest.mark.parametrize(
        "key, entry, message",
        [
            ("initial_dissatisfaction", True, "agents.initial_dissatisfaction must be a number or a list of numbers"),
            ("initial_dissatisfaction", "1", "agents.initial_dissatisfaction must be a number or a list of numbers"),
            ("initial_dissatisfaction", 2**60, "agents.initial_dissatisfaction[1] = 1.152921504606847e+18 outside [0, 1]"),
            ("initial_dissatisfaction", -1, "agents.initial_dissatisfaction[1] = -1.0 outside [0, 1]"),
            ("groups", True, "agents.groups must be a list of integer group ids"),
            ("groups", 0.0, "agents.groups must be a list of integer group ids"),
        ],
    )
    def test_agent_lists_check_look_alikes(self, key, entry, message):
        # Plain ints and floats take one pass over the types; anything else
        # is checked on its own, with the same messages.
        doc = minimal_doc()
        values = [0.5, entry, 0.5] if key == "initial_dissatisfaction" else [0, entry, 1]
        doc["agents"] = {**doc["agents"], key: values}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        assert message in excinfo.value.violations

    @pytest.mark.parametrize("entry", [True, "1"])
    def test_dense_rejects_non_numbers(self, entry):
        doc = minimal_doc()
        doc["network"] = {"dense": [[0.0, entry, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        with pytest.raises(ValidationError, match=r"network\.dense must be a 3 x 3 matrix of numbers"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_dense_non_finite_weight_names_base_weights(self, tmp_path: Path, literal):
        # Python's json reads these literals as floats. The loader checks only
        # the matrix's shape and types; the network's own check names the values.
        doc = minimal_doc()
        doc["network"] = {"dense": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, float(literal), 0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert literal in path.read_text()
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert excinfo.value.violations == ["network: base_weights must be finite"]

    def test_dense_negative_zero_weight_keeps_its_digest(self, tmp_path: Path):
        doc = minimal_doc()
        doc["network"] = {"dense": [[0.0, 1.0, -0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        original = scenario_from_dict(doc)
        write_scenario(original, tmp_path / "out.json")
        reloaded = load_scenario(tmp_path / "out.json")
        assert str(reloaded.network.base_weights[0, 2]) == "-0.0"
        assert reloaded.content_digest() == original.content_digest()
        doc["network"]["dense"][0][2] = 0.0
        assert scenario_from_dict(doc).content_digest() != original.content_digest()

    @pytest.mark.parametrize("spells_group_block", [False, True])
    def test_dense_load_holds_one_matrix(self, spells_group_block):
        # 1000 agents in 10 groups: an 8 MB matrix, 2 % nonzero or spelling
        # the group block. The loader's array becomes the network's without a
        # copy, and no N x N mask is built beside it: the check reads the
        # extremes, which NaN propagates through.
        import tracemalloc

        from socio_grid_sim.core_types import GroupBlock

        n = 1000
        rng = np.random.default_rng(4)
        groups = np.arange(n) % 10
        if spells_group_block:
            matrix = np.where(groups[:, None] == groups, 1.5, 0.0)
        else:
            matrix = np.where(rng.uniform(size=(n, n)) < 0.02, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        np.fill_diagonal(matrix, 0.0)
        doc = minimal_doc()
        doc["agents"] = {"count": n, "groups": groups.tolist(), "initial_dissatisfaction": 0.5}
        doc["network"] = {"dense": matrix.tolist()}
        del matrix
        tracemalloc.start()
        try:
            scenario = scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(scenario.network.operator, GroupBlock) == spells_group_block
        assert peak < 1.1 * n * n * 8

    def test_round_trip_keeps_negative_zero_schedules(self, tmp_path: Path):
        # Schedules equal by value but not by bits are not folded into one
        # broadcast, so the reloaded scenario has the same digest.
        doc = minimal_doc()
        doc["schedules"]["electricity"] = {
            "per_agent": [[[0.0, 1.0], [2.0, 0.0]], [[0.0, 1.0], [2.0, -0.0]], [[0.0, 1.0], [2.0, 0.0]]]
        }
        original = scenario_from_dict(doc)
        write_scenario(original, tmp_path / "out.json")
        reloaded = load_scenario(tmp_path / "out.json")
        assert reloaded.content_digest() == original.content_digest()
        assert [str(s.breakpoints[1][1]) for s in reloaded.electricity] == ["0.0", "-0.0", "0.0"]

    def test_initial_state_violation_names_agent_and_bound(self):
        doc = minimal_doc()
        doc["agents"]["initial_dissatisfaction"] = [0.5, 1.5, 0.5]
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        assert any(
            "initial_dissatisfaction[1]" in v and "[0, 1]" in v for v in excinfo.value.violations
        )

    def test_collects_every_violation(self):
        doc = minimal_doc()
        doc["params"] = {"horizon_hours": -2.0, "omega1": 0.9, "omega2": 0.9}
        doc["agents"]["initial_dissatisfaction"] = [0.5, -0.1, 1.2]
        doc["schedules"]["media_access"] = {"broadcast": [[0.0, 7.0]]}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        text = "\n".join(excinfo.value.violations)
        assert "params:" in text
        assert "initial_dissatisfaction[1]" in text
        assert "initial_dissatisfaction[2]" in text
        assert "media_access" in text
        assert len(excinfo.value.violations) >= 4

    def test_unknown_keys_rejected(self):
        doc = minimal_doc()
        doc["params"]["omega3"] = 0.5
        doc["extras"] = {}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        text = "\n".join(excinfo.value.violations)
        assert "omega3" in text and "extras" in text

    def test_schema_version_checked(self):
        doc = minimal_doc()
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            scenario_from_dict(doc)

    def test_fuzzed_corruptions_always_name_a_field(self):
        corruptions = [
            ("params", "omega1", 3.0),
            ("params", "omega2", -0.5),
            ("params", "dt_hours", 0.0),
            ("params", "horizon_hours", "soon"),
            ("params", "report_every_hours", 0.37),
            ("agents", "count", 0),
            ("agents", "groups", [0, 0, 5]),
            ("agents", "groups", "everyone"),
            ("agents", "initial_dissatisfaction", [0.5]),
            ("network", "full_within_groups", {"weight": -2.0}),
            ("network", "full_within_groups", {"weights": 1.0}),
            ("schedules", "electricity", {"broadcast": [[1.0, 0.5]]}),
            ("schedules", "electricity", {"broadcast": [[0.0, 2.0]]}),
            ("schedules", "media_access", {"per_agent": [[[0.0, 1.0]]]}),
            ("schedules", "media_access", 7),
        ]
        for section, key, value in corruptions:
            doc = minimal_doc()
            if isinstance(doc.get(section), dict):
                doc[section] = dict(doc[section])
                doc[section][key] = value
            else:
                doc[section] = value
            with pytest.raises(ValidationError) as excinfo:
                scenario_from_dict(doc)
            named = [v for v in excinfo.value.violations if section in v or key in v]
            assert named, f"no violation names {section}.{key}: {excinfo.value.violations}"

    @pytest.mark.parametrize("case", sorted(BROKEN_DOCUMENTS))
    def test_broken_document_gives_its_one_violation(self, tmp_path: Path, capsys, case):
        # Only a document that is not a mapping is a parse error, and a parse
        # error is a ValidationError too: simulate exits 2 with the message.
        doc, message = BROKEN_DOCUMENTS[case]
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(doc)
        assert excinfo.value.violations == [message] and str(excinfo.value) == message
        assert isinstance(excinfo.value, ScenarioParseError) == (case == "not-a-mapping")
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_parse_error_reports_location(self, tmp_path: Path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ScenarioParseError, match="line 1"):
            load_scenario(path)

    def test_missing_file_is_io_error(self, tmp_path: Path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_network_exports_in_its_own_form(self):
        # A group block is written as the O(N) shorthand, anything else as
        # the matrix; both load back equal.
        doc = minimal_doc()
        assert scenario_to_dict(scenario_from_dict(doc))["network"] == {"full_within_groups": {"weight": 1.0}}
        doc["network"] = {"dense": [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        scenario = scenario_from_dict(doc)
        assert scenario_to_dict(scenario)["network"] == doc["network"]
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_broadcast_detection_on_export(self):
        scenario = builtin_case_study("full_access")
        doc = scenario_to_dict(scenario)
        assert "broadcast" in doc["schedules"]["electricity"]
        assert doc["agents"]["count"] == 9


class TestWriteResults:
    def test_case_study_files(self, tmp_path: Path):
        result = simulate(builtin_case_study("full_access"))
        paths = write_results(result, tmp_path / "out")
        assert [p.name for p in paths] == ["agents.csv", "aggregates.csv", "manifest.json"]
        agg_lines = (tmp_path / "out" / "aggregates.csv").read_text().splitlines()
        assert agg_lines[0] == "t_hours,scope,mean_s,min_s,max_s,std_s"
        first_global = next(l for l in agg_lines[1:] if l.split(",")[1] == "global")
        assert first_global.split(",")[0] == "0"
        assert first_global.split(",")[2] == "0.5"
        agents_lines = (tmp_path / "out" / "agents.csv").read_text().splitlines()
        assert agents_lines[0] == "t_hours,agent_id,group,dissatisfaction,satisfaction"
        assert len(agents_lines) == 1 + 49 * 9

    def test_manifest_has_resolved_parameters_and_digest(self, tmp_path: Path):
        scenario = builtin_case_study("full_access")
        result = simulate(scenario)
        write_results(result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"]["omega1"] == 0.5
        assert manifest["params"]["dt_hours"] == 0.1
        assert manifest["scenario_digest"] == scenario.content_digest()
        assert manifest["aggregation_std"] == "population"
        assert manifest["clamp_activations"] == 0
        assert manifest["tool_version"]
        assert "timestamp" not in json.dumps(manifest).lower()

    @pytest.mark.parametrize(
        "label, extra",
        [
            ("demo", None),
            ('"groups": []', None),
            ('x\n  "groups": [],\n', {"cli_overrides": {"groups": [1, 2], "omega1": 0.4}}),
            ("é \\ \t", {"groups": [True, 0]}),
            ("plain", {"groups": [0.0, 1]}),
            ("plain", {"groups": []}),
            ("plain", {"groups": "0,1"}),
            ("plain", {"zz": [0, 1], "aa": {"groups": []}}),
        ],
    )
    def test_manifest_is_the_stdlib_indented_dump(self, tmp_path: Path, label, extra):
        # The manifest is the stdlib's indented, key-sorted dump plus a
        # newline, whatever the label or the extra keys hold, including
        # text and keys that look like the per-agent groups list.
        result = simulate(scenario_from_dict(dict(minimal_doc(), label=label)))
        manifest = dict(result.manifest, **(extra or {}))
        write_results(result, tmp_path, extra)
        expected = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == expected

    def test_empty_result_writes_headers_only(self, tmp_path: Path):
        empty = SimulationResult(
            times=np.zeros(0),
            dissatisfaction=np.zeros((0, 4)),
            groups=np.zeros(4, dtype=int),
            aggregates=np.zeros((4, 0, 2)),
            manifest={"label": "empty"},
        )
        write_results(empty, tmp_path)
        assert (tmp_path / "agents.csv").read_text() == "t_hours,agent_id,group,dissatisfaction,satisfaction\n"
        assert (tmp_path / "aggregates.csv").read_text() == "t_hours,scope,mean_s,min_s,max_s,std_s\n"

    def test_two_identical_runs_are_byte_identical(self, tmp_path: Path):
        scenario = builtin_case_study("limited_access")
        write_results(simulate(scenario), tmp_path / "a")
        write_results(simulate(scenario), tmp_path / "b")
        for name in ("agents.csv", "aggregates.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_matches_a_plain_csv_writer(self, tmp_path: Path):
        # Awkward values for 9-significant-digit text: tiny, inexact sums,
        # exact 0 and exact 1, and their complements.
        import csv

        from socio_grid_sim import aggregate_trajectory

        values = np.array([[1e-10, 0.1 + 0.2, 0.0], [1.0, 1.0 - 1e-10, 1.0 / 3.0]])
        times = np.array([0.0, 0.1 + 0.2])
        groups = np.array([0, 1, 0])
        aggregates = aggregate_trajectory(times, values, groups)
        aggregates[:, 1, 1] = (0.0, 1.0, 0.1 + 0.2, 1e-10)
        result = SimulationResult(times=times, dissatisfaction=values, groups=groups, aggregates=aggregates)
        write_results(result, tmp_path)

        def fmt(value) -> str:
            return format(float(value), ".9g")

        expected = {}
        for name, header, lines in (
            (
                "agents.csv",
                ["t_hours", "agent_id", "group", "dissatisfaction", "satisfaction"],
                [
                    [fmt(t), agent, int(groups[agent]), fmt(values[i, agent]), fmt(1.0 - values[i, agent])]
                    for i, t in enumerate(times)
                    for agent in range(3)
                ],
            ),
            (
                "aggregates.csv",
                ["t_hours", "scope", "mean_s", "min_s", "max_s", "std_s"],
                [
                    [fmt(t), scope, *map(fmt, aggregates[:, i, column])]
                    for i, t in enumerate(times)
                    for column, scope in enumerate(["group_0", "group_1", "global"])
                ],
            ),
        ):
            with (tmp_path / f"expected-{name}").open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(lines)
            assert (tmp_path / name).read_bytes() == (tmp_path / f"expected-{name}").read_bytes()
        assert "1e-10" in (tmp_path / "agents.csv").read_text()


_RNG = np.random.default_rng(23)
_AGENTS_CSV_CASES = {
    "all_distinct": (_RNG.uniform(size=(6, 11)), _RNG.integers(0, 3, size=11)),
    "repeated": (_RNG.choice([0.1, 0.25, 1.0 / 3.0], size=(6, 11)), np.arange(11) % 4),
    "signed_zeros_in_one_row": (np.array([[0.0, -0.0, 0.0, -0.0, 0.5], [-0.0, -0.0, 0.0, 0.0, 0.0]]), np.zeros(5)),
    "tiny_and_exact": (np.array([[5e-324, 1e-300, 0.0, 1.0], [1.0, 0.0, 1e-300, 5e-324]]), np.array([0, 1, 0, 1])),
    "one_time": (np.array([[0.3, 0.3, 0.7]]), np.array([0, 0, 1])),
    "one_agent": (np.array([[0.2], [0.4], [0.2]]), np.array([0])),
    "no_agents": (np.zeros((2, 0)), np.zeros(0, dtype=int)),
    # Several row blocks, each of one row at N = 5000 and of two rows at
    # N = 1500, so that the last block is short; values repeat across blocks
    # as well as within them.
    "several_blocks": (_RNG.choice(_RNG.uniform(size=900), size=(7, 5000)), _RNG.integers(0, 40, size=5000)),
    "short_last_block": (_RNG.choice(_RNG.uniform(size=900), size=(7, 1500)), _RNG.integers(0, 40, size=1500)),
}


class TestAgentsCsv:
    """agents.csv matches the line-at-a-time reference byte for byte."""

    @pytest.mark.parametrize("source", ["golden_group_block.json", "golden_simulate.json", "full_access", "limited_access"])
    def test_kernel_states_write_what_agents_write(self, tmp_path: Path, source):
        # simulate hands the writer the kernel's record of states and each
        # agent's state; a result built by hand from the same arrays has one
        # state per agent. Both write the same bytes. The group blocks run
        # on fewer states than agents, the dense network on one per agent.
        data = Path(__file__).parent / "data"
        scenario = load_scenario(data / source) if source.endswith(".json") else builtin_case_study(source)
        result = simulate(scenario)
        by_hand = SimulationResult(result.times, result.dissatisfaction, result.groups, result.aggregates,
                                   result.manifest)
        states = result._states[0].shape[1]
        assert states == result.n_agents if source == "golden_simulate.json" else states < result.n_agents
        written = [write_results(r, tmp_path / name) for r, name in ((result, "states"), (by_hand, "agents"))]
        for kernel, agents in zip(*written):
            assert kernel.read_bytes() == agents.read_bytes()

    @pytest.mark.parametrize("case", sorted(_AGENTS_CSV_CASES))
    def test_matches_reference_formatter(self, tmp_path: Path, case):
        values, groups = _AGENTS_CSV_CASES[case]
        times = np.arange(values.shape[0]) * 0.1
        scopes = int(groups.max()) + 2 if groups.size else 1
        aggregates = np.zeros((4, times.size, scopes))
        write_results(SimulationResult(times, values, groups, aggregates), tmp_path)
        assert (tmp_path / "agents.csv").read_text() == reference_agents_csv(times, values, groups)

    def test_negative_zero_initial_state_writes_minus_zero(self, tmp_path: Path):
        doc = minimal_doc()
        doc["agents"]["initial_dissatisfaction"] = [-0.0, 0.0, 0.5]
        result = simulate(scenario_from_dict(doc))
        write_results(result, tmp_path)
        text = (tmp_path / "agents.csv").read_text()
        assert text == reference_agents_csv(result.times, result.dissatisfaction, result.groups)
        assert text.splitlines()[1:3] == ["0,0,0,-0,1", "0,1,0,0,1"]

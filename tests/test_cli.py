from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socio_grid_sim import builtin_case_study, load_scenario, simulate, write_scenario
from socio_grid_sim.cli import _apply_overrides, main

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def scenario_file(tmp_path: Path) -> Path:
    path = tmp_path / "scenario.json"
    write_scenario(builtin_case_study("full_access"), path)
    return path


def read_comparison(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSimulateCommand:
    def test_happy_path_writes_three_files(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["agents.csv", "aggregates.csv", "manifest.json"]

    def test_per_agent_outputs_match_golden_digests(self, tmp_path):
        # Pins simulate output across commits, not just between two runs of
        # one build. The document holds 8 agents on a dense network with
        # several distinct, partly shared per_agent schedules and one -0.0
        # availability; its values were drawn once from a seeded generator
        # and stored. The CSV sha256 values were recorded before the kernel
        # read distinct-schedule tables through per-agent picks; the
        # manifest's was re-recorded for digest format 2.
        out = tmp_path / "results"
        assert main(["simulate", "--scenario", str(DATA / "golden_simulate.json"), "--out", str(out)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert digests == {
            "agents.csv": "46ce6ec9bb72210f53a3a6171c1704c43b87fa3c5d2fc061cb71e911d03ed9a2",
            "aggregates.csv": "09feb74d42f315b51e703834a7f25824b1fa3b2a58f0dc6a22faeec7de2047d3",
            "manifest.json": "fb0eedb31066f640d39e0af6e648951ac86bd587cf6f30755d8204aa55dd6597",
        }

    def test_raw_trajectory_matches_golden_digest(self):
        # The CSVs hold 9 significant digits, so a last-bit drift in the
        # kernel passes the test above; this sha256 of the little-endian
        # float64 trajectory does not. Recorded before digest format 2.
        result = simulate(load_scenario(DATA / "golden_simulate.json"))
        raw = np.ascontiguousarray(result.dissatisfaction, dtype="<f8")
        assert raw.shape == (13, 8)
        assert hashlib.sha256(raw).hexdigest() == "247f3544c5d7628e21dfaf71df071cd98c0529297b39e832b5c827245f1ff548"

    def test_raw_aggregates_match_golden_digest(self):
        # The same pin for the aggregates: the sha256 of the little-endian
        # float64 (stat, time, scope) block, with stats mean, min, max and
        # std of satisfaction and the global scope last. Recorded while
        # aggregation still built one row object per (time, scope).
        result = simulate(load_scenario(DATA / "golden_simulate.json"))
        raw = np.ascontiguousarray(result.aggregates, dtype="<f8")
        assert raw.shape == (4, 13, 4)
        assert hashlib.sha256(raw).hexdigest() == "ea02cae86c79f86c98f6bac8a1b3bb0dcbeb3109186796f633ac5430e83be968"

    def test_group_block_raw_outputs_match_golden_digests(self):
        # The same two pins on a group block: 12 agents interleaved over
        # 4 groups (one a singleton), several classes of interchangeable
        # members per group, 0.0 and -0.0 initial states and a rate floor.
        # Recorded while the kernel still advanced every agent on its own.
        result = simulate(load_scenario(DATA / "golden_group_block.json"))
        assert np.signbit(result.dissatisfaction[0]).tolist() == [False] * 3 + [True] + [False] * 8
        raw = {
            name: hashlib.sha256(np.ascontiguousarray(array, dtype="<f8")).hexdigest()
            for name, array in (("trajectory", result.dissatisfaction), ("aggregates", result.aggregates))
        }
        assert raw == {
            "trajectory": "9090b43e4b6313d3608b90ab27d5951501581006d1247cb2b0b3ad65692882e2",
            "aggregates": "868c8533dcaab40f9a2909c3b53861b32611986980e9766aad42069f09eb0a91",
        }

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_invalid_override_pair_rejected(self, scenario_file, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
             "--omega1", "0.7", "--omega2", "0.7"]
        )
        assert code == 2
        assert "omega1 + omega2 must be <= 1" in capsys.readouterr().err

    def test_overrides_echoed_in_manifest(self, scenario_file, tmp_path):
        out = tmp_path / "results"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
              "--omega1", "0.4", "--dt", "0.5"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cli_overrides"] == {"omega1": 0.4, "dt_hours": 0.5}
        assert manifest["params"]["omega1"] == 0.4
        assert manifest["params"]["dt_hours"] == 0.5

    def test_horizon_override_truncates_schedules(self, scenario_file, tmp_path):
        out = tmp_path / "results"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--horizon", "10"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["horizon_hours"] == 10.0

    def test_horizon_override_keeps_shared_schedules(self, tmp_path):
        # --horizon cuts each distinct schedule once, so agents keep
        # sharing them, and the run equals that of the document cut by hand.
        def doc(horizon):
            def keep(points):
                return [p for p in points if p[0] < horizon]

            a, b = keep([[0.0, 1.0], [4.0, 0.5], [12.0, 1.0]]), keep([[0.0, 0.75], [6.0, 0.25], [18.0, 0.5]])
            media = keep([[0.0, 1.0], [8.0, 0.5], [20.0, 1.0]])
            return {
                "schema_version": 1,
                "label": "shared",
                "params": {"horizon_hours": horizon},
                "agents": {"count": 6, "groups": [0, 1, 0, 1, 0, 1], "initial_dissatisfaction": [0.2, 0.7] * 3},
                "network": {"full_within_groups": {"weight": 1.0}},
                "schedules": {"electricity": {"per_agent": [a, b] * 3}, "media_access": {"per_agent": [media] * 6}},
            }

        full, cut = tmp_path / "full.json", tmp_path / "cut.json"
        full.write_text(json.dumps(doc(24.0)))
        cut.write_text(json.dumps(doc(10.0)))
        scenario = _apply_overrides(load_scenario(full), {"horizon_hours": 10.0})
        elec, media = scenario.electricity, scenario.media_access
        assert elec[0] is elec[2] is elec[4] and elec[1] is elec[3] is elec[5] and elec[0] is not elec[1]
        assert all(m is media[0] for m in media)
        assert scenario == load_scenario(cut)
        assert main(["simulate", "--scenario", str(full), "--out", str(tmp_path / "a"), "--horizon", "10"]) == 0
        assert main(["simulate", "--scenario", str(cut), "--out", str(tmp_path / "b")]) == 0
        for name in ("agents.csv", "aggregates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
        digests = [json.loads((tmp_path / side / "manifest.json").read_text())["scenario_digest"] for side in "ab"]
        assert digests[0] == digests[1]

    def test_unknown_flag_rejected(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                  "--omega3", "0.5"])
        assert excinfo.value.code == 2

    def test_out_env_fallback(self, scenario_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOCIO_GRID_SIM_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", str(scenario_file)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()
        monkeypatch.delenv("SOCIO_GRID_SIM_OUT")
        assert main(["simulate", "--scenario", str(scenario_file)]) == 2
        assert "--out" in capsys.readouterr().err


class TestCasestudyCommand:
    def test_both_variants_and_comparison(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["casestudy", "--variant", "both", "--out", str(out)]) == 0
        rows = read_comparison(out / "comparison.csv")
        assert rows[0]["t_hours"] == "0" and rows[0]["mean_s_full"] == "0.5"
        assert rows[0]["mean_s_limited"] == "0.5"
        assert len(rows) == 49
        for sub in ("full", "limited"):
            assert (out / sub / "manifest.json").exists()

    def test_full_variant_final_satisfaction(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["casestudy", "--variant", "full", "--out", str(out)]) == 0
        assert not (out / "comparison.csv").exists()
        lines = (out / "full" / "aggregates.csv").read_text().splitlines()
        final_global = [l for l in lines[1:] if l.split(",")[1] == "global"][-1]
        mean_s = float(final_global.split(",")[2])
        assert 0.85 <= mean_s <= 0.95

    def test_limited_variant_damped_swing(self, tmp_path):
        out = tmp_path / "fig"
        main(["casestudy", "--variant", "both", "--out", str(out)])
        rows = read_comparison(out / "comparison.csv")
        s = {float(r["t_hours"]): (float(r["mean_s_full"]), float(r["mean_s_limited"])) for r in rows}
        full_swing = abs(s[34.0][0] - s[17.0][0])
        limited_swing = abs(s[34.0][1] - s[17.0][1])
        assert s[17.0][1] < s[17.0][0]
        assert limited_swing < full_swing

    def test_runs_are_byte_identical(self, tmp_path):
        main(["casestudy", "--variant", "both", "--out", str(tmp_path / "a")])
        main(["casestudy", "--variant", "both", "--out", str(tmp_path / "b")])
        for rel in ("comparison.csv", "full/agents.csv", "full/aggregates.csv",
                    "full/manifest.json", "limited/agents.csv", "limited/aggregates.csv",
                    "limited/manifest.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_both_writes_what_separate_variants_write(self, tmp_path):
        # --variant both advances the variants as one kernel block; each
        # variant's files equal those of its own run.
        assert main(["casestudy", "--variant", "both", "--out", str(tmp_path / "both")]) == 0
        for variant in ("full", "limited"):
            assert main(["casestudy", "--variant", variant, "--out", str(tmp_path / variant)]) == 0
            for name in ("agents.csv", "aggregates.csv", "manifest.json"):
                both = (tmp_path / "both" / variant / name).read_bytes()
                assert both == (tmp_path / variant / variant / name).read_bytes(), (variant, name)


class TestPlanCommand:
    def test_zero_requirement_writes_empty_plan(self, scenario_file, tmp_path):
        out = tmp_path / "plan"
        code = main(["plan", "--scenario", str(scenario_file), "--out", str(out),
                     "--required-energy", "0", "--granularity", "12"])
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["slots"] == []
        report = json.loads((out / "objective.json").read_text())
        assert report["unfairness"] == 0.0

    def test_infeasible_requirement(self, scenario_file, tmp_path, capsys):
        code = main(["plan", "--scenario", str(scenario_file), "--out", str(tmp_path / "p"),
                     "--required-energy", "1e9", "--granularity", "12"])
        assert code == 2
        assert "maximum achievable" in capsys.readouterr().err

    def test_oversized_exhaustive_lattice_exits_2(self, scenario_file, tmp_path, capsys):
        # 3 groups x 16 slots of 3 h x 2 levels: 2**48 candidates.
        code = main(["plan", "--scenario", str(scenario_file), "--out", str(tmp_path / "p"),
                     "--required-energy", "9", "--granularity", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(2**48) in err and "greedy_restarts" in err

    def test_exhaustive_matches_golden_file(self, tmp_path):
        out = tmp_path / "plan"
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"), "--out", str(out),
                     "--required-energy", "2.0", "--granularity", "2.0",
                     "--levels", "0,0.5", "--strategy", "exhaustive"])
        assert code == 0
        assert (out / "plan.json").read_bytes() == (DATA / "golden_plan.json").read_bytes()
        report = json.loads((out / "objective.json").read_text())
        assert report["combined"] == 0.5
        assert report["strategy"] == "exhaustive"

    @pytest.mark.parametrize(
        "strategy, search",
        [
            # 2 isolated groups of 2 agents, 2 slots, levels {0, 0.5}. The 4 slot
            # profiles fill the table for both groups in 4 rows; the 3 candidates
            # tied at the optimum and the final score are assembled from it.
            # All 4 agents share their schedules and initial state, and row r
            # gives both groups profile r: the two groups of a row are one
            # bin class and its 4 agents one state.
            ("exhaustive", {"decomposed": True, "kernel_rows": 4, "kernel_classes": 4, "table_profiles": 2 * 4}),
            # The 4 one-cell moves need 3 profiles of each group: (0, 0),
            # (0.5, 0) and (0, 0.5), so 3 rows. Row r gives group 0 its r-th
            # profile, (0.5, 0), (0, 0.5), (0, 0), and group 1 its r-th, (0, 0),
            # (0.5, 0), (0, 0.5): each profile's 2 bins merge across rows, so 3
            # states. One move meets the requirement; restarts and the final
            # score reuse the memo.
            ("greedy_restarts", {"decomposed": False, "kernel_rows": 3, "kernel_classes": 3, "table_profiles": 2 * 3}),
        ],
    )
    def test_objective_reports_search_counters(self, tmp_path, strategy, search):
        out = tmp_path / "plan"
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"), "--out", str(out),
                     "--required-energy", "2.0", "--granularity", "2.0", "--strategy", strategy])
        assert code == 0
        assert json.loads((out / "objective.json").read_text())["search"] == search

    def test_exhaustive_on_a_coupled_network_reports_search_counters(self, tmp_path):
        doc = json.loads((DATA / "planner_base.json").read_text())
        doc["network"] = {"dense": [[float(i != j) for j in range(4)] for i in range(4)]}
        scenario = tmp_path / "coupled.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "plan"
        code = main(["plan", "--scenario", str(scenario), "--out", str(out),
                     "--required-energy", "2.0", "--granularity", "2.0", "--strategy", "exhaustive"])
        assert code == 0
        # Every weight couples the two groups, so no table: the 15 of 16
        # candidates that shed at least one cell stream through the kernel,
        # then the final score. A dense row is one state per agent.
        search = {"decomposed": False, "kernel_rows": 15 + 1, "kernel_classes": 4 * (15 + 1), "table_profiles": 0}
        assert json.loads((out / "objective.json").read_text())["search"] == search

    def test_plan_accepts_parameter_overrides(self, tmp_path, capsys):
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "0",
                     "--granularity", "2.0", "--omega1", "0.7", "--omega2", "0.7"])
        assert code == 2
        assert "omega1 + omega2" in capsys.readouterr().err

    def test_plan_rejects_infinite_lambda(self, tmp_path, capsys):
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "2.0",
                     "--granularity", "2.0", "--lambda", "inf"])
        assert code == 2
        assert "fairness_weight must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy_restarts"])
    def test_plan_rejects_nan_required_energy(self, tmp_path, capsys, strategy):
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "nan",
                     "--granularity", "1", "--strategy", strategy])
        assert code == 2
        assert "error: required_energy must be a number (got nan)" in capsys.readouterr().err.splitlines()

    def test_plan_reports_bad_lambda_and_granularity_together(self, tmp_path, capsys):
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "2.0",
                     "--granularity", "3.0", "--lambda", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "must divide the horizon" in err and "fairness_weight must be finite" in err

    def test_plan_rejects_a_slot_shorter_than_a_step(self, tmp_path, capsys):
        # dt is 0.1 h: no step would start in every other 0.05 h slot. The
        # argument is refused before the lattice is built, so a far smaller
        # slot cannot make plan build astronomically many cells.
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "2.0",
                     "--granularity", "0.05", "--strategy", "exhaustive"])
        assert code == 2
        err = capsys.readouterr().err
        assert "granularity_hours = 0.05 must be at least dt_hours = 0.1" in err

    def test_plan_rejects_malformed_levels(self, tmp_path, capsys):
        code = main(["plan", "--scenario", str(DATA / "planner_base.json"),
                     "--out", str(tmp_path / "p"), "--required-energy", "0",
                     "--granularity", "2.0", "--levels", "0,half"])
        assert code == 2
        assert "--levels" in capsys.readouterr().err

    def test_plan_runs_are_byte_identical(self, tmp_path):
        args = ["plan", "--scenario", str(DATA / "planner_base.json"),
                "--required-energy", "2.0", "--granularity", "2.0",
                "--strategy", "greedy_restarts", "--seed", "11"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("plan.json", "objective.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Each command's arguments and the files it writes into --out.
OUTPUTS = {
    "casestudy": (
        ["casestudy", "--variant", "both"],
        ["comparison.csv"] + [f"{v}/{n}" for v in ("full", "limited") for n in ("agents.csv", "aggregates.csv", "manifest.json")],
    ),
    "simulate": (
        ["simulate", "--scenario", str(DATA / "planner_base.json")],
        ["agents.csv", "aggregates.csv", "manifest.json"],
    ),
    "plan": (
        ["plan", "--scenario", str(DATA / "planner_base.json"), "--required-energy", "2.0", "--granularity", "2.0"],
        ["plan.json", "objective.json"],
    ),
}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
class TestUsedOutputDirectory:
    # A run replaces each file it writes: a rerun into a used --out equals a
    # fresh run, and the old file lives on under any other link to it.
    @staticmethod
    def _run(command, out, *extra):
        args, names = OUTPUTS[command]
        assert main([*args, *extra, "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in names}

    def test_rerun_replaces_each_file(self, command, tmp_path, capsys):
        fresh = self._run(command, tmp_path / "fresh")
        used = tmp_path / "used"
        # The first run covers 2 h, so each of its files differs from a full run's.
        first = self._run(command, used, "--horizon", "2")
        links = tmp_path / "links"
        links.mkdir()
        for k, name in enumerate(first):
            os.link(used / name, links / str(k))
        assert self._run(command, used) == fresh
        for k, (name, data) in enumerate(first.items()):
            assert data != fresh[name], name
            assert (links / str(k)).read_bytes() == data, name

    def test_larger_junk_at_each_path_leaves_no_tail(self, command, tmp_path, capsys):
        fresh = self._run(command, tmp_path / "fresh")
        used = tmp_path / "used"
        for name, data in fresh.items():
            (used / name).parent.mkdir(parents=True, exist_ok=True)
            (used / name).write_bytes(b"junk\n" * (len(data) + 100))
        assert self._run(command, used) == fresh


def test_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique without counts or an inverse imports numpy.ma in numpy 2.4;
    # no program path needs it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    calls = [[*args, "--out", str(tmp_path / command)] for command, (args, _) in sorted(OUTPUTS.items())]
    code = (
        "import sys\n"
        "from socio_grid_sim.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


class TestValidateCommand:
    def test_valid_scenario(self, scenario_file, tmp_path, capsys):
        before = set(tmp_path.iterdir())
        assert main(["validate", "--scenario", str(scenario_file)]) == 0
        assert "OK" in capsys.readouterr().out
        assert set(tmp_path.iterdir()) == before  # writes nothing

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        doc = json.loads((DATA / "planner_base.json").read_text())
        doc["agents"]["initial_dissatisfaction"] = [0.5, 2.0, 0.5, -1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "initial_dissatisfaction[1]" in err
        assert "initial_dissatisfaction[3]" in err

    @pytest.mark.parametrize(
        "field, expected",
        [
            ("horizon", "params.horizon_hours must be a finite number"),
            ("breakpoint", "schedules.electricity.per_agent[1] must be a list of [start_hour, value] pairs"),
            ("initial", "agents.initial_dissatisfaction must be a number or a list of numbers"),
            ("dense", "network.dense must be a 3 x 3 matrix of numbers"),
            ("group", "group_of must hold integer group ids"),
            ("count", "agents.groups must have length"),
        ],
    )
    def test_huge_integer_is_named_not_a_crash(self, tmp_path, capsys, field, expected):
        # A 400-digit JSON integer has no float value.
        huge = 10**400
        doc = {
            "schema_version": 1,
            "params": {"horizon_hours": huge if field == "horizon" else 4.0},
            "agents": {
                "count": huge if field == "count" else 3,
                "groups": [0, huge if field == "group" else 0, 1],
                "initial_dissatisfaction": [0.5, huge, 0.5] if field == "initial" else 0.5,
            },
            "network": (
                {"dense": [[0, huge, 0], [1, 0, 0], [0, 0, 0]]}
                if field == "dense"
                else {"full_within_groups": {"weight": 1.0}}
            ),
            "schedules": {
                "electricity": {"per_agent": [[[0, 1]], [[0, 1], [huge if field == "breakpoint" else 2, 0.5]], [[0, 1]]]},
                "media_access": {"broadcast": [[0.0, 1.0]]},
            },
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert expected in err and "internal error" not in err

    @pytest.mark.parametrize(
        "params, n",
        [({"horizon_hours": 1e308}, 3), ({"horizon_hours": 9e6, "dt_hours": 1.0}, 10)],
        ids=["steps", "recorded"],
    )
    def test_oversized_run_is_rejected_before_it_allocates(self, tmp_path, capsys, params, n):
        # validate and simulate agree: the run is refused when the scenario
        # is built, before a schedule is sampled or a report recorded. Either
        # run would need at least 80 MB: 10**7 steps of one schedule, or
        # 9 * 10**7 recorded floats.
        import tracemalloc

        doc = {
            "schema_version": 1,
            "params": params,
            "agents": {"count": n, "groups": [0] * n, "initial_dissatisfaction": 0.5},
            "network": {"full_within_groups": {"weight": 1.0}},
            "schedules": {"electricity": {"broadcast": [[0, 1]]}, "media_access": {"broadcast": [[0, 1]]}},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for command in (["validate"], ["simulate", "--out", str(tmp_path / "out")]):
            tracemalloc.start()
            try:
                assert main([*command, "--scenario", str(path)]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert f"params.horizon_hours = {params['horizon_hours']!r} must span fewer than" in err
            assert "internal error" not in err and peak < 16 * 2**20
        assert not (tmp_path / "out").exists()

    def test_unparseable_scenario(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "line" in capsys.readouterr().err


def test_console_module_entry(scenario_file, tmp_path):
    # The child imports the package from wherever this process found it,
    # including pytest's configured pythonpath, which subprocesses do not inherit.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "socio_grid_sim.cli", "validate", "--scenario", str(scenario_file)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout

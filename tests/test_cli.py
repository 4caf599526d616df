"""Command-line contract: exit codes, precedence rules, byte determinism."""

import json
import re
from pathlib import Path

import pytest

import qkdsim.cli as cli
from qkdsim.adversary import PRESETS, TIMINGS, action_from_obj
from qkdsim.errors import InvariantViolation

REPO = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data"


def write_scenario(tmp_path, name="scenario.json", **fields):
    doc = {"schema_version": "scenario/1", **fields}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def honest_scenario(tmp_path, **extra):
    return write_scenario(
        tmp_path, d=3, rounds=4, keys=[0, 1, 2, 0], control_rounds=[2, 4],
        seed=1, **extra)


class TestValidate:
    @pytest.mark.parametrize("name", [
        "honest_d3.json",
        "intercept_d2.json",
        "reply_odd_d3.json",
        "search_even_round_d3.json",
        "search_exit_window_d2.json",
    ])
    def test_bundled_scenarios_are_valid(self, name, capsys):
        assert cli.main(["validate", str(REPO / "scenarios" / name)]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    def test_bad_dimension_names_the_field(self, tmp_path, capsys):
        path = write_scenario(tmp_path, d=1)
        assert cli.main(["validate", path]) == 1
        assert "d" in capsys.readouterr().err

    def test_key_value_too_large_for_dimension(self, tmp_path, capsys):
        path = write_scenario(tmp_path, d=3, rounds=1, keys=[5])
        assert cli.main(["validate", path]) == 1
        assert "keys[0]" in capsys.readouterr().err

    def test_unknown_fields_rejected(self, tmp_path):
        path = write_scenario(tmp_path, d=2, fidelity=0.9)
        assert cli.main(["validate", path]) == 1

    def test_key_count_must_match_rounds(self, tmp_path):
        path = write_scenario(tmp_path, d=2, rounds=3, keys=[0, 1])
        assert cli.main(["validate", path]) == 1

    def test_control_round_beyond_session(self, tmp_path):
        path = write_scenario(tmp_path, d=2, rounds=2, keys=[0, 1],
                              control_rounds=[5])
        assert cli.main(["validate", path]) == 1

    def test_broken_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "scenario/1",', encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_is_io_error(self):
        assert cli.main(["validate", "/no/such/scenario.json"]) == 3

    def test_embedded_script_is_checked(self, tmp_path):
        path = write_scenario(
            tmp_path, d=2, rounds=1, keys=[0],
            attack={"script": {"rounds": {"1": [{"op": "warp", "target": "k"}]}}})
        assert cli.main(["validate", path]) == 1

    def test_readme_examples_are_accepted(self, tmp_path):
        """The README's JSON blocks load: scenarios through load_scenario,
        action lists through action_from_obj; its preset and timing lists
        name exactly what the code accepts."""
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        scenarios = actions = 0
        for i, block in enumerate(re.findall(r"```json\n(.*?)```", readme, re.S)):
            doc = json.loads(block)
            if isinstance(doc, list):
                for obj in doc:
                    action_from_obj(obj)
                actions += len(doc)
            else:
                path = tmp_path / f"readme_{i}.json"
                path.write_text(block, encoding="utf-8")
                cli.load_scenario(str(path))
                scenarios += 1
        assert scenarios >= 3 and actions >= 6

        def listed(prefix):
            sentence = re.search(rf"^{prefix}(.*?)\.$", readme, re.M | re.S).group(1)
            return set(re.findall(r"`(\w+)`", sentence))
        assert listed("Attack presets:") == set(PRESETS)
        assert listed("Timings:") == set(TIMINGS)


class TestRun:
    def test_json_report_shape(self, tmp_path, capsys):
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["schema_version", "d", "rounds", "seed", "tolerance",
                             "attack", "transcripts", "control_check"]
        assert doc["schema_version"] == "transcript/1"
        assert doc["attack"] == "none"
        assert [t["key_decoded"] for t in doc["transcripts"]] == [0, 1, 2, 0]
        assert doc["control_check"] == {"checked": 2, "mismatches": 0, "rate": 0}

    def test_text_report_table(self, tmp_path, capsys):
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d=3 rounds=4 seed=1 attack=none tol=1e-08"
        assert lines[1].split() == ["round", "mode", "sent", "decoded",
                                    "rank_e", "entropy_k"]
        assert lines[2].split() == ["1", "message", "0", "0", "1", "1.000000"]
        assert lines[-1] == "control: checked=2 mismatches=0 rate=0.000000"

    def test_seed_flag_overrides_scenario_seed(self, tmp_path, capsys):
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path, "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        path = write_scenario(
            tmp_path, d=2, rounds=6, keys={"seed": 3}, seed=11,
            attack={"preset": "intercept_resend"}, diagnostics=["round_end"])
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(["run", path, "--out", str(out_a)]) == 0
        assert cli.main(["run", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("name", ["intercept_d2", "reply_odd_d3"])
    def test_matches_golden_transcript(self, name, tmp_path, monkeypatch):
        # seeded transcripts are a contract: the same scenario gives the same bytes
        monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
        out = tmp_path / "report.json"
        assert cli.main(["run", str(REPO / "scenarios" / f"{name}.json"),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"run_{name}.json").read_bytes()

    def test_scenario_output_field_is_honored(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        path = honest_scenario(tmp_path, output=str(target))
        assert cli.main(["run", path]) == 0
        assert capsys.readouterr().out == ""
        assert target.exists()

    def test_out_flag_beats_scenario_output(self, tmp_path):
        ignored = tmp_path / "ignored.json"
        chosen = tmp_path / "chosen.json"
        path = honest_scenario(tmp_path, output=str(ignored))
        assert cli.main(["run", path, "--out", str(chosen)]) == 0
        assert chosen.exists()
        assert not ignored.exists()

    def test_run_needs_rounds_and_keys(self, tmp_path):
        path = write_scenario(tmp_path, d=3)
        assert cli.main(["run", path]) == 1

    def test_invariant_failures_exit_two(self, tmp_path, monkeypatch):
        path = honest_scenario(tmp_path)

        def explode(*args, **kwargs):
            raise InvariantViolation("norm drifted")

        monkeypatch.setattr(cli, "run_session", explode)
        assert cli.main(["run", path]) == 2

    def test_unreadable_output_path_exits_three(self, tmp_path):
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path, "--out", str(tmp_path / "no" / "dir.json")]) == 3


class TestToleranceResolution:
    def test_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
        path = honest_scenario(tmp_path)
        cli.main(["run", path])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-8

    def test_env_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-3")
        path = honest_scenario(tmp_path)
        cli.main(["run", path])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-3

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-3")
        path = honest_scenario(tmp_path)
        cli.main(["run", path, "--tol", "1e-5"])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-5

    def test_unparseable_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV_VAR, "tiny")
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path]) == 1

    def test_search_reports_the_tolerance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
        path = write_scenario(tmp_path, d=2, template="stage5_round1")
        cli.main(["search", path, "--tol", "1e-6"])
        assert json.loads(capsys.readouterr().out)["rank_tol"] == 1e-6


class TestSearch:
    def test_matches_golden_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
        path = write_scenario(tmp_path, d=3, template="post_round1_round2")
        out = tmp_path / "report.json"
        assert cli.main(["search", path, "--depth", "1", "--out", str(out)]) == 0
        golden = GOLDEN / "feasibility_post_round1_round2_d3_depth1.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_exit_window_search_finds_the_reversal(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
        path = write_scenario(tmp_path, d=2, template="stage5_round1")
        assert cli.main(["search", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["candidates"][0]["sequence"] == [
            {"op": "cadd", "control": "k", "target": "e", "s": 1}]

    def test_repeat_searches_are_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, d=2, template="post_round1_round2")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(["search", path, "--out", str(out_a)]) == 0
        assert cli.main(["search", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_needs_template(self, tmp_path, capsys):
        path = write_scenario(tmp_path, d=2)
        assert cli.main(["search", path]) == 1
        assert "template" in capsys.readouterr().err

    def test_depth_cap_exits_one(self, tmp_path):
        path = write_scenario(tmp_path, d=2, template="stage5_round1")
        assert cli.main(["search", path, "--depth", "4"]) == 1

    def test_unknown_template_rejected_by_schema(self, tmp_path):
        path = write_scenario(tmp_path, d=2, template="round_9000")
        assert cli.main(["search", path]) == 1

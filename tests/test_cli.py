"""Command-line contract: exit codes, precedence rules, byte determinism."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import qkdsim.cli as cli
from qkdsim import analysis, protocol
from qkdsim.adversary import PRESETS, TIMINGS, action_from_obj
from qkdsim.errors import (
    ConfigError,
    ExplosionGuard,
    FamilyTooLarge,
    IllegalRegisterAccess,
    InputError,
    InvalidDimension,
    InvariantViolation,
    NonUnitaryMatrix,
    QkdSimError,
    ScriptRegisterUnknown,
    UnknownPreset,
    UnknownRegister,
    ValueOutOfRange,
)
from qkdsim.serialize import dumps

REPO = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data"
DROP = object()


def write_scenario(tmp_path, name="scenario.json", **fields):
    doc = {"schema_version": "scenario/1", **fields}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def honest_scenario(tmp_path, **extra):
    return write_scenario(
        tmp_path, d=3, rounds=4, keys=[0, 1, 2, 0], control_rounds=[2, 4],
        seed=1, **extra)


def one_action(action):
    """Scenario fields of a one-round session whose script holds one action."""
    return {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [action]}}}}


def random_action(rng, d):
    """A script action that is well formed or off in one or two fields."""
    op = rng.choice(["shift", "cadd", "phase", "fourier", "dense", "measure"] * 4 + ["warp", 3])
    action = {"op": op}

    def register():
        return rng.choice(["k", "e", "e2", "a", 5]) if rng.random() < 0.2 else rng.choice("ke")
    if op in ("cadd",):
        action["control"] = register()
    if op in ("shift", "cadd", "phase", "fourier", "warp"):
        action["target"] = register()
    if op in ("shift", "cadd", "phase"):
        action["s"] = (rng.choice([-1, 1.7, 2.0, True, "2", None]) if rng.random() < 0.2
                       else rng.randrange(d))
    if op == "dense":
        side = d + (rng.random() < 0.2)
        action["targets"] = ["k"]
        action["matrix"] = [[[float(j == (i + 1) % side), 0.0] for j in range(side)]
                            for i in range(side)]
    if op == "measure":
        action["register"] = register()
    if len(action) > 1 and rng.random() < 0.1:
        del action[rng.choice([key for key in action if key != "op"])]
    if rng.random() < 0.1:
        action[rng.choice(["s", "control", "target", "register", "note"])] = rng.choice(["e", 1])
    if rng.random() < 0.7:
        action["timing"] = rng.choice(["pre_bob"] * 4 + ["post_decode"] * 2 + ["later"])
    return action


def random_scenario(rng):
    """A small scenario for run, or for search when it names a template, that is
    well formed or off in a few fields, its script included."""
    d = rng.choice([2, 3, 4]) if rng.random() < 0.92 else rng.choice([1, 2.0, 17])
    size = d if type(d) is int and d >= 2 else 2
    rounds = rng.choice([1, 2, 3]) if rng.random() < 0.95 else 0
    doc = {"schema_version": "scenario/1", "d": d}
    search = rng.random() < 0.3
    if search:
        doc["template"] = rng.choice(["stage5_round1", "post_round1_round2"] * 4 + ["round_9"])
        if rng.random() < 0.5:
            return doc
    chance = 0.6 if search else 0.95
    if rng.random() < chance:
        doc["rounds"] = rounds
    if rng.random() < chance:
        count = max(rounds + rng.choice([0, 0, 0, 1]), 0)
        high = size + (rng.random() < 0.1)
        doc["keys"] = rng.choice([[rng.randrange(high) for _ in range(count)],
                                  {"seed": rng.randrange(5)}])
    if rng.random() < 0.3:
        doc["control_rounds"] = [rng.randrange(1, rounds + 2)]
    if rng.random() < 0.3:
        doc["eve_registers"] = rng.choice([0, 1, 1, 2, 2, 6])
    if rng.random() < 0.3:
        doc["seed"] = rng.randrange(3)
    if rng.random() < 0.15:
        doc["attack"] = {"preset": rng.choice(PRESETS + ("bogus",))}
    elif rng.random() < 0.6:
        doc["attack"] = {"script": {"rounds": {
            rng.choice(["1", "1", "2", "2", "01", "4", "x"]): [random_action(rng, size)
                                                    for _ in range(rng.randrange(1, 3))]
            for _ in range(rng.randrange(1, 3))}}}
    if not search and "rounds" not in doc and "keys" not in doc:
        doc["rounds"] = rounds
    return doc


class TestValidate:
    @pytest.mark.parametrize("name", [
        "difference_leak_d3.json",
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

    def test_file_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema_version": "scenario/1", "d": 2, "output": "é"}'
                         .encode("latin-1"))
        assert cli.main(["validate", str(path)]) == 1
        assert f"{path}: not UTF-8 text: byte 52 (0xe9)" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_literals_are_refused(self, literal, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"schema_version": "scenario/1", "d": 2, "rounds": 1, "keys": [0], '
                        '"attack": {"script": {"rounds": {"1": [{"op": "dense", '
                        '"targets": ["k"], "matrix": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]'
                        '}]}}}}' % literal, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert f"{path}: {literal} is not a JSON number" in capsys.readouterr().err

    def test_non_finite_matrix_entry_is_refused(self, tmp_path, capsys):
        # 1e400 is valid JSON that parses to inf
        path = tmp_path / "inf.json"
        path.write_text('{"schema_version": "scenario/1", "d": 2, "rounds": 1, "keys": [0], '
                        '"attack": {"script": {"rounds": {"1": [{"op": "dense", '
                        '"targets": ["k"], "matrix": [[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]'
                        '}]}}}}', encoding="utf-8")
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 1
            assert "dense matrix entry (0, 0) is (inf+0j), not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, reason", [
        ("1e400", "dense matrix entry (0, 0) is (inf+0j), not finite"),
        ("2", "max |U^H U - I| = 3.000e+00 exceeds 1e-10"),
        ("true", "matrix entries must be JSON numbers, not booleans")])
    def test_a_refused_dense_action_is_named_with_its_round(self, entry, reason, tmp_path,
                                                          capsys):
        # every refusal names the round and the action, whichever check refused it
        path = tmp_path / "dense.json"
        path.write_text('{"schema_version": "scenario/1", "d": 2, "rounds": 2, "keys": [0, 1], '
                        '"attack": {"script": {"rounds": {"2": [{"op": "dense", '
                        '"targets": ["k"], "matrix": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]'
                        '}]}}}}' % entry, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round '2': bad dense object {'op': 'dense', "
                              "'targets': ['k'], 'matrix': [[[")
        assert err.endswith(f": {reason}\n")

    @pytest.mark.parametrize("text,field", [
        ('{"schema_version": "scenario/1", "d": 2, "d": 3}', "d"),
        ('{"schema_version": "scenario/1", "d": 2, "rounds": 1, "keys": [0], "attack": '
         '{"script": {"rounds": {"1": [{"op": "shift", "target": "e", "s": 1}], "1": []}}}}',
         "1"),
    ])
    def test_a_field_named_twice_is_refused(self, text, field, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert f"{path}: field {field!r} appears more than once" in capsys.readouterr().err

    def test_missing_file_is_io_error(self):
        assert cli.main(["validate", "/no/such/scenario.json"]) == 3

    def test_embedded_script_is_checked(self, tmp_path):
        path = write_scenario(
            tmp_path, d=2, rounds=1, keys=[0],
            attack={"script": {"rounds": {"1": [{"op": "warp", "target": "k"}]}}})
        assert cli.main(["validate", path]) == 1

    @pytest.mark.parametrize("fields", [
        # a script round past the session
        {"rounds": 1, "keys": [0],
         "attack": {"script": {"rounds": {"3": [{"op": "measure", "register": "k"}]}}}},
        # a register Eve lacks
        {"rounds": 1, "keys": [0], "eve_registers": 1,
         "attack": {"script": {"rounds": {"1": [{"op": "shift", "target": "e2", "s": 1}]}}}},
        # k after Bob dropped it
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "measure", "register": "k", "timing": "post_decode"}]}}}},
        # half a session
        {"rounds": 3},
        {"keys": [0, 1]},
        {"control_rounds": [1]},
        # malformed scripts
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "measure", "register": "e", "timing": "later"}]}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "shift", "target": "e", "s": 1, "timing": "bogus"}]}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [5]}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": ["x"]}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": 7}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "shift", "target": ["e"], "s": 1}]}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "measure", "register": {"e": 1}}]}}}},
        # two keys naming one round: neither list may silently replace the other
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {
            "1": [{"op": "measure", "register": "e"}],
            "01": [{"op": "shift", "target": "e", "s": 1}]}}}},
        {"rounds": 2, "keys": [0, 1], "attack": {"script": {"rounds": {
            "1": [{"op": "measure", "register": "e"}],
            " 1": [{"op": "shift", "target": "e", "s": 1}]}}}},
        # round keys int() reads only through a digit separator or non-ASCII digits
        {"rounds": 10, "keys": [0] * 10, "attack": {"script": {"rounds": {
            "1_0": [{"op": "measure", "register": "e"}]}}}},
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {
            "\u0661": [{"op": "measure", "register": "e"}]}}}},
        # a 4 x 4 unitary on the one register k at d=2
        {"rounds": 1, "keys": [0], "attack": {"script": {"rounds": {"1": [
            {"op": "dense", "targets": ["k"],
             "matrix": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]}]}}}},
        # an s that is not a JSON integer, and fields that do not belong to the op
        one_action({"op": "shift", "target": "e", "s": 1.7}),
        one_action({"op": "shift", "target": "e", "s": True}),
        one_action({"op": "shift", "target": "e", "s": "2"}),
        one_action({"op": "shift", "target": "e", "s": 1, "control": "k"}),
        one_action({"op": "fourier", "target": "k", "s": 1}),
        one_action({"op": "measure", "register": "e", "target": "k"}),
        one_action({"op": ["shift"], "target": "e", "s": 1}),
    ], ids=["round_past_session", "missing_register", "post_decode_k", "rounds_only",
            "keys_only", "control_only", "measure_timing", "gate_timing", "action_not_object",
            "rounds_not_object", "actions_not_list", "gate_register_not_string",
            "measure_register_not_string", "repeated_round_zero_padded",
            "repeated_round_space_padded", "round_digit_separator", "round_arabic_indic_digit",
            "dense_wrong_size", "s_float", "s_bool",
            "s_string", "shift_with_control", "fourier_with_s", "measure_with_target",
            "op_not_string"])
    def test_validate_refuses_what_run_refuses(self, fields, tmp_path, capsys, monkeypatch):
        encodes = []
        monkeypatch.setattr(protocol.Stage, "encode", lambda stage, q: encodes.append(q))
        path = write_scenario(tmp_path, d=2, **fields)
        assert cli.main(["validate", path]) == 1
        refused = capsys.readouterr().err
        assert refused.startswith("error: ")
        assert cli.main(["run", path, "--out", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == refused
        assert not (tmp_path / "report.json").exists()
        assert encodes == []

    # each case changes one field of a scenario that validate, run and search all
    # accept (DROP removes the field) and names the text the refusal must hold
    @pytest.mark.parametrize("change, named", [
        ({"schema_version": DROP}, "schema_version:"),
        ({"d": DROP}, "d:"),
        ({"fidelity": 0.9}, "fidelity:"),
        ({"schema_version": "scenario/2"}, "schema_version:"),
        ({"d": 17}, "d:"),
        ({"eve_registers": 6}, "eve_registers:"),
        ({"rounds": 0}, "rounds:"),
        ({"seed": -1}, "seed:"),
        ({"keys": [0, -1]}, "keys:"),
        ({"keys": {"seed": 0, "count": 1}}, "keys:"),
        ({"control_rounds": [0]}, "control_rounds:"),
        ({"attack": {"preset": "eavesdrop"}}, "attack:"),
        ({"attack": {"script": []}}, "attack:"),
        ({"diagnostics": ["post_measure"]}, "diagnostics:"),
        ({"template": "round_9000"}, "template:"),
        ({"output": 5}, "output:"),
        ({"d": 2.0}, "d:"),
        ({"seed": 2.0}, "seed:"),
        ({"eve_registers": 2.0}, "eve_registers:"),
        (None, "JSON object"),
    ], ids=["no_schema_version", "no_d", "unknown_field", "schema_version", "d_range",
            "eve_registers_range", "rounds_range", "seed_range", "key_list", "key_seed_object",
            "control_rounds_range", "attack_preset", "attack_script", "diagnostics_stage",
            "template", "output", "d_float", "seed_float", "eve_registers_float",
            "not_an_object"])
    def test_each_scenario_rule_refused(self, change, named, tmp_path, capsys):
        doc = {"schema_version": "scenario/1", "d": 2, "rounds": 2, "keys": [0, 1],
               "seed": 1, "template": "stage5_round1"}
        if change is None:
            doc = [doc]
        else:
            doc.update(change)
            doc = {name: value for name, value in doc.items() if value is not DROP}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "report"
        for argv in (["validate"], ["run", "--out", str(out)], ["search", "--out", str(out)]):
            argv.insert(1, str(path))
            assert cli.main(argv) == 1, argv
            refused = capsys.readouterr().err
            assert refused.startswith("error: ") and named in refused, refused
        assert not out.exists()

    def test_search_scenario_with_half_a_session_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path, d=2, rounds=3, template="post_round1_round2")
        out = tmp_path / "report.json"
        assert cli.main(["validate", path]) == 1
        refused = capsys.readouterr().err
        assert refused == 'error: scenario needs "keys" to run a session\n'
        assert cli.main(["search", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == refused
        assert not out.exists()

    def test_validate_agrees_with_the_command_on_generated_documents(self, tmp_path, capsys):
        """validate accepts a generated document exactly when the command it is
        written for (run, or search --depth 0 when it names a template) does,
        and a refused document gets the same message from both."""
        rng = random.Random(19)
        path, out = str(tmp_path / "scenario.json"), str(tmp_path / "report")
        accepted = 0
        for _ in range(400):
            doc = random_scenario(rng)
            (tmp_path / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
            command = (["search", path, "--depth", "0"] if "template" in doc
                       else ["run", path])
            validated = cli.main(["validate", path])
            verdict = capsys.readouterr().err
            ran = cli.main(command + ["--out", out])
            assert (validated, verdict) == (ran, capsys.readouterr().err), doc
            accepted += validated == 0
        assert 100 <= accepted <= 300, accepted

    def test_oversized_session_refused(self, tmp_path, capsys):
        # validate only builds the config: 16^8 amplitudes are never allocated
        path = write_scenario(tmp_path, d=16, rounds=1, keys=[0], eve_registers=5)
        assert cli.main(["validate", path]) == 1
        assert capsys.readouterr().err.startswith("error: a session state of 16^8 amplitudes")

    @pytest.mark.parametrize("name", ["difference_leak_d3.json", "honest_d3.json",
                                      "intercept_d2.json", "reply_odd_d3.json"])
    def test_validate_and_run_agree_on_bundled_sessions(self, name, tmp_path):
        path = str(REPO / "scenarios" / name)
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path, "--out", str(tmp_path / "report.json")]) == 0

    def test_readme_examples_are_accepted(self, tmp_path):
        """The README's JSON blocks load: scenarios through load_scenario,
        action lists through action_from_obj; its preset and timing lists and
        its "Fields:" bullets name exactly what the code accepts."""
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
        fields = re.search(r"^Fields:\n\n(.*?)\n\n", readme, re.M | re.S).group(1)
        assert set(re.findall(r"^\* `(\w+)`", fields, re.M)) == set(cli._FIELDS)


class TestReadmeExamples:
    README = (REPO / "README.md").read_text(encoding="utf-8")

    def test_python_blocks_run(self, monkeypatch):
        blocks = re.findall(r"```python\n(.*?)```", self.README, re.S)
        assert blocks
        monkeypatch.chdir(REPO)
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), {})

    def test_dotted_names_resolve(self):
        """Every backticked dotted name, such as `qudit._marginal` or
        `protocol._Steps.measure`, names something that exists; file names are
        skipped.  A name starts at a qkdsim module, a class one defines or
        imports, or numpy or json."""
        import importlib

        import numpy

        roots = {"qkdsim": importlib.import_module("qkdsim"), "np": numpy, "numpy": numpy,
                 "json": json}
        for name in ("adversary", "analysis", "cli", "errors", "protocol", "qudit", "serialize"):
            module = roots[name] = importlib.import_module(f"qkdsim.{name}")
            roots.update((key, value) for key, value in vars(module).items()
                         if isinstance(value, type))
        names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", self.README))
        missing = []
        for name in sorted(names):
            if name.endswith((".py", ".json")):
                continue
            first, *rest = name.split(".")
            obj = roots.get(first)
            for attr in rest:
                obj = getattr(obj, attr, None)
            if obj is None:
                missing.append(name)
        assert len(names) > 25
        assert not missing, missing

    def test_json_scenarios_validate(self, tmp_path, capsys):
        """Every scenario block passes `validate`, which builds the session
        `run` would build."""
        blocks = [block for block in re.findall(r"```json\n(.*?)```", self.README, re.S)
                  if isinstance(json.loads(block), dict)]
        assert len(blocks) >= 3
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme_{i}.json"
            path.write_text(block, encoding="utf-8")
            assert cli.main(["validate", str(path)]) == 0, capsys.readouterr().err

    def test_cli_lines_exit_zero(self, tmp_path, monkeypatch):
        """Every `qkdsim ...` line of the README's sh blocks, run from the
        repository root, with reports written under tmp_path."""
        lines = [line for block in re.findall(r"```sh\n(.*?)```", self.README, re.S)
                 for line in block.splitlines() if line.startswith("qkdsim ")]
        assert len(lines) >= 4
        monkeypatch.chdir(REPO)
        for i, line in enumerate(lines):
            argv = shlex.split(line, comments=True)[1:]
            out = str(tmp_path / f"report_{i}")
            if "--out" in argv:
                argv[argv.index("--out") + 1] = out
            elif argv[0] != "validate":
                argv += ["--out", out]
            assert cli.main(argv) == 0, line


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
    def test_matches_golden_transcript(self, name, tmp_path):
        # seeded transcripts are a contract: the same scenario gives the same bytes
        out = tmp_path / "report.json"
        assert cli.main(["run", str(REPO / "scenarios" / f"{name}.json"),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"run_{name}.json").read_bytes()

    def test_matches_golden_diagnostics_at_every_stage(self, tmp_path):
        # records, spectra, entropies and None fields at all four stages, pinned as bytes
        path = write_scenario(
            tmp_path, d=3, rounds=12, keys={"seed": 7}, control_rounds=[2, 5, 8, 11],
            attack={"preset": "intercept_resend"}, diagnostics=list(protocol.STAGES), seed=3)
        out = tmp_path / "report.json"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_intercept_diag_d3.json").read_bytes()

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

    @pytest.mark.parametrize("argv, message", [
        (["run", "{path}", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        # argparse reads -1e-8 as an option, so --tol is left without a value
        (["run", "{path}", "--tol", "-1e-8"], "--tol: expected one argument"),
    ])
    def test_usage_errors_exit_one(self, argv, message, tmp_path, capsys):
        path = honest_scenario(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([arg.format(path=path) for arg in argv])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qkdsim")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out

    def test_unreadable_output_path_exits_three(self, tmp_path):
        path = honest_scenario(tmp_path)
        assert cli.main(["run", path, "--out", str(tmp_path / "no" / "dir.json")]) == 3


INPUT_ERRORS = [ConfigError, ValueOutOfRange, InvalidDimension, UnknownPreset,
                ScriptRegisterUnknown, IllegalRegisterAccess, ExplosionGuard, FamilyTooLarge,
                NonUnitaryMatrix]


class TestExitCodes:
    def test_input_errors_are_the_refusals(self):
        assert set(InputError.__subclasses__()) == set(INPUT_ERRORS)

    @pytest.mark.parametrize("command", ["validate", "run", "search"])
    @pytest.mark.parametrize("error, code", [(error, 1) for error in INPUT_ERRORS]
                             + [(UnknownRegister, 3), (QkdSimError, 3)])
    def test_exit_code_follows_the_error_class(self, error, code, command, tmp_path,
                                               monkeypatch, capsys):
        def refuse(path):
            raise error("refused")

        monkeypatch.setattr(cli, "load_scenario", refuse)
        assert cli.main([command, str(tmp_path / "scenario.json")]) == code
        expected = "error: refused\n" if code == 1 else f"internal error: {error('refused')!r}\n"
        assert capsys.readouterr().err == expected


class TestToleranceResolution:
    def test_default(self, tmp_path, capsys):
        path = honest_scenario(tmp_path)
        cli.main(["run", path])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-8
        cli.main(["run", path, "--tol", "1e-5"])  # the flag is the one way to change it
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-5

    @pytest.mark.parametrize("value", [True, 0.0, float("nan")])
    def test_tolerance_follows_the_schmidt_rank_rule(self, value):
        # one rule with qudit's: a bool is refused too, with the CLI's message
        with pytest.raises(ConfigError, match=r"^--tol = .* is not a finite number above 0$"):
            cli._resolve_tol(value)

    @pytest.mark.parametrize("command", ["run", "search"])
    @pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, value, command, tmp_path, capsys,
                                                   monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started on a refused tolerance")

        monkeypatch.setattr(cli, "run_session", never)
        monkeypatch.setattr(cli, "feasibility_search", never)
        if command == "run":
            path = honest_scenario(tmp_path)
        else:
            path = write_scenario(tmp_path, d=2, template="stage5_round1")
        out = tmp_path / "report.json"
        assert cli.main([command, path, "--out", str(out), f"--tol={value}"]) == 1
        assert "finite number above 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-3", "tiny", "0", "-1e-8", "nan", "inf"])
    def test_reports_do_not_read_the_environment(self, value, tmp_path, capsys, monkeypatch):
        # the scenario and the command line are a report's only inputs, so a
        # variable named like a second --tol moves no byte, and a value that
        # --tol would refuse stops no run
        monkeypatch.setenv("QKDSIM_TOL", value)
        for name in ("intercept_d2", "reply_odd_d3"):
            out = tmp_path / f"run_{name}.json"
            assert cli.main(["run", str(REPO / "scenarios" / f"{name}.json"),
                             "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN / f"run_{name}.json").read_bytes()
        for d in (2, 3):
            path = write_scenario(tmp_path, d=d, template="post_round1_round2")
            out = tmp_path / f"search_d{d}.json"
            assert cli.main(["search", path, "--depth", "1", "--out", str(out)]) == 0
            golden = GOLDEN / f"feasibility_post_round1_round2_d{d}_depth1.json"
            assert out.read_bytes() == golden.read_bytes()
        assert cli.main(["run", honest_scenario(tmp_path), "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" tol=1e-08")

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_the_flag_sets_the_tolerance_whatever_the_environment_holds(
            self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QKDSIM_TOL", "1e-3")
        if command == "run":
            path, key = honest_scenario(tmp_path), "tolerance"
        else:
            path, key = write_scenario(tmp_path, d=2, template="stage5_round1"), "rank_tol"
        assert cli.main([command, path, "--tol", "1e-5"]) == 0
        assert json.loads(capsys.readouterr().out)[key] == 1e-5

    def test_search_reports_the_tolerance(self, tmp_path, capsys):
        path = write_scenario(tmp_path, d=2, template="stage5_round1")
        cli.main(["search", path, "--tol", "1e-6"])
        assert json.loads(capsys.readouterr().out)["rank_tol"] == 1e-6


def reference_report(path: str, tol: float = protocol.SCHMIDT_TOL) -> str:
    """The run report as dumps writes it from the reference documents, to_json_dict."""
    scenario = cli.load_scenario(path)
    config, script, attack = cli._checked_session(scenario, needed=True)
    transcripts = protocol.run_session(config, script, scenario.get("diagnostics", ()), tol)
    check = protocol.control_check(transcripts, config.control_rounds)
    return dumps({
        "schema_version": "transcript/1", "d": config.d, "rounds": config.rounds,
        "seed": config.seed, "tolerance": tol, "attack": attack,
        "transcripts": [t.to_json_dict() for t in transcripts],
        "control_check": {"checked": check.checked, "mismatches": check.mismatches,
                          "rate": check.rate},
    })


class TestJsonRows:
    """The run report's rows, written through templates, against dumps of the
    reference documents."""

    def assert_matches_reference(self, path, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == reference_report(path)

    @pytest.mark.parametrize("name", sorted(
        path.name for path in (REPO / "scenarios").glob("*.json")
        if "rounds" in json.loads(path.read_text(encoding="utf-8"))))
    def test_bundled_sessions(self, name, tmp_path):
        self.assert_matches_reference(str(REPO / "scenarios" / name), tmp_path)

    @pytest.mark.parametrize("stages", [(), ("post_decode",), protocol.STAGES])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets(self, preset, d, stages, tmp_path):
        path = write_scenario(tmp_path, d=d, rounds=24, keys={"seed": d}, seed=7,
                              control_rounds=[1, 5, 6], attack={"preset": preset},
                              diagnostics=list(stages))
        self.assert_matches_reference(path, tmp_path)

    def test_several_records_in_one_round(self, tmp_path):
        measure = {"op": "measure", "register": "e", "timing": "post_decode"}
        tap = {"op": "cadd", "control": "k", "target": "e", "s": 1}
        fourier = {"op": "fourier", "target": "e", "timing": "post_decode"}
        path = write_scenario(
            tmp_path, d=3, rounds=5, keys=[0, 1, 2, 1, 0], eve_registers=2, seed=3,
            attack={"script": {"rounds": {
                "1": [tap, measure, fourier, measure],
                "3": [{"op": "measure", "register": "k"}, tap, measure, measure]}}},
            diagnostics=["post_attack", "round_end"])
        self.assert_matches_reference(path, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert [len(t["eve_records"]) for t in report["transcripts"]] == [2, 0, 3, 0, 0]

    def test_every_field_form(self):
        # None spectra and entropies, an entropy of -0.0 (written 0), decode_ok as
        # None, True and False, empty and several-key rank dicts, records or none
        diag = analysis.StageDiagnostics
        transcripts = [
            protocol.RoundTranscript(1, "message", 0, 0, (), {}),
            protocol.RoundTranscript(2, "control", 1, 2, ((2, "k", 1), (2, "e2", 0)), {
                "post_encode": diag(2, "post_encode", (0.5, 0.5, -0.0), -0.0,
                                    {"e|abk": 1, "a|bke": 3}, None),
                "post_decode": diag(2, "post_decode", None, None, {}, True),
                "round_end": diag(2, "round_end", None, 0.25, {"e|ab": 2}, False)}),
            protocol.RoundTranscript(3, "message", 2, 2, ((3, "k", 0),), {
                "post_encode": diag(3, "post_encode", (0.5, 0.5, 0.0), 0.0,
                                    {"e|abk": 1, "a|bke": 3}, None),
                "round_end": diag(3, "round_end", None, 1 / 3, {"e|ab": 2}, True)}),
        ]
        for rows in (transcripts, transcripts[:1], []):
            assert (dumps({"transcripts": cli._json_rows(rows)})
                    == dumps({"transcripts": [t.to_json_dict() for t in rows]}))


class TestSearch:
    def test_matches_golden_file(self, tmp_path):
        path = write_scenario(tmp_path, d=3, template="post_round1_round2")
        out = tmp_path / "report.json"
        assert cli.main(["search", path, "--depth", "1", "--out", str(out)]) == 0
        golden = GOLDEN / "feasibility_post_round1_round2_d3_depth1.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_exit_window_search_finds_the_reversal(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("template, d, refused", [
        ("post_round1_round2", 12, False), ("post_round1_round2", 13, True),
        ("post_round1_round2", 16, True), ("stage5_round1", 16, False)])
    def test_validate_refuses_the_start_rows_search_refuses(self, template, d, refused,
                                                           tmp_path, capsys, monkeypatch):
        # all start rows must fit protocol.STATE_CAP: 13^2 * 13^4 amplitudes do not
        def rows(d, keys):
            raise AssertionError(f"template rows built for d={d}")

        monkeypatch.setitem(analysis.TEMPLATES, template,
                            replace(analysis.get_template(template), rows=rows))
        path = write_scenario(tmp_path, d=d, template=template)
        assert cli.main(["validate", path]) == refused
        message = capsys.readouterr().err
        if refused:
            assert message == (f"error: {d}^2 template states of {d}^4 amplitudes exceed "
                               "4194304\n")
            assert cli.main(["search", path, "--depth", "0"]) == 1
            assert capsys.readouterr().err == message
        else:
            assert message == ""


class TestParserReuse:
    def test_one_process_gives_the_bytes_of_fresh_interpreters(self, tmp_path, capsys,
                                                              monkeypatch):
        # main builds its parser on first use and reuses it for every later call
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), COLUMNS="80")
        monkeypatch.setenv("COLUMNS", "80")
        run_path = honest_scenario(tmp_path)
        search_path = write_scenario(tmp_path, "search.json", d=2, template="stage5_round1")
        calls = [["run", run_path], ["run", run_path, "--bogus"],
                 ["search", search_path, "--depth", "2"], ["--version"]]
        fresh = [subprocess.run([sys.executable, "-m", "qkdsim", *argv], capture_output=True,
                                text=True, env=env, timeout=120)
                 for argv in calls]
        cli._parser.cache_clear()
        in_process = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            in_process.append((code, out.out, out.err))
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in in_process] == [0, 1, 0, 0]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]

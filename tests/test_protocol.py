"""Session state machine: carrier prep, per-round coding, transcripts."""

import json
import math
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qkdsim import protocol, serialize
from qkdsim.adversary import (
    PRESETS,
    AttackScript,
    EveAction,
    compile_schedule,
    eve_conditional_states,
    script_from_obj,
)
from qkdsim.errors import (
    ConfigError,
    ExplosionGuard,
    InvalidDimension,
    InvariantViolation,
    MissingRegister,
    NonUnitaryMatrix,
    RegisterCollision,
    ScriptRegisterUnknown,
    ValueOutOfRange,
)
from qkdsim.protocol import (
    ProtocolConfig,
    alice_encode,
    bob_decode,
    control_check,
    eve_register_labels,
    init_carrier,
    resolved_keys,
    run_session,
    run_session_branches,
)
from qkdsim.qudit import (
    GateSpec,
    PureState,
    RegisterLayout,
    apply_gate,
    insert_register,
    measure,
    partial_trace,
    states_equal_up_to_phase,
)

REPO = Path(__file__).resolve().parent.parent


def measured(state, register, record=(1, "x")):
    """(outcome, probability, post state) for each outcome of measuring register, the
    register collapsed in place: one Stage.measure on the state's one row."""
    rows, values = protocol.Stage.of(state).measure(register, record)
    return [(v, p, rows.state(i))
            for i, (v, p) in enumerate(zip(values.tolist(), rows.probs.tolist()))]


class TestConfig:
    def test_requires_exactly_one_key_source(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=1)
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=1, keys=(0,), key_seed=1)

    def test_key_count_must_match_rounds(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=3, keys=(0, 1))

    def test_key_values_must_fit_dimension(self):
        with pytest.raises(ValueOutOfRange):
            ProtocolConfig(d=2, rounds=1, keys=(2,))

    def test_control_rounds_must_exist(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=2, keys=(0, 0), control_rounds={3})

    def test_dimension_floor(self):
        with pytest.raises(InvalidDimension):
            ProtocolConfig(d=1, rounds=1, keys=(0,))

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=0, keys=())
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=1, keys=(0,), eve_registers=-1)
        with pytest.raises(ConfigError):
            ProtocolConfig(d=2, rounds=1, keys=(0,), seed=-1)

    @pytest.mark.parametrize("fields", [
        {"keys": (0, 1.7)},
        {"keys": (0, True)},
        {"keys": (0, "1")},
        {"keys": None, "key_seed": 2.5},
        {"rounds": 2.5},
        {"rounds": True},
        {"eve_registers": 1.5},
        {"eve_registers": True},
        {"seed": 2.5},
        {"seed": False},
        {"control_rounds": {1.5}},
    ], ids=["key_float", "key_bool", "key_str", "key_seed_float", "rounds_float",
            "rounds_bool", "eve_registers_float", "eve_registers_bool", "seed_float",
            "seed_bool", "control_round_float"])
    def test_non_integer_fields_refused(self, fields):
        # int() would truncate 1.7 to 1 and run a different key sequence
        base = {"d": 2, "rounds": 2, "keys": (0, 1)}
        with pytest.raises(ConfigError, match="integer"):
            ProtocolConfig(**{**base, **fields})

    @pytest.mark.parametrize("keys,error,message", [
        ((0, True, 1), ConfigError, r"keys\[1\] must be an integer, got True"),
        ((False, 1, 1), ConfigError, r"keys\[0\] must be an integer, got False"),
        ((0, 1, np.int64(3)), ValueOutOfRange, r"keys\[2\] = 3 not in \[0, 3\)"),
        ((0, np.int32(-1), 2), ValueOutOfRange, r"keys\[1\] = -1 not in \[0, 3\)"),
        ((2, 1, 3), ValueOutOfRange, r"keys\[2\] = 3 not in \[0, 3\)"),
        ((-1, 1, 2), ValueOutOfRange, r"keys\[0\] = -1 not in \[0, 3\)"),
        ((0, 2.0, 1), ConfigError, r"keys\[1\] must be an integer, got 2\.0"),
    ], ids=["bool", "bool_first", "numpy_too_large", "numpy_negative", "int_too_large",
            "int_negative", "float"])
    def test_every_key_refusal_names_its_index(self, keys, error, message):
        with pytest.raises(error, match=message):
            ProtocolConfig(d=3, rounds=3, keys=keys)

    def test_numpy_integers_accepted(self):
        config = ProtocolConfig(d=2, rounds=np.int64(2), keys=np.array([0, 1]),
                                eve_registers=np.int32(1), seed=np.uint8(3),
                                control_rounds={np.int64(2)})
        assert config.keys == (0, 1)
        assert all(type(q) is int for q in config.keys)
        mixed = ProtocolConfig(d=3, rounds=3, keys=(2, np.int64(1), 0)).keys
        assert mixed == (2, 1, 0) and all(type(q) is int for q in mixed)
        assert ProtocolConfig(d=2, rounds=1, key_seed=np.int64(4)).key_seed == 4

    def test_numpy_integer_dimension_accepted(self):
        # RegisterLayout owns the d rule; the config and the carrier defer to it
        d = np.int64(3)
        assert type(RegisterLayout(d, ("a",)).d) is int
        assert type(init_carrier(d).layout.d) is int
        config = ProtocolConfig(d=d, rounds=4, key_seed=5, control_rounds={2}, seed=9)
        assert type(config.d) is int

        def render(config):
            script = compile_schedule("intercept_resend", config)
            transcripts = run_session(config, script, diagnostics=("round_end",))
            return serialize.dumps([t.to_json_dict() for t in transcripts])

        assert render(config) == render(replace(config, d=3))
        for bad in (True, 3.0, 1):
            with pytest.raises(InvalidDimension):
                RegisterLayout(bad, ("a",))
            with pytest.raises(InvalidDimension):
                init_carrier(bad)
            with pytest.raises(InvalidDimension):
                ProtocolConfig(d=bad, rounds=1, keys=(0,))

    def test_state_size_cap(self):
        # constructing the config only: no state is allocated
        ProtocolConfig(d=2, rounds=1, keys=(0,), eve_registers=19)  # 2^22, at the cap
        for d, eve_registers in ((2, 20), (16, 5), (2, 10 ** 9)):
            with pytest.raises(ExplosionGuard, match="amplitudes"):
                ProtocolConfig(d=d, rounds=1, keys=(0,), eve_registers=eve_registers)
        assert protocol.STATE_CAP == 2 ** 22

    def test_eve_register_labels(self):
        assert eve_register_labels(0) == []
        assert eve_register_labels(1) == ["e"]
        assert eve_register_labels(3) == ["e", "e2", "e3"]


class TestKeyStream:
    def test_explicit_keys_pass_through(self):
        config = ProtocolConfig(d=3, rounds=3, keys=[0, 2, 1])
        assert resolved_keys(config) == (0, 2, 1)

    def test_seeded_keys_are_deterministic_and_in_range(self):
        config = ProtocolConfig(d=3, rounds=50, key_seed=9)
        keys = resolved_keys(config)
        assert keys == resolved_keys(config)
        assert len(keys) == 50
        assert all(0 <= q < 3 for q in keys)

    def test_different_seeds_differ(self):
        a = resolved_keys(ProtocolConfig(d=5, rounds=40, key_seed=1))
        b = resolved_keys(ProtocolConfig(d=5, rounds=40, key_seed=2))
        assert a != b


class TestCarrier:
    def test_d2_amplitudes(self):
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.array_equal(init_carrier(2).amplitudes, expected)

    def test_d3_support(self):
        amps = init_carrier(3).amplitudes
        assert set(np.nonzero(amps)[0]) == {0, 4, 8}

    def test_rejects_d1(self):
        with pytest.raises(InvalidDimension):
            init_carrier(1)


class TestEncode:
    def test_d3_q1_amplitudes(self):
        state = alice_encode(init_carrier(3), 1)
        layout = state.layout
        assert layout.labels == ("a", "b", "k")
        expected = np.zeros(27, dtype=complex)
        for j in range(3):
            expected[layout.index_of((j, j, (j + 1) % 3))] = 1 / np.sqrt(3)
        assert np.array_equal(state.amplitudes, expected)

    def test_q0_gives_ghz_form(self):
        state = alice_encode(init_carrier(2), 0)
        assert set(np.nonzero(state.amplitudes)[0]) == {0, 7}

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_flying_qudit_is_maximally_mixed(self, d):
        for q in range(d):
            rho = partial_trace(alice_encode(init_carrier(d), q), {"k"})
            assert np.max(np.abs(rho.entries - np.eye(d) / d)) <= 1e-12

    @pytest.mark.parametrize("q", [3, -1, 1.0, "1", True, np.True_],
                             ids=["above", "negative", "float", "str", "bool", "numpy_bool"])
    def test_rejects_bad_key_value(self, q):
        # a float or a string used to fail on q.min(), and True on a shape mismatch
        with pytest.raises(ValueOutOfRange, match=r"register 'k' not in \[0, 3\)"):
            alice_encode(init_carrier(3), q)

    def test_per_row_keys(self):
        # the exact walk's encode: a Stage of identical rows with one key value
        # per row gives each row the bits of encoding its state alone
        carrier = init_carrier(3)
        stage = protocol.Stage(carrier.layout, np.repeat(carrier.amplitudes[None], 4, 0),
                               np.ones(4), (), np.zeros((4, 0), np.intp))
        keys = np.array([2, 0, 1, 2])
        encoded = stage.encode(keys)
        for row, q in enumerate(keys.tolist()):
            assert encoded.state(row).amplitudes.tobytes() == \
                alice_encode(carrier, q).amplitudes.tobytes()

    def test_rejects_second_flying_qudit(self):
        once = alice_encode(init_carrier(2), 0)
        with pytest.raises(RegisterCollision):
            alice_encode(once, 1)

    def test_needs_both_carrier_halves(self):
        lonely = PureState(RegisterLayout(2, ("a", "x")), [1, 0, 0, 0])
        with pytest.raises(MissingRegister):
            alice_encode(lonely, 0)


class TestDecode:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_roundtrip_restores_carrier(self, d):
        rng = np.random.default_rng(0)
        for q in range(d):
            decoded, post = bob_decode(alice_encode(init_carrier(d), q), rng)
            assert decoded == q
            assert states_equal_up_to_phase(post, init_carrier(d), 1e-12)

    @pytest.mark.parametrize("d,q1", [(2, 1), (3, 2)])
    def test_decode_with_correlated_memory(self, d, q1):
        layout = RegisterLayout(d, ("a", "b", "k", "e"))
        amps = np.zeros(layout.dim, dtype=complex)
        for j in range(d):
            amps[layout.index_of((j, j, (j + q1) % d, (j + q1) % d))] = 1 / np.sqrt(d)
        decoded, post = bob_decode(PureState(layout, amps), np.random.default_rng(0))
        assert decoded == q1
        expected = np.zeros(d ** 3, dtype=complex)
        residual = RegisterLayout(d, ("a", "b", "e"))
        for j in range(d):
            expected[residual.index_of((j, j, (j + q1) % d))] = 1 / np.sqrt(d)
        assert states_equal_up_to_phase(post, PureState(residual, expected), 1e-12)

    def test_needs_flying_qudit(self):
        with pytest.raises(MissingRegister):
            bob_decode(init_carrier(3), np.random.default_rng(0))

    def test_needs_an_rng(self, monkeypatch):
        # as qudit.measure does: no unseeded generator stands in for a missing one,
        # and None, which used to return every outcome's array, is refused before
        # the decode gate runs
        state, calls = alice_encode(init_carrier(3), 1), []
        monkeypatch.setattr(protocol, "_gated", lambda *args: calls.append(args))
        with pytest.raises(TypeError):
            bob_decode(state)
        with pytest.raises(TypeError, match="^rng must be a numpy Generator, got None$"):
            bob_decode(state, None)
        assert calls == []

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("eve_registers", [1, 2])
    def test_decode_equals_remove_register_of_the_projection(self, d, eve_registers):
        # the decode measures k once and slices it away; slicing k's outcome out of
        # the projected state's tensor gives the same bits
        rng = np.random.default_rng(10 * d + eve_registers)
        config = ProtocolConfig(d=d, rounds=1, keys=(0,), eve_registers=eve_registers)
        state = protocol._start(config).state(0)
        state = alice_encode(state, int(rng.integers(d)))
        targets = ("k", *eve_register_labels(eve_registers))
        side = d ** len(targets)
        unitary, _ = np.linalg.qr(rng.normal(size=(side, side))
                                  + 1j * rng.normal(size=(side, side)))
        state = apply_gate(state, GateSpec.dense(targets, unitary))
        decoded = apply_gate(state, protocol._DECODE)

        rows, outcomes = protocol._Steps().decode(protocol.Stage.of(state))
        expected = measured(decoded, "k")
        axis = decoded.layout.axis("k")
        assert len(rows.probs) == len(expected) > 1
        assert outcomes.tolist() == [v for v, _, _ in expected]
        for i, (v, p, projected) in enumerate(expected):
            assert rows.probs[i] == p
            post = rows.state(i)
            assert post.layout == decoded.layout.drop("k")
            assert np.array_equal(post.amplitudes, np.take(projected.tensor, v, axis).ravel())

        rows, outcome = protocol._Steps(np.random.default_rng(7)).decode(
            protocol.Stage.of(state))
        post = rows.state(0)
        drawn, projected = measure(decoded, "k", np.random.default_rng(7))
        assert outcome == drawn
        assert np.array_equal(post.amplitudes, np.take(projected.tensor, drawn, axis).ravel())


class TestSession:
    @pytest.mark.parametrize("tol", [math.nan, 0.0, True, np.True_])
    @pytest.mark.parametrize("diagnostics", [(), ("post_encode",)])
    def test_schmidt_tol_is_refused_before_round_1(self, tol, diagnostics, monkeypatch):
        # a nan used to be refused only at round 1's first diagnostic, and without
        # diagnostics any cutoff, True among them (a cutoff of 1), was accepted
        calls = []
        monkeypatch.setattr(protocol.Stage, "encode", lambda stage, q: calls.append(q))
        config = ProtocolConfig(d=3, rounds=2, keys=(0, 1))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            run_session(config, diagnostics=diagnostics, schmidt_tol=tol)
        assert calls == []

    def test_a_round_that_loses_norm_is_named(self, monkeypatch):
        # the second decode keeps 0.9 of each amplitude: round 2 ends at norm 0.9
        decode, calls = protocol._Steps.decode, []

        def leaky_decode(steps, stage):
            calls.append(steps.rng)
            stage, outcome = decode(steps, stage)
            return (stage._replace(amps=stage.amps * 0.9) if len(calls) == 2 else stage), outcome

        monkeypatch.setattr(protocol._Steps, "decode", leaky_decode)
        config = ProtocolConfig(d=3, rounds=3, keys=(0, 1, 2))
        with pytest.raises(InvariantViolation, match=r"drifted to 0\.9000.* after round 2"):
            run_session(config)
        assert len(calls) == 2

    def test_honest_rounds_decode_exactly(self):
        config = ProtocolConfig(d=3, rounds=4, keys=(0, 1, 2, 0))
        transcripts = run_session(config)
        assert [t.key_decoded for t in transcripts] == [0, 1, 2, 0]
        assert all(t.key_sent == t.key_decoded for t in transcripts)

    def test_carrier_survives_64_rounds(self):
        d = 3
        state = init_carrier(d)
        rng = np.random.default_rng(1)
        keys = np.random.default_rng(2).integers(0, d, size=64)
        for q in keys:
            decoded, state = bob_decode(alice_encode(state, int(q)), rng)
            assert decoded == int(q)
        assert states_equal_up_to_phase(state, init_carrier(d), 1e-10)

    def test_mode_tags_follow_control_rounds(self):
        config = ProtocolConfig(d=2, rounds=4, keys=(0, 1, 0, 1), control_rounds={2, 4})
        modes = [t.mode for t in run_session(config)]
        assert modes == ["message", "control", "message", "control"]

    def test_transcripts_are_deterministic(self):
        config = ProtocolConfig(d=3, rounds=6, key_seed=5, control_rounds={1, 4}, seed=9)
        script = compile_schedule("intercept_resend", config)

        def render():
            transcripts = run_session(config, script, diagnostics=("round_end",))
            return serialize.dumps([t.to_json_dict() for t in transcripts])

        assert render() == render()

    def test_unknown_stage_rejected(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,))
        with pytest.raises(ConfigError):
            run_session(config, diagnostics=("mid_flight",))

    def test_script_beyond_session_rejected(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,))
        script = AttackScript({3: (EveAction.measurement("k"),)})
        with pytest.raises(ConfigError):
            run_session(config, script)

    def test_script_with_unknown_register_rejected(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,), eve_registers=1)
        script = AttackScript({1: (EveAction.apply(GateSpec.shift("e2", 1)),)})
        with pytest.raises(ScriptRegisterUnknown):
            run_session(config, script)

    @pytest.mark.parametrize("bad,error", [
        (EveAction.apply(GateSpec.shift("e2", 1)), ScriptRegisterUnknown),
        (EveAction.apply(GateSpec.dense(["k"], np.eye(4))), NonUnitaryMatrix),
    ], ids=["unknown_register", "dense_side"])
    def test_a_shared_bad_tuple_is_refused_at_its_lowest_round(self, bad, error):
        # each distinct action tuple is checked once, in round order
        good = (EveAction.measurement("k"),)
        shared = (EveAction.measurement("k"), bad)
        script = AttackScript({5: shared, 1: good, 3: shared, 2: good, 4: good})
        assert script.rounds[3] is script.rounds[5]
        config = ProtocolConfig(d=2, rounds=6, key_seed=0)
        for run in (run_session, run_session_branches):
            with pytest.raises(error, match=r"^round 3 "):
                run(config, script)

    def test_post_decode_action_on_k_refused_before_any_encode(self, monkeypatch):
        # Bob has dropped k by post_decode; the bad action sits in the last round
        calls = []
        encode = protocol.Stage.encode

        def counting_encode(stage, q):
            calls.append(q)
            return encode(stage, q)

        monkeypatch.setattr(protocol.Stage, "encode", counting_encode)
        config = ProtocolConfig(d=2, rounds=12, key_seed=0)
        script = AttackScript({12: (EveAction.measurement("k", timing="post_decode"),)})
        with pytest.raises(ScriptRegisterUnknown, match="post_decode"):
            run_session(config, script)
        assert calls == []

    def test_dense_gate_of_the_wrong_size_refused_before_any_encode(self, monkeypatch):
        # a 4 x 4 unitary on one d=2 register would only fail inside apply_gate
        calls = []
        monkeypatch.setattr(protocol.Stage, "encode", lambda stage, q: calls.append(q))
        config = ProtocolConfig(d=2, rounds=2, keys=(0, 1))
        script = AttackScript({2: (EveAction.apply(GateSpec.dense(["k"], np.eye(4))),)})
        for run in (run_session, run_session_branches, eve_conditional_states):
            with pytest.raises(NonUnitaryMatrix, match=r"d\^targets = 2"):
                run(config, script)
        assert calls == []

    def test_post_decode_actions_may_touch_eve_memory(self):
        config = ProtocolConfig(d=2, rounds=2, keys=(1, 0))
        script = AttackScript({1: (
            EveAction.apply(GateSpec.controlled_add("k", "e", 1)),
            EveAction.measurement("e", timing="post_decode"),
        )})
        transcripts = run_session(config, script)
        assert [t.key_decoded for t in transcripts] == [1, 0]
        assert [len(t.eve_records) for t in transcripts] == [1, 0]

    def test_key_out_of_range_names_its_index(self):
        with pytest.raises(ValueOutOfRange, match=r"keys\[1\] = 3 not in \[0, 3\)"):
            ProtocolConfig(d=3, rounds=2, keys=(0, 3))

    def test_transcript_json_shape(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(1,), control_rounds={1})
        doc = run_session(config, diagnostics=("post_encode",))[0].to_json_dict()
        assert list(doc) == ["round", "mode", "key_sent", "key_decoded",
                             "eve_records", "diagnostics"]
        assert doc["mode"] == "control"
        assert doc["diagnostics"]["post_encode"]["stage"] == "post_encode"


def _sampled(config, script, monkeypatch, budget=None):
    """run_session with every diagnostic stage, at the table's budget or `budget`
    bytes, and the session rng it drew from."""
    made = {}

    def default_rng(seed):
        made[repr(seed)] = rng = np.random.Generator(np.random.PCG64(seed))
        return rng

    with monkeypatch.context() as patched:
        patched.setattr(protocol.np.random, "default_rng", default_rng)
        if budget is not None:
            patched.setattr(protocol, "STEP_TABLE_BYTES", budget)
        transcripts = run_session(config, script, diagnostics=protocol.STAGES)
    return transcripts, made[repr([protocol._SESSION_STREAM, config.seed])]


class TestStepTable:
    """A sampled session computes each distinct (row, step) once and changes no bit."""

    @pytest.mark.parametrize("eve", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_an_empty_table_changes_no_bit(self, preset, d, eve, monkeypatch):
        # 60 rounds reach every kind of round: cached, uncached, and after the
        # table closes on rows that do not come back (intercept_resend at d >= 3)
        config = ProtocolConfig(d=d, rounds=60, key_seed=d, eve_registers=eve, seed=eve,
                                control_rounds=frozenset({1, 30}))
        script = compile_schedule(preset, config)
        cached, cached_rng = _sampled(config, script, monkeypatch)
        uncached, uncached_rng = _sampled(config, script, monkeypatch, budget=0)
        assert cached == uncached
        # repr round-trips a float bit for bit and tells -0.0 from 0.0
        assert (json.dumps([t.to_json_dict() for t in cached])
                == json.dumps([t.to_json_dict() for t in uncached]))
        # no draw is skipped or added: the session rng ends in the same state
        assert cached_rng.bit_generator.state == uncached_rng.bit_generator.state
        assert cached_rng.bit_generator.state != np.random.default_rng(
            [protocol._SESSION_STREAM, config.seed]).bit_generator.state  # every decode draws

    def test_repeated_rows_are_computed_once(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        from qkdsim import analysis
        monkeypatch.setattr(protocol, "_gated", counting("gate", protocol._gated))
        monkeypatch.setattr(analysis, "diagnose", counting("diagnose", analysis.diagnose))
        config = ProtocolConfig(d=3, rounds=400, key_seed=1, seed=2)
        script = compile_schedule("persistent_entangle", config)
        stages = ("post_encode", "round_end")
        cached = run_session(config, script, diagnostics=stages)
        assert calls["gate"] <= 5 * config.d and calls["diagnose"] <= 5 * config.d
        calls.clear()
        monkeypatch.setattr(protocol, "STEP_TABLE_BYTES", 0)
        assert run_session(config, script, diagnostics=stages) == cached
        # without the table: encode and decode gate every round, and two diagnoses
        assert calls["gate"] >= 800 and calls["diagnose"] == 800

    def test_a_warm_round_builds_no_stage(self, monkeypatch):
        # a held row stores the Stage each step leads to, so a hit builds nothing
        built = Counter()
        new = protocol.Stage.__new__

        def counting(cls, *args, **kwargs):
            built["stage"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(protocol.Stage, "__new__", counting)
        config = ProtocolConfig(d=3, rounds=400, key_seed=1, seed=2)
        script = compile_schedule("persistent_entangle", config)
        cached = run_session(config, script)
        assert built["stage"] <= 10 * config.d
        built.clear()
        monkeypatch.setattr(protocol, "STEP_TABLE_BYTES", 0)
        assert run_session(config, script) == cached
        # without the table: start, encode and decode each round, Stage.of, and the
        # pre_bob gate of round 1
        assert built["stage"] == 3 * config.rounds + 2

    @pytest.mark.parametrize("preset", ["none", "persistent_entangle"])
    def test_a_held_row_that_drifts_is_refused_in_its_first_round(self, preset, monkeypatch):
        # key 2 is first decoded in round 7, on held rows, so its drifted row is held;
        # the norm check runs every round, on a held row once, and still catches it
        kept, held = protocol._kept, []

        def drifting(amps, split, rows, values, probs, drop):
            out = kept(amps, split, rows, values, probs, drop)
            return out * 1.001 if drop and rows is None and values == 2 else out

        class Recorded(protocol._Steps):
            def _hold(self, stage):
                held.append(stage.amps)
                return super()._hold(stage)

        monkeypatch.setattr(protocol, "_kept", drifting)
        monkeypatch.setattr(protocol, "_Steps", Recorded)
        config = ProtocolConfig(d=3, rounds=12, keys=(0, 0, 0, 1, 0, 1, 2, 2, 0, 2, 1, 2))
        with pytest.raises(InvariantViolation, match=r"drifted to 1\.001000000000 after round 7$"):
            run_session(config, compile_schedule(preset, config))
        assert abs(np.linalg.norm(held[-1]) - 1.0) > 1e-6  # the last row held drifted

    def test_a_stage_that_drifts_off_its_held_row_reads_none_of_its_results(self, monkeypatch):
        # round 9 decodes on a held row whose norm round 2 stored; the stage then
        # drifts off that row, so the stored norm is not read and the check catches it
        decode, held = protocol._Steps.decode, []

        def leaky_decode(steps, stage):
            stage, outcome = decode(steps, stage)
            held.append(steps.held(stage) is not None)
            return (stage._replace(amps=stage.amps * 0.9) if len(held) == 9 else stage), outcome

        monkeypatch.setattr(protocol._Steps, "decode", leaky_decode)
        config = ProtocolConfig(d=3, rounds=12, keys=(0,) * 12)
        with pytest.raises(InvariantViolation, match=r"drifted to 0\.9000.* after round 9$"):
            run_session(config)
        assert held == [False] + [True] * 8

    def test_no_table_outlives_its_session(self, monkeypatch):
        import gc
        import weakref

        tables = []

        class Recorded(protocol._Steps):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(protocol, "_Steps", Recorded)
        config = ProtocolConfig(d=3, rounds=50, key_seed=1)
        transcripts = run_session(config, compile_schedule("persistent_entangle", config),
                                  diagnostics=protocol.STAGES)
        gc.collect()
        assert len(tables) == 1 and tables[0]() is None and len(transcripts) == 50

    def test_the_table_is_freed_when_the_session_returns(self, monkeypatch):
        # no entry names the table or another entry by object, so reference counting
        # frees the table: no cycle waits for the cyclic collector
        import gc
        import weakref

        tables = []

        class Recorded(protocol._Steps):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(protocol, "_Steps", Recorded)
        config = ProtocolConfig(d=3, rounds=200, key_seed=1)
        script = compile_schedule("persistent_entangle", config)
        gc.disable()
        try:
            transcripts = run_session(config, script, diagnostics=protocol.STAGES)
            assert len(tables) == 1 and tables[0]() is None
        finally:
            gc.enable()
        assert len(transcripts) == 200

    def test_the_table_is_freed_on_every_way_out(self, monkeypatch):
        # nothing empties the table, and no entry names another by object, so
        # reference counting frees it when a refused session's error is dropped and
        # when a loop is closed early
        import gc
        import weakref

        tables, kept = [], protocol._kept

        class Recorded(protocol._Steps):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        def drifting(amps, split, rows, values, probs, drop):
            out = kept(amps, split, rows, values, probs, drop)
            return out * 1.001 if drop and rows is None and values == 2 else out

        monkeypatch.setattr(protocol, "_Steps", Recorded)
        config = ProtocolConfig(d=3, rounds=12, keys=(0, 0, 0, 1, 0, 1, 2, 2, 0, 2, 1, 2))
        script = compile_schedule("persistent_entangle", config)
        gc.disable()
        try:
            with monkeypatch.context() as patched:
                patched.setattr(protocol, "_kept", drifting)
                try:
                    run_session(config, script)
                except InvariantViolation as error:
                    message = str(error)
            assert message.endswith("after round 7") and tables[0]() is None
            steps = Recorded(np.random.default_rng(0))
            loop = protocol._round_loop(protocol._start(config), config.keys, 1, script, steps)
            del steps
            for r, _, name, *_ in loop:
                if (r, name) == (3, "round_end"):
                    break
            assert tables[1]() is not None
            loop.close()
            assert len(tables) == 2 and tables[1]() is None
        finally:
            gc.enable()

    def test_a_decode_on_a_held_row_is_one_step(self, monkeypatch):
        # the decode stores its draw table and the kept row per drawn value, not the
        # gated row between them
        config = ProtocolConfig(d=5, rounds=300, key_seed=3, seed=4, eve_registers=2)
        script = compile_schedule("none", config)
        steps = protocol._Steps(np.random.default_rng(0))
        loop = protocol._round_loop(protocol._start(config), protocol.resolved_keys(config), 1,
                                    script, steps)
        for r, _, name, stage, decoded in loop:
            if name == "post_attack":
                held = steps.held(stage)
            elif name == "post_decode" and r == 3:  # round 3 is the first on held rows
                break
        assert held is not None and "decode" in held and ("decode", decoded) in held
        assert id(protocol._DECODE) not in held
        loop.close()
        # so the 50 KB encoded rows of this session stay held: fewer gates than rounds,
        # where the gated rows used to crowd them out and every round gated at least once
        calls = Counter()
        gated = protocol._gated

        def counting(*args):
            calls["gate"] += 1
            return gated(*args)

        monkeypatch.setattr(protocol, "_gated", counting)
        cached = run_session(config, script)
        assert calls["gate"] < config.rounds
        calls.clear()
        monkeypatch.setattr(protocol, "STEP_TABLE_BYTES", 0)
        assert run_session(config, script) == cached
        assert calls["gate"] == 2 * config.rounds  # encode and decode, every round

    def test_every_round_still_calls_its_steps(self, monkeypatch):
        step, decode, calls = protocol._Steps.step, protocol._Steps.decode, Counter()
        monkeypatch.setattr(protocol._Steps, "step", lambda steps, stage, key, fn, arg: (
            calls.update([fn.__name__]) or step(steps, stage, key, fn, arg)))
        monkeypatch.setattr(protocol._Steps, "decode",
                            lambda steps, stage: calls.update(["decode"]) or decode(steps, stage))
        run_session(ProtocolConfig(d=3, rounds=200, key_seed=1), diagnostics=("round_end",))
        assert calls == {"encode": 200, "decode": 200}

    @pytest.mark.parametrize("budget", ["default", 64 * 1024])
    @pytest.mark.parametrize("preset", ["intercept_resend", "none"])
    def test_the_table_holds_at_most_its_budget(self, preset, budget, monkeypatch):
        import tracemalloc

        config = ProtocolConfig(d=5, rounds=100, key_seed=3, seed=4, eve_registers=2)
        script = compile_schedule(preset, config)
        budget = protocol.STEP_TABLE_BYTES if budget == "default" else budget

        def peak(table_bytes):
            monkeypatch.setattr(protocol, "STEP_TABLE_BYTES", table_bytes)
            tracemalloc.start()
            try:
                run_session(config, script, diagnostics=("post_encode", "round_end"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base = min(peak(0), peak(0))
        assert peak(budget) <= base + budget + 256 * 1024


class TestControlCheck:
    def test_honest_sessions_show_zero_mismatch(self):
        config = ProtocolConfig(d=3, rounds=10, key_seed=4, control_rounds={1, 5, 9})
        check = control_check(run_session(config), config.control_rounds)
        assert check.checked == 3
        assert check.mismatches == 0
        assert check.rate == 0.0

    def test_persistent_entanglement_is_invisible(self):
        config = ProtocolConfig(d=2, rounds=4, keys=(1, 0, 1, 1),
                                control_rounds={1, 2, 3, 4})
        script = compile_schedule("persistent_entangle", config)
        check = control_check(run_session(config, script), config.control_rounds)
        assert check.mismatches == 0

    def test_intercept_resend_disturbs_the_channel(self):
        config = ProtocolConfig(d=2, rounds=2000, key_seed=13,
                                control_rounds=frozenset(range(1, 2001)), seed=17)
        script = compile_schedule("intercept_resend", config)
        check = control_check(run_session(config, script), config.control_rounds)
        assert check.checked == 2000
        # frozen draw for these seeds; the rate bracket is the real contract
        assert check.mismatches == 467
        assert 0.20 <= check.rate <= 0.30

    def test_empty_control_set(self):
        config = ProtocolConfig(d=2, rounds=2, keys=(0, 1))
        check = control_check(run_session(config), ())
        assert check.checked == 0
        assert check.rate == 0.0


class TestBranchExecutor:
    def test_the_exhaustive_paths_never_draw(self, monkeypatch):
        # only a sampled step table and qudit.measure draw an outcome; every
        # exhaustive path keeps each outcome as a row
        from qkdsim import analysis, qudit

        def draw(*args):
            raise AssertionError("an exhaustive path drew an outcome")

        monkeypatch.setattr(protocol, "_draw", draw)
        monkeypatch.setattr(qudit, "_draw", draw)
        for d in (2, 3):
            config = ProtocolConfig(d=d, rounds=3, key_seed=0, seed=1)
            for preset in PRESETS:
                script = compile_schedule(preset, config)
                branches = run_session_branches(config, script)
                assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12
                assert eve_conditional_states(config, script).blocks
            assert len(measured(init_carrier(d), "a")) == d
            assert analysis.feasibility_search("post_round1_round2", d, max_depth=1).candidates
        # the control: the sampled paths reach the patched draws
        with pytest.raises(AssertionError, match="drew"):
            run_session(ProtocolConfig(d=2, rounds=1, keys=(0,)))
        with pytest.raises(AssertionError, match="drew"):
            measure(init_carrier(2), "a", np.random.default_rng(0))

    def test_honest_session_has_single_branch(self):
        config = ProtocolConfig(d=3, rounds=2, keys=(1, 2))
        branches = run_session_branches(config)
        assert len(branches) == 1
        assert branches[0].probability == pytest.approx(1.0, abs=1e-12)
        assert branches[0].eve_records == ()

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_honest_decodes_return_the_start_state_bit_for_bit(self, d):
        # each decode keeps one outcome, so it is certain: probability exactly 1 and
        # no division; the rounded marginal sums used to give 1.0000000000000007 at
        # d = 3 and a carrier amplitude one ulp off at d = 2
        config = ProtocolConfig(d=d, rounds=3, keys=(1, 0, d - 1))
        (branch,) = run_session_branches(config)
        assert branch.probability == 1.0
        start = insert_register(init_carrier(d), "e", 0, 2)
        assert branch.state.layout == start.layout
        assert np.array_equal(branch.state.amplitudes, start.amplitudes)

    def test_branch_probabilities_sum_to_one(self):
        config = ProtocolConfig(d=2, rounds=2, keys=(0, 1))
        script = AttackScript({
            1: (EveAction.measurement("k"),),
            2: (EveAction.measurement("k"),),
        })
        branches = run_session_branches(config, script)
        assert len(branches) > 1
        assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12

    def test_branches_respect_script_records(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(1,))
        script = AttackScript({1: (EveAction.measurement("k"),)})
        for branch in run_session_branches(config, script):
            assert len(branch.eve_records) == 1
            assert branch.eve_records[0][:2] == (1, "k")

    def test_sampled_records_follow_the_branch_probabilities(self):
        # both policies run the same rounds: over many seeds the sampled
        # records must occur at the exhaustive branch weights
        config = ProtocolConfig(d=3, rounds=2, keys=(1, 2))
        script = AttackScript({r: (EveAction.apply(GateSpec.fourier("k")),
                                   EveAction.measurement("k")) for r in (1, 2)})
        expected: dict = {}
        for branch in run_session_branches(config, script):
            expected[branch.eve_records] = (expected.get(branch.eve_records, 0.0)
                                            + branch.probability)
        samples = 2000
        counts = Counter(
            sum((t.eve_records for t in run_session(replace(config, seed=seed), script)), ())
            for seed in range(samples))
        assert set(counts) <= set(expected)
        records = sorted(expected)
        result = stats.chisquare([counts[rec] for rec in records],
                                 [samples * expected[rec] for rec in records])
        assert result.pvalue > 1e-3, (dict(counts), expected)


class TestBranchCap:
    CONFIG = ProtocolConfig(d=2, rounds=3, keys=(0, 1, 1))
    SCRIPT = AttackScript({r: (EveAction.apply(GateSpec.fourier("k")),
                               EveAction.measurement("k")) for r in (1, 2, 3)})

    def test_cap_bounds_the_branch_count(self, monkeypatch):
        full = len(run_session_branches(self.CONFIG, self.SCRIPT))
        monkeypatch.setattr(protocol, "BRANCH_CAP", full)
        assert len(run_session_branches(self.CONFIG, self.SCRIPT)) == full
        monkeypatch.setattr(protocol, "BRANCH_CAP", full - 1)
        with pytest.raises(ExplosionGuard):
            run_session_branches(self.CONFIG, self.SCRIPT)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
    def test_no_stage_event_exceeds_the_cap(self, cap, monkeypatch):
        # the cap is checked on the count of surviving (row, outcome) pairs,
        # before the repeated rows are built, and no event carries more rows
        built = []
        kept = protocol._kept

        def counting_kept(amps, split, rows, *rest):
            built.append(len(amps) if rows is None else len(rows))
            return kept(amps, split, rows, *rest)

        full = len(run_session_branches(self.CONFIG, self.SCRIPT))
        assert full > 8
        monkeypatch.setattr(protocol, "_kept", counting_kept)
        monkeypatch.setattr(protocol, "BRANCH_CAP", cap)
        events = []
        loop = protocol._round_loop(protocol._start(self.CONFIG), self.CONFIG.keys, 1,
                                    self.SCRIPT, None)
        with pytest.raises(ExplosionGuard, match=f"cap of {cap}"):
            for *_, stage, _ in loop:
                events.append(len(stage.probs))
        assert events and max(events) <= cap and max(built, default=0) <= cap

    def test_cap_is_checked_before_bob_decodes(self, monkeypatch):
        # Eve's first measurement makes two branches; a cap of one stops the
        # session there, before it builds a post-measurement row or decodes
        collapses = []
        kept = protocol._kept

        def counting_kept(*args):
            collapses.append(args)
            return kept(*args)

        monkeypatch.setattr(protocol, "_kept", counting_kept)
        monkeypatch.setattr(protocol, "BRANCH_CAP", 1)
        with pytest.raises(ExplosionGuard):
            run_session_branches(self.CONFIG, self.SCRIPT)
        assert collapses == []


def reference_branches(config, script):
    """run_session_branches' definition, one branch at a time, from one-row steps
    only: (probability, state, records) triples.  Bob drops his certain k by
    slicing its value out of the collapsed state's tensor."""
    state = init_carrier(config.d)
    for label in eve_register_labels(config.eve_registers):
        state = insert_register(state, label, 0, len(state.layout))
    branches = [(1.0, state, ())]

    def act(branches, actions, r):
        for action in actions:
            if action.gate is not None:
                branches = [(p, apply_gate(s, action.gate), rec) for p, s, rec in branches]
            else:
                branches = [(p * pv, post, rec + ((r, action.measure, v),))
                            for p, s, rec in branches
                            for v, pv, post in measured(s, action.measure)]
        return branches

    for r, q in enumerate(resolved_keys(config), start=1):
        branches = [(p, apply_gate(insert_register(s, "k", q, s.layout.axis("b") + 1),
                                   GateSpec.controlled_add("a", "k", 1)), rec)
                    for p, s, rec in branches]
        branches = act(branches, script.actions(r, "pre_bob"), r)
        branches = [(p * pv, PureState(post.layout.drop("k"),
                                       np.take(post.tensor, v, post.layout.axis("k"))), rec)
                    for p, s, rec in branches
                    for v, pv, post in measured(
                        apply_gate(s, GateSpec.controlled_add("b", "k", -1)), "k")]
        branches = act(branches, script.actions(r, "post_decode"), r)
    return branches


def random_ke_script(d, rounds, seed):
    """Seeded Haar-random gates on k, e and (k, e), and measurements of k and e."""
    rng = np.random.default_rng(seed)

    def unitary(targets):
        side = d ** len(targets)
        z = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        return np.linalg.qr(z)[0]

    rounds_actions = {}
    for r in range(1, rounds + 1):
        actions = []
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(4))
            if kind == 0:
                targets = [("k",), ("e",), ("k", "e"), ("e", "k")][int(rng.integers(4))]
                actions.append(EveAction.apply(GateSpec.dense(targets, unitary(targets))))
            elif kind == 1:
                actions.append(EveAction.measurement("k"))
            elif kind == 2:
                actions.append(EveAction.apply(GateSpec.dense(("e",), unitary(("e",))),
                                               "post_decode"))
            else:
                actions.append(EveAction.measurement("e", "post_decode"))
        rounds_actions[r] = tuple(actions)
    return AttackScript(rounds_actions)


def _cases():
    for preset in PRESETS:
        for d, rounds in [(2, 3), (3, 2)]:
            yield preset, d, rounds, 1
    yield "difference_leak_d3", 3, 4, 1
    for seed in range(6):
        yield f"random_ke:{seed}", 2 + seed % 2, 2 + seed % 2, 1 + seed % 2


def _script(name, config):
    if name in PRESETS:
        return compile_schedule(name, config)
    if name.startswith("random_ke:"):
        return random_ke_script(config.d, config.rounds, int(name.split(":")[1]))
    scenario = json.loads((REPO / "scenarios" / f"{name}.json").read_text())
    return script_from_obj(scenario["attack"]["script"])


class TestRowsMatchThePerBranchReference:
    """The rows of a stage against an interpreter that runs each branch alone."""

    @pytest.mark.parametrize("name,d,rounds,eve", list(_cases()))
    def test_branches_are_bit_identical(self, name, d, rounds, eve):
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=5, eve_registers=eve, seed=2)
        script = _script(name, config)
        reference = reference_branches(config, script)
        rows = run_session_branches(config, script)
        assert len(rows) == len(reference)
        for row, (p, state, records) in zip(rows, reference):
            assert row.probability == p
            assert row.eve_records == records
            assert row.state.layout == state.layout
            assert row.state.amplitudes.tobytes() == state.amplitudes.tobytes()

    @pytest.mark.parametrize("name,d,rounds,eve", [
        case for case in _cases() if case[1] ** case[2] <= 27])
    def test_walk_blocks_are_bit_identical(self, name, d, rounds, eve):
        # Eve's blocks per key tuple: partial traces of the reference branches,
        # added to 0 one by one in branch order, grouped by record
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=5, eve_registers=eve, seed=2)
        script = _script(name, config)
        eve_regs = eve_register_labels(eve)
        report = eve_conditional_states(config, script)
        for keys in product(range(d), repeat=rounds):
            if keys[0]:
                continue  # the walk computes the q1 = 0 representatives
            blocks = {}
            for p, state, records in reference_branches(
                    replace(config, keys=keys, key_seed=None), script):
                rho = partial_trace(state, eve_regs).entries * p
                blocks[records] = blocks.get(records, 0) + rho
            assert list(report.blocks[keys]) == list(blocks)
            for record, block in blocks.items():
                assert report.blocks[keys][record].tobytes() == block.tobytes()

"""Session state machine: carrier prep, per-round coding, transcripts."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qkdsim import protocol, serialize
from qkdsim.adversary import AttackScript, EveAction, compile_schedule
from qkdsim.errors import (
    ConfigError,
    ExplosionGuard,
    InvalidDimension,
    MissingRegister,
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
    partial_trace,
    states_equal_up_to_phase,
)


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

    def test_rejects_bad_key_value(self):
        with pytest.raises(ValueOutOfRange):
            alice_encode(init_carrier(3), 3)

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
            bob_decode(init_carrier(3))


class TestSession:
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

    def test_transcript_json_shape(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(1,), control_rounds={1})
        doc = run_session(config, diagnostics=("post_encode",))[0].to_json_dict()
        assert list(doc) == ["round", "mode", "key_sent", "key_decoded",
                             "eve_records", "diagnostics"]
        assert doc["mode"] == "control"
        assert doc["diagnostics"]["post_encode"]["stage"] == "post_encode"


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
    def test_honest_session_has_single_branch(self):
        config = ProtocolConfig(d=3, rounds=2, keys=(1, 2))
        branches = run_session_branches(config)
        assert len(branches) == 1
        assert branches[0].probability == pytest.approx(1.0, abs=1e-12)
        assert branches[0].eve_records == ()

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

    def test_cap_is_checked_before_bob_decodes(self, monkeypatch):
        # Eve's first measurement makes two branches; a cap of one stops the
        # session there, before any decode
        decodes = []
        remove = protocol.remove_register

        def counting_remove(*args, **kwargs):
            decodes.append(args[1])
            return remove(*args, **kwargs)

        monkeypatch.setattr(protocol, "remove_register", counting_remove)
        monkeypatch.setattr(protocol, "BRANCH_CAP", 1)
        with pytest.raises(ExplosionGuard):
            run_session_branches(self.CONFIG, self.SCRIPT)
        assert decodes == []

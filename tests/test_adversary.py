"""Eavesdropper actions, schedules, and what her records actually reveal."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qkdsim.adversary import (
    PRESETS,
    AttackScript,
    EveAction,
    apply_script,
    compile_schedule,
    eve_conditional_states,
    eve_disentangle,
    eve_entangle,
    gate_from_obj,
    gate_to_obj,
    script_from_obj,
    script_to_obj,
)
from qkdsim.errors import (
    ConfigError,
    ExplosionGuard,
    IllegalRegisterAccess,
    InvariantViolation,
    MissingRegister,
    ScriptRegisterUnknown,
    UnknownPreset,
)
from qkdsim import adversary, protocol
from qkdsim.protocol import (
    ProtocolConfig,
    bob_decode,
    init_carrier,
    run_session,
    run_session_branches,
)
from qkdsim.qudit import (
    GateSpec,
    PureState,
    RegisterLayout,
    basis_state,
    insert_register,
    partial_trace,
    schmidt_rank,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def in_transit_state(d, q, memory_value=0):
    """sum_j |j,j,j+q>_abk / sqrt(d) with Eve's memory appended."""
    layout = RegisterLayout(d, ("a", "b", "k", "e"))
    amps = np.zeros(layout.dim, dtype=complex)
    for j in range(d):
        amps[layout.index_of((j, j, (j + q) % d, memory_value))] = 1 / np.sqrt(d)
    return PureState(layout, amps)


def entangled_state(d, q):
    """sum_j |j,j,j+q,j+q> / sqrt(d): Eve holding a copy of the flying value."""
    layout = RegisterLayout(d, ("a", "b", "k", "e"))
    amps = np.zeros(layout.dim, dtype=complex)
    for j in range(d):
        amps[layout.index_of((j, j, (j + q) % d, (j + q) % d))] = 1 / np.sqrt(d)
    return PureState(layout, amps)


class TestEntangle:
    def test_copies_flying_value_termwise(self):
        out = eve_entangle(in_transit_state(2, 1))
        assert np.array_equal(out.amplitudes, entangled_state(2, 1).amplitudes)

    def test_on_basis_input(self):
        layout = RegisterLayout(3, ("k", "e"))
        out = eve_entangle(basis_state(layout, (2, 0)))
        assert out.amplitudes[layout.index_of((2, 2))] == 1.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_memory_rank_goes_from_one_to_d(self, d):
        state = in_transit_state(d, 1)
        assert schmidt_rank(state, {"e"}) == 1
        assert schmidt_rank(eve_entangle(state), {"e"}) == d

    def test_warns_when_memory_not_reset(self):
        state = in_transit_state(3, 0, memory_value=1)
        with pytest.warns(RuntimeWarning):
            eve_entangle(state)

    def test_needs_registers(self):
        with pytest.raises(MissingRegister):
            eve_entangle(init_carrier(2))


class TestDisentangle:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reversal_releases_memory_exactly(self, d):
        out = eve_disentangle(entangled_state(d, 1))
        assert schmidt_rank(out, {"e"}) == 1
        # memory slices other than |0> must be exactly zero
        assert np.all(out.tensor[:, :, :, 1:] == 0)

    def test_entangle_then_disentangle_is_identity(self):
        state = in_transit_state(3, 2)
        back = eve_disentangle(eve_entangle(state))
        assert np.array_equal(back.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("q1,q2", [(0, 1), (1, 0), (1, 1)])
    def test_stale_memory_collapses_to_key_difference(self, d, q1, q2):
        # round 2 in transit with round-1 memory: sum_j |j,j,j+q2>|j+q1>/sqrt(d)
        layout = RegisterLayout(d, ("a", "b", "k", "e"))
        amps = np.zeros(layout.dim, dtype=complex)
        for j in range(d):
            amps[layout.index_of((j, j, (j + q2) % d, (j + q1) % d))] = 1 / np.sqrt(d)
        out = eve_disentangle(PureState(layout, amps))
        assert schmidt_rank(out, {"e"}) == 1
        probs = out.probabilities("e")
        assert probs[(q1 - q2) % d] == pytest.approx(1.0, abs=1e-12)

    def test_needs_registers(self):
        with pytest.raises(MissingRegister):
            eve_disentangle(init_carrier(2))


class TestActions:
    def test_action_is_gate_or_measure_never_both(self):
        with pytest.raises(ValueError):
            EveAction("pre_bob")
        with pytest.raises(ValueError):
            EveAction("pre_bob", gate=GateSpec.shift("k", 1), measure="k")

    def test_carrier_halves_are_off_limits(self):
        with pytest.raises(IllegalRegisterAccess):
            EveAction.apply(GateSpec.shift("a", 1))
        with pytest.raises(IllegalRegisterAccess):
            EveAction.apply(GateSpec.controlled_add("b", "k", 1))
        with pytest.raises(IllegalRegisterAccess):
            EveAction.measurement("a")

    def test_timing_must_be_known(self):
        with pytest.raises(ValueError):
            EveAction.measurement("k", timing="mid_flight")

    def test_round_indices_start_at_one(self):
        with pytest.raises(ConfigError):
            AttackScript({0: (EveAction.measurement("k"),)})


class TestSchedules:
    def test_none_is_empty(self):
        config = ProtocolConfig(d=2, rounds=6, key_seed=0)
        assert compile_schedule("none", config).rounds == {}

    def test_persistent_acts_once_at_round_one(self):
        config = ProtocolConfig(d=3, rounds=9, key_seed=0)
        script = compile_schedule("persistent_entangle", config)
        assert set(script.rounds) == {1}
        assert len(script.rounds[1]) == 1
        assert script.rounds[1][0].gate.kind == "cadd"

    def test_stop_restart_touches_only_odd_rounds(self):
        config = ProtocolConfig(d=3, rounds=4, key_seed=0)
        script = compile_schedule("reply_odd_stop_restart", config)
        assert set(script.rounds) == {1, 3}
        for actions in script.rounds.values():
            assert [a.gate.s for a in actions] == [1, 2]
            assert all(a.timing == "pre_bob" for a in actions)

    def test_intercept_covers_every_round_deterministically(self):
        config = ProtocolConfig(d=2, rounds=8, key_seed=0, seed=5)
        script = compile_schedule("intercept_resend", config)
        again = compile_schedule("intercept_resend", config)
        assert set(script.rounds) == set(range(1, 9))
        assert set(script.rounds) == set(again.rounds)
        for r in script.rounds:
            shapes = [len(script.rounds[r]), len(again.rounds[r])]
            assert shapes[0] == shapes[1]
            # one action for a direct measure, three when it is basis-rotated
            assert shapes[0] in (1, 3)
            assert any(a.measure == "k" for a in script.rounds[r])

    def test_unknown_preset(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,))
        with pytest.raises(UnknownPreset):
            compile_schedule("clone_everything", config)


class TestApplyScript:
    def test_empty_script_is_inert(self):
        state = in_transit_state(2, 1)
        out, records = apply_script(state, AttackScript({}), 1, "pre_bob")
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert records == []

    def test_unknown_register_detected_at_apply(self):
        state = in_transit_state(2, 1)
        script = AttackScript({1: (EveAction.apply(GateSpec.shift("e7", 1)),)})
        with pytest.raises(ScriptRegisterUnknown):
            apply_script(state, script, 1, "pre_bob")

    def test_timing_filter(self):
        state = in_transit_state(2, 0)
        script = AttackScript({1: (EveAction.measurement("k", timing="post_decode"),)})
        out, records = apply_script(state, script, 1, "pre_bob")
        assert records == []
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_measurement_leaves_records(self):
        state = in_transit_state(2, 1)
        script = AttackScript({1: (EveAction.measurement("k"),)})
        _, records = apply_script(state, script, 1, "pre_bob", np.random.default_rng(3))
        assert len(records) == 1
        assert records[0][:2] == (1, "k")

    def test_memory_only_actions_cannot_shift_the_carrier(self):
        state = in_transit_state(3, 2)
        before = partial_trace(state, {"a", "b"}).entries
        script = AttackScript({1: (
            EveAction.apply(GateSpec.shift("e", 1)),
            EveAction.apply(GateSpec.fourier("e")),
        )})
        out, _ = apply_script(state, script, 1, "pre_bob")
        after = partial_trace(out, {"a", "b"}).entries
        assert np.max(np.abs(after - before)) <= 1e-12

    def test_round_one_entangle_is_undetected(self):
        config = ProtocolConfig(d=3, rounds=1, keys=(2,))
        script = AttackScript({1: (
            EveAction.apply(GateSpec.controlled_add("k", "e", 1)),
        )})
        transcript = run_session(config, script)[0]
        assert transcript.key_decoded == 2


class TestPersistentAcrossDecode:
    @pytest.mark.parametrize("d", [2, 3])
    def test_memory_rank_survives_bobs_decode(self, d):
        state = eve_entangle(in_transit_state(d, 1))
        decoded, post = bob_decode(state, np.random.default_rng(0))
        assert decoded == 1
        assert schmidt_rank(post, {"e"}) == d


class TestConditionalStates:
    def test_no_attack_reveals_nothing(self):
        config = ProtocolConfig(d=3, rounds=2, keys=(0, 0))
        report = eve_conditional_states(config)
        assert report.max_pairwise_distance <= 1e-12

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_persistent_entangler_alone_learns_nothing(self, rounds):
        config = ProtocolConfig(d=3, rounds=rounds, keys=(0,) * rounds)
        script = compile_schedule("persistent_entangle", config)
        report = eve_conditional_states(config, script)
        assert report.max_pairwise_distance <= 1e-12
        assert all(x <= 1e-12 for x in report.per_round_max_distance)

    def test_repeated_measurement_reveals_key_differences(self):
        config = ProtocolConfig(d=2, rounds=2, keys=(0, 0))
        script = AttackScript({
            1: (EveAction.measurement("k"),),
            2: (EveAction.measurement("k"),),
        })
        report = eve_conditional_states(config, script)
        assert report.max_pairwise_distance == pytest.approx(1.0, abs=1e-12)
        for (ka, kb), dist in report.pairwise_distances.items():
            same_difference = (ka[0] - ka[1]) % 2 == (kb[0] - kb[1]) % 2
            expected = 0.0 if same_difference else 1.0
            assert dist == pytest.approx(expected, abs=1e-12)
        # each single round still looks uniform to her
        assert all(x <= 1e-12 for x in report.per_round_max_distance)

    def test_intercept_preset_distinguishes_key_tuples(self):
        config = ProtocolConfig(d=2, rounds=4, keys=(0,) * 4, seed=0)
        script = compile_schedule("intercept_resend", config)
        report = eve_conditional_states(config, script)
        assert report.max_pairwise_distance == pytest.approx(1.0, abs=1e-12)

    def test_distances_do_not_depend_on_the_hash_seed(self):
        # records hold strings, so any set-ordered sum over them would change
        # its rounding from one interpreter to the next
        program = (
            "from qkdsim.adversary import compile_schedule, eve_conditional_states\n"
            "from qkdsim.protocol import ProtocolConfig\n"
            "config = ProtocolConfig(d=3, rounds=3, key_seed=2, eve_registers=0, seed=9)\n"
            "report = eve_conditional_states(\n"
            "    config, compile_schedule('intercept_resend', config))\n"
            "print(repr(report.pairwise_distances))\n"
            "print(repr(report.per_round_max_distance))\n")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", program], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_key_space_guard(self):
        config = ProtocolConfig(d=2, rounds=14, key_seed=0)
        with pytest.raises(ExplosionGuard):
            eve_conditional_states(config)

    def test_conditional_states_are_valid_density_matrices(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,))
        script = compile_schedule("persistent_entangle", config)
        report = eve_conditional_states(config, script)
        for rho in report.states.values():
            rho.validate()

    @staticmethod
    def _measure_k(rounds):
        return AttackScript({r: (EveAction.measurement("k"),) for r in range(1, rounds + 1)})

    @pytest.mark.parametrize("d,rounds,preset,eve_registers", [
        (2, 3, "intercept_resend", 1),
        (3, 2, "reply_odd_stop_restart", 2),
        (2, 3, "measure_k", 0),
        # sparse records: each key tuple holds few of the records in the union
        (3, 3, "intercept_resend", 2),
        (3, 3, "measure_k", 1),
    ])
    def test_walk_equals_the_per_key_definition(self, d, rounds, preset, eve_registers):
        # the definition: one exhaustive session per key tuple, blocks summed by
        # record, and one trace distance per pair, summed record by record
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=3,
                                eve_registers=eve_registers, seed=1)
        if preset == "measure_k":
            script = self._measure_k(rounds)
        else:
            script = compile_schedule(preset, config)
        eve_regs = protocol.eve_register_labels(eve_registers)
        expected = {}
        for keys in product(range(d), repeat=rounds):
            blocks = {}
            for branch in run_session_branches(replace(config, keys=keys, key_seed=None), script):
                if eve_regs:
                    rho = partial_trace(branch.state, eve_regs).entries * branch.probability
                else:
                    rho = np.array([[branch.probability]], dtype=complex)
                blocks[branch.eve_records] = blocks.get(branch.eve_records, 0) + rho
            expected[keys] = blocks

        report = eve_conditional_states(config, script)
        assert list(report.blocks) == list(expected)
        for keys, blocks in expected.items():
            assert list(report.blocks[keys]) == list(blocks)
            for record, block in blocks.items():
                assert np.array_equal(report.blocks[keys][record], block)

        def distance(a, b):
            return 0.5 * sum(np.abs(np.linalg.eigvalsh(a.get(rec, 0) - b.get(rec, 0))).sum()
                             for rec in sorted(set(a) | set(b)))

        assert list(report.pairwise_distances) == [
            (ka, kb) for ka in expected for kb in expected if ka < kb]
        for (ka, kb), dist in report.pairwise_distances.items():
            assert dist == distance(expected[ka], expected[kb])
        assert report.max_pairwise_distance == max(report.pairwise_distances.values())
        for r, worst in enumerate(report.per_round_max_distance):
            marginals = []
            for v in range(d):
                group = [k for k in expected if k[r] == v]
                merged = {}
                for k in group:
                    for record, block in expected[k].items():
                        merged[record] = merged.get(record, 0) + block / len(group)
                marginals.append(merged)
            reference = max(distance(marginals[i], marginals[j])
                            for i in range(d) for j in range(i + 1, d))
            assert worst == reference

    def test_one_pair_chunks_change_no_bit(self, monkeypatch):
        monkeypatch.setattr(adversary, "_CHUNK_BYTES", 1)
        self.test_walk_equals_the_per_key_definition(2, 4, "intercept_resend", 1)

    def test_each_key_prefix_runs_once(self, monkeypatch):
        # honest d=2, R=4: 2 + 4 + 8 + 16 prefixes, one encode each; one
        # session per key tuple would make 16 * 4 = 64
        calls = []
        encode = protocol.alice_encode

        def counting_encode(state, q):
            calls.append(q)
            return encode(state, q)

        monkeypatch.setattr(protocol, "alice_encode", counting_encode)
        report = eve_conditional_states(ProtocolConfig(d=2, rounds=4, key_seed=0))
        assert len(report.blocks) == 16
        assert len(calls) == 30

    def test_branch_cap_guards_the_walk(self, monkeypatch):
        config = ProtocolConfig(d=2, rounds=2, key_seed=0, eve_registers=0)
        script = self._measure_k(2)
        full = len(run_session_branches(config, script))
        monkeypatch.setattr(protocol, "BRANCH_CAP", full)
        eve_conditional_states(config, script)
        monkeypatch.setattr(protocol, "BRANCH_CAP", full - 1)
        with pytest.raises(ExplosionGuard):
            eve_conditional_states(config, script)

    def test_script_beyond_session_rejected(self):
        config = ProtocolConfig(d=2, rounds=2, key_seed=0)
        with pytest.raises(ConfigError):
            eve_conditional_states(config, self._measure_k(3))

    def test_weight_invariant_catches_a_lost_branch(self, monkeypatch):
        loop = protocol._round_loop

        def lossy_loop(*args):
            for *head, branches, decoded in loop(*args):
                yield (*head, branches[1:] if len(branches) > 1 else branches, decoded)

        monkeypatch.setattr(protocol, "_round_loop", lossy_loop)
        config = ProtocolConfig(d=2, rounds=2, key_seed=0, eve_registers=0)
        with pytest.raises(InvariantViolation, match="weight"):
            eve_conditional_states(config, self._measure_k(2))

    @pytest.mark.parametrize("d,rounds", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
    @pytest.mark.parametrize("eve_registers", [1, 2])
    def test_intercept_resend_closed_form(self, d, rounds, eve_registers):
        # her records fix every key difference between her computational-basis
        # rounds and nothing else: D(ka, kb) is 0 when ka - kb is constant mod d
        # over those rounds, and 1 otherwise
        for seed in range(4):
            config = ProtocolConfig(d=d, rounds=rounds, key_seed=0,
                                    eve_registers=eve_registers, seed=seed)
            script = compile_schedule("intercept_resend", config)
            computational = [r - 1 for r, actions in script.rounds.items()
                             if actions == (EveAction.measurement("k"),)]
            report = eve_conditional_states(config, script)
            for (ka, kb), dist in report.pairwise_distances.items():
                differences = {(ka[r] - kb[r]) % d for r in computational}
                assert abs(dist - (len(differences) > 1)) <= 1e-12, (seed, ka, kb)

    @pytest.mark.parametrize("preset", PRESETS + ("measure_k",))
    @pytest.mark.parametrize("d,rounds", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("eve_registers", [1, 2])
    def test_distances_depend_only_on_the_key_difference(self, preset, d, rounds,
                                                         eve_registers):
        # Weyl covariance: a key shift is X^c on k after the encode, and every
        # preset gate and measurement commutes with it up to a fixed unitary on
        # Eve's side or a relabelling of her records
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=0,
                                eve_registers=eve_registers, seed=5)
        if preset == "measure_k":
            script = self._measure_k(rounds)
        else:
            script = compile_schedule(preset, config)
        assert self._difference_spread(eve_conditional_states(config, script)) <= 1e-12

    def test_a_rotated_measurement_breaks_the_covariance(self):
        # the negative control: at d=3, rotating k's |0>, |1> plane by pi/8 before
        # each measurement breaks the covariance; a phase on k would not, since it
        # commutes with X^c up to a global phase
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        rotation = GateSpec.dense(("k",), np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]))
        script = AttackScript({r: (EveAction.apply(rotation), EveAction.measurement("k"))
                               for r in (1, 2)})
        config = ProtocolConfig(d=3, rounds=2, key_seed=0, eve_registers=1)
        assert self._difference_spread(eve_conditional_states(config, script)) > 0.1

    @staticmethod
    def _difference_spread(report):
        """The widest spread of distances among pairs with one key difference."""
        by_difference: dict = {}
        for (ka, kb), dist in report.pairwise_distances.items():
            difference = tuple((a - b) % report.d for a, b in zip(ka, kb))
            by_difference.setdefault(difference, []).append(dist)
        return max(max(v) - min(v) for v in by_difference.values())

    def test_distances_stack_only_the_holders_of_a_record(self):
        # 125 dicts, each holding 5 of 125 records of 25 x 25 blocks: one
        # zero-filled (dicts x records x 25 x 25) stack would take 156 MB
        n, m = 125, 25
        rng = np.random.default_rng(0)
        block_dicts = []
        for _ in range(n):
            blocks = {}
            for record in rng.choice(n, size=5, replace=False):
                half = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                blocks[int(record)] = half + half.conj().T
            block_dicts.append(blocks)
        ia, ib = np.triu_indices(n, 1)
        tracemalloc.start()
        try:
            distances = adversary._distances(block_dicts, ia, ib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * adversary._CHUNK_BYTES
        for p in range(0, len(ia), 97):
            a, b = block_dicts[ia[p]], block_dicts[ib[p]]
            reference = 0.5 * sum(
                np.abs(np.linalg.eigvalsh(a.get(rec, 0) - b.get(rec, 0))).sum()
                for rec in sorted(set(a) | set(b)))
            assert distances[p] == reference


class TestWireFormat:
    @pytest.mark.parametrize("gate", [
        GateSpec.shift("e", 2),
        GateSpec.controlled_add("k", "e", 1),
        GateSpec.phase("k", 1),
        GateSpec.fourier("k"),
    ])
    def test_gate_objects_roundtrip(self, gate):
        obj = gate_to_obj(gate)
        back = gate_from_obj(obj)
        assert gate_to_obj(back) == obj

    def test_dense_gate_roundtrips_through_pairs(self):
        gate = GateSpec.dense(("k",), np.array([[0, 1], [1, 0]], dtype=complex))
        obj = gate_to_obj(gate)
        back = gate_from_obj(obj)
        assert back.kind == "dense"
        assert np.allclose(back.matrix, gate.matrix)
        assert gate_to_obj(back) == obj

    def test_script_roundtrip_for_presets(self):
        config = ProtocolConfig(d=3, rounds=5, key_seed=0, seed=3)
        for preset in ("persistent_entangle", "reply_odd_stop_restart",
                       "intercept_resend"):
            script = compile_schedule(preset, config)
            obj = script_to_obj(script)
            assert script_to_obj(script_from_obj(obj)) == obj

    def test_script_wire_example(self):
        obj = {"rounds": {"1": [
            {"op": "cadd", "control": "k", "target": "e", "s": 1, "timing": "pre_bob"},
        ]}}
        script = script_from_obj(obj)
        action = script.rounds[1][0]
        assert action.gate.kind == "cadd"
        assert action.gate.control == "k"
        assert action.timing == "pre_bob"

    @pytest.mark.parametrize("bad", [
        {"op": "teleport", "target": "k"},
        {"op": "cadd", "control": "k", "s": 1},
        {"op": "measure"},
        {"op": "dense", "targets": ["k"], "matrix": [[1]]},
    ])
    def test_malformed_actions_rejected(self, bad):
        with pytest.raises(ConfigError):
            script_from_obj({"rounds": {"1": [bad]}})

    def test_script_needs_rounds_key(self):
        with pytest.raises(ConfigError):
            script_from_obj({"schedule": {}})
        with pytest.raises(ConfigError):
            script_from_obj({"rounds": {}, "extra": 1})

    def test_round_keys_must_be_integers(self):
        with pytest.raises(ConfigError):
            script_from_obj({"rounds": {"first": []}})

"""Eavesdropper actions, schedules, and what her records actually reveal."""

import json
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
    TIMINGS,
    AttackScript,
    EveAction,
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

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


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

    def test_presets_build_each_action_once(self):
        config = ProtocolConfig(d=3, rounds=40, key_seed=0, seed=5)
        reply = compile_schedule("reply_odd_stop_restart", config)
        assert len({id(a) for actions in reply.rounds.values() for a in actions}) == 2
        intercept = compile_schedule("intercept_resend", config)
        # one measurement plus the two basis rotations, shared by every round
        assert len({id(a) for actions in intercept.rounds.values() for a in actions}) == 3

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

    @pytest.mark.parametrize("rounds", [1, 2, 3, 7, 100, 401])
    def test_intercept_bases_are_one_draw_per_round(self, rounds):
        # compile_schedule draws every basis in one rng.integers(2, size=rounds) call; numpy
        # spends one 32-bit word on each bounded draw, so that is the per-round loop's bases
        # and generator end state
        for seed in range(40):
            config = ProtocolConfig(d=3, rounds=rounds, key_seed=0, seed=seed)
            loop = np.random.default_rng([adversary._BASIS_STREAM, seed])
            bases = [int(loop.integers(2)) for _ in range(rounds)]
            script = compile_schedule("intercept_resend", config)
            assert [len(script.rounds[r]) for r in range(1, rounds + 1)] == [
                3 if basis else 1 for basis in bases]
            batch = np.random.default_rng([adversary._BASIS_STREAM, seed])
            assert batch.integers(2, size=rounds).tolist() == bases
            assert batch.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("preset", PRESETS + ("custom",))
    def test_slots_are_split_once_per_action_tuple(self, preset):
        # actions(r, timing) is the per-round filter, and rounds that share an action
        # tuple share its slots
        config = ProtocolConfig(d=3, rounds=40, key_seed=0, seed=5)
        if preset == "custom":
            tap = EveAction.apply(GateSpec.controlled_add("k", "e", 1))
            late = EveAction.measurement("e", "post_decode")
            shared = (tap, late, tap)
            script = AttackScript({1: shared, 2: (late,), 4: shared, "7": [tap, late],
                                   9: [tap, late], 11: ()})
        else:
            script = compile_schedule(preset, config)
        tuples = {id(actions) for actions in script.rounds.values()}
        for r in range(config.rounds + 2):
            for timing in TIMINGS:
                assert script.actions(r, timing) == tuple(
                    a for a in script.rounds.get(r, ()) if a.timing == timing)
        for r, s in product(script.rounds, repeat=2):
            if script.rounds[r] is script.rounds[s]:
                assert all(script.actions(r, t) is script.actions(s, t) for t in TIMINGS)
        assert len({id(script.actions(r, t)) for r in script.rounds
                    for t in TIMINGS}) <= len(TIMINGS) * len(tuples)

    @pytest.mark.parametrize("key", [0, -3, np.int64(0), "0", "-3"])
    def test_round_keys_below_one_are_refused(self, key):
        # plain int keys take a fast path; it keeps the range refusal
        with pytest.raises(ConfigError, match=f"^round indices start at 1, got {int(key)}$"):
            AttackScript({1: (), key: (EveAction.measurement("e"),)})

    def test_unknown_preset(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(0,))
        with pytest.raises(UnknownPreset):
            compile_schedule("clone_everything", config)


class TestApplyScript:
    """The one action interpreter, protocol._Steps.act, on a single sampled row."""

    @staticmethod
    def apply(state, script, timing="pre_bob", seed=0):
        stage = protocol._Steps(np.random.default_rng(seed)).act(
            protocol.Stage.of(state), script.actions(1, timing), 1)
        assert stage.probs.tolist() == [1.0]
        return stage.state(0), stage.records(0)

    def test_empty_script_is_inert(self):
        state = in_transit_state(2, 1)
        out, records = self.apply(state, AttackScript({}))
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert records == ()

    def test_timing_filter(self):
        state = in_transit_state(2, 0)
        script = AttackScript({1: (EveAction.measurement("k", timing="post_decode"),)})
        out, records = self.apply(state, script)
        assert records == ()
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_measurement_leaves_records(self):
        state = in_transit_state(2, 1)
        script = AttackScript({1: (EveAction.measurement("k"), EveAction.measurement("k"))})
        out, records = self.apply(state, script, seed=3)
        # one record per measurement; the second reads the value the first collapsed to
        assert len(records) == 2
        outcome = records[0][2]
        assert records == ((1, "k", outcome), (1, "k", outcome))
        assert out.probabilities("k")[outcome] == pytest.approx(1.0, abs=1e-12)

    def test_memory_only_actions_cannot_shift_the_carrier(self):
        state = in_transit_state(3, 2)
        before = partial_trace(state, {"a", "b"}).entries
        script = AttackScript({1: (
            EveAction.apply(GateSpec.shift("e", 1)),
            EveAction.apply(GateSpec.fourier("e")),
        )})
        out, _ = self.apply(state, script)
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
        # the shapes of the benchmark's exact jobs
        (2, 7, "persistent_entangle", 1),
        (2, 5, "intercept_resend", 1),
        (3, 4, "reply_odd_stop_restart", 2),
        # each representative holds one of d records: most cells one side only
        (3, 3, "difference_leak", 1),
    ])
    def test_walk_equals_the_per_key_definition(self, d, rounds, preset, eve_registers):
        # the definition: one exhaustive session per key tuple, blocks summed by
        # record, and one trace distance per pair, summed record by record
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=3,
                                eve_registers=eve_registers, seed=1)
        if preset == "measure_k":
            script = self._measure_k(rounds)
        elif preset == "difference_leak":
            script = difference_leak_script(d)
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
        # the prefixes of the orbit representatives (q1 = 0) of one length fit one
        # run: the rows of one stage, so each round encodes once, its rows the
        # previous round's once per key value q, as per-row keys: honest rounds keep
        # one row per prefix.  Rerunning a prefix would add rows; looping per prefix
        # or per row would add encodes
        calls = []
        encode = protocol.Stage.encode

        def counting_encode(stage, q):
            calls.append(np.asarray(q).tolist())
            return encode(stage, q)

        monkeypatch.setattr(protocol.Stage, "encode", counting_encode)
        for d, rounds, tuples in [(2, 4, 16), (3, 3, 27)]:
            calls.clear()
            report = eve_conditional_states(ProtocolConfig(d=d, rounds=rounds, key_seed=0))
            assert len(report.blocks) == tuples
            assert calls == [0] + [[q for q in range(d) for _ in range(d ** (r - 2))]
                                   for r in range(2, rounds + 1)]

    def test_kernel_calls_follow_the_prefix_steps_not_the_branches(self, monkeypatch):
        # each stage is one array operation over the rows of every prefix of one
        # length: round r runs its encode gate, its actions, Bob's decode gate and
        # his measurement once each, whatever the prefix and branch counts, and
        # one leaf trace takes every row: every prefix fits one run
        config = ProtocolConfig(d=2, rounds=6, key_seed=0, seed=0)
        script = compile_schedule("intercept_resend", config)
        calls = {"gate": 0, "born": 0, "leaf": 0}
        leaf_rows = []

        def counting(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        def leaf(amps, fold):
            leaf_rows.append(len(amps))
            return reduced(amps, fold)

        reduced = adversary._reduced
        monkeypatch.setattr(protocol, "_gated", counting("gate", protocol._gated))
        monkeypatch.setattr(protocol, "_outcomes", counting("born", protocol._outcomes))
        monkeypatch.setattr(adversary, "_reduced", counting("leaf", leaf))
        eve_conditional_states(config, script)
        gates = borns = 0
        for r in range(1, config.rounds + 1):
            actions = script.actions(r, "pre_bob") + script.actions(r, "post_decode")
            gates += 2 + sum(a.gate is not None for a in actions)
            borns += 1 + sum(a.measure is not None for a in actions)
        assert calls == {"gate": gates, "born": borns, "leaf": 1}
        # the leaf's rows are every representative's branches, each run once
        monkeypatch.undo()
        branches = [len(run_session_branches(replace(config, keys=keys, key_seed=None), script))
                    for keys in product(range(2), repeat=6) if keys[0] == 0]
        assert leaf_rows == [sum(branches)] and max(branches) >= 2 ** 3

    def test_a_capped_frontier_runs_in_runs_of_whole_prefixes(self, monkeypatch):
        # at BRANCH_CAP = the largest branch count of one key tuple the stacked
        # prefixes no longer fit one stage: depths split into runs of whole
        # prefixes, no stage event exceeds the cap, and the report keeps its bits
        config = ProtocolConfig(d=2, rounds=5, key_seed=0, seed=3)
        script = compile_schedule("intercept_resend", config)
        uncapped = eve_conditional_states(config, script)
        cap = max(len(run_session_branches(replace(config, keys=keys, key_seed=None), script))
                  for keys in product(range(2), repeat=5))
        runs, rows = {}, []
        loop = protocol._round_loop

        def counting_loop(stage, keys, first_round, *rest):
            # the first outcome column holds each row's key prefix
            runs.setdefault(first_round, []).append(set(stage.outcomes[:, 0].tolist()))
            for event in loop(stage, keys, first_round, *rest):
                rows.append(len(event[3].probs))
                yield event

        monkeypatch.setattr(protocol, "_round_loop", counting_loop)
        monkeypatch.setattr(protocol, "BRANCH_CAP", cap)
        report = eve_conditional_states(config, script)
        assert len(runs[1]) == 1 and max(len(prefixes) for prefixes in runs.values()) > 1
        for r, prefixes in runs.items():  # no prefix is split between runs
            assert sum(map(len, prefixes)) == len(set().union(*prefixes)) == 2 ** (r - 1)
        assert max(rows) <= cap
        assert list(report.blocks) == list(uncapped.blocks)
        for keys, blocks in uncapped.blocks.items():
            assert list(report.blocks[keys]) == list(blocks)
            for record, block in blocks.items():
                assert np.array_equal(report.blocks[keys][record], block)
            assert np.array_equal(report.states[keys].entries, uncapped.states[keys].entries)
        assert report.pairwise_distances == uncapped.pairwise_distances

    def test_the_walk_holds_a_few_runs_not_a_whole_depth(self, monkeypatch):
        # a Fourier on k every round doubles every branch at Bob's unrecorded
        # decode, so the 2^6 representatives of d=2, R=7 end with 2^7 rows each
        # and one record.  Depth first over runs, here of at most 512 encoded
        # amplitudes, the walk holds about R d runs at once, far less than the
        # last depth's rows, which a walk holding a whole prefix length would keep
        config = ProtocolConfig(d=2, rounds=7, key_seed=0, eve_registers=2)
        script = AttackScript({r: (EveAction.apply(GateSpec.fourier("k")),)
                               for r in range(1, 8)})
        monkeypatch.setattr(protocol, "BRANCH_CAP", 512)
        leaf_bytes, peaks = [], []
        blocks = adversary._blocks

        def leaf(stage, eve_regs):
            leaf_bytes.append(stage.amps.nbytes)
            out = blocks(stage, eve_regs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        eve_conditional_states(config, script)  # caches filled before tracing
        monkeypatch.setattr(adversary, "_blocks", leaf)
        tracemalloc.start()
        try:
            report = eve_conditional_states(config, script)
        finally:
            tracemalloc.stop()
        assert all(len(blocks) == 1 for blocks in report.blocks.values())
        assert sum(leaf_bytes) == 2 ** 6 * 2 ** 7 * 16 * 2 ** 4  # a, b and two e
        assert max(peaks) < sum(leaf_bytes) / 4

    def test_pair_cap_refuses_before_any_encode(self, monkeypatch):
        # d=2, R=12: 4,096 key tuples make 8,386,560 pairs
        calls = []
        monkeypatch.setattr(protocol.Stage, "encode", lambda stage, q: calls.append(q))
        with pytest.raises(ExplosionGuard, match="pairs"):
            eve_conditional_states(ProtocolConfig(d=2, rounds=12, key_seed=0))
        assert calls == []

    def test_pair_cap_refuses_a_key_space_too_large_to_print(self):
        # 2^20000 has more digits than int-to-str conversion allows
        with pytest.raises(ExplosionGuard, match=r"2\^20000"):
            eve_conditional_states(ProtocolConfig(d=2, rounds=20_000, key_seed=0))

    def test_pair_cap_admits_up_to_its_bound(self, monkeypatch):
        # the cap counts pairs, d^R (d^R - 1) / 2: at 2,048 key tuples the walk starts
        class Started(Exception):
            pass

        def start(config):
            raise Started

        monkeypatch.setattr(protocol, "_start", start)
        for rounds in (8, 11):
            with pytest.raises(Started):
                eve_conditional_states(ProtocolConfig(d=2, rounds=rounds, key_seed=0))
        config = ProtocolConfig(d=2, rounds=2, key_seed=0)
        monkeypatch.setattr(adversary, "PAIR_CAP", 6)
        with pytest.raises(Started):
            eve_conditional_states(config)
        monkeypatch.setattr(adversary, "PAIR_CAP", 5)
        with pytest.raises(ExplosionGuard):
            eve_conditional_states(config)

    def test_post_decode_action_on_k_refused_before_any_encode(self, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol.Stage, "encode", lambda stage, q: calls.append(q))
        script = AttackScript({3: (EveAction.measurement("k", timing="post_decode"),)})
        with pytest.raises(ScriptRegisterUnknown, match="post_decode"):
            eve_conditional_states(ProtocolConfig(d=2, rounds=3, key_seed=0), script)
        assert calls == []

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
            for *head, stage, decoded in loop(*args):
                if len(stage.probs) > 1:
                    stage = stage._replace(amps=stage.amps[1:], probs=stage.probs[1:],
                                           outcomes=stage.outcomes[1:])
                yield (*head, stage, decoded)

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
            distances = adversary._distances(block_dicts)[ia, ib]
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

    @pytest.mark.parametrize("chunk_bytes", [1, adversary._CHUNK_BYTES])
    def test_distance_table_holds_every_ordered_pair(self, chunk_bytes, monkeypatch):
        # diagonal included; records held by every dict, by some and by one, and
        # dicts that lack records others hold
        monkeypatch.setattr(adversary, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(4)
        block_dicts = []
        for i in range(7):
            blocks = {}
            for record in [("all",)] + [("some", int(r)) for r in rng.choice(5, i % 4)]:
                half = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                blocks[record] = half + half.conj().T
            block_dicts.append(blocks)
        block_dicts[3][("one",)] = np.eye(3, dtype=complex)
        table = adversary._distances(block_dicts)
        assert table.shape == (7, 7)
        for (i, a), (j, b) in product(enumerate(block_dicts), repeat=2):
            reference = 0.5 * sum(
                np.abs(np.linalg.eigvalsh(a.get(rec, 0) - b.get(rec, 0))).sum()
                for rec in sorted(set(a) | set(b)))
            assert table[i, j] == reference, (i, j)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_key_pairs_read_every_cell_of_the_table(self, d, rounds, monkeypatch):
        # q < q' with q1 = 0 < q1' = 1 reaches any pair of representatives
        # (q2 - q1, ...), so the report's max is the table's max
        n = d ** (rounds - 1)
        monkeypatch.setattr(adversary, "_distances",
                            lambda block_dicts: np.arange(n * n, dtype=float).reshape(n, n))
        report = eve_conditional_states(ProtocolConfig(d=d, rounds=rounds, key_seed=0))

        def rep(keys):
            return sum((q - keys[0]) % d * d ** i for i, q in enumerate(reversed(keys[1:])))

        for (ka, kb), cell in report.pairwise_distances.items():
            assert cell == rep(ka) * n + rep(kb)
        assert set(report.pairwise_distances.values()) == set(range(n * n))
        assert report.max_pairwise_distance == n * n - 1

    def test_an_orbit_shares_read_only_blocks(self):
        config = ProtocolConfig(d=2, rounds=2, key_seed=0)
        report = eve_conditional_states(config, self._measure_k(2))
        assert report.blocks[(0, 1)] is not report.blocks[(1, 0)]
        assert report.states[(0, 1)] is report.states[(1, 0)]
        for record, block in report.blocks[(0, 1)].items():
            assert report.blocks[(1, 0)][record] is block
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def definition_blocks(config, script, keys):
    """Eve's blocks for one key tuple, from one exhaustive session of its own."""
    eve_regs = protocol.eve_register_labels(config.eve_registers)
    blocks = {}
    for branch in run_session_branches(replace(config, keys=keys, key_seed=None), script):
        if eve_regs:
            rho = partial_trace(branch.state, eve_regs).entries * branch.probability
        else:
            rho = np.array([[branch.probability]], dtype=complex)
        blocks[branch.eve_records] = blocks.get(branch.eve_records, 0) + rho
    return blocks


def trace_distance(a, b):
    return 0.5 * sum(np.abs(np.linalg.eigvalsh(a.get(rec, 0) - b.get(rec, 0))).sum()
                     for rec in sorted(set(a) | set(b)))


class TestCarrierShift:
    """Eve's view of q + c (1, ..., 1) is her view of q, for every script.

    These tests build each key tuple's blocks by the per-key definition, not
    by the key walk that relies on the symmetry."""

    @staticmethod
    def _random_script(d, rounds, eve_registers, rng):
        # each round a Haar-random gate on k and one of her registers, then a
        # measurement of k, before Bob; after his decode a Haar-random gate on
        # that register, then, in even rounds, a measurement of e
        eve = protocol.eve_register_labels(eve_registers)
        script = {}
        for r in range(1, rounds + 1):
            memory = eve[rng.integers(len(eve))]
            script[r] = (
                EveAction.apply(GateSpec.dense(("k", memory), haar_unitary(d * d, rng))),
                EveAction.measurement("k"),
                EveAction.apply(GateSpec.dense((memory,), haar_unitary(d, rng)),
                                "post_decode"),
            ) + (EveAction.measurement("e", "post_decode"),) * (r % 2 == 0)
        return AttackScript(script)

    @pytest.mark.parametrize("d,rounds,eve_registers", [
        (2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 2, 1), (3, 2, 2)])
    def test_random_scripts(self, d, rounds, eve_registers):
        rng = np.random.default_rng([d, rounds, eve_registers])
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=0, eve_registers=eve_registers)
        script = self._random_script(d, rounds, eve_registers, rng)
        tuples = list(product(range(d), repeat=rounds))
        blocks = {keys: definition_blocks(config, script, keys) for keys in tuples}
        assert len(blocks[(0,) * rounds]) > 1  # her records do vary
        for keys in tuples:
            for c in range(1, d):
                shifted = blocks[tuple((q + c) % d for q in keys)]
                assert list(shifted) == list(blocks[keys])
                for record, block in blocks[keys].items():
                    assert np.max(np.abs(shifted[record] - block)) <= 1e-15
                assert trace_distance(blocks[keys], shifted) <= 1e-15
        for r in range(rounds):
            marginals = []
            for v in range(d):
                group = [keys for keys in tuples if keys[r] == v]
                merged = {}
                for keys in group:
                    for record, block in blocks[keys].items():
                        merged[record] = merged.get(record, 0) + block / len(group)
                marginals.append(merged)
            for i in range(d):
                for j in range(i + 1, d):
                    assert trace_distance(marginals[i], marginals[j]) <= 1e-15


def difference_leak_script(d):
    """Eve adds k into e in round 1, subtracts it in round 2, then reads e."""
    return AttackScript({
        1: (EveAction.apply(GateSpec.controlled_add("k", "e", 1)),),
        2: (EveAction.apply(GateSpec.controlled_add("k", "e", d - 1)),
            EveAction.measurement("e", "post_decode")),
    })


class TestDifferenceLeak:
    """Two rounds through her memory leave Eve holding q1 - q2 mod d, and Bob
    decodes every round correctly, so the control rounds see nothing."""

    def test_bundled_scenario_runs_this_script(self):
        scenario = json.loads((REPO / "scenarios" / "difference_leak_d3.json").read_text())
        assert script_from_obj(scenario["attack"]["script"]) == difference_leak_script(3)
        assert scenario["control_rounds"] == list(range(1, scenario["rounds"] + 1))

    @pytest.mark.parametrize("d,rounds", [(2, 5), (3, 2), (3, 4)])
    def test_eve_learns_exactly_the_first_key_difference(self, d, rounds):
        config = ProtocolConfig(d=d, rounds=rounds, key_seed=0,
                                control_rounds=frozenset(range(1, rounds + 1)))
        script = difference_leak_script(d)
        report = eve_conditional_states(config, script)
        for (ka, kb), dist in report.pairwise_distances.items():
            differs = (ka[0] - ka[1]) % d != (kb[0] - kb[1]) % d
            assert abs(dist - differs) <= 1e-12, (ka, kb)
        for keys, blocks in report.blocks.items():
            assert list(blocks) == [((2, "e", (keys[0] - keys[1]) % d),)]
            transcripts = run_session(replace(config, keys=keys, key_seed=None), script)
            assert protocol.control_check(transcripts, config.control_rounds).mismatches == 0
            assert transcripts[1].eve_records == ((2, "e", (keys[0] - keys[1]) % d),)


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

    @pytest.mark.parametrize("key", [1.7, 1.0, True, None, (1,)])
    def test_round_keys_are_not_truncated(self, key):
        # a library caller's 1.7 once ran as round 1
        with pytest.raises(ConfigError, match="not an integer"):
            AttackScript({key: (EveAction.measurement("e"),)})

    def test_dense_targets_must_be_a_list(self):
        # the string "ke" once ran on ("k", "e")
        obj = gate_to_obj(GateSpec.dense(("k", "e"), np.eye(4)))
        assert gate_from_obj(obj).targets == ("k", "e")
        for targets in ("ke", ["k", 1], {"k": 0, "e": 1}):
            with pytest.raises(ConfigError, match="dense"):
                gate_from_obj({**obj, "targets": targets})

    @pytest.mark.parametrize("entry", [True, False, "1", None, [1]])
    def test_dense_entries_must_be_json_numbers(self, entry):
        # [true, 0] once became 1+0j
        obj = gate_to_obj(GateSpec.dense(("k",), np.eye(2)))
        assert gate_from_obj(obj).matrix.tolist() == [[1, 0], [0, 1]]
        obj["matrix"][0][0] = [entry, 0]
        with pytest.raises(ConfigError, match="dense"):
            gate_from_obj(obj)
        obj["matrix"][0][0] = [1, entry]
        with pytest.raises(ConfigError, match="dense"):
            gate_from_obj(obj)

    @pytest.mark.parametrize("other", ["01", " 1", "+1"])
    def test_two_keys_for_one_round_are_refused(self, other):
        measure = {"op": "measure", "register": "e"}
        shift = {"op": "shift", "target": "e", "s": 1}
        with pytest.raises(ConfigError, match="both name round 1"):
            script_from_obj({"rounds": {"1": [measure], other: [shift]}})
        with pytest.raises(ConfigError, match="both name round 1"):
            AttackScript({1: (EveAction.measurement("e"),), other: ()})

    def test_actions_by_slot(self):
        tap = EveAction.apply(GateSpec.controlled_add("k", "e", 1))
        late = EveAction.measurement("e", "post_decode")
        script = AttackScript({2: (tap, late, tap)})
        assert script.actions(2, "pre_bob") == (tap, tap)
        assert script.actions(2, "post_decode") == (late,)
        assert script.actions(1, "pre_bob") == ()
        assert script.actions(3, "post_decode") == ()

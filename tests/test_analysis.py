"""Diagnostics and the exit-sequence search, checked against golden files."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qkdsim import analysis, protocol, qudit
from qkdsim.analysis import (
    FeasibilityReport,
    RoundTemplate,
    default_gate_family,
    diagnose,
    feasibility_search,
    get_template,
    render_report,
    verify_candidate,
)
from qkdsim.errors import (
    ConfigError,
    ExplosionGuard,
    FamilyTooLarge,
    IllegalRegisterAccess,
    InvalidDimension,
    InvariantViolation,
    NonUnitaryMatrix,
)
from qkdsim.protocol import ProtocolConfig, alice_encode, init_carrier, run_session
from qkdsim.adversary import compile_schedule
from qkdsim.qudit import (
    GateSpec,
    PureState,
    RegisterLayout,
    apply_gate,
    insert_register,
    partial_trace,
    schmidt_rank,
    von_neumann_entropy,
)

DATA = Path(__file__).parent / "data"


def family_size(d, depth):
    return sum((3 * (d - 1)) ** level for level in range(depth + 1))


def product_template():
    """Template whose memory is already released: sum_j |j,j,j+q>|0>/sqrt(d)."""

    def rows(d, keys):
        layout = RegisterLayout(d, ("a", "b", "k", "e"))
        amps = np.zeros((len(keys), layout.dim), dtype=complex)
        for row, (q,) in enumerate(keys.tolist()):
            for j in range(d):
                amps[row, layout.index_of((j, j, (j + q) % d, 0))] = 1 / np.sqrt(d)
        return layout, amps

    return RoundTemplate("already_product", 1, rows)


def in_transit(d, keys):
    """The closed form of both search templates: sum_j |j, j, j + last key,
    j + first key> / sqrt(d) over (a, b, k, e)."""
    layout = RegisterLayout(d, ("a", "b", "k", "e"))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for j in range(d):
        amps[layout.index_of((j, j, (j + keys[-1]) % d, (j + keys[0]) % d))] = 1.0 / np.sqrt(d)
    return amps


def counting_rows(base):
    """(template over base's rows, the key arrays it was asked for)."""
    asked = []

    def rows(d, keys):
        asked.append(keys)
        return base.rows(d, keys)

    return RoundTemplate("counting", base.key_arity, rows), asked


def sequences(d, depth):
    """default_gate_family sequences in the search's order: shortest first, then product."""
    family = default_gate_family(d)
    for level in range(depth + 1):
        yield from product(family, repeat=level)


def affine_map(sequence, d):
    """The sequence as (k, e) -> M (k, e) + t over Z_d, its first gate applied first."""
    m, t = np.eye(2, dtype=int), np.zeros(2, dtype=int)
    for gate in sequence:
        g, u = np.eye(2, dtype=int), np.zeros(2, dtype=int)
        if gate.kind == "shift":
            assert gate.targets == ("e",)
            u[1] = gate.s  # e += s
        elif gate.control == "k":
            g[1, 0] = gate.s  # e += s k
        else:
            g[0, 1] = gate.s  # k += s e
        m, t = g @ m % d, (g @ t + u) % d
    return m, t


def affine_exits(template_id, d, depth):
    """The exits and their residuals by modular algebra alone.

    Both templates hold k and e at carrier-shifted key values (j + q), so a
    map is an exit when e loses j and Bob's k - j is the last key.
    """
    exits = []
    for sequence in sequences(d, depth):
        ((m11, m12), (m21, m22)), (tk, te) = affine_map(sequence, d)
        if template_id == "stage5_round1":
            ok = (m21 + m22) % d == 0 and (m11 + m12) % d == 1 and tk == 0
            residuals = {(q1,): int(te) for q1 in range(d)}
        else:
            ok = m11 == 1 and m12 == 0 and (m21 + m22) % d == 0 and tk == 0
            residuals = {(q1, q2): int((m22 * (q1 - q2) + te) % d)
                         for q1, q2 in product(range(d), repeat=2)}
        if ok:
            exits.append((sequence, list(residuals.items())))
    return exits


class TestDiagnose:
    def test_post_encode_spectrum_and_cuts(self):
        state = alice_encode(init_carrier(3), 1)
        state = insert_register(state, "e", 0, 3)
        diag = diagnose(state, 1, "post_encode")
        assert diag.rho_k_spectrum == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        assert abs(diag.entropy_k - 1.0) <= 1e-10
        # the e|ab cut cannot partition a layout that still contains k
        assert set(diag.schmidt_ranks) == {"e|abk", "a|bke"}
        assert diag.schmidt_ranks["e|abk"] == 1
        assert diag.schmidt_ranks["a|bke"] == 3
        assert diag.decode_ok is None

    def test_without_memory_registers_only_matching_cuts_appear(self):
        state = alice_encode(init_carrier(3), 0)
        diag = diagnose(state, 1, "post_encode")
        assert set(diag.schmidt_ranks) == {"a|bke"}

    def test_after_decode_the_key_cut_disappears(self):
        config = ProtocolConfig(d=2, rounds=1, keys=(1,))
        transcript = run_session(config, diagnostics=("round_end",))[0]
        diag = transcript.diagnostics["round_end"]
        assert diag.rho_k_spectrum is None
        assert diag.entropy_k is None
        assert set(diag.schmidt_ranks) == {"e|ab"}
        assert diag.schmidt_ranks["e|ab"] == 1
        assert diag.decode_ok is True

    def test_persistent_attack_shows_in_the_memory_cut(self):
        config = ProtocolConfig(d=3, rounds=1, keys=(2,))
        script = compile_schedule("persistent_entangle", config)
        transcript = run_session(config, script, diagnostics=("round_end",))[0]
        assert transcript.diagnostics["round_end"].schmidt_ranks["e|ab"] == 3

    def test_decomposes_rho_k_once(self, monkeypatch):
        # a random unitary on (k, e) after the encode: an uneven spectrum
        matrix, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(9, 9, 2)) @ [1, 1j])
        state = insert_register(alice_encode(init_carrier(3), 1), "e", 0, 3)
        state = apply_gate(state, GateSpec.dense(("k", "e"), matrix))
        rho_k = partial_trace(state, {"k"})
        spectrum = tuple(float(x) for x in rho_k.spectrum())
        entropy = von_neumann_entropy(rho_k)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrix):
            calls.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        diag = diagnose(state, 1, "post_attack")
        assert calls == [(3, 3)]
        # the same bits as the two separate decompositions
        assert diag.rho_k_spectrum == spectrum
        assert diag.entropy_k == entropy

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("eve", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_k", [True, False])
    @pytest.mark.parametrize("tol", [1e-7, 1e-10])
    def test_same_bits_as_the_reference_composition(self, d, eve, with_k, tol):
        # seeded dense states; the cached cut plan must give the values of
        # partial_trace, von_neumann_entropy and schmidt_rank, bit for bit
        labels = ("a", "b") + (("k",) if with_k else ()) + ("e", "e2", "e3")[:eve]
        layout = RegisterLayout(d, labels)
        rng = np.random.default_rng([d, eve, with_k])

        def normal(size):
            return rng.normal(size=size) + 1j * rng.normal(size=size)

        for weak in (None, None, 3e-9):
            amps = normal(layout.dim)
            if weak is not None:
                # a product over (a b k) | Eve plus a term whose singular values
                # fall between the two tolerances, so the ranks depend on tol
                eve_dim = d ** eve
                amps = np.outer(normal(layout.dim // eve_dim), normal(eve_dim)).ravel()
                amps += weak * normal(layout.dim)
            state = PureState(layout, amps / np.linalg.norm(amps))
            diag = diagnose(state, 1, "post_attack", tol=tol)
            if with_k:
                rho_k = partial_trace(state, {"k"})
                assert diag.rho_k_spectrum == tuple(float(x) for x in rho_k.spectrum())
                assert diag.entropy_k == von_neumann_entropy(rho_k)
            else:
                assert diag.rho_k_spectrum is None and diag.entropy_k is None
            eve_side = set(labels[2 + with_k:])
            cuts = {"e|abk": (eve_side, {"a", "b", "k"}), "e|ab": (eve_side, {"a", "b"}),
                    "a|bke": ({"a"}, {"b", "k"} | eve_side)}
            expected = {name: schmidt_rank(state, side_a, tol)
                        for name, (side_a, side_b) in cuts.items()
                        if side_a and side_a | side_b == set(labels)}
            assert diag.schmidt_ranks == expected
            assert list(diag.schmidt_ranks) == list(expected)

    def test_json_form(self):
        state = alice_encode(init_carrier(2), 0)
        doc = diagnose(state, 4, "post_encode", decode_ok=True).to_json_dict()
        assert doc["round"] == 4
        assert doc["stage"] == "post_encode"
        assert doc["decode_ok"] is True
        assert doc["rho_k_spectrum"] == pytest.approx([0.5, 0.5], abs=1e-12)


class TestTemplates:
    """Both templates are moments of the round loop, equal to their closed form
    bit for bit: Bob's honest round-1 decode must leave the amplitudes untouched."""

    DS = (2, 3, 4, 5, 7)

    @staticmethod
    def check_row(template_id, d, key):
        template = get_template(template_id)
        keys = tuple(product(range(d), repeat=template.key_arity))
        layout, amps = template.rows(d, np.array(keys))
        assert layout == RegisterLayout(d, ("a", "b", "k", "e"))
        row, expected = amps[keys.index(key)], in_transit(d, key)
        assert (row == expected).all() and row.tobytes() == expected.tobytes()
        state = template.build(d, key)
        assert state.layout == layout and state.amplitudes.tobytes() == row.tobytes()

    @pytest.mark.parametrize("d,q1", [(d, q1) for d in DS for q1 in range(d)])
    def test_exit_window_state(self, d, q1):
        self.check_row("stage5_round1", d, (q1,))

    @pytest.mark.parametrize("d,q1,q2", [(d, *key) for d in DS
                                         for key in product(range(d), repeat=2)])
    def test_stale_memory_state(self, d, q1, q2):
        assert get_template("post_round1_round2").key_arity == 2
        self.check_row("post_round1_round2", d, (q1, q2))

    def test_unknown_template(self):
        with pytest.raises(ConfigError):
            get_template("round_9000")


class TestGateFamily:
    @pytest.mark.parametrize("d,expected", [(2, 3), (3, 6), (5, 12)])
    def test_size(self, d, expected):
        family = default_gate_family(d)
        assert len(family) == expected

    def test_contains_no_identities(self):
        for gate in default_gate_family(4):
            assert gate.s % 4 != 0

    def test_members_touch_only_k_and_e(self):
        for gate in default_gate_family(3):
            assert set(gate.registers) <= {"k", "e"}


class TestSearch:
    @pytest.mark.parametrize("d", [2, 3])
    def test_known_reversal_is_found(self, d):
        report = feasibility_search("stage5_round1", d, max_depth=1)
        assert report.enumeration_count == family_size(d, 1)
        assert len(report.candidates) == 1
        (candidate,) = report.candidates
        (gate,) = candidate.sequence
        assert (gate.kind, gate.control, gate.targets[0], gate.s) == ("cadd", "k", "e", d - 1)
        assert candidate.residual_expression == f"0 (mod {d})"

    def test_product_template_needs_no_gates(self):
        report = feasibility_search(product_template(), 2, max_depth=1)
        sequences = [c.sequence for c in report.candidates]
        assert () in sequences

    @pytest.mark.parametrize("d", [2, 3])
    def test_stale_memory_report_matches_golden(self, d):
        report = feasibility_search("post_round1_round2", d, max_depth=1)
        golden = (DATA / f"feasibility_post_round1_round2_d{d}_depth1.json").read_text()
        assert render_report(report) == golden

    def test_stale_memory_exit_shape(self):
        report = feasibility_search("post_round1_round2", 3, max_depth=1)
        assert len(report.candidates) == 1
        (candidate,) = report.candidates
        assert candidate.residual_expression == "q1 + 2*q2 (mod 3)"
        values = {tuple(x["keys"]): x["value"]
                  for x in candidate.to_json_dict()["residual_values"]}
        for (q1, q2), value in values.items():
            assert value == (q1 - q2) % 3

    @pytest.mark.parametrize("d,depth", [(2, 0), (2, 2), (2, 3), (3, 2)])
    def test_enumeration_matches_closed_form(self, d, depth):
        report = feasibility_search("stage5_round1", d, max_depth=depth)
        assert report.enumeration_count == family_size(d, depth)
        assert report.exhaustive

    def test_every_candidate_reverifies_densely(self):
        report = feasibility_search("stage5_round1", 2, max_depth=2)
        assert report.candidates
        for candidate in report.candidates:
            verdict = verify_candidate("stage5_round1", 2, candidate.sequence)
            assert verdict.verified

    def test_empty_family_finds_nothing_on_entangled_input(self):
        report = feasibility_search("stage5_round1", 3, max_depth=3, family=())
        assert report.candidates == ()
        assert report.enumeration_count == 1
        assert report.exhaustive

    def test_depth_cap(self):
        with pytest.raises(ConfigError):
            feasibility_search("stage5_round1", 2, max_depth=4)
        with pytest.raises(ConfigError):
            feasibility_search("stage5_round1", 2, max_depth=-1)

    def test_family_cap(self):
        crowd = tuple(GateSpec.shift("e", 1) for _ in range(101))
        with pytest.raises(FamilyTooLarge):
            feasibility_search("stage5_round1", 2, max_depth=3, family=crowd)

    def test_family_off_k_and_e_refused_before_any_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "_evidence",
                            lambda *args, **kwargs: calls.append(args))
        family = (GateSpec.controlled_add("k", "e", 1), GateSpec.phase("a", 1))
        with pytest.raises(IllegalRegisterAccess):
            feasibility_search("stage5_round1", 2, max_depth=2, family=family)
        assert calls == []

    @pytest.mark.parametrize("template_id", ["stage5_round1", "post_round1_round2"])
    @pytest.mark.parametrize("d,depth", [(2, 3), (3, 2)])
    def test_fast_path_and_dense_oracle_agree_on_every_sequence(self, template_id, d, depth):
        report = feasibility_search(template_id, d, max_depth=depth)
        verified = [sequence for sequence in sequences(d, depth)
                    if verify_candidate(template_id, d, sequence).verified]
        assert verified == [c.sequence for c in report.candidates]

    @pytest.mark.parametrize("template_id", ["stage5_round1", "post_round1_round2"])
    @pytest.mark.parametrize("d,depth", [(2, 3), (3, 3), (5, 2)])
    def test_exits_match_the_affine_algebra(self, template_id, d, depth):
        report = feasibility_search(template_id, d, max_depth=depth)
        found = [(c.sequence, list(c.residual_values.items())) for c in report.candidates]
        assert found == affine_exits(template_id, d, depth)

    @pytest.mark.parametrize("template_id,d", [("stage5_round1", 3), ("post_round1_round2", 2)])
    def test_start_states_are_built_once_per_search(self, template_id, d):
        base = get_template(template_id)
        counting, asked = counting_rows(base)
        report = feasibility_search(counting, d, max_depth=2)
        assert report.candidates
        # one rows call per search, shared by the fast path and every dense re-verification
        assert len(asked) == 1
        assert asked[0].tolist() == [list(k) for k in product(range(d), repeat=base.key_arity)]

    def test_each_question_is_asked_once_per_search(self, monkeypatch):
        counting, built = counting_rows(get_template("post_round1_round2"))
        entries, unitaries = [], []
        entry, gate_unitary = analysis._entry, qudit.gate_unitary
        monkeypatch.setattr(analysis, "_entry",
                            lambda *args: entries.append(args) or entry(*args))
        monkeypatch.setattr(qudit, "gate_unitary",
                            lambda *args: unitaries.append(args) or gate_unitary(*args))
        report = feasibility_search(counting, 3, max_depth=3)
        assert len(report.candidates) == 31
        assert len(entries) == 1
        assert len(built) == 1
        # the dense oracle lowers each gate its candidates use, and Bob's decode,
        # once per search
        used = {gate for c in report.candidates for gate in c.sequence} | {protocol._DECODE}
        assert Counter(gate for gate, _ in unitaries) == Counter(used)
        assert len(unitaries) == 7

    def test_a_faulty_table_kernel_is_caught_by_the_dense_oracle(self, monkeypatch):
        gate_table = qudit._gate_table

        def faulty(layout, kind, control, target, s):
            # shift(e, s) runs as cadd(k->e, s), the exit at d = 2
            if kind == "shift" and target == "e":
                return gate_table(layout, "cadd", "k", "e", s)
            return gate_table(layout, kind, control, target, s)

        monkeypatch.setattr(qudit, "_gate_table", faulty)
        with pytest.raises(InvariantViolation, match="dense oracle rejects"):
            feasibility_search("stage5_round1", 2, max_depth=1)

    def test_a_rejected_sequence_stops_at_its_first_failing_key(self, monkeypatch):
        ranked = []
        ranks = analysis._ranks

        def counting_ranks(amps, fold, tol):
            out = ranks(amps, fold, tol)
            ranked.append((len(amps), out.tolist()))
            return out

        monkeypatch.setattr(analysis, "_ranks", counting_ranks)
        # the empty sequence leaves e entangled for every key, so key 0's row decides
        report = feasibility_search("stage5_round1", 3, max_depth=0)
        assert report.candidates == ()
        assert ranked == [(1, [3])]

    def test_key_space_cap(self):
        with pytest.raises(ExplosionGuard):
            feasibility_search("post_round1_round2", 101, max_depth=0)

    @pytest.mark.parametrize("template_id", ["stage5_round1", "post_round1_round2"])
    def test_state_cap_refuses_before_any_template_state_is_built(self, template_id,
                                                                  monkeypatch):
        class Built(Exception):
            pass

        def rows(d, keys):
            raise Built(d)

        monkeypatch.setitem(analysis.TEMPLATES, template_id,
                            replace(get_template(template_id), rows=rows))
        # 45^4 amplitudes fit under protocol.STATE_CAP = 2^22, 46^4 do not
        for search in (lambda d: feasibility_search(template_id, d, max_depth=0),
                       lambda d: verify_candidate(template_id, d, ())):
            with pytest.raises(Built):
                search(45)
            for d in (46, 100):
                with pytest.raises(ExplosionGuard, match=rf"{d}\^4 amplitudes exceeds 4194304"):
                    search(d)

    def test_exit_to_a_non_basis_memory_has_no_residual(self):
        # at d = 2 cadd(k->e, 1) clears e to |0> and fourier turns it into |+>:
        # an exit whose memory is product but holds no single value
        family = (GateSpec.controlled_add("k", "e", 1), GateSpec.fourier("e"))
        report = feasibility_search("stage5_round1", 2, max_depth=2, family=family)
        [candidate] = [c for c in report.candidates if c.sequence == family]
        assert candidate.residual_expression is None
        assert candidate.residual_values == {(0,): None, (1,): None}
        doc = candidate.to_json_dict()
        assert doc["residual_expression"] is None
        assert [v["value"] for v in doc["residual_values"]] == [None, None]
        assert verify_candidate("stage5_round1", 2, family).verified


class TestVerifyCandidate:
    def test_identity_on_entangled_input_fails_the_rank_condition(self):
        verdict = verify_candidate("stage5_round1", 3, ())
        assert not verdict.verified
        assert all(ev.rank_e == 3 for ev in verdict.evidence)

    def test_key_shift_fails_the_decode_condition(self):
        sequence = (GateSpec.controlled_add("k", "e", 1), GateSpec.shift("k", 1))
        verdict = verify_candidate("stage5_round1", 2, sequence)
        assert not verdict.verified
        for ev in verdict.evidence:
            assert ev.rank_e == 1
            assert ev.deterministic
            assert ev.bob_outcome == (ev.keys[0] + 1) % 2
            assert not ev.ok

    def test_reversal_verifies_with_zero_residual(self):
        verdict = verify_candidate("stage5_round1", 3,
                                   (GateSpec.controlled_add("k", "e", 2),))
        assert verdict.verified
        assert [ev.residual for ev in verdict.evidence] == [0, 0, 0]
        assert [ev.bob_outcome for ev in verdict.evidence] == [0, 1, 2]

    def test_gates_outside_k_and_e_rejected(self):
        with pytest.raises(IllegalRegisterAccess):
            verify_candidate("stage5_round1", 2, (GateSpec.shift("a", 1),))

    def test_a_one_shot_iterable_is_verified_once(self):
        exit_gate = GateSpec.controlled_add("k", "e", 1)
        verdict = verify_candidate("stage5_round1", 2, (g for g in [exit_gate]))
        assert verdict == verify_candidate("stage5_round1", 2, (exit_gate,))
        assert verdict.verified


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def evidence_families(d):
    """name -> (gates, decode): the default family through the table kernels and
    lowered, as the dense oracle runs it, and three Haar-random dense (k, e) gates."""
    family = default_gate_family(d)
    rng = np.random.default_rng(d)
    decode = qudit.to_dense(protocol._DECODE, d)
    return {
        "default": (family, protocol._DECODE),
        "lowered": (tuple(qudit.to_dense(g, d) for g in family), decode),
        "haar": (tuple(GateSpec.dense(("k", "e"), haar_unitary(d * d, rng)) for _ in range(3)),
                 decode),
    }


class TestKeyRows:
    """The search holds every key tuple's start state as one row of one array."""

    @pytest.mark.parametrize("template_id", ["stage5_round1", "post_round1_round2"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["default", "lowered", "haar"])
    def test_all_rows_match_the_one_row_calls(self, template_id, d, family):
        template = get_template(template_id)
        keys, layout, amps = starts = analysis._start_states(template, d)
        assert keys == tuple(product(range(d), repeat=template.key_arity))
        assert layout == RegisterLayout(d, ("a", "b", "k", "e"))
        for key, row in zip(keys, amps):
            assert np.array_equal(row, template.build(d, key).amplitudes)
        gates, decode = evidence_families(d)[family]
        for depth in range(3):
            for sequence in product(gates, repeat=depth):
                rows = [(keys[r:r + 1], layout, amps[r:r + 1]) for r in range(len(keys))]
                whole = analysis._evidence(starts, sequence, decode, 1e-8)
                assert whole == sum((analysis._evidence(row, sequence, decode, 1e-8)
                                     for row in rows), ())
                gated = amps
                for gate in sequence:
                    gated = qudit._gated(layout, gated, gate)
                    rows = [(k, layout, qudit._gated(layout, a, gate)) for k, _, a in rows]
                    assert np.array_equal(gated, np.concatenate([a for _, _, a in rows]))

    def test_a_dense_family_is_lowered_once_per_search(self, monkeypatch):
        # u then its inverse undoes itself, so exits pass through every gate
        u = haar_unitary(4, np.random.default_rng(5))
        exit_gate = qudit.to_dense(GateSpec.controlled_add("k", "e", 1), 2)
        family = (GateSpec.dense(("k", "e"), u), GateSpec.dense(("k", "e"), u.conj().T),
                  exit_gate)
        unitaries = []
        gate_unitary = qudit.gate_unitary
        monkeypatch.setattr(qudit, "gate_unitary",
                            lambda *args: unitaries.append(args) or gate_unitary(*args))
        report = feasibility_search("stage5_round1", 2, max_depth=3, family=family)
        assert [gate is exit_gate for gate in report.candidates[0].sequence] == [True]
        assert any(len(c.sequence) == 3 for c in report.candidates)
        for candidate in report.candidates:
            assert verify_candidate("stage5_round1", 2, candidate.sequence).verified
        # each family gate and Bob's decode: one gate_unitary call in the search,
        # then one for each gate of each verify_candidate above
        lowered = unitaries[:4]
        assert sorted(id(gate) for gate, _ in lowered) == sorted(
            [id(gate) for gate in family] + [id(protocol._DECODE)])
        assert len(unitaries) == 4 + sum(len(c.sequence) + 1 for c in report.candidates)

    # rows results that are not a RegisterLayout and a complex128 (K, layout.dim)
    # array; "state" is what an old per-key builder returns
    MALFORMED = {
        "state": lambda layout, amps: PureState(layout, amps[0]),
        "labels": lambda layout, amps: (layout.labels, amps),
        "short": lambda layout, amps: (layout, amps[1:]),
        "flat": lambda layout, amps: (layout, amps.ravel()),
        "real": lambda layout, amps: (layout, amps.real),
        "list": lambda layout, amps: (layout, amps.tolist()),
        "triple": lambda layout, amps: (layout, amps, None),
    }

    @pytest.mark.parametrize("malformed", sorted(MALFORMED))
    def test_malformed_rows_are_refused(self, malformed, monkeypatch):
        base = get_template("post_round1_round2")
        template = RoundTemplate(
            "malformed", 2, lambda d, keys: self.MALFORMED[malformed](*base.rows(d, keys)))
        calls = []
        monkeypatch.setattr(analysis, "_evidence", lambda *args: calls.append(args))
        for check in (lambda: feasibility_search(template, 2, max_depth=1),
                      lambda: verify_candidate(template, 2, ())):
            with pytest.raises(ConfigError, match=r"template 'malformed': rows gave .*, not a "
                               r"RegisterLayout and a complex128 array of shape \(4, "):
                check()
        assert calls == []


def never_built(key_arity=1):
    def rows(d, keys):
        raise AssertionError(f"template rows built for d={d}, keys={keys.tolist()}")

    return RoundTemplate("never_built", key_arity, rows)


class TestEntryRules:
    """Every search input is refused once, at entry, before any state is built."""

    @pytest.mark.parametrize("depth", [True, 1.0])
    def test_depth_must_be_an_integer(self, depth):
        with pytest.raises(ConfigError, match="is not an integer in 0..3"):
            feasibility_search(never_built(), 2, max_depth=depth)

    # arity 0 used to raise IndexError inside _evidence, -1 a ValueError from
    # itertools and 1.0 a TypeError, while True ran silently as arity 1
    @pytest.mark.parametrize("arity", [0, -1, 1.0, True, np.True_, "1", None])
    def test_key_arity_must_be_a_positive_integer(self, arity):
        for check in (lambda: feasibility_search(never_built(arity), 2, max_depth=1),
                      lambda: verify_candidate(never_built(arity), 2, ())):
            with pytest.raises(ConfigError,
                               match=r"'never_built': key_arity .* is not an integer >= 1"):
                check()

    # 3^(10^6) used to be computed, then overflow str() in the guard's own message
    @pytest.mark.parametrize("arity", [9, 14, 10 ** 6])
    def test_key_count_cap_refuses_any_arity_before_any_state(self, arity):
        for check in (lambda: feasibility_search(never_built(arity), 3, max_depth=0),
                      lambda: verify_candidate(never_built(arity), 3, ())):
            with pytest.raises(ExplosionGuard, match=rf"3\^{arity} key assignments exceed 10000"):
                check()

    @pytest.mark.parametrize("d", [2.0, True, 1])
    def test_d_follows_the_layout_rule(self, d):
        for check in (lambda: feasibility_search(never_built(), d, max_depth=1),
                      lambda: verify_candidate(never_built(), d, ())):
            with pytest.raises(InvalidDimension):
                check()

    # True used to run as a cutoff of 1, find nothing and write "rank_tol": true; a
    # string or None raised a bare TypeError, and Decimal and Fraction ran the whole
    # search, only render_report failing on them
    @pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf, True, np.True_,
                                     "1e-8", None, Decimal("1e-8"), Fraction(1, 10 ** 8)])
    def test_tolerance_follows_the_schmidt_rank_rule(self, tol):
        for check in (lambda: feasibility_search(never_built(), 2, max_depth=1, rank_tol=tol),
                      lambda: verify_candidate(never_built(), 2, (), rank_tol=tol)):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                check()

    def test_a_dense_gate_of_the_wrong_side_is_refused_before_any_state(self):
        # a 4 x 4 unitary on one d=3 register used to fail only inside the gate
        # kernel, after every template state was built
        gate = GateSpec.dense(("k",), np.eye(4))
        for check in (lambda: feasibility_search(never_built(2), 3, 1, family=[gate]),
                      lambda: verify_candidate(never_built(2), 3, [gate])):
            with pytest.raises(NonUnitaryMatrix, match=r"matrix side 4 .* d\^targets = 3"):
                check()

    def test_size_caps_refuse_before_the_default_family_is_built(self, monkeypatch):
        def family(d):
            raise AssertionError(f"default family built for d={d}")

        monkeypatch.setattr(analysis, "default_gate_family", family)
        for template_id in ("stage5_round1", "post_round1_round2"):
            with pytest.raises(ExplosionGuard):
                feasibility_search(template_id, 10 ** 6, max_depth=1)

    def test_a_numpy_integer_d_runs_as_an_int(self):
        report = feasibility_search("stage5_round1", np.int64(2), max_depth=1)
        assert type(report.d) is int
        assert render_report(report) == render_report(feasibility_search("stage5_round1", 2))


class TestReportDigest:
    def test_the_36_reports_keep_their_bytes(self):
        # both templates x six (d, depth) x three rank_tol, rendered and concatenated
        text = "".join(
            render_report(feasibility_search(template_id, d, max_depth=depth, rank_tol=tol))
            for template_id in ("stage5_round1", "post_round1_round2")
            for d, depth in ((2, 3), (3, 3), (4, 2), (5, 2), (6, 1), (7, 1))
            for tol in (1e-7, 1e-8, 1e-10))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "88dcc12eb6ecc89b252b625ad35400278f39cd9eb373b3cfd263a536e1b93552")


class TestRenderReport:
    def test_feasibility_report_fields_in_order(self):
        report = feasibility_search("stage5_round1", 2, max_depth=0)
        doc = json.loads(render_report(report))
        assert list(doc) == ["schema_version", "template", "d", "depth", "family",
                             "rank_tol", "exhaustive", "enumeration_count", "candidates"]
        assert doc["schema_version"] == "feasibility/1"
        assert doc["candidates"] == []
        assert doc["exhaustive"] is True

    def test_rendering_is_repeatable(self):
        reports = [render_report(feasibility_search("post_round1_round2", 2, max_depth=1))
                   for _ in range(2)]
        assert reports[0] == reports[1]

    def test_diagnostics_roundtrip(self):
        state = alice_encode(init_carrier(2), 1)
        diag = diagnose(state, 1, "post_encode")
        doc = json.loads(render_report(diag))
        assert doc["schema_version"] == "diagnostics/1"
        assert doc["stage"] == "post_encode"
        both = json.loads(render_report([diag, diag]))
        assert len(both["stages"]) == 2

    def test_unknown_payload_rejected(self):
        with pytest.raises(TypeError):
            render_report({"not": "a report"})

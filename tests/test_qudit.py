"""Core state/gate/diagnostic tests.

The partial-trace and Schmidt-rank checks compare the library against
definition-chasing oracles written here from scratch (digit loops, no shared
index helpers), so the two paths can only agree if both are right.
"""

import cmath
import dataclasses
import itertools
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qkdsim import analysis
from qkdsim.adversary import eve_entangle
from qkdsim.analysis import RoundTemplate, verify_candidate
from qkdsim.errors import (
    EmptyKeepSet,
    InvalidBipartition,
    InvalidDimension,
    LayoutMismatch,
    NonUnitaryMatrix,
    RegisterCollision,
    RegisterNotSeparable,
    UnknownRegister,
    ValueOutOfRange,
)
from qkdsim.qudit import (
    CERTAINTY,
    DensityMatrix,
    GateSpec,
    PureState,
    RegisterLayout,
    _fold,
    _gate_table,
    _gated,
    _marginal,
    _reduced,
    _split,
    apply_gate,
    apply_gate_dense,
    basis_state,
    gate_unitary,
    insert_register,
    measure,
    measurement_branches,
    partial_trace,
    remove_register,
    schmidt_rank,
    states_equal_up_to_phase,
    to_dense,
    von_neumann_entropy,
)
from qkdsim.protocol import _DECODE, Stage, _Steps, init_carrier


def digits(index, d, n):
    """Mixed-radix digits of index, most significant first."""
    out = []
    for _ in range(n):
        index, v = divmod(index, d)
        out.append(v)
    return list(reversed(out))


def oracle_partial_trace(state, keep_labels):
    """Brute-force rho[i,j] = sum over dropped digits of psi_i psi_j*."""
    layout = state.layout
    d = layout.d
    n = len(layout.labels)
    keep_axes = [a for a, l in enumerate(layout.labels) if l in set(keep_labels)]
    drop_axes = [a for a in range(n) if a not in keep_axes]
    side = d ** len(keep_axes)
    rho = np.zeros((side, side), dtype=complex)
    for i, zi in enumerate(state.amplitudes):
        vi = digits(i, d, n)
        for j, zj in enumerate(state.amplitudes):
            vj = digits(j, d, n)
            if any(vi[a] != vj[a] for a in drop_axes):
                continue
            ki = 0
            kj = 0
            for a in keep_axes:
                ki = ki * d + vi[a]
                kj = kj * d + vj[a]
            rho[ki, kj] += zi * np.conj(zj)
    return rho


def oracle_schmidt_rank(state, side_labels, tol=1e-8):
    """Singular values of the explicitly assembled bipartition matrix."""
    layout = state.layout
    d = layout.d
    n = len(layout.labels)
    axes_a = [a for a, l in enumerate(layout.labels) if l in set(side_labels)]
    axes_b = [a for a in range(n) if a not in axes_a]
    m = np.zeros((d ** len(axes_a), d ** len(axes_b)), dtype=complex)
    for i, z in enumerate(state.amplitudes):
        v = digits(i, d, n)
        ra = 0
        for a in axes_a:
            ra = ra * d + v[a]
        rb = 0
        for a in axes_b:
            rb = rb * d + v[a]
        m[ra, rb] = z
    singular = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(singular > tol))


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, amps / np.linalg.norm(amps))


def signed_zero_state(layout, seed):
    """random_state with every third amplitude replaced by -0.0 - 0.0j."""
    amps = random_state(layout, seed).amplitudes.copy()
    amps[::3] = complex(-0.0, -0.0)
    return PureState(layout, amps)


def pair_state(d):
    """Equal superposition of |j,j> on registers a, b."""
    layout = RegisterLayout(d, ("a", "b"))
    amps = np.zeros(layout.dim, dtype=complex)
    for j in range(d):
        amps[j * d + j] = 1.0 / np.sqrt(d)
    return PureState(layout, amps)


class TestRegisterLayout:
    def test_mixed_radix_indexing(self):
        layout = RegisterLayout(3, ("a", "b"))
        assert layout.index_of((2, 1)) == 7
        assert layout.values_of(7) == (2, 1)
        layout = RegisterLayout(2, ("a", "b", "k"))
        assert layout.index_of((1, 0, 1)) == 5

    def test_index_roundtrip(self):
        layout = RegisterLayout(3, ("a", "b", "k", "e"))
        for index in range(layout.dim):
            assert layout.index_of(layout.values_of(index)) == index

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDimension):
            RegisterLayout(1, ("a",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            RegisterLayout(2, ("a", "a"))

    def test_unknown_register(self):
        with pytest.raises(UnknownRegister):
            RegisterLayout(2, ("a", "b")).axis("z")

    def test_insert_collision(self):
        with pytest.raises(RegisterCollision):
            RegisterLayout(2, ("a", "b")).insert("a", 0)

    def test_insert_and_drop_are_interned(self):
        layout = RegisterLayout(3, ("a", "b"))
        inserted = layout.insert("k", 2)
        assert inserted == RegisterLayout(3, ("a", "b", "k"))
        assert layout.insert("k", 2) is inserted
        # an equal layout built separately finds the same entry
        assert RegisterLayout(3, ("a", "b")).insert("k", 2) is inserted
        dropped = inserted.drop("k")
        assert dropped == layout
        assert inserted.drop("k") is dropped
        states = [insert_register(pair_state(3), "k", q, 2) for q in range(3)]
        assert all(s.layout is inserted for s in states)

    def test_equal_layouts_hash_equal_and_compare_field_by_field(self):
        layout = RegisterLayout(3, ["a", "b", "k", "e", "e2"])
        twin = RegisterLayout(np.int64(3), ("a", "b", "k", "e", "e2"))
        assert layout == twin and hash(layout) == hash(twin) == hash((3, layout.labels))
        assert layout != RegisterLayout(3, ("a", "b", "k", "e", "e3"))
        assert [f.name for f in dataclasses.fields(RegisterLayout)] == ["d", "labels"]

    def test_bad_insert_or_drop_raises_on_every_call(self):
        layout = RegisterLayout(2, ("a", "b"))
        for _ in range(3):
            with pytest.raises(RegisterCollision):
                layout.insert("a", 0)
            with pytest.raises(ValueOutOfRange):
                layout.insert("k", 3)
            with pytest.raises(UnknownRegister):
                layout.drop("k")


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: RegisterLayout(2, ()), "at least one register"),
        (lambda: RegisterLayout(2, ("a", "b")).index_of((0,)), "expected 2 values, got 1"),
        (lambda: PureState(RegisterLayout(2, ("a",)), [1, 0, 0]), "length 3, layout needs 2"),
        (lambda: DensityMatrix(RegisterLayout(2, ("a",)), np.eye(3)), r"2 x 2, got \(3, 3\)"),
        (lambda: DensityMatrix(RegisterLayout(2, ("a",)), np.diag([1.5, -0.5])).validate(),
         "PSD floor"),
        (lambda: GateSpec("swap", ("a",)), "unknown gate kind 'swap'"),
        (lambda: GateSpec("fourier", ("a", "b")), "fourier gate acts on exactly one register"),
        (lambda: GateSpec("cadd", ("a",), s=1), "cadd gate needs a control and one target"),
        (lambda: GateSpec("dense", ("a",)), "dense gate needs targets and a matrix"),
        (lambda: GateSpec.dense(("a", "a"), np.eye(4)), "dense gate targets must be distinct"),
    ], ids=["no_labels", "index_of_length", "state_length", "density_shape", "psd_floor",
            "gate_kind", "one_register_kind", "cadd_control", "dense_matrix", "dense_targets"])
    def test_malformed_objects_are_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("index", [9, -1, True, np.int64(9), 1.0],
                             ids=["above", "negative", "bool", "numpy_above", "float"])
    def test_values_of_refuses_what_index_of_refuses(self, index):
        # values_of once wrapped 9 to (0, 0), -1 to (2, 2) and True to (0, 1)
        layout = RegisterLayout(3, ("a", "b"))
        with pytest.raises(ValueOutOfRange, match=re.escape(f"index {index!r} not in [0, 9)")):
            layout.values_of(index)
        assert layout.values_of(np.int64(8)) == (2, 2)


class TestBasisState:
    def test_index_placement(self):
        state = basis_state(RegisterLayout(3, ("a", "b")), (2, 1))
        assert state.amplitudes[7] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_register(self):
        state = basis_state(RegisterLayout(2, ("k",)), (0,))
        assert np.array_equal(state.amplitudes, [1.0, 0.0])

    @pytest.mark.parametrize("value", [2, -1, True, np.True_, 1.0, "1"],
                             ids=["above", "negative", "bool", "numpy_bool", "float", "str"])
    def test_value_out_of_range(self, value):
        # True used to index like 1 and build |1, 0> without a word
        with pytest.raises(ValueOutOfRange, match="register 'a'"):
            basis_state(RegisterLayout(2, ("a", "b")), (value, 0))


class TestPermutationGates:
    @pytest.mark.parametrize("d,s,control_value,target_value,expected", [
        (3, 1, 2, 2, 1),
        (3, 2, 1, 0, 2),
        (2, 1, 1, 1, 0),
        (5, 3, 4, 2, 4),
    ])
    def test_cadd_on_basis(self, d, s, control_value, target_value, expected):
        layout = RegisterLayout(d, ("c", "t"))
        state = basis_state(layout, (control_value, target_value))
        out = apply_gate(state, GateSpec.controlled_add("c", "t", s))
        assert out.amplitudes[layout.index_of((control_value, expected))] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_cadd_s0_is_identity(self):
        state = random_state(RegisterLayout(3, ("c", "t")), seed=0)
        out = apply_gate(state, GateSpec.controlled_add("c", "t", 0))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_shift_on_basis(self):
        layout = RegisterLayout(3, ("k",))
        out = apply_gate(basis_state(layout, (2,)), GateSpec.shift("k", 2))
        assert out.amplitudes[1] == 1.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_shift_permutes_amplitudes_bit_identically(self, d):
        for labels in (("a", "k"), ("k", "x", "a")):
            layout = RegisterLayout(d, labels)
            ax = labels.index("k")
            state = signed_zero_state(layout, seed=d)
            for s in (1, 0, d, -1):
                out = apply_gate(state, GateSpec.shift("k", s))
                expected = np.empty_like(state.amplitudes)
                for i, z in enumerate(state.amplitudes):
                    v = digits(i, d, len(labels))
                    v[ax] = (v[ax] + s) % d
                    expected[layout.index_of(v)] = z
                # exact bytes: permutations must not round or touch signed zeros
                assert out.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_cadd_permutes_amplitudes_bit_identically(self, d):
        # ("t", "x", "c") puts the control after its target
        for labels in (("c", "t", "x"), ("t", "x", "c")):
            layout = RegisterLayout(d, labels)
            c_ax, t_ax = labels.index("c"), labels.index("t")
            state = signed_zero_state(layout, seed=10 + d)
            for s in (2, 0, d, -1):
                out = apply_gate(state, GateSpec.controlled_add("c", "t", s))
                expected = np.empty_like(state.amplitudes)
                for i, z in enumerate(state.amplitudes):
                    v = digits(i, d, 3)
                    v[t_ax] = (v[t_ax] + s * v[c_ax]) % d
                    expected[layout.index_of(v)] = z
                assert out.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_phase_leaves_unit_factor_slots_bit_identical(self, d):
        # a factor of exactly 1 must not be multiplied in: 1 * (x - 0.0j)
        # gives x + 0.0j, and 1 * (-0.0 - 0.0j) gives 0.0 + 0.0j; at d=4,
        # s=2 two values of k (0 and 2) have factor 1
        layout = RegisterLayout(d, ("k", "x"))
        amps = random_state(layout, seed=20 + d).amplitudes.copy()
        amps[::3] = complex(-0.0, -0.0)
        amps.imag[1::3] = -0.0
        norm = np.linalg.norm(amps)
        amps.real /= norm
        amps.imag /= norm
        state = PureState(layout, amps)
        assert np.signbit(state.amplitudes[:d].imag).sum() >= 2
        for s in range(1, d):
            out = apply_gate(state, GateSpec.phase("k", s)).amplitudes
            for i, z in enumerate(state.amplitudes):
                power = s * digits(i, d, 2)[0] % d
                if power == 0:
                    assert out[i:i + 1].tobytes() == state.amplitudes[i:i + 1].tobytes()
                else:
                    assert abs(out[i] - z * cmath.exp(2j * math.pi * power / d)) <= 1e-15

    def test_dense_cyclic_matrix_equals_shift(self):
        cyclic = np.array([[0.0, 1.0], [1.0, 0.0]])
        layout = RegisterLayout(2, ("a", "k"))
        dense = GateSpec.dense(("k",), cyclic)
        shift = GateSpec.shift("k", 1)
        for seed in range(50):
            state = random_state(layout, seed=seed)
            a = apply_gate(state, dense)
            b = apply_gate(state, shift)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


class TestGateSpecs:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("make", [
        lambda: GateSpec.shift("t", 1),
        lambda: GateSpec.controlled_add("c", "t", 1),
        lambda: GateSpec.phase("t", 2),
        lambda: GateSpec.fourier("t"),
    ])
    def test_unitaries_are_unitary(self, d, make):
        u = gate_unitary(make(), d)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12

    def test_dense_rejects_nonunitary(self):
        with pytest.raises(NonUnitaryMatrix):
            GateSpec.dense(("k",), np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(NonUnitaryMatrix):
            GateSpec.dense(("k",), np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_dense_rejects_non_finite_entries(self, bad):
        # max |U^H U - I| is NaN for these, and NaN > UNITARY_TOL is false
        with pytest.raises(NonUnitaryMatrix, match=r"entry \(0, 0\) is .*, not finite"):
            GateSpec.dense(("k",), [[bad, 0], [0, 1]])
        with pytest.raises(NonUnitaryMatrix, match="not finite"):  # so no search gets one
            verify_candidate("stage5_round1", 2,
                             [GateSpec.dense(("k", "e"), np.full((4, 4), bad))])

    def test_dense_size_must_match_targets(self):
        state = random_state(RegisterLayout(3, ("a", "k")), seed=3)
        gate = GateSpec.dense(("k",), np.eye(2))
        with pytest.raises(NonUnitaryMatrix):
            apply_gate(state, gate)

    def test_gate_on_missing_register(self):
        state = random_state(RegisterLayout(2, ("a", "b")), seed=1)
        with pytest.raises(UnknownRegister):
            apply_gate(state, GateSpec.shift("k", 1))

    def test_cadd_needs_distinct_registers(self):
        with pytest.raises(ValueError):
            GateSpec.controlled_add("k", "k", 1)

    @pytest.mark.parametrize("make", [
        lambda s: GateSpec.shift("k", s),
        lambda s: GateSpec.controlled_add("a", "k", s),
        lambda s: GateSpec.phase("k", s),
        lambda s: GateSpec("shift", ("k",), s=s),
    ], ids=["shift", "cadd", "phase", "direct"])
    def test_s_must_be_an_integer(self, make):
        for bad in (1.7, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="integer s"):
                make(bad)
        gate = make(np.int64(2))
        assert type(gate.s) is int and gate.s == 2

    @pytest.mark.parametrize("gate", [
        GateSpec.shift("k", 2),
        GateSpec.controlled_add("a", "k", 1),
        GateSpec.phase("k", 1),
        GateSpec.fourier("k"),
    ])
    def test_norm_preserved(self, gate):
        state = random_state(RegisterLayout(3, ("a", "k")), seed=7)
        out = apply_gate(state, gate)
        assert abs(out.norm() - 1.0) <= 1e-10

    @pytest.mark.parametrize("gate", [
        GateSpec.shift("k", 2),
        GateSpec.controlled_add("a", "k", 2),
        GateSpec.phase("k", 2),
        GateSpec.fourier("k"),
    ] + [make(s) for s in (0, 3, -1) for make in (
        lambda s: GateSpec.shift("k", s),
        lambda s: GateSpec.controlled_add("a", "k", s),
        lambda s: GateSpec.phase("k", s),
    )])
    def test_fast_path_matches_dense_path(self, gate):
        # ("k", "x", "a") puts the cadd control after its target
        for labels in (("a", "k"), ("k", "x", "a")):
            layout = RegisterLayout(3, labels)
            state = random_state(layout, seed=9)
            fast = apply_gate(state, gate)
            dense = apply_gate_dense(state, gate)
            assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) <= 1e-12
            assert not fast.amplitudes.flags.writeable
            if gate.kind != "fourier":
                table = _gate_table(layout, gate.kind, gate.control, gate.targets[0], gate.s % 3)
                assert not any(a.flags.writeable for a in table if a is not None)
                # s = 0 mod d is the identity: the input comes back untouched
                assert (fast is state) == (gate.s % 3 == 0)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("target", ["a", "k"])
    def test_fourier_on_basis_matches_closed_form(self, d, target):
        layout = RegisterLayout(d, ("a", "k"))
        ax = layout.labels.index(target)
        for v in range(d):
            rest = (v + 1) % d
            values = [rest, rest]
            values[ax] = v
            out = apply_gate(basis_state(layout, values), GateSpec.fourier(target))
            expected = np.zeros(layout.dim, dtype=complex)
            for j in range(d):
                values[ax] = j
                expected[layout.index_of(values)] = cmath.exp(2j * math.pi * j * v / d) / math.sqrt(d)
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-15

    def test_to_dense_keeps_registers(self):
        gate = to_dense(GateSpec.controlled_add("a", "k", 1), 3)
        assert gate.kind == "dense"
        assert gate.registers == ("a", "k")


class TestPartialTrace:
    def test_pair_half_is_maximally_mixed(self):
        rho = partial_trace(pair_state(2), {"a"})
        assert np.max(np.abs(rho.entries - np.eye(2) / 2)) <= 1e-12

    def test_product_state_gives_projector(self):
        state = basis_state(RegisterLayout(2, ("a", "b")), (1, 0))
        rho = partial_trace(state, {"b"})
        assert np.array_equal(rho.entries, [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("keep", [("a",), ("k",), ("a", "k"), ("a", "b")])
    def test_matches_bruteforce_oracle(self, d, keep):
        state = random_state(RegisterLayout(d, ("a", "b", "k")), seed=d * 31)
        rho = partial_trace(state, keep)
        expected = oracle_partial_trace(state, keep)
        assert np.max(np.abs(rho.entries - expected)) <= 1e-12
        rho.validate()

    def test_kept_labels_follow_layout_order(self):
        state = random_state(RegisterLayout(2, ("a", "b", "k")), seed=5)
        assert partial_trace(state, {"k", "a"}).layout.labels == ("a", "k")

    def test_empty_keep_rejected(self):
        with pytest.raises(EmptyKeepSet):
            partial_trace(pair_state(2), set())

    def test_unknown_register_rejected(self):
        with pytest.raises(UnknownRegister):
            partial_trace(pair_state(2), {"z"})


class TestDensityMatrix:
    def test_spectrum_descends(self):
        state = random_state(RegisterLayout(3, ("a", "b")), seed=2)
        spectrum = partial_trace(state, {"a"}).spectrum()
        assert np.all(np.diff(spectrum) <= 0)
        assert abs(spectrum.sum() - 1.0) <= 1e-10

    def test_validate_rejects_nonhermitian(self):
        rho = DensityMatrix(RegisterLayout(2, ("k",)), np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            rho.validate()

    def test_validate_rejects_wrong_trace(self):
        rho = DensityMatrix(RegisterLayout(2, ("k",)), np.eye(2))
        with pytest.raises(ValueError):
            rho.validate()


class TestSchmidtRank:
    def test_basis_state_is_product(self):
        state = basis_state(RegisterLayout(3, ("a", "b", "k")), (1, 2, 0))
        for side in ({"a"}, {"b"}, {"a", "k"}):
            assert schmidt_rank(state, side) == 1

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pair_state_has_full_rank(self, d):
        assert schmidt_rank(pair_state(d), {"a"}) == d

    def test_correlated_memory_rank(self):
        # amplitudes (1/sqrt2) sum_j |j,j,j+1,j+1>
        layout = RegisterLayout(2, ("a", "b", "k", "e"))
        amps = np.zeros(layout.dim, dtype=complex)
        for j in range(2):
            amps[layout.index_of((j, j, (j + 1) % 2, (j + 1) % 2))] = 1 / np.sqrt(2)
        assert schmidt_rank(PureState(layout, amps), {"e"}) == 2

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("side", [("a",), ("b",), ("a", "k")])
    def test_matches_svd_oracle(self, d, side):
        state = random_state(RegisterLayout(d, ("a", "b", "k")), seed=d * 7)
        assert schmidt_rank(state, side) == oracle_schmidt_rank(state, side)

    def test_complement_symmetry(self):
        state = random_state(RegisterLayout(3, ("a", "b", "k", "e")), seed=11)
        for side in (("a",), ("a", "b"), ("k", "e"), ("b",)):
            rest = tuple(l for l in state.layout.labels if l not in side)
            assert schmidt_rank(state, side) == schmidt_rank(state, rest)

    def test_invalid_bipartitions(self):
        state = pair_state(2)
        with pytest.raises(InvalidBipartition):
            schmidt_rank(state, set())
        with pytest.raises(InvalidBipartition):
            schmidt_rank(state, {"a", "b"})
        with pytest.raises(InvalidBipartition):
            schmidt_rank(state, {"z"})
        with pytest.raises(ValueError):
            schmidt_rank(state, {"a"}, tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf, True, np.True_,
                                     "1e-8", None, Decimal("1e-8"), Fraction(1, 10 ** 8)])
    def test_tolerance_outside_zero_to_infinity_is_refused(self, tol):
        # nan and inf used to count no singular value at all: rank 0; a bool is
        # no tolerance, though 0 < True < inf, and True used to run as a cutoff of 1;
        # a string or None raised a bare TypeError, and Decimal and Fraction passed
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            schmidt_rank(init_carrier(3), {"a"}, tol=tol)

    @pytest.mark.parametrize("tol", [1, np.int64(1), np.float32(1e-8), np.float64(1e-8)])
    def test_ints_floats_and_numpy_numbers_are_tolerances(self, tol):
        # the pair state's three singular values are 1/sqrt(3), below a cutoff of 1
        assert schmidt_rank(pair_state(3), {"a"}, tol=tol) == (0 if tol == 1 else 3)


class TestEntropy:
    def test_pure_projector_has_zero_entropy(self):
        state = basis_state(RegisterLayout(3, ("a", "b")), (1, 1))
        assert abs(von_neumann_entropy(partial_trace(state, {"a"}))) <= 1e-10

    def test_maximally_mixed_qudit_scores_one(self):
        rho = DensityMatrix(RegisterLayout(3, ("k",)), np.eye(3) / 3)
        assert abs(von_neumann_entropy(rho) - 1.0) <= 1e-10

    def test_pair_half_scores_one(self):
        rho = partial_trace(pair_state(5), {"a"})
        assert abs(von_neumann_entropy(rho) - 1.0) <= 1e-10

    def test_complements_agree(self):
        state = random_state(RegisterLayout(3, ("a", "b", "k")), seed=13)
        ea = von_neumann_entropy(partial_trace(state, {"a"}))
        eb = von_neumann_entropy(partial_trace(state, {"b", "k"}))
        assert abs(ea - eb) <= 1e-9


class TestMeasurement:
    def test_basis_state_measures_deterministically(self):
        state = basis_state(RegisterLayout(3, ("k",)), (2,))
        outcome, post = measure(state, "k", np.random.default_rng(0))
        assert outcome == 2
        assert np.array_equal(post.amplitudes, state.amplitudes)

    def test_pair_half_outcomes_are_nearly_uniform(self):
        state = pair_state(2)
        rng = np.random.default_rng(42)
        hits = sum(measure(state, "a", rng)[0] == 0 for _ in range(100_000))
        assert 0.49 <= hits / 100_000 <= 0.51

    def test_pair_measurement_collapses_both_halves(self):
        state = pair_state(3)
        rng = np.random.default_rng(8)
        outcome, post = measure(state, "a", rng)
        expected = basis_state(state.layout, (outcome, outcome))
        assert states_equal_up_to_phase(post, expected, 1e-12)

    def test_measure_is_seed_deterministic(self):
        state = random_state(RegisterLayout(3, ("a", "b")), seed=21)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            runs.append([measure(state, "a", rng)[0] for _ in range(20)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_outcome_post_state_and_draw_are_bit_exact(self, d):
        """Seeded transcripts depend on measure's exact bits and rng use.

        The expected outcome is drawn on a twin generator with cumsum and
        searchsorted; the expected post-state zeroes the other slices of
        the tensor and divides the kept one by sqrt(p).  A measure without a
        record (Bob's decode, here with no gate), sampled by a step table or
        exhaustive by Stage.measure, returns that kept slice alone, over the
        layout without the register.
        """
        gen = np.random.default_rng(100 + d)
        for n in (1, 2, 3):
            labels = ("a", "b", "c")[:n]
            for _ in range(15):
                state = random_state(RegisterLayout(d, labels), seed=int(gen.integers(2**31)))
                tensor = state.tensor
                for ax, label in enumerate(labels):
                    other = tuple(a for a in range(n) if a != ax)
                    probs = np.sum(np.abs(tensor) ** 2, axis=other)
                    seed = int(gen.integers(2**31))
                    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                    outcome, post = measure(state, label, rng)
                    edges = np.cumsum(probs)
                    drawn = np.searchsorted(edges, twin.random() * edges[-1], side="right")
                    assert outcome == min(int(drawn), d - 1)
                    assert rng.random() == twin.random()
                    branches = measurement_branches(state, label)
                    if n > 1:
                        rows, values = Stage.of(state).measure(label)
                        dropped = [(v, p, rows.state(i)) for i, (v, p) in
                                   enumerate(zip(values.tolist(), rows.probs.tolist()))]
                        row, sampled_v = _Steps(np.random.default_rng(seed)).measure(
                            Stage.of(state), label, None, None)
                        sampled = row.state(0)
                        assert (sampled_v, row.probs.tolist()) == (outcome, [1.0])
                    for v in range(d):
                        kept = (slice(None),) * ax + (v,)
                        expected = np.zeros_like(tensor)
                        expected[kept] = tensor[kept] / np.sqrt(probs[v])
                        rest = np.ones(tensor.shape, dtype=bool)
                        rest[kept] = False
                        branch_v, branch_p, branch = branches[v]
                        assert (branch_v, branch_p) == (v, probs[v])
                        posts = [branch.tensor] + ([post.tensor] if v == outcome else [])
                        for got in posts:
                            assert np.array_equal(got, expected)
                            assert not np.signbit(got[rest].real).any()
                            assert not np.signbit(got[rest].imag).any()
                            assert got.tobytes() == expected.tobytes()
                        if n == 1:
                            continue
                        sliced_v, sliced_p, sliced = dropped[v]
                        assert (sliced_v, sliced_p) == (v, probs[v])
                        expected = tensor[kept] / np.sqrt(probs[v])
                        for got in [sliced] + ([sampled] if v == outcome else []):
                            assert got.layout == state.layout.drop(label)
                            assert got.amplitudes.tobytes() == expected.tobytes()

    def test_certain_outcome_keeps_signed_zeros(self):
        layout = RegisterLayout(3, ("a", "b"))
        for phase in (complex(-0.0, 1.0), complex(-1.0, -0.0), complex(-0.0, -1.0)):
            amps = np.zeros(layout.dim, dtype=complex)
            amps[layout.index_of((2, 1))] = phase
            state = PureState(layout, amps)
            for label in layout.labels:
                outcome, post = measure(state, label, np.random.default_rng(0))
                assert outcome == (2 if label == "a" else 1)
                assert post.amplitudes.tobytes() == state.amplitudes.tobytes()
                [(_, p, branch)] = measurement_branches(state, label)
                assert p == 1.0
                assert branch.amplitudes.tobytes() == state.amplitudes.tobytes()
                rows, _ = Stage.of(state).measure(label)
                assert rows.state(0).amplitudes.tobytes() == \
                    remove_register(state, label).amplitudes.tobytes()

    def test_unknown_register(self):
        with pytest.raises(UnknownRegister):
            measure(pair_state(2), "z", np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [None, 0, np.random.RandomState(0)],
                             ids=["None", "int", "RandomState"])
    def test_needs_a_generator(self, rng):
        # None used to fail deep inside, at rng.random(); it is refused before any
        # work, ahead of the register check
        for register in ("a", "z"):
            with pytest.raises(TypeError, match="^rng must be a numpy Generator, got "):
                measure(pair_state(2), register, rng)

    def test_branches_cover_the_born_rule(self):
        state = random_state(RegisterLayout(3, ("a", "b")), seed=17)
        branches = measurement_branches(state, "a")
        assert abs(sum(p for _, p, _ in branches) - 1.0) <= 1e-12
        for outcome, p, post in branches:
            assert abs(post.norm() - 1.0) <= 1e-10
            assert np.allclose(post.probabilities("a")[outcome], 1.0)

    def test_branches_prune_impossible_outcomes(self):
        state = basis_state(RegisterLayout(3, ("a", "b")), (1, 0))
        branches = measurement_branches(state, "a")
        assert len(branches) == 1
        assert branches[0][0] == 1
        assert branches[0][1] == 1.0


class TestPhaseEquality:
    def test_global_phase_is_ignored(self):
        state = random_state(RegisterLayout(2, ("a", "b")), seed=4)
        rotated = PureState(state.layout, state.amplitudes * np.exp(0.7j))
        assert states_equal_up_to_phase(state, rotated, 1e-12)

    def test_orthogonal_states_differ(self):
        layout = RegisterLayout(2, ("a",))
        assert not states_equal_up_to_phase(
            basis_state(layout, (0,)), basis_state(layout, (1,)), 1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatch):
            states_equal_up_to_phase(
                pair_state(2), random_state(RegisterLayout(2, ("a", "k")), 0), 1e-12)


class TestRegisterEditing:
    def test_insert_then_remove_roundtrips(self):
        state = random_state(RegisterLayout(3, ("a", "b")), seed=6)
        grown = insert_register(state, "k", 2, 1)
        assert grown.layout.labels == ("a", "k", "b")
        back = remove_register(grown, "k")
        assert np.array_equal(back.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("value", [2, 1.0, True, "1", np.float64(1.0)],
                             ids=["above", "float", "bool", "str", "numpy_float"])
    def test_insert_value_out_of_range(self, value):
        # all but 2 used to fail inside numpy, with an IndexError, a ValueError or a TypeError
        with pytest.raises(ValueOutOfRange, match="register 'k'"):
            insert_register(pair_state(2), "k", value, 0)

    def test_insert_position_out_of_range(self):
        # list.insert would take -1 as "before the last" and move a's value into x
        state = basis_state(RegisterLayout(2, ("a", "b")), (1, 0))
        for position in (-1, 3, 5):
            with pytest.raises(ValueOutOfRange, match="position"):
                insert_register(state, "x", 0, position)
        for position, labels, values in [(0, ("x", "a", "b"), (0, 1, 0)),
                                         (1, ("a", "x", "b"), (1, 0, 0)),
                                         (2, ("a", "b", "x"), (1, 0, 0))]:
            grown = insert_register(state, "x", 0, position)
            assert grown.layout.labels == labels
            assert np.array_equal(grown.amplitudes,
                                  basis_state(grown.layout, values).amplitudes)

    def test_remove_entangled_register_rejected(self):
        with pytest.raises(RegisterNotSeparable):
            remove_register(pair_state(2), "b")


class TestCertaintyRule:
    """One cut, CERTAINTY = 1 - 1e-9, decides whether a register holds a value."""

    INSIDE, OUTSIDE = 5e-10, 2e-9  # weight off the leading value

    @staticmethod
    def leaning(off, q=0):
        """|0, 0> on (a, b), then k and e each with weight 1 - off on one value.

        k leans to q, e to 0; the rest of each weight sits one value up.
        """
        d = 3
        k = np.zeros(d)
        k[q], k[(q + 1) % d] = np.sqrt(1 - off), np.sqrt(off)
        e = np.array([np.sqrt(1 - off), np.sqrt(off), 0.0])
        amps = np.kron(np.kron([1.0, 0, 0], [1.0, 0, 0]), np.kron(k, e))
        return PureState(RegisterLayout(d, ("a", "b", "k", "e")), amps)

    def test_the_cut_lies_between_the_two_weights(self):
        assert 1 - self.INSIDE >= CERTAINTY > 1 - self.OUTSIDE

    def test_remove_register(self):
        kept = remove_register(self.leaning(self.INSIDE), "e")
        assert kept.layout.labels == ("a", "b", "k")
        with pytest.raises(RegisterNotSeparable):
            remove_register(self.leaning(self.OUTSIDE), "e")

    @pytest.mark.parametrize("dense", [False, True])
    def test_search_evaluation(self, dense):
        for off, certain in ((self.INSIDE, True), (self.OUTSIDE, False)):
            def rows(d, keys):
                states = [self.leaning(off, q) for (q,) in keys.tolist()]
                return states[0].layout, np.array([state.amplitudes for state in states])

            template = RoundTemplate("leaning", 1, rows)
            if dense:
                verdict = verify_candidate(template, 3, ())
            else:
                starts = analysis._start_states(template, 3)
                verdict = analysis._evidence(starts, (), _DECODE, 1e-8)
            assert verdict.verified == certain
            for ev in verdict.evidence:
                assert ev.rank_e == 1
                assert ev.deterministic == certain
                assert ev.bob_outcome == (ev.keys[0] if certain else None)
                assert ev.residual == (0 if certain else None)

    def test_entangle_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eve_entangle(self.leaning(self.INSIDE))
        with pytest.warns(RuntimeWarning, match=r"not in \|0>"):
            eve_entangle(self.leaning(self.OUTSIDE))


def signed_rows(layout, count, seed):
    """count random rows whose real and imaginary parts include many -0.0 and +0.0."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, layout.dim)) + 1j * rng.normal(size=(count, layout.dim))
    for zero in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j):
        rows[rng.random(rows.shape) < 0.15] = zero
    rows[:, ::4] = rows[:, ::4].real - 0.0j  # signed-zero imaginary parts on nonzero reals
    return rows


class TestRowKernels:
    """The batched kernels give each row the bits of the one-row call on it."""

    CASES = [(d, n, count) for d in (2, 3, 5) for n in (1, 2, 3) for count in (1, 7, 40)
             if d ** n <= 125]

    @pytest.mark.parametrize("d,n,count", CASES)
    def test_marginal_rows_match_the_one_row_marginal(self, d, n, count):
        layout = RegisterLayout(d, ("a", "b", "c")[:n])
        rows = signed_rows(layout, count, seed=d * 100 + n * 10 + count)
        for label in layout.labels:
            split = _split(layout, label)
            batched = _marginal(rows, split)
            assert batched.shape == (count, d)
            for row, got in zip(rows, batched):
                assert got.tobytes() == PureState(layout, row).probabilities(label).tobytes()

    @pytest.mark.parametrize("d,n,count", CASES)
    def test_reduced_rows_match_partial_trace(self, d, n, count):
        layout = RegisterLayout(d, ("a", "b", "c")[:n])
        rows = signed_rows(layout, count, seed=d * 1000 + n * 10 + count)
        for size in range(1, n + 1):
            for keep in itertools.combinations(layout.labels, size):
                batched = _reduced(rows, _fold(layout, keep))
                for row, got in zip(rows, batched):
                    expected = partial_trace(PureState(layout, row), keep).entries
                    assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d,n,count", CASES)
    def test_gate_rows_match_apply_gate(self, d, n, count):
        layout = RegisterLayout(d, ("a", "b", "c")[:n])
        rows = signed_rows(layout, count, seed=d * 10000 + n * 10 + count)
        rng = np.random.default_rng(d + n + count)
        first, last = layout.labels[0], layout.labels[-1]
        gates = [GateSpec.shift(last, 1), GateSpec.phase(first, d - 1), GateSpec.fourier(last),
                 GateSpec.dense((last,), np.linalg.qr(rng.normal(size=(d, d)) + 1j)[0])]
        if n > 1:
            gates += [GateSpec.controlled_add(first, last, 1),
                      GateSpec.dense((last, first), np.linalg.qr(
                          rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))[0])]
        for gate in gates:
            batched = _gated(layout, rows, gate)
            for row, got in zip(rows, batched):
                assert got.tobytes() == apply_gate(PureState(layout, row), gate).amplitudes.tobytes()

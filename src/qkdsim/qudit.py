"""Multi-qudit pure states over named d-level registers.

Amplitudes live in a flat complex vector indexed in mixed radix, first
register label most significant.  Gates run on one of two kernels.  shift,
controlled-add and phase are monomial matrices, applied through one cached
table per (layout, gate): a source index that permutes the amplitudes
without touching their values, or the phase gate's non-unit factors.
Fourier and dense gates apply their matrix to the target axes, folded
first by a transpose cached per (layout, targets) in `_fold`; the partial
trace and the Schmidt rank fold the same way.  Every gate kind can also be
expanded to an explicit dense unitary, which doubles as an independent
cross-check path.

Every measurement (`measure`, `measurement_branches`, Eve's actions, Bob's
decode) is one Born-rule step, `_outcomes`; it and `remove_register` build
post states with `_kept`, collapsed in place or sliced over a smaller layout.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import (
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

UNITARY_TOL = 1e-10
SCHMIDT_TOL = 1e-8
SPECTRUM_FLOOR = 1e-12
# probability below which a measurement branch is treated as numerically absent
BRANCH_PRUNE = 1e-24
# a register holds a value with certainty when its weight there is at least this
CERTAINTY = 1.0 - 1e-9

GATE_KINDS = ("shift", "cadd", "phase", "fourier", "dense")


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, distinct register names sharing one dimension d."""

    d: int
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not _is_integer(self.d) or self.d < 2:
            raise InvalidDimension(f"d must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if not self.labels:
            raise ValueError("a layout needs at least one register")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"register labels must be distinct: {self.labels}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.d ** len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownRegister(f"no register {label!r} in layout {self.labels}") from None

    def axes(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Axes of the given labels in layout order."""
        return tuple(sorted(self.axis(l) for l in labels))

    def index_of(self, values: Sequence[int]) -> int:
        if len(values) != len(self.labels):
            raise ValueError(f"expected {len(self.labels)} values, got {len(values)}")
        index = 0
        for label, v in zip(self.labels, values):
            if not 0 <= v < self.d:
                raise ValueOutOfRange(f"value {v} for register {label!r} not in [0, {self.d})")
            index = index * self.d + v
        return index

    def values_of(self, index: int) -> tuple[int, ...]:
        values = []
        for _ in self.labels:
            index, v = divmod(index, self.d)
            values.append(v)
        return tuple(reversed(values))

    # insert and drop are interned: each (layout, label[, position]) is built and
    # validated once, and every state on that layout shares the same object
    @lru_cache(maxsize=256)
    def insert(self, label: str, position: int) -> "RegisterLayout":
        if label in self.labels:
            raise RegisterCollision(f"register {label!r} already present")
        if not 0 <= position <= len(self.labels):
            raise ValueOutOfRange(f"position {position} not in [0, {len(self.labels)}]")
        labels = list(self.labels)
        labels.insert(position, label)
        return RegisterLayout(self.d, tuple(labels))

    @lru_cache(maxsize=256)
    def drop(self, label: str) -> "RegisterLayout":
        ax = self.axis(label)
        return RegisterLayout(self.d, self.labels[:ax] + self.labels[ax + 1:])


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a register layout.  Immutable."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, layout needs {self.layout.dim}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, layout: RegisterLayout, amps: np.ndarray) -> "PureState":
        """Wrap a fresh flat complex128 vector of the right length, without copy or checks."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(layout=layout, amplitudes=amps)
        return state

    @property
    def tensor(self) -> np.ndarray:
        """Read-only view shaped (d, ..., d), one axis per register."""
        return self.amplitudes.reshape((self.layout.d,) * len(self.layout))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self, register: str) -> np.ndarray:
        """Born-rule marginal distribution of one register."""
        return _marginal(self.amplitudes, _split(self.layout, register))


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density operator over the kept registers."""

    layout: RegisterLayout
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(f"entries must be {self.layout.dim} x {self.layout.dim}, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues sorted in descending order."""
        return np.linalg.eigvalsh(self.entries)[::-1]

    def validate(self, hermitian_tol: float = 1e-10, trace_tol: float = 1e-12,
                 psd_floor: float = -1e-10) -> None:
        """Raise ValueError unless Hermitian, unit trace, and PSD within tolerance."""
        m = self.entries
        if np.max(np.abs(m - m.conj().T)) > hermitian_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        if np.min(np.linalg.eigvalsh(m)) < psd_floor:
            raise ValueError("density matrix has an eigenvalue below the PSD floor")


def basis_state(layout: RegisterLayout, values: Sequence[int]) -> PureState:
    """Computational basis state |values> with amplitude exactly 1."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of(values)] = 1.0
    return PureState(layout, amps)


@dataclass(frozen=True)
class GateSpec:
    """One gate: a mod-d permutation, a phase, a Fourier, or a dense unitary.

    kind is one of "shift", "cadd", "phase", "fourier", "dense"; these names
    double as the wire format used by attack scripts.
    """

    kind: str
    targets: tuple[str, ...]
    control: str | None = None
    s: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("shift", "phase", "cadd"):
            if not _is_integer(self.s):
                raise ValueError(f"{self.kind} gate needs an integer s, got {self.s!r}")
            object.__setattr__(self, "s", int(self.s))
        if self.kind in ("shift", "phase", "fourier") and len(self.targets) != 1:
            raise ValueError(f"{self.kind} gate acts on exactly one register")
        if self.kind == "cadd":
            if self.control is None or len(self.targets) != 1:
                raise ValueError("cadd gate needs a control and one target")
            if self.control == self.targets[0]:
                raise ValueError("cadd control and target must differ")
        if self.kind == "dense":
            if self.matrix is None or not self.targets:
                raise ValueError("dense gate needs targets and a matrix")
            if len(set(self.targets)) != len(self.targets):
                raise ValueError("dense gate targets must be distinct")
            m = np.array(self.matrix, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NonUnitaryMatrix(f"dense matrix must be square, got shape {m.shape}")
            dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            if dev > UNITARY_TOL:
                raise NonUnitaryMatrix(f"max |U^H U - I| = {dev:.3e} exceeds {UNITARY_TOL}")
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    @property
    def registers(self) -> tuple[str, ...]:
        """Registers touched, control first."""
        if self.control is not None:
            return (self.control,) + self.targets
        return self.targets

    @staticmethod
    def shift(target: str, s: int) -> "GateSpec":
        return GateSpec("shift", (target,), s=s)

    @staticmethod
    def controlled_add(control: str, target: str, s: int) -> "GateSpec":
        return GateSpec("cadd", (target,), control=control, s=s)

    @staticmethod
    def phase(target: str, s: int) -> "GateSpec":
        return GateSpec("phase", (target,), s=s)

    @staticmethod
    def fourier(target: str) -> "GateSpec":
        return GateSpec("fourier", (target,))

    @staticmethod
    def dense(targets: Sequence[str], matrix: np.ndarray) -> "GateSpec":
        return GateSpec("dense", tuple(targets), matrix=matrix)


def _phase_table(d: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(d) / d)


def _shift_matrix(d: int) -> np.ndarray:
    m = np.zeros((d, d))
    m[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return m


def _fourier_matrix(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def gate_unitary(gate: GateSpec, d: int) -> np.ndarray:
    """Dense matrix of the gate on its registers (control most significant)."""
    if gate.kind == "shift":
        return np.linalg.matrix_power(_shift_matrix(d), gate.s % d).astype(np.complex128)
    if gate.kind == "cadd":
        s = _shift_matrix(d)
        u = np.zeros((d * d, d * d), dtype=np.complex128)
        for c in range(d):
            u[c * d:(c + 1) * d, c * d:(c + 1) * d] = np.linalg.matrix_power(s, (gate.s * c) % d)
        return u
    if gate.kind == "phase":
        return np.diag(_phase_table(d)[(gate.s * np.arange(d)) % d])
    if gate.kind == "fourier":
        return _fourier_matrix(d)
    return gate.matrix.copy()


def to_dense(gate: GateSpec, d: int) -> GateSpec:
    """Rewrite any gate as an equivalent dense gate on the same registers."""
    return GateSpec.dense(gate.registers, gate_unitary(gate, d))


@lru_cache(maxsize=128)
def _gate_table(layout: RegisterLayout, kind: str, control: str | None, target: str,
                s: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(index, phase) of a shift, cadd or phase gate; (None, None) for the identity.

    s is already reduced mod d.  shift and cadd output amps[index]; phase
    multiplies amps[index] by phase, with index only the slots whose factor is
    not 1: multiplying by a phase of 1 would turn -0.0 into +0.0.
    """
    d = layout.d
    # strides first, so an unknown register raises even for the identity
    control_stride = None if control is None else _split(layout, control)[2]
    stride = _split(layout, target)[2]
    if s == 0:
        return None, None
    i = np.arange(layout.dim)
    tv = (i // stride) % d
    if kind == "phase":
        index = np.flatnonzero((s * tv) % d)
        phase = _phase_table(d)[(s * tv[index]) % d]
        phase.setflags(write=False)
    else:
        add = s if control_stride is None else s * ((i // control_stride) % d)
        index, phase = i + (((tv - add) % d) - tv) * stride, None
    index.setflags(write=False)
    return index, phase


def apply_gate(state: PureState, gate: GateSpec) -> PureState:
    """Apply one gate and return the new state.

    shift, cadd and phase are monomial, run from a cached table.  shift and
    cadd are pure index permutations and phase leaves its factor-1 slots
    alone, so those amplitudes are bit-identical copies of the input ones.
    fourier and dense apply their matrix to the target axes.
    """
    layout = state.layout
    d = layout.d
    if gate.kind not in ("fourier", "dense"):
        index, phase = _gate_table(layout, gate.kind, gate.control, gate.targets[0], gate.s % d)
        if index is None:
            return state
        out = state.amplitudes[index] if phase is None else state.amplitudes.copy()
        if phase is not None:
            out[index] *= phase
        return PureState._trusted(layout, out)

    matrix = _fourier_matrix(d) if gate.kind == "fourier" else gate.matrix
    perm, inverse, side = _fold(layout, gate.targets)
    if matrix.shape[0] != side:
        raise NonUnitaryMatrix(
            f"dense matrix side {matrix.shape[0]} does not match d^targets = {side}"
        )
    out = matrix @ np.transpose(state.tensor, perm).reshape(side, -1)
    out = np.transpose(out.reshape((d,) * len(layout)), inverse)
    return PureState._trusted(layout, out.reshape(-1))


@lru_cache(maxsize=256)
def _fold(layout: RegisterLayout, front: tuple[str, ...],
          ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(perm, inverse, rows): the transpose that brings the axes of the registers
    `front` first, in that order, and the rest after in layout order; its
    inverse; and d^len(front), the rows of the folded amplitude matrix."""
    axes = tuple(layout.axis(label) for label in front)
    perm = axes + tuple(a for a in range(len(layout)) if a not in axes)
    inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    return perm, inverse, layout.d ** len(front)


def apply_gate_dense(state: PureState, gate: GateSpec) -> PureState:
    """Apply the gate through its dense matrix; the slow cross-check path."""
    return apply_gate(state, to_dense(gate, state.layout.d))


def partial_trace(state: PureState, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over `keep`, labels ordered as in the layout."""
    keep = set(keep)
    if not keep:
        raise EmptyKeepSet("partial_trace needs at least one kept register")
    layout = state.layout
    axes_keep = layout.axes(keep)
    kept_labels = tuple(layout.labels[a] for a in axes_keep)
    return DensityMatrix(RegisterLayout(layout.d, kept_labels),
                         _reduced(state, _fold(layout, kept_labels)))


def schmidt_rank(state: PureState, side_a: Iterable[str], tol: float = SCHMIDT_TOL) -> int:
    """Number of Schmidt coefficients above tol across the cut side_a | rest."""
    side = set(side_a)
    labels = set(state.layout.labels)
    if not side or not side < labels:
        raise InvalidBipartition(
            f"side {sorted(side)} must be a nonempty proper subset of {sorted(labels)}"
        )
    front = tuple(label for label in state.layout.labels if label in side)
    return _rank(state, _fold(state.layout, front), tol)


def _reduced(state: PureState, fold: tuple) -> np.ndarray:
    """rho over the front axes of a _fold plan: M M^dagger of the folded amplitudes."""
    perm, _, rows = fold
    folded = np.transpose(state.tensor, perm).reshape(rows, -1)
    return folded @ folded.conj().T


def _rank(state: PureState, fold: tuple, tol: float) -> int:
    """Singular values above tol of the amplitudes folded by a _fold plan."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    perm, _, rows = fold
    folded = np.transpose(state.tensor, perm).reshape(rows, -1)
    return int(np.count_nonzero(np.linalg.svd(folded, compute_uv=False) > tol))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy with base-d logarithm; a maximally mixed qudit scores 1."""
    return _entropy(np.linalg.eigvalsh(rho.entries), rho.layout.d)


def _entropy(eigs: np.ndarray, d: int) -> float:
    """Base-d entropy of an ascending eigenvalue array, as von_neumann_entropy takes it."""
    eigs = eigs[eigs > SPECTRUM_FLOOR]
    return float(-np.sum(eigs * np.log(eigs)) / np.log(d))


@lru_cache(maxsize=256)
def _split(layout: RegisterLayout, register: str) -> tuple[int, int, int]:
    """Shape (pre, d, post) that folds the amplitudes around one register's axis."""
    ax = layout.axis(register)
    return layout.d ** ax, layout.d, layout.d ** (len(layout) - 1 - ax)


def _marginal(amps: np.ndarray, split: tuple[int, int, int]) -> np.ndarray:
    return np.add.reduce((np.abs(amps) ** 2).reshape(split), axis=(0, 2))


def _kept(state: PureState, split: tuple[int, int, int], value: int, p: float,
          layout: RegisterLayout) -> PureState:
    """The amplitudes at `value` of the split's middle axis divided by sqrt(p): in a
    zeroed vector over the same layout (collapse), or alone over `layout` when it
    lacks that register (slice)."""
    kept = state.amplitudes.reshape(split)[:, value, :]
    if len(layout.labels) < len(state.layout.labels):
        out = dest = np.empty(kept.shape, np.complex128)
    else:
        out = np.zeros(split, np.complex128)
        dest = out[:, value, :]
    scale = math.sqrt(p)
    if scale != 1.0:
        np.divide(kept, scale, out=dest)
    else:
        # complex division by 1 would turn -0.0 real parts into +0.0
        dest[...] = kept
    return PureState._trusted(layout, out.reshape(-1))


def _outcomes(state: PureState, register: str, rng: np.random.Generator | None,
              drop: bool = False) -> list[tuple[int, float, PureState]]:
    """The one Born-rule step, as (outcome, weight, post state) triples.

    With an rng, one outcome drawn at weight 1.0; with None, every outcome above
    BRANCH_PRUNE at its probability.  Each post state is collapsed onto its
    outcome, or with `drop` sliced at it over the layout without `register`.
    """
    split = _split(state.layout, register)
    layout = state.layout.drop(register) if drop else state.layout
    probs = _marginal(state.amplitudes, split).tolist()
    if rng is None:
        return [(v, p, _kept(state, split, v, p, layout))
                for v, p in enumerate(probs) if p > BRANCH_PRUNE]
    # inverse-CDF draw on Python floats, cheaper than numpy calls on d values:
    # the running sum rounds as np.cumsum does, bisect_right is
    # searchsorted(side="right"), and min() clamps a u * total that rounds up to total
    edges = list(accumulate(probs))
    outcome = min(bisect_right(edges, rng.random() * edges[-1]), len(edges) - 1)
    return [(outcome, 1.0, _kept(state, split, outcome, probs[outcome], layout))]


def measurement_branches(state: PureState, register: str) -> list[tuple[int, float, PureState]]:
    """All nonzero-probability outcomes of a computational measurement.

    Returns (outcome, probability, renormalized post state) triples; the
    measured register stays in the layout, collapsed to its outcome.
    """
    return _outcomes(state, register, None)


def measure(state: PureState, register: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """Sample one outcome by the Born rule; deterministic given the rng state."""
    [(outcome, _, post)] = _outcomes(state, register, rng)
    return outcome, post


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-12) -> bool:
    """True when |<a|b>| >= 1 - tol.  Both states must be normalized."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout.labels} vs {b.layout.labels}")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def insert_register(state: PureState, label: str, value: int, position: int) -> PureState:
    """Adjoin a fresh register in basis state |value> at the given position."""
    layout = state.layout
    if not 0 <= value < layout.d:
        raise ValueOutOfRange(f"value {value} not in [0, {layout.d})")
    new_layout = layout.insert(label, position)
    shape = (layout.d,) * len(new_layout)
    out = np.zeros(shape, dtype=np.complex128)
    out[(slice(None),) * position + (value,)] = state.tensor
    return PureState._trusted(new_layout, out.reshape(-1))


def _certain_value(state: PureState, register: str) -> int | None:
    """The register's value if it holds one with weight >= CERTAINTY, else None."""
    probs = state.probabilities(register)
    value = int(np.argmax(probs))
    return value if probs[value] >= CERTAINTY else None


def remove_register(state: PureState, label: str) -> PureState:
    """Drop a register that holds one basis value with certainty (CERTAINTY).

    Raises RegisterNotSeparable otherwise; no renormalization is performed.
    """
    value = _certain_value(state, label)
    if value is None:
        raise RegisterNotSeparable(f"register {label!r} holds several basis values")
    return _kept(state, _split(state.layout, label), value, 1.0, state.layout.drop(label))

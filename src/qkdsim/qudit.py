"""Multi-qudit pure states over named d-level registers.

Amplitudes live in a flat complex vector indexed in mixed radix, first
register label most significant.  Gates run on one of two kernels.  shift,
controlled-add and phase are monomial matrices, applied through one cached
table per (layout, gate): a source index that permutes the amplitudes
without touching their values, and a phase vector for the phase gate.
Fourier and dense gates apply their matrix to the target axes.  Every gate
kind can also be expanded to an explicit dense unitary, which doubles as an
independent cross-check path.
"""

from __future__ import annotations

import math
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

GATE_KINDS = ("shift", "cadd", "phase", "fourier", "dense")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, distinct register names sharing one dimension d."""

    d: int
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not isinstance(self.d, int) or self.d < 2:
            raise InvalidDimension(f"register dimension must be an int >= 2, got {self.d!r}")
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

    def insert(self, label: str, position: int) -> "RegisterLayout":
        if label in self.labels:
            raise RegisterCollision(f"register {label!r} already present")
        labels = list(self.labels)
        labels.insert(position, label)
        return RegisterLayout(self.d, tuple(labels))

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
        if self.kind in ("shift", "phase", "cadd") and not isinstance(self.s, int):
            raise ValueError(f"{self.kind} gate needs an integer parameter s")
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
        return GateSpec("shift", (target,), s=int(s))

    @staticmethod
    def controlled_add(control: str, target: str, s: int) -> "GateSpec":
        return GateSpec("cadd", (target,), control=control, s=int(s))

    @staticmethod
    def phase(target: str, s: int) -> "GateSpec":
        return GateSpec("phase", (target,), s=int(s))

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
    """(source index or None, phase vector or None) of a shift, cadd or phase gate.

    s is already reduced mod d.  The output amplitudes are
    amps[source] * phase, with a factor left out (None) where it is the
    identity: multiplying by a phase of 1 would turn -0.0 into +0.0.
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
        source, phase = None, _phase_table(d)[(s * tv) % d]
        phase.setflags(write=False)
    else:
        add = s if control_stride is None else s * ((i // control_stride) % d)
        source, phase = i + (((tv - add) % d) - tv) * stride, None
        source.setflags(write=False)
    return source, phase


def apply_gate(state: PureState, gate: GateSpec) -> PureState:
    """Apply one gate and return the new state.

    shift, cadd and phase are monomial: a cached source index and phase
    vector.  shift and cadd are pure index permutations, so the output
    amplitudes are bit-identical copies of the input ones.  fourier and
    dense apply their matrix to the target axes.
    """
    layout = state.layout
    d = layout.d
    if gate.kind not in ("fourier", "dense"):
        source, phase = _gate_table(layout, gate.kind, gate.control, gate.targets[0], gate.s % d)
        if source is None and phase is None:
            return state
        out = state.amplitudes if source is None else state.amplitudes[source]
        if phase is not None:
            out = out * phase
        return PureState._trusted(layout, out)

    matrix = _fourier_matrix(d) if gate.kind == "fourier" else gate.matrix
    axes = tuple(layout.axis(t) for t in gate.targets)
    side = d ** len(axes)
    if matrix.shape[0] != side:
        raise NonUnitaryMatrix(
            f"dense matrix side {matrix.shape[0]} does not match d^targets = {side}"
        )
    rest = tuple(a for a in range(len(layout)) if a not in axes)
    perm = axes + rest
    folded = np.transpose(state.tensor, perm).reshape(side, -1)
    out = matrix @ folded
    inverse = np.argsort(perm)
    out = np.transpose(out.reshape((d,) * len(layout)), inverse)
    return PureState._trusted(layout, out.reshape(-1))


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
    axes_drop = tuple(a for a in range(len(layout)) if a not in axes_keep)
    folded = np.transpose(state.tensor, axes_keep + axes_drop)
    folded = folded.reshape(layout.d ** len(axes_keep), -1)
    rho = folded @ folded.conj().T
    return DensityMatrix(RegisterLayout(layout.d, kept_labels), rho)


def schmidt_rank(state: PureState, side_a: Iterable[str], tol: float = SCHMIDT_TOL) -> int:
    """Number of Schmidt coefficients above tol across the cut side_a | rest."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    side = set(side_a)
    labels = set(state.layout.labels)
    if not side or not side < labels:
        raise InvalidBipartition(
            f"side {sorted(side)} must be a nonempty proper subset of {sorted(labels)}"
        )
    layout = state.layout
    axes_a = layout.axes(side)
    axes_b = tuple(a for a in range(len(layout)) if a not in axes_a)
    folded = np.transpose(state.tensor, axes_a + axes_b).reshape(layout.d ** len(axes_a), -1)
    singular = np.linalg.svd(folded, compute_uv=False)
    return int(np.count_nonzero(singular > tol))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy with base-d logarithm; a maximally mixed qudit scores 1."""
    eigs = np.linalg.eigvalsh(rho.entries)
    eigs = eigs[eigs > SPECTRUM_FLOOR]
    return float(-np.sum(eigs * np.log(eigs)) / np.log(rho.layout.d))


@lru_cache(maxsize=256)
def _split(layout: RegisterLayout, register: str) -> tuple[int, int, int]:
    """Shape (pre, d, post) that folds the amplitudes around one register's axis."""
    ax = layout.axis(register)
    return layout.d ** ax, layout.d, layout.d ** (len(layout) - 1 - ax)


def _marginal(amps: np.ndarray, split: tuple[int, int, int]) -> np.ndarray:
    return np.add.reduce((np.abs(amps) ** 2).reshape(split), axis=(0, 2))


def _projected(state: PureState, split: tuple[int, int, int], value: int,
               amplitude_scale: float) -> PureState:
    out = np.zeros(state.amplitudes.size, np.complex128)
    kept, dest = state.amplitudes.reshape(split)[:, value, :], out.reshape(split)[:, value, :]
    if amplitude_scale != 1.0:
        np.divide(kept, amplitude_scale, out=dest)
    else:
        # complex division by 1 would turn -0.0 real parts into +0.0
        dest[...] = kept
    return PureState._trusted(state.layout, out)


def measurement_branches(state: PureState, register: str) -> list[tuple[int, float, PureState]]:
    """All nonzero-probability outcomes of a computational measurement.

    Returns (outcome, probability, renormalized post state) triples; the
    measured register stays in the layout, collapsed to its outcome.
    """
    split = _split(state.layout, register)
    branches = []
    for v, p in enumerate(_marginal(state.amplitudes, split).tolist()):
        if p <= BRANCH_PRUNE:
            continue
        branches.append((v, p, _projected(state, split, v, math.sqrt(p))))
    return branches


def measure(state: PureState, register: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """Sample one outcome by the Born rule; deterministic given the rng state."""
    split = _split(state.layout, register)
    probs = _marginal(state.amplitudes, split).tolist()
    # inverse-CDF draw on Python floats, cheaper than numpy calls on d values:
    # the running sum rounds as np.cumsum does, and the first edge above
    # u * total is the one searchsorted(side="right") finds
    edges = list(accumulate(probs))
    threshold = rng.random() * edges[-1]
    outcome = len(edges) - 1  # when u * total rounds up to total, clamp to d - 1
    for v, edge in enumerate(edges):
        if edge > threshold:
            outcome = v
            break
    return outcome, _projected(state, split, outcome, math.sqrt(probs[outcome]))


def _outcomes(state: PureState, register: str, rng: np.random.Generator | None,
              ) -> list[tuple[int, float, PureState]]:
    """The sampling policy: one outcome drawn by the rng at weight 1.0, or all for None."""
    if rng is None:
        return measurement_branches(state, register)
    outcome, post = measure(state, register, rng)
    return [(outcome, 1.0, post)]


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
    return PureState(new_layout, out.reshape(-1))


def remove_register(state: PureState, label: str, tol: float = 1e-9) -> PureState:
    """Drop a register that is confined to a single basis value.

    Raises RegisterNotSeparable when the register still carries weight on
    more than one value; no renormalization is performed.
    """
    layout = state.layout
    ax = layout.axis(label)
    probs = state.probabilities(label)
    value = int(np.argmax(probs))
    if probs[value] < 1.0 - tol:
        raise RegisterNotSeparable(
            f"register {label!r} holds several basis values (max weight {probs[value]:.6f})"
        )
    sliced = state.tensor[(slice(None),) * ax + (value,)]
    return PureState(layout.drop(label), sliced.reshape(-1))

"""Multi-qudit pure states over named d-level registers.

Amplitudes live in a flat complex vector indexed in mixed radix, first
register label most significant.  The kernels run on rows: amplitudes shaped
(..., dim), one row per branch of a session stage, and each public function
on one PureState is their one-row view.  Gates run on one of two kernels
(`_gated`).  shift, controlled-add and phase are monomial, applied through one
cached table per (layout, gate): a gather that permutes the amplitudes without
touching their values, or the phase gate's non-unit factors.  Fourier and
dense gates apply their matrix to every row's target axes, folded by a
transpose cached per (layout, targets) in `_fold`; the partial trace and the
Schmidt rank fold the same way.  Every gate kind can also be expanded to an
explicit dense unitary, an independent cross-check path.

Every measurement is one Born-rule step: `_marginal` over all rows, then
either `_draw`, one outcome drawn from the marginal's `_draws` table with an
rng (`measure`; a session's draws are `protocol._Steps.measure`), or
`_outcomes`, each outcome above BRANCH_PRUNE kept (exactly certain when every
row keeps one), and `_kept` to build the post rows, collapsed in place or
sliced over a smaller layout.  The Schmidt-rank cutoff (`_ranks`, one
batched SVD) and the CERTAINTY rule (`_certain_values`) run on rows too.
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
    MissingRegister,
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
# the most bytes one batch of stacked rows may take: block differences in
# adversary._distances, sequences in analysis._level_exits
_CHUNK_BYTES = 128 * 1024

GATE_KINDS = ("shift", "cadd", "phase", "fourier", "dense")


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_value(value, label: str, d: int) -> None:
    """The one rule for a register value: an integer (not a bool) in [0, d)."""
    if not _below(value, d):
        raise ValueOutOfRange(f"value {value!r} for register {label!r} not in [0, {d})")


def _check_index(index, dim: int) -> None:
    """The same rule for a flat amplitude index: an integer (not a bool) in [0, dim)."""
    if not _below(index, dim):
        raise ValueOutOfRange(f"index {index!r} not in [0, {dim})")


def _below(value, bound: int) -> bool:
    return _is_integer(value) and 0 <= value < bound


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
        # every lru_cache lookup a layout keys hashes it; equality stays field by field
        object.__setattr__(self, "_hash", hash((self.d, self.labels)))

    def __hash__(self) -> int:
        return self._hash

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
            _check_value(v, label, self.d)
            index = index * self.d + v
        return index

    def values_of(self, index: int) -> tuple[int, ...]:
        _check_index(index, self.dim)
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
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

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

    def validate(self) -> None:
        """Raise ValueError unless Hermitian, unit trace, and PSD within fixed tolerances."""
        m = self.entries
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
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
            if not np.isfinite(m).all():  # NaN would pass the check below: nan > tol is false
                at = tuple(np.argwhere(~np.isfinite(m))[0].tolist())
                raise NonUnitaryMatrix(f"dense matrix entry {at} is {m[at]}, not finite")
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
    """Apply one gate and return the new state, the one-row view of _gated."""
    out = _gated(state.layout, state.amplitudes, gate)
    return state if out is state.amplitudes else PureState._trusted(state.layout, out)


def _gated(layout: RegisterLayout, amps: np.ndarray, gate: GateSpec) -> np.ndarray:
    """One gate on every row of amps, (..., dim); amps itself for the identity.

    shift, cadd and phase run from a cached table: a gather, which copies the
    amplitudes bit for bit, and for phase a multiply of the slots whose factor
    is not 1.  fourier and dense apply their matrix to each row's target axes.
    """
    d = layout.d
    if gate.kind not in ("fourier", "dense"):
        index, phase = _gate_table(layout, gate.kind, gate.control, gate.targets[0], gate.s % d)
        if index is None or phase is None:
            return amps if index is None else amps.take(index, -1)
        out = amps.copy()
        out[..., index] *= phase
        return out
    matrix = _fourier_matrix(d) if gate.kind == "fourier" else gate.matrix
    _check_side(gate, d)
    shape, _, inverse, _ = fold = _fold(layout, gate.targets)
    out = (matrix @ _folded(amps, fold)).reshape(shape)
    return np.transpose(out, inverse).reshape(amps.shape)


def _check_side(gate: GateSpec, d: int, where: str = "") -> None:
    """The one rule for a dense gate's matrix: its side is d^len(targets)."""
    side = d ** len(gate.targets)
    if gate.kind == "dense" and gate.matrix.shape[0] != side:
        raise NonUnitaryMatrix(f"{where}dense gate on {list(gate.targets)}: matrix side "
                               f"{gate.matrix.shape[0]} does not match d^targets = {side}")


@lru_cache(maxsize=256)
def _fold(layout: RegisterLayout, front: tuple[str, ...],
          ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """(shape, perm, inverse, rows): shape (-1, d, ..., d) gives each amplitude
    row one axis per register; perm keeps the row axis first, brings the axes
    of the registers `front` next, in that order, and the rest after in layout
    order; inverse undoes perm; d^len(front) rows in each folded matrix."""
    axes = tuple(layout.axis(label) + 1 for label in front)
    perm = (0,) + axes + tuple(a for a in range(1, len(layout) + 1) if a not in axes)
    inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    return (-1,) + (layout.d,) * len(layout), perm, inverse, layout.d ** len(front)


def _folded(amps: np.ndarray, fold: tuple) -> np.ndarray:
    """Amplitude rows (..., dim) folded by a _fold plan, as (B, rows, rest)."""
    shape, perm, _, rows = fold
    folded = np.transpose(amps.reshape(shape), perm)
    return folded.reshape(len(folded), rows, -1)


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
                         _reduced(state.amplitudes, _fold(layout, kept_labels))[0])


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


def _reduced(amps: np.ndarray, fold: tuple) -> np.ndarray:
    """rho over the front axes of a _fold plan for every row of amps, (..., dim):
    M M^dagger of each row's folded amplitudes, as a (B, rows, rows) array."""
    folded = _folded(amps, fold)
    return folded @ folded.conj().mT


def _check_tol(tol: float) -> None:
    """The one rule for a Schmidt-rank cutoff: an int, a float or a numpy integer or
    floating value, not a bool, with 0 < tol < inf."""
    if (not isinstance(tol, (int, float, np.integer, np.floating)) or isinstance(tol, bool)
            or not 0 < tol < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _ranks(amps: np.ndarray, fold: tuple, tol: float) -> np.ndarray:
    """For each row of amps, (..., dim): its singular values above tol, folded by a
    _fold plan, from one batched SVD."""
    _check_tol(tol)
    return (np.linalg.svd(_folded(amps, fold), compute_uv=False) > tol).sum(-1)


def _rank(state: PureState, fold: tuple, tol: float) -> int:
    """The one-row view of _ranks."""
    return int(_ranks(state.amplitudes, fold, tol)[0])


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
    """Born-rule marginal of the split's middle register for each row of amps, (..., dim)."""
    return np.add.reduce((np.abs(amps) ** 2).reshape(amps.shape[:-1] + split), axis=(-3, -1))


def _outcomes(marginals: np.ndarray) -> tuple:
    """Every (row, outcome) above BRANCH_PRUNE of (B, d) marginals, row-major, as
    arrays (rows, values, probs).  Each row is normalized, so it keeps at least one
    outcome; when every row keeps exactly one, that outcome is certain and its
    probability is exactly 1.0, not the marginal's rounded sum.  A batch where some
    row keeps more than one keeps every marginal as it is.
    """
    kept = marginals > BRANCH_PRUNE
    rows, values = kept.nonzero()
    certain = len(rows) == len(marginals)  # one outcome kept in every row
    return rows, values, np.ones(len(rows)) if certain else marginals[kept]


def _draws(marginal: np.ndarray) -> tuple[list, list]:
    """The draw table of one row's marginal: its running sums and its probabilities, as
    Python floats, cheaper to draw from than numpy calls on d values.  The running sum
    rounds as np.cumsum does."""
    probs = marginal.ravel().tolist()
    return [*accumulate(probs)], probs


def _check_rng(rng) -> None:
    """The one rule for a sampling rng: a numpy Generator; nothing stands in for one."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {rng!r}")


def _draw(draws: tuple[list, list], rng: np.random.Generator) -> tuple[int, float]:
    """The one inverse-CDF draw from a draw table: (value, its probability) for one
    rng.random().  bisect_right is searchsorted(side="right"), and a u * total that
    rounds up to total is clamped to the last value."""
    edges, probs = draws
    value = bisect_right(edges, rng.random() * edges[-1])
    if value == len(edges):
        value -= 1
    return value, probs[value]


@lru_cache(maxsize=256)
def _slots(split: tuple[int, int, int]) -> np.ndarray:
    """Row v: the flat positions of value v of the split's middle axis."""
    table = np.arange(math.prod(split)).reshape(split).transpose(1, 0, 2).reshape(split[1], -1)
    table.setflags(write=False)
    return table


def _kept(amps: np.ndarray, split: tuple[int, int, int], rows, values, probs,
          drop: bool) -> np.ndarray:
    """Post-measurement rows for an _outcomes choice on amps, (..., dim): row
    rows[i] at values[i] of the split's middle axis over sqrt(probs[i]), in a
    zeroed row, or alone with `drop`; with rows None, the one row at one value
    and its probability, a `_draw` or a certain value.  Division by exactly 1 is
    skipped: it would turn -0.0 into +0.0."""
    if rows is None:
        index = _slots(split)[values]
        kept, scale = amps.reshape(-1)[index], math.sqrt(probs)
        if scale != 1.0:
            kept /= scale
        if drop:
            return kept.reshape(amps.shape[:-1] + (-1,))
        out = np.zeros(amps.shape, np.complex128)
        out.reshape(-1)[index] = kept
        return out
    kept = amps.reshape((len(amps),) + split)[rows, :, values, :]
    scale = np.sqrt(probs)[:, None, None]
    np.divide(kept, scale, out=kept, where=scale != 1.0)
    if not drop:
        out, kept = kept, np.zeros((len(rows),) + split, np.complex128)
        kept[np.arange(len(rows)), :, values, :] = out
    return kept.reshape(len(rows), -1)


def measurement_branches(state: PureState, register: str) -> list[tuple[int, float, PureState]]:
    """All nonzero-probability outcomes of a computational measurement.

    Returns (outcome, probability, renormalized post state) triples; the
    measured register stays in the layout, collapsed to its outcome.
    """
    split, amps = _split(state.layout, register), state.amplitudes[None]
    rows, values, probs = _outcomes(_marginal(amps, split))
    return [(v, p, PureState._trusted(state.layout, post)) for v, p, post in
            zip(values.tolist(), probs.tolist(), _kept(amps, split, rows, values, probs, False))]


def measure(state: PureState, register: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """Sample one outcome by the Born rule; deterministic given the rng state."""
    _check_rng(rng)
    split = _split(state.layout, register)
    value, p = _draw(_draws(_marginal(state.amplitudes, split)), rng)
    return value, PureState._trusted(state.layout,
                                     _kept(state.amplitudes, split, None, value, p, False))


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-12) -> bool:
    """True when |<a|b>| >= 1 - tol.  Both states must be normalized."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout.labels} vs {b.layout.labels}")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def insert_register(state: PureState, label: str, value: int, position: int) -> PureState:
    """Adjoin a fresh register in basis state |value> at the given position."""
    layout = state.layout
    _check_value(value, label, layout.d)
    new_layout = layout.insert(label, position)
    return PureState._trusted(new_layout, _inserted(state.amplitudes, new_layout, label, value))


def _inserted(amps: np.ndarray, layout: RegisterLayout, label: str, value) -> np.ndarray:
    """Rows of amps, (..., dim), with `label` in |value>, or one value per row, over `layout`."""
    pre, d, post = _split(layout, label)
    out = np.zeros(amps.shape[:-1] + (pre, d, post), dtype=np.complex128)
    rows = (np.arange(len(value)), slice(None)) if isinstance(value, np.ndarray) else (...,)
    out[rows + (value, slice(None))] = amps.reshape(amps.shape[:-1] + (pre, post))
    return out.reshape(amps.shape[:-1] + (-1,))


def _require(state: PureState, *labels: str) -> None:
    """The one refusal of a state that lacks a register an operation needs."""
    for label in labels:
        if label not in state.layout.labels:
            raise MissingRegister(f"state has no register {label!r}")


def _certain_values(amps: np.ndarray, split: tuple[int, int, int]) -> list[int | None]:
    """For each row of amps, (B, dim): the value of the split's middle register if it
    holds one with weight >= CERTAINTY, else None."""
    probs = _marginal(amps, split)
    return [v if row[v] >= CERTAINTY else None
            for row, v in zip(probs.tolist(), probs.argmax(-1).tolist())]


def _certain_value(state: PureState, register: str) -> int | None:
    """The one-row view of _certain_values."""
    return _certain_values(state.amplitudes[None], _split(state.layout, register))[0]


def remove_register(state: PureState, label: str) -> PureState:
    """Drop a register that holds one basis value with certainty (CERTAINTY).

    Raises RegisterNotSeparable otherwise; no renormalization is performed.
    """
    value = _certain_value(state, label)
    if value is None:
        raise RegisterNotSeparable(f"register {label!r} holds several basis values")
    return PureState._trusted(state.layout.drop(label), _kept(
        state.amplitudes, _split(state.layout, label), None, value, 1.0, True))

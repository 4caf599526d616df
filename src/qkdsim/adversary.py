"""Eavesdropper model: scripted actions on the flying qudit and her memory.

Eve may touch the key qudit "k" while it is in transit and any register she
owns (labelled "e", "e2", ...), never the carrier halves "a" and "b".
Scripts are static: a map from round index to actions, each tagged with a
timing slot ("pre_bob" while k travels, "post_decode" afterwards).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import (
    ConfigError,
    ExplosionGuard,
    IllegalRegisterAccess,
    InvariantViolation,
    NonUnitaryMatrix,
    UnknownPreset,
)
from .qudit import (
    _CHUNK_BYTES,
    DensityMatrix,
    GateSpec,
    PureState,
    RegisterLayout,
    _certain_value,
    _fold,
    _fourier_matrix,
    _is_integer,
    _reduced,
    _require,
    apply_gate,
)

TIMINGS = ("pre_bob", "post_decode")
PRESETS = ("none", "persistent_entangle", "reply_odd_stop_restart", "intercept_resend")
PROTECTED_REGISTERS = ("a", "b")

# stream label separating Eve's compile-time randomness from session sampling
_BASIS_STREAM = 0x0B

# most key-tuple pairs eve_conditional_states may compare: its report takes
# about 240 B a pair, so this is about 1 GB (d^rounds <= 2,896)
PAIR_CAP = 2 ** 22


@dataclass(frozen=True)
class EveAction:
    """One scripted step: either a gate or a computational measurement."""

    timing: str
    gate: GateSpec | None = None
    measure: str | None = None

    def __post_init__(self):
        if self.timing not in TIMINGS:
            raise ValueError(f"timing must be one of {TIMINGS}, got {self.timing!r}")
        if (self.gate is None) == (self.measure is None):
            raise ValueError("an action is exactly one of gate or measure")
        for reg in self.registers:
            if reg in PROTECTED_REGISTERS:
                raise IllegalRegisterAccess(f"eavesdropper cannot touch register {reg!r}")

    @property
    def registers(self) -> tuple[str, ...]:
        if self.gate is not None:
            return self.gate.registers
        return (self.measure,)

    @staticmethod
    def apply(gate: GateSpec, timing: str = "pre_bob") -> "EveAction":
        return EveAction(timing, gate=gate)

    @staticmethod
    def measurement(register: str, timing: str = "pre_bob") -> "EveAction":
        return EveAction(timing, measure=register)


@dataclass(frozen=True)
class AttackScript:
    """Immutable map: round index -> ordered actions."""

    rounds: Mapping[int, tuple[EveAction, ...]]

    def __post_init__(self):
        normalized, keys = {}, {}
        for round_index, actions in self.rounds.items():
            try:  # int() alone would also take a float, a bool, "1_0" or non-ASCII digits
                if not (_is_integer(round_index) or isinstance(round_index, str)
                        and round_index.isascii() and "_" not in round_index):
                    raise ValueError
                r = int(round_index)
            except ValueError:
                raise ConfigError(f"round key {round_index!r} is not an integer") from None
            if r < 1:
                raise ConfigError(f"round indices start at 1, got {r}")
            if r in normalized:
                raise ConfigError(
                    f"round keys {keys[r]!r} and {round_index!r} both name round {r}")
            normalized[r], keys[r] = tuple(actions), round_index
        object.__setattr__(self, "rounds", normalized)
        # actions(r, timing) is a lookup; an absent slot holds no actions
        object.__setattr__(self, "_slots", {
            (r, timing): tuple(a for a in actions if a.timing == timing)
            for r, actions in normalized.items() for timing in TIMINGS})

    def actions(self, round_index: int, timing: str) -> tuple[EveAction, ...]:
        return self._slots.get((round_index, timing), ())


EMPTY_SCRIPT = AttackScript({})


def eve_entangle(state: PureState) -> PureState:
    """Copy the flying qudit's value into Eve's memory "e" by a mod-d add.

    Warns when the memory register is not resting in |0>; the operation is
    still applied.
    """
    _require(state, "k", "e")
    if _certain_value(state, "e") != 0:
        warnings.warn("memory register 'e' is not in |0>; entangling anyway",
                      RuntimeWarning, stacklevel=2)
    return apply_gate(state, GateSpec.controlled_add("k", "e", 1))


def eve_disentangle(state: PureState) -> PureState:
    """Inverse of eve_entangle: subtract the flying qudit from the memory "e"."""
    _require(state, "k", "e")
    return apply_gate(state, GateSpec.controlled_add("k", "e", state.layout.d - 1))


def compile_schedule(preset: str, config) -> AttackScript:
    """Expand a named attack preset into a concrete script for this config.

    The intercept_resend preset draws one measurement basis per round
    (computational or Fourier) from the config seed, so compilation is
    deterministic per (preset, config).  Each distinct action is built once
    and shared by every round that uses it.
    """
    d = config.d
    if preset == "none":
        return AttackScript({})
    if preset == "persistent_entangle":
        return AttackScript({1: (EveAction.apply(GateSpec.controlled_add("k", "e", 1)),)})
    if preset == "reply_odd_stop_restart":
        tap_and_release = (
            EveAction.apply(GateSpec.controlled_add("k", "e", 1)),
            EveAction.apply(GateSpec.controlled_add("k", "e", d - 1)),
        )
        return AttackScript({r: tap_and_release for r in range(1, config.rounds + 1, 2)})
    if preset == "intercept_resend":
        rng = np.random.default_rng([_BASIS_STREAM, config.seed])
        fourier = _fourier_matrix(d)
        measure = EveAction.measurement("k")
        direct = (measure,)
        rotated = (
            EveAction.apply(GateSpec.dense(("k",), fourier.conj().T)),
            measure,
            EveAction.apply(GateSpec.dense(("k",), fourier)),
        )
        # numpy spends one 32-bit word on each bounded draw, so one call gives the bases
        # and the generator state of one rng.integers(2) per round
        bases = rng.integers(2, size=config.rounds).tolist()
        return AttackScript({r: direct if basis == 0 else rotated
                             for r, basis in enumerate(bases, start=1)})
    raise UnknownPreset(f"unknown attack preset {preset!r}; known: {PRESETS}")


@dataclass(frozen=True)
class ConditionalStatesReport:
    """Eve's view conditioned on each full key assignment.

    blocks[key_tuple] maps her classical record tuple to an unnormalized,
    read-only density block on her quantum registers (weights sum to 1 per key
    tuple).  Distances are trace distances over the joint classical-quantum
    state.

    Eve never acts on the carrier halves a and b, and nothing touches the
    carrier between rounds, so relabelling the carrier values j -> j + c
    (the pair sum_j |j, j> is invariant under X^c (x) X^c) turns her view of
    the key tuple q + c (1, ..., 1) into her view of q, for every script.  So
    each round's key value alone is perfectly hidden: per_round_max_distance,
    the largest distance between the round-r marginals of two key values, is
    exactly 0 in every round, and only key differences can leak.
    """

    d: int
    rounds: int
    eve_registers: tuple[str, ...]
    states: dict
    blocks: dict
    pairwise_distances: dict
    max_pairwise_distance: float
    per_round_max_distance: tuple[float, ...]


def _distances(block_dicts: list) -> np.ndarray:
    """Trace distance between block_dicts[a] and block_dicts[b] for every ordered pair
    (a, b), as an (n, n) table.

    Records are visited in sorted order (they hold strings, so set order would
    change with the hash seed) and each cell adds its record sums in that order:
    the same bits as summing |eigvalsh(a.get(r, 0) - b.get(r, 0))| record by
    record.  Each record stacks only the dicts that hold it; a holder's own
    spectrum fills its cells against the dicts that lack the record.
    """
    holders: dict = {}
    for i, blocks in enumerate(block_dicts):
        for record, block in blocks.items():
            holders.setdefault(record, []).append((i, block))
    n = len(block_dicts)
    table = np.zeros((n, n))
    for record in sorted(holders):
        index, blocks = zip(*holders[record])
        index, stack, count = np.array(index), np.stack(blocks), len(index) ** 2
        chunk = max(1, _CHUNK_BYTES // stack[0].nbytes)
        for start in range(0, count, chunk):  # holders x holders, row-major
            a, b = np.divmod(np.arange(start, min(start + chunk, count)), len(index))
            difference = stack[a]
            difference -= stack[b]
            table[index[a], index[b]] += np.abs(np.linalg.eigvalsh(difference)).sum(axis=-1)
        others = np.delete(np.arange(n), index)
        if len(others):  # the lacking side takes 0 - B, not -B, whose zeros have the other sign
            own, negated = np.abs(np.linalg.eigvalsh(np.stack((stack, 0 - stack)))).sum(axis=-1)
            table[index[:, None], others] += own[:, None]
            table[others[:, None], index] += negated
    return 0.5 * table


def _blocks(stage, eve_regs: tuple[str, ...]) -> dict:
    """Eve's cq state per key prefix (first outcome column): prefix -> record -> read-only
    sum of p rho_Eve over its rows, records in order of first row, summed from 0 in row order."""
    probs = stage.probs[:, None, None]
    if eve_regs:
        rho = _reduced(stage.amps, _fold(stage.layout, eve_regs)) * probs
    else:
        rho = probs.astype(np.complex128)
    groups: dict = {}
    group = [groups.setdefault(row, len(groups)) for row in map(tuple, stage.outcomes.tolist())]
    sums = np.zeros((len(groups),) + rho.shape[1:], dtype=np.complex128)
    np.add.at(sums, group, rho)
    sums.flags.writeable = False  # shared by every key tuple of the orbit
    prefixes: dict = {}
    for row, block in zip(groups, sums):
        record = tuple((r, reg, v) for (r, reg), v in zip(stage.header[1:], row[1:]))
        prefixes.setdefault(row[0], {})[record] = block
    return prefixes


def _prefix_runs(stage, d: int, limit: int):
    """(run, key per row): a stage's rows once per key value q, prefix p (first outcome column)
    as p d + q, in runs of equally many whole prefixes within limit rows, or of one."""
    n = len(stage.probs)
    ends = np.flatnonzero(np.diff(stage.outcomes[:, 0], append=-1)) + 1  # of each block
    ends = (ends + n * np.arange(d)[:, None]).ravel()  # of each block, q by q
    per_run = max(1, limit // np.diff(ends, prepend=0).max())
    for part in np.split(np.arange(n * d), ends[per_run - 1:-1:per_run]):
        q, rows = np.divmod(part, n)
        outcomes = np.column_stack((stage.outcomes[rows, 0] * d + q, stage.outcomes[rows, 1:]))
        yield stage._replace(amps=stage.amps[rows], probs=stage.probs[rows], outcomes=outcomes), q


def eve_conditional_states(config, script: AttackScript | None = None) -> ConditionalStatesReport:
    """Exact conditional states of Eve for every key assignment.

    Measurements are expanded over all outcome branches rather than sampled,
    so each conditional state is the true mixture of record and memory.  By
    the carrier-shift symmetry (see ConditionalStatesReport) only the
    representative q - q1 (1, ..., 1) of each key tuple q runs, and each pair
    of key tuples reads its distance from one table over the ordered pairs of
    representatives.
    """
    from . import protocol  # imported here to avoid a module cycle

    tuples_count = config.d ** config.rounds
    # the message names d^rounds, which may have more digits than str() allows
    if tuples_count * (tuples_count - 1) // 2 > PAIR_CAP:
        raise ExplosionGuard(f"{config.d}^{config.rounds} key assignments make more than "
                             f"{PAIR_CAP} pairs")
    script = protocol._validate_script(config, script)

    # depth first over runs of whole key prefixes (q1 = 0), numbered in the first outcome column
    def walk(r, run, q):  # prefix -> blocks of the leaves below a run, from round r on
        for *_, run, _ in protocol._round_loop(run, [q], r, script, None):
            pass
        if r == config.rounds:
            return _blocks(run, eve_regs)
        # runs whose encoded amplitudes, times d per outcome in round r + 1, fit BRANCH_CAP
        measures = sum(a.measure is not None for a in script.rounds.get(r + 1, ()))
        limit = protocol.BRANCH_CAP // (run.amps.shape[1] * config.d ** (2 + measures))
        runs = _prefix_runs(run, config.d, limit)
        return {p: blocks for child in runs for p, blocks in walk(r + 1, *child).items()}

    eve_regs = tuple(protocol.eve_register_labels(config.eve_registers))
    start = protocol._start(config)._replace(header=((None, None),), outcomes=np.array([[0]]))
    rep_blocks = [blocks for _, blocks in sorted(walk(1, start, 0).items())]
    key_tuples = list(np.ndindex((config.d,) * config.rounds))
    eve_layout = RegisterLayout(config.d, eve_regs) if eve_regs else None
    rep_states = []
    for keys, blocks in zip(key_tuples, rep_blocks):  # the representatives come first
        quantum = sum(blocks.values())
        weight = np.trace(quantum).real
        if abs(weight - 1.0) > 1e-12:
            raise InvariantViolation(f"key tuple {keys} has total weight {weight!r}, not 1")
        rep_states.append(DensityMatrix(eve_layout, quantum) if eve_regs else None)

    # q's representative sits at (q2 - q1, ..., qR - q1) mod d, read in base d
    tuples, place = np.array(key_tuples), config.d ** np.arange(config.rounds - 2, -1, -1)
    rep = (tuples[:, 1:] - tuples[:, :1]) % config.d @ place
    ia, ib = np.triu_indices(tuples_count, 1)
    table = _distances(rep_blocks)
    pairwise = dict(zip(combinations(key_tuples, 2), table[rep[ia], rep[ib]].tolist()))

    return ConditionalStatesReport(
        d=config.d,
        rounds=config.rounds,
        eve_registers=eve_regs,
        states={keys: rep_states[i] for keys, i in zip(key_tuples, rep.tolist())},
        blocks={keys: dict(rep_blocks[i]) for keys, i in zip(key_tuples, rep.tolist())},
        pairwise_distances=pairwise,
        max_pairwise_distance=float(table.max()),
        per_round_max_distance=(0.0,) * config.rounds,
    )


# each op's constructor and wire fields in its argument order: the one table that
# writes and reads wire objects, which hold exactly these fields (actions may add timing)
_WIRE = {
    "shift": (GateSpec.shift, ("target", "s")),
    "cadd": (GateSpec.controlled_add, ("control", "target", "s")),
    "phase": (GateSpec.phase, ("target", "s")),
    "fourier": (GateSpec.fourier, ("target",)),
    "dense": (GateSpec.dense, ("targets", "matrix")),
    "measure": (EveAction.measurement, ("register",)),
}


def gate_to_obj(gate: GateSpec) -> dict:
    """Wire form of one gate; dense matrices become [re, im] pair grids."""
    if gate.kind == "dense":
        values = (list(gate.targets),
                  [[[float(z.real), float(z.imag)] for z in row] for row in gate.matrix])
    else:
        values = gate.registers + (gate.s,)
    return {"op": gate.kind, **dict(zip(_WIRE[gate.kind][1], values))}


def _from_wire(obj: Mapping, timed: bool):
    """The gate, or for an action (timed) the action, that a wire object describes."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"an action must be an object, got {obj!r}")
    op = obj.get("op")
    if not isinstance(op, str) or op not in _WIRE or (op == "measure" and not timed):
        raise ConfigError(f"unknown gate op {op!r}")
    build, fields = _WIRE[op]
    if set(obj) - ({"op", "timing"} if timed else {"op"}) != set(fields):
        raise ConfigError(f"a {op} object holds exactly {', '.join(fields)}, got {obj!r}")
    args = [obj[name] for name in fields]
    try:
        if op == "dense":
            if not isinstance(args[0], list):
                raise TypeError(f"targets must be a list of register names, got {args[0]!r}")
            if any(type(x) not in (int, float) for row in args[1] for pair in row for x in pair):
                raise TypeError("matrix entries must be JSON numbers, not booleans")
            args[1] = np.array([[complex(re, im) for re, im in row] for row in args[1]])
        built = build(*args)
        if timed:  # a measure is built at pre_bob and moved to its timing
            timing = obj.get("timing", "pre_bob")
            built = (replace(built, timing=timing) if op == "measure"
                     else EveAction(timing, gate=built))
    except (TypeError, ValueError, NonUnitaryMatrix) as exc:
        raise ConfigError(f"bad {op} object {obj!r}: {exc}") from exc
    if not all(isinstance(reg, str) for reg in built.registers):
        raise ConfigError(f"register names must be strings: {obj!r}")
    return built


def gate_from_obj(obj: Mapping) -> GateSpec:
    return _from_wire(obj, timed=False)


def action_to_obj(action: EveAction) -> dict:
    if action.gate is None:
        return {"op": "measure", "register": action.measure, "timing": action.timing}
    return {**gate_to_obj(action.gate), "timing": action.timing}


def action_from_obj(obj: Mapping) -> EveAction:
    return _from_wire(obj, timed=True)


def script_to_obj(script: AttackScript) -> dict:
    rounds = {}
    for r in sorted(script.rounds):
        rounds[str(r)] = [action_to_obj(a) for a in script.rounds[r]]
    return {"rounds": rounds}


def script_from_obj(obj: Mapping) -> AttackScript:
    if not isinstance(obj, Mapping) or set(obj) != {"rounds"}:
        raise ConfigError('attack script must be an object with a single "rounds" key')
    if not isinstance(obj["rounds"], Mapping):
        raise ConfigError(f'"rounds" must map round keys to action lists, got {obj["rounds"]!r}')
    rounds = {}
    for key, actions in obj["rounds"].items():
        if not isinstance(actions, (list, tuple)):
            raise ConfigError(f"round {key!r} must hold a list of actions, got {actions!r}")
        try:
            rounds[key] = tuple(action_from_obj(a) for a in actions)
        except ConfigError as exc:
            raise ConfigError(f"round {key!r}: {exc}") from exc
    # AttackScript refuses a key that is not an integer, or two that name one round
    return AttackScript(rounds)

"""Eavesdropper model: scripted actions on the flying qudit and her memory.

Eve may touch the key qudit "k" while it is in transit and any register she
owns (labelled "e", "e2", ...), never the carrier halves "a" and "b".
Scripts are static: a map from round index to actions, each tagged with a
timing slot ("pre_bob" while k travels, "post_decode" afterwards).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ConfigError,
    ExplosionGuard,
    IllegalRegisterAccess,
    InvariantViolation,
    MissingRegister,
    ScriptRegisterUnknown,
    UnknownPreset,
)
from .qudit import (
    DensityMatrix,
    GateSpec,
    PureState,
    RegisterLayout,
    _fourier_matrix,
    _outcomes,
    apply_gate,
    partial_trace,
)

TIMINGS = ("pre_bob", "post_decode")
PRESETS = ("none", "persistent_entangle", "reply_odd_stop_restart", "intercept_resend")
PROTECTED_REGISTERS = ("a", "b")

# stream label separating Eve's compile-time randomness from session sampling
_BASIS_STREAM = 0x0B

# the most bytes one chunk of stacked block differences may take
_CHUNK_BYTES = 128 * 1024


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
        normalized = {}
        for round_index, actions in self.rounds.items():
            r = int(round_index)
            if r < 1:
                raise ConfigError(f"round indices start at 1, got {r}")
            normalized[r] = tuple(actions)
        object.__setattr__(self, "rounds", normalized)

    def actions(self, round_index: int, timing: str) -> tuple[EveAction, ...]:
        return tuple(a for a in self.rounds.get(round_index, ()) if a.timing == timing)

    def referenced_registers(self) -> set[str]:
        regs = set()
        for actions in self.rounds.values():
            for action in actions:
                regs.update(action.registers)
        return regs

    def max_round(self) -> int:
        return max(self.rounds, default=0)


EMPTY_SCRIPT = AttackScript({})


def eve_entangle(state: PureState, memory: str = "e") -> PureState:
    """Copy the flying qudit's value into Eve's memory by a mod-d add.

    Warns when the memory register is not resting in |0>; the operation is
    still applied.
    """
    for reg in ("k", memory):
        if reg not in state.layout.labels:
            raise MissingRegister(f"state has no register {reg!r}")
    rest = state.probabilities(memory)[0]
    if rest < 1.0 - 1e-9:
        warnings.warn(
            f"memory register {memory!r} is not in |0> (weight {rest:.6f}); "
            "entangling anyway", RuntimeWarning, stacklevel=2)
    return apply_gate(state, GateSpec.controlled_add("k", memory, 1))


def eve_disentangle(state: PureState, memory: str = "e") -> PureState:
    """Inverse of eve_entangle: subtract the flying qudit from the memory."""
    for reg in ("k", memory):
        if reg not in state.layout.labels:
            raise MissingRegister(f"state has no register {reg!r}")
    return apply_gate(state, GateSpec.controlled_add("k", memory, state.layout.d - 1))


def compile_schedule(preset: str, config) -> AttackScript:
    """Expand a named attack preset into a concrete script for this config.

    The intercept_resend preset draws one measurement basis per round
    (computational or Fourier) from the config seed, so compilation is
    deterministic per (preset, config).
    """
    d = config.d
    if preset == "none":
        return AttackScript({})
    if preset == "persistent_entangle":
        return AttackScript({1: (EveAction.apply(GateSpec.controlled_add("k", "e", 1)),)})
    if preset == "reply_odd_stop_restart":
        rounds = {}
        for r in range(1, config.rounds + 1, 2):
            rounds[r] = (
                EveAction.apply(GateSpec.controlled_add("k", "e", 1)),
                EveAction.apply(GateSpec.controlled_add("k", "e", d - 1)),
            )
        return AttackScript(rounds)
    if preset == "intercept_resend":
        rng = np.random.default_rng([_BASIS_STREAM, config.seed])
        fourier = _fourier_matrix(d)
        rounds = {}
        for r in range(1, config.rounds + 1):
            if rng.integers(2) == 0:
                rounds[r] = (EveAction.measurement("k"),)
            else:
                rounds[r] = (
                    EveAction.apply(GateSpec.dense(("k",), fourier.conj().T)),
                    EveAction.measurement("k"),
                    EveAction.apply(GateSpec.dense(("k",), fourier)),
                )
        return AttackScript(rounds)
    raise UnknownPreset(f"unknown attack preset {preset!r}; known: {PRESETS}")


def _run_actions(branches: list, actions: tuple[EveAction, ...], round_index: int,
                 rng: np.random.Generator | None) -> list:
    """The action interpreter, over (probability, state, records) branches.

    Records are linked (older records, (round, register, outcome)) pairs, so a
    measurement adds one in constant time at any session length.
    """
    for action in actions:
        new_branches = []
        for prob, state, records in branches:
            for reg in action.registers:
                if reg not in state.layout.labels:
                    raise ScriptRegisterUnknown(f"script references missing register {reg!r}")
            if action.gate is not None:
                new_branches.append((prob, apply_gate(state, action.gate), records))
            else:
                for outcome, p, post in _outcomes(state, action.measure, rng):
                    new_branches.append(
                        (prob * p, post, (records, (round_index, action.measure, outcome)))
                    )
        branches = new_branches
    return branches


def _unlinked(records: tuple, first_round: int = 1) -> tuple[tuple[int, str, int], ...]:
    """Linked records as a flat tuple, oldest first, from `first_round` on."""
    flat = []
    while records and records[1][0] >= first_round:
        records, record = records
        flat.append(record)
    return tuple(reversed(flat))


def apply_script(state: PureState, script: AttackScript, round_index: int, timing: str,
                 rng: np.random.Generator | None = None,
                 ) -> tuple[PureState, list[tuple[int, str, int]]]:
    """Run this round's actions for one timing slot, sampling measurements.

    Returns the new state and Eve's classical records as
    (round, register, outcome) triples.
    """
    if rng is None:
        rng = np.random.default_rng()
    [(_, state, records)] = _run_actions(
        [(1.0, state, ())], script.actions(round_index, timing), round_index, rng)
    return state, list(_unlinked(records))


@dataclass(frozen=True)
class ConditionalStatesReport:
    """Eve's view conditioned on each full key assignment.

    blocks[key_tuple] maps her classical record tuple to an unnormalized
    density block on her quantum registers (weights sum to 1 per key tuple).
    Distances are trace distances over the joint classical-quantum state.
    """

    d: int
    rounds: int
    eve_registers: tuple[str, ...]
    states: dict
    blocks: dict
    pairwise_distances: dict
    max_pairwise_distance: float
    per_round_max_distance: tuple[float, ...]


def _distances(block_dicts: list, ia: np.ndarray, ib: np.ndarray) -> list[float]:
    """Trace distance between block_dicts[ia[p]] and block_dicts[ib[p]] for each pair p.

    Records are visited in sorted order (they hold strings, so set order would
    change with the hash seed) and each pair adds its record sums in that
    order: the same bits as summing |eigvalsh(a.get(r, 0) - b.get(r, 0))| record
    by record.  Each record stacks only the dicts that hold it.
    """
    holders: dict = {}
    for i, blocks in enumerate(block_dicts):
        for record, block in blocks.items():
            holders.setdefault(record, []).append((i, block))
    totals = np.zeros(len(ia))
    position = np.zeros(len(block_dicts), dtype=np.intp)
    for record in sorted(holders):
        index, blocks = map(list, zip(*holders[record]))
        stack = np.stack(blocks)
        held = np.zeros(len(block_dicts), dtype=bool)
        held[index] = True
        position[index] = range(len(index))
        held_a, held_b = held[ia], held[ib]
        both = np.flatnonzero(held_a & held_b)
        chunk = max(1, _CHUNK_BYTES // stack[0].nbytes)
        for start in range(0, len(both), chunk):
            pairs = both[start:start + chunk]
            difference = stack[position[ia[pairs]]]
            difference -= stack[position[ib[pairs]]]
            totals[pairs] += np.abs(np.linalg.eigvalsh(difference)).sum(axis=-1)
        # a record on one side only: its own spectrum, once per holder; b's side
        # takes 0 - B, not -B, whose zeros have the other sign
        for lone, side, negate in ((held_a & ~held_b, ia, False), (held_b & ~held_a, ib, True)):
            pairs = np.flatnonzero(lone)
            if len(pairs):
                sums = np.abs(np.linalg.eigvalsh(0 - stack if negate else stack)).sum(axis=-1)
                totals[pairs] += sums[position[side[pairs]]]
    return (0.5 * totals).tolist()


def _weight_checked(blocks: dict, what: str) -> np.ndarray:
    """The blocks summed over records, once their trace is checked to be 1."""
    quantum = sum(blocks.values())
    weight = np.trace(quantum).real
    if abs(weight - 1.0) > 1e-12:
        raise InvariantViolation(f"{what} has total weight {weight!r}, not 1")
    return quantum


def eve_conditional_states(config, script: AttackScript | None = None) -> ConditionalStatesReport:
    """Exact conditional states of Eve for every key assignment.

    Measurements are expanded over all outcome branches rather than sampled,
    so each conditional state is the true mixture of record and memory.
    """
    from . import analysis, protocol  # imported here to avoid a module cycle

    script = script if script is not None else EMPTY_SCRIPT
    tuples_count = config.d ** config.rounds
    if tuples_count > analysis.KEY_TUPLE_CAP:
        raise ExplosionGuard(
            f"d^rounds = {tuples_count} key assignments exceed {analysis.KEY_TUPLE_CAP}")
    protocol._validate_script(config, script)

    eve_regs = tuple(protocol.eve_register_labels(config.eve_registers))
    blocks_by_key: dict = {}
    states_by_key: dict = {}
    # marginals[r][v]: blocks averaged over the key tuples whose round r + 1 key is v
    marginals = [[{} for _ in range(config.d)] for _ in range(config.rounds)]
    share = tuples_count // config.d
    # depth first over key prefixes, so each prefix's rounds run once; children
    # go on the stack last first, so full key tuples come in product order
    stack = [((), protocol._start(config))]
    while stack:
        keys, branches = stack.pop()  # branches as keys[:-1] left them
        for *_, branches, _ in protocol._round_loop(branches, keys[-1:], len(keys), script, None):
            pass
        if len(keys) < config.rounds:
            stack += [(keys + (q,), branches) for q in reversed(range(config.d))]
            continue
        blocks: dict = {}
        for probability, state, records in branches:
            if eve_regs:
                rho = partial_trace(state, eve_regs).entries * probability
            else:
                rho = np.array([[probability]], dtype=np.complex128)
            record = _unlinked(records)
            blocks[record] = blocks.get(record, 0) + rho
        blocks_by_key[keys] = blocks
        quantum = _weight_checked(blocks, f"key tuple {keys}")
        if eve_regs:
            states_by_key[keys] = DensityMatrix(RegisterLayout(config.d, eve_regs), quantum)
        else:
            states_by_key[keys] = None
        for by_value, v in zip(marginals, keys):
            for record, block in blocks.items():
                by_value[v][record] = by_value[v].get(record, 0) + block / share

    for r, by_value in enumerate(marginals, 1):
        for v, blocks in enumerate(by_value):
            _weight_checked(blocks, f"the round {r} marginal of key value {v}")

    key_tuples = list(blocks_by_key)
    ia, ib = np.triu_indices(len(key_tuples), 1)
    distances = _distances(list(blocks_by_key.values()), ia, ib)
    pairwise = {(key_tuples[a], key_tuples[b]): distance
                for a, b, distance in zip(ia.tolist(), ib.tolist(), distances)}
    ia, ib = np.triu_indices(config.d, 1)
    per_round = [max(_distances(by_value, ia, ib)) for by_value in marginals]

    return ConditionalStatesReport(
        d=config.d,
        rounds=config.rounds,
        eve_registers=eve_regs,
        states=states_by_key,
        blocks=blocks_by_key,
        pairwise_distances=pairwise,
        max_pairwise_distance=max(pairwise.values()),
        per_round_max_distance=tuple(per_round),
    )


def gate_to_obj(gate: GateSpec) -> dict:
    """Wire form of one gate; dense matrices become [re, im] pair grids."""
    if gate.kind == "shift":
        return {"op": "shift", "target": gate.targets[0], "s": gate.s}
    if gate.kind == "cadd":
        return {"op": "cadd", "control": gate.control, "target": gate.targets[0], "s": gate.s}
    if gate.kind == "phase":
        return {"op": "phase", "target": gate.targets[0], "s": gate.s}
    if gate.kind == "fourier":
        return {"op": "fourier", "target": gate.targets[0]}
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in gate.matrix]
    return {"op": "dense", "targets": list(gate.targets), "matrix": matrix}


def gate_from_obj(obj: Mapping) -> GateSpec:
    try:
        op = obj["op"]
        if op == "shift":
            return GateSpec.shift(obj["target"], int(obj["s"]))
        if op == "cadd":
            return GateSpec.controlled_add(obj["control"], obj["target"], int(obj["s"]))
        if op == "phase":
            return GateSpec.phase(obj["target"], int(obj["s"]))
        if op == "fourier":
            return GateSpec.fourier(obj["target"])
        if op == "dense":
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in obj["matrix"]])
            return GateSpec.dense(tuple(obj["targets"]), matrix)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad gate object {obj!r}: {exc}") from exc
    raise ConfigError(f"unknown gate op {op!r}")


def action_to_obj(action: EveAction) -> dict:
    if action.measure is not None:
        return {"op": "measure", "register": action.measure, "timing": action.timing}
    obj = gate_to_obj(action.gate)
    obj["timing"] = action.timing
    return obj


def action_from_obj(obj: Mapping) -> EveAction:
    timing = obj.get("timing", "pre_bob")
    if obj.get("op") == "measure":
        try:
            return EveAction.measurement(obj["register"], timing)
        except KeyError as exc:
            raise ConfigError(f"measure action needs a register: {obj!r}") from exc
    gate = gate_from_obj({k: v for k, v in obj.items() if k != "timing"})
    return EveAction.apply(gate, timing)


def script_to_obj(script: AttackScript) -> dict:
    rounds = {}
    for r in sorted(script.rounds):
        rounds[str(r)] = [action_to_obj(a) for a in script.rounds[r]]
    return {"rounds": rounds}


def script_from_obj(obj: Mapping) -> AttackScript:
    if not isinstance(obj, Mapping) or set(obj) != {"rounds"}:
        raise ConfigError('attack script must be an object with a single "rounds" key')
    rounds = {}
    for key, actions in obj["rounds"].items():
        try:
            r = int(key)
        except ValueError as exc:
            raise ConfigError(f"round key {key!r} is not an integer") from exc
        rounds[r] = tuple(action_from_obj(a) for a in actions)
    return AttackScript(rounds)

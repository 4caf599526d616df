"""Honest protocol sessions over a reusable entangled carrier.

Alice and Bob share the two carrier halves "a" and "b", prepared once in the
maximally entangled pair state.  Each round Alice adjoins a key qudit "k" in
|q>, adds "a" onto it, and sends it; Bob subtracts "b" and measures "k" to
read the key back, which also returns the carrier to its starting state, so
the same pair serves every round.

One round loop runs every kind of session on a `Stage`, whose branches are
rows of arrays, so each gate, measurement and decode is one array operation.
With `run_session`'s rng each measurement draws one outcome: one row.
`run_session_branches` passes None, so each row repeats once per outcome.  The
exact analysis (`adversary.eve_conditional_states`) runs it once per key prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import adversary
from .errors import (
    ConfigError,
    ExplosionGuard,
    InvariantViolation,
    MissingRegister,
    NonUnitaryMatrix,
    ScriptRegisterUnknown,
    ValueOutOfRange,
)
from .qudit import (
    SCHMIDT_TOL,
    GateSpec,
    PureState,
    RegisterLayout,
    _gated,
    _inserted,
    _is_integer,
    _kept,
    _marginal,
    _outcomes,
    _split,
    insert_register,
)

ALICE, BOB, KEY = "a", "b", "k"
STAGES = ("post_encode", "post_attack", "post_decode", "round_end")
# most branches an exhaustive session may hold after any stage
BRANCH_CAP = 100_000
# most amplitudes in a session's largest state, over a, b, k and every Eve
# register: 2^22 complex amplitudes take 64 MiB
STATE_CAP = 2 ** 22

# independent seed streams for key generation and in-session sampling
_KEY_STREAM = 0x4B
_SESSION_STREAM = 0x5E

_ENCODE = GateSpec.controlled_add(ALICE, KEY, 1)
_DECODE = GateSpec.controlled_add(BOB, KEY, -1)


def eve_register_labels(count: int) -> list[str]:
    """Eavesdropper memory labels: "e", then "e2", "e3", ..."""
    if count <= 0:
        return []
    return ["e"] + [f"e{i}" for i in range(2, count + 1)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters.  Exactly one of keys / key_seed must be set."""

    d: int
    rounds: int
    keys: tuple[int, ...] | None = None
    key_seed: int | None = None
    control_rounds: frozenset[int] = field(default_factory=frozenset)
    eve_registers: int = 1
    seed: int = 0

    def __post_init__(self):
        # the carrier layout owns the dimension rule
        object.__setattr__(self, "d", RegisterLayout(self.d, (ALICE, BOB)).d)
        for name in ("rounds", "eve_registers", "seed", "key_seed"):
            value = getattr(self, name)
            if not (_is_integer(value) or (name == "key_seed" and value is None)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if (self.keys is None) == (self.key_seed is None):
            raise ConfigError("set exactly one of keys or key_seed")
        if self.keys is not None:
            keys = tuple(self.keys)
            if len(keys) != self.rounds:
                raise ConfigError(f"{len(keys)} keys given for {self.rounds} rounds")
            for i, q in enumerate(keys):
                if not _is_integer(q):
                    raise ConfigError(f"keys[{i}] must be an integer, got {q!r}")
                if not 0 <= q < self.d:
                    raise ValueOutOfRange(f"keys[{i}] = {q} not in [0, {self.d})")
            object.__setattr__(self, "keys", tuple(int(q) for q in keys))
        if not all(_is_integer(r) for r in self.control_rounds):
            raise ConfigError(f"control rounds must be integers, got {self.control_rounds!r}")
        control = frozenset(int(r) for r in self.control_rounds)
        if any(r < 1 or r > self.rounds for r in control):
            raise ConfigError(f"control rounds {sorted(control)} outside 1..{self.rounds}")
        object.__setattr__(self, "control_rounds", control)
        if self.eve_registers < 0:
            raise ConfigError("eve_registers must be >= 0")
        # d >= 2, so more registers than STATE_CAP has bits exceed it without the power
        registers = 3 + self.eve_registers
        if registers > STATE_CAP.bit_length() or self.d ** registers > STATE_CAP:
            raise ExplosionGuard(
                f"a session state of {self.d}^{registers} amplitudes (a, b, k and "
                f"{self.eve_registers} Eve registers) exceeds {STATE_CAP}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def resolved_keys(config: ProtocolConfig) -> tuple[int, ...]:
    """The key sequence actually used: explicit, or drawn from key_seed."""
    if config.keys is not None:
        return config.keys
    rng = np.random.default_rng([_KEY_STREAM, config.key_seed])
    return tuple(int(q) for q in rng.integers(0, config.d, size=config.rounds))


def init_carrier(d: int) -> PureState:
    """The shared pair state: equal superposition of |j, j> over registers a, b."""
    layout = RegisterLayout(d, (ALICE, BOB))
    d = layout.d
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(layout, amps)


class Stage(NamedTuple):
    """A session's branches at one stage, as rows over one layout: amps is
    (B, layout.dim), probs (B,), and Eve's records a header of (round, register)
    columns over a (B, len(header)) outcome matrix."""

    layout: RegisterLayout
    amps: np.ndarray
    probs: np.ndarray
    header: tuple
    outcomes: np.ndarray

    @classmethod
    def of(cls, state: PureState) -> "Stage":
        return cls(state.layout, state.amplitudes[None], np.ones(1), (), np.zeros((1, 0), np.intp))

    def state(self, row: int) -> PureState:
        return PureState._trusted(self.layout, self.amps[row])

    def records(self, row: int) -> tuple[tuple[int, str, int], ...]:
        """The row's (round, register, outcome) records, oldest first."""
        return tuple((*column, v) for column, v in zip(self.header, self.outcomes[row].tolist()))

    def gate(self, gate: GateSpec) -> "Stage":
        return Stage(self.layout, _gated(self.layout, self.amps, gate), *self[2:])

    def measure(self, register: str, rng: np.random.Generator | None,
                record: tuple[int, str] | None = None, drop: bool = False):
        """(stage, outcome): with an rng one drawn outcome (B is 1), else each row
        repeated once per outcome above BRANCH_PRUNE, one outcome per row, refused
        past BRANCH_CAP rows before they are built.  `record` adds a header
        column; `drop` slices the register away."""
        split = _split(self.layout, register)
        rows, values, probs = _outcomes(_marginal(self.amps, split), rng)
        if rows is not None and len(rows) > BRANCH_CAP:
            raise ExplosionGuard(f"branch count {len(rows)} exceeds the cap of {BRANCH_CAP}")
        outcomes = self.outcomes if rows is None else self.outcomes.take(rows, 0)
        if record is not None:
            grown = np.empty((len(outcomes), len(self.header) + 1), np.intp)
            grown[:, :-1], grown[:, -1] = outcomes, values
            outcomes = grown
        return Stage(self.layout.drop(register) if drop else self.layout,
                     _kept(self.amps, split, rows, values, probs, drop),
                     self.probs if rows is None else self.probs.take(rows) * probs,
                     self.header + (() if record is None else (record,)), outcomes), values

    def act(self, actions: Sequence, round_index: int, rng) -> "Stage":
        """Eve's actions in order; callers check their registers first."""
        stage = self
        for action in actions:
            stage = (stage.gate(action.gate) if action.gate is not None else
                     stage.measure(action.measure, rng, (round_index, action.measure))[0])
        return stage

    def decode(self, rng: np.random.Generator | None):
        """Bob subtracts "b" from k, measures k unrecorded and slices it away."""
        return self.gate(_DECODE).measure(KEY, rng, drop=True)


def alice_encode(state: PureState | Stage, q: int) -> PureState | Stage:
    """Adjoin the key qudit in |q> and add the carrier half "a" onto it, to a
    PureState or to every row of a Stage."""
    layout = state.layout
    if not 0 <= q < layout.d:
        raise ValueOutOfRange(f"key value {q} not in [0, {layout.d})")
    for reg in (ALICE, BOB):
        if reg not in layout.labels:
            raise MissingRegister(f"state has no register {reg!r}")
    rows = state if isinstance(state, Stage) else Stage.of(state)
    new = layout.insert(KEY, layout.axis(BOB) + 1)
    rows = Stage(new, _gated(new, _inserted(rows.amps, new, KEY, q), _ENCODE), *rows[2:])
    return rows if isinstance(state, Stage) else rows.state(0)


def bob_decode(state: PureState, rng: np.random.Generator | None = None,
               ) -> tuple[int, PureState]:
    """Subtract "b" from the key qudit, measure it, and drop it.

    Honest traffic makes the outcome certain; under attack it may be random,
    in which case the optional rng drives the sampling.
    """
    for reg in (BOB, KEY):
        if reg not in state.layout.labels:
            raise MissingRegister(f"state has no register {reg!r}")
    if rng is None:
        rng = np.random.default_rng()
    stage, outcome = Stage.of(state).decode(rng)
    return outcome, stage.state(0)


@dataclass(frozen=True)
class RoundTranscript:
    round_index: int
    mode: str
    key_sent: int
    key_decoded: int
    eve_records: tuple[tuple[int, str, int], ...]
    diagnostics: dict

    def to_json_dict(self) -> dict:
        doc = {
            "round": self.round_index,
            "mode": self.mode,
            "key_sent": self.key_sent,
            "key_decoded": self.key_decoded,
            "eve_records": [list(r) for r in self.eve_records],
        }
        if self.diagnostics:
            doc["diagnostics"] = {
                stage: diag.to_json_dict() for stage, diag in self.diagnostics.items()
            }
        return doc


@dataclass(frozen=True)
class ControlCheck:
    checked: int
    mismatches: int
    rate: float


def control_check(transcripts: Sequence[RoundTranscript],
                  control_rounds: Iterable[int]) -> ControlCheck:
    """Compare sent and decoded keys on the publicly sacrificed rounds."""
    control = set(control_rounds)
    relevant = [t for t in transcripts if t.round_index in control]
    mismatches = sum(1 for t in relevant if t.key_sent != t.key_decoded)
    rate = mismatches / len(relevant) if relevant else 0.0
    return ControlCheck(checked=len(relevant), mismatches=mismatches, rate=rate)


def _validate_script(config: ProtocolConfig, script: adversary.AttackScript) -> None:
    """Refuse a script with a round past the session, a register its slot lacks,
    or a dense gate whose matrix side is not d^len(targets).

    pre_bob actions may touch k and Eve's registers; post_decode actions only
    Eve's, since Bob has dropped k by then.
    """
    last = max(script.rounds, default=0)
    if last > config.rounds:
        raise ConfigError(f"script addresses round {last}, session has {config.rounds}")
    eve = eve_register_labels(config.eve_registers)
    allowed = {"pre_bob": {KEY, *eve}, "post_decode": set(eve)}
    for r, actions in sorted(script.rounds.items()):
        for action in actions:
            unknown = set(action.registers) - allowed[action.timing]
            if unknown:
                raise ScriptRegisterUnknown(
                    f"round {r} {action.timing} action references registers {sorted(unknown)}; "
                    f"available: {sorted(allowed[action.timing])}")
            gate = action.gate
            if gate is not None and gate.kind == "dense":
                side = config.d ** len(gate.targets)
                if gate.matrix.shape[0] != side:
                    raise NonUnitaryMatrix(
                        f"round {r} dense gate on {list(gate.targets)}: matrix side "
                        f"{gate.matrix.shape[0]} does not match d^targets = {side}")


def _start(config: ProtocolConfig) -> Stage:
    """The one starting row: the carrier pair and Eve's registers in |0>."""
    state = init_carrier(config.d)
    for label in eve_register_labels(config.eve_registers):
        state = insert_register(state, label, 0, len(state.layout))
    return Stage.of(state)


def _round_loop(stage: Stage, keys: Iterable[int], first_round: int,
                script: adversary.AttackScript, rng: np.random.Generator | None):
    """The one round loop, over the rows of a Stage.

    Runs one round per key from round first_round on.  After each of STAGES it
    yields (round, key, stage name, Stage, Bob's outcome, one per row without an
    rng, or None); Stage.measure refuses more than BRANCH_CAP rows.
    """
    for r, q in enumerate(keys, start=first_round):
        if rng is not None:  # sampled: each round's records are read at its end
            stage = Stage(*stage[:3], (), stage.outcomes[:, :0])
        stage = alice_encode(stage, q)
        yield r, q, "post_encode", stage, None
        stage = stage.act(script.actions(r, "pre_bob"), r, rng)
        yield r, q, "post_attack", stage, None
        stage, decoded = stage.decode(rng)
        yield r, q, "post_decode", stage, decoded
        stage = stage.act(script.actions(r, "post_decode"), r, rng)
        yield r, q, "round_end", stage, decoded


def run_session(config: ProtocolConfig, script: adversary.AttackScript | None = None,
                diagnostics: Iterable[str] = (), schmidt_tol: float = SCHMIDT_TOL,
                ) -> list[RoundTranscript]:
    """Run all rounds, sampling measurements from the config seed.

    `diagnostics` selects stages (subset of STAGES) at which to attach a
    StageDiagnostics snapshot to the round transcript.
    """
    script = script if script is not None else adversary.EMPTY_SCRIPT
    _validate_script(config, script)
    stages = tuple(diagnostics)
    unknown_stages = set(stages) - set(STAGES)
    if unknown_stages:
        raise ConfigError(f"unknown diagnostic stages {sorted(unknown_stages)}")
    from . import analysis  # imported here to avoid a module cycle

    rng = np.random.default_rng([_SESSION_STREAM, config.seed])
    transcripts = []
    diag: dict = {}
    for r, q, name, stage, decoded in _round_loop(
            _start(config), resolved_keys(config), 1, script, rng):
        if name in stages:
            diag[name] = analysis.diagnose(stage.state(0), r, name, tol=schmidt_tol,
                                           decode_ok=None if decoded is None else decoded == q)
        if name != "round_end":
            continue
        state = stage.state(0)
        if abs(state.norm() - 1.0) > 1e-10:
            raise InvariantViolation(
                f"state norm drifted to {state.norm():.12f} after round {r}")
        transcripts.append(RoundTranscript(
            round_index=r,
            mode="control" if r in config.control_rounds else "message",
            key_sent=q,
            key_decoded=decoded,
            eve_records=stage.records(0),
            diagnostics=diag,
        ))
        diag = {}
    return transcripts


@dataclass(frozen=True)
class SessionBranch:
    """One measurement trajectory of a session and its probability."""

    probability: float
    state: PureState
    eve_records: tuple[tuple[int, str, int], ...]


def run_session_branches(config: ProtocolConfig,
                         script: adversary.AttackScript | None = None,
                         ) -> list[SessionBranch]:
    """Exhaustive variant of run_session: follow every measurement branch.

    Bob's decode outcomes are expanded but not recorded; Eve's measurement
    outcomes are kept as records.  Branch probabilities sum to 1.
    """
    script = script if script is not None else adversary.EMPTY_SCRIPT
    _validate_script(config, script)
    for *_, stage, _ in _round_loop(_start(config), resolved_keys(config), 1, script, None):
        pass
    return [SessionBranch(p, stage.state(i), stage.records(i))
            for i, p in enumerate(stage.probs.tolist())]

"""Honest protocol sessions over a reusable entangled carrier.

Alice and Bob share the two carrier halves "a" and "b", prepared once in the
maximally entangled pair state.  Each round Alice adjoins a key qudit "k" in
|q>, adds "a" onto it, and sends it; Bob subtracts "b" and measures "k" to
read the key back, which also returns the carrier to its starting state, so
the same pair serves every round.

One round loop runs every kind of session on a `Stage`, whose branches are
rows of arrays, so each encode, gate, measurement and decode is one array
operation, and each round is four `Stage` steps: encode, Eve's pre_bob
actions, decode, her post_decode actions.  `alice_encode` and `bob_decode` are
the checked one-row views of the encode and decode steps.
With `run_session`'s rng each measurement draws one outcome: one row.
`run_session_branches` passes None, so each row repeats once per outcome.  The
exact analysis (`adversary.eve_conditional_states`) stacks key prefixes as rows.

Because the carrier comes back after every decode, a sampled session keeps
revisiting a few rows.  So the loop gives it a step table (`_Steps`) for the
session's life: rows interned by (layout, bytes) at round start, and for each
held row the result of each step once (the encode per key value, each gate,
a measurement's draw table and kept rows, `analysis.diagnose`), stored as the
Stage the step leads to, so a warm round is a few lookups.  Every measurement
still draws from the session rng, so outputs keep every bit.  The norm check
runs every round, once per held row.  The table holds at most
STEP_TABLE_BYTES and closes on rows that do not come back.
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
    ScriptRegisterUnknown,
    ValueOutOfRange,
)
from .qudit import (
    _CHUNK_BYTES,
    SCHMIDT_TOL,
    GateSpec,
    PureState,
    RegisterLayout,
    _check_side,
    _check_tol,
    _check_value,
    _draw,
    _draws,
    _gated,
    _inserted,
    _is_integer,
    _kept,
    _marginal,
    _outcomes,
    _require,
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
# most bytes of rows and results one sampled session's step table holds (512 KiB)
STEP_TABLE_BYTES = 4 * _CHUNK_BYTES

# independent seed streams for key generation and in-session sampling
_KEY_STREAM = 0x4B
_SESSION_STREAM = 0x5E

_ENCODE = GateSpec.controlled_add(ALICE, KEY, 1)
# a sampled round's records before its first measurement: one row, no columns
_NO_RECORDS = np.zeros((1, 0), np.intp)
_NO_RECORDS.setflags(write=False)
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
            # plain ints in range pass in one sweep; anything else is checked key by key
            if set(map(type, keys)) != {int} or min(keys) < 0 or max(keys) >= self.d:
                for i, q in enumerate(keys):
                    if not _is_integer(q):
                        raise ConfigError(f"keys[{i}] must be an integer, got {q!r}")
                    if not 0 <= q < self.d:
                        raise ValueOutOfRange(f"keys[{i}] = {q} not in [0, {self.d})")
                keys = tuple(int(q) for q in keys)
            object.__setattr__(self, "keys", keys)
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


class _Steps:
    """One sampled session's step table: each distinct (held row, step) is computed once.

    The table holds rows as `_Held` entries, each a read-only row, its norm
    once read, and its steps' results by step key, so no row is known by its
    id().  A round's start row is interned by (layout, bytes): it is held from
    the second visit of its bytes on, or at once if the round before ended on
    a held row.  A step on a held row stores the record-free Stage it leads
    to, over a held row, so a hit builds nothing; a measurement also stores
    its draw table.  A stage carries its row's entry, or None, and the other
    rounds run the plain steps.  A held row is charged its bytes plus
    ENTRY_BYTES, each stored result ENTRY_BYTES plus, if it is not a Stage,
    OBJECT_BYTES, and each noted start its bytes, against STEP_TABLE_BYTES;
    past it nothing more is held.  The table closes, and every later round
    runs without it, once its misses (steps computed on held rows, and first
    visits) outnumber its hits by SLACK: rows that do not come back then cost
    nothing more.  Draws are never cached.
    """

    ENTRY_BYTES = 256  # a dict entry and its key, with an array header, a Stage or a norm
    OBJECT_BYTES = 1024  # a result that is not a Stage: a draw table or a diagnostics snapshot
    SLACK = 64

    def __init__(self):
        self.room = STEP_TABLE_BYTES
        self.balance = 0  # hits less misses
        self.gates = {}  # id -> gate, for every gate a step key names by id
        self._starts = {}  # (layout, bytes) -> the held start row, or None after one visit

    def fits(self, size: int) -> bool:
        """Take size bytes of the budget if they are left."""
        if size > self.room:
            return False
        self.room -= size
        return True

    def start(self, stage: "Stage") -> "Stage":
        """The stage a sampled round starts from: no records, over the held row with
        the stage's layout and bytes if there is one."""
        if self.balance < -self.SLACK:  # closed
            return Stage(stage.layout, stage.amps, stage.probs, (), _NO_RECORDS)
        held = stage.held
        if held is not None and held.amps is not stage.amps:
            held = None
        start = None if held is None else held.get("start")
        if start is None:
            entry = self._intern(stage.layout, stage.amps, held)
            start = Stage(stage.layout, stage.amps if entry is None else entry.amps, stage.probs,
                          (), _NO_RECORDS, entry)
            if held is not None and entry is not None and self.fits(self.ENTRY_BYTES):
                held["start"] = start  # the next visit of this row finds it in one lookup
        return start

    def _intern(self, layout: RegisterLayout, amps: np.ndarray, held) -> "_Held | None":
        key = layout, amps.tobytes()
        start = self._starts.get(key, self)
        if start is self and held is None:  # a first visit notes the bytes
            self.balance -= 1
            if self.fits(len(key[1])):
                self._starts[key] = None
            return None
        if start is self or start is None:  # a second visit, or one that ends a held round
            if held is None and self.fits(amps.nbytes + self.ENTRY_BYTES):
                held = _Held(amps, self)
            if held is not None and self.fits(len(key[1])):
                self._starts[key] = held
            return held
        return start


class _Held(dict):
    """A row the step table holds: its read-only amplitudes, its norm once read, and
    each step's result on it by step key: the record-free Stage the step leads to, a
    measurement's draw table, or a diagnostics snapshot."""

    __slots__ = ("amps", "table", "norm")

    def __init__(self, amps: np.ndarray, table: _Steps):  # an empty dict: no super() call
        amps.setflags(write=False)
        self.amps, self.table, self.norm = amps, table, None

    def hit(self, key):
        """The stored result of the step `key` on this row, or None; either counts."""
        hit = self.get(key)
        self.table.balance += 1 if hit is not None else -1
        return hit

    def keep(self, key, layout: RegisterLayout, amps: np.ndarray, probs: np.ndarray) -> "Stage":
        """The record-free Stage over `amps`, the step `key`'s new row, stored if it fits:
        a new row costs its bytes and an entry, the identity only the key."""
        table, held = self.table, None
        size = table.ENTRY_BYTES + (0 if amps is self.amps else amps.nbytes + table.ENTRY_BYTES)
        if size <= table.room:
            table.room -= size
            held = self if amps is self.amps else _Held(amps, table)
        stage = Stage(layout, amps, probs, (), _NO_RECORDS, held)
        if held is not None:
            self[key] = stage
        return stage

    def store(self, key, value):
        """value, stored as the step `key`'s result if it fits: a draw table or a snapshot."""
        if self.table.fits(self.table.ENTRY_BYTES + self.table.OBJECT_BYTES):
            self[key] = value
        return value


class Stage(NamedTuple):
    """A session's branches at one stage, as rows over one layout: amps is
    (B, layout.dim), probs (B,), and Eve's records (and the exact walk's key
    prefix) a header of (round, register) columns over a (B, len(header)) matrix.
    A sampled stage (B is 1) whose row its session's step table holds carries
    the row's entry, else None; each step on it reads the entry first, and takes
    a stored result with this stage's own records (`_recorded`)."""

    layout: RegisterLayout
    amps: np.ndarray
    probs: np.ndarray
    header: tuple
    outcomes: np.ndarray
    held: _Held | None = None

    @classmethod
    def of(cls, state: PureState) -> "Stage":
        return cls(state.layout, state.amplitudes[None], np.ones(1), (), np.zeros((1, 0), np.intp))

    def state(self, row: int) -> PureState:
        return PureState._trusted(self.layout, self.amps[row])

    def records(self, row: int) -> tuple[tuple[int, str, int], ...]:
        """The row's (round, register, outcome) records, oldest first."""
        return tuple((*column, v) for column, v in zip(self.header, self.outcomes[row].tolist()))

    def _recorded(self, stored: "Stage") -> "Stage":
        """A stored record-free step result with this stage's records."""
        if not self.header:
            return stored
        return Stage(stored.layout, stored.amps, self.probs, self.header, self.outcomes,
                     stored.held)

    def gate(self, gate: GateSpec) -> "Stage":
        held = self.held
        if held is None or held.amps is not self.amps:  # no entry, or another row's
            return Stage(self.layout, _gated(self.layout, self.amps, gate), *self[2:5])
        stored = held.hit(id(gate))
        if stored is None:
            held.table.gates[id(gate)] = gate  # the step key names the gate by id
            stored = held.keep(id(gate), self.layout, _gated(self.layout, self.amps, gate),
                               self.probs)
        return self._recorded(stored)

    def measure(self, register: str, rng: np.random.Generator | None,
                record: tuple[int, str] | None = None):
        """(stage, outcome): with an rng one drawn outcome (B is 1), else each row
        repeated once per outcome above BRANCH_PRUNE, one outcome per row, refused
        past BRANCH_CAP rows before they are built.  A `record` adds a header column
        and collapses the register in place; without one the register is sliced away.
        A held row's draw table and kept rows are computed once; the draw runs every time."""
        split, drop, held, amps = _split(self.layout, register), record is None, self.held, self.amps
        if held is not None and held.amps is amps:  # one draw on a held row
            draws = held.hit(("draws", register))
            if draws is None:
                draws = held.store(("draws", register), _draws(_marginal(amps, split)))
            values, probs = _draw(draws, rng)
            stored = held.hit((register, values, drop))
            if stored is None:
                stored = held.keep((register, values, drop),
                                   self.layout.drop(register) if drop else self.layout,
                                   _kept(amps, split, None, values, probs, drop), self.probs)
            if drop:
                return self._recorded(stored), values
            rows, layout, kept, weights, held = None, *stored[:3], stored.held
        else:
            rows, values, probs = _outcomes(_marginal(amps, split), rng)
            if rows is not None and len(rows) > BRANCH_CAP:
                raise ExplosionGuard(f"branch count {len(rows)} exceeds the cap of {BRANCH_CAP}")
            layout, kept, held = (self.layout.drop(register) if drop else self.layout,
                                  _kept(amps, split, rows, values, probs, drop), None)
            weights = self.probs if rows is None else self.probs.take(rows) * probs
        outcomes = self.outcomes if rows is None else self.outcomes.take(rows, 0)
        if not drop:
            grown = np.empty((len(outcomes), len(self.header) + 1), np.intp)
            grown[:, :-1], grown[:, -1] = outcomes, values
            outcomes = grown
        return Stage(layout, kept, weights, self.header + (() if drop else (record,)), outcomes,
                     held), values

    def act(self, actions: Sequence, round_index: int, rng) -> "Stage":
        """Eve's actions in order; callers check their registers first."""
        stage = self
        for action in actions:
            stage = (stage.gate(action.gate) if action.gate is not None else
                     stage.measure(action.measure, rng, (round_index, action.measure))[0])
        return stage

    def encode(self, q) -> "Stage":
        """Alice's step, unchecked: adjoin k in |q>, q an int or one per row, add "a" onto it."""
        held = self.held
        if held is None or held.amps is not self.amps:
            new = self.layout.insert(KEY, self.layout.axis(BOB) + 1)
            return Stage(new, _encoded(self.amps, new, q), *self[2:5])
        stored = held.hit(("encode", q))
        if stored is None:
            new = self.layout.insert(KEY, self.layout.axis(BOB) + 1)
            stored = held.keep(("encode", q), new, _encoded(self.amps, new, q), self.probs)
        return self._recorded(stored)

    def decode(self, rng: np.random.Generator | None):
        """Bob subtracts "b" from k, measures k unrecorded and slices it away."""
        return self.gate(_DECODE).measure(KEY, rng)


def _encoded(amps: np.ndarray, layout: RegisterLayout, q) -> np.ndarray:
    """Rows of amps with k adjoined in |q> over `layout`, and "a" added onto it."""
    return _gated(layout, _inserted(amps, layout, KEY, q), _ENCODE)


def alice_encode(state: PureState, q: int) -> PureState:
    """Adjoin the key qudit in |q> and add the carrier half "a" onto it."""
    _require(state, ALICE, BOB)
    _check_value(q, KEY, state.layout.d)
    return Stage.of(state).encode(q).state(0)


def bob_decode(state: PureState, rng: np.random.Generator) -> tuple[int, PureState]:
    """Subtract "b" from the key qudit, measure it, and drop it.

    Honest traffic makes the outcome certain; under attack it may be random,
    and rng drives the sampling, as in qudit.measure.
    """
    _require(state, BOB, KEY)
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


def _validate_script(config: ProtocolConfig,
                     script: adversary.AttackScript | None) -> adversary.AttackScript:
    """The script to run (EMPTY_SCRIPT for None), refused for a round past the session, a
    register its slot lacks, or a dense gate whose matrix side is not d^len(targets).

    pre_bob actions may touch k and Eve's registers; post_decode actions only
    Eve's, since Bob has dropped k by then.
    """
    script = adversary.EMPTY_SCRIPT if script is None else script
    last = max(script.rounds, default=0)
    if last > config.rounds:
        raise ConfigError(f"script addresses round {last}, session has {config.rounds}")
    eve = eve_register_labels(config.eve_registers)
    allowed = {"pre_bob": {KEY, *eve}, "post_decode": set(eve)}
    passed = set()  # ids of action tuples already checked: presets share one across rounds
    for r, actions in sorted(script.rounds.items()):
        if id(actions) in passed:
            continue
        for action in actions:
            unknown = set(action.registers) - allowed[action.timing]
            if unknown:
                raise ScriptRegisterUnknown(
                    f"round {r} {action.timing} action references registers {sorted(unknown)}; "
                    f"available: {sorted(allowed[action.timing])}")
            if action.gate is not None:
                _check_side(action.gate, config.d, f"round {r} ")
        passed.add(id(actions))
    return script


def _start(config: ProtocolConfig) -> Stage:
    """The one starting row: the carrier pair and Eve's registers in |0>."""
    state = init_carrier(config.d)
    for label in eve_register_labels(config.eve_registers):
        state = insert_register(state, label, 0, len(state.layout))
    return Stage.of(state)


def _round_loop(stage: Stage, keys: Iterable[int], first_round: int,
                script: adversary.AttackScript, rng: np.random.Generator | None):
    """The one round loop, over the rows of a Stage.

    Runs one round per key (an int, or one per row) from round first_round on.
    After each of STAGES it yields (round, key, stage name, Stage, Bob's outcome,
    one per row without an rng, or None); Stage.measure refuses more than BRANCH_CAP rows.
    With an rng, one step table (`_Steps`) serves the loop's rounds.
    """
    steps = None if rng is None else _Steps()
    for r, q in enumerate(keys, start=first_round):
        if steps is not None:  # sampled: each round's records are read at its end
            stage = steps.start(stage)
        stage = stage.encode(q)
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
    script = _validate_script(config, script)
    _check_tol(schmidt_tol)
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
            ok = None if decoded is None else decoded == q
            held = stage.held
            if held is None or held.amps is not stage.amps:
                diag[name] = analysis.diagnose(stage.state(0), r, name, ok, schmidt_tol)
            else:  # once per held row, stamped with each round's own fields
                snapshot = held.hit("diagnose") or held.store("diagnose", analysis.diagnose(
                    stage.state(0), r, name, ok, schmidt_tol))
                diag[name] = analysis.StageDiagnostics(
                    r, name, snapshot.rho_k_spectrum, snapshot.entropy_k,
                    dict(snapshot.schmidt_ranks), ok)
        if name != "round_end":
            continue
        held = stage.held
        if held is None or held.amps is not stage.amps:
            norm = stage.state(0).norm()
        else:  # a held row is read-only: its norm once
            norm = held.norm = stage.state(0).norm() if held.norm is None else held.norm
        if abs(norm - 1.0) > 1e-10:
            raise InvariantViolation(f"state norm drifted to {norm:.12f} after round {r}")
        transcripts.append(RoundTranscript(
            round_index=r,
            mode="control" if r in config.control_rounds else "message",
            key_sent=q,
            key_decoded=decoded,
            eve_records=stage.records(0) if stage.header else (),
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
    script = _validate_script(config, script)
    for *_, stage, _ in _round_loop(_start(config), resolved_keys(config), 1, script, None):
        pass
    return [SessionBranch(p, stage.state(i), stage.records(i))
            for i, p in enumerate(stage.probs.tolist())]

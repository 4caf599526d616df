"""Honest protocol sessions over a reusable entangled carrier.

Alice and Bob share the two carrier halves "a" and "b", prepared once in the
maximally entangled pair state.  Each round Alice adjoins a key qudit "k" in
|q>, adds "a" onto it, and sends it; Bob subtracts "b" and measures "k" to
read the key back, which also returns the carrier to its starting state, so
the same pair serves every round.

One round loop runs every kind of session on a `Stage`, whose branches are
rows of arrays, so each encode, gate, measurement and decode is one array
operation, and each round is four steps, run through a step table (`_Steps`):
encode, Eve's pre_bob actions, decode, her post_decode actions.  The table owns
every sampled draw: `run_session`'s table holds the session rng, and each of
Eve's measurements and Bob's decode draws one outcome from it, one row.
`run_session_branches` passes no table, so its table has no rng and
`Stage.measure` repeats each row once per outcome.  The exact analysis
(`adversary.eve_conditional_states`) stacks key prefixes as rows.
`alice_encode` is the checked one-row view of the encode, `bob_decode` of a
table's decode.

Because the carrier comes back after every decode, a sampled session keeps
revisiting a few rows.  So `run_session`'s table keeps them: rows are ints,
interned by (layout, bytes) at round start, and each held row keeps the result
of each step once (the encode per key value, each gate, a measurement's draw
table and kept rows, Bob's decode as one step with no gated row held,
`analysis.diagnose`, the norm), a step's result as the row it leads to, so a
warm round is a few lookups.  A stage on no held row takes the same steps and
stores nothing.  Every measurement still draws from the session rng, so
outputs keep every bit.  The table holds at most STEP_TABLE_BYTES and closes
on steps that do not come back; nothing in it refers back to it, so reference counting
frees it with the session.  A round's record, `RoundTranscript`, is a tuple;
`cli` writes the `run` report's rows from it through `serialize`'s templates.
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
    _check_rng,
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
    """A round loop's steps: with an rng, every sampled draw of one session, each
    distinct (held row, step) computed once.

    The table is plain data.  A row is an int, an index into `rows`, the record-free
    Stages over the read-only amplitudes it holds; `results[row]` maps a step key to
    the step's result on that row: the row it leads to, a draw table, a diagnostics
    snapshot or the norm.  Round starts are interned by (layout, bytes).  `row` is
    the row the last step led to, and a stage is on it only while it has that row's
    amplitudes (`held`, the one check), so a stage that drifts off it reads nothing.
    A stage on no row takes a step's misses and stores nothing.  The table of an
    exhaustive loop has no rng and starts no round, so its steps are the plain Stage
    steps, and its measurements Stage.measure, which keeps every outcome.  A held
    row costs its bytes plus ENTRY_BYTES, which covers its norm; another result
    ENTRY_BYTES, plus OBJECT_BYTES if it is not a row; a noted start its bytes; past
    STEP_TABLE_BYTES nothing more is held.  The table closes, and later rounds run
    on no row, once its misses (steps computed on held rows, and first visits)
    outnumber its hits by SLACK.  Draws are never cached.  No entry names the table
    or another entry by object, so reference counting frees it with its session.
    """

    ENTRY_BYTES = 256  # a dict entry and its key, with an array header, a Stage or a norm
    OBJECT_BYTES = 1024  # a result that is not a row: a draw table or a diagnostics snapshot
    SLACK = 64

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng  # a sampled session's rng; None keeps every outcome
        self.room, self.balance = STEP_TABLE_BYTES, 0  # balance: hits less misses
        self.row, self.rows, self.results = None, [], []
        self._starts = {}  # (layout, bytes) -> the held start row, or None after one visit

    def held(self, stage: "Stage") -> dict | None:
        """The results of the row the stage is on, or None if it is on no row."""
        row = self.row
        return None if row is None or self.rows[row].amps is not stage.amps else self.results[row]

    def hit(self, results: dict | None, key):
        """The stored result of the step `key` on the loop's row, or None; either counts.
        A stage on no row (results None) has none and counts nothing."""
        if results is None:
            return None
        hit = results.get(key)
        self.balance += 1 if hit is not None else -1
        return hit

    def fits(self, size: int) -> bool:
        """Take size bytes of the budget if they are left."""
        if size > self.room:
            return False
        self.room -= size
        return True

    def store(self, results: dict | None, key, value):
        """value, stored as the step `key`'s result if it fits: a draw table or a snapshot."""
        if results is not None and self.fits(self.ENTRY_BYTES + self.OBJECT_BYTES):
            results[key] = value
        return value

    def _hold(self, stage: "Stage") -> int:
        """A new row: the record-free stage, its amplitudes made read-only."""
        stage.amps.setflags(write=False)
        self.rows.append(stage)
        self.results.append({})
        return len(self.rows) - 1

    def _keep(self, results: dict | None, key, new: "Stage") -> int | None:
        """The row of `new`, the record-free result of the step `key` on the loop's row,
        stored if it fits, else None: a new row costs its bytes and an entry, the same row
        only the key.  A stage on no row (results None) keeps nothing."""
        if results is None:
            return None
        same = new.amps is self.rows[self.row].amps
        if not self.fits(self.ENTRY_BYTES + (0 if same else new.amps.nbytes + self.ENTRY_BYTES)):
            return None
        row = results[key] = self.row if same else self._hold(new)
        return row

    def _at(self, row: int | None, new: "Stage | None", stage: "Stage") -> "Stage":
        """The loop's next stage: the held `row`, else the record-free `new`, with the
        records of `stage`."""
        self.row, new = row, new if row is None else self.rows[row]
        return new if not stage.header else Stage(new.layout, new.amps, *stage[2:])

    def start(self, stage: "Stage") -> "Stage":
        """The stage a sampled round starts from: no records, on the held row with the
        stage's layout and bytes if there is one."""
        row = None
        if self.balance >= -self.SLACK:  # open
            results = self.held(stage)
            row = None if results is None else results.get("start")
            if row is None:
                row = self._intern(stage, results is not None)
                if results is not None and row is not None and self.fits(self.ENTRY_BYTES):
                    results["start"] = row  # the next visit of this row finds it in one lookup
        self.row = row
        if row is None:
            return Stage(stage.layout, stage.amps, stage.probs, (), _NO_RECORDS)
        return self.rows[row]

    def _intern(self, stage: "Stage", on_row: bool) -> int | None:
        key = stage.layout, stage.amps.tobytes()
        row = self._starts.get(key, self)
        if row is self and not on_row:  # a first visit notes the bytes
            self.balance -= 1
            if self.fits(len(key[1])):
                self._starts[key] = None
            return None
        if row is self or row is None:  # a second visit, or one that ends a held round
            if on_row:
                row = self.row
            elif self.fits(stage.amps.nbytes + self.ENTRY_BYTES):
                row = self._hold(Stage(stage.layout, stage.amps, stage.probs, (), _NO_RECORDS))
            else:
                row = None
            if row is not None and self.fits(len(key[1])):
                self._starts[key] = row
        return row

    def step(self, stage: "Stage", key, fn, arg) -> "Stage":
        """fn(stage, arg), Stage.encode or Stage.gate, looked up under `key` on a held row."""
        results = self.held(stage)
        if results is None:
            return fn(stage, arg)
        row, new = self.hit(results, key), None
        if row is None:
            new = fn(self.rows[self.row], arg)
            row = self._keep(results, key, new)
        return self._at(row, new, stage)

    def act(self, stage: "Stage", actions: Sequence, round_index: int) -> "Stage":
        """Eve's actions in order; callers check their registers first.  The validated
        script holds every gate for the loop's life, so a gate's id names it in a step key."""
        for action in actions:
            stage = (self.step(stage, id(action.gate), Stage.gate, action.gate)
                     if action.gate is not None else
                     self.measure(stage, action.measure, (round_index, action.measure),
                                  None)[0])
        return stage

    def measure(self, stage: "Stage", register: str = KEY,
                record: tuple[int, str] | None = None, gate: GateSpec | None = _DECODE):
        """(stage, outcome) of one measurement of `register` after `gate`: Eve's, with no
        gate and a `record` column, collapsed in place, or by default Bob's decode
        (`decode`), the _DECODE gate and an unrecorded measurement of k, sliced away.
        The session rng draws every outcome.  On a held row the draw table and the kept
        row per drawn value are computed once, under Eve's register or "decode", and the
        gated row between them is not stored; a stage on no row takes the same misses
        and stores nothing.  With no rng, Stage.measure keeps every outcome as a row."""
        results = self.held(stage)
        if results is None and self.rng is None:
            return (stage if gate is None else stage.gate(gate)).measure(register, record)
        name, gated = register if gate is None else "decode", None
        draws = self.hit(results, name)
        if draws is None:  # each miss splits: a warm round builds nothing before its lookups
            gated = stage.amps if gate is None else _gated(stage.layout, stage.amps, gate)
            draws = self.store(results, name,
                               _draws(_marginal(gated, _split(stage.layout, register))))
        value, prob = _draw(draws, self.rng)
        row, new = self.hit(results, (name, value)), None
        if row is None:
            if gated is None:
                gated = stage.amps if gate is None else _gated(stage.layout, stage.amps, gate)
            drop = record is None
            kept = _kept(gated, _split(stage.layout, register), None, value, prob, drop)
            new = Stage(stage.layout.drop(register) if drop else stage.layout, kept,
                        stage.probs, (), _NO_RECORDS)
            row = self._keep(results, (name, value), new)
        if record is None:
            return self._at(row, new, stage), value
        self.row, new = row, new if row is None else self.rows[row]
        outcomes = np.empty((1, len(stage.header) + 1), np.intp)
        outcomes[0, :-1], outcomes[0, -1] = stage.outcomes[0], value
        header = stage.header + (record,)
        return Stage(new.layout, new.amps, stage.probs, header, outcomes), value

    decode = measure  # Bob's step: measure's defaults


class Stage(NamedTuple):
    """A session's branches at one stage, as rows over one layout: amps is
    (B, layout.dim), probs (B,), and Eve's records (and the exact walk's key
    prefix) a header of (round, register) columns over a (B, len(header)) matrix."""

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

    def measure(self, register: str, record: tuple[int, str] | None = None):
        """(stage, outcomes): each row repeated once per outcome above BRANCH_PRUNE, one
        outcome per row, refused past BRANCH_CAP rows before they are built.  A `record`
        adds a header column and collapses the register in place; without one the
        register is sliced away.  A sampled draw is `_Steps.measure`."""
        split, drop = _split(self.layout, register), record is None
        rows, values, probs = _outcomes(_marginal(self.amps, split))
        if len(rows) > BRANCH_CAP:
            raise ExplosionGuard(f"branch count {len(rows)} exceeds the cap of {BRANCH_CAP}")
        kept = _kept(self.amps, split, rows, values, probs, drop)
        weights = self.probs.take(rows) * probs
        outcomes = self.outcomes.take(rows, 0)
        if not drop:
            grown = np.empty((len(outcomes), len(self.header) + 1), np.intp)
            grown[:, :-1], grown[:, -1] = outcomes, values
            outcomes = grown
        return Stage(self.layout.drop(register) if drop else self.layout, kept, weights,
                     self.header + (() if drop else (record,)), outcomes), values

    def encode(self, q) -> "Stage":
        """Alice's step, unchecked: adjoin k in |q>, q an int or one per row, add "a" onto it."""
        new = self.layout.insert(KEY, self.layout.axis(BOB) + 1)
        return Stage(new, _gated(new, _inserted(self.amps, new, KEY, q), _ENCODE), *self[2:])


def alice_encode(state: PureState, q: int) -> PureState:
    """Adjoin the key qudit in |q> and add the carrier half "a" onto it."""
    _require(state, ALICE, BOB)
    _check_value(q, KEY, state.layout.d)
    return Stage.of(state).encode(q).state(0)


def bob_decode(state: PureState, rng: np.random.Generator) -> tuple[int, PureState]:
    """Subtract "b" from the key qudit, measure it, and drop it.

    Honest traffic makes the outcome certain; under attack it may be random,
    and rng, a numpy Generator, drives the sampling, as in qudit.measure.
    """
    _require(state, BOB, KEY)
    _check_rng(rng)
    stage, outcome = _Steps(rng).decode(Stage.of(state))
    return outcome, stage.state(0)


class RoundTranscript(NamedTuple):
    """One sampled round: its index, mode, sent and decoded keys, Eve's records and
    the StageDiagnostics by stage name.  `to_json_dict` is the reference document
    of the `run` report's row."""

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
                script: adversary.AttackScript, steps: _Steps | None):
    """The one round loop, over the rows of a Stage.

    Runs one round per key (an int, or one per row) from round first_round on.
    After each of STAGES it yields (round, key, stage name, Stage, Bob's outcome,
    one per row without an rng, or None); Stage.measure refuses more than BRANCH_CAP rows.
    A sampled session passes its step table (`_Steps`), which holds the session rng,
    makes every draw and serves every round; with None every measurement runs
    Stage.measure, which keeps each outcome as a row.
    """
    steps = _Steps() if steps is None else steps
    for r, q in enumerate(keys, start=first_round):
        if steps.rng is not None:  # sampled: each round's records are read at its end
            stage = steps.start(stage)
        stage = steps.step(stage, ("encode", q), Stage.encode, q)
        yield r, q, "post_encode", stage, None
        stage = steps.act(stage, script.actions(r, "pre_bob"), r)
        yield r, q, "post_attack", stage, None
        stage, decoded = steps.decode(stage)
        yield r, q, "post_decode", stage, decoded
        stage = steps.act(stage, script.actions(r, "post_decode"), r)
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

    steps = _Steps(np.random.default_rng([_SESSION_STREAM, config.seed]))
    transcripts = []
    diag: dict = {}
    for r, q, name, stage, decoded in _round_loop(
            _start(config), resolved_keys(config), 1, script, steps):
        if name in stages:  # once per held row, stamped with each round's own fields
            ok, held = None if decoded is None else decoded == q, steps.held(stage)
            snapshot = steps.hit(held, "diagnose") or steps.store(held, "diagnose", (
                analysis.diagnose(stage.state(0), r, name, ok, schmidt_tol)))
            diag[name] = analysis.StageDiagnostics(
                r, name, snapshot.rho_k_spectrum, snapshot.entropy_k,
                dict(snapshot.schmidt_ranks), ok)
        if name != "round_end":
            continue
        held = steps.held(stage)
        norm = None if held is None else held.get("norm")
        if norm is None:
            norm = stage.state(0).norm()
            if held is not None:  # a held row is read-only: its norm once
                held["norm"] = norm
        if abs(norm - 1.0) > 1e-10:
            raise InvariantViolation(f"state norm drifted to {norm:.12f} after round {r}")
        transcripts.append(RoundTranscript(
            r, "control" if r in config.control_rounds else "message", q, decoded,
            stage.records(0) if stage.header else (), diag))
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

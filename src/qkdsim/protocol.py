"""Honest protocol sessions over a reusable entangled carrier.

Alice and Bob share the two carrier halves "a" and "b", prepared once in the
maximally entangled pair state.  Each round Alice adjoins a key qudit "k" in
|q>, adds "a" onto it, and sends it; Bob subtracts "b" and measures "k" to
read the key back, which also returns the carrier to its starting state, so
the same pair serves every round.

One round loop runs both kinds of session: with `run_session`'s rng each
measurement draws one outcome, so there is one branch; `run_session_branches`
passes None, so each outcome becomes a branch of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import adversary
from .errors import (
    ConfigError,
    ExplosionGuard,
    InvalidDimension,
    InvariantViolation,
    MissingRegister,
    ScriptRegisterUnknown,
    ValueOutOfRange,
)
from .qudit import (
    GateSpec,
    PureState,
    RegisterLayout,
    _outcomes,
    apply_gate,
    insert_register,
    remove_register,
)

ALICE, BOB, KEY = "a", "b", "k"
STAGES = ("post_encode", "post_attack", "post_decode", "round_end")
# most branches an exhaustive session may hold after any stage
BRANCH_CAP = 100_000

# independent seed streams for key generation and in-session sampling
_KEY_STREAM = 0x4B
_SESSION_STREAM = 0x5E


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
        if not isinstance(self.d, int) or self.d < 2:
            raise InvalidDimension(f"d must be an int >= 2, got {self.d!r}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if (self.keys is None) == (self.key_seed is None):
            raise ConfigError("set exactly one of keys or key_seed")
        if self.keys is not None:
            keys = tuple(int(q) for q in self.keys)
            if len(keys) != self.rounds:
                raise ConfigError(f"{len(keys)} keys given for {self.rounds} rounds")
            for q in keys:
                if not 0 <= q < self.d:
                    raise ValueOutOfRange(f"key value {q} not in [0, {self.d})")
            object.__setattr__(self, "keys", keys)
        control = frozenset(int(r) for r in self.control_rounds)
        if any(r < 1 or r > self.rounds for r in control):
            raise ConfigError(f"control rounds {sorted(control)} outside 1..{self.rounds}")
        object.__setattr__(self, "control_rounds", control)
        if self.eve_registers < 0:
            raise ConfigError("eve_registers must be >= 0")
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
    if not isinstance(d, int) or d < 2:
        raise InvalidDimension(f"d must be an int >= 2, got {d!r}")
    layout = RegisterLayout(d, (ALICE, BOB))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(layout, amps)


def alice_encode(state: PureState, q: int) -> PureState:
    """Adjoin the key qudit in |q> and add the carrier half "a" onto it."""
    layout = state.layout
    if not 0 <= q < layout.d:
        raise ValueOutOfRange(f"key value {q} not in [0, {layout.d})")
    for reg in (ALICE, BOB):
        if reg not in layout.labels:
            raise MissingRegister(f"state has no register {reg!r}")
    state = insert_register(state, KEY, q, layout.axis(BOB) + 1)
    return apply_gate(state, GateSpec.controlled_add(ALICE, KEY, 1))


def _decode(branches: list, rng: np.random.Generator | None) -> tuple[list, int | None]:
    """Subtract "b" from k, measure k and drop it, on every branch.

    Also returns Bob's last outcome, his only one when sampling.
    """
    decoded, outcome = [], None
    for prob, state, records in branches:
        state = apply_gate(state, GateSpec.controlled_add(BOB, KEY, state.layout.d - 1))
        for outcome, p, post in _outcomes(state, KEY, rng):
            decoded.append((prob * p, remove_register(post, KEY), records))
    return decoded, outcome


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
    [(_, state, _)], outcome = _decode([(1.0, state, ())], rng)
    return outcome, state


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
    if script.max_round() > config.rounds:
        raise ConfigError(
            f"script addresses round {script.max_round()}, session has {config.rounds}")
    allowed = {KEY, *eve_register_labels(config.eve_registers)}
    unknown = script.referenced_registers() - allowed
    if unknown:
        raise ScriptRegisterUnknown(
            f"script references registers {sorted(unknown)}; available: {sorted(allowed)}")


def _round_loop(config: ProtocolConfig, script: adversary.AttackScript,
                rng: np.random.Generator | None):
    """The one round loop, over (probability, state, eve_records) branches.

    Yields (round, key, stage, branches, Bob's outcome or None) after each of STAGES.
    """
    state = init_carrier(config.d)
    for label in eve_register_labels(config.eve_registers):
        state = insert_register(state, label, 0, len(state.layout))
    branches = [(1.0, state, ())]
    for r, q in enumerate(resolved_keys(config), start=1):
        branches = [(p, alice_encode(s, q), rec) for p, s, rec in branches]
        yield r, q, "post_encode", branches, None
        branches = adversary._run_actions(branches, script.actions(r, "pre_bob"), r, rng)
        yield r, q, "post_attack", branches, None
        branches, decoded = _decode(branches, rng)
        yield r, q, "post_decode", branches, decoded
        branches = adversary._run_actions(branches, script.actions(r, "post_decode"), r, rng)
        yield r, q, "round_end", branches, decoded


def run_session(config: ProtocolConfig, script: adversary.AttackScript | None = None,
                diagnostics: Iterable[str] = (), schmidt_tol: float = 1e-8,
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
    for r, q, stage, [(_, state, records)], decoded in _round_loop(config, script, rng):
        if stage in stages:
            diag[stage] = analysis.diagnose(state, r, stage, tol=schmidt_tol,
                                            decode_ok=None if decoded is None else decoded == q)
        if stage != "round_end":
            continue
        if abs(state.norm() - 1.0) > 1e-10:
            raise InvariantViolation(
                f"state norm drifted to {state.norm():.12f} after round {r}")
        transcripts.append(RoundTranscript(
            round_index=r,
            mode="control" if r in config.control_rounds else "message",
            key_sent=q,
            key_decoded=decoded,
            eve_records=adversary._unlinked(records, r),
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
    for *_, branches, _ in _round_loop(config, script, None):
        if len(branches) > BRANCH_CAP:  # checked at every stage, before the next one runs
            raise ExplosionGuard(f"branch count {len(branches)} exceeds the cap of {BRANCH_CAP}")
    return [SessionBranch(p, s, adversary._unlinked(rec)) for p, s, rec in branches]

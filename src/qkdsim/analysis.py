"""Stage diagnostics and the exhaustive search for eavesdropper exit moves.

The search asks, for a parameterized family of mid-protocol states: is there
a short sequence of mod-d gates on (k, e) after which Eve's memory is in a
product state while Bob still decodes the current key exactly, for every key
assignment at once?  Its inputs are checked once, at entry, before any
template state is built; the start states are then built once and shared.
Candidates found by the fast permutation path are re-verified on those states
by the dense oracle, which lowers each gate and Bob's decode once to a matrix,
before they are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from . import adversary, protocol, serialize
from .errors import (
    ConfigError,
    ExplosionGuard,
    FamilyTooLarge,
    IllegalRegisterAccess,
    InvariantViolation,
)
from .qudit import (
    SCHMIDT_TOL,
    GateSpec,
    PureState,
    RegisterLayout,
    _certain_value,
    _check_tol,
    _entropy,
    _fold,
    _is_integer,
    _rank,
    _reduced,
    apply_gate,
    schmidt_rank,
    to_dense,
)

MAX_SEARCH_DEPTH = 3
ENUMERATION_CAP = 1_000_000
KEY_TUPLE_CAP = 10_000


@dataclass(frozen=True)
class StageDiagnostics:
    """Snapshot of one protocol stage: key-qudit spectrum and Schmidt cuts."""

    round_index: int
    stage: str
    rho_k_spectrum: tuple[float, ...] | None
    entropy_k: float | None
    schmidt_ranks: dict
    decode_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "stage": self.stage,
            "rho_k_spectrum": None if self.rho_k_spectrum is None else list(self.rho_k_spectrum),
            "entropy_k": self.entropy_k,
            "schmidt_ranks": dict(self.schmidt_ranks),
            "decode_ok": self.decode_ok,
        }


@lru_cache(maxsize=64)
def _cut_plan(layout: RegisterLayout) -> tuple:
    """(fold for rho_k or None, ((name, fold), ...) for each standard cut that
    partitions the layout), each fold the qudit._fold plan of one side."""
    labels = set(layout.labels)
    eve = {l for l in labels if l.startswith("e")}
    sides = {
        "e|abk": (eve, {"a", "b", "k"}),
        "e|ab": (eve, {"a", "b"}),
        "a|bke": ({"a"}, {"b", "k"} | eve),
    }
    k_fold = _fold(layout, ("k",)) if "k" in labels and len(labels) > 1 else None
    cuts = tuple((name, _fold(layout, tuple(l for l in layout.labels if l in side_a)))
                 for name, (side_a, side_b) in sides.items()
                 if side_a and side_a | side_b == labels and not side_a & side_b)
    return k_fold, cuts


def diagnose(state: PureState, round_index: int, stage: str,
             decode_ok: bool | None = None, tol: float = SCHMIDT_TOL) -> StageDiagnostics:
    """Spectrum and entropy of the key qudit plus standard Schmidt cuts.

    Cuts that do not partition the current layout are skipped.  Each value is
    the one partial_trace, von_neumann_entropy and schmidt_rank give.
    """
    k_fold, cuts = _cut_plan(state.layout)
    spectrum = None
    entropy = None
    if k_fold is not None:
        eigs = np.linalg.eigvalsh(_reduced(state.amplitudes, k_fold)[0])
        spectrum = tuple(float(x) for x in eigs[::-1])
        entropy = _entropy(eigs, state.layout.d)
    return StageDiagnostics(
        round_index=round_index,
        stage=stage,
        rho_k_spectrum=spectrum,
        entropy_k=entropy,
        schmidt_ranks={name: _rank(state, fold, tol) for name, fold in cuts},
        decode_ok=decode_ok,
    )


@dataclass(frozen=True)
class RoundTemplate:
    """Family of mid-round states over (a, b, k, e) parameterized by a key tuple.

    Bob is about to decode the last key of the tuple.
    """

    template_id: str
    key_arity: int
    build: Callable[[int, tuple[int, ...]], PureState]


def _in_transit(d: int, keys: tuple[int, ...]) -> PureState:
    """sum_j |j, j, j + last key, j + first key> over (a, b, k, e): with one key,
    round 1 in transit and Eve's memory holding a copy of the flying value; with
    two, round 2 in transit after Eve stayed entangled through round 1."""
    layout = RegisterLayout(d, ("a", "b", "k", "e"))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for j in range(d):
        amps[layout.index_of((j, j, (j + keys[-1]) % d, (j + keys[0]) % d))] = 1.0 / np.sqrt(d)
    return PureState(layout, amps)


TEMPLATES = {
    "stage5_round1": RoundTemplate("stage5_round1", 1, _in_transit),
    "post_round1_round2": RoundTemplate("post_round1_round2", 2, _in_transit),
}


def get_template(template_id: str) -> RoundTemplate:
    try:
        return TEMPLATES[template_id]
    except KeyError:
        raise ConfigError(
            f"unknown template {template_id!r}; known: {sorted(TEMPLATES)}") from None


def default_gate_family(d: int) -> tuple[GateSpec, ...]:
    """Searchable alphabet: mod-d adds between k and e plus shifts of e.

    s = 0 members are identities and are pruned from the alphabet; they only
    duplicate shorter sequences.
    """
    gates = [GateSpec.controlled_add("k", "e", s) for s in range(1, d)]
    gates += [GateSpec.controlled_add("e", "k", s) for s in range(1, d)]
    gates += [GateSpec.shift("e", s) for s in range(1, d)]
    return tuple(gates)


def _family_description(family: Sequence[GateSpec], d: int, is_default: bool) -> str:
    if is_default:
        return (f"cadd(k->e,s), cadd(e->k,s), shift(e,s) for s in 1..{d - 1}; "
                "identity pruned")
    return f"custom family of {len(family)} gates"


@dataclass(frozen=True)
class KeyCaseEvidence:
    """Outcome of both exit conditions for one key assignment."""

    keys: tuple[int, ...]
    rank_e: int
    bob_outcome: int | None
    deterministic: bool
    residual: int | None
    ok: bool


@dataclass(frozen=True)
class CandidateVerdict:
    verified: bool
    evidence: tuple[KeyCaseEvidence, ...]


@dataclass(frozen=True)
class SearchCandidate:
    sequence: tuple[GateSpec, ...]
    verdict: str
    residual_expression: str | None
    residual_values: dict

    def to_json_dict(self) -> dict:
        return {
            "sequence": [adversary.gate_to_obj(g) for g in self.sequence],
            "verdict": self.verdict,
            "residual_expression": self.residual_expression,
            "residual_values": [
                {"keys": list(k), "value": v}
                for k, v in sorted(self.residual_values.items())
            ],
        }


@dataclass(frozen=True)
class FeasibilityReport:
    template_id: str
    d: int
    depth: int
    family: str
    rank_tol: float
    candidates: tuple[SearchCandidate, ...]
    exhaustive: bool
    enumeration_count: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "feasibility/1",
            "template": self.template_id,
            "d": self.d,
            "depth": self.depth,
            "family": self.family,
            "rank_tol": self.rank_tol,
            "exhaustive": self.exhaustive,
            "enumeration_count": self.enumeration_count,
            "candidates": [c.to_json_dict() for c in self.candidates],
        }


def _entry(template: RoundTemplate | str, d: int, gates: Sequence[GateSpec] | None,
           rank_tol: float, max_depth: int = 0) -> tuple:
    """(template, d, gates), None standing for the default family; refuses,
    before that family or any template state is built, a depth outside
    0..MAX_SEARCH_DEPTH, a d that RegisterLayout refuses, a rank_tol outside
    (0, inf), more than KEY_TUPLE_CAP key assignments, a state over (a, b, k,
    e) above protocol.STATE_CAP amplitudes and a gate off registers k and e."""
    if isinstance(template, str):
        template = get_template(template)
    if not _is_integer(max_depth) or not 0 <= max_depth <= MAX_SEARCH_DEPTH:
        raise ConfigError(f"max_depth {max_depth!r} is not an integer in 0..{MAX_SEARCH_DEPTH}")
    d = RegisterLayout(d, ("a", "b", "k", "e")).d
    _check_tol(rank_tol)
    if d ** template.key_arity > KEY_TUPLE_CAP:
        raise ExplosionGuard(
            f"d^arity = {d ** template.key_arity} key assignments exceed {KEY_TUPLE_CAP}")
    if d ** 4 > protocol.STATE_CAP:
        raise ExplosionGuard(f"a template state of {d}^4 amplitudes exceeds {protocol.STATE_CAP}")
    gates = default_gate_family(d) if gates is None else tuple(gates)
    off = {label for gate in gates for label in gate.registers} - {"k", "e"}
    if off:
        raise IllegalRegisterAccess(f"candidate gates may touch only k and e, found {sorted(off)}")
    return template, d, gates


def _start_states(template: RoundTemplate, d: int) -> dict:
    """Every key assignment's template state, in key order."""
    return {keys: template.build(d, keys) for keys in product(range(d), repeat=template.key_arity)}


def _evidence(starts: dict, gates: Sequence[GateSpec], decode: GateSpec,
              rank_tol: float) -> Iterator[KeyCaseEvidence]:
    """Check both exit conditions for each key assignment, lazily, in key order.

    Condition order per assignment: Eve's memory must be product across
    {e} | {a,b,k} before the qudit is forwarded, then Bob's decode must yield
    the last key of the tuple with certainty.
    """
    for keys, state in starts.items():
        for gate in gates:
            state = apply_gate(state, gate)
        rank = schmidt_rank(state, {"e"}, rank_tol)
        outcome = _certain_value(apply_gate(state, decode), "k")
        yield KeyCaseEvidence(
            keys=keys,
            rank_e=rank,
            bob_outcome=outcome,
            deterministic=outcome is not None,
            residual=_certain_value(state, "e"),
            ok=rank == 1 and outcome == keys[-1],
        )


def _dense_verdict(starts: dict, d: int, sequence: tuple[GateSpec, ...],
                   rank_tol: float) -> CandidateVerdict:
    """The dense oracle: each gate and Bob's decode lowered once to its matrix,
    then run on every key's state through the matmul branch of the kernel."""
    lowered = tuple(to_dense(gate, d) for gate in sequence)
    evidence = tuple(_evidence(starts, lowered, to_dense(protocol._DECODE, d), rank_tol))
    return CandidateVerdict(verified=all(ev.ok for ev in evidence), evidence=evidence)


def verify_candidate(template: RoundTemplate | str, d: int, sequence: Sequence[GateSpec],
                     rank_tol: float = SCHMIDT_TOL) -> CandidateVerdict:
    """Re-check a candidate from fresh template states through dense matrices.

    Accepts any gate sequence confined to registers k and e, not only
    members of the default search family.
    """
    template, d, sequence = _entry(template, d, tuple(sequence), rank_tol)
    return _dense_verdict(_start_states(template, d), d, sequence, rank_tol)


def _affine_expression(values: dict, d: int, arity: int) -> str | None:
    """Render residuals as c + sum(a_i * q_i) mod d when all exist and that form fits."""
    if None in values.values():
        return None
    const = values[(0,) * arity]
    coeffs = []
    for i in range(arity):
        unit = tuple(1 if j == i else 0 for j in range(arity))
        coeffs.append((values[unit] - const) % d)
    for keys, value in values.items():
        predicted = (const + sum(c * k for c, k in zip(coeffs, keys))) % d
        if predicted != value:
            return None
    terms = []
    if const:
        terms.append(str(const))
    for i, c in enumerate(coeffs):
        if c == 1:
            terms.append(f"q{i + 1}")
        elif c:
            terms.append(f"{c}*q{i + 1}")
    body = " + ".join(terms) if terms else "0"
    return f"{body} (mod {d})"


def feasibility_search(template: RoundTemplate | str, d: int, max_depth: int = 1,
                       family: Sequence[GateSpec] | None = None,
                       rank_tol: float = SCHMIDT_TOL) -> FeasibilityReport:
    """Enumerate all gate sequences up to max_depth and keep the exits.

    Sequences are visited in lexicographic order over the family alphabet,
    shortest first; the empty sequence is included.  Every candidate that
    passes the fast path is re-verified on the same start states by the
    dense oracle of verify_candidate before being reported.  A family that
    touches a register other than k and e is refused before any sequence is
    evaluated.
    """
    template, d, fam = _entry(template, d, family, rank_tol, max_depth)
    total = sum(len(fam) ** depth for depth in range(max_depth + 1))
    if total > ENUMERATION_CAP:
        raise FamilyTooLarge(f"{total} sequences exceed the cap of {ENUMERATION_CAP}")

    starts = _start_states(template, d)
    enumerated = 0
    candidates = []
    for depth in range(max_depth + 1):
        for sequence in product(fam, repeat=depth):
            enumerated += 1
            if not all(ev.ok for ev in _evidence(starts, sequence, protocol._DECODE, rank_tol)):
                continue
            dense = _dense_verdict(starts, d, sequence, rank_tol)
            if not dense.verified:
                raise InvariantViolation(
                    "fast path accepted a sequence the dense oracle rejects")
            residual_values = {ev.keys: ev.residual for ev in dense.evidence}
            candidates.append(SearchCandidate(
                sequence=sequence,
                verdict="verified",
                residual_expression=_affine_expression(
                    residual_values, d, template.key_arity),
                residual_values=residual_values,
            ))
    if enumerated != total:
        raise InvariantViolation(
            f"enumerated {enumerated} sequences, closed form says {total}")
    return FeasibilityReport(
        template_id=template.template_id,
        d=d,
        depth=max_depth,
        family=_family_description(fam, d, family is None),
        rank_tol=rank_tol,
        candidates=tuple(candidates),
        exhaustive=True,
        enumeration_count=enumerated,
    )


def render_report(report) -> str:
    """Deterministic JSON text for a feasibility report or diagnostics."""
    if isinstance(report, FeasibilityReport):
        return serialize.dumps(report.to_json_dict())
    if isinstance(report, StageDiagnostics):
        doc = {"schema_version": "diagnostics/1"}
        doc.update(report.to_json_dict())
        return serialize.dumps(doc)
    if isinstance(report, (list, tuple)) and all(
            isinstance(r, StageDiagnostics) for r in report):
        return serialize.dumps({
            "schema_version": "diagnostics/1",
            "stages": [r.to_json_dict() for r in report],
        })
    raise TypeError(f"cannot render {type(report).__name__}")

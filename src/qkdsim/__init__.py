"""Desk-scale simulator for a reusable-carrier qudit QKD protocol.

The package models the honest protocol (entangled carrier, per-round key
qudits), scripted eavesdropping on the flying qudit, stage diagnostics, and
an exhaustive search over short gate sequences that would let the
eavesdropper detach from the carrier without disturbing the decoded keys.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EmptyKeepSet,
    ExplosionGuard,
    FamilyTooLarge,
    IllegalRegisterAccess,
    InputError,
    InvalidBipartition,
    InvalidDimension,
    InvariantViolation,
    LayoutMismatch,
    MissingRegister,
    NonUnitaryMatrix,
    QkdSimError,
    RegisterCollision,
    ScriptRegisterUnknown,
    UnknownPreset,
    UnknownRegister,
    ValueOutOfRange,
)
from .qudit import (
    DensityMatrix,
    GateSpec,
    PureState,
    RegisterLayout,
    apply_gate,
    apply_gate_dense,
    gate_unitary,
    insert_register,
    measure,
    partial_trace,
    schmidt_rank,
    states_equal_up_to_phase,
    to_dense,
    von_neumann_entropy,
)
from .protocol import (
    ControlCheck,
    ProtocolConfig,
    RoundTranscript,
    SessionBranch,
    alice_encode,
    bob_decode,
    control_check,
    eve_register_labels,
    init_carrier,
    resolved_keys,
    run_session,
    run_session_branches,
)
from .adversary import (
    AttackScript,
    ConditionalStatesReport,
    EveAction,
    compile_schedule,
    eve_conditional_states,
    eve_disentangle,
    eve_entangle,
    gate_from_obj,
    script_from_obj,
)
from .analysis import (
    CandidateVerdict,
    FeasibilityReport,
    RoundTemplate,
    SearchCandidate,
    StageDiagnostics,
    default_gate_family,
    diagnose,
    feasibility_search,
    get_template,
    render_report,
    verify_candidate,
)

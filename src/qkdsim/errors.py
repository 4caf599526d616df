"""Exception types shared across the package; refusals of bad input subclass InputError."""


class QkdSimError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QkdSimError):
    """Base class for refusals of bad input: the CLI exits 1 on these."""


class InvalidDimension(InputError):
    """Register dimension d is not an integer >= 2."""


class ValueOutOfRange(InputError):
    """A residue or key value lies outside [0, d)."""


class UnknownRegister(QkdSimError):
    """A register label is not present in the layout."""


class RegisterCollision(QkdSimError):
    """A register with this label already exists."""


class MissingRegister(QkdSimError):
    """An operation needs a register the state does not carry."""


class NonUnitaryMatrix(InputError):
    """A dense gate matrix failed the unitarity check."""


class EmptyKeepSet(QkdSimError):
    """partial_trace was asked to keep no registers."""


class InvalidBipartition(QkdSimError):
    """A Schmidt cut does not split the registers into two nonempty sides."""


class LayoutMismatch(QkdSimError):
    """Two states do not share the same register layout."""


class ScriptRegisterUnknown(InputError):
    """An attack script references a register the session does not have."""


class IllegalRegisterAccess(InputError):
    """An eavesdropper action touches a register she cannot reach."""


class UnknownPreset(InputError):
    """Attack preset name is not recognised."""


class ExplosionGuard(InputError):
    """A brute-force enumeration would exceed the configured state budget."""


class FamilyTooLarge(InputError):
    """The gate-sequence enumeration would exceed the hard size cap."""


class ConfigError(InputError):
    """Bad user-supplied configuration or scenario."""


class InvariantViolation(QkdSimError):
    """An internal self-check failed during a run."""

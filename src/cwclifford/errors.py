"""Exception types shared across the package."""


class CwCliffordError(Exception):
    """Base class for all package-specific errors."""


class InputError(CwCliffordError):
    """Malformed or out-of-contract input (bad JSON, bad dims, unknown names)."""


class DimensionMismatch(InputError):
    pass


class DimensionTooLarge(InputError):
    pass


class AmbiguousOddIrreducible(InputError):
    pass


class ParityMismatch(InputError):
    pass


class OddDimension(InputError):
    pass


class OddMultiplicity(InputError):
    pass


class IllegalParityPattern(InputError):
    pass


class CoefficientConstraintViolated(InputError):
    pass


class AnticommutationViolated(InputError):
    pass


class NotInSoB(InputError):
    pass


class NotAProjector(InputError):
    pass


class NotSoBInvariant(InputError):
    pass


class PairNotAssociatedToMinusB(InputError):
    pass


class ConstraintViolated(InputError):
    pass


class InternalToleranceError(CwCliffordError):
    """An internal consistency check failed beyond its tolerance."""


class PredictionMismatch(InternalToleranceError):
    """A constructor's closed-form prediction disagrees with direct evaluation."""

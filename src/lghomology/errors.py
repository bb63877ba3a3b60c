"""Exception types shared across the package.

``exit_code`` is the status ``lgh`` exits with when the error reaches it.
"""


class LGError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class CompositionNonzero(LGError):
    """d_out . d_in != 0; the complex was assembled incorrectly."""


class ParseError(LGError):
    exit_code = 2

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


class UnknownVariable(ParseError):
    pass


class NotZeroDimensional(LGError):
    """The ideal has an infinite staircase."""


class ZeroPotentialGradient(LGError):
    """All partial derivatives of the potential vanish identically."""


class NonIsolated(LGError):
    """The critical locus is positive-dimensional."""

    exit_code = 3


class NonHomogeneous(LGError):
    pass


class WindowTooSmall(LGError):
    pass


class BadFunctional(LGError):
    """The chosen functional kills the curvature element."""


class UnitCurvature(LGError):
    """The curvature is a multiple of the unit, so normalized chains see
    none of it and ordinary HH has no curvature to contract by."""


class InfiniteCarrier(LGError):
    """Operation requires a finite-dimensional carrier."""


class WindowTooLarge(LGError):
    """A window is over its size limit, refused before it is built: the
    one chain window of ordinary HH (``MAX_WINDOW_TENSORS``), the chain
    bases of the Borel-Moore degrees asked for (``MAX_BM_TENSORS``), or the
    polyvector bases of a Koszul homology (``MAX_KOSZUL_BASIS``)."""

    exit_code = 4


class FactorizationInvalid(LGError):
    """The factors do not compose to W times the identity."""

    exit_code = 5


class PositiveDegreeCarrier(LGError):
    pass


class CharacteristicTooSmall(LGError):
    pass


class ShapeMismatch(LGError):
    pass


class ModelMismatch(LGError):
    pass


class MethodUnsupported(LGError):
    pass


class DegreeConstraintViolated(LGError):
    pass


class ParityViolation(LGError):
    """An element or map has the wrong Z/2 parity."""


class NonIsolatedSector(LGError):
    exit_code = 6


class BadCharacteristic(LGError):
    pass


class NotInvariant(LGError):
    pass

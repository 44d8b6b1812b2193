"""Exception hierarchy.

Two branches matter for the CLI exit-code mapping: ``ValidationError``
(bad inputs, bad files, bad configs -> exit 1) and ``NumericalError``
(the math gave up -> exit 2).
"""


class WushkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WushkitError):
    """Invalid user input: shapes, specs, configs, file formats."""


class NumericalError(WushkitError):
    """A numerical routine failed (not the caller's fault per se)."""


# --- linalg ---------------------------------------------------------------

class NotSymmetric(ValidationError):
    pass


class NotPositiveDefinite(NumericalError):
    """A Cholesky pivot came out non-positive; raise the damping."""


class NotPowerOfTwo(ValidationError):
    pass


class Singular(NumericalError):
    """Matrix is singular or too ill-conditioned to invert reliably."""


class NoConvergence(NumericalError):
    """LAPACK ``eigh`` failed to converge on a symmetric eigenproblem."""


class Overflow(NumericalError):
    """A result left the float64 range; scale the inputs down."""


# --- quantization ---------------------------------------------------------

class NaNInput(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


# --- tensor files ---------------------------------------------------------

class BadMagic(ValidationError):
    pass


class UnsupportedVersion(ValidationError):
    pass


class TruncatedPayload(ValidationError):
    pass


class DimOverflow(ValidationError):
    pass


# --- configs / generators -------------------------------------------------

class InvalidSpec(ValidationError):
    pass


class InvalidCovariance(ValidationError):
    pass

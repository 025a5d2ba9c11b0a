"""Exception hierarchy.

Three branches map onto the CLI exit codes: ValidationError (exit 2),
IoError (exit 3) and ComputationError (exit 4).
"""

from __future__ import annotations


class ShadowEvapError(Exception):
    """Base class for all package errors."""


class ValidationError(ShadowEvapError, ValueError):
    """Invalid configuration, invariant violation or bad user input."""


class ParseError(ValidationError):
    """Unparseable config or data file; message carries the position."""


class AxisMismatch(ValidationError):
    """Electrode/axis pairing violates the overlap-area convention
    (bottom electrode varies along x, top along y)."""


class UnknownField(ValidationError):
    """Requested field does not exist in the input table."""


class ZeroValidRows(ValidationError):
    """A measurement file contained no usable rows."""


class IoError(ShadowEvapError):
    """Filesystem-level failure while reading or writing artifacts."""


class ComputationError(ShadowEvapError):
    """Numerical model failure for otherwise valid inputs."""


class GrazingIncidence(ComputationError):
    """Flux arrives at or beyond 90 degrees; the site is unreachable."""


class DomainError(ComputationError):
    """Closed-form angle argument left [-1, 1] beyond the rounding guard."""


class DenominatorCollapse(ComputationError):
    """A width-formula denominator became non-positive (mask taller than
    the projected throw); the geometry is outside the model's validity."""


class NonPhysicalWidth(ComputationError):
    """A printed electrode width evaluated to zero or below (aperture
    fully closed by sidewall film and shadowing)."""


class EmptyInput(ComputationError):
    """An operation that needs data received none."""


class EmptyOrSingleton(ComputationError):
    """Sample statistics need at least two observations."""


class NonPositiveMean(ComputationError):
    """Coefficient of variation is undefined for non-positive means."""


class NonPositiveFrequency(ComputationError):
    """The resistance is too large for a positive qubit frequency."""


class DegenerateFit(ComputationError):
    """Least-squares problem has no sensitivity to the fit parameter."""

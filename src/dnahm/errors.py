"""Exception types raised across the package.

Every error that carries a diagnostic quantity (smallest eigenvalue,
condition estimate, deviation norm) stores it as an attribute so callers
can report it without parsing messages.
"""

from __future__ import annotations


class DnahmError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DnahmError):
    """Operands have incompatible shapes."""


class NotHermitian(DnahmError):
    """A matrix required to be Hermitian deviates beyond tolerance."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"not Hermitian: max deviation {deviation:.3e}")


class NotPositiveDefinite(DnahmError):
    """A matrix required to be positive-definite has a too-small eigenvalue.

    During evolution this is the breakdown signal.
    """

    def __init__(self, lambda_min: float):
        self.lambda_min = lambda_min
        super().__init__(f"not positive-definite: lambda_min = {lambda_min:.3e}")


class NoConvergence(DnahmError):
    """An iteration exhausted its budget without meeting its tolerance."""


class Singular(DnahmError):
    """A matrix required to be invertible is singular to working tolerance."""

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(f"singular matrix: condition estimate {condition:.3e}")


class DegenerateLeadingCoefficient(DnahmError):
    """Polynomial leading coefficient vanishes relative to the others."""


class SingularGamma(Singular):
    """A gamma matrix of a Braam-Austin chain is not invertible."""


class SingularGauge(Singular):
    """A gauge transformation matrix is not invertible."""


class NotRealityCompatible(DnahmError):
    """Chain does not satisfy the reality pattern D = -A*, P+ = -(P-)*."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"chain violates the reality pattern: max deviation {deviation:.3e}")


class ChainTooShort(DnahmError):
    """The chain has too few sites for the requested operation."""


class PointNotOnCurve(DnahmError):
    """A point does not lie on the spectral curve within tolerance."""


class EtaNearZero(DnahmError):
    """Transport requires eta bounded away from zero."""


class SingularPminus(Singular):
    """The P- map on a link is not invertible."""


class DegenerateSlice(DnahmError):
    """The zeta-degree of a spectral surface collapses at a sampled eta."""


class TooManyPoints(DnahmError):
    """A curve diagnostic asks for more points than its element budget allows."""


class InvalidMass(DnahmError):
    """The mass parameter p does not define a valid chain (2p must be a positive integer)."""


class InconsistentScalars(DnahmError):
    """Scalar chain data do not satisfy b = p- p+ + a d."""


class SeedExhausted(DnahmError):
    """Random seed generation failed after the retry budget."""


class RangeNotCovered(DnahmError):
    """A trajectory does not cover the z-values needed for embedding."""


class FlowBlowUp(DnahmError):
    """The Nahm flow left the finite doubles inside the integration range.

    A finite-time pole of the flow; z is the first grid node whose triple
    is not finite.
    """

    def __init__(self, z: float):
        self.z = z
        super().__init__(f"Nahm flow blows up: not finite from z = {z:.6g}")


class FormatError(DnahmError):
    """A serialized document is malformed."""

"""Exception types shared across the package."""


class InferaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(InferaError):
    """Declared shape does not match the provided probability vector."""


class NegativeProbability(InferaError):
    """A probability entry or budget is negative beyond tolerance, or not
    a finite number."""


class ZeroMass(InferaError):
    """A probability vector sums to zero and cannot be normalized."""


class SizeCap(InferaError):
    """A requested object exceeds the configured size cap."""


class InsufficientSupport(InferaError):
    """Conditioning event has zero probability."""


class UnsupportedAlphabet(InferaError):
    """Operation is only defined for binary coordinates."""


class NotAffiliated(InferaError):
    """Prior fails positive affiliation; carries a witness of the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateDistribution(InferaError):
    """Distribution support is too thin for the requested computation."""


class SpectralNormTooLarge(InferaError):
    """Influence matrix spectral norm is >= 1; the bound does not apply."""


class UnboundedInfluence(InferaError):
    """Influence matrix has an unbounded entry."""


class NoConvergence(InferaError):
    """Iteration cap hit before reaching the requested tolerance."""


class UndefinedRatio(InferaError):
    """A likelihood ratio has zero denominator and positive numerator."""


class LPError(InferaError):
    """Linear program could not be solved to optimality."""


class ParseError(InferaError):
    """Malformed input file or parameter string."""


class MissingDependency(InferaError):
    """A command needs a package that is not installed."""

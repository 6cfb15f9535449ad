"""Exception types shared across the package."""


class QuadrepError(Exception):
    """Base class for all package-specific errors."""


class FactorizationBoundError(QuadrepError):
    """Input exceeds the trial-division factorization bound."""


class EnumerationBoundError(QuadrepError):
    """Residue enumeration modulus exceeds the configured bound."""


class RepresentativeSearchError(QuadrepError):
    """A search for a coprime genus representative gave up.

    No library code raises it any more: genus fingerprints are read off the
    norm form's coefficients and the representatives walk ends by Dirichlet's
    theorem.  It stays exported for callers that still catch it.
    """


class ConsistencyError(QuadrepError):
    """An internal exactness check failed; indicates a bug, not bad input."""

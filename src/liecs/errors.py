"""Exception types shared across the package."""


class LiecsError(Exception):
    """Base class for package-specific failures."""


class HypothesisNotMet(LiecsError):
    """A construction was invoked outside the hypotheses that justify it."""


class InconsistencyError(LiecsError):
    """An internal cross-check failed; this indicates a bug, not bad input."""


class AlgebraFileError(LiecsError, ValueError):
    """An interchange file is syntactically or semantically invalid."""

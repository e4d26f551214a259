"""Exception hierarchy shared across the toolkit.

Every error the CLI turns into a distinct exit code has its own class here;
library code raises these instead of bare ValueError so callers can tell a
bad config from a bad corpus from a bad container.
"""


class PlreError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PlreError):
    """Unparseable or semantically invalid configuration."""


class DataError(PlreError):
    """Problem with input data (corpus, vocabulary, test set)."""


class EmptyCorpusError(DataError):
    """The token stream contained no sentences."""


class FactorizationError(PlreError):
    """Numerical failure inside a factorization (NaN/Inf in factors)."""


class ContainerError(PlreError):
    """Corrupt, truncated, or version-incompatible model container."""


class EvalError(PlreError):
    """Evaluation cannot proceed (zero probability, bos queried, empty test)."""


class VerificationError(PlreError):
    """A model invariant check failed."""

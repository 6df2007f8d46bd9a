"""Exception types shared across the package."""


class TooLargeError(ValueError):
    """An enumeration would exceed the configured desk-scale bound."""


class NotABijectionError(ValueError):
    """A supplied image array is not a permutation of its index range."""


class InternalInconsistencyError(RuntimeError):
    """A self-check inside a search failed; results must not be trusted."""

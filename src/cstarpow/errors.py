"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """A requested computation would exceed the configured size budget."""


class VerificationError(RuntimeError):
    """A computed result failed one of its independent consistency checks."""


class DegenerateDrawError(VerificationError):
    """A randomized spectral computation failed after the allowed retries."""

"""Shared exception types.

Every guard in the package raises one of these (or ValueError for plain
invalid arguments) so callers can tell a budget refusal from a genuine
numerical failure.
"""


class BudgetError(RuntimeError):
    """A requested computation exceeds an explicit size budget.

    Carries the estimated cost, so the refusal says how far over the
    budget the request was.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    `estimate` is the best value found, `error_bound` the last observed
    refinement difference.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class KernelError(ValueError):
    """A kernel fails a structural requirement (cancellation, decay)."""


class NotRepresentableError(ValueError):
    """An integer admits no factorization of the requested shape."""

"""Exception types shared across the package."""


class CoefficientRangeError(ValueError):
    """A diffusivity sample is non-finite or not strictly positive."""


class EvaluationError(ValueError):
    """A user-supplied function produced non-finite values during quadrature."""


class SolverFailureError(RuntimeError):
    """Iterative solve did not reach the requested tolerance.

    Carries the final relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

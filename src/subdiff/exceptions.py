"""Exception types shared across the package."""


class CoefficientRangeError(ValueError):
    """A diffusivity sample is non-finite or not strictly positive."""


class EvaluationError(ValueError):
    """A computed value is non-finite: a user-supplied function's during
    quadrature, the exact solution's modal decay, or its series sum."""


class SolverFailureError(RuntimeError):
    """Iterative solve did not reach the requested tolerance.

    Carries the final relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

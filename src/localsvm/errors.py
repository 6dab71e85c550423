"""Exception types shared across the package."""


class LocalSvmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LocalSvmError):
    """Invalid argument: bad dimensions, labels, weights or config values."""


class InsufficientDataError(InputError):
    """Not enough data to carry out the requested computation."""


class ConvergenceError(LocalSvmError):
    """The solver did not reach its gradient tolerance.

    Carries the best iterate found so callers can inspect or reuse it.
    """

    def __init__(self, message, best_alpha=None, grad_norm=None, iterations=None):
        super().__init__(message)
        self.best_alpha = best_alpha
        self.grad_norm = grad_norm
        self.iterations = iterations

"""Exception types shared across the package."""


class LocalSvmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LocalSvmError):
    """Invalid argument: bad dimensions, labels, weights or config values, or
    too few points for the request."""


class ConvergenceError(LocalSvmError):
    """A fit did not reach its gradient tolerance.

    ``region_id`` names the region whose fit failed ("global" for a fit on
    the whole sample), and the message starts with it. Carries the best
    iterate found so callers can inspect or reuse it.
    """

    def __init__(self, message, best_alpha=None, grad_norm=None, iterations=None,
                 region_id="global"):
        super().__init__(f"training failed in region {region_id}: {message}")
        self.best_alpha = best_alpha
        self.grad_norm = grad_norm
        self.iterations = iterations
        self.region_id = region_id

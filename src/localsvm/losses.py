"""Smooth convex Lipschitz losses with exact first and second t-derivatives.

Both shipped families have Lipschitz constant 1 and a globally bounded
second derivative (1/4 for classification, 1/2 for regression; the test
suite re-derives both constants on a dense grid). Non-smooth losses such as
hinge are deliberately not part of the enum: every shipped loss must be
twice continuously differentiable in t.

Evaluations are numerically stable for arguments up to |y - t| ~ 700, using
log1p/logaddexp branches instead of the naive formulas.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_LN4 = float(np.log(4.0))


def _expit(v):
    """1 / (1 + exp(-v)), from exp(-|v|) only: no overflow, exact tails."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


class SmoothLoss:
    """Base loss L(y, t); subclasses fill in value/dt/dtt and constants."""

    name: str = "abstract"
    lipschitz: float = 1.0
    is_classification: bool = False

    def _check_labels(self, y):
        y = np.asarray(y, dtype=float)
        if self.is_classification:
            flat = np.atleast_1d(y)
            bad = flat[np.abs(flat) != 1.0]
            if bad.size:
                raise InputError(
                    f"classification labels must be -1 or +1, got {bad[:5]!r}"
                )
        return y

    def value(self, y, t):
        raise NotImplementedError

    def shifted_value(self, y, t):
        """L*(y, t) = L(y, t) - L(y, 0); zero at t = 0, possibly negative."""
        y = np.asarray(y, dtype=float)
        return self.value(y, t) - self.value(y, np.zeros_like(y))

    def dt(self, y, t):
        raise NotImplementedError

    def dtt(self, y, t):
        raise NotImplementedError

    def __repr__(self):
        return self.__class__.__name__


class LogisticClassification(SmoothLoss):
    """L(y, t) = ln(1 + exp(-y t)) for labels y in {-1, +1}."""

    name = "logistic-classification"
    lipschitz = 1.0
    is_classification = True

    def value(self, y, t):
        y = self._check_labels(y)
        t = np.asarray(t, dtype=float)
        return np.logaddexp(0.0, -y * t)

    def dt(self, y, t):
        y = self._check_labels(y)
        t = np.asarray(t, dtype=float)
        return -y * _expit(-y * t)

    def dtt(self, y, t):
        y = self._check_labels(y)
        t = np.asarray(t, dtype=float)
        u = y * t
        return _expit(u) * _expit(-u)


class LogisticRegression(SmoothLoss):
    """L(y, t) = -ln(4 exp(y - t) / (1 + exp(y - t))^2) for real-valued y.

    Symmetric in r = y - t with minimum 0 at r = 0; evaluated as
    |r| + 2 ln(1 + exp(-|r|)) - ln 4 to stay finite for large residuals.
    """

    name = "logistic-regression"
    lipschitz = 1.0
    is_classification = False

    def value(self, y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        a = np.abs(y - t)
        return a + 2.0 * np.logaddexp(0.0, -a) - _LN4

    def dt(self, y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        return -np.tanh((y - t) / 2.0)

    def dtt(self, y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        e = np.exp(-np.abs(y - t))
        return 2.0 * e / (1.0 + e) ** 2


LOSSES = {
    LogisticClassification.name: LogisticClassification,
    LogisticRegression.name: LogisticRegression,
}


def loss_from_name(name: str) -> SmoothLoss:
    try:
        return LOSSES[name]()
    except KeyError:
        raise InputError(
            f"unknown loss {name!r}; expected one of {sorted(LOSSES)}"
        ) from None


import math

import numpy as np
import pytest

from localsvm import (InputError, LogisticClassification, LogisticRegression,
                      loss_from_name)

CLS = LogisticClassification()
REG = LogisticRegression()


def naive_classification(y, t):
    return math.log(1.0 + math.exp(-y * t))


def naive_regression(y, t):
    # the published closed form, valid while exp does not overflow
    r = y - t
    return -math.log(4.0 * math.exp(r) / (1.0 + math.exp(r)) ** 2)


def test_classification_values():
    assert CLS.value(1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert CLS.value(-1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert CLS.value(1.0, 35.0) == pytest.approx(math.log1p(math.exp(-35.0)), rel=1e-12)


def test_classification_matches_naive_formula():
    # the naive form itself loses relative precision once exp(-yt) is tiny,
    # hence the absolute floor on the comparison
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.choice([-1.0, 1.0])
        t = rng.uniform(-30.0, 30.0)
        assert CLS.value(y, t) == pytest.approx(
            naive_classification(y, t), rel=1e-12, abs=5e-16)


def test_regression_zero_at_perfect_fit():
    for y in (-3.0, 0.0, 2.5):
        assert REG.value(y, y) == 0.0
        assert REG.dt(y, y) == 0.0


def test_regression_matches_naive_formula():
    rng = np.random.default_rng(1)
    for _ in range(200):
        y = rng.uniform(-5.0, 5.0)
        t = rng.uniform(-5.0, 5.0)
        assert REG.value(y, t) == pytest.approx(naive_regression(y, t), rel=1e-12, abs=1e-14)
    assert REG.value(0.0, 1.0) == pytest.approx(naive_regression(0.0, 1.0), rel=1e-14)


def test_values_stable_for_huge_arguments():
    assert np.isfinite(CLS.value(1.0, -700.0)) and CLS.value(1.0, -700.0) == 700.0
    assert np.isfinite(REG.value(700.0, 0.0))
    assert REG.value(700.0, 0.0) == pytest.approx(700.0 - math.log(4.0), rel=1e-12)
    assert np.isfinite(REG.dtt(700.0, 0.0))


def test_values_nonnegative():
    rng = np.random.default_rng(2)
    y = rng.uniform(-10, 10, size=1000)
    t = rng.uniform(-10, 10, size=1000)
    assert np.all(REG.value(y, t) >= 0)
    labels = rng.choice([-1.0, 1.0], size=1000)
    assert np.all(CLS.value(labels, t) >= 0)


def test_classification_label_validation():
    with pytest.raises(InputError):
        CLS.value(0.5, 1.0)
    with pytest.raises(InputError):
        CLS.dt(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    # regression accepts any real label
    REG.value(0.37, 1.0)


def test_shifted_value_examples():
    for loss in (CLS, REG):
        for y in ((1.0,) if loss.is_classification else (0.3, -2.0)):
            assert loss.shifted_value(y, 0.0) == 0.0
    expected = math.log(1.0 + math.exp(-1.0)) - math.log(2.0)
    assert CLS.shifted_value(1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-0.379885, abs=1e-6)
    assert REG.shifted_value(0.0, 1.0) == pytest.approx(
        naive_regression(0.0, 1.0) - naive_regression(0.0, 0.0), rel=1e-12)


def test_shift_identity_exact():
    rng = np.random.default_rng(3)
    y = rng.uniform(-3, 3, size=500)
    t = rng.uniform(-3, 3, size=500)
    resid = REG.shifted_value(y, t) - REG.value(y, t) + REG.value(y, np.zeros(500))
    np.testing.assert_allclose(resid, 0.0, atol=1e-15)


def test_derivative_examples():
    assert CLS.dt(1.0, 0.0) == -0.5
    assert CLS.dtt(1.0, 0.0) == 0.25
    assert REG.dtt(0.0, 0.0) == 0.5


@pytest.mark.parametrize("loss", [CLS, REG])
def test_gradient_check_central_differences(loss):
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(1000):
        y = rng.choice([-1.0, 1.0]) if loss.is_classification else rng.uniform(-4, 4)
        t = rng.uniform(-4.0, 4.0)
        fd = (loss.value(y, t + h) - loss.value(y, t - h)) / (2 * h)
        dt = loss.dt(y, t)
        assert abs(dt - fd) <= 1e-6 * (1.0 + abs(dt))
        fd2 = (loss.dt(y, t + h) - loss.dt(y, t - h)) / (2 * h)
        dtt = loss.dtt(y, t)
        assert abs(dtt - fd2) <= 1e-6 * (1.0 + abs(dtt))


@pytest.mark.parametrize("loss", [CLS, REG])
def test_convexity_midpoint(loss):
    rng = np.random.default_rng(5)
    for _ in range(500):
        y = rng.choice([-1.0, 1.0]) if loss.is_classification else rng.uniform(-4, 4)
        t, s = rng.uniform(-6, 6, size=2)
        mid = loss.value(y, (t + s) / 2.0)
        assert mid <= (loss.value(y, t) + loss.value(y, s)) / 2.0 + 1e-12


@pytest.mark.parametrize("loss", [CLS, REG])
def test_lipschitz_audit(loss):
    rng = np.random.default_rng(6)
    lip = loss.lipschitz
    for _ in range(500):
        y = rng.choice([-1.0, 1.0]) if loss.is_classification else rng.uniform(-4, 4)
        t, s = rng.uniform(-50, 50, size=2)
        assert abs(loss.value(y, t) - loss.value(y, s)) <= lip * abs(t - s) + 1e-12


@pytest.mark.parametrize("loss,d2_expected", [(CLS, 0.25), (REG, 0.5)])
def test_constants_against_grid_oracle(loss, d2_expected):
    # dense grid sup of |L'| approaches the analytic Lipschitz constant 1,
    # and the second derivative attains its documented global bound
    t = np.linspace(-60.0, 60.0, 200001)
    labels = (-1.0, 1.0) if loss.is_classification else (-2.0, 0.0, 3.0)
    sup_d1 = max(float(np.abs(loss.dt(y, t)).max()) for y in labels)
    sup_d2 = max(float(loss.dtt(y, t).max()) for y in labels)
    assert sup_d1 <= 1.0 + 1e-12
    assert sup_d1 >= 1.0 - 1e-9
    assert sup_d2 <= d2_expected + 1e-12
    assert sup_d2 == pytest.approx(d2_expected, abs=1e-9)
    assert loss.lipschitz == 1.0


def test_loss_registry():
    assert isinstance(loss_from_name("logistic-classification"), LogisticClassification)
    assert isinstance(loss_from_name("logistic-regression"), LogisticRegression)
    with pytest.raises(InputError):
        loss_from_name("hinge")


def test_expit_matches_scipy():
    from scipy.special import expit
    from localsvm.losses import _expit

    v = np.concatenate([np.linspace(-740.0, 740.0, 200_001),
                        [-1e300, -50.0, -1e-300, 0.0, 1e-300, 50.0, 1e300]])
    ours, ref = _expit(v), expit(v)
    # below -709.78 scipy's 1 / (1 + exp(-v)) underflows to 0 while the
    # -|v| form keeps the subnormal value; both are within one tiny of 0
    normal = ref >= np.finfo(float).tiny
    np.testing.assert_allclose(ours[normal], ref[normal], rtol=1e-15, atol=0)
    assert np.all(np.abs(ours[~normal] - ref[~normal]) <= np.finfo(float).tiny)
    assert np.all((ours >= 0) & (ours <= 1))

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from localsvm import (CoverageError, ConvergenceError, GaussianRBF, InputError,
                      LocalModel, LogisticClassification, LogisticRegression,
                      TrainConfig, WeightedSample, audit_model_bounds,
                      objective, shifted_unshifted_identity_check, train)
from localsvm.kernels import _CHUNK_BUDGET
from conftest import random_sample

REG = LogisticRegression()
CLS = LogisticClassification()


def golden_section(fun, lo, hi, tol=1e-12):
    """Derivative-free 1-d minimizer, independent of the Newton path."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2.0


def nelder_mead_min(sample, kernel, loss, cfg, shifted=True):
    def fun(alpha):
        return objective(alpha, sample, kernel, loss, cfg, shifted=shifted)

    best = None
    for x0 in (np.zeros(sample.n), np.full(sample.n, 0.1)):
        res = minimize(fun, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14,
                                    maxiter=50000, maxfev=50000))
        if best is None or res.fun < best:
            best = float(res.fun)
    return best


def test_objective_zero_at_zero_coefficients():
    sample = random_sample(8, seed=1)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.5)
    assert objective(np.zeros(8), sample, k, REG, cfg) == 0.0


def test_objective_single_point_expansion():
    x = np.array([[0.4, -0.2]])
    sample = WeightedSample(x, np.array([1.2]), np.array([1.0]))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.7)
    alpha = np.array([0.9])
    # f(x1) = alpha * k(x1, x1) = alpha; J = L*(y, alpha) + lam alpha^2
    expected = REG.shifted_value(1.2, 0.9) + 0.7 * 0.9**2
    assert objective(alpha, sample, k, REG, cfg) == pytest.approx(expected, rel=1e-14)


def test_objective_uniform_weights_recover_mean_form():
    sample = random_sample(6, seed=2)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.3)
    alpha = np.random.default_rng(3).normal(size=6) * 0.1
    G = k.gram(sample.X)
    f = G @ alpha
    by_hand = float(np.mean(REG.shifted_value(sample.y, f)) + 0.3 * alpha @ f)
    assert objective(alpha, sample, k, REG, cfg) == pytest.approx(by_hand, rel=1e-13)


def test_train_single_point_y0_matches_golden_section():
    x = np.array([[1.0, 2.0]])
    sample = WeightedSample(x, np.array([0.0]), np.array([1.0]))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=10.0)
    model = train(sample, k, REG, cfg)
    f_hat = model.predict_one([1.0, 2.0])
    # golden-section oracle on the scalar coefficient
    a_star = golden_section(
        lambda a: REG.shifted_value(0.0, a) + 10.0 * a * a, -1.0, 1.0)
    assert abs(model.alpha[0] - a_star) <= 1e-8
    # y = 0 makes t = 0 the unpenalized optimum, so f collapses to 0
    assert abs(f_hat) <= abs(REG.dt(0.0, 0.0)) / (2.0 * 10.0) + 1e-10


def test_train_symmetric_pair_classification_is_zero():
    X = np.array([[0.3, 0.3], [0.3, 0.3]])
    sample = WeightedSample(X, np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    model = train(sample, k, CLS, TrainConfig(lam=0.4))
    assert abs(model.predict_one([0.3, 0.3])) <= 1e-10


def test_train_matches_nelder_mead_oracle_five_points():
    sample = random_sample(5, seed=4)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.25)
    model = train(sample, k, REG, cfg)
    ours = objective(model.alpha, sample, k, REG, cfg)
    oracle = nelder_mead_min(sample, k, REG, cfg)
    assert ours <= oracle + 1e-6
    assert abs(ours - oracle) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_optimality_certificate_and_objective_sign(seed):
    classification = seed % 2 == 0
    sample = random_sample(12, seed=seed, classification=classification)
    loss = CLS if classification else REG
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.2)
    model = train(sample, k, loss, cfg)
    G = k.gram(sample.X)
    f = G @ model.alpha
    grad = G @ (sample.weights * loss.dt(sample.y, f) + 2 * cfg.lam * model.alpha)
    assert np.max(np.abs(grad)) <= cfg.grad_tol
    assert objective(model.alpha, sample, k, loss, cfg) <= 0.0


def test_train_deterministic_bitwise():
    sample = random_sample(20, seed=5)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.5)
    a = train(sample, k, REG, cfg).alpha
    b = train(sample, k, REG, cfg).alpha
    np.testing.assert_array_equal(a, b)


def test_warm_start_agrees_with_cold_start():
    sample = random_sample(15, seed=6)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.5)
    cold = train(sample, k, REG, cfg)
    warm = train(sample, k, REG, cfg, warm_start=cold.alpha + 0.01)
    assert np.max(np.abs(cold.alpha - warm.alpha)) <= 1e-7


def test_shifted_unshifted_identity():
    for seed in range(5):
        classification = seed % 2 == 1
        sample = random_sample(20, seed=seed, classification=classification)
        loss = CLS if classification else REG
        k = GaussianRBF(gamma=1.0, input_dim=2)
        report = shifted_unshifted_identity_check(sample, k, loss, TrainConfig(lam=0.3))
        assert report.alpha_diff_inf <= 1e-8


def test_shifted_unshifted_identity_symmetric_case():
    X = np.array([[0.1, 0.1], [0.1, 0.1]])
    sample = WeightedSample(X, np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    report = shifted_unshifted_identity_check(sample, k, CLS, TrainConfig(lam=1.0))
    np.testing.assert_allclose(report.model_shifted.alpha, 0.0, atol=1e-12)
    np.testing.assert_allclose(report.model_base.alpha, 0.0, atol=1e-12)


def test_predict_examples():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    zero = LocalModel(alpha=np.zeros(2), anchors=np.zeros((2, 2)), kernel=k,
                      loss=REG, lam=0.5)
    assert zero.predict_one([5.0, 5.0]) == 0.0
    single = LocalModel(alpha=np.array([2.5]), anchors=np.array([[1.0, 1.0]]),
                        kernel=k, loss=REG, lam=0.5)
    assert single.predict_one([1.0, 1.0]) == 2.5
    two = LocalModel(alpha=np.array([1.0, -2.0]),
                     anchors=np.array([[0.0, 0.0], [1.0, 0.0]]),
                     kernel=k, loss=REG, lam=0.5)
    x = [0.5, 0.5]
    expected = 1.0 * k.eval(x, [0.0, 0.0]) - 2.0 * k.eval(x, [1.0, 0.0])
    assert two.predict_one(x) == pytest.approx(expected, rel=1e-15)


def test_predict_dimension_mismatch():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    model = LocalModel(alpha=np.array([1.0]), anchors=np.array([[0.0, 0.0]]),
                       kernel=k, loss=REG, lam=0.5)
    with pytest.raises(InputError):
        model.predict(np.zeros((3, 5)))


def test_h_norm_examples():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    zero = LocalModel(alpha=np.zeros(0), anchors=np.zeros((0, 2)), kernel=k,
                      loss=REG, lam=0.5)
    assert zero.h_norm() == 0.0
    single = LocalModel(alpha=np.array([2.0]), anchors=np.array([[0.3, 0.4]]),
                        kernel=k, loss=REG, lam=0.5)
    assert single.h_norm() == 2.0


@pytest.mark.parametrize("seed", range(5))
def test_h_norm_and_sup_bounds_on_trained_models(seed):
    rng = np.random.default_rng(seed)
    sample = random_sample(25, seed=seed + 100)
    lam = float(rng.uniform(0.05, 2.0))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    model = train(sample, k, REG, TrainConfig(lam=lam))
    probes = rng.uniform(-3, 3, size=(600, 2))
    check = audit_model_bounds(model, probes)
    assert check.h_norm <= 1.0 / lam + 1e-9
    assert check.sup_abs_f <= check.h_norm * check.k_sup + 1e-12
    assert check.sup_bound_ok and check.h_norm_ok


def test_train_with_linear_kernel_and_bound_audit():
    rng = np.random.default_rng(21)
    X = rng.uniform(-1, 1, size=(12, 2))
    y = X @ np.array([0.5, -1.0]) + 0.05 * rng.standard_normal(12)
    sample = WeightedSample(X, y, np.full(12, 1 / 12))
    from localsvm import Linear

    model = train(sample, Linear(input_dim=2), REG, TrainConfig(lam=0.5))
    probes = rng.uniform(-1, 1, size=(200, 2))
    check = audit_model_bounds(model, probes)
    assert check.k_sup > 0 and check.sup_bound_ok and check.h_norm_ok


def test_convergence_error_carries_best_iterate():
    sample = random_sample(30, seed=9)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.01, grad_tol=1e-14, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        train(sample, k, REG, cfg)
    assert err.value.best_alpha is not None
    assert err.value.grad_norm > 0
    assert err.value.iterations == 1


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lam=0.0)
    with pytest.raises(InputError):
        TrainConfig(lam=1.0, grad_tol=0.0)
    with pytest.raises(InputError):
        TrainConfig(lam=1.0, max_iter=0)
    with pytest.raises(InputError):
        TrainConfig(lam=1.0, ridge=-1e-3)


def test_local_model_json_round_trip():
    sample = random_sample(10, seed=12)
    k = GaussianRBF(gamma=0.9, input_dim=2)
    model = train(sample, k, REG, TrainConfig(lam=0.4), region_id=3)
    blob = json.dumps(model.to_dict())
    back = LocalModel.from_dict(json.loads(blob))
    # decimal64 round trip must be lossless
    np.testing.assert_array_equal(back.alpha, model.alpha)
    np.testing.assert_array_equal(back.anchors, model.anchors)
    assert back.lam == model.lam and back.region_id == 3
    assert back.kernel == model.kernel
    X = np.random.default_rng(1).uniform(-2, 2, size=(50, 2))
    np.testing.assert_array_equal(back.predict(X), model.predict(X))


def test_predict_in_chunks_matches_full_matrix():
    # more than two row chunks, the last one partial
    k = GaussianRBF(gamma=0.8, input_dim=2)
    rng = np.random.default_rng(21)
    m = 2001
    anchors = rng.uniform(-2.0, 2.0, size=(m, 2))
    alpha = rng.normal(size=m)
    X = rng.uniform(-2.5, 2.5, size=(2 * (_CHUNK_BUDGET // m) + 17, 2))
    model = LocalModel(alpha=alpha, anchors=anchors, kernel=k, loss=REG, lam=0.5)
    expected = k.matrix(X, anchors) @ alpha
    np.testing.assert_allclose(model.predict(X), expected, rtol=0,
                               atol=1e-13 * np.abs(alpha).sum())


def test_predict_memory_stays_within_a_few_chunks():
    k = GaussianRBF(gamma=0.8, input_dim=2)
    rng = np.random.default_rng(22)
    model = LocalModel(alpha=rng.normal(size=1000),
                       anchors=rng.uniform(-2.0, 2.0, size=(1000, 2)),
                       kernel=k, loss=REG, lam=0.5)
    X = rng.uniform(-2.5, 2.5, size=(40_000, 2))
    tracemalloc.start()
    try:
        model.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _CHUNK_BUDGET * 8

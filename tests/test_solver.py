import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from localsvm import (ComposedModel, ConvergenceError, GaussianRBF, InputError,
                      Linear, LocalModel, LogisticClassification,
                      LogisticRegression, Polynomial, TrainConfig,
                      WeightedSample, audit_model_bounds, objective,
                      shifted_unshifted_identity_check, solver, train)
from localsvm.experiments import SyntheticTask, generate
from localsvm.kernels import _BLOCK_BUDGET, _GRAM_ROWS
from conftest import one_region_model, random_sample, reloaded

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


def test_objective_rebuilds_the_gram_only_for_other_points_or_kernel(monkeypatch):
    sample = random_sample(6, seed=59)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.3)
    alpha = np.linspace(-0.2, 0.3, 6)
    calls = []
    gram = GaussianRBF.gram

    def counted(self, points):
        calls.append(self)
        return gram(self, points)

    def by_hand(sample, kernel):
        f = gram(kernel, sample.X) @ alpha
        return float(sample.weights @ REG.shifted_value(sample.y, f)
                     + cfg.lam * (alpha @ f))

    monkeypatch.setattr(GaussianRBF, "gram", counted)
    assert objective(alpha, sample, k, REG, cfg) == by_hand(sample, k)
    calls.clear()
    # equal values, new arrays and a new but equal kernel: the memo holds
    same = WeightedSample(sample.X.copy(), sample.y.copy(), sample.weights.copy())
    assert objective(alpha, same, GaussianRBF(gamma=1.0, input_dim=2), REG,
                     cfg) == by_hand(sample, k)
    assert calls == []
    moved = WeightedSample(sample.X + 0.1, sample.y, sample.weights)
    assert objective(alpha, moved, k, REG, cfg) == by_hand(moved, k)
    wider = GaussianRBF(gamma=2.0, input_dim=2)
    assert objective(alpha, moved, wider, REG, cfg) == by_hand(moved, wider)
    assert calls == [k, wider]


def test_train_single_point_y0_matches_golden_section():
    x = np.array([[1.0, 2.0]])
    sample = WeightedSample(x, np.array([0.0]), np.array([1.0]))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=10.0)
    model = train(sample, k, REG, cfg)
    f_hat = model.predict(x)[0]
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
    assert abs(model.predict([[0.3, 0.3]])[0]) <= 1e-10


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
    assert zero.predict([[5.0, 5.0]])[0] == 0.0
    single = LocalModel(alpha=np.array([2.5]), anchors=np.array([[1.0, 1.0]]),
                        kernel=k, loss=REG, lam=0.5)
    assert single.predict([[1.0, 1.0]])[0] == 2.5
    two = LocalModel(alpha=np.array([1.0, -2.0]),
                     anchors=np.array([[0.0, 0.0], [1.0, 0.0]]),
                     kernel=k, loss=REG, lam=0.5)
    x = [[0.5, 0.5]]
    expected = (1.0 * k.matrix(x, [[0.0, 0.0]])[0, 0]
                - 2.0 * k.matrix(x, [[1.0, 0.0]])[0, 0])
    assert two.predict(x)[0] == pytest.approx(expected, rel=1e-15)


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


@pytest.mark.parametrize("kernel", [GaussianRBF(gamma=1.0, input_dim=2),
                                    Linear(input_dim=2),
                                    Polynomial(degree=3, offset=0.5, input_dim=2)],
                         ids=["rbf", "linear", "polynomial"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
@pytest.mark.parametrize("lam", [1.0, 0.01])
def test_fit_h_norm_within_half_the_anchor_cap(kernel, loss, lam):
    # alpha_i = -w_i L'_i / (2 lam) at the minimizer, so ||f||_H is at most
    # |L|_1 max_i sqrt(k(x_i, x_i)) / (2 lam): half the cap over the anchors
    # that the train summary and audit_model_bounds use (README)
    sample = random_sample(80, seed=31, classification=loss is CLS)
    model = train(sample, kernel, loss, TrainConfig(lam=lam))
    k_anchors = float(np.sqrt(kernel.diag(model.anchors)).max())
    assert model.h_norm() <= 0.5 * model.h_norm_bound(k_anchors)
    assert np.abs(model.alpha).sum() <= loss.lipschitz / (2.0 * lam) * (1 + 1e-6)


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


@pytest.mark.parametrize("kernel", [GaussianRBF(gamma=1.0, input_dim=2),
                                    Polynomial(degree=2, offset=1.0, input_dim=2)],
                         ids=["rbf", "polynomial"])
def test_bound_audit_of_zero_model_without_probes(kernel):
    # no anchors and no probes: every sup is over an empty set, hence 0
    check = audit_model_bounds(LocalModel.zero(kernel, REG, 0.5, 1),
                               np.zeros((0, 2)))
    assert check.k_sup == check.h_norm == check.sup_abs_f == 0.0
    assert check.sup_bound_ok and check.h_norm_ok


def test_convergence_error_carries_best_iterate():
    sample = random_sample(30, seed=9)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.01, grad_tol=1e-14, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        train(sample, k, REG, cfg)
    assert err.value.best_alpha is not None
    assert err.value.grad_norm > 0
    assert err.value.iterations == 1


def test_convergence_error_names_its_region():
    # a fit on the whole sample is the "global" region; a regional fit
    # names its region, whichever way it fails
    sample = random_sample(30, seed=9)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.01, grad_tol=1e-14, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        train(sample, k, REG, cfg)
    assert err.value.region_id == "global"
    assert str(err.value).startswith(
        "training failed in region global: no convergence after 1 iterations")
    with pytest.raises(ConvergenceError) as err:
        train(sample, k, REG, cfg, region_id=4)
    assert err.value.region_id == 4
    assert str(err.value).startswith(
        "training failed in region 4: no convergence after 1 iterations")
    K = k.gram(sample.X)
    K[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as err:
        train(sample, k, REG, TrainConfig(lam=0.5), region_id=2, gram=K)
    assert err.value.region_id == 2
    assert str(err.value).startswith(
        "training failed in region 2: non-finite gradient after 0 iterations")


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lam=0.0)
    with pytest.raises(InputError):
        TrainConfig(lam=1.0, grad_tol=0.0)
    with pytest.raises(InputError):
        TrainConfig(lam=1.0, max_iter=0)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lam", "grad_tol"])
def test_train_config_rejects_non_finite_settings(field, bad):
    settings = {"lam": 1.0, field: bad}
    with pytest.raises(InputError, match="finite"):
        TrainConfig(**settings)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["X", "y", "weights"])
def test_weighted_sample_rejects_non_finite_values(field, bad):
    parts = {"X": np.zeros((3, 2)), "y": np.zeros(3), "weights": np.full(3, 1 / 3)}
    parts[field][1] = bad
    with pytest.raises(InputError, match="atom 1 has a non-finite value"):
        WeightedSample(**parts)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["alpha", "anchors"])
def test_local_model_rejects_non_finite_values(field, bad):
    parts = {"alpha": np.zeros(3), "anchors": np.zeros((3, 2))}
    parts[field][1] = bad
    with pytest.raises(InputError, match="anchor 1 has a non-finite value"):
        LocalModel(kernel=GaussianRBF(gamma=1.0, input_dim=2), loss=REG,
                   lam=0.5, region_id=2, **parts)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, 0.0],
                         ids=["nan", "inf", "negative", "zero"])
def test_local_model_from_dict_rejects_a_lambda_train_config_rejects(lam):
    # a model's lambda sets its H-norm cap L / lambda: a NaN or negative one
    # would make the cap NaN or negative
    model = LocalModel.zero(GaussianRBF(gamma=1.0, input_dim=2), REG, 0.5, 1)
    d = one_region_model(model).to_dict()
    d["locals"][0]["lambda"] = lam
    with pytest.raises(InputError, match="lambda must be positive and finite"):
        ComposedModel.from_dict(d)
    with pytest.raises(InputError, match="lambda must be positive and finite"):
        TrainConfig(lam=lam)


def test_train_raises_on_a_non_finite_gradient():
    # an overflowed Gram entry makes the first gradient NaN: a failure, not
    # a converged zero model
    sample = random_sample(10, seed=58)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    K = k.gram(sample.X)
    K[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError,
                                                     match="non-finite gradient"):
        train(sample, k, REG, TrainConfig(lam=0.5), gram=K)


def test_train_checks_the_gradient_after_its_last_step():
    # the gradient at the last iterate goes through the same test as every
    # other: a NaN there is a non-finite gradient, not a missed tolerance
    class NanAfterFirstStep(LogisticRegression):
        calls = 0

        def dt(self, y, t):
            self.calls += 1
            out = super().dt(y, t)
            return out if self.calls == 1 else np.full_like(out, np.nan)

    sample = random_sample(10, seed=58)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    with pytest.raises(ConvergenceError,
                       match="non-finite gradient after 1 iterations"):
        train(sample, k, NanAfterFirstStep(), TrainConfig(lam=0.5, max_iter=1))


def test_local_model_json_round_trip():
    sample = random_sample(10, seed=12)
    k = GaussianRBF(gamma=0.9, input_dim=2)
    model = train(sample, k, REG, TrainConfig(lam=0.4), region_id=1)
    back = reloaded(model)
    # decimal64 round trip must be lossless
    np.testing.assert_array_equal(back.alpha, model.alpha)
    np.testing.assert_array_equal(back.anchors, model.anchors)
    assert back.lam == model.lam and back.region_id == 1
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
    X = rng.uniform(-2.5, 2.5, size=(2 * (_BLOCK_BUDGET // m) + 17, 2))
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
    assert peak < 4 * _BLOCK_BUDGET * 8


def ridged_lu_newton(sample, kernel, loss, cfg):
    """The Newton loop ``train`` used before its IRLS step: the system
    K (D K) + 2 lam K with a trace-scaled ridge, solved by LU. Kept as the
    reference the IRLS step is compared against."""
    K = kernel.gram(sample.X)
    y, w, lam = sample.y, sample.weights, cfg.lam
    alpha = np.zeros(sample.n)
    f = K @ alpha
    for _ in range(cfg.max_iter):
        grad = K @ (w * loss.dt(y, f) + 2.0 * lam * alpha)
        if np.max(np.abs(grad)) <= cfg.grad_tol:
            return alpha
        D = w * loss.dtt(y, f)
        H = K @ (D[:, None] * K) + 2.0 * lam * K
        H[np.diag_indices_from(H)] += 1e-10 * float(np.trace(H))
        step = np.linalg.solve(H, -grad)
        descent = float(grad @ step)
        assert descent < 0
        Ks = K @ step
        t = 1.0
        if np.max(np.abs(grad)) > 1e-6:
            J0 = float(w @ loss.shifted_value(y, f) + lam * (alpha @ f))
            aKs, sKs = float(alpha @ Ks), float(step @ Ks)
            while t >= 1e-16:
                J_try = float(w @ loss.shifted_value(y, f + t * Ks)
                              + lam * (alpha @ f + 2.0 * t * aKs + t * t * sKs))
                if J_try <= J0 + 1e-4 * t * descent:
                    break
                t *= 0.5
        alpha = alpha + t * step
        f = f + t * Ks
    raise AssertionError("reference Newton loop did not converge")


def assert_matches_reference(sample, kernel, loss, cfg, probes):
    model = train(sample, kernel, loss, cfg)
    G = kernel.gram(sample.X)
    f = G @ model.alpha
    grad = G @ (sample.weights * loss.dt(sample.y, f) + 2 * cfg.lam * model.alpha)
    assert np.max(np.abs(grad)) <= cfg.grad_tol
    ref_alpha = ridged_lu_newton(sample, kernel, loss, cfg)
    expected = kernel.matrix(probes, sample.X) @ ref_alpha
    np.testing.assert_allclose(model.predict(probes), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_newton_step_matches_ridged_lu_reference(seed):
    classification = seed % 2 == 0
    rng = np.random.default_rng(40 + seed)
    sample = random_sample(int(rng.integers(5, 41)), seed=seed + 200,
                           classification=classification)
    cfg = TrainConfig(lam=float(rng.uniform(0.05, 1.0)))
    probes = rng.uniform(-2.5, 2.5, size=(200, 2))
    assert_matches_reference(sample, GaussianRBF(gamma=0.8, input_dim=2),
                             CLS if classification else REG, cfg, probes)


@pytest.mark.parametrize("loss", [REG, CLS])
def test_newton_step_with_duplicated_points(loss):
    # three repeated points make the Gram matrix singular; the old loop
    # needed its ridge there, the IRLS system does not
    sample = random_sample(20, seed=31, classification=loss is CLS)
    X = sample.X.copy()
    X[17:] = X[:3]
    sample = WeightedSample(X, sample.y, sample.weights)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    assert np.linalg.matrix_rank(k.gram(X)) < 20
    probes = np.random.default_rng(32).uniform(-2.5, 2.5, size=(200, 2))
    assert_matches_reference(sample, k, loss, TrainConfig(lam=0.2), probes)


def test_newton_step_with_rank_two_linear_kernel():
    rng = np.random.default_rng(33)
    X = rng.uniform(-1, 1, size=(25, 2))
    y = X @ np.array([0.5, -1.0]) + 0.05 * rng.standard_normal(25)
    sample = WeightedSample(X, y, np.full(25, 1 / 25))
    probes = rng.uniform(-1.5, 1.5, size=(200, 2))
    assert_matches_reference(sample, Linear(input_dim=2), REG,
                             TrainConfig(lam=0.3), probes)


@pytest.mark.parametrize("seed", range(3))
def test_recorded_h_norm_matches_gram(seed):
    classification = seed == 1
    sample = random_sample(30, seed=seed + 300, classification=classification)
    model = train(sample, GaussianRBF(gamma=0.7, input_dim=2),
                  CLS if classification else REG, TrainConfig(lam=0.1))
    assert model.h_norm_sq is not None
    from_gram = reloaded(model)
    assert from_gram.h_norm_sq is None
    assert model.h_norm() == pytest.approx(from_gram.h_norm(), rel=1e-12)


def cholesky_newton_step(K, g, grad, D, lam, eta=0.0):
    """The Newton step ``train`` took before conjugate gradients: one
    Cholesky solve of A = D^1/2 K D^1/2 + 2 lam I formed in full, and K s
    as the product K @ s. Kept as the reference the CG step is compared
    against; it ignores ``eta``, as an exact solve meets every forcing
    target."""
    sqrt_d = np.sqrt(D)
    A = sqrt_d[:, None] * K * sqrt_d
    A[np.diag_indices_from(A)] += 2.0 * lam
    r = cho_solve(cho_factor(A, lower=True), -sqrt_d * grad)
    step = -(g + sqrt_d * r) / (2.0 * lam)
    return step, K @ step, 0, 0.0


def _with_duplicates(sample):
    X = sample.X.copy()
    X[-5:] = X[:5]
    return WeightedSample(X, sample.y, sample.weights)


STEP_KERNELS = [GaussianRBF(gamma=1.0, input_dim=2), GaussianRBF(gamma=5.0, input_dim=2),
                Polynomial(degree=3, offset=1.0, input_dim=2), Linear(input_dim=2)]
STEP_LAMS = [1e-4, 1e-2, 0.5]


def _kappa_bound(kernel, loss, sample, lam):
    """The a-priori condition bound 1 + L''_max ||k||^2_inf / (2 lam) of the
    IRLS matrix; it holds because the sample weights sum to 1."""
    d2_max = 0.25 if loss is CLS else 0.5
    k_sq = float(np.max(np.diag(kernel.gram(sample.X))))
    return 1.0 + d2_max * k_sq / (2.0 * lam)


def _step_inputs(loss, kernel, lam):
    """K, g, grad = K g and D at a random coefficient vector of an 80-point
    sample with five duplicated points."""
    sample = _with_duplicates(random_sample(80, seed=50, classification=loss is CLS))
    rng = np.random.default_rng(51)
    K = kernel.gram(sample.X)
    alpha = 0.1 * rng.standard_normal(sample.n)
    f = K @ alpha
    g = sample.weights * loss.dt(sample.y, f) + 2.0 * lam * alpha
    D = sample.weights * loss.dtt(sample.y, f)
    return K, g, K @ g, D


@pytest.mark.parametrize("lam", STEP_LAMS)
@pytest.mark.parametrize("kernel", STEP_KERNELS, ids=["rbf1", "rbf5", "poly3", "linear"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_cg_step_matches_cholesky_step(loss, kernel, lam):
    K, g, grad, D = _step_inputs(loss, kernel, lam)
    step, _, iters, _ = solver._newton_step(K, g, grad, D, lam)
    ref, _, _, _ = cholesky_newton_step(K, g, grad, D, lam)
    assert 0 < iters <= len(g)
    # both solve the Newton system K (D K + 2 lam I) s = -grad
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(step, ref, rtol=0, atol=1e-9 * scale)
    newton = K @ (D * (K @ step) + 2.0 * lam * step) + grad
    assert np.max(np.abs(newton)) <= 1e-10 * np.max(np.abs(grad))


@pytest.mark.parametrize("lam", STEP_LAMS)
@pytest.mark.parametrize("kernel", STEP_KERNELS, ids=["rbf1", "rbf5", "poly3", "linear"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def _train_against_cholesky(monkeypatch, loss, kernel, lam):
    """Train on a 60-point sample with five duplicated points, check the
    fit against the Cholesky-step reference and return both SolveInfos."""
    sample = _with_duplicates(random_sample(60, seed=52, classification=loss is CLS))
    cfg = TrainConfig(lam=lam)
    model = train(sample, kernel, loss, cfg)
    with monkeypatch.context() as m:
        m.setattr(solver, "_newton_step", cholesky_newton_step)
        ref = train(sample, kernel, loss, cfg)
    probes = np.random.default_rng(53).uniform(-2.5, 2.5, size=(200, 2))
    expected = ref.predict(probes)
    np.testing.assert_allclose(model.predict(probes), expected, rtol=0,
                               atol=1e-9 * max(1.0, np.max(np.abs(expected))))
    info = model.solve_info
    # grad_tol is relative to max(1, max_i K_ii), which is 468 for poly3 here
    tol = cfg.grad_tol * solver.grad_scale(kernel.gram(sample.X))
    assert info.grad_norm <= tol and info.fallbacks == 0
    return info, ref.solve_info, sample


@pytest.mark.parametrize("lam", STEP_LAMS)
@pytest.mark.parametrize("kernel", STEP_KERNELS, ids=["rbf1", "rbf5", "poly3", "linear"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_cg_train_matches_cholesky_train(monkeypatch, loss, kernel, lam):
    # every Newton step solved to _CG_RTOL, as with no forcing term
    monkeypatch.setattr(solver, "_FORCING_MAX", 0.0)
    info, ref_info, sample = _train_against_cholesky(monkeypatch, loss, kernel, lam)
    assert info.newton_iters == ref_info.newton_iters
    # CG reaches residual tol * |b| within the Chebyshev bound
    # 2 sqrt(kappa) rho^k, rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)
    root = math.sqrt(_kappa_bound(kernel, loss, sample, lam))
    rho = (root - 1.0) / (root + 1.0)
    bound = math.ceil(math.log(2.0 * root / solver._CG_RTOL) / math.log(1.0 / rho))
    assert 0 < info.cg_iters_max <= min(bound, solver._CG_CAP * sample.n)
    assert info.cg_iters_max <= info.cg_iters <= info.newton_iters * info.cg_iters_max


FORCING_CASES = [pytest.param(loss, kernel, lam, id=f"{lid}-{kid}-{lam:g}")
                 for loss, lid in ((REG, "reg"), (CLS, "cls"))
                 for kernel, kid in zip(STEP_KERNELS, ["rbf1", "rbf5", "poly3", "linear"])
                 for lam in STEP_LAMS]
# lambda 1e-6 divides the CG residual by 2e-6 in the Newton residual
FORCING_CASES.append(pytest.param(REG, STEP_KERNELS[2], 1e-6, id="reg-poly3-1e-06"))


@pytest.mark.parametrize("loss, kernel, lam", FORCING_CASES)
def test_truncated_step_meets_its_forcing_term(loss, kernel, lam):
    K, g, grad, D = _step_inputs(loss, kernel, lam)
    _, _, exact_iters, _ = solver._newton_step(K, g, grad, D, lam)
    norm = np.linalg.norm
    for eta in (0.5, 1e-2, 1e-4):
        step, _, iters, ratio = solver._newton_step(K, g, grad, D, lam, eta)
        DKs, ridge = D * (K @ step), 2.0 * lam * step
        # rounding slack: n machine epsilons times the summed terms' norms,
        # at most 2e-9 eta |g| here
        slack = len(g) * np.finfo(float).eps * (norm(DKs) + norm(ridge) + norm(g))
        assert norm(DKs + ridge + g) <= eta * norm(g) + slack, eta
        assert iters <= exact_iters and ratio <= 1.0


@pytest.mark.parametrize("lam", STEP_LAMS)
@pytest.mark.parametrize("kernel", STEP_KERNELS, ids=["rbf1", "rbf5", "poly3", "linear"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_truncated_train_matches_cholesky_train(monkeypatch, loss, kernel, lam):
    info, ref_info, _ = _train_against_cholesky(monkeypatch, loss, kernel, lam)
    # inexact steps may cost one more Newton step than exact ones
    assert info.newton_iters <= ref_info.newton_iters + 1


def test_forcing_saves_cg_iterations(monkeypatch):
    # train-large's loss, kernel and lambda on one 1 500-point region
    data = generate(SyntheticTask("two-moons", noise=0.1, seed=0), 1500)
    sample = WeightedSample(data.X, data.y, np.full(1500, 1.0 / 1500))
    args = (sample, GaussianRBF(gamma=0.5, input_dim=2), CLS, TrainConfig(lam=0.05))
    shipped = train(*args).solve_info
    monkeypatch.setattr(solver, "_FORCING_MAX", 0.0)
    exact = train(*args).solve_info
    assert shipped.cg_iters <= 0.6 * exact.cg_iters
    assert shipped.grad_norm <= 1e-10


class CountingGram(np.ndarray):
    """A Gram matrix that counts its products with vectors."""

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def test_cold_start_skips_the_product_with_zero_coefficients():
    sample = random_sample(40, seed=59, classification=True)
    kernel = GaussianRBF(gamma=1.0, input_dim=2)
    K = kernel.gram(sample.X).view(CountingGram)
    cfg = TrainConfig(lam=0.05)
    K.products = 0
    cold = train(sample, kernel, CLS, cfg, gram=K)
    cold_products, K.products = K.products, 0
    warm = train(sample, kernel, CLS, cfg, warm_start=np.zeros(40), gram=K)
    assert cold_products == K.products - 1
    assert cold.alpha.tobytes() == warm.alpha.tobytes()


def test_cold_train_makes_one_product_per_newton_step_and_cg_iteration():
    # the gradient K g at every iterate, one product per CG iteration and
    # one per steepest-descent fallback: K s comes from the CG recurrence
    sample = random_sample(40, seed=59, classification=True)
    kernel = GaussianRBF(gamma=1.0, input_dim=2)
    K = kernel.gram(sample.X).view(CountingGram)
    K.products = 0
    info = train(sample, kernel, CLS, TrainConfig(lam=0.05), gram=K).solve_info
    assert info.newton_iters >= 3 and info.fallbacks == 0
    assert K.products == info.newton_iters + 1 + info.cg_iters + info.fallbacks


@pytest.mark.parametrize("lam", STEP_LAMS)
@pytest.mark.parametrize("kernel", STEP_KERNELS, ids=["rbf1", "rbf5", "poly3", "linear"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_newton_step_returns_the_product_of_the_gram_and_the_step(loss, kernel, lam):
    K, g, grad, D = _step_inputs(loss, kernel, lam)
    norm, eps = np.linalg.norm, np.finfo(float).eps
    for eta in (0.0, 0.5):
        step, Ks, _, _ = solver._newton_step(K, g, grad, D, lam, eta)
        want = K @ step
        assert norm(Ks - want) <= len(g) * eps * norm(K, 2) * norm(step), eta


@pytest.mark.parametrize("loss, kernel, lam, extra", [
    (REG, STEP_KERNELS[0], 0.5, 0),
    # grad + K D^1/2 r cancels 1.4e3-fold: K s is the product instead
    (REG, STEP_KERNELS[3], 1e-4, 1)], ids=["recurrence", "product"])
def test_newton_step_multiplies_by_k_only_where_the_recurrence_cancels(
        loss, kernel, lam, extra):
    K, g, grad, D = _step_inputs(loss, kernel, lam)
    K = K.view(CountingGram)
    K.products = 0
    step, Ks, iters, _ = solver._newton_step(K, g, grad, D, lam)
    assert iters > 0 and K.products == iters + extra
    if extra:
        assert Ks.tobytes() == (np.asarray(K) @ step).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_curvature_gives_a_nan_step(bad):
    sample = random_sample(10, seed=54)
    K = GaussianRBF(gamma=1.0, input_dim=2).gram(sample.X)
    g = np.linspace(-0.1, 0.1, 10)
    D = np.full(10, 0.05)
    D[3] = bad
    g[3] = 0.0  # an inf weight times this zero would be a NaN with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, Ks, iters, _ = solver._newton_step(K, g, K @ g, D, 0.1)
    # the descent test in train then fails and takes -grad instead
    assert iters == 0 and np.isnan(step).all() and np.isnan((K @ g) @ step)
    assert np.isnan(Ks).all()


def test_non_finite_curvature_falls_back_to_steepest_descent():
    class FirstCurvatureBad(LogisticRegression):
        def __init__(self, bad):
            self.bad, self.calls = bad, 0

        def dtt(self, y, t):
            self.calls += 1
            d = super().dtt(y, t)
            return d * self.bad if self.calls == 1 else d

    sample = random_sample(15, seed=55)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    cfg = TrainConfig(lam=0.3)
    ref = train(sample, k, REG, cfg)
    assert ref.solve_info.fallbacks == 0
    probes = np.random.default_rng(56).uniform(-2.5, 2.5, size=(100, 2))
    for bad in (np.nan, np.inf):
        # warnings as errors: an inf weight must not reach an inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(sample, k, FirstCurvatureBad(bad), cfg)
        assert model.solve_info.fallbacks == 1
        assert model.solve_info.grad_norm <= cfg.grad_tol
        np.testing.assert_allclose(model.predict(probes), ref.predict(probes),
                                   rtol=0, atol=1e-9)


def test_solve_info_counts_and_is_not_serialized():
    sample = random_sample(30, seed=57, classification=True)
    model = train(sample, GaussianRBF(gamma=1.0, input_dim=2), CLS,
                  TrainConfig(lam=0.05))
    info = model.solve_info
    assert info.newton_iters >= 1 and info.grad_norm <= 1e-10
    assert info.cg_iters >= info.cg_iters_max >= 1
    assert "solve_info" not in model.to_dict()
    assert reloaded(model).solve_info is None
    # a converged warm start takes no step
    again = train(sample, model.kernel, CLS, TrainConfig(lam=0.05),
                  warm_start=model.alpha)
    assert again.solve_info.newton_iters == again.solve_info.cg_iters == 0


def test_solve_info_reports_a_cg_solve_stopped_by_its_cap():
    # gamma 2 and lambda 1e-6 on 60 points: CG stops after 3n = 180
    # iterations short of its 1e-13 relative residual, and Newton still
    # meets grad_tol
    rng = np.random.default_rng(5)
    X = rng.uniform(-np.pi, np.pi, size=(60, 2))
    y = np.sin(X.sum(axis=1)) + 0.25 * rng.standard_normal(60)
    model = train(WeightedSample(X, y, np.full(60, 1.0 / 60)),
                  GaussianRBF(gamma=2.0, input_dim=2), REG, TrainConfig(lam=1e-6))
    info = model.solve_info
    assert info.cg_iters_max == solver._CG_CAP * 60 == 180
    assert info.cg_residual_ratio_max > 1.0
    assert info.grad_norm <= 1e-10


@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_cg_meets_its_residual_on_small_ill_conditioned_fits(loss):
    # RBF gamma 1 and lambda 1e-4 on 60 points: in floating point CG needs
    # more than n iterations on some of these systems
    kernel, cfg = GaussianRBF(gamma=1.0, input_dim=2), TrainConfig(lam=1e-4)
    for seed in range(40):
        sample = random_sample(60, seed=seed, classification=loss is CLS)
        info = train(sample, kernel, loss, cfg).solve_info
        assert info.cg_residual_ratio_max <= 1.0, seed
        assert info.fallbacks == 0 and info.grad_norm <= cfg.grad_tol, seed


@pytest.mark.parametrize("name", ["audit-grid", "train-large"])
def test_cg_meets_its_residual_on_benchmark_fits(name):
    from pathlib import Path

    from localsvm import fit_composed
    from localsvm.config import model_config_from_config, setup_from_config

    path = Path(__file__).resolve().parents[1] / "benchmark" / "configs" / f"{name}.json"
    raw = json.loads(path.read_text())
    data, pc = setup_from_config(raw)
    config = model_config_from_config(raw, data.dim)
    model = fit_composed(data, pc.build(data.X), config)
    for local in model.locals.values():
        info = local.solve_info
        assert info.cg_iters_max < local.n_anchors
        assert 0.0 < info.cg_residual_ratio_max <= 1.0


def test_train_peaks_at_one_gram_buffer():
    n = 1500
    sample = random_sample(n, seed=58, classification=True)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    tracemalloc.start()
    try:
        train(sample, k, CLS, TrainConfig(lam=0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


BLOCK_ROW_KERNELS = [GaussianRBF(gamma=0.8, input_dim=2), Linear(input_dim=2),
                     Polynomial(degree=3, offset=1.0, input_dim=2)]


@pytest.mark.parametrize("n", [1100, 1537])
@pytest.mark.parametrize("kernel", BLOCK_ROW_KERNELS, ids=["rbf", "linear", "poly3"])
@pytest.mark.parametrize("loss", [REG, CLS], ids=["reg", "cls"])
def test_block_row_train_matches_dense_gram_train(loss, kernel, n):
    # the slower method: every product with the full n x n Gram
    sample = random_sample(n, seed=60, classification=loss is CLS)
    cfg = TrainConfig(lam=0.05)
    model = train(sample, kernel, loss, cfg)
    dense = train(sample, kernel, loss, cfg, gram=kernel.gram(sample.X))
    probes = np.random.default_rng(61).uniform(-2.5, 2.5, size=(200, 2))
    expected = dense.predict(probes)
    np.testing.assert_allclose(model.predict(probes), expected, rtol=0,
                               atol=1e-9 * max(1.0, np.max(np.abs(expected))))
    assert model.h_norm() == pytest.approx(dense.h_norm(), rel=1e-9)
    tol = cfg.grad_tol * solver.grad_scale(kernel.gram(sample.X))
    assert model.solve_info.grad_norm <= tol
    assert model.solve_info.fallbacks == 0


def test_block_row_train_peaks_below_three_quarters_of_a_gram():
    n = 1500
    sample = random_sample(n, seed=58, classification=True)
    k = GaussianRBF(gamma=1.0, input_dim=2)
    tracemalloc.start()
    try:
        train(sample, k, CLS, TrainConfig(lam=0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the upper block rows hold n (n + _GRAM_ROWS) / 2 entries
    assert n * (n + _GRAM_ROWS) / 2 * 8 < peak < 0.75 * n * n * 8


def test_h_norm_of_a_deserialized_model_uses_the_block_rows(monkeypatch):
    sample = random_sample(1100, seed=62, classification=True)
    model = train(sample, GaussianRBF(gamma=0.7, input_dim=2), CLS,
                  TrainConfig(lam=0.05))
    loaded = reloaded(model)

    def no_gram(self, points):
        raise AssertionError("the dense Gram was built")

    monkeypatch.setattr(type(model.kernel), "gram", no_gram)
    assert model.h_norm() == pytest.approx(loaded.h_norm(), rel=1e-12)


def test_train_large_model_is_bitwise_identical_across_runs_and_threads(tmp_path):
    # four regions of 1 600-2 800 points, each on its upper block rows
    from pathlib import Path

    import localsvm.cli as cli

    config = (Path(__file__).resolve().parents[1] / "benchmark" / "configs"
              / "train-large.json")
    outputs = []
    for run, threads in enumerate(("1", "1", "2")):
        out = tmp_path / str(run)
        assert cli.main(["train", "--config", str(config), "--out", str(out),
                         "--threads", threads]) == 0
        outputs.append((out / "model.json").read_bytes())
    model = json.loads(outputs[0])
    assert min(len(local["alpha"]) for local in model["locals"]) > _GRAM_ROWS
    assert outputs[0] == outputs[1] == outputs[2]

import math

import numpy as np
import pytest

from localsvm import (GaussianRBF, InputError, InsufficientDataError, Linear,
                      Polynomial, RegionPredicate, kernel_from_dict,
                      sup_norm_on_region)


def test_gaussian_eval_equal_points_is_exactly_one():
    k = GaussianRBF(gamma=1.0, input_dim=1)
    assert k.eval([0.3], [0.3]) == 1.0


def test_gaussian_eval_matches_direct_formula():
    # independent evaluation of exp(-gamma^-2 ||x - x'||^2)
    k = GaussianRBF(gamma=1.0, input_dim=1)
    assert k.eval([0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-15)
    k2 = GaussianRBF(gamma=0.7, input_dim=2)
    x, xp = [0.2, -1.0], [1.4, 0.3]
    expected = math.exp(-((0.2 - 1.4) ** 2 + (-1.0 - 0.3) ** 2) / 0.7**2)
    assert k2.eval(x, xp) == pytest.approx(expected, rel=1e-15)


def test_linear_eval_is_dot_product():
    k = Linear(input_dim=2)
    assert k.eval([1.0, 2.0], [3.0, 4.0]) == 11.0


def test_polynomial_eval_matches_direct_formula():
    k = Polynomial(degree=3, offset=1.0, input_dim=2)
    assert k.eval([1.0, 2.0], [3.0, 4.0]) == (11.0 + 1.0) ** 3


def test_eval_dimension_mismatch():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    with pytest.raises(InputError):
        k.eval([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        k.eval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_invalid_parameters():
    with pytest.raises(InputError):
        GaussianRBF(gamma=0.0, input_dim=1)
    with pytest.raises(InputError):
        Polynomial(degree=0, offset=0.0, input_dim=1)
    with pytest.raises(InputError):
        Polynomial(degree=2, offset=-0.5, input_dim=1)


def test_gram_single_point():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    G = k.gram([[0.5, 0.5]])
    assert G.shape == (1, 1) and G[0, 0] == 1.0


def test_gram_linear_identity():
    k = Linear(input_dim=2)
    G = k.gram([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(G, np.eye(2))


def test_gram_elementwise_matches_eval():
    k = GaussianRBF(gamma=1.0, input_dim=1)
    pts = [[0.0], [1.0]]
    G = k.gram(pts)
    expected = np.array([[k.eval(a, b) for b in pts] for a in pts])
    np.testing.assert_allclose(G, expected, rtol=0, atol=0)
    assert G[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize("kernel", [
    GaussianRBF(gamma=1.3, input_dim=3),
    Linear(input_dim=3),
    Polynomial(degree=2, offset=0.5, input_dim=3),
])
def test_gram_exactly_symmetric_and_psd(kernel):
    rng = np.random.default_rng(11)
    for seed in range(4):
        X = np.random.default_rng(seed).normal(size=(25, 3))
        G = kernel.gram(X)
        np.testing.assert_array_equal(G, G.T)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-8 * np.trace(G)
    del rng


def test_gaussian_values_in_unit_interval():
    k = GaussianRBF(gamma=0.8, input_dim=2)
    X = np.random.default_rng(3).normal(size=(40, 2))
    G = k.gram(X)
    assert np.all(G > 0) and np.all(G <= 1.0)
    np.testing.assert_array_equal(np.diag(G), np.ones(40))


def test_matrix_chunking_consistent():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(137, 2))
    Z = rng.normal(size=(29, 2))
    full = k.matrix(X, Z)
    expected = np.array([[k.eval(a, b) for b in Z] for a in X])
    np.testing.assert_allclose(full, expected, rtol=0, atol=1e-15)


def test_sup_norm_gaussian_exact():
    region = RegionPredicate(center=np.zeros(2), radius=1.0, id=1)
    res = sup_norm_on_region(GaussianRBF(gamma=2.0, input_dim=2), region)
    assert res.value == 1.0
    assert res.method == "exact"
    assert res.is_exact


def test_sup_norm_linear_empirical():
    region = RegionPredicate(center=np.zeros(2), radius=10.0, id=2)
    k = Linear(input_dim=2)
    res = sup_norm_on_region(k, region, probes=[[0.0, 0.0]])
    assert res.value == 0.0 and res.method == "empirical-sup"
    res = sup_norm_on_region(k, region, probes=[[3.0, 4.0], [0.0, 0.0]])
    assert res.value == pytest.approx(5.0, rel=1e-15)
    assert res.region_id == 2


def test_sup_norm_linear_needs_probes():
    region = RegionPredicate(center=np.zeros(2), radius=1.0, id=1)
    with pytest.raises(InsufficientDataError):
        sup_norm_on_region(Linear(input_dim=2), region, probes=None)
    with pytest.raises(InsufficientDataError):
        # probes outside the region do not count
        sup_norm_on_region(Linear(input_dim=2), region, probes=[[5.0, 5.0]])


def test_kernel_dict_round_trip():
    for k in (GaussianRBF(gamma=0.7, input_dim=3), Linear(input_dim=2),
              Polynomial(degree=4, offset=1.5, input_dim=5)):
        assert kernel_from_dict(k.to_dict()) == k
    with pytest.raises(InputError):
        kernel_from_dict({"family": "sigmoid", "input_dim": 2})


def _broadcast_rbf(X, Z, gamma):
    # the (n, m, d) broadcast form the per-coordinate kernel replaced
    d2 = ((X[:, None, :] - Z[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-d2 / gamma**2)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_gaussian_cross_bitwise_equal_to_broadcast_form(dim):
    k = GaussianRBF(gamma=0.9, input_dim=dim)
    rng = np.random.default_rng(dim)
    X = rng.normal(size=(61, dim))
    Z = rng.normal(size=(37, dim))
    np.testing.assert_array_equal(k._cross(X, Z), _broadcast_rbf(X, Z, 0.9))
    np.testing.assert_array_equal(k._cross(X, X), _broadcast_rbf(X, X, 0.9))


def test_gaussian_cross_close_to_broadcast_form_high_dim():
    # from 8 coordinates on NumPy's pairwise sum reorders the additions
    k = GaussianRBF(gamma=1.7, input_dim=10)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(61, 10))
    Z = rng.normal(size=(37, 10))
    np.testing.assert_allclose(k._cross(X, Z), _broadcast_rbf(X, Z, 1.7),
                               rtol=0, atol=1e-15)
    G = k._cross(X, X)
    np.testing.assert_array_equal(G, G.T)
    np.testing.assert_array_equal(np.diag(G), np.ones(61))

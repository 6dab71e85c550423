import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from localsvm import (GaussianRBF, InputError, Linear, Polynomial,
                      RegionPredicate, kernel_from_dict, sup_norm_on_region)
from localsvm.kernels import (_BLOCK_BUDGET, _GRAM_ROWS, BlockRowGram,
                              _column_factors, _row_factors, chunk_rows)


def test_gaussian_eval_equal_points_is_exactly_one():
    k = GaussianRBF(gamma=1.0, input_dim=1)
    assert k.matrix([0.3], [0.3])[0, 0] == 1.0


def test_gaussian_eval_matches_direct_formula():
    # independent evaluation of exp(-gamma^-2 ||x - x'||^2)
    k = GaussianRBF(gamma=1.0, input_dim=1)
    assert k.matrix([0.0], [1.0])[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    k2 = GaussianRBF(gamma=0.7, input_dim=2)
    x, xp = [0.2, -1.0], [1.4, 0.3]
    expected = math.exp(-((0.2 - 1.4) ** 2 + (-1.0 - 0.3) ** 2) / 0.7**2)
    assert k2.matrix([x], [xp])[0, 0] == pytest.approx(expected, rel=1e-15)


def test_linear_eval_is_dot_product():
    k = Linear(input_dim=2)
    assert k.matrix([[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == 11.0


def test_polynomial_eval_matches_direct_formula():
    k = Polynomial(degree=3, offset=1.0, input_dim=2)
    assert k.matrix([[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == (11.0 + 1.0) ** 3


def test_eval_dimension_mismatch():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    with pytest.raises(InputError):
        k.matrix([[1.0]], [[1.0, 2.0]])
    with pytest.raises(InputError):
        k.matrix([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])


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
    expected = np.array([[k.matrix([a], [b])[0, 0] for b in pts] for a in pts])
    np.testing.assert_allclose(G, expected, rtol=0, atol=0)
    assert G[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def _layouts(X):
    """X as C-ordered, Fortran-ordered, strided on both axes and with its
    rows reversed; the last two are views, not copies."""
    wide = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
    wide[::2, ::2] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": wide[::2, ::2],
            "reversed": np.ascontiguousarray(X[::-1])[::-1]}


@pytest.mark.parametrize("kernel", [
    GaussianRBF(gamma=1.3, input_dim=3),
    Linear(input_dim=3),
    Polynomial(degree=2, offset=0.5, input_dim=3),
])
def test_gram_exactly_symmetric_and_psd(kernel):
    # sizes across BLAS tile edges (255-257) and Gaussian-RBF row-block
    # edges (549, 700), in every memory layout a caller can pass
    for n in (1, 2, 255, 256, 257, 549, 700):
        for d in (1, 3, 10):
            k = dataclasses.replace(kernel, input_dim=d)
            X = np.random.default_rng(n * d).normal(size=(n, d))
            for layout, view in _layouts(X).items():
                G = k.gram(view)
                np.testing.assert_array_equal(G, G.T, err_msg=f"{n} {d} {layout}")
            G = k.gram(X)
            assert np.linalg.eigvalsh(G).min() >= -1e-8 * np.trace(G)


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
    expected = np.array([[k.matrix([a], [b])[0, 0] for b in Z] for a in X])
    np.testing.assert_allclose(full, expected, rtol=0, atol=1e-15)


def test_sup_norm_gaussian_exact():
    region = RegionPredicate(center=np.zeros(2), radius=1.0, id=1)
    assert sup_norm_on_region(GaussianRBF(gamma=2.0, input_dim=2), region) == 1.0


def test_sup_norm_linear_closed_form():
    # ||x|| <= ||c|| + r = 5 + 1 on the ball
    region = RegionPredicate(center=np.array([3.0, 4.0]), radius=1.0, id=2)
    assert sup_norm_on_region(Linear(input_dim=2), region) == 6.0
    origin = RegionPredicate(center=np.zeros(2), radius=10.0, id=1)
    assert sup_norm_on_region(Linear(input_dim=2), origin) == 10.0


SUP_FAMILIES = ({"family": "gaussian-rbf", "gamma": 0.7},
                {"family": "linear"},
                {"family": "polynomial", "degree": 3, "offset": 0.5},
                {"family": "polynomial", "degree": 2, "offset": 0.0})


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("spec", SUP_FAMILIES, ids=lambda s: "-".join(
    str(v) for v in s.values()))
def test_sup_norm_on_region_is_the_sup_over_the_ball(spec, dim):
    k = kernel_from_dict({**spec, "input_dim": dim})
    rng = np.random.default_rng(dim)
    for trial in range(25):
        # trial 0 is a ball centred at the origin
        c = rng.normal(scale=3.0, size=dim) if trial else np.zeros(dim)
        r = float(rng.uniform(0.0, 2.0))
        region = RegionPredicate(center=c, radius=r, id=1)
        sup = sup_norm_on_region(k, region)
        u = rng.normal(size=(300, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        inside = c + u * (r * rng.uniform(size=(300, 1)) ** (1.0 / dim))
        assert region.contains_many(inside).all()
        # 1e-12 relative: the points' norms are rounded, like the sup's
        assert (np.sqrt(k.diag(inside)) <= sup * (1.0 + 1e-12)).all()
        far = c + r * (c / np.linalg.norm(c) if trial else u[0])
        assert sup == pytest.approx(math.sqrt(k.matrix([far], [far])[0, 0]), rel=1e-12)


@pytest.mark.parametrize("kernel", [Polynomial(degree=400, offset=1.0, input_dim=1),
                                    Linear(input_dim=1)], ids=["polynomial", "linear"])
def test_overflowing_kernel_matrix_is_input_error(kernel):
    X = np.array([[3.0], [1e200]]) if kernel.family == "linear" else np.array([[3.0]])
    ball = RegionPredicate(center=X[-1], radius=1.0, id=1)
    for build in (lambda: kernel.gram(X), lambda: kernel.matrix(X, X),
                  lambda: kernel.diag(X), lambda: sup_norm_on_region(kernel, ball)):
        with pytest.raises(InputError, match=kernel.family):
            build()


def test_kernel_dict_round_trip():
    for k in (GaussianRBF(gamma=0.7, input_dim=3), Linear(input_dim=2),
              Polynomial(degree=4, offset=1.5, input_dim=5)):
        assert kernel_from_dict(k.to_dict()) == k
    with pytest.raises(InputError):
        kernel_from_dict({"family": "sigmoid", "input_dim": 2})


def _to_dict_with_isinstance_chain(kernel):
    """Kernel.to_dict as it was written before it read the dataclass fields."""
    d = {"family": kernel.family, "input_dim": kernel.input_dim}
    if isinstance(kernel, GaussianRBF):
        d["gamma"] = kernel.gamma
    elif isinstance(kernel, Polynomial):
        d["degree"] = kernel.degree
        d["offset"] = kernel.offset
    return d


@pytest.mark.parametrize("kernel", [GaussianRBF(gamma=0.7, input_dim=3),
                                    Linear(input_dim=2),
                                    Polynomial(degree=4, offset=1.5, input_dim=5)],
                         ids=["rbf", "linear", "polynomial"])
def test_kernel_to_dict_keeps_keys_and_order(kernel):
    got = kernel.to_dict()
    want = _to_dict_with_isinstance_chain(kernel)
    assert list(got.items()) == list(want.items())
    assert json.dumps(got) == json.dumps(want)


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


def _assert_rbf_matches_broadcast(got, X, Z, gamma):
    # bitwise up to 7 coordinates; from 8 on NumPy's pairwise sum reorders
    # the broadcast form's additions
    want = _broadcast_rbf(X, Z, gamma)
    if X.shape[1] <= 7:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 5, 10])
def test_gaussian_cross_row_blocks_match_broadcast_form(dim):
    # the 61 x 37 cases above fit in one row block; these span several
    # blocks with a partial last one, one row per block, and less than a block
    k = GaussianRBF(gamma=0.9, input_dim=dim)
    rng = np.random.default_rng(20 + dim)
    m = 300
    rows = _BLOCK_BUDGET // m
    X = rng.normal(size=(3 * rows + 17, dim))
    Z = rng.normal(size=(m, dim))
    _assert_rbf_matches_broadcast(k._cross(X, Z), X, Z, 0.9)
    wide = rng.normal(size=(_BLOCK_BUDGET + 3, dim))
    _assert_rbf_matches_broadcast(k._cross(X[:5], wide), X[:5], wide, 0.9)
    _assert_rbf_matches_broadcast(k._cross(X[:rows // 2], Z), X[:rows // 2],
                                  Z, 0.9)


@pytest.mark.parametrize("dim", [2, 10])
def test_gaussian_multi_block_gram_symmetric_with_unit_diagonal(dim):
    n = 700  # _BLOCK_BUDGET // n rows per block: eight blocks, the last partial
    assert n * n > 7 * _BLOCK_BUDGET and n % (_BLOCK_BUDGET // n) != 0
    k = GaussianRBF(gamma=1.1, input_dim=dim)
    X = np.random.default_rng(30 + dim).normal(size=(n, dim))
    G = k.gram(X)
    np.testing.assert_array_equal(G, G.T)
    np.testing.assert_array_equal(np.diag(G), np.ones(n))
    _assert_rbf_matches_broadcast(G, X, X, 1.1)


def _direct_rbf(X, Z, gamma):
    # the per-coordinate kernel before its differences became k = 2 products:
    # broadcast subtraction, squares added in coordinate order
    d2 = np.square(np.subtract.outer(X[:, 0], Z[:, 0]))
    for j in range(1, X.shape[1]):
        d2 += np.square(np.subtract.outer(X[:, j], Z[:, j]))
    return np.exp(d2 / -(gamma**2))


def _difference_cases():
    """(id, X, Z, gamma); gamma follows the data's scale, so the kernel
    values stay away from 0 and 1 and show every bit of the differences."""
    rng = np.random.default_rng(50)
    cases = []
    for dim in range(1, 11):
        X, Z = rng.normal(size=(23, dim)), rng.normal(size=(19, dim))
        cases += [(f"d{dim}", X, Z, 0.9), (f"d{dim}-n1", X[:1], Z, 0.9),
                  (f"d{dim}-m1", X, Z[:1], 0.9), (f"d{dim}-gram", X, X, 0.9)]
    pool = rng.normal(size=(5, 3))
    dup = pool[rng.integers(0, 5, size=20)]  # exact zero differences
    cases += [("duplicates", dup, dup, 1.3), ("duplicates-cross", dup, pool, 1.3)]
    for e in (-150, -75, -1, 0, 1, 75, 150):
        s = 10.0 ** e
        cases.append((f"scale1e{e}", s * rng.normal(size=(17, 2)),
                      s * rng.normal(size=(13, 2)), 2 * s))
    mixed = np.column_stack([1e150 * rng.normal(size=11),
                             1e-150 * rng.normal(size=11)])
    cases.append(("mixed-scales", mixed, mixed[::-1].copy(), 1e150))
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 1.0]])
    cases += [("signed-zeros", zeros, zeros, 1.0),
              ("signed-zeros-cross", zeros, -zeros, 1.0)]
    return cases


_CASES = _difference_cases()


@pytest.mark.parametrize("X, Z, gamma", [c[1:] for c in _CASES],
                         ids=[c[0] for c in _CASES])
def test_difference_products_equal_direct_differences(X, Z, gamma):
    # [x_j, 1] @ [1, -z_j]' has two exact products and one rounding, so it
    # is round(x_j - z_j); only an exact zero may differ from x_j - z_j in
    # its sign, and the square erases that
    xs, zs = _row_factors(X), _column_factors(Z)
    for j in range(X.shape[1]):
        got = xs[j] @ zs[j]
        want = np.subtract.outer(X[:, j], Z[:, j])
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.square(got).view(np.int64),
                              np.square(want).view(np.int64))


@pytest.mark.parametrize("X, Z, gamma", [c[1:] for c in _CASES],
                         ids=[c[0] for c in _CASES])
def test_gaussian_cross_bitwise_equal_to_direct_differences(X, Z, gamma):
    k = GaussianRBF(gamma=gamma, input_dim=X.shape[1])
    got = k.matrix(X, Z)
    assert np.array_equal(got.view(np.int64),
                          _direct_rbf(X, Z, gamma).view(np.int64))
    if Z is X:
        G = k.gram(X)
        assert np.array_equal(G.view(np.int64), got.view(np.int64))
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_array_equal(np.diag(G), np.ones(X.shape[0]))


def test_gaussian_multi_block_cross_bitwise_equal_to_direct_differences():
    # several row blocks with a partial last one, in 10 coordinates, where
    # the broadcast form's pairwise sum allows only a tolerance
    rng = np.random.default_rng(51)
    m = 300
    X = rng.normal(size=(3 * (_BLOCK_BUDGET // m) + 17, 10))
    Z = rng.normal(size=(m, 10))
    k = GaussianRBF(gamma=2.1, input_dim=10)
    assert np.array_equal(k.matrix(X, Z).view(np.int64),
                          _direct_rbf(X, Z, 2.1).view(np.int64))


def _power_of_two_cases():
    """(id, X, Z, gamma) with gamma^2 a power of two, which ``_cross``
    scales by multiplying with 1 / -(gamma^2): inputs at gamma's scale,
    and at 1e+-150 for gamma 1, where d2 overflows or nears underflow."""
    rng = np.random.default_rng(52)
    cases = []
    for e in (-3, -1, 0, 1, 40, -498, 498):
        gamma = 2.0 ** e
        X, Z = gamma * rng.normal(size=(29, 2)), gamma * rng.normal(size=(23, 2))
        cases.append((f"gamma2^{e}", X, Z, gamma))
    for e in (-150, 150):
        X, Z = 10.0 ** e * rng.normal(size=(17, 2)), 10.0 ** e * rng.normal(size=(13, 2))
        cases.append((f"gamma1-scale1e{e}", X, Z, 1.0))
    return cases


_POWER_OF_TWO_CASES = _power_of_two_cases()


@pytest.mark.parametrize("X, Z, gamma", [c[1:] for c in _POWER_OF_TWO_CASES],
                         ids=[c[0] for c in _POWER_OF_TWO_CASES])
def test_gaussian_power_of_two_scale_bitwise_equal_to_division(X, Z, gamma):
    # d2 * (1 / s) and d2 / s round the same exact real when s is a power
    # of two with a finite nonzero reciprocal
    k = GaussianRBF(gamma=gamma, input_dim=2)
    want = _direct_rbf(X, Z, gamma)
    assert np.array_equal(k.matrix(X, Z).view(np.int64), want.view(np.int64))
    assert np.array_equal(k.gram(X).view(np.int64),
                          _direct_rbf(X, X, gamma).view(np.int64))
    coef = np.random.default_rng(53).normal(size=Z.shape[0])
    rows = chunk_rows(Z.shape[0])
    chunked = np.concatenate([want[s:s + rows] @ coef
                              for s in range(0, X.shape[0], rows)])
    assert np.array_equal(k.apply(X, Z, coef).view(np.int64), chunked.view(np.int64))


def test_gaussian_scale_with_an_overflowing_reciprocal_divides():
    # gamma^2 = 2^-1074, the least subnormal: 1 / gamma^2 overflows, so the
    # kernel must divide; a multiply by -inf would give 0 and NaN entries
    gamma = 2.0 ** -537
    assert gamma ** 2 == 2.0 ** -1074 and math.isinf(1.0 / gamma ** 2)
    X = gamma * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    k = GaussianRBF(gamma=gamma, input_dim=2)
    got = k.matrix(X, X)
    assert np.array_equal(got.view(np.int64), _direct_rbf(X, X, gamma).view(np.int64))
    np.testing.assert_array_equal(np.diag(got), np.ones(4))
    assert got[0, 1] == math.exp(-1.0) and got[0, 3] == math.exp(-4.0)


def test_train_model_identical_across_blas_thread_counts(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the RBF kernel's differences come from dgemm, so a BLAS that splits
    # work over threads must still write the same model
    src = str(Path(__file__).resolve().parents[1] / "src")
    cfg = {"version": 1,
           "dataset": {"kind": "synthetic", "task": "sine-regression",
                       "n": 400, "dim": 2, "noise": 0.3, "seed": 3},
           "partition": {"b_target": 2, "tau": 0.25, "min_region_size": 5,
                         "seed": 1},
           "scheme": {"kind": "normalized-indicator"},
           "model": {"loss": "logistic-regression",
                     "kernel": {"family": "gaussian-rbf", "gamma": 0.8},
                     "lambda": 0.05}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    models = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "localsvm.cli", "train", "--config",
             str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


def test_gaussian_gram_peaks_at_one_n_by_n_buffer():
    n = 2000
    X = np.random.default_rng(15).normal(size=(n, 2))
    k = GaussianRBF(gamma=1.0, input_dim=2)
    tracemalloc.start()
    try:
        k.gram(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


GRAM_ROWS_KERNELS = [GaussianRBF(gamma=0.8, input_dim=2), Linear(input_dim=2),
                     Polynomial(degree=3, offset=1.0, input_dim=2)]
GRAM_ROWS_IDS = ["rbf", "linear", "poly3"]


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100, 1537])
@pytest.mark.parametrize("kernel", GRAM_ROWS_KERNELS, ids=GRAM_ROWS_IDS)
def test_gram_rows_are_the_upper_block_rows_of_the_gram(kernel, n):
    rng = np.random.default_rng(n)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    G = kernel.gram(X)
    K = kernel.gram_rows(X)
    rbf = kernel.family == "gaussian-rbf"

    def same(block, ref):
        # Gaussian RBF entries are computed alone; inner products may be
        # rounded differently by a general and a symmetric BLAS product
        if rbf:
            assert np.array_equal(block, ref)
        else:
            np.testing.assert_allclose(block, ref, rtol=0,
                                       atol=1e-14 * np.max(np.abs(G)))

    if n <= _GRAM_ROWS:
        # one block: the dense Gram itself
        assert type(K) is np.ndarray and np.array_equal(K, G)
    else:
        assert isinstance(K, BlockRowGram)
        assert [(s, e) for s, e, _, _ in K.blocks] == [
            (s, min(s + _GRAM_ROWS, n)) for s in range(0, n, _GRAM_ROWS)]
        for s, e, D, C in K.blocks:
            assert np.array_equal(D, D.T)
            same(D, G[s:e, s:e])
            same(C, G[s:e, e:])
    assert K.shape == G.shape
    same(K.diagonal(), np.diagonal(G))
    for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        ref = G @ v
        np.testing.assert_allclose(K @ v, ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("kernel", GRAM_ROWS_KERNELS, ids=GRAM_ROWS_IDS)
def test_gram_rows_compute_only_the_upper_block_rows(kernel, monkeypatch):
    n = 1537
    X = np.random.default_rng(16).uniform(-2.0, 2.0, size=(n, 2))
    entries = []
    cross = type(kernel)._cross

    def counting_cross(self, X, Z, **kwargs):
        entries.append(X.shape[0] * Z.shape[0])
        return cross(self, X, Z, **kwargs)

    # every kernel evaluation goes through the family's _cross
    monkeypatch.setattr(type(kernel), "_cross", counting_cross)
    kernel.gram_rows(X)
    assert sum(entries) == sum(min(_GRAM_ROWS, n - s) * (n - s)
                               for s in range(0, n, _GRAM_ROWS))
    assert sum(entries) <= n * (n + _GRAM_ROWS) / 2


def test_gram_rows_reject_a_vector_of_the_wrong_length():
    X = np.random.default_rng(17).uniform(-2.0, 2.0, size=(600, 2))
    K = GaussianRBF(gamma=1.0, input_dim=2).gram_rows(X)
    for shape in ((599,), (601, 2), (600, 2, 1)):
        with pytest.raises(ValueError):
            K @ np.zeros(shape)


def _chunked_matrix(kernel, X, Z):
    # Kernel.matrix as it was written before it called _cross once
    out = np.empty((X.shape[0], Z.shape[0]))
    rows = chunk_rows(Z.shape[0])
    for start in range(0, X.shape[0], rows):
        out[start:start + rows] = kernel._cross(X[start:start + rows], Z)
    return out


@pytest.mark.parametrize("dim", [1, 3, 10])
@pytest.mark.parametrize("kernel", [Linear(input_dim=1),
                                    Polynomial(degree=3, offset=0.5, input_dim=1)],
                         ids=["linear", "polynomial"])
def test_matrix_above_chunk_budget_matches_chunked_form(kernel, dim):
    k = dataclasses.replace(kernel, input_dim=dim)
    rng = np.random.default_rng(40 + dim)
    m = 2000
    X = rng.normal(size=(_BLOCK_BUDGET // m + 101, dim))  # several chunks
    Z = rng.normal(size=(m, dim))
    got = k.matrix(X, Z)
    want = _chunked_matrix(k, X, Z)
    if dim <= 3:
        np.testing.assert_array_equal(got, want)
    else:
        # BLAS may block the longer product differently over 10 columns
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-15 * np.abs(want).max())


def test_polynomial_matrix_peaks_at_its_output():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(1000, 3))
    Z = rng.normal(size=(1000, 3))
    k = Polynomial(degree=3, offset=1.0, input_dim=3)
    tracemalloc.start()
    try:
        k.matrix(X, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.shape[0] * Z.shape[0] * 8


APPLY_KERNELS = [GaussianRBF(gamma=0.9, input_dim=1), GaussianRBF(gamma=0.9, input_dim=2),
                 GaussianRBF(gamma=1.3, input_dim=3), Linear(input_dim=2),
                 Polynomial(degree=3, offset=0.5, input_dim=3)]
APPLY_IDS = ["rbf-d1", "rbf-d2", "rbf-d3", "linear", "polynomial"]


def _chunked_products(kernel, X, Z, coef):
    # LocalModel.predict's loop before Kernel.apply: matrix(chunk) @ coef
    out = np.zeros((X.shape[0],) + coef.shape[1:])
    rows = chunk_rows(Z.shape[0])
    for start in range(0, X.shape[0], rows):
        out[start:start + rows] = kernel.matrix(X[start:start + rows], Z) @ coef
    return out


def _apply_inputs(kernel, n, m, seed, cols=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, kernel.input_dim))
    Z = rng.normal(size=(m, kernel.input_dim))
    coef = rng.normal(size=(m,) if cols is None else (m, cols))
    return X, Z, coef


@pytest.mark.parametrize("kernel", APPLY_KERNELS, ids=APPLY_IDS)
@pytest.mark.parametrize("m", [1, 700])
@pytest.mark.parametrize("rows", ["none", "one", "multiple", "non-multiple"])
@pytest.mark.parametrize("cols", [None, 4], ids=["1d", "2d"])
def test_apply_bitwise_equal_to_chunked_matrix_products(kernel, m, rows, cols):
    chunk = chunk_rows(m)
    n = {"none": 0, "one": 1, "multiple": 3 * chunk, "non-multiple": 3 * chunk + 5}[rows]
    X, Z, coef = _apply_inputs(kernel, n, m, seed=50 + m + n, cols=cols)
    got = kernel.apply(X, Z, coef)
    want = _chunked_products(kernel, X, Z, coef)
    assert got.shape == want.shape == (n,) + coef.shape[1:]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kernel", APPLY_KERNELS, ids=APPLY_IDS)
def test_apply_columns_match_one_dimensional_calls(kernel):
    m = 700
    X, Z, coef = _apply_inputs(kernel, 3 * chunk_rows(m) + 5, m, seed=60, cols=5)
    got = kernel.apply(X, Z, coef)
    scale = np.abs(kernel.matrix(X, Z)) @ np.abs(coef)  # each sum's rounding scale
    for j in range(coef.shape[1]):
        one = kernel.apply(X, Z, coef[:, j])
        assert np.all(np.abs(got[:, j] - one) <= m * np.finfo(float).eps * scale[:, j])


@pytest.mark.parametrize("kernel", APPLY_KERNELS, ids=APPLY_IDS)
def test_apply_blocks_match_one_call_per_block(kernel):
    # a list of blocks is one pass: block i multiplies the first m_i
    # columns of each chunk, the product apply(X, Z[:m_i], C_i) gives over
    # its own, narrower chunks (and, for Linear and Polynomial, with entries
    # from a product of another shape); the largest block has m_i = m
    m = 700
    X, Z, _ = _apply_inputs(kernel, 3 * chunk_rows(m) + 5, m, seed=61)
    rng = np.random.default_rng(62)
    blocks = [rng.normal(size=(250, 3)), rng.normal(size=1),
              rng.normal(size=(m, 2)), rng.normal(size=(699, 1))]
    got = kernel.apply(X, Z, blocks)
    assert isinstance(got, list) and len(got) == len(blocks)
    for C, P in zip(blocks, got):
        m_i = C.shape[0]
        one = kernel.apply(X, Z[:m_i], C)
        assert P.shape == one.shape == (X.shape[0],) + C.shape[1:]
        scale = np.abs(kernel.matrix(X, Z[:m_i])) @ np.abs(C)
        assert np.all(np.abs(P - one) <= m * np.finfo(float).eps * scale)


def test_apply_blocks_narrower_than_z_compute_only_their_columns(monkeypatch):
    # the pass covers the columns of the widest block, not all of Z
    k = GaussianRBF(gamma=1.0, input_dim=2)
    widths = []
    original = GaussianRBF._cross

    def spy(self, X, Z, *args, **kwargs):
        widths.append(Z.shape[0])
        return original(self, X, Z, *args, **kwargs)

    monkeypatch.setattr(GaussianRBF, "_cross", spy)
    X, Z, _ = _apply_inputs(k, 50, 40, seed=63)
    got = k.apply(X, Z, [np.ones(10), np.ones((25, 2))])
    assert set(widths) == {25}
    assert [P.shape for P in got] == [(50,), (50, 2)]
    assert k.apply(X, Z, []) == []
    np.testing.assert_array_equal(k.apply(X, Z, [np.ones(0)])[0], np.zeros(50))


def test_apply_with_no_columns_is_zero():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    got = k.apply(np.ones((3, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    np.testing.assert_array_equal(got, np.zeros((3, 2)))


def test_apply_rejects_a_coefficient_of_the_wrong_length():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    with pytest.raises(InputError):
        k.apply(np.ones((3, 2)), np.zeros((4, 2)), np.zeros(3))
    # a block may be shorter than Z, not longer, and is 1-d or 2-d
    with pytest.raises(InputError):
        k.apply(np.ones((3, 2)), np.zeros((4, 2)), [np.zeros(4), np.zeros((5, 2))])
    with pytest.raises(InputError):
        k.apply(np.ones((3, 2)), np.zeros((4, 2)), [np.zeros((2, 2, 2))])


@pytest.mark.parametrize("kernel", APPLY_KERNELS, ids=APPLY_IDS)
def test_prediction_writes_every_chunk_into_one_buffer(kernel, monkeypatch):
    # every chunk's _cross writes into the same block (and, for Gaussian
    # RBF, uses the same scratch and column factors): the buffers are built
    # once per call
    from localsvm import LocalModel, LogisticRegression

    seen = []
    cls = type(kernel)
    original = cls._cross

    def spy(self, X, Z, *args, **kwargs):
        K = original(self, X, Z, *args, **kwargs)
        workspace = kwargs.get("workspace") or ()
        seen.append(tuple(a.__array_interface__["data"][0] for a in (K, *workspace)))
        return K

    monkeypatch.setattr(cls, "_cross", spy)
    m = 700
    X, Z, coef = _apply_inputs(kernel, 3 * chunk_rows(m) + 5, m, seed=70)
    model = LocalModel(alpha=coef, anchors=Z, kernel=kernel,
                       loss=LogisticRegression(), lam=1.0)
    model.predict(X)
    assert len(seen) == 4
    assert len(set(seen)) == 1
    assert len(seen[0]) == (3 if isinstance(kernel, GaussianRBF) else 1)

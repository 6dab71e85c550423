import json

import numpy as np
import pytest

from localsvm import (ComposedModel, ConvergenceError, GaussianRBF,
                      InputError, LocalModel, LogisticRegression, ModelConfig,
                      TrainConfig, WeightScheme, WeightedSample, composer,
                      empirical_risk, fit_composed, predict_composed,
                      regionalize, restrict, train, weight_sup_norm)
from localsvm.composer import compose
from conftest import manual_partition, member_matrix, two_blobs

REG = LogisticRegression()


def _config(lam=0.5, **kw):
    return ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                       train=TrainConfig(lam=lam), **kw)


def test_single_region_equals_global_model():
    data = two_blobs(n_per=20, seed=1)
    part = regionalize(data.X, b_target=1, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    config = _config()
    composed = fit_composed(data, scheme, config)
    global_model = train(data, config.kernel, REG, config.train)
    probes = np.random.default_rng(2).uniform(-2, 10, size=(200, 2))
    np.testing.assert_allclose(composed.predict(probes),
                               global_model.predict(probes), atol=1e-12)


def test_disjoint_regions_use_single_local():
    data = two_blobs(n_per=20, gap=10.0, seed=3)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    composed = fit_composed(data, scheme, _config())
    # a training point interior to exactly one region
    x = data.X[0]
    members = [rows.size for rows in part.members(x[None, :])]
    assert sum(members) == 1
    b = int(np.argmax(members)) + 1
    assert composed.predict([x])[0] == pytest.approx(
        composed.locals[b].predict([x])[0], abs=1e-15)


def test_overlap_point_averages_locals():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([0.5, -0.5])
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    scheme = WeightScheme("normalized-indicator", part)
    composed = fit_composed(data, scheme, _config())
    mid = [[0.5, 0.0]]
    expected = 0.5 * (composed.locals[1].predict(mid)[0]
                      + composed.locals[2].predict(mid)[0])
    assert composed.predict(mid)[0] == pytest.approx(expected, rel=1e-14)


def test_predict_composed_hand_values():
    k = GaussianRBF(gamma=1.0, input_dim=2)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    part = manual_partition([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    scheme = WeightScheme("normalized-indicator", part)
    # local models predicting the constants 2 and 4 at the midpoint
    mid = np.array([[0.5, 0.0]])
    k_mid = k.matrix(mid, [[0.0, 0.0]])[0, 0]
    locals_b = {
        1: LocalModel(alpha=np.array([2.0 / k_mid]), anchors=[[0.0, 0.0]],
                      kernel=k, loss=REG, lam=0.5, region_id=1),
        2: LocalModel(alpha=np.array([4.0 / k_mid]), anchors=[[1.0, 0.0]],
                      kernel=k, loss=REG, lam=0.5, region_id=2),
    }
    composed = ComposedModel(locals_b, scheme)
    assert composed.predict(mid)[0] == pytest.approx(3.0, rel=1e-14)

    zeros = ComposedModel(
        {b: LocalModel.zero(k, REG, 0.5, b) for b in (1, 2)}, scheme)
    np.testing.assert_array_equal(predict_composed(zeros, X), np.zeros(2))


def test_null_region_gets_zero_model():
    X = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 0.0, -1.0])
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.5, 0.0], [50.0, 50.0]], [2.0, 1.0])
    scheme = WeightScheme("normalized-indicator", part)
    composed = fit_composed(data, scheme, _config())
    assert composed.null_region_ids == {2}
    assert composed.locals[2].n_anchors == 0
    assert composed.locals[2].h_norm() == 0.0
    # near the empty ball the fallback seeks region 2's zero model
    assert composed.predict([[50.0, 50.0]])[0] == 0.0


def test_convex_combination_bound():
    data = two_blobs(n_per=25, gap=2.5, seed=4)
    part = regionalize(data.X, b_target=3, tau=0.5, min_region_size=5, seed=1)
    scheme = WeightScheme("smooth-bump", part, h=1.0)
    composed = fit_composed(data, scheme, _config(lam=0.2))
    probes = np.random.default_rng(5).uniform(-1, 4, size=(400, 2))
    M = member_matrix(part.members(probes), len(probes))
    covered = M.any(axis=1)
    preds = composed.predict(probes)
    local_preds = np.column_stack(
        [composed.locals[b].predict(probes) for b in range(1, part.B + 1)])
    for i in np.where(covered)[0]:
        vals = local_preds[i, M[i]]
        assert vals.min() - 1e-12 <= preds[i] <= vals.max() + 1e-12


def test_pointwise_sup_bound():
    data = two_blobs(n_per=25, gap=3.0, seed=6)
    part = regionalize(data.X, b_target=2, tau=0.3, min_region_size=5, seed=1)
    scheme = WeightScheme("normalized-indicator", part)
    lam = 0.25
    composed = fit_composed(data, scheme, _config(lam=lam))
    probes = np.random.default_rng(7).uniform(-1, 5, size=(500, 2))
    cap = sum(weight_sup_norm(scheme, b) * (1.0 / lam) * REG.lipschitz * 1.0**2
              for b in range(1, part.B + 1))
    assert np.max(np.abs(composed.predict(probes))) <= cap


def test_per_region_hyperparameters():
    data = two_blobs(n_per=20, gap=10.0, seed=8)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    config = _config(lam=1.0,
                     region_kernels={2: GaussianRBF(gamma=2.0, input_dim=2)},
                     region_lambdas={2: 0.05})
    composed = fit_composed(data, scheme, config)
    assert composed.locals[1].lam == 1.0 and composed.locals[2].lam == 0.05
    assert composed.locals[1].kernel.gamma == 1.0
    assert composed.locals[2].kernel.gamma == 2.0


def test_training_error_tagged_with_region():
    data = two_blobs(n_per=20, gap=10.0, seed=9)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    config = ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=0.01, grad_tol=1e-15, max_iter=1))
    with pytest.raises(ConvergenceError) as err:
        fit_composed(data, scheme, config)
    assert err.value.region_id in (1, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_training_error_names_the_failing_region(monkeypatch, threads):
    # only region 2's fit is starved of iterations: the error that reaches
    # the caller is train's own, naming region 2, serial or pooled
    data = two_blobs(n_per=20, gap=10.0, seed=9)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    real_train = composer.train

    def starve_region_2(sample, kernel, loss, cfg, **kw):
        if kw["region_id"] == 2:
            cfg = TrainConfig(lam=0.01, grad_tol=1e-15, max_iter=1)
        return real_train(sample, kernel, loss, cfg, **kw)

    monkeypatch.setattr(composer, "train", starve_region_2)
    with pytest.raises(ConvergenceError) as err:
        fit_composed(data, scheme, _config(), threads=threads)
    assert err.value.region_id == 2
    assert str(err.value).startswith(
        "training failed in region 2: no convergence after 1 iterations")


@pytest.mark.parametrize("dim", [1, 3])
def test_points_of_another_dimension_reach_no_fit_or_prediction(monkeypatch, dim):
    # a 2-d partition and data (and kernels) of another dimension: the ball
    # tests reject the data before any region trains, and the queries before
    # any local model predicts
    rng = np.random.default_rng(8)
    part = regionalize(rng.uniform(-1.0, 1.0, size=(60, 2)), b_target=2,
                       tau=0.1, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    data = WeightedSample.uniform(rng.uniform(-1.0, 1.0, size=(60, dim)),
                                  rng.normal(size=60))
    kernel = GaussianRBF(gamma=1.0, input_dim=dim)
    config = ModelConfig(loss=REG, kernel=kernel, train=TrainConfig(lam=0.5))
    calls = []
    monkeypatch.setattr(composer, "train", lambda *a, **kw: calls.append(kw))
    message = f"is 2-d, got points of dimension {dim}"
    for threads in (1, 2):
        with pytest.raises(InputError, match=message):
            fit_composed(data, scheme, config, threads=threads)
    assert calls == []
    with pytest.raises(InputError, match=f"region 1 is 2-d, but its local "
                                         f"model's kernel takes {dim}-d"):
        ComposedModel({b: LocalModel.zero(kernel, REG, 0.5, b) for b in (1, 2)},
                      scheme)
    model = ComposedModel({b: LocalModel.zero(_config().kernel, REG, 0.5, b)
                           for b in (1, 2)}, scheme)
    with pytest.raises(InputError, match=message):
        model.predict(data.X)


def test_threaded_fit_matches_serial():
    data = two_blobs(n_per=25, gap=4.0, seed=10)
    part = regionalize(data.X, b_target=3, tau=0.2, min_region_size=5, seed=2)
    scheme = WeightScheme("normalized-indicator", part)
    serial = fit_composed(data, scheme, _config())
    threaded = fit_composed(data, scheme, _config(), threads=4)
    for b in serial.locals:
        np.testing.assert_array_equal(serial.locals[b].alpha,
                                      threaded.locals[b].alpha)


def test_fit_coefficients_bitwise_across_runs_and_threads():
    # regions of a few hundred anchors, so every Newton step runs several
    # conjugate-gradient iterations
    data = two_blobs(n_per=300, gap=1.5, seed=12)
    part = regionalize(data.X, b_target=3, tau=0.3, min_region_size=5, seed=4)
    scheme = WeightScheme("normalized-indicator", part)
    config = _config(lam=0.05)
    fits = [fit_composed(data, scheme, config, threads=t) for t in (1, 1, 2)]
    assert all(m.solve_info.cg_iters > m.solve_info.newton_iters
               for m in fits[0].locals.values())
    for other in fits[1:]:
        for b in fits[0].locals:
            np.testing.assert_array_equal(fits[0].locals[b].alpha,
                                          other.locals[b].alpha)


def test_empirical_risk_examples():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0.3, -0.7])
    data = WeightedSample.uniform(X, y)
    perfect = y.copy()
    assert empirical_risk(perfect, data, REG) == 0.0
    preds = np.array([0.1, 0.2])
    by_hand = float(np.mean([REG.value(0.3, 0.1), REG.value(-0.7, 0.2)]))
    assert empirical_risk(preds, data, REG) == pytest.approx(by_hand, rel=1e-15)
    # a non-uniform measure weights each point's loss by its mass
    skewed = WeightedSample(X, y, [0.25, 0.75])
    by_hand = 0.25 * REG.value(0.3, 0.1) + 0.75 * REG.value(-0.7, 0.2)
    assert empirical_risk(preds, skewed, REG) == pytest.approx(by_hand, rel=1e-15)


def test_composed_model_json_round_trip():
    data = two_blobs(n_per=20, gap=3.0, seed=11)
    part = regionalize(data.X, b_target=2, tau=0.25, min_region_size=5, seed=1)
    scheme = WeightScheme("normalized-indicator", part)
    composed = fit_composed(data, scheme, _config(lam=0.4))
    blob = json.dumps(composed.to_dict())
    back = ComposedModel.from_dict(json.loads(blob))
    probes = np.random.default_rng(12).uniform(-2, 6, size=(300, 2))
    np.testing.assert_array_equal(back.predict(probes), composed.predict(probes))
    assert back.null_region_ids == composed.null_region_ids
    d = composed.to_dict()
    assert set(d) == {"partition", "scheme", "locals", "null_region_ids"}
    assert set(d["locals"][0]) == {"region_id", "lambda", "kernel", "loss",
                                   "anchors", "alpha"}


def test_composed_model_from_dict_rejects_a_local_model_of_another_dimension():
    data = two_blobs(n_per=20, gap=3.0, seed=11)
    part = regionalize(data.X, b_target=2, tau=0.25, min_region_size=5, seed=1)
    d = fit_composed(data, WeightScheme("normalized-indicator", part),
                     _config(lam=0.4)).to_dict()
    kernel_3d = json.loads(json.dumps(d))
    kernel_3d["locals"][1]["kernel"]["input_dim"] = 3
    with pytest.raises(InputError, match="region 2 is 2-d, but its local "
                                         "model's kernel takes 3-d points"):
        ComposedModel.from_dict(kernel_3d)
    anchors_3d = json.loads(json.dumps(d))
    anchors_3d["locals"][0]["anchors"] = [a + [0.0] for a in
                                          d["locals"][0]["anchors"]]
    with pytest.raises(InputError, match="region 1 .* its anchors are 3-d"):
        ComposedModel.from_dict(anchors_3d)


def test_fit_on_a_repeated_point_matches_its_doubled_weight():
    # the sample with point 0 drawn twice and the measure that gives point 0
    # twice the weight of the others are one measure; the two fits differ
    # only in how the repeated point's coefficient is split
    data = two_blobs(n_per=20, gap=3.0, seed=11)
    part = regionalize(data.X, b_target=2, tau=0.25, min_region_size=5, seed=1)
    scheme = WeightScheme("normalized-indicator", part)
    n = data.n
    repeated = WeightedSample.uniform(np.vstack([data.X, data.X[:1]]),
                                      np.append(data.y, data.y[0]))
    weights = np.full(n, 1.0 / (n + 1))
    weights[0] = 2.0 / (n + 1)
    doubled = WeightedSample(data.X, data.y, weights)
    config = _config(lam=0.4)
    a = fit_composed(repeated, scheme, config)
    b = fit_composed(doubled, scheme, config)
    assert [m.n_anchors for m in a.locals.values()] != [
        m.n_anchors for m in b.locals.values()]
    probes = np.random.default_rng(12).uniform(-2, 6, size=(300, 2))
    np.testing.assert_allclose(a.predict(probes), b.predict(probes),
                               rtol=0.0, atol=1e-9)


def test_restrict_count_fixture():
    # half the sample in each region
    X = np.vstack([np.full((10, 2), 0.0) + np.arange(10)[:, None] * 0.01,
                   np.full((10, 2), 5.0) + np.arange(10)[:, None] * 0.01])
    y = np.arange(20.0)
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.05, 0.05], [5.05, 5.05]], [1.0, 1.0])
    half = restrict(data, part.members(X)[0])
    assert half.n == 10
    np.testing.assert_allclose(half.weights, np.full(10, 2.0 / 20.0))


def test_compose_sums_weighted_local_predictions_over_active_rows():
    # the per-region (rows, w) pairs of the weights [[1, 0, 0],
    # [1/4, 3/4, 0], [0, 1, 0]]
    weights = [(np.array([0, 1]), np.array([1.0, 0.25])),
               (np.array([1, 2]), np.array([0.75, 1.0])),
               (np.array([], dtype=int), np.array([]))]
    f = {1: np.array([2.0, 4.0, 6.0]), 2: np.array([10.0, 20.0, 30.0]),
         3: np.array([7.0, 7.0, 7.0])}
    asked = []

    def local_predict(b, rows):
        asked.append((b, rows.tolist()))
        return f[b][rows]

    out = compose(weights, 3, local_predict)
    np.testing.assert_array_equal(out, [2.0, 0.25 * 4.0 + 0.75 * 20.0, 30.0])
    # region order, only each region's rows, and no call for region 3
    assert asked == [(1, [0, 1]), (2, [1, 2])]


import numpy as np
import pytest

from localsvm import (AuditContext, GaussianRBF, InputError,
                      LadderConvergenceWarning, Linear, LogisticClassification,
                      LogisticRegression, ModelConfig, Polynomial, TrainConfig,
                      WeightScheme, WeightedSample, adversarial_q_specs,
                      contaminate_region, decomposition_check, default_probes,
                      finite_diff_if, fit_composed, if_bound, maxbias_probe,
                      regionalize, restrict, run_audit, tv_refined_if_bound)
from localsvm import composer, robustness
from conftest import manual_partition, two_blobs

REG = LogisticRegression()
CLS = LogisticClassification()


def _config(lam=0.5, region_lambdas=None):
    return ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                       train=TrainConfig(lam=lam),
                       region_lambdas=region_lambdas or {})


def _fixture(n_per=15, gap=6.0, seed=0, b=2, tau=0.25):
    data = two_blobs(n_per=n_per, gap=gap, seed=seed)
    part = regionalize(data.X, b_target=b, tau=tau, min_region_size=5, seed=1)
    scheme = WeightScheme("normalized-indicator", part)
    return data, part, scheme


@pytest.fixture
def train_calls(monkeypatch):
    """Every train call of a base fit or an audit retrain, recorded."""
    calls = []
    for module in (composer, robustness):
        def spy(*args, _train=module.train, **kwargs):
            calls.append(kwargs.get("region_id"))
            return _train(*args, **kwargs)
        monkeypatch.setattr(module, "train", spy)
    return calls


def test_eps_ladder_and_q_validation():
    data, part, scheme = _fixture(n_per=10)
    ctx = AuditContext(data, scheme, _config(), probes=data.X)
    z = WeightedSample.dirac(part.region(1).center, 1.0)
    for ladder in ((0.6, 0.3), (1e-3, 1e-2), (1e-2, 0.0)):
        with pytest.raises(InputError, match="eps ladder"):
            finite_diff_if(ctx, z, ladder)
    with pytest.raises(InputError, match="must be a WeightedSample"):
        finite_diff_if(ctx, None)  # Q not a sample
    assert z.n == 1 and z.weights.tolist() == [1.0]


@pytest.mark.parametrize("ladder", [(0.6, 0.3), (1e-3, 1e-2), (1e-2,)],
                         ids=["above-half", "increasing", "one-rung"])
def test_run_audit_rejects_a_bad_ladder_or_q_before_training(ladder, train_calls):
    data, part, scheme = _fixture(n_per=10)
    z = WeightedSample.dirac(part.region(1).center, 1.0)
    with pytest.raises(InputError, match="eps ladder"):
        run_audit(data, scheme, _config(), [z], probes=data.X, eps_ladder=ladder)
    with pytest.raises(InputError, match="must be a WeightedSample"):
        run_audit(data, scheme, _config(), [z, (z.X[0], 1.0)], probes=data.X)
    assert train_calls == []


@pytest.mark.parametrize("z_x", [[0.0, 0.0, 0.0], [50.0], [0.0]],
                         ids=["3-d", "1-d-outside", "1-d-inside"])
def test_contamination_of_another_dimension_is_rejected(z_x, train_calls):
    # unchecked, a 1-d z broadcasts against 2-d balls, and an audit at
    # z = [50] reads influence 0 and passes
    data, part, scheme = _fixture(n_per=10)
    config = _config()
    z = WeightedSample.dirac(z_x, 1.0)
    wrong = f"dimension {len(z_x)}, but the data has dimension 2"
    with pytest.raises(InputError, match=wrong):
        run_audit(data, scheme, config, [z], probes=data.X)  # before the base fit
    assert train_calls == []
    base = fit_composed(data, scheme, config)
    ctx = AuditContext(data, scheme, config, probes=data.X, base=base)
    good = WeightedSample.dirac(part.region(1).center, 1.0)
    train_calls.clear()
    with pytest.raises(InputError, match=wrong):
        finite_diff_if(ctx, z)
    with pytest.raises(InputError, match=wrong):
        maxbias_probe(ctx, 0.1, [good, z])
    with pytest.raises(InputError, match=wrong):
        run_audit(data, scheme, config, [good, z], probes=data.X, base=base)
    assert train_calls == []
    with pytest.raises(InputError, match=wrong):
        contaminate_region(restrict(data, part.members(data.X)[0]), z,
                           part.region(1), 0.01)
    with pytest.raises(InputError, match=wrong):
        tv_refined_if_bound(data, scheme, config, z_x, 1.0)
    finite_diff_if(ctx, good, (1e-2, 5e-3))
    assert train_calls  # the spy sees the audit's retrains


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["z_x", "z_y"])
def test_spec_rejects_non_finite_z(where, bad):
    # a NaN z lies in no region, so its audit would read influence 0 and
    # its TV-refined bound 0
    z_x, z_y = [0.0, 0.0], 1.0
    if where == "z_x":
        z_x = [0.0, bad]
    else:
        z_y = bad
    with pytest.raises(InputError, match="non-finite"):
        WeightedSample.dirac(z_x, z_y)
    data, part, scheme = _fixture(n_per=5)
    with pytest.raises(InputError, match="non-finite"):
        tv_refined_if_bound(data, scheme, _config(), z_x, z_y)


def test_contaminate_region_dirac_inside():
    X = np.random.default_rng(0).normal(size=(99, 2)) * 0.1
    sample = WeightedSample(X, np.zeros(99), np.full(99, 1.0 / 99.0))
    part = manual_partition([[0.0, 0.0]], [5.0])
    z = WeightedSample.dirac([0.5, 0.5], 7.0)
    out = contaminate_region(sample, z, part.region(1), eps=0.01)
    assert out.n == 100
    np.testing.assert_allclose(out.weights[:99], 0.99 / 99.0)
    assert out.weights[-1] == 0.01
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert out.y[-1] == 7.0


def test_contaminate_region_dirac_outside_returns_same_object():
    X = np.zeros((5, 2))
    sample = WeightedSample(X, np.zeros(5), np.full(5, 0.2))
    part = manual_partition([[0.0, 0.0]], [1.0])
    z = WeightedSample.dirac([9.0, 9.0], 1.0)
    out = contaminate_region(sample, z, part.region(1), eps=0.01)
    assert out is sample


def test_contaminate_region_mixture_reduces_to_dirac():
    X = np.random.default_rng(1).normal(size=(10, 2)) * 0.1
    sample = WeightedSample(X, np.zeros(10), np.full(10, 0.1))
    part = manual_partition([[0.0, 0.0]], [5.0])
    z_x, z_y = np.array([0.2, -0.1]), 3.0
    dirac = WeightedSample.dirac(z_x, z_y)
    mixture = WeightedSample(z_x[None, :], np.array([z_y]), np.array([1.0]))
    a = contaminate_region(sample, dirac, part.region(1), eps=0.05)
    b = contaminate_region(sample, mixture, part.region(1), eps=0.05)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_one_atom_mixture_is_a_dirac_spec():
    # a one-atom Q, however it is built, is the Dirac point z and gets the
    # TV-refined bound; a Q of two atoms is a mixture
    data, part, scheme = _fixture(n_per=10, gap=4.0)
    config = _config()
    z_x = part.region(1).center
    qs = [WeightedSample([z_x], [3.0], [1.0]), WeightedSample.dirac(z_x, 3.0),
          WeightedSample([z_x, part.region(2).center], [3.0, -3.0], [0.5, 0.5])]
    report = run_audit(data, scheme, config, qs, maxbias_eps=None,
                       probes=data.X, eps_ladder=(1e-2, 5e-3))
    refined = tv_refined_if_bound(data, scheme, config, z_x, 3.0)
    for entry in report.per_z[:2]:
        assert entry["kind"] == "dirac"
        assert entry["z"] == {"x": z_x.tolist(), "y": 3.0}
        assert entry["tv_refined_bound"] == refined
    assert report.per_z[0] == report.per_z[1]
    mixture = report.per_z[2]
    assert mixture["kind"] == "mixture" and "z" not in mixture
    assert mixture["tv_refined_bound"] is None


def test_contaminate_region_eps_validation():
    X = np.zeros((3, 2))
    sample = WeightedSample(X, np.zeros(3), np.full(3, 1 / 3))
    part = manual_partition([[0.0, 0.0]], [1.0])
    z = WeightedSample.dirac([0.0, 0.0], 1.0)
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(InputError):
            contaminate_region(sample, z, part.region(1), eps=eps)


def test_if_bound_arithmetic_examples():
    # B = 1, lambda = 0.5, Gaussian + logistic: 2 * 1 * 1 * (1/0.5) * 1 = 4
    X = np.random.default_rng(2).normal(size=(10, 2))
    part = manual_partition([[0.0, 0.0]], [50.0])
    scheme = WeightScheme("normalized-indicator", part)
    rep = if_bound(scheme, _config(lam=0.5))
    assert rep.if_bound_rough == 4.0
    assert rep.per_region_terms[0]["k_sup"] == 1.0

    # B = 2, lambdas (1, 2): 2 * (1 + 0.5) = 3
    data, part2, scheme2 = _fixture(gap=10.0, tau=0.0)
    rep2 = if_bound(scheme2, _config(lam=1.0, region_lambdas={2: 2.0}))
    assert rep2.if_bound_rough == pytest.approx(3.0, rel=1e-15)
    assert [t["w_sup"] for t in rep2.per_region_terms] == [1.0, 1.0]


def test_if_bound_halving_lambda_doubles_bound():
    data, part, scheme = _fixture()
    for lam in (0.1, 0.37, 2.0):
        full = if_bound(scheme, _config(lam=lam)).if_bound_rough
        half = if_bound(scheme, _config(lam=lam / 2.0)).if_bound_rough
        assert half == 2.0 * full


def test_if_bound_non_rbf_factors_from_balls():
    # Linear: ||k_b|| = ||c_b|| + r_b, at least the max of ||x|| over the
    # region's training points, and w_sup = 1
    data, part, scheme = _fixture()
    cfg = ModelConfig(loss=REG, kernel=Linear(input_dim=2),
                      train=TrainConfig(lam=0.5))
    rep = if_bound(scheme, cfg)
    for t, region in zip(rep.per_region_terms, part.regions):
        assert t["w_sup"] == 1.0
        assert t["k_sup"] == pytest.approx(
            np.linalg.norm(region.center) + region.radius, rel=1e-15)
        inside = data.X[region.contains_many(data.X)]
        assert t["k_sup"] >= np.linalg.norm(inside, axis=1).max()
        assert t["term"] == pytest.approx(2.0 * REG.lipschitz * t["k_sup"]**2 / 0.5,
                                          rel=1e-15)


def test_finite_diff_if_localized_to_touched_regions():
    data, part, scheme = _fixture(gap=10.0, tau=0.0)
    config = _config()
    probes = default_probes(data, 64)
    # z inside region 2's ball only
    c2 = part.region(2).center
    est = finite_diff_if(AuditContext(data, scheme, config, probes=probes),
                         WeightedSample.dirac(c2, 5.0))
    assert set(est.per_region) == {2}
    assert 1 not in est.per_region
    assert est.h_norms[1] == 0.0
    assert est.h_norms[2] > 0.0
    assert np.max(np.abs(est.per_region[2].values)) > 0.0


def test_finite_diff_if_stationary_contamination_gives_zero():
    # a model that already interpolates (y = 0 everywhere -> f = 0) and a
    # contamination at the same atoms changes nothing: IF estimate is 0
    X = np.random.default_rng(3).normal(size=(8, 2)) * 0.2
    data = WeightedSample.uniform(X, np.zeros(8))
    part = manual_partition([[0.0, 0.0]], [5.0])
    scheme = WeightScheme("normalized-indicator", part)
    config = _config()
    probes = default_probes(data, 32)
    est = finite_diff_if(AuditContext(data, scheme, config, probes=probes),
                         WeightedSample.dirac(X[0], 0.0))
    assert est.sup_norm_estimate <= 1e-8


def test_finite_diff_if_sup_below_rough_bound():
    data, part, scheme = _fixture(n_per=15, gap=4.0)
    config = _config()
    probes = default_probes(data, 128)
    bound = if_bound(scheme, config).if_bound_rough
    ctx = AuditContext(data, scheme, config, probes=probes)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.uniform(data.X.min(0), data.X.max(0))
        est = finite_diff_if(ctx, WeightedSample.dirac(x, float(rng.uniform(-8, 8))))
        assert est.sup_norm_estimate <= bound
        assert est.converged


def test_finite_diff_if_needs_two_rungs():
    data, part, scheme = _fixture()
    ctx = AuditContext(data, scheme, _config(), probes=data.X)
    with pytest.raises(InputError):
        finite_diff_if(ctx, WeightedSample.dirac(np.zeros(2), 1.0), (1e-2,))


def test_ladder_warning_when_not_contracting():
    data, part, scheme = _fixture(n_per=10)
    config = _config()
    # nearly equal rungs leave the residual noise-dominated: ratio ~ 1
    ctx = AuditContext(data, scheme, config, probes=data.X)
    with pytest.warns(LadderConvergenceWarning):
        est = finite_diff_if(ctx, WeightedSample.dirac(part.region(1).center, 4.0),
                             (1.0e-2, 0.99e-2, 0.98e-2))
    assert not est.converged


def test_decomposition_identity():
    data, part, scheme = _fixture(n_per=15, gap=3.0, tau=0.5)
    config = _config()
    probes = default_probes(data, 128)
    ctx = AuditContext(data, scheme, config, probes=probes)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(data.X.min(0), data.X.max(0))
        est = finite_diff_if(ctx, WeightedSample.dirac(x, float(rng.uniform(-6, 6))))
        assert decomposition_check(est) <= 1e-10


def test_decomposition_single_region_is_weighted_local():
    data, part, scheme = _fixture(gap=10.0, tau=0.0)
    config = _config()
    probes = default_probes(data, 64)
    est = finite_diff_if(AuditContext(data, scheme, config, probes=probes),
                         WeightedSample.dirac(part.region(1).center, 3.0))
    weights, _ = scheme.weights_many(probes)
    rows, w = weights[0]
    manual = np.zeros(len(probes))
    manual[rows] = w * est.per_region[1].values
    np.testing.assert_allclose(est.values, manual, atol=1e-12)


def test_decomposition_check_uses_the_context_weights(monkeypatch):
    data, part, scheme = _fixture(n_per=15, gap=1.5, tau=0.5)
    probes = default_probes(data, 64)
    overlap = (part.region(1).center + part.region(2).center) / 2.0
    est = finite_diff_if(AuditContext(data, scheme, _config(), probes=probes),
                         WeightedSample.dirac(overlap, 2.0))
    assert len(est.per_region) == 2

    def no_weights(*args, **kwargs):
        raise AssertionError("decomposition_check recomputed the weights")

    monkeypatch.setattr(WeightScheme, "weights_many", no_weights)
    assert decomposition_check(est) <= 1e-10


def test_tv_refined_examples():
    X = np.random.default_rng(6).normal(size=(10, 2)) * 0.3
    y = np.linspace(-1, 1, 10)
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.0, 0.0]], [10.0])
    scheme = WeightScheme("normalized-indicator", part)
    config = _config(lam=0.5)
    rough = if_bound(scheme, config).if_bound_rough

    # z not an atom: TV = 2, refined == rough
    refined = tv_refined_if_bound(data, scheme, config, [9.0, 0.0], 99.0)
    assert refined == rough == 4.0

    # z equal to one of n_b equally weighted atoms: TV = 2 (1 - 1/n_b)
    refined2 = tv_refined_if_bound(data, scheme, config, X[3], y[3])
    tv_oracle = sum(abs((1.0 if np.array_equal(X[i], X[3]) and y[i] == y[3]
                         else 0.0) - 1.0 / 10.0) for i in range(10))
    assert refined2 == pytest.approx(2.0 * tv_oracle / 0.5 / 2.0, rel=1e-12)
    assert refined2 == pytest.approx(4.0 * (1.0 - 0.1), rel=1e-12)

    # single-atom region contaminated by its own atom: TV = 0
    solo = WeightedSample.uniform(X[:1], y[:1])
    part1 = manual_partition([[0.0, 0.0]], [10.0])
    scheme1 = WeightScheme("normalized-indicator", part1)
    assert tv_refined_if_bound(solo, scheme1, config, X[0], y[0]) == 0.0


def test_tv_refined_never_exceeds_rough():
    data, part, scheme = _fixture(n_per=12, gap=3.0, tau=0.4)
    config = _config(lam=0.3)
    rough = if_bound(scheme, config).if_bound_rough
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-2, 6, size=2)
        refined = tv_refined_if_bound(data, scheme, config, x,
                                      float(rng.uniform(-5, 5)))
        assert refined <= rough + 1e-12


def test_tv_refined_matches_rough_at_tv_two_polynomial():
    # every point lies in both balls, so no region has an exclusive point:
    # the bump weights stay below 1 on the data, and the data fill only
    # [-1, 1]^2 of the radius-4 balls; the certificate's factors are the
    # balls' all the same, w_sup = 1 and ||k_b|| = (||c_b|| + 4)^2 + 1
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(20, 2))
    data = WeightedSample.uniform(X, np.sin(X.sum(axis=1)))
    part = manual_partition([[-0.3, 0.0], [0.4, 0.2]], [4.0, 4.0])
    scheme = WeightScheme("smooth-bump", part, h=1.0)
    config = ModelConfig(loss=REG,
                         kernel=Polynomial(degree=2, offset=1.0, input_dim=2),
                         train=TrainConfig(lam=0.3), region_lambdas={2: 0.7})
    weights, _ = scheme.weights_many(default_probes(data, 64))
    assert all(w.max() < 1.0 for _, w in weights)
    rough = if_bound(scheme, config)
    expected = 0.0
    for t, region, lam in zip(rough.per_region_terms, part.regions, (0.3, 0.7)):
        k_sup = (np.linalg.norm(region.center) + 4.0) ** 2 + 1.0
        assert t["w_sup"] == 1.0
        assert t["k_sup"] == pytest.approx(k_sup, rel=1e-12)
        expected += 2.0 * REG.lipschitz * k_sup**2 / lam
    assert rough.if_bound_rough == pytest.approx(expected, rel=1e-12)

    # z in both balls and not an atom: TV_b = 2 in every region
    refined = tv_refined_if_bound(data, scheme, config, [0.1, 0.1], 99.0)
    assert refined == rough.if_bound_rough
    for i in range(5):
        refined_atom = tv_refined_if_bound(data, scheme, config, X[i], data.y[i])
        assert refined_atom <= rough.if_bound_rough
        assert refined_atom == pytest.approx(rough.if_bound_rough * (1 - 1 / 20),
                                             rel=1e-12)


def test_maxbias_zero_eps_is_exactly_zero():
    data, part, scheme = _fixture(n_per=10)
    config = _config()
    specs = adversarial_q_specs(data, classification=False)
    report = maxbias_probe(AuditContext(data, scheme, config, probes=data.X),
                           0.0, specs)
    assert report.maxbias_bound == 0.0
    assert report.empirical["maxbias_sup"] == 0.0
    assert report.satisfied["maxbias"]


def test_maxbias_bound_arithmetic():
    X = np.random.default_rng(8).normal(size=(10, 2))
    y = np.random.default_rng(9).uniform(-1, 1, 10)
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.0, 0.0]], [50.0])
    scheme = WeightScheme("normalized-indicator", part)
    config = _config(lam=0.5)
    report = maxbias_probe(AuditContext(data, scheme, config, probes=data.X),
                           0.1, [WeightedSample.dirac([1.0, 1.0], 5.0)])
    assert report.maxbias_bound == pytest.approx(0.4, rel=1e-15)
    assert report.empirical["maxbias_sup"] <= 0.4


def test_maxbias_empirical_below_bound_adversarial_family():
    data, part, scheme = _fixture(n_per=12, gap=4.0)
    config = _config(lam=0.4)
    specs = adversarial_q_specs(data, classification=False)
    probes = default_probes(data, 64)
    report = maxbias_probe(AuditContext(data, scheme, config, probes=probes),
                           0.15, specs)
    assert report.empirical["maxbias_sup"] > 0.0
    assert report.empirical["maxbias_sup"] <= report.maxbias_bound
    assert report.satisfied["maxbias"]


def test_maxbias_eps_validation():
    data, part, scheme = _fixture(n_per=10)
    config = _config()
    ctx = AuditContext(data, scheme, config, probes=data.X)
    with pytest.raises(InputError):
        maxbias_probe(ctx, 0.5, [])
    with pytest.raises(InputError):
        maxbias_probe(ctx, [0.1], [])


def test_adversarial_q_family_structure():
    # the 2^2 corners in bit order, then the center, each with the low and
    # then the high extreme label; the label-flip mixture last
    data = two_blobs(n_per=10, seed=11)
    lo, hi = data.bounding_box()
    points = [lo, [hi[0], lo[1]], [lo[0], hi[1]], hi, (lo + hi) / 2.0]
    y_lo, y_hi = data.y.min(), data.y.max()
    spread = y_hi - y_lo
    for classification, labels, flipped in (
            (False, (y_lo - 3 * spread, y_hi + 3 * spread), y_lo + y_hi - data.y),
            (True, (-1.0, 1.0), -data.y)):
        qs = adversarial_q_specs(data, classification=classification)
        assert len(qs) == 11 and all(isinstance(q, WeightedSample) for q in qs)
        for q, (x, y) in zip(qs, [(x, y) for x in points for y in labels]):
            np.testing.assert_array_equal(q.X, [x])
            assert q.y.tolist() == [y] and q.weights.tolist() == [1.0]
        np.testing.assert_array_equal(qs[-1].X, data.X)
        np.testing.assert_array_equal(qs[-1].y, flipped)
        np.testing.assert_array_equal(qs[-1].weights,
                                      np.full(data.n, 1.0 / data.n))


def test_finite_diff_if_mixture_spec():
    data, part, scheme = _fixture(n_per=12, gap=4.0)
    config = _config()
    probes = default_probes(data, 64)
    flipped = WeightedSample(data.X, -data.y, np.full(data.n, 1.0 / data.n))
    est = finite_diff_if(AuditContext(data, scheme, config, probes=probes),
                         flipped)
    assert set(est.per_region) == {1, 2}
    assert est.sup_norm_estimate > 0.0
    assert decomposition_check(est) <= 1e-10
    bound = if_bound(scheme, config).if_bound_rough
    assert est.sup_norm_estimate <= bound


def test_run_audit_with_mixture_spec():
    data, part, scheme = _fixture(n_per=10, gap=4.0)
    config = _config()
    probes = default_probes(data, 32)
    flipped = WeightedSample(data.X, -data.y, np.full(data.n, 1.0 / data.n))
    report = run_audit(data, scheme, config, [flipped], maxbias_eps=None,
                       probes=probes, eps_ladder=(1e-2, 5e-3))
    assert report.satisfied == {"if": True}
    assert report.maxbias_bound is None
    assert report.if_bound_tv is None  # TV refinement applies to Dirac z only
    assert report.per_z[0]["kind"] == "mixture"


def test_run_audit_report_schema_and_flags():
    data, part, scheme = _fixture(n_per=12, gap=4.0)
    config = _config()
    probes = default_probes(data, 64)
    qs = [WeightedSample.dirac(part.region(1).center, 4.0),
          WeightedSample.dirac(part.region(2).center, -4.0)]
    report = run_audit(data, scheme, config, qs, maxbias_eps=0.1,
                       probes=probes)
    d = report.to_dict()
    assert set(d) >= {"if_bound_rough", "if_bound_tv", "maxbias_bound",
                      "per_region_terms", "empirical", "satisfied"}
    assert set(d["empirical"]) >= {"if_sup", "maxbias_sup",
                                   "decomposition_residual", "ladder"}
    assert d["satisfied"] == {"if": True, "maxbias": True}
    assert report.all_satisfied
    assert d["if_bound_tv"] <= d["if_bound_rough"] + 1e-12
    assert len(d["per_z"]) == 2
    ladder = d["empirical"]["ladder"]
    assert [r["eps"] for r in ladder] == [1e-2, 5e-3, 2.5e-3, 1.25e-3]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 40, 64])
def test_default_probes_equal_scipy_sobol_fill(d):
    import warnings

    from scipy.stats import qmc

    X = np.random.default_rng(60 + d).uniform(-3.0, 2.0, size=(9, d))
    data = WeightedSample.uniform(X, np.zeros(9))
    lo, hi = data.bounding_box()
    for n in (1, 7, 512, 1000, 4096):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non power-of-two n
            unit = qmc.Sobol(d=d, scramble=False).random(n)
        probes = default_probes(data, n)
        assert probes.dtype == np.float64
        np.testing.assert_array_equal(probes[:9], X)
        # bitwise: the fill the scipy sampler gave before
        assert np.array_equal(probes[9:], lo + unit * (hi - lo)), (d, n)


def test_default_probes_without_and_with_one_extra_point():
    data = two_blobs(n_per=5, seed=61)
    probes = default_probes(data, 0)
    np.testing.assert_array_equal(probes, data.X)
    assert probes is not data.X
    probes = default_probes(data, 1)
    # the first Sobol point is the origin, the box's lower corner
    np.testing.assert_array_equal(probes, np.vstack([data.X,
                                                     data.bounding_box()[0]]))


def test_sobol_directions_equal_the_first_rows_of_scipys_table():
    # the embedded Joe & Kuo (2008) rows, against the table file scipy ships
    from pathlib import Path

    import scipy

    path = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    directions = robustness._SOBOL_DIRECTIONS
    assert len(directions) == 64
    np.testing.assert_array_equal([p for p, _ in directions], poly[:64])
    padded = np.zeros((64, vinit.shape[1]), dtype=vinit.dtype)
    for d, (_, init) in enumerate(directions):
        padded[d, :len(init)] = init
    np.testing.assert_array_equal(padded, vinit[:64])


def test_default_probes_reject_dimension_or_count_beyond_the_table():
    data = WeightedSample.uniform(np.zeros((2, 65)), np.zeros(2))
    with pytest.raises(InputError, match="at most 64 dimensions"):
        default_probes(data, 4)
    # 30-bit direction numbers give 2^30 distinct points; refused unbuilt
    with pytest.raises(InputError, match="at most 2\\^30 Sobol probes"):
        default_probes(two_blobs(n_per=5, seed=63), 2 ** 30 + 1)

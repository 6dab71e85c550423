"""The shared AuditContext against the rebuild-everything audit it replaced.

``_rebuild_finite_diff_if`` and ``_rebuild_maxbias_shifts`` are test-local
copies of the audit before the context existed: every retrain rebuilds its
Gram from the contaminated sample, every quotient evaluates full composed
predictors, and every H-norm builds the Gram of the stacked base and
contaminated anchors. Both start their retrains as the audit does: a
maxbias retrain and the top ladder rung from pad(alpha), each lower rung
from the secant through the rung above (``_secant_start``).
"""

import concurrent.futures

import numpy as np
import pytest

from localsvm import (ComposedModel, GaussianRBF, InputError,
                      Linear, LogisticClassification, LogisticRegression,
                      ModelConfig, Polynomial, RegionPredicate,
                      TrainConfig, WeightedSample, WeightScheme,
                      adversarial_q_specs, contaminate_region, default_probes,
                      finite_diff_if, fit_composed, maxbias_probe, regionalize,
                      restrict, run_audit, train)
from localsvm import regions, robustness
from localsvm.robustness import DEFAULT_EPS_LADDER, AuditContext
from localsvm.solver import grad_scale
from conftest import manual_partition, two_blobs

REG = LogisticRegression()
RBF = GaussianRBF(gamma=1.0, input_dim=2)
KERNELS = [RBF, Linear(input_dim=2), Polynomial(degree=2, offset=1.0, input_dim=2)]
KERNEL_IDS = ["rbf", "linear", "polynomial"]


def _config(kernel=RBF, lam=0.5, region_lambdas=None):
    return ModelConfig(loss=REG, kernel=kernel, train=TrainConfig(lam=lam),
                       region_lambdas=region_lambdas or {})


def _fixture(n_per=15, gap=1.5, tau=0.5, seed=0):
    data = two_blobs(n_per=n_per, gap=gap, seed=seed)
    part = regionalize(data.X, b_target=2, tau=tau, min_region_size=5, seed=1)
    return data, part, WeightScheme("normalized-indicator", part)


def _qs(data, part, labels=(4.0, -4.0, 5.0)):
    """A Dirac point in each ball, one in their overlap, and a flip mixture."""
    c1, c2 = part.region(1).center, part.region(2).center
    flipped = WeightedSample(data.X, -data.y, np.full(data.n, 1.0 / data.n))
    zs = (c1, c2, (c1 + c2) / 2.0)
    return [WeightedSample.dirac(x, y) for x, y in zip(zs, labels)] + [flipped]


def _conditioned(part, measure, b):
    """The measure conditioned on region b, at the rows ``members`` lists."""
    return restrict(measure, part.members(measure.X)[b - 1])


def _secant_start(pad, above, eps):
    """pad(alpha) + (eps / eps_above) (alpha_above - pad(alpha)), the start of
    the rung below the rung ``above`` = (eps_above, alpha_above)."""
    eps_above, alpha_above = above
    return pad + (eps / eps_above) * (alpha_above - pad)


def _rebuild_retrain(data, part, config, base, q, b, eps, above=None):
    """Retrain from pad(alpha), or from the secant start below ``above``."""
    contaminated = contaminate_region(_conditioned(part, data, b), q,
                                      part.region(b), eps)
    extra = contaminated.n - base.locals[b].n_anchors
    pad = np.concatenate([base.locals[b].alpha, np.zeros(extra)])
    return train(contaminated, config.kernel_for(b), config.loss,
                 config.train_for(b),
                 warm_start=pad if above is None else _secant_start(pad, above, eps),
                 region_id=b)


def _rebuild_h_norm(tilde, base, eps):
    anchors = np.vstack([base.anchors, tilde.anchors])
    coef = np.concatenate([-base.alpha, tilde.alpha]) / eps
    G = tilde.kernel.gram(anchors)
    return float(np.sqrt(max(0.0, float(coef @ (G @ coef)))))


def _touches(q, sample, region):
    return contaminate_region(sample, q, region, 0.01) is not sample


def _touched(data, part, q):
    return [b for b in range(1, part.B + 1)
            if _conditioned(part, data, b) is not None
            and _touches(q, _conditioned(part, data, b), part.region(b))]


def _rebuild_finite_diff_if(data, part, scheme, config, q, probes, base):
    """Per rung: (eps, sup, {b: h_norm}, {b: alpha})."""
    base_preds = base.predict(probes)
    rungs = []
    for eps in DEFAULT_EPS_LADDER:
        locals_b = dict(base.locals)
        h_norms, alphas = {}, {}
        for b in _touched(data, part, q):
            above = (rungs[-1][0], rungs[-1][3][b]) if rungs else None
            tilde = _rebuild_retrain(data, part, config, base, q, b, eps, above)
            locals_b[b] = tilde
            alphas[b] = tilde.alpha
            h_norms[b] = _rebuild_h_norm(tilde, base.locals[b], eps)
        tilde_composed = ComposedModel(locals_b, scheme)
        values = (tilde_composed.predict(probes) - base_preds) / eps
        rungs.append((eps, float(np.max(np.abs(values))), h_norms, alphas))
    return rungs


def _rebuild_maxbias_shifts(data, part, scheme, config, eps, qs, probes, base):
    base_preds = base.predict(probes)
    shifts = []
    for q in qs:
        locals_b = dict(base.locals)
        for b in _touched(data, part, q):
            if eps[b - 1] != 0.0:
                locals_b[b] = _rebuild_retrain(data, part, config, base, q, b,
                                               eps[b - 1])
        tilde = ComposedModel(locals_b, scheme)
        shifts.append(float(np.abs(tilde.predict(probes) - base_preds).max()))
    return shifts


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_bordered_gram_and_probe_block_match_rebuilt(kernel):
    data, part, scheme = _fixture()
    config = _config(kernel=kernel)
    ctx = AuditContext(data, scheme, config, probes=default_probes(data, 64))
    checked = 0
    for q in _qs(data, part):
        for b, blocks in ctx.regions.items():
            atoms = _conditioned(part, q, b)
            if atoms is None:
                assert not _touches(q, blocks.sample, part.region(b))
                continue
            bordered = ctx.border(b, atoms)
            contaminated = bordered.contaminated(0.01)
            rebuilt = contaminate_region(blocks.sample, q, part.region(b), 0.01)
            np.testing.assert_array_equal(contaminated.X, rebuilt.X)
            np.testing.assert_array_equal(contaminated.weights, rebuilt.weights)
            gram = kernel.gram(rebuilt.X)
            block = kernel.matrix(blocks.points, rebuilt.X)
            # the region's cached probe block, not a copy
            assert bordered.probe_block is blocks.probe_block
            probe_block = np.hstack([bordered.probe_block, bordered.atom_block])
            if kernel is RBF:
                np.testing.assert_array_equal(bordered.gram, gram)
                np.testing.assert_array_equal(probe_block, block)
            else:
                for got, want in ((bordered.gram, gram), (probe_block, block)):
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12 * scale)
            alpha = np.random.default_rng(checked).standard_normal(rebuilt.n)
            want = block @ alpha
            np.testing.assert_allclose(bordered.predict(alpha), want, rtol=0,
                                       atol=1e-12 * np.abs(block).sum(axis=1).max())
            checked += 1
    assert checked == 6  # one region per ball center, two each for the rest


@pytest.mark.parametrize("kernel", [RBF, Linear(input_dim=2)], ids=["rbf", "linear"])
def test_bordering_the_label_flip_mixture_makes_no_kernel_call(kernel, monkeypatch):
    # the mixture's atoms are each region's own points, so the bordered Gram
    # and probe block are assembled from the context's cached blocks
    data, part, scheme = _fixture()
    ctx = AuditContext(data, scheme, _config(kernel=kernel),
                       probes=default_probes(data, 64))
    flip = _qs(data, part)[-1]

    def no_kernel(*args, **kwargs):
        raise AssertionError("bordering the label-flip mixture evaluated the kernel")

    for method in ("matrix", "gram"):
        monkeypatch.setattr(type(kernel), method, no_kernel)
    for b, blocks in ctx.regions.items():
        bordered = ctx.border(b, _conditioned(part, flip, b))
        n = blocks.sample.n
        np.testing.assert_array_equal(bordered.atoms.X, blocks.sample.X)
        for rows in (slice(None, n), slice(n, None)):
            for cols in (slice(None, n), slice(n, None)):
                np.testing.assert_array_equal(bordered.gram[rows, cols], blocks.gram)
        for block in (bordered.probe_block, bordered.atom_block):
            np.testing.assert_array_equal(block, blocks.probe_block)


@pytest.mark.parametrize("threads", [1, 2])
def test_finite_diff_if_matches_rebuild_reference(threads):
    # threads reaches only the base fit; the audit's retrains are serial
    data, part, scheme = _fixture()
    config = _config(region_lambdas={2: 0.25})
    probes = default_probes(data, 64)
    base = fit_composed(data, scheme, config, threads=threads)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    for q in _qs(data, part):
        est = finite_diff_if(ctx, q)
        ref = _rebuild_finite_diff_if(data, part, scheme, config, q, probes, base)
        assert sorted(est.per_region) == _touched(data, part, q)
        assert len(est.ladder) == len(ref)
        for k, (rung, (eps, sup, h_norms, alphas)) in enumerate(zip(est.ladder, ref)):
            assert rung["eps"] == eps
            assert rung["sup"] == pytest.approx(sup, rel=1e-12, abs=0.0)
            for b, h in h_norms.items():
                assert rung["h_norms"][b] == pytest.approx(h, rel=1e-12, abs=0.0)
            for b, alpha in alphas.items():
                bordered = ctx.border(b, _conditioned(part, q, b))
                start = None if k == 0 else _secant_start(
                    bordered.warm_start, (ref[k - 1][0], ref[k - 1][3][b]), eps)
                retrained = ctx.retrain(bordered, eps, start)
                np.testing.assert_array_equal(retrained.alpha, alpha)
        assert est.sup_norm_estimate == pytest.approx(ref[-1][1], rel=1e-12, abs=0.0)
        for b, alpha in ref[-1][3].items():
            np.testing.assert_array_equal(est.per_region[b].tilde.alpha, alpha)

        # a context of its own, built from the same probes and base: same numbers
        alone = finite_diff_if(AuditContext(data, scheme, config,
                                            probes=probes, base=base), q)
        assert [r["sup"] for r in alone.ladder] == [r["sup"] for r in est.ladder]
        assert alone.h_norms == est.h_norms


def test_finite_diff_if_matches_rebuild_reference_polynomial():
    data, part, scheme = _fixture()
    config = _config(kernel=Polynomial(degree=2, offset=1.0, input_dim=2))
    probes = default_probes(data, 64)
    base = fit_composed(data, scheme, config)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    for q in _qs(data, part)[:2]:
        est = finite_diff_if(ctx, q)
        ref = _rebuild_finite_diff_if(data, part, scheme, config, q, probes, base)
        for rung, (_, sup, h_norms, _) in zip(est.ladder, ref):
            assert rung["sup"] == pytest.approx(sup, rel=1e-6)
            for b, h in h_norms.items():
                assert rung["h_norms"][b] == pytest.approx(h, rel=1e-6)


@pytest.mark.parametrize("threads", [1, 2])
def test_maxbias_probe_matches_rebuild_reference(threads):
    # threads reaches only the base fit; the audit's retrains are serial
    data, part, scheme = _fixture()
    config = _config(lam=0.4)
    probes = default_probes(data, 64)
    base = fit_composed(data, scheme, config, threads=threads)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    qs = adversarial_q_specs(data, classification=False)
    for eps in (np.array([0.1, 0.1]), np.array([0.0, 0.2])):
        report = maxbias_probe(ctx, eps, qs)
        ref = _rebuild_maxbias_shifts(data, part, scheme, config, eps, qs,
                                      probes, base)
        got = report.empirical["per_q_shifts"]
        assert len(got) == len(ref)
        for s, r in zip(got, ref):
            assert s == pytest.approx(r, rel=1e-12, abs=0.0)


def test_run_audit_builds_per_run_state_once(monkeypatch):
    data, part, scheme = _fixture()
    config = _config()
    base = fit_composed(data, scheme, config)
    calls = {"restrict": 0, "factors": 0}
    restrict_orig = regions.restrict
    factors_orig = robustness._region_factors
    contains_orig = RegionPredicate.contains_many
    tested = []  # (points, region id) per ball test

    def counting_restrict(measure, rows):
        # restrict also conditions each Q on a region; count the data's
        calls["restrict"] += measure is data
        return restrict_orig(measure, rows)

    def counting_factors(*args, **kwargs):
        calls["factors"] += 1
        return factors_orig(*args, **kwargs)

    def counting_contains(region, X):
        tested.append((X, region.id))
        return contains_orig(region, X)

    monkeypatch.setattr(regions, "restrict", counting_restrict)
    monkeypatch.setattr(robustness, "_region_factors", counting_factors)
    monkeypatch.setattr(RegionPredicate, "contains_many", counting_contains)
    qs = _qs(data, part)
    probes = default_probes(data, 32)
    report = run_audit(data, scheme, config, qs, maxbias_eps=0.1,
                       probes=probes, base=base)
    assert report.all_satisfied
    assert calls == {"restrict": part.B, "factors": 1}

    # each measure's atoms are ball-tested once per region, in one pass: the
    # probes and the data by the context, then every Q of the estimates and
    # of the maxbias family
    B = part.B
    passes = [tested[i:i + B] for i in range(0, len(tested), B)]
    for one_pass in passes:
        assert [b for _, b in one_pass] == list(range(1, B + 1))
        assert all(X is one_pass[0][0] for X, _ in one_pass)
    family = adversarial_q_specs(data, classification=False)
    tested_points = [one_pass[0][0] for one_pass in passes]
    assert len(tested_points) == 2 + len(qs) + len(family)
    for X, want in zip(tested_points, [probes, data.X, *(q.X for q in qs)]):
        assert X is want
    for X, q in zip(tested_points[2 + len(qs):], family):
        np.testing.assert_array_equal(X, q.X)


def test_run_audit_hands_its_one_context_to_every_step(monkeypatch):
    # the benchmark marks audit operations at the module's public
    # finite_diff_if and maxbias_probe, so run_audit must call those names
    data, part, scheme = _fixture()
    config = _config()
    base = fit_composed(data, scheme, config)
    built, seen = [], []
    init = AuditContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorder(name):
        step = getattr(robustness, name)

        def record(context, *args, **kwargs):
            seen.append((name, context))
            return step(context, *args, **kwargs)
        return record

    monkeypatch.setattr(AuditContext, "__init__", counting_init)
    for name in ("finite_diff_if", "maxbias_probe"):
        monkeypatch.setattr(robustness, name, recorder(name))
    qs = _qs(data, part)
    run_audit(data, scheme, config, qs, maxbias_eps=0.1,
              probes=default_probes(data, 32), base=base, threads=2)
    assert len(built) == 1
    assert [name for name, _ in seen] == (["finite_diff_if"] * len(qs)
                                          + ["maxbias_probe"])
    assert all(context is built[0] for _, context in seen)


def test_run_audit_retrains_without_a_thread_pool(monkeypatch):
    # threads reaches only the base fit: with the base given, no pool starts
    data, part, scheme = _fixture()
    config = _config()
    base = fit_composed(data, scheme, config)

    def no_pool(*args, **kwargs):
        raise AssertionError("the audit started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    qs = _qs(data, part)
    assert sum(len(_touched(data, part, q)) > 1 for q in qs) >= 1
    report = run_audit(data, scheme, config, qs, maxbias_eps=0.1,
                       probes=default_probes(data, 32), base=base, threads=2)
    assert report.all_satisfied
    assert not hasattr(AuditContext(data, scheme, config, base=base), "threads")


@pytest.mark.parametrize("kind,h", [("normalized-indicator", None),
                                    ("smooth-bump", 0.5)])
def test_context_base_predictions_agree_with_the_model_to_rounding(kind, h):
    # the context predicts with one product on its probe block, the model
    # in Kernel.apply's row chunks: the same entries, summed in another order
    data, part, _ = _fixture()
    scheme = WeightScheme(kind, part, h=h)
    base = fit_composed(data, scheme, _config())
    far = data.X.max(axis=0) + np.array([[5.0, 0.0], [0.0, 7.0], [9.0, 9.0]])
    probes = np.vstack([default_probes(data, 64), far, data.X.min(axis=0) - 6.0])
    ctx = AuditContext(data, scheme, _config(), probes=probes, base=base)
    preds, covered = base.predict_with_coverage(probes)
    assert not covered[-4:].any()  # nearest-region fallback
    np.testing.assert_array_equal(ctx.covered, covered)
    scale = np.max(np.abs(preds))
    assert np.max(np.abs(ctx.base_preds - preds)) <= 1e-12 * scale


def test_context_rejects_model_trained_on_other_data():
    data, part, scheme = _fixture()
    config = _config()
    base = fit_composed(data, scheme, config)
    moved = data.X.copy()
    moved[0] += 1e-9
    other = WeightedSample.uniform(moved, data.y)
    with pytest.raises(InputError, match="anchors differ"):
        AuditContext(other, scheme, config, probes=data.X, base=base)


def test_context_rejects_a_null_region_mismatch():
    X = np.random.default_rng(0).normal(size=(12, 2)) * 0.2
    data = WeightedSample.uniform(X, np.zeros(12))
    part = manual_partition([[0.0, 0.0], [9.0, 9.0]], [5.0, 1.0])
    scheme = WeightScheme("normalized-indicator", part)
    config = _config()
    base = fit_composed(data, scheme, config)
    assert base.null_region_ids == {2}
    probes = np.vstack([X, [[9.0, 9.0]]])
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    assert ctx.regions[2].sample is None
    z = WeightedSample.dirac([9.0, 9.0], 1.0)
    assert ctx.border(2, _conditioned(part, z, 2)) is None
    shifted = WeightedSample.uniform(np.vstack([X, [[9.0, 9.0]]]), np.zeros(13))
    with pytest.raises(InputError, match="anchors differ"):
        AuditContext(shifted, scheme, config, probes=probes, base=base)


@pytest.mark.parametrize("loss", [REG, LogisticClassification()],
                         ids=["regression", "classification"])
@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_chained_ladder_matches_the_cold_ladder_within_the_audit_slack(
        kernel, loss, monkeypatch):
    data, part, scheme = _fixture()
    labels = (4.0, -4.0, 5.0)
    if loss.is_classification:
        data = WeightedSample.uniform(data.X, np.where(data.y >= 0.0, 1.0, -1.0))
        labels = (1.0, -1.0, 1.0)
    config = ModelConfig(loss=loss, kernel=kernel, train=TrainConfig(lam=0.5))
    probes = default_probes(data, 64)
    base = fit_composed(data, scheme, config)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    qs = _qs(data, part, labels)
    chained = [finite_diff_if(ctx, q) for q in qs]
    report = run_audit(data, scheme, config, qs, probes=probes, base=base)
    # the ladder it replaced: every rung starts from pad(alpha)
    retrain = AuditContext.retrain
    monkeypatch.setattr(AuditContext, "retrain",
                        lambda self, bordered, eps, start=None:
                        retrain(self, bordered, eps))
    cold = [finite_diff_if(ctx, q) for q in qs]
    cold_report = run_audit(data, scheme, config, qs, probes=probes, base=base)

    for est, ref in zip(chained, cold):
        # the audit's own slack: both retrains stop within grad_tol of the
        # optimum, and the quotient divides their difference by eps
        tol = config.train.grad_tol * max(grad_scale(local.gram)
                                          for local in est.per_region.values())
        for rung, ref_rung in zip(est.ladder, ref.ladder, strict=True):
            slack = 10.0 * tol / rung["eps"]
            assert abs(rung["sup"] - ref_rung["sup"]) <= slack
            assert rung["h_norms"].keys() == ref_rung["h_norms"].keys()
            for b, h in ref_rung["h_norms"].items():
                assert abs(rung["h_norms"][b] - h) <= slack
    assert ([e["satisfied"] for e in report.per_z]
            == [e["satisfied"] for e in cold_report.per_z])
    assert report.satisfied == cold_report.satisfied


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_chained_bottom_rung_takes_fewer_newton_steps_than_a_cold_start(kernel):
    data, part, scheme = _fixture()
    ctx = AuditContext(data, scheme, _config(kernel=kernel),
                       probes=default_probes(data, 64))
    checked = 0
    for q in _qs(data, part):
        est = finite_diff_if(ctx, q)
        for b, local in est.per_region.items():
            cold = ctx.retrain(ctx.border(b, _conditioned(part, q, b)),
                               est.eps_used)
            assert (local.tilde.solve_info.newton_iters
                    < cold.solve_info.newton_iters), (q.n, b)
            checked += 1
    assert checked == 6  # every touched region of every Q

"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The heavy 2-d sine audit fixture (n=500, B=4,
tau=0.25, lambda=0.5, gamma=1) is shared across criteria 2, 3, 4, 5 and 7.
"""

import math
import time

import numpy as np
import pytest

from localsvm import (AuditContext, GaussianRBF,
                      LambdaSchedule, LogisticClassification,
                      LogisticRegression, ModelConfig, PartitionConfig,
                      SyntheticTask, TrainConfig,
                      WeightedSample, WeightScheme, adversarial_q_specs,
                      audit_model_bounds, consistency_trend,
                      decomposition_check, default_probes, finite_diff_if,
                      fit_composed, generate, if_bound, maxbias_probe,
                      objective, regionalize, restrict,
                      shifted_unshifted_identity_check, tradeoff_sweep, train,
                      weight_sup_norm)
import reference
from conftest import member_matrix, weight_matrix

REG = LogisticRegression()
CLS = LogisticClassification()

FIXTURE_TASK = SyntheticTask("sine-regression", dim=2, noise=0.25, seed=20)
FIXTURE_PC = PartitionConfig(b_target=4, tau=0.25, min_region_size=5, seed=11)
FIXTURE_LAM = 0.5


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _blob_partition(n_regions, seed=0):
    """Well-separated blobs so every region keeps exclusive points."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0], [12.0, 12.0]])
    X = np.vstack([rng.normal(c, 0.5, size=(30, 2))
                   for c in centers[:n_regions]])
    y = np.sin(X.sum(axis=1))
    part = regionalize(X, n_regions, tau=0.25, min_region_size=5, seed=seed)
    return X, y, part


@pytest.fixture(scope="module")
def sine_fixture():
    data = generate(FIXTURE_TASK, 500)
    part = regionalize(data.X, FIXTURE_PC.b_target, FIXTURE_PC.tau,
                       FIXTURE_PC.min_region_size, FIXTURE_PC.seed)
    scheme = WeightScheme("normalized-indicator", part)
    config = ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=FIXTURE_LAM))
    probes = default_probes(data, 512)
    base = fit_composed(data, scheme, config)
    bound = if_bound(scheme, config)
    return data, part, scheme, config, probes, base, bound


@pytest.fixture(scope="module")
def audited_zs(sine_fixture):
    """25 grid contamination points with alternating extreme labels."""
    data, part, scheme, config, probes, base, _ = sine_fixture
    lo, hi = data.bounding_box()
    grid = np.linspace(0.0, 1.0, 5)
    mesh = np.stack(np.meshgrid(lo[0] + grid * (hi[0] - lo[0]),
                                lo[1] + grid * (hi[1] - lo[1]),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    y_lo, y_hi = float(data.y.min()), float(data.y.max())
    spread = y_hi - y_lo
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    results = []
    for i, z_x in enumerate(mesh):
        z_y = (y_hi + 3.0 * spread) if i % 2 == 0 else (y_lo - 3.0 * spread)
        est = finite_diff_if(ctx, WeightedSample.dirac(z_x, z_y))
        resid = decomposition_check(est)
        results.append(((z_x, z_y), est, resid))
    return results


def test_criterion_1_gaussian_logistic_bound_closed_form():
    t0 = time.time()
    lam_values = [0.1, 0.5, 2.0]
    checked = 0
    for n_regions in (1, 2, 4):
        X, _, part = _blob_partition(n_regions, seed=n_regions)
        assert part.B == n_regions
        scheme = WeightScheme("normalized-indicator", part)
        assert all(weight_sup_norm(scheme, b) == 1.0
                   for b in range(1, n_regions + 1))
        for offset in range(len(lam_values)):
            lams = {b: lam_values[(b - 1 + offset) % len(lam_values)]
                    for b in range(1, n_regions + 1)}
            config = ModelConfig(loss=REG,
                                 kernel=GaussianRBF(gamma=1.0, input_dim=2),
                                 train=TrainConfig(lam=1.0),
                                 region_lambdas=lams)
            got = if_bound(scheme, config).if_bound_rough
            expected = 0.0
            for b in range(1, n_regions + 1):
                expected += 2.0 / lams[b]
            assert math.isclose(got, expected, rel_tol=1e-15, abs_tol=0.0), \
                f"B={n_regions} lams={lams}: {got} != {expected}"
            checked += 1
    elapsed = time.time() - t0
    _report(1, elapsed < 1.0,
            f"if_bound_rough == 2*sum(1/lambda_b) in {checked} configs "
            f"(B in 1/2/4, lambda in 0.1/0.5/2), {elapsed:.2f}s")


def test_criterion_2_if_sup_bound_audit(sine_fixture, audited_zs):
    data, part, scheme, config, probes, base, bound = sine_fixture
    lip = REG.lipschitz
    sup_ok = True
    h_ok = True
    worst_sup = 0.0
    for (z_x, z_y), est, _ in audited_zs:
        assert est.eps_used == 1.25e-3
        worst_sup = max(worst_sup, est.sup_norm_estimate)
        if est.sup_norm_estimate > bound.if_bound_rough:
            sup_ok = False
        for b, h in est.h_norms.items():
            sample_b = restrict(data, part.members(data.X)[b - 1])
            if sample_b is not None and part.region(b).contains_many([z_x])[0]:
                tv_b = 2.0 * (1.0 - sample_b.atom_mass(z_x, z_y))
            else:
                tv_b = 0.0
            if h > tv_b * lip / config.lam_for(b) + 1e-3:
                h_ok = False
    _report(2, sup_ok and h_ok,
            f"25 z audited at eps=1.25e-3: max IF sup {worst_sup:.4f} <= "
            f"bound {bound.if_bound_rough} and per-region H-norms within "
            f"lambda^-1 |L|_1 TV_b + 1e-3")


def test_criterion_3_decomposition_identity(audited_zs):
    worst = max(resid for _, _, resid in audited_zs)
    _report(3, worst <= 1e-10,
            f"decomposition residual {worst:.3e} <= 1e-10 over "
            f"{len(audited_zs)} audited z")


def test_criterion_4_maxbias_bound(sine_fixture):
    t0 = time.time()
    data, part, scheme, config, probes, base, _ = sine_fixture
    specs = adversarial_q_specs(data, classification=False)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base)
    report = maxbias_probe(ctx, 0.1, specs)
    expected_bound = 0.0
    for t in report.per_region_terms:
        expected_bound += (2.0 * REG.lipschitz * t["w_sup"] * (0.1 / t["lambda"])
                           * t["k_sup"]**2)
    zero = maxbias_probe(ctx, 0.0, specs)
    ok = (report.empirical["maxbias_sup"] <= report.maxbias_bound
          and math.isclose(report.maxbias_bound, expected_bound,
                           rel_tol=1e-15, abs_tol=0.0)
          and zero.empirical["maxbias_sup"] == 0.0
          and zero.maxbias_bound == 0.0)
    _report(4, ok,
            f"empirical maxbias {report.empirical['maxbias_sup']:.4f} <= "
            f"bound {report.maxbias_bound:.4f} over {len(specs)} adversarial "
            f"Q; eps=0 case exactly 0 ({time.time() - t0:.1f}s)")


def test_criterion_5_differentiability_trace(audited_zs):
    contracting = sum(1 for _, est, _ in audited_zs
                      if all(r <= 0.9 for r in est.ratios))
    _report(5, contracting >= 20,
            f"ladder residual ratios <= 0.9 for {contracting}/25 audited z "
            f"(need >= 20)")


def test_criterion_6_shifted_unshifted_identity():
    t0 = time.time()
    kernel = GaussianRBF(gamma=1.0, input_dim=2)
    worst = 0.0
    models = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 51))
        X = rng.uniform(-3, 3, size=(n, 2))
        classification = seed % 2 == 0
        if classification:
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            loss = CLS
        else:
            y = rng.uniform(-2, 2, size=n)
            loss = REG
        sample = WeightedSample(X, y, np.full(n, 1.0 / n))
        lam = float(rng.uniform(0.05, 2.0))
        rep = shifted_unshifted_identity_check(sample, kernel, loss,
                                               TrainConfig(lam=lam))
        worst = max(worst, rep.alpha_diff_inf)
        models.append(rep.model_shifted)
    elapsed = time.time() - t0
    test_criterion_6_shifted_unshifted_identity.models = models
    _report(6, worst <= 1e-8 and elapsed < 30.0,
            f"max |alpha_L - alpha_L*|_inf = {worst:.3e} <= 1e-8 over 50 "
            f"instances ({elapsed:.1f}s)")


def test_criterion_7_norm_bounds_everywhere(sine_fixture):
    data, part, scheme, config, probes, base, _ = sine_fixture
    suite_models = [m for m in base.locals.values() if m.n_anchors > 0]
    suite_models.append(train(data, config.kernel, REG, config.train))
    extra = getattr(test_criterion_6_shifted_unshifted_identity, "models", [])
    suite_models.extend(extra)
    rng = np.random.default_rng(2)
    wide_probes = np.vstack([probes, rng.uniform(-4, 4, size=(2000, 2))])
    checked = 0
    ok = True
    for model in suite_models:
        res = audit_model_bounds(model, wide_probes)
        ok = ok and res.sup_bound_ok and res.h_norm_ok
        checked += 1
    _report(7, ok and checked >= 50,
            f"|f|_inf <= |f|_H ||k||_inf + 1e-12 and |f|_H <= "
            f"lambda^-1 |L|_1 ||k||_inf + 1e-9 for {checked} trained models")


def test_criterion_8_solver_oracle():
    t0 = time.time()
    kernel = GaussianRBF(gamma=1.0, input_dim=2)
    worst_gap = 0.0
    worst_grad = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 7))
        X = rng.uniform(-2, 2, size=(n, 2))
        classification = seed % 2 == 0
        if classification:
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            loss = CLS
        else:
            y = rng.uniform(-2, 2, size=n)
            loss = REG
        w = rng.uniform(0.2, 1.0, size=n)
        sample = WeightedSample(X, y, w / w.sum())
        cfg = TrainConfig(lam=float(rng.uniform(0.05, 1.5)))
        model = train(sample, kernel, loss, cfg)

        G = kernel.gram(X)
        f = G @ model.alpha
        grad = G @ (sample.weights * loss.dt(y, f) + 2 * cfg.lam * model.alpha)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad))))

        best = reference.nelder_mead(
            lambda alpha: reference.objective(alpha, G, sample, loss, cfg.lam),
            (np.zeros(n), model.alpha + 0.05),
            xatol=1e-10, fatol=1e-13, maxiter=40000, maxfev=40000)
        ours = objective(model.alpha, sample, kernel, loss, cfg)
        worst_gap = max(worst_gap, abs(ours - best))
    elapsed = time.time() - t0
    _report(8, worst_gap <= 1e-6 and worst_grad <= 1e-10 and elapsed < 60.0,
            f"objective within {worst_gap:.2e} of derivative-free minimum "
            f"(<= 1e-6) and gradient <= {worst_grad:.2e} over 100 instances "
            f"({elapsed:.1f}s)")


def test_criterion_9_consistency_trend():
    t0 = time.time()
    config = ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=FIXTURE_LAM))
    report = consistency_trend(FIXTURE_TASK, [100, 200, 400, 800, 1600],
                               LambdaSchedule(c=1.0, beta=0.25), FIXTURE_PC,
                               config, eval_n=100_000)
    first, last = report.rows[0], report.rows[-1]
    elapsed = time.time() - t0
    ok = (last["risk"] < first["risk"]
          and last["risk"] <= 1.25 * last["global_risk"]
          and elapsed < 180.0)
    _report(9, ok,
            f"risk(1600)={last['risk']:.5f} < risk(100)={first['risk']:.5f} and "
            f"<= 1.25 x global risk {last['global_risk']:.5f} ({elapsed:.0f}s)")


def test_criterion_10_tradeoff():
    t0 = time.time()
    config = ModelConfig(loss=REG, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=FIXTURE_LAM))
    grid = [2.0, 1.0, 0.5, 0.25, 0.125]
    report = tradeoff_sweep(FIXTURE_TASK, 500, grid, FIXTURE_PC, config,
                            eval_n=100_000)
    bounds = [r["if_bound_rough"] for r in report.rows]
    doubling = all(bounds[i + 1] == 2.0 * bounds[i]
                   for i in range(len(bounds) - 1))
    risks = [r["risk"] for r in report.rows]
    elapsed = time.time() - t0
    ok = doubling and risks[-1] <= risks[0] and elapsed < 120.0
    _report(10, ok,
            f"halving lambda doubles the bound exactly along {grid}; "
            f"risk({grid[-1]})={risks[-1]:.5f} <= risk({grid[0]})="
            f"{risks[0]:.5f} ({elapsed:.0f}s)")


def test_criterion_11_weight_axioms_and_cover(sine_fixture):
    t0 = time.time()
    data, part, scheme, config, probes, base, _ = sine_fixture
    partitions = [(part, data.X)]
    for n_regions in (1, 2, 4):
        X, _, blob_part = _blob_partition(n_regions, seed=n_regions)
        partitions.append((blob_part, X))
    rng = np.random.default_rng(4)
    ok = True
    n_checked = 0
    for partition, X in partitions:
        assert member_matrix(partition.members(X), len(X)).any(axis=1).all()
        lo, hi = X.min(axis=0), X.max(axis=0)
        probes_w = rng.uniform(lo, hi, size=(10_000, 2))
        members = partition.members(probes_w)
        M = member_matrix(members, len(probes_w))
        covered = M.any(axis=1)
        for kind, h in (("normalized-indicator", None), ("smooth-bump", 1.0)):
            sch = WeightScheme(kind, partition, h=h)
            weights, _ = sch.weights_many(probes_w)
            W = weight_matrix(weights, len(probes_w))
            if not np.allclose(W[covered].sum(axis=1), 1.0, atol=1e-12):
                ok = False
            # (W2): a region lists, of the covered probes, only its own
            if not all(np.isin(rows[covered[rows]], inside).all()
                       for (rows, _), inside in zip(weights, members)):
                ok = False
            n_checked += 1
    elapsed = time.time() - t0
    _report(11, ok and elapsed < 10.0,
            f"(W1)/(W2) at 1e-12 and cover hold at 10^4 probes for "
            f"{n_checked} scheme/partition combinations ({elapsed:.1f}s)")

from dataclasses import replace

import numpy as np
import pytest

from localsvm import (GaussianRBF, InputError, Kernel, LambdaSchedule, Linear,
                      LogisticClassification, LogisticRegression, ModelConfig,
                      PartitionConfig, SyntheticTask, TrainConfig,
                      consistency_trend, experiments, fit_composed, generate,
                      train, tradeoff_sweep)
from localsvm.composer import compose
from localsvm.experiments import EVAL_SEED_OFFSET


def test_generate_deterministic():
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=9)
    a = generate(task, 50)
    b = generate(task, 50)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_sine_noise_free_is_exact():
    task = SyntheticTask("sine-regression", dim=2, noise=0.0, seed=1)
    data = generate(task, 100)
    np.testing.assert_allclose(data.y, np.sin(data.X.sum(axis=1)), atol=1e-15)


def test_sine_oracle_predictions():
    task = SyntheticTask("sine-regression", dim=1, noise=0.2, seed=2)
    data, t_star = generate(task, 200, with_oracle=True)
    np.testing.assert_allclose(t_star, np.sin(data.X.sum(axis=1)), atol=1e-15)


def test_two_moons_balance_and_labels():
    task = SyntheticTask("two-moons", dim=2, noise=0.1, seed=3)
    data = generate(task, 1000)
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    # class balance within 5 sigma of 1/2 (binomial check)
    frac = (data.y == 1.0).mean()
    assert abs(frac - 0.5) <= 5.0 * 0.5 / np.sqrt(1000)


def test_two_moons_validation():
    with pytest.raises(InputError):
        SyntheticTask("two-moons", dim=3)
    with pytest.raises(InputError):
        SyntheticTask("two-moons", dim=2, noise=0.6)


def test_piecewise_levels():
    task = SyntheticTask("piecewise-regression", dim=1, noise=0.0, seed=4,
                         breakpoints=(0.3, 0.7))
    data = generate(task, 300)
    x1 = data.X[:, 0]
    expected = np.where((x1 >= 0.3) & (x1 < 0.7), -1.0, 1.0)
    np.testing.assert_array_equal(data.y, expected)


def test_unknown_task_rejected():
    with pytest.raises(InputError):
        SyntheticTask("spiral")
    with pytest.raises(InputError):
        generate(SyntheticTask("sine-regression"), 0)


def test_schedule_conditions():
    # beta = 1/4: lambda -> 0 and lambda^2 n = c^2 sqrt(n) -> infinity
    LambdaSchedule(c=1.0, beta=0.25)
    with pytest.raises(InputError):
        LambdaSchedule(c=1.0, beta=0.5)  # lambda^2 n = c^2, bounded
    with pytest.raises(InputError):
        LambdaSchedule(c=1.0, beta=0.0)  # lambda does not vanish
    with pytest.raises(InputError):
        LambdaSchedule(c=0.0, beta=0.25)
    sched = LambdaSchedule(c=2.0, beta=0.25)
    assert sched(16) == pytest.approx(2.0 * 16 ** -0.25, rel=1e-15)
    assert sched(1600) < sched(100)


def _small_config():
    return ModelConfig(loss=LogisticRegression(),
                       kernel=GaussianRBF(gamma=1.0, input_dim=2),
                       train=TrainConfig(lam=0.5))


def test_consistency_trend_small():
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=5)
    report = consistency_trend(task, [40, 80], LambdaSchedule(),
                               PartitionConfig(b_target=2, tau=0.25,
                                               min_region_size=5, seed=1),
                               _small_config(), eval_n=2000)
    assert [r["n"] for r in report.rows] == [40, 80]
    for row in report.rows:
        assert np.isfinite(row["risk"]) and np.isfinite(row["global_risk"])
        assert row["bayes_proxy"] > 0.0
        # MC risk cannot drop below the Bayes proxy by more than MC noise
        assert row["risk"] >= row["bayes_proxy"] - 6.0 * row["mc_stderr"]
        assert row["lambda"] == pytest.approx(LambdaSchedule()(row["n"]), rel=1e-15)
    assert report.rows[0]["bayes_proxy"] == report.rows[1]["bayes_proxy"]


def test_consistency_trend_ladder_validation():
    task = SyntheticTask("sine-regression", dim=2, seed=6)
    with pytest.raises(InputError):
        consistency_trend(task, [100, 100], LambdaSchedule(),
                          PartitionConfig(b_target=4), _small_config(), eval_n=100)


def test_tradeoff_sweep_bound_column():
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=7)
    report = tradeoff_sweep(task, 60, [2.0, 1.0, 0.5],
                            PartitionConfig(b_target=2, tau=0.25,
                                            min_region_size=5, seed=1),
                            _small_config(), eval_n=2000)
    bounds = [r["if_bound_rough"] for r in report.rows]
    # bound exactly inversely linear in lambda
    assert bounds[1] == 2.0 * bounds[0]
    assert bounds[2] == 2.0 * bounds[1]
    risks = [r["risk"] for r in report.rows]
    assert all(np.isfinite(r) for r in risks)


def test_tradeoff_sweep_validation():
    task = SyntheticTask("sine-regression", dim=2, seed=8)
    with pytest.raises(InputError):
        tradeoff_sweep(task, 60, [1.0, 0.0], PartitionConfig(b_target=4),
                       _small_config(), eval_n=100)


def test_classification_trend_runs():
    task = SyntheticTask("two-moons", dim=2, noise=0.1, seed=9)
    config = ModelConfig(loss=LogisticClassification(),
                         kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=0.5))
    report = consistency_trend(task, [40, 80], LambdaSchedule(),
                               PartitionConfig(b_target=2, tau=0.25,
                                               min_region_size=5, seed=2),
                               config, eval_n=1000)
    for row in report.rows:
        assert np.isfinite(row["risk"])
        assert row["bayes_proxy"] >= 0.0


def test_reports_write_csv(tmp_path):
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=10)
    report = tradeoff_sweep(task, 50, [1.0, 0.5],
                            PartitionConfig(b_target=2, min_region_size=5,
                                            seed=1),
                            _small_config(), eval_n=500)
    path = tmp_path / "sweep.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,risk,if_bound_rough,mc_stderr"
    assert len(lines) == 3


def _separately_scored_trend(task, n_ladder, schedule, pc, config, eval_n):
    # consistency_trend's rows with each model scored on its own:
    # ComposedModel.predict and LocalModel.predict, no shared kernel pass
    eval_data, t_star = generate(replace(task, seed=task.seed + EVAL_SEED_OFFSET),
                                 eval_n, with_oracle=True)
    loss = config.loss
    bayes = float(np.mean(loss.value(eval_data.y, t_star)))
    rows = []
    for n in n_ladder:
        data = generate(task, n)
        scheme = pc.build(data.X)
        members = scheme.partition.members(data.X)
        lam = schedule(n)
        cfg = replace(config, train=replace(config.train, lam=lam),
                      region_lambdas={b: schedule(max(rows.size, 1))
                                      for b, rows in enumerate(members, start=1)})
        vals = loss.value(eval_data.y, fit_composed(data, scheme, cfg).predict(eval_data.X))
        global_model = train(data, config.kernel, loss,
                             replace(config.train, lam=lam))
        global_vals = loss.value(eval_data.y, global_model.predict(eval_data.X))
        rows.append({"n": n, "lambda": lam, "risk": float(np.mean(vals)),
                     "bayes_proxy": bayes, "global_risk": float(np.mean(global_vals)),
                     "mc_stderr": float(np.std(vals) / np.sqrt(eval_n))})
    return rows, eval_data


SCORING_CASES = {
    "normalized-indicator": (PartitionConfig(b_target=3, tau=0.25, min_region_size=5,
                                             seed=1), {}),
    "smooth-bump": (PartitionConfig(b_target=3, tau=0.25, min_region_size=5, seed=1,
                                    scheme="smooth-bump", h=0.8), {}),
    "per-region-linear": (PartitionConfig(b_target=3, tau=0.25, min_region_size=5,
                                          seed=1), {2: Linear(input_dim=2)}),
    "uncovered": (PartitionConfig(b_target=4, tau=0.0, min_region_size=5, seed=3), {}),
}


@pytest.mark.parametrize("case", sorted(SCORING_CASES))
def test_trend_scores_match_separately_scored_models(case):
    pc, region_kernels = SCORING_CASES[case]
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=11)
    config = replace(_small_config(), region_kernels=region_kernels)
    ladder, schedule = [60, 120], LambdaSchedule()
    report = consistency_trend(task, ladder, schedule, pc, config, eval_n=3000)
    want, eval_data = _separately_scored_trend(task, ladder, schedule, pc, config, 3000)
    if case == "uncovered":  # the nearest-region fallback is exercised
        for n in ladder:
            partition = pc.build(generate(task, n).X).partition
            covered = np.zeros(eval_data.n, dtype=bool)
            for rows in partition.members(eval_data.X):
                covered[rows] = True
            assert not covered.all()
    assert list(report.rows[0]) == list(want[0])
    for got, ref in zip(report.rows, want, strict=True):
        for key in ("n", "lambda", "bayes_proxy"):
            assert got[key] == ref[key], key
        for key in ("risk", "global_risk", "mc_stderr"):
            assert abs(got[key] - ref[key]) <= 1e-12 * abs(ref[key]), key


def _rung_scored_trend(task, n_ladder, schedule, pc, config, eval_n):
    # consistency_trend's rows scored one rung at a time, as before the
    # rungs shared a pass: each rung's models are columns of one
    # coefficient matrix over its own sample, multiplied by one
    # Kernel.apply per distinct kernel
    eval_data, t_star = generate(replace(task, seed=task.seed + EVAL_SEED_OFFSET),
                                 eval_n, with_oracle=True)
    loss = config.loss
    bayes = float(np.mean(loss.value(eval_data.y, t_star)))
    rows = []
    for n in n_ladder:
        data = generate(task, n)
        scheme = pc.build(data.X)
        members = scheme.partition.members(data.X)
        lam = schedule(n)
        cfg = replace(config, train=replace(config.train, lam=lam),
                      region_lambdas={b: schedule(max(rows.size, 1))
                                      for b, rows in enumerate(members, start=1)})
        models = [train(data, config.kernel, loss, replace(config.train, lam=lam)),
                  *fit_composed(data, scheme, cfg).locals.values()]
        C = np.zeros((n, len(models)))
        C[:, 0] = models[0].alpha
        for b in range(1, len(models)):
            C[members[b - 1], b] = models[b].alpha
        P = np.empty((eval_n, len(models)))
        for kernel in dict.fromkeys(m.kernel for m in models):
            cols = [j for j, m in enumerate(models) if m.kernel == kernel]
            P[:, cols] = kernel.apply(eval_data.X, data.X, C[:, cols])
        weights, _ = scheme.weights_many(eval_data.X)
        vals = loss.value(eval_data.y,
                          compose(weights, eval_n, lambda b, rows: P[rows, b]))
        rows.append({"n": n, "lambda": lam, "risk": float(np.mean(vals)),
                     "bayes_proxy": bayes,
                     "global_risk": float(np.mean(loss.value(eval_data.y, P[:, 0]))),
                     "mc_stderr": float(np.std(vals) / np.sqrt(eval_n))})
    return rows


LADDER_CASES = {
    "sine": ("sine-regression", {}),
    "sine-per-region-linear": ("sine-regression", {2: Linear(input_dim=2)}),
    "two-moons": ("two-moons", {}),
}


def _ladder_case(case):
    kind, region_kernels = LADDER_CASES[case]
    loss = LogisticClassification() if kind == "two-moons" else LogisticRegression()
    config = ModelConfig(loss=loss, kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=0.5), region_kernels=region_kernels)
    task = SyntheticTask(kind, dim=2, noise=0.2, seed=12)
    pc = PartitionConfig(b_target=3, tau=0.25, min_region_size=5, seed=1)
    return task, pc, config


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_trend_matches_scoring_each_rung_on_its_own(case):
    task, pc, config = _ladder_case(case)
    ladder, schedule = [40, 80, 160], LambdaSchedule()
    nested = all(np.array_equal(generate(task, n).X, generate(task, 160).X[:n])
                 for n in ladder)
    assert nested == (task.kind != "two-moons")
    report = consistency_trend(task, ladder, schedule, pc, config, eval_n=3000)
    want = _rung_scored_trend(task, ladder, schedule, pc, config, 3000)
    for got, ref in zip(report.rows, want, strict=True):
        assert list(got) == list(ref)
        for key in ("n", "lambda", "bayes_proxy"):
            assert got[key] == ref[key], key
        for key in ("risk", "global_risk", "mc_stderr"):
            if nested:
                assert abs(got[key] - ref[key]) <= 1e-12 * abs(ref[key]), key
            else:  # each rung keeps its own pass: the same products
                assert got[key] == ref[key], key


@pytest.mark.parametrize("case", ["sine", "two-moons"])
def test_trend_scoring_computes_one_pass_over_nested_rungs(case, monkeypatch):
    # kernel entries scored: eval_n x n_max for nested rungs, one pass per
    # rung (eval_n x sum n) otherwise; training computes none in apply
    task, pc, config = _ladder_case(case)
    inside, entries = [], []
    apply, cross = Kernel.apply, GaussianRBF._cross

    def counted_apply(self, *args, **kwargs):
        inside.append(True)
        try:
            return apply(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_cross(self, X, Z, *args, **kwargs):
        if inside:
            entries.append(X.shape[0] * Z.shape[0])
        return cross(self, X, Z, *args, **kwargs)

    monkeypatch.setattr(Kernel, "apply", counted_apply)
    monkeypatch.setattr(GaussianRBF, "_cross", counted_cross)
    ladder, eval_n = [40, 80, 160], 1000
    consistency_trend(task, ladder, LambdaSchedule(), pc, config, eval_n=eval_n)
    want = eval_n * (max(ladder) if case == "sine" else sum(ladder))
    assert sum(entries) == want


def test_tradeoff_matches_scoring_each_lambda_on_its_own():
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=13)
    pc = PartitionConfig(b_target=3, tau=0.25, min_region_size=5, seed=1)
    config = replace(_small_config(), region_kernels={2: Linear(input_dim=2)})
    grid, n, eval_n = [2.0, 0.5, 0.125], 120, 3000
    report = tradeoff_sweep(task, n, grid, pc, config, eval_n=eval_n)
    data = generate(task, n)
    scheme = pc.build(data.X)
    eval_data = generate(replace(task, seed=task.seed + EVAL_SEED_OFFSET), eval_n)
    for lam, got in zip(grid, report.rows, strict=True):
        cfg = replace(config, train=replace(config.train, lam=lam))
        vals = config.loss.value(eval_data.y,
                                 fit_composed(data, scheme, cfg).predict(eval_data.X))
        assert got["lambda"] == lam
        for key, ref in (("risk", float(np.mean(vals))),
                         ("mc_stderr", float(np.std(vals) / np.sqrt(eval_n)))):
            assert abs(got[key] - ref) <= 1e-12 * abs(ref), key


def _no_draw(*args, **kwargs):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("ladder,eval_n", [([40.7, 80], 500), ([True, 80], 500),
                                           ([40, 80.0], 500), ([40, 80], 2.5),
                                           ([40, 80], True)])
def test_consistency_trend_rejects_non_integer_sizes(ladder, eval_n, monkeypatch):
    monkeypatch.setattr(experiments, "generate", _no_draw)
    with pytest.raises(InputError, match="integer"):
        consistency_trend(SyntheticTask("sine-regression", seed=15), ladder,
                          LambdaSchedule(), PartitionConfig(b_target=2),
                          _small_config(), eval_n=eval_n)


@pytest.mark.parametrize("n,eval_n", [(60.5, 500), (True, 500), (60, 2.5),
                                      (60, False)])
def test_tradeoff_sweep_rejects_non_integer_sizes(n, eval_n, monkeypatch):
    monkeypatch.setattr(experiments, "generate", _no_draw)
    with pytest.raises(InputError, match="integer"):
        tradeoff_sweep(SyntheticTask("sine-regression", seed=15), n, [1.0],
                       PartitionConfig(b_target=2), _small_config(), eval_n=eval_n)


def test_experiments_accept_numpy_integer_sizes():
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=16)
    pc = PartitionConfig(b_target=2, tau=0.25, min_region_size=5, seed=1)
    trend = consistency_trend(task, np.array([40, 80]), LambdaSchedule(), pc,
                              _small_config(), eval_n=np.int64(500))
    assert [row["n"] for row in trend.rows] == [40, 80]
    assert trend.eval_n == 500 and type(trend.eval_n) is int
    sweep = tradeoff_sweep(task, np.int32(60), [1.0], pc, _small_config(),
                           eval_n=np.int64(500))
    assert (sweep.n, sweep.eval_n) == (60, 500)

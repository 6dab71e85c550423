import numpy as np
import pytest

from localsvm import (GaussianRBF, InputError, LambdaSchedule,
                      LogisticClassification, LogisticRegression, ModelConfig,
                      PartitionConfig, SyntheticTask, TrainConfig,
                      consistency_trend, generate, tradeoff_sweep)


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

import json

import numpy as np
import pytest

import localsvm.cli as cli
from localsvm import (ComposedModel, GaussianRBF, InputError,
                      LogisticRegression, ModelConfig, TrainConfig,
                      WeightScheme, fit_composed, regionalize)
from localsvm.config import (load_config, load_csv_dataset,
                             model_config_from_config, setup_from_config,
                             validate_config)
from localsvm.experiments import SyntheticTask, generate


def base_config(**overrides):
    cfg = {
        "version": 1,
        "dataset": {"kind": "synthetic", "task": "sine-regression", "n": 60,
                    "dim": 2, "noise": 0.3, "seed": 7},
        "partition": {"b_target": 2, "tau": 0.25, "min_region_size": 5,
                      "seed": 1},
        "scheme": {"kind": "normalized-indicator"},
        "model": {"loss": "logistic-regression",
                  "kernel": {"family": "gaussian-rbf", "gamma": 1.0},
                  "lambda": 0.5},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_valid_config_passes():
    validate_config(base_config())


def test_unknown_keys_rejected():
    with pytest.raises(InputError):
        validate_config(base_config(extra_field=1))
    cfg = base_config()
    cfg["model"]["kernel"]["bandwidth"] = 2.0
    with pytest.raises(InputError):
        validate_config(cfg)


def test_eps_outside_half_rejected():
    cfg = base_config(audit={"eps_ladder": [0.6, 0.01]})
    with pytest.raises(InputError):
        validate_config(cfg)
    cfg = base_config(audit={"maxbias_eps": 0.6})
    with pytest.raises(InputError):
        validate_config(cfg)


def test_increasing_ladder_rejected():
    cfg = base_config(audit={"eps_ladder": [1e-3, 1e-2]})
    with pytest.raises(InputError):
        validate_config(cfg)


def test_bad_schedule_rejected():
    cfg = base_config(experiment={"kind": "consistency",
                                  "n_ladder": [100, 200],
                                  "schedule": {"beta": 0.5}})
    with pytest.raises(InputError):
        validate_config(cfg)


def test_smooth_bump_requires_h():
    cfg = base_config(scheme={"kind": "smooth-bump"})
    with pytest.raises(InputError):
        validate_config(cfg)
    cfg = base_config(scheme={"kind": "smooth-bump", "h": 1.0})
    validate_config(cfg)


def test_config_json_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "dataset": }')
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert "line 2" in str(err.value)


def test_missing_config_file():
    with pytest.raises(InputError):
        load_config("/nonexistent/config.json")


def test_csv_loader_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,y\n0.5,1.5,2.5\n-1.0,0.25,0.125\n")
    data = load_csv_dataset(str(path))
    np.testing.assert_array_equal(data.X, [[0.5, 1.5], [-1.0, 0.25]])
    np.testing.assert_array_equal(data.y, [2.5, 0.125])


def test_csv_loader_rejects_missing_values(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,y\n0.5,,2.5\n")
    with pytest.raises(InputError) as err:
        load_csv_dataset(str(path))
    assert "line 2" in str(err.value)


def test_csv_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        load_csv_dataset(str(path))


def test_csv_loader_missing_file():
    with pytest.raises(InputError):
        load_csv_dataset("/nonexistent/data.csv")


def test_model_config_construction():
    raw = base_config()
    raw["model"]["per_region"] = [{"region": 2, "lambda": 0.1}]
    validate_config(raw)
    config = model_config_from_config(raw, input_dim=2)
    assert config.lam_for(1) == 0.5
    assert config.lam_for(2) == 0.1
    assert isinstance(config.loss, LogisticRegression)
    assert config.kernel == GaussianRBF(gamma=1.0, input_dim=2)


def test_cli_train_writes_model_and_summary(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 0
    model_path = tmp_path / "out" / "model.json"
    assert model_path.exists()
    assert (tmp_path / "out" / "train_summary.txt").exists()
    out = capsys.readouterr().out
    assert "regions: " in out and "|f|_H=" in out

    # the CLI model must equal a library-built model for the same config
    raw = base_config()
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=7)
    data = generate(task, 60)
    part = regionalize(data.X, 2, 0.25, 5, seed=1)
    scheme = WeightScheme("normalized-indicator", part)
    config = ModelConfig(loss=LogisticRegression(),
                         kernel=GaussianRBF(gamma=1.0, input_dim=2),
                         train=TrainConfig(lam=0.5))
    expected = fit_composed(data, part, scheme, config)
    loaded = ComposedModel.from_dict(json.loads(model_path.read_text()))
    probes = np.random.default_rng(0).uniform(-3, 3, size=(100, 2))
    np.testing.assert_array_equal(loaded.predict(probes), expected.predict(probes))
    del raw


def test_cli_train_deterministic_output(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")])
    cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "model.json").read_bytes() == \
        (tmp_path / "b" / "model.json").read_bytes()


def test_cli_missing_csv_exits_2(tmp_path, capsys):
    cfg = base_config(dataset={"kind": "csv", "path": str(tmp_path / "no.csv")})
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(bogus={}))
    rc = cli.main(["train", "--config", cfg_path])
    assert rc == 2


def test_cli_convergence_failure_exits_3(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["max_iter"] = 1
    cfg["model"]["grad_tol"] = 1e-15
    cfg["model"]["lambda"] = 0.01
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 3


def test_cli_audit_small_fixture(tmp_path, capsys):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 32,
                             "z_grid": 2, "maxbias_eps": 0.1})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert set(report) >= {"if_bound_rough", "if_bound_tv", "maxbias_bound",
                           "per_region_terms", "empirical", "satisfied"}
    assert report["satisfied"]["if"] is True
    assert report["satisfied"]["maxbias"] is True
    out = capsys.readouterr().out
    assert "satisfied[if] = True" in out


def test_cli_audit_single_z(tmp_path):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z": {"x": [0.0, 0.0], "y": 4.0},
                             "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "z")])
    assert rc == 0
    report = json.loads((tmp_path / "z" / "audit.json").read_text())
    assert len(report["per_z"]) == 1
    assert report["per_z"][0]["z"] == {"x": [0.0, 0.0], "y": 4.0}


def test_cli_audit_with_pretrained_model(tmp_path):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    rc = cli.main(["audit", "--config", cfg_path,
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 0


def test_cli_audit_model_config_mismatch(tmp_path, capsys):
    cfg = base_config()
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    cfg2 = base_config()
    cfg2["dataset"]["n"] = 40
    cfg2["model"]["lambda"] = 0.9
    cfg2_path = write_config(tmp_path, cfg2, name="other.json")
    rc = cli.main(["audit", "--config", cfg2_path,
                   "--model", str(tmp_path / "m" / "model.json")])
    assert rc == 2


def test_cli_audit_bound_violation_exit_code(tmp_path, monkeypatch):
    from localsvm.robustness import AuditReport

    def fake_audit(*args, **kwargs):
        return AuditReport(if_bound_rough=1.0, if_bound_tv=None,
                           maxbias_bound=None, per_region_terms=[], per_z=[],
                           empirical={"if_sup": 2.0, "maxbias_sup": None,
                                      "decomposition_residual": 0.0,
                                      "ladder": [],
                                      "coverage_violations": 0},
                           satisfied={"if": False}, notes=[])

    monkeypatch.setattr(cli, "run_audit", fake_audit)
    cfg = base_config(audit={"z_grid": 1})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 1


def test_cli_experiment_tradeoff(tmp_path, capsys):
    cfg = base_config(experiment={"kind": "tradeoff",
                                  "lambda_grid": [1.0, 0.5],
                                  "eval_n": 500})
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["experiment", "--config", cfg_path,
                   "--out", str(tmp_path / "exp")])
    assert rc == 0
    csv_text = (tmp_path / "exp" / "tradeoff.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "lambda,risk,if_bound_rough,mc_stderr"
    assert len(lines) == 3
    report = json.loads((tmp_path / "exp" / "tradeoff.json").read_text())
    bounds = [row["if_bound_rough"] for row in report["rows"]]
    assert bounds[1] == 2.0 * bounds[0]


def test_cli_experiment_consistency_deterministic(tmp_path):
    cfg = base_config(experiment={"kind": "consistency",
                                  "n_ladder": [30, 60],
                                  "schedule": {"c": 1.0, "beta": 0.25},
                                  "eval_n": 500})
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "consistency.csv").read_bytes() == \
        (tmp_path / "r2" / "consistency.csv").read_bytes()
    lines = (tmp_path / "r1" / "consistency.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per ladder point


def test_cli_experiment_without_section_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 2


def test_cli_seed_override_changes_dataset(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "s7")])
    cli.main(["train", "--config", cfg_path, "--seed", "8",
              "--out", str(tmp_path / "s8")])
    a = json.loads((tmp_path / "s7" / "model.json").read_text())
    b = json.loads((tmp_path / "s8" / "model.json").read_text())
    assert a["locals"][0]["anchors"] != b["locals"][0]["anchors"]


def test_cli_threads_flag(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    rc = cli.main(["train", "--config", cfg_path, "--threads", "4",
                   "--out", str(tmp_path / "t")])
    assert rc == 0


def test_setup_from_config_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n0.0,1.0\n1.0,2.0\n2.0,0.5\n3.0,1.5\n")
    raw = base_config(dataset={"kind": "csv", "path": str(path)})
    raw["partition"] = {"b_target": 1}
    validate_config(raw)
    setup = setup_from_config(raw)
    assert setup.data.n == 4 and setup.data.dim == 1
    assert setup.task is None


def test_cli_audit_z_grid_classification_uses_unit_labels(tmp_path):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"] = {"kind": "synthetic", "task": "two-moons", "n": 40,
                      "dim": 2, "noise": 0.1, "seed": 7}
    cfg["model"]["loss"] = "logistic-classification"
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc != 2
    report = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert len(report["per_z"]) == 4
    assert {entry["z"]["y"] for entry in report["per_z"]} == {-1.0, 1.0}


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cli_non_finite_csv_exits_2(tmp_path, capsys, cell):
    path = tmp_path / "data.csv"
    rows = [f"{0.1 * i},{np.sin(0.1 * i)}" for i in range(20)]
    rows[7] = f"{cell},0.5"
    path.write_text("x0,y\n" + "\n".join(rows) + "\n")
    cfg = base_config(dataset={"kind": "csv", "path": str(path)})
    cfg["partition"] = {"b_target": 2, "min_region_size": 3}
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", cfg_path, "--threads", threads,
                  "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err

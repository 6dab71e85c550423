import copy
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import localsvm.cli as cli
from localsvm import composer, robustness
from localsvm import (ComposedModel, GaussianRBF, InputError,
                      LadderConvergenceWarning, Linear, LogisticRegression,
                      ModelConfig, Polynomial, TrainConfig, WeightScheme,
                      fit_composed, regionalize, train)
from localsvm.config import (CONFIG_SCHEMA, MODEL_SCHEMA, _schema_error,
                             load_config, load_csv_dataset, load_model,
                             model_config_from_config, setup_from_config,
                             task_from_config, validate_config)
from localsvm.experiments import LambdaSchedule, SyntheticTask, generate
from conftest import manual_partition, two_blobs


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


def test_per_region_naming_a_region_twice_exits_2(tmp_path, capsys):
    # the second entry would silently replace the first one's lambda
    cfg = base_config()
    cfg["model"]["per_region"] = [{"region": 2, "lambda": 0.1},
                                  {"region": 2.0, "lambda": 0.3}]
    with pytest.raises(InputError, match=r"region\(s\) \[2\] more than once"):
        validate_config(cfg)
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "model.per_region" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_audit_z_with_z_grid_exits_2(tmp_path, capsys):
    # z would silently win over the grid
    cfg = base_config(audit={"z": {"x": [0.0, 0.0], "y": 4.0}, "z_grid": 2})
    with pytest.raises(InputError, match="both z and z_grid"):
        validate_config(cfg)
    rc = cli.main(["audit", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "both z and z_grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BENCHMARK_CONFIGS = (Path(__file__).resolve().parents[1] / "benchmark"
                     / "configs")
CSV_DATASET = {"kind": "csv", "path": "data.csv"}
TRADEOFF = {"kind": "tradeoff", "lambda_grid": [1.0, 0.5], "eval_n": 500}
CONSISTENCY = {"kind": "consistency", "n_ladder": [100, 200],
               "schedule": {"c": 1.0, "beta": 0.25}, "eval_n": 1000}
# what a mutation writes at a path; the blocks are the oneOf branches
MUTANTS = (None, True, False, 0, -1, 0.5, 1.0, 0.6, "text", [], {},
           base_config()["dataset"], CSV_DATASET, CONSISTENCY, TRADEOFF)


def _config_bases():
    """The benchmark configs and a CSV/polynomial/tradeoff config."""
    csv_cfg = base_config(dataset=CSV_DATASET, experiment=TRADEOFF,
                          scheme={"kind": "smooth-bump", "h": 0.7},
                          output={"dir": "out"},
                          audit={"z": {"x": [0.5, -0.5], "y": 1.0},
                                 "q_family": "none", "maxbias_eps": 0.0})
    csv_cfg["model"]["kernel"] = {"family": "polynomial", "degree": 2,
                                  "offset": 1.0}
    csv_cfg["model"].update(
        grad_tol=1e-9, max_iter=50,
        per_region=[{"region": 1, "kernel": {"family": "linear"},
                     "lambda": 0.25}])
    return [json.loads(path.read_text())
            for path in sorted(BENCHMARK_CONFIGS.glob("*.json"))] + [csv_cfg]


def _schema_cases(bases, mutants):
    """The single and seeded double mutations of the documents ``bases``:
    every path set to each of ``mutants`` or deleted, and an unknown key
    added to every object."""
    def nodes(node, path=()):
        yield path, node
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            yield from nodes(child, path + (key,))

    def mutations(cfg):
        for path, node in nodes(cfg):
            if isinstance(node, dict):
                yield path, "add", None
            if path:
                yield path, "delete", None
                for value in mutants:
                    yield path, "set", value

    def apply(cfg, mutation):
        path, op, value = mutation
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if op == "add":
            (node[path[-1]] if path else node)["unknown_key"] = 1
        elif op == "delete":
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)

    cases = []
    rng = np.random.default_rng(15)
    for base in bases:
        singles = list(mutations(base))
        for mutation in singles:
            cfg = copy.deepcopy(base)
            apply(cfg, mutation)
            cases.append(cfg)
        for _ in range(len(singles) // 2):
            cfg = copy.deepcopy(base)
            apply(cfg, singles[rng.integers(len(singles))])
            # drawn from the mutated config, so its path exists
            second = list(mutations(cfg))
            apply(cfg, second[rng.integers(len(second))])
            cases.append(cfg)
    return cases


def test_schema_check_agrees_with_jsonschema():
    # jsonschema is the reference for the in-package checker; it is a test
    # dependency only
    from jsonschema import Draft202012Validator

    reference = Draft202012Validator(CONFIG_SCHEMA)
    bases = _config_bases()
    cases = _schema_cases(bases, MUTANTS)
    assert len(cases) >= 2000
    accepted = []
    for cfg in bases + cases:
        try:
            validate_config(cfg)
            ours = True
        except InputError as exc:
            ours = "config schema violation" not in str(exc)
        assert ours == reference.is_valid(cfg), cfg
        accepted.append(ours)
    assert all(accepted[:len(bases)])
    assert 200 < sum(accepted) < len(cases) - 200


def _model_bases():
    """The to_dict of small fitted models: both weight schemes, all three
    kernel families, and a region that holds no point (a null region)."""
    data = two_blobs(n_per=3, gap=3.0, seed=5)
    part = regionalize(data.X, b_target=2, tau=0.25, seed=1)
    far = manual_partition([[0.0, 0.0], [50.0, 50.0]], [20.0, 1.0])
    fits = [(WeightScheme("normalized-indicator", part), GaussianRBF(1.0, 2)),
            (WeightScheme("smooth-bump", part, h=0.7),
             Polynomial(degree=2, offset=1.0, input_dim=2)),
            (WeightScheme("normalized-indicator", far), Linear(input_dim=2))]
    return [json.loads(json.dumps(fit_composed(data, scheme, ModelConfig(
        LogisticRegression(), kernel, TrainConfig(lam=0.5))).to_dict()))
            for scheme, kernel in fits]


# what a mutation of a model writes at a path; the blocks are the oneOf
# branches of the scheme and of a kernel
MODEL_MUTANTS = (None, True, False, 0, -1, 0.5, 1.0, "text", [], {}, [0.5],
                 [[0.5, 1.0]], {"kind": "normalized-indicator", "h": None},
                 {"kind": "smooth-bump", "h": 0.5},
                 {"family": "linear", "input_dim": 2},
                 {"family": "polynomial", "degree": 2, "input_dim": 2})


def test_model_schema_check_agrees_with_jsonschema():
    from jsonschema import Draft202012Validator

    reference = Draft202012Validator(MODEL_SCHEMA)
    bases = _model_bases()
    assert [len(b["null_region_ids"]) for b in bases] == [0, 0, 1]
    for base in bases:
        assert ComposedModel.from_dict(base).to_dict() == base
    cases = _schema_cases(bases, MODEL_MUTANTS)
    assert len(cases) >= 2000
    accepted = []
    for model in bases + cases:
        ours = _schema_error(model, MODEL_SCHEMA) is None
        assert ours == reference.is_valid(model), model
        accepted.append(ours)
    assert all(accepted[:len(bases)])
    assert 200 < sum(accepted) < len(cases) - 200


@pytest.mark.parametrize("where, value, path", [
    (("model", "lambda"), 0, "$.model.lambda"),
    (("model", "kernel"), {"family": "polynomial", "degree": 1.5},
     "$.model.kernel.degree"),
    (("audit", "eps_ladder", 1), 0.6, "$.audit.eps_ladder[1]"),
    (("dataset", "n"), True, "$.dataset.n"),
    (("experiment", "n_ladder", 0), 0, "$.experiment.n_ladder[0]"),
])
def test_schema_violation_names_its_path(where, value, path):
    cfg = base_config(audit={"eps_ladder": [0.01, 0.005]},
                      experiment=copy.deepcopy(CONSISTENCY))
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(InputError) as err:
        validate_config(cfg)
    assert str(err.value).startswith(f"config schema violation at {path}: ")


@pytest.mark.parametrize("where, value, message", [
    (("dataset",), {"kind": "csv"}, "at $.dataset: 'path' is a required property"),
    (("experiment",), {"kind": "tradeoff"},
     "at $.experiment: 'lambda_grid' is a required property"),
    (("scheme",), {"kind": "smooth-bump"}, "at $.scheme: 'h' is a required property"),
    (("dataset",), {"kind": "foo"},
     "at $.dataset.kind: 'foo' is not one of ['synthetic', 'csv']"),
    (("dataset", "task"), "foo",
     "at $.dataset.task: 'foo' is not one of ['sine-regression', 'two-moons', "
     "'piecewise-regression']"),
    (("experiment",), {"kind": "foo"},
     "at $.experiment.kind: 'foo' is not one of ['consistency', 'tradeoff']"),
    (("model", "kernel"), {"family": "sigmoid"},
     "at $.model.kernel.family: 'sigmoid' is not one of ['gaussian-rbf', "
     "'linear', 'polynomial']"),
    (("scheme",), {"h": 0.5}, "at $.scheme: 'kind' is a required property"),
], ids=["csv-without-path", "tradeoff-without-grid", "bump-without-h",
        "dataset-kind", "task", "experiment-kind", "kernel-family", "no-kind"])
def test_schema_violation_names_the_branch_its_kind_selects(where, value, message):
    # a oneOf block is a union told apart by its kind: the message comes
    # from the branch of the value's kind, or lists the kinds there are
    cfg = base_config(experiment=copy.deepcopy(CONSISTENCY))
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(InputError) as err:
        validate_config(cfg)
    assert str(err.value) == f"config schema violation {message}"


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


def test_ridge_key_rejected(tmp_path, capsys):
    # the Newton system needs no ridge: the key is unknown like any other
    cfg = base_config()
    cfg["model"]["ridge"] = 1e-8
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'ridge'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    expected = fit_composed(data, scheme, config)
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


def _one_error_line_naming(capsys, path):
    err = capsys.readouterr().err
    assert "error: " in err and err.count("\n") == 1, err
    assert str(path) in err, err


@pytest.mark.parametrize("content", [b"", b"\xff\xfe\x00\x80 binary"],
                         ids=["directory", "binary"])
def test_cli_unreadable_csv_exits_2(tmp_path, capsys, content):
    path = tmp_path / "data.csv"
    if content:
        path.write_bytes(content)
    else:
        path.mkdir()
    cfg = base_config(dataset={"kind": "csv", "path": str(path)})
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    _one_error_line_naming(capsys, path)


def test_cli_config_naming_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path)]) == 2
    _one_error_line_naming(capsys, tmp_path)


def test_cli_binary_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe\x00\x80 binary")
    assert cli.main(["train", "--config", str(path)]) == 2
    _one_error_line_naming(capsys, path)


def test_cli_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    _one_error_line_naming(capsys, out)


def test_cli_out_below_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "sub"
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    _one_error_line_naming(capsys, out)


def test_cli_audit_model_naming_a_directory_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(audit={"z_grid": 2}))
    model = tmp_path / "model"
    model.mkdir()
    assert cli.main(["audit", "--config", cfg_path, "--model", str(model),
                     "--out", str(tmp_path)]) == 2
    _one_error_line_naming(capsys, model)


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_convergence_failure_stderr_names_the_region(tmp_path, capsys, threads):
    # the whole line, byte for byte: the region's id, then train's own words
    cfg = base_config()
    cfg["model"]["max_iter"] = 1
    cfg["model"]["grad_tol"] = 1e-15
    cfg["model"]["lambda"] = 0.01
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), "--threads", threads])
    assert rc == 3
    assert capsys.readouterr().err == (
        "convergence error: training failed in region 1: no convergence after "
        "1 iterations (grad norm 2.333e-03 > tol 1.000e-15)\n")


@pytest.mark.parametrize("command", ["train", "audit", "experiment"])
@pytest.mark.parametrize("failure, code", [("partition", 2), ("convergence", 3)])
def test_cli_failed_run_leaves_no_new_directory(tmp_path, capsys, command,
                                                failure, code):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0},
                      experiment={"kind": "tradeoff", "lambda_grid": [1.0],
                                  "eval_n": 200})
    if failure == "partition":
        cfg["dataset"]["n"] = 9  # two regions of at least 5 points need 10
    else:
        cfg["model"].update(max_iter=1, grad_tol=1e-15, **{"lambda": 0.01})
    out = tmp_path / "new" / "out"
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == code
    assert not (tmp_path / "new").exists()


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


@pytest.mark.parametrize("scheme", [{"kind": "normalized-indicator"},
                                    {"kind": "smooth-bump", "h": 0.7}],
                         ids=["normalized-indicator", "smooth-bump"])
def test_cli_audit_with_pretrained_model(tmp_path, scheme):
    cfg = base_config(scheme=scheme,
                      audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    rc = cli.main(["audit", "--config", cfg_path,
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    # auditing the stored model is the audit that fits its own base
    assert cli.main(["audit", "--config", cfg_path,
                     "--out", str(tmp_path / "fit")]) == 0
    assert ((tmp_path / "out" / "audit.json").read_bytes()
            == (tmp_path / "fit" / "audit.json").read_bytes())


def test_cli_audit_retrain_convergence_failure_exits_3(tmp_path, capsys):
    # the base model comes from --model, so the first failing train is a
    # contaminated retrain; its error names the region like a base fit's
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "m")]) == 0
    cfg["model"]["max_iter"] = 1
    cfg["model"]["grad_tol"] = 1e-15
    rc = cli.main(["audit", "--config", write_config(tmp_path, cfg, "stiff.json"),
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert re.fullmatch(r"convergence error: training failed in region [12]: "
                        r"no convergence after 1 iterations \(.*\)\n",
                        capsys.readouterr().err)


def test_cli_audit_q_family_none_skips_the_maxbias_probe(tmp_path):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.1, "q_family": "none"})
    cfg["dataset"]["n"] = 40
    rc = cli.main(["audit", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert report["maxbias_bound"] is None
    assert report["empirical"]["maxbias_sup"] is None
    assert "maxbias" not in report["satisfied"]


def test_cli_audit_q_family_default_is_corners_center_flip(tmp_path):
    outputs = []
    for family in (None, "corners-center-flip"):
        audit = {"eps_ladder": [1e-2, 5e-3], "extra_probes": 16, "z_grid": 2,
                 "maxbias_eps": 0.1}
        if family is not None:
            audit["q_family"] = family
        cfg = base_config(audit=audit)
        cfg["dataset"]["n"] = 40
        out = tmp_path / str(family)
        assert cli.main(["audit", "--config",
                         write_config(tmp_path, cfg, f"{family}.json"),
                         "--out", str(out)]) == 0
        outputs.append((out / "audit.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("field", ["lambda", "gamma", "loss"])
def test_cli_audit_model_config_mismatch(tmp_path, capsys, field):
    # the model fits the config's data but was trained with another
    # lambda, kernel or loss
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    if field == "loss":
        # +-1 labels are valid for both losses
        cfg["dataset"] = {"kind": "synthetic", "task": "two-moons", "n": 40,
                          "dim": 2, "noise": 0.1, "seed": 7}
    else:
        cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    other = copy.deepcopy(cfg)
    if field == "lambda":
        other["model"]["lambda"] = 0.9
    elif field == "gamma":
        other["model"]["kernel"]["gamma"] = 0.3
    else:
        other["model"]["loss"] = "logistic-classification"
    rc = cli.main(["audit", "--config", write_config(tmp_path, other, "other.json"),
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    what = "kernel" if field == "gamma" else field
    assert f"the model's {what}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "audit.json").exists()


def test_cli_audit_bound_violation_exit_code(tmp_path, monkeypatch):
    from localsvm.robustness import AuditReport

    def fake_audit(*args, **kwargs):
        return AuditReport(if_bound_rough=1.0, if_bound_tv=None,
                           maxbias_bound=None, per_region_terms=[], per_z=[],
                           empirical={"if_sup": 2.0, "maxbias_sup": None,
                                      "decomposition_residual": 0.0,
                                      "ladder": [],
                                      "coverage_violations": 0},
                           satisfied={"if": False})

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


@pytest.mark.parametrize("exp", [
    {"kind": "consistency", "n_ladder": [30, 60], "eval_n": 500},
    {"kind": "tradeoff", "lambda_grid": [1.0, 0.5], "eval_n": 500}],
    ids=["consistency", "tradeoff"])
def test_cli_experiment_csv_json_and_stdout_rows_agree(tmp_path, capsys, exp):
    from localsvm.experiments import SweepReport, TrendReport

    columns = {"consistency": TrendReport, "tradeoff": SweepReport}[
        exp["kind"]].COLUMNS
    cfg_path = write_config(tmp_path, base_config(experiment=exp))
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "exp")]) == 0
    rows = json.loads((tmp_path / "exp" / f"{exp['kind']}.json").read_text())["rows"]
    header, *cells = [line.split(",") for line in
                      (tmp_path / "exp" / f"{exp['kind']}.csv").read_text().splitlines()]
    printed = capsys.readouterr().out.splitlines()[1:]  # after "wrote ..."
    assert tuple(header) == columns
    assert len(rows) == len(cells) == len(printed) == 2
    for row, line, text in zip(rows, cells, printed):
        assert tuple(row) == columns
        assert [float(c) for c in line] == list(row.values())
        assert list(json.loads(text).items()) == list(row.items())


@pytest.mark.parametrize("exp", [
    {"kind": "consistency", "n_ladder": [30, 60], "eval_n": 500},
    {"kind": "tradeoff", "lambda_grid": [1.0, 0.5], "eval_n": 500}],
    ids=["consistency", "tradeoff"])
def test_cli_experiment_threads_give_identical_outputs(tmp_path, monkeypatch,
                                                        exp):
    import localsvm.experiments as experiments

    seen = []
    fit = experiments.fit_composed

    def spy(*args, threads=1, **kwargs):
        seen.append(threads)
        return fit(*args, threads=threads, **kwargs)

    monkeypatch.setattr(experiments, "fit_composed", spy)
    cfg_path = write_config(tmp_path, base_config(experiment=exp))
    for threads, out in (("1", "1"), ("1", "repeat"), ("2", "2")):
        assert cli.main(["experiment", "--config", cfg_path, "--threads",
                         threads, "--out", str(tmp_path / out)]) == 0
    assert seen == [1, 1, 1, 1, 2, 2]
    for suffix in ("csv", "json"):
        name = f"{exp['kind']}.{suffix}"
        for out in ("repeat", "2"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / out / name).read_bytes()


def test_cli_audit_threads_reach_only_the_fit(tmp_path, monkeypatch):
    import localsvm.robustness as robustness

    seen = []
    fit = robustness.fit_composed

    def spy(*args, threads=1, **kwargs):
        seen.append(threads)
        return fit(*args, threads=threads, **kwargs)

    monkeypatch.setattr(robustness, "fit_composed", spy)
    cfg_path = write_config(tmp_path, base_config(audit={"z_grid": 2}))
    for threads in ("1", "2"):
        assert cli.main(["audit", "--config", cfg_path, "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
    assert seen == [1, 2]
    assert (tmp_path / "1" / "audit.json").read_bytes() == \
        (tmp_path / "2" / "audit.json").read_bytes()


def _all_commands_config():
    return base_config(audit={"z_grid": 1},
                       experiment={"kind": "tradeoff", "lambda_grid": [1.0],
                                   "eval_n": 200})


@pytest.mark.parametrize("command", ["train", "audit", "experiment"])
def test_cli_negative_seed_flag_exits_2(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, _all_commands_config())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg_path, "--seed", "-2",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block", ["dataset", "partition"])
@pytest.mark.parametrize("command", ["train", "audit", "experiment"])
def test_cli_negative_config_seed_exits_2(tmp_path, capsys, command, block):
    cfg = _all_commands_config()
    cfg[block]["seed"] = -1
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "seed" in err
    assert "Traceback" not in err


# a block of one kind without a key that kind cannot do without, or with a
# key only another kind reads: (where, value, the key, the block's path)
_KIND_KEY_CASES = {
    "rbf-without-gamma": (("model", "kernel"), {"family": "gaussian-rbf"},
                          "gamma", "$.model.kernel"),
    "polynomial-without-degree": (("model", "kernel"),
                                  {"family": "polynomial", "offset": 1.0},
                                  "degree", "$.model.kernel"),
    "per-region-rbf-without-gamma": (
        ("model", "per_region"),
        [{"region": 1, "kernel": {"family": "gaussian-rbf"}}],
        "gamma", "$.model.per_region[0].kernel"),
    "per-region-polynomial-without-degree": (
        ("model", "per_region"),
        [{"region": 1, "kernel": {"family": "polynomial"}}],
        "degree", "$.model.per_region[0].kernel"),
    "linear-with-gamma": (("model", "kernel"), {"family": "linear", "gamma": 1.0},
                          "gamma", "$.model.kernel"),
    "polynomial-with-gamma": (("model", "kernel"),
                              {"family": "polynomial", "degree": 2, "gamma": 1.0},
                              "gamma", "$.model.kernel"),
    "rbf-with-degree": (("model", "kernel", "degree"), 2, "degree", "$.model.kernel"),
    "rbf-with-offset": (("model", "kernel", "offset"), 1.0, "offset",
                        "$.model.kernel"),
    "linear-with-degree": (("model", "kernel"), {"family": "linear", "degree": 2},
                           "degree", "$.model.kernel"),
    "linear-with-offset": (("model", "kernel"), {"family": "linear", "offset": 1.0},
                           "offset", "$.model.kernel"),
    "indicator-with-h": (("scheme", "h"), 0.5, "h", "$.scheme"),
    "sine-with-breakpoints": (("dataset", "breakpoints"), [0.5], "breakpoints",
                              "$.dataset"),
    "moons-with-breakpoints": (("dataset",),
                               {"kind": "synthetic", "task": "two-moons", "n": 60,
                                "noise": 0.1, "seed": 7, "breakpoints": [0.5]},
                               "breakpoints", "$.dataset"),
}


@pytest.mark.parametrize("case", sorted(_KIND_KEY_CASES))
@pytest.mark.parametrize("command", ["train", "audit", "experiment"])
def test_cli_key_its_kind_does_not_take_exits_2(tmp_path, capsys, command, case):
    # each kind reads exactly its own keys: a missing one is no KeyError
    # traceback (exit 1 means a violated bound) and an extra one is not
    # silently dropped
    where, value, key, path = _KIND_KEY_CASES[case]
    cfg = _all_commands_config()
    node = cfg
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = copy.deepcopy(value)
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert f"config schema violation at {path}: " in err and f"'{key}'" in err, err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_an_input_error():
    with pytest.raises(InputError, match="seed"):
        SyntheticTask("sine-regression", seed=-1)
    with pytest.raises(InputError, match="seed"):
        regionalize(np.zeros((10, 2)), 2, seed=-1)


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
    data, _ = setup_from_config(raw)
    assert data.n == 4 and data.dim == 1
    assert task_from_config(raw) is None


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


def _forbid_partition_and_fit(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called before every input was checked")

    monkeypatch.setattr("localsvm.experiments.regionalize", forbidden)
    monkeypatch.setattr("localsvm.composer.train", forbidden)


@pytest.mark.parametrize("command", ["train", "audit"])
def test_cli_rejects_labels_the_loss_cannot_take_before_any_fit(
        tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n0.0,1.0\n1.0,-1.0\n2.0,0.5\n3.0,1.0\n")
    cfg = base_config(dataset={"kind": "csv", "path": str(path)})
    cfg["partition"] = {"b_target": 1}
    cfg["model"]["loss"] = "logistic-classification"
    _forbid_partition_and_fit(monkeypatch)
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "labels must be -1 or +1" in err and "0.5" in err


def test_cli_audit_rejects_a_z_label_the_loss_cannot_take_before_any_fit(
        tmp_path, capsys, monkeypatch):
    cfg = base_config(audit={"z": {"x": [0.5, -0.5], "y": 0.5}})
    cfg["dataset"] = {"kind": "synthetic", "task": "two-moons", "n": 40,
                      "dim": 2, "noise": 0.1, "seed": 7}
    cfg["model"]["loss"] = "logistic-classification"
    _forbid_partition_and_fit(monkeypatch)
    rc = cli.main(["audit", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "audit.z.y" in err and "labels must be -1 or +1" in err


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


def test_cli_audit_z_grid_too_large_exits_2(tmp_path, capsys, monkeypatch):
    # 5 ** 10 = 9 765 625 contamination points; the cap rejects them before
    # any grid exists, and a meshgrid call would fail the test
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, size=(30, 10))
    path = tmp_path / "data.csv"
    header = ",".join(f"x{j}" for j in range(10)) + ",y"
    rows = [",".join(f"{v:.6f}" for v in x) + f",{np.sin(x.sum()):.6f}" for x in X]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    cfg = base_config(dataset={"kind": "csv", "path": str(path)},
                      audit={"z_grid": 5, "maxbias_eps": 0.0})
    cfg["partition"] = {"b_target": 1, "min_region_size": 3}
    cfg_path = write_config(tmp_path, cfg)

    def no_grid(*args, **kwargs):
        raise AssertionError("the z grid was built")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "z_grid" in capsys.readouterr().err


def test_import_cli_leaves_scipy_stats_unloaded(tmp_path):
    import subprocess
    import sys

    # no command imports scipy or jsonschema: the audit probes embed their
    # Sobol direction numbers, and configs are checked in-package; and at
    # one thread (the default) none loads the composer's pool,
    # concurrent.futures, or the logging it imports. Each command also runs
    # with scipy unimportable, and writes the same files
    src = str(Path(cli.__file__).resolve().parents[1])
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.1},
                      experiment={"kind": "tradeoff", "lambda_grid": [1.0],
                                  "eval_n": 200})
    cfg["dataset"]["n"] = 30
    cfg_path = write_config(tmp_path, cfg)
    loaded = ("print('modules:', *(m for m in sys.modules "
              "if sys.modules[m] is not None and m.split('.')[0] in "
              "('scipy', 'jsonschema', 'concurrent', 'logging')))")
    for block, suffix in (("", ""), ("sys.modules['scipy'] = None; ", "-blocked")):
        for command in ("", "train", "audit", "experiment"):
            out = str(tmp_path / (command + suffix))
            run = (f"rc = localsvm.cli.main([{command!r}, '--config', "
                   f"{cfg_path!r}, '--out', {out!r}]); assert rc == 0, rc; "
                   if command else "")
            code = "import sys; " + block + "import localsvm.cli; " + run + loaded
            result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                    capture_output=True, timeout=120)
            assert result.returncode == 0, (block, result.stderr.decode())
            last = result.stdout.decode().splitlines()[-1]
            assert last.split() == ["modules:"], (block, command, last)
    for command, output in (("train", "model.json"), ("audit", "audit.json"),
                            ("experiment", "tradeoff.json")):
        assert ((tmp_path / command / output).read_bytes()
                == (tmp_path / f"{command}-blocked" / output).read_bytes())


@pytest.mark.parametrize("command", ["train", "audit", "audit --model"])
def test_per_region_naming_a_missing_region_exits_2_before_any_fit(
        tmp_path, capsys, monkeypatch, command):
    # region 9 of a two-region partition would be silently ignored
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    argv = command.split()
    if command == "audit --model":
        assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "m")]) == 0
        argv.append(str(tmp_path / "m" / "model.json"))
    cfg["model"]["per_region"] = [{"region": 1, "lambda": 0.1},
                                  {"region": 9, "lambda": 0.1}]

    def no_fit(*args, **kwargs):
        raise AssertionError("a local model was trained")

    for module in (composer, robustness):
        monkeypatch.setattr(module, "train", no_fit)
    rc = cli.main(argv + ["--config", write_config(tmp_path, cfg),
                          "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "model.per_region names region(s) [9]" in err
    assert "regions 1..2" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "audit"])
def test_a_bump_bandwidth_whose_square_underflows_exits_2_before_any_fit(
        tmp_path, capsys, monkeypatch, command):
    # the weights would be 0/0 at the ball centers, so no command may run
    cfg = base_config(scheme={"kind": "smooth-bump", "h": 1e-200},
                      audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 12
    cfg["partition"].update(b_target=12, min_region_size=1)

    def no_fit(*args, **kwargs):
        raise AssertionError("a local model was trained")

    for module in (composer, robustness):
        monkeypatch.setattr(module, "train", no_fit)
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "h=1e-200" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "audit"])
def test_cli_overflowing_gram_is_input_error(tmp_path, capsys, command):
    # (x'y + 1)^400 overflows the Gram: a config error (exit 2) naming the
    # kernel, raised before any solve and without numpy's overflow warning,
    # which the suite's warning filter would turn into an exception
    cfg = base_config(audit={"z_grid": 2})
    cfg["model"]["kernel"] = {"family": "polynomial", "degree": 400,
                              "offset": 1.0}
    rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "input error:" in err and "'polynomial'" in err and "overflows" in err
    assert not any((tmp_path / "o").glob("*.json"))


def test_cli_train_polynomial_with_large_kernel_diagonal(tmp_path):
    # region 1's Gram is rank one with K_ii up to 8.8e4; with an absolute
    # full-step threshold Armijo stalled at grad norm 8e-5 and this exited 3
    cfg = {"version": 1,
           "dataset": {"kind": "synthetic", "task": "sine-regression",
                       "n": 40, "dim": 1, "noise": 0.0, "seed": 70},
           "partition": {"b_target": 5, "tau": 2.0, "min_region_size": 1,
                         "seed": 1},
           "scheme": {"kind": "smooth-bump", "h": 0.5},
           "model": {"loss": "logistic-regression",
                     "kernel": {"family": "polynomial", "degree": 5,
                                "offset": 0.0},
                     "lambda": 1e-3}}
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "model.json").is_file()


TINY_LAMBDA_SEEDS = [0, 3, 4, 6]


def _tiny_lambda_audit(tmp_path, seed):
    """Audit two points in 3-d with a degree-4 polynomial kernel and
    lambda 1e-6 (K_ii up to ~1e5); returns the exit code."""
    cfg = {"version": 1,
           "dataset": {"kind": "synthetic", "task": "sine-regression",
                       "n": 2, "dim": 3, "noise": 0.0, "seed": seed},
           "partition": {"b_target": 1, "tau": 2.0, "min_region_size": 1,
                         "seed": 1},
           "scheme": {"kind": "normalized-indicator"},
           "model": {"loss": "logistic-regression",
                     "kernel": {"family": "polynomial", "degree": 4,
                                "offset": 0.0},
                     "lambda": 1e-6},
           "audit": {"extra_probes": 16, "z_grid": 2}}
    # the fit all but interpolates, so f~ - f does not shrink with eps
    with pytest.warns(LadderConvergenceWarning):
        return cli.main(["audit", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("seed", TINY_LAMBDA_SEEDS)
def test_cli_audit_polynomial_with_tiny_lambda(tmp_path, seed):
    # Seed 3 stalled above grad_tol with an absolute full-step threshold;
    # seeds 0, 4 and 6 stalled at grad norm 1e-10 to 3e-8 with an absolute
    # grad_tol, and seed 4 then needs a line search on its steepest-descent
    # fallbacks
    assert _tiny_lambda_audit(tmp_path, seed) == 0
    assert (tmp_path / "o" / "audit.json").is_file()


@pytest.mark.parametrize("seed", TINY_LAMBDA_SEEDS)
def test_tiny_lambda_audit_takes_only_newton_steps(tmp_path, monkeypatch, seed):
    # with CG capped at n iterations these fits fell back to steepest
    # descent 16 to 221 times, after solves ending 8e3 to 2e7 times over
    # their stopping residual
    infos = []

    def recording(*args, **kwargs):
        model = train(*args, **kwargs)
        infos.append(model.solve_info)
        return model

    monkeypatch.setattr("localsvm.composer.train", recording)
    monkeypatch.setattr("localsvm.robustness.train", recording)
    assert _tiny_lambda_audit(tmp_path, seed) == 0
    assert len(infos) > 1
    assert all(info.fallbacks == 0 for info in infos)
    assert max(info.cg_residual_ratio_max for info in infos) <= 1.0


def _summary_rebuilding_samples(model, data):
    """The train summary as written before it read n_b off the models."""
    from localsvm import restrict

    lines = [f"regions: {model.partition.B}"]
    for b in sorted(model.locals):
        local = model.locals[b]
        sample_b = restrict(data, model.partition.members(data.X)[b - 1])
        n_b = 0 if sample_b is None else sample_b.n
        if b in model.null_region_ids:
            lines.append(f"  region {b}: n_b={n_b} null measure, zero predictor")
            continue
        h = local.h_norm()
        cap = local.h_norm_bound(1.0 if local.kernel.family == "gaussian-rbf"
                                 else float(np.sqrt(np.maximum(
                                     local.kernel.diag(local.anchors), 0.0)).max()))
        lines.append(
            f"  region {b}: n_b={n_b} lambda={local.lam:g} "
            f"|f|_H={h:.6g} bound={cap:.6g} margin={cap - h:.3g}"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("kernel", [GaussianRBF(gamma=1.0, input_dim=2),
                                    Polynomial(degree=2, offset=1.0, input_dim=2)],
                         ids=["rbf", "polynomial"])
def test_train_summary_unchanged(tmp_path, kernel):
    task = SyntheticTask("sine-regression", dim=2, noise=0.3, seed=7)
    data = generate(task, 60)
    part = regionalize(data.X, 2, 0.25, 5, seed=1)
    far = manual_partition([r.center for r in part.regions] + [[50.0, 50.0]],
                           [r.radius for r in part.regions] + [1.0])
    config = ModelConfig(loss=LogisticRegression(), kernel=kernel,
                         train=TrainConfig(lam=0.5))
    for partition in (part, far):
        model = fit_composed(data, WeightScheme("normalized-indicator", partition),
                             config)
        assert cli._train_summary(model) == _summary_rebuilding_samples(model, data)
    assert model.null_region_ids == {3}

    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    model = ComposedModel.from_dict(json.loads((tmp_path / "model.json").read_text()))
    expected = _summary_rebuilding_samples(model, data)
    assert (tmp_path / "train_summary.txt").read_text() == expected + "\n"


def test_cli_audit_rejects_model_with_other_anchors(tmp_path, capsys):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model_path = tmp_path / "m" / "model.json"
    model = json.loads(model_path.read_text())
    # same region sizes, one anchor nudged: the warm start would line up in
    # length but not in position
    model["locals"][0]["anchors"][0][0] += 1e-9
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(model_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "anchors differ" in capsys.readouterr().err


def test_cli_audit_rejects_a_model_of_another_dimension(tmp_path, capsys):
    # a local kernel of another input dimension is rejected on load, naming
    # its region, before any prediction
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model_path = tmp_path / "m" / "model.json"
    model = json.loads(model_path.read_text())
    model["locals"][1]["kernel"]["input_dim"] = 3
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(model_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ("region 2 is 2-d, but its local model's kernel takes 3-d points"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_a_null_local_of_a_huge_dimension_is_an_input_error(tmp_path, capsys):
    # a null local's empty anchors take their shape from its kernel, so its
    # input_dim is checked against the region's dimension before that
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model_path = tmp_path / "m" / "model.json"
    model = json.loads(model_path.read_text())
    far = len(model["locals"]) + 1
    model["partition"]["regions"].append({"id": far, "center": [50.0, 50.0],
                                          "radius": 1.0})
    model["locals"].append({**model["locals"][0], "region_id": far,
                            "anchors": [], "alpha": [],
                            "kernel": {**model["locals"][0]["kernel"],
                                       "input_dim": 10 ** 20}})
    model["null_region_ids"] = [far]
    model_path.write_text(json.dumps(model))
    message = (f"region {far} is 2-d, but its local model's kernel takes "
               f"{10 ** 20}-d points")
    with pytest.raises(InputError, match=message):
        load_model(model_path)
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(model_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _set(*path, value):
    """The malform that sets the node at ``path`` to ``value(node)``
    (``value(None)`` for a key the model does not have)."""
    def malform(m):
        m = copy.deepcopy(m)
        node = m
        for key in path[:-1]:
            node = node[key]
        last = path[-1]
        node[last] = value(node.get(last) if isinstance(node, dict) else node[last])
        return m
    return malform


# a malformed model and the error it gives; each case from "lambda-string"
# on is a train output the model reader once took or coerced
_MALFORMED_MODELS = {
    "top-level-list": (lambda m: [m], "at $: [{"),
    "regions-int": (_set("partition", "regions", value=lambda r: 5),
                    "at $.partition.regions: 5 is not of type 'array'"),
    "region-entry-int": (_set("partition", "regions", 0, value=lambda r: 5),
                         "at $.partition.regions[0]: 5 is not of type 'object'"),
    "locals-int": (_set("locals", value=lambda ls: 5),
                   "at $.locals: 5 is not of type 'array'"),
    "local-entry-list": (_set("locals", 0, value=lambda e: [1, 2]),
                         "at $.locals[0]: [1, 2] is not of type 'object'"),
    "kernel-string": (_set("locals", 0, "kernel", value=lambda k: "rbf"),
                      "at $.locals[0].kernel: 'rbf' is not of type 'object'"),
    "scheme-null": (_set("scheme", value=lambda s: None),
                    "at $.scheme: None is not of type 'object'"),
    "lambda-null": (_set("locals", 0, "lambda", value=lambda x: None),
                    "at $.locals[0].lambda: None is not of type 'number'"),
    "lambda-string": (_set("locals", value=lambda ls: [
        {**e, "lambda": str(e["lambda"])} for e in ls]),
        "at $.locals[0].lambda: '0.5' is not of type 'number'"),
    "indicator-h": (_set("scheme", "h", value=lambda h: 0.3),
                    "at $.scheme.h: None was expected, got 0.3"),
    "tau-string": (_set("partition", "tau", value=str),
                   "at $.partition.tau: '0.25' is not of type 'number'"),
    "region-id-string": (_set("locals", 0, "region_id", value=str),
                         "at $.locals[0].region_id: '1' is not of type 'integer'"),
    "alpha-strings": (_set("locals", 0, "alpha", value=lambda a: list(map(str, a))),
                      "at $.locals[0].alpha[0]: '"),
    "stray-key": (lambda m: {**m, "note": 1}, "at $: unexpected key(s) 'note'"),
    "old-region-key": (_set("partition", "regions", 0, "exclusive",
                            value=lambda x: True),
                       "at $.partition.regions[0]: unexpected key(s) 'exclusive'"),
    "kernel-degree": (_set("locals", 0, "kernel", "degree", value=lambda x: 2),
                      "at $.locals[0].kernel: unexpected key(s) 'degree'"),
    "null-region-ids": (_set("null_region_ids", value=lambda ids: [2]),
                        "null_region_ids [2] are not the regions without "
                        "anchors, []"),
    "repeated-local": (_set("locals", value=lambda ls: ls + ls[-1:]),
                       "locals name a region more than once"),
    "ragged-anchor": (_set("locals", 0, "anchors", 0, value=lambda row: row[:1]),
                      "points must form a 2-d array of numbers"),
    "center-3d": (_set("partition", "regions", 1, "center",
                       value=lambda c: c + [0.0]),
                  "regions must share one dimension, got [2, 3]"),
}


@pytest.mark.parametrize("malform", sorted(_MALFORMED_MODELS))
def test_cli_audit_rejects_a_malformed_model(tmp_path, capsys, malform):
    # valid JSON of the wrong structure is an input error (exit 2), not a
    # traceback under exit 1, which means a violated bound
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model_path = tmp_path / "m" / "model.json"
    model = json.loads(model_path.read_text())
    edit, message = _MALFORMED_MODELS[malform]
    model_path.write_text(json.dumps(edit(model)))
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(model_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot parse model {model_path}: " in err, err
    assert message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corrupt", ["nan-alpha", "inf-anchor", "nan-radius",
                                     "nan-center"])
def test_cli_audit_rejects_a_model_with_non_finite_values(tmp_path, capsys,
                                                          corrupt):
    # json.load reads NaN and Infinity; the model must not reach the solver
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model_path = tmp_path / "m" / "model.json"
    model = json.loads(model_path.read_text())
    local, region = model["locals"][0], model["partition"]["regions"][0]
    if corrupt == "nan-alpha":
        local["alpha"][0] = float("nan")
    elif corrupt == "inf-anchor":
        local["anchors"][0][1] = float("inf")
    elif corrupt == "nan-radius":
        region["radius"] = float("nan")
    else:
        region["center"][0] = float("nan")
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(model_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "audit.json").exists()


def test_cli_audit_rejects_a_model_with_another_region_count(tmp_path, capsys):
    grid = BENCHMARK_CONFIGS / "audit-grid.json"
    raw = json.loads(grid.read_text())
    raw["partition"]["b_target"] = 3
    assert cli.main(["train", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    rc = cli.main(["audit", "--config", str(grid),
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ("model partition does not match the config partition"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "audit.json").exists()


def test_cli_audit_rejects_a_model_with_another_partition_seed(tmp_path, capsys):
    # same data and region count, other balls: the audit must not run on
    # the model's partition in place of the config's
    grid = BENCHMARK_CONFIGS / "audit-grid.json"
    raw = json.loads(grid.read_text())
    raw["audit"]["z_grid"] = 2
    raw["partition"]["seed"] = 3
    assert cli.main(["train", "--config", write_config(tmp_path, raw, "seed3.json"),
                     "--out", str(tmp_path / "m")]) == 0
    raw["partition"]["seed"] = 11
    cfg_path = write_config(tmp_path, raw, "seed11.json")
    model = json.loads((tmp_path / "m" / "model.json").read_text())
    assert len(model["partition"]["regions"]) == raw["partition"]["b_target"]
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path,
                   "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ("model partition does not match the config partition"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "audit.json").exists()


@pytest.mark.parametrize("kernel", [{"family": "linear"},
                                    {"family": "polynomial", "degree": 2,
                                     "offset": 1.0}],
                         ids=["linear", "polynomial"])
def test_cli_experiment_tradeoff_non_rbf_kernels(tmp_path, kernel):
    from dataclasses import replace

    from localsvm import if_bound

    cfg = base_config(experiment={"kind": "tradeoff",
                                  "lambda_grid": [1.0, 0.5],
                                  "eval_n": 500})
    cfg["model"]["kernel"] = kernel
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["experiment", "--config", cfg_path,
                   "--out", str(tmp_path / "exp")])
    assert rc == 0
    report = json.loads((tmp_path / "exp" / "tradeoff.json").read_text())

    # the sweep's bound is if_bound on the balls of the sweep's partition
    raw = load_config(cfg_path)
    _, pc = setup_from_config(raw)
    task = task_from_config(raw)
    config = model_config_from_config(raw, task.dim)
    data = generate(task, raw["dataset"]["n"])
    part = regionalize(data.X, pc.b_target, pc.tau, pc.min_region_size, pc.seed)
    scheme = WeightScheme(pc.scheme, part, h=pc.h)
    for row in report["rows"]:
        cfg_lam = ModelConfig(loss=config.loss, kernel=config.kernel,
                              train=replace(config.train, lam=row["lambda"]))
        expected = if_bound(scheme, cfg_lam).if_bound_rough
        assert row["if_bound_rough"] == expected


@pytest.mark.parametrize("kernel", [{"family": "linear"},
                                    {"family": "polynomial", "degree": 2,
                                     "offset": 1.0}],
                         ids=["linear", "polynomial"])
def test_cli_audit_non_rbf_factors_from_balls(tmp_path, capsys, kernel):
    cfg = base_config(audit={"z_grid": 2})
    cfg["model"]["kernel"] = kernel
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "a")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "note:" not in out
    report = json.loads((tmp_path / "a" / "audit.json").read_text())

    # ||k_b|| = ||c_b|| + r_b, or ((||c_b|| + r_b)^2 + 1)^(2/2), on the
    # balls the config builds
    raw = load_config(cfg_path)
    data, pc = setup_from_config(raw)
    part = pc.build(data.X).partition
    terms = report["per_region_terms"]
    assert len(terms) == part.B
    for t, region in zip(terms, part.regions):
        rho = float(np.linalg.norm(region.center)) + region.radius
        k_sup = rho if kernel["family"] == "linear" else rho**2 + 1.0
        assert t["w_sup"] == 1.0
        assert t["k_sup"] == pytest.approx(k_sup, rel=1e-12)
        assert set(t) == {"region_id", "w_sup", "lambda", "k_sup", "term"}
    assert "notes" not in report


def test_cli_audit_json_is_strict_when_z_touches_no_region(tmp_path):
    # a z outside every ball leaves all regions untouched: every ladder
    # residual is 0, so the residual ratios are undefined
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3, 2.5e-3],
                             "extra_probes": 16,
                             "z": {"x": [50.0, 50.0], "y": 4.0},
                             "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "z")])
    assert rc == 0

    def reject(name):
        raise ValueError(f"audit.json holds the non-JSON constant {name}")

    text = (tmp_path / "z" / "audit.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["per_z"][0]["ratios"] == [None]


def test_public_names_resolve_and_tracer_instruments():
    import os
    import subprocess
    import sys

    import localsvm

    for name in localsvm.__all__:
        assert hasattr(localsvm, name), name

    # the benchmark tracer looks up every name it wraps; a missing one
    # fails instrument() with an AttributeError
    root = Path(__file__).resolve().parents[1]
    code = ("import layers\n"
            "class Stub:\n"
            "    def wrap(self, fn, name, attrs=None):\n"
            "        return fn\n"
            "layers.instrument(Stub())\n")
    path = os.pathsep.join([str(root / "src"), str(root / "benchmark")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()


def test_cli_audit_z_of_wrong_dimension_exits_2(tmp_path, capsys, monkeypatch):
    cfg = base_config(audit={"z": {"x": [0.1, 0.2, 0.3], "y": 1.0},
                             "maxbias_eps": 0.0})
    cfg_path = write_config(tmp_path, cfg)

    def no_audit(*args, **kwargs):
        raise AssertionError("the audit ran")

    monkeypatch.setattr(cli, "run_audit", no_audit)
    rc = cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "audit.z.x" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("where", ["z", "tau"])
def test_cli_non_finite_config_number_exits_2(tmp_path, capsys, where, literal):
    cfg = base_config(audit={"z": {"x": [0.1, 0.2], "y": 1.0},
                             "maxbias_eps": 0.0})
    if where == "z":
        cfg["audit"]["z"]["x"][0] = "LITERAL"
    else:
        cfg["partition"]["tau"] = "LITERAL"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
    rc = cli.main(["audit", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"non-finite number {literal}" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [401, 5001])
def test_cli_integer_literal_no_float_can_hold_exits_2(tmp_path, capsys, digits):
    # 401 digits overflow a float; 5 001 also pass Python's int-string limit
    literal = "1" * digits
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.0})
    cfg["dataset"]["n"] = 40
    gamma = copy.deepcopy(cfg)
    gamma["model"]["kernel"]["gamma"] = "LITERAL"
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(gamma).replace('"LITERAL"', literal))
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    shown = f"holds the non-finite number {literal[:20]}... ({digits} characters)"
    assert f"config {shown}: {path}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "m")]) == 0
    model = json.loads((tmp_path / "m" / "model.json").read_text())
    model["locals"][0]["lambda"] = "LITERAL"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model).replace('"LITERAL"', literal))
    capsys.readouterr()
    rc = cli.main(["audit", "--config", cfg_path, "--model", str(path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"model {shown}: {path}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# an integral float where the schema reads an integer, which JSON Schema
# counts as an integer, under each command that reads the field; the edited
# config must write its integer twin's outputs
_INTEGRAL_FLOATS = [
    *((command, path) for path in (("partition", "b_target"),
                                   ("partition", "min_region_size"),
                                   ("partition", "seed"))
      for command in ("train", "audit", "experiment")),
    ("experiment", ("experiment", "n_ladder", 0)),
]


@pytest.mark.parametrize("command, field", _INTEGRAL_FLOATS,
                         ids=[f"{c}-{'.'.join(map(str, p))}"
                              for c, p in _INTEGRAL_FLOATS])
def test_cli_integral_float_writes_its_integer_twins_outputs(tmp_path, command,
                                                             field):
    cfg = base_config(audit={"eps_ladder": [1e-2, 5e-3], "extra_probes": 16,
                             "z_grid": 2, "maxbias_eps": 0.1},
                      experiment={"kind": "consistency", "n_ladder": [30, 60],
                                  "eval_n": 200})
    *path, last = field
    twin = copy.deepcopy(cfg)
    node = twin
    for key in path:
        node = node[key]
    node[last] = float(node[last])
    outputs = []
    for name, c in (("int", cfg), ("float", twin)):
        out = tmp_path / name
        assert cli.main([command, "--config", write_config(tmp_path, c, f"{name}.json"),
                         "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_cli_experiment_builds_one_partition_per_rung(tmp_path, monkeypatch):
    from localsvm import RegionPartition

    cfg = base_config(experiment={"kind": "consistency",
                                  "n_ladder": [30, 40, 50, 60, 70],
                                  "eval_n": 200})
    cfg_path = write_config(tmp_path, cfg)
    built = []
    init = RegionPartition.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RegionPartition, "__init__", counting_init)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "exp")]) == 0
    assert len(built) == 5


@pytest.mark.parametrize("kind", ["consistency", "tradeoff"])
def test_cli_experiment_draws_only_the_samples_it_uses(tmp_path, monkeypatch,
                                                       kind):
    # one training sample per ladder rung (or one for the whole sweep) and
    # the evaluation sample; the config's own dataset is never drawn
    import localsvm.config as config_mod
    import localsvm.experiments as experiments

    exp = ({"kind": "consistency", "n_ladder": [30, 40, 50], "eval_n": 200}
           if kind == "consistency"
           else {"kind": "tradeoff", "lambda_grid": [1.0, 0.5], "eval_n": 200})
    cfg_path = write_config(tmp_path, base_config(experiment=exp))
    drawn = []

    def counting_generate(task, n, *args, **kwargs):
        drawn.append(n)
        return generate(task, n, *args, **kwargs)

    for module in (experiments, config_mod):
        monkeypatch.setattr(module, "generate", counting_generate)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "exp")]) == 0
    expected = [200, 30, 40, 50] if kind == "consistency" else [60, 200]
    assert drawn == expected


def _experiment_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, cfg):
    """Run ``localsvm experiment`` on cfg, with drawing a sample an error;
    assert it exits 2 and writes nothing, and return its stderr."""
    import localsvm.config as config_mod
    import localsvm.experiments as experiments

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    for module in (experiments, config_mod):
        monkeypatch.setattr(module, "generate", no_draw)
    rc = cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert not (tmp_path / "o").exists()
    return err


@pytest.mark.parametrize("entry", [
    {"region": 9, "kernel": {"family": "linear"}, "lambda": 0.1},
    {"region": 9, "kernel": {"family": "linear"}}], ids=["kernel-lambda", "kernel"])
def test_experiment_per_region_beyond_b_target_exits_2(tmp_path, monkeypatch,
                                                       capsys, entry):
    # no partition of the experiment has a region 9: the entry would be ignored
    cfg = base_config(experiment=TRADEOFF)
    cfg["partition"]["b_target"] = 4
    cfg["model"]["per_region"] = [entry]
    err = _experiment_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, cfg)
    assert "model.per_region names region(s) [9]" in err
    assert "b_target = 4" in err


def test_experiment_per_region_lambda_exits_2(tmp_path, monkeypatch, capsys):
    # the schedule sets every region's lambda: the entry would be ignored
    cfg = base_config(experiment=CONSISTENCY)
    cfg["model"]["per_region"] = [{"region": 1, "lambda": 0.1}]
    err = _experiment_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, cfg)
    assert "model.per_region sets lambda" in err


def test_experiment_per_region_kernel_is_used(tmp_path):
    # a per-region kernel within b_target still takes effect
    outputs = []
    for per_region in ([], [{"region": 1, "kernel": {"family": "linear"}}]):
        cfg = base_config(experiment=TRADEOFF)
        cfg["model"]["per_region"] = per_region
        out = tmp_path / str(len(per_region))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        outputs.append((out / "tradeoff.json").read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_cli_json_outputs_reject_non_finite_values(tmp_path, monkeypatch,
                                                   capsys, command):
    from localsvm.experiments import SweepReport

    cfg = base_config(experiment={"kind": "tradeoff", "lambda_grid": [1.0],
                                  "eval_n": 200})
    cfg_path = write_config(tmp_path, cfg)
    if command == "train":
        to_dict = ComposedModel.to_dict
        monkeypatch.setattr(ComposedModel, "to_dict",
                            lambda self: dict(to_dict(self), nan=float("nan")))
        output = "model.json"
    else:
        row = {"lambda": 1.0, "risk": 0.5, "if_bound_rough": float("inf"),
               "mc_stderr": 0.0}
        monkeypatch.setattr(cli, "tradeoff_sweep",
                            lambda *a, **k: SweepReport(rows=[row], n=60,
                                                        eval_n=200))
        output = "tradeoff.json"
    rc = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{output} would hold a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # not even the CSV


def test_setup_from_config_partition_defaults_are_the_library_defaults(
        tmp_path, monkeypatch):
    from localsvm import PartitionConfig
    from localsvm.experiments import TrendReport
    from localsvm.robustness import AuditReport

    cfg = base_config(scheme={"kind": "smooth-bump", "h": 0.7})
    cfg["partition"] = {"b_target": 3}
    _, pc = setup_from_config(cfg)
    assert pc == PartitionConfig(b_target=3, scheme="smooth-bump", h=0.7)
    # the recipe's defaults are regionalize's
    for name, param in inspect.signature(regionalize).parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert getattr(pc, name) == param.default, name
    # so are the task's, the schedule's, eval_n and maxbias_eps
    cfg["dataset"] = {"kind": "synthetic", "task": "sine-regression", "n": 30}
    task = task_from_config(cfg)
    for name, param in inspect.signature(SyntheticTask).parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert getattr(task, name) == param.default, name
    passed = {}

    def fake_trend(task, n_ladder, schedule, pc, config, **kwargs):
        passed.update(kwargs, schedule=schedule)
        return TrendReport(rows=[], eval_n=1)

    def fake_audit(*args, **kwargs):
        passed.update(kwargs)
        return AuditReport(if_bound_rough=1.0, empirical={"if_sup": 0.0})

    monkeypatch.setattr(cli, "consistency_trend", fake_trend)
    monkeypatch.setattr(cli, "run_audit", fake_audit)
    cfg["experiment"] = {"kind": "consistency", "n_ladder": [30, 40]}
    cfg["audit"] = {"z_grid": 1}
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
    # --threads is a flag, not a config key: the command always passes it
    assert passed == {"schedule": LambdaSchedule(), "threads": 1}
    for name, param in inspect.signature(LambdaSchedule).parameters.items():
        assert getattr(passed["schedule"], name) == param.default, name
    assert cli.main(["audit", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert "maxbias_eps" not in passed


def test_benchmark_configs_load_and_build():
    configs = sorted(BENCHMARK_CONFIGS.glob("*.json"))
    assert len(configs) == 3
    for path in configs:
        raw = load_config(path)
        data, pc = setup_from_config(raw)
        model_config_from_config(raw, data.dim)
        scheme = pc.build(data.X)
        assert 1 <= scheme.partition.B <= raw["partition"]["b_target"], path.name
        assert (scheme.kind, scheme.h) == (raw["scheme"]["kind"],
                                          raw["scheme"].get("h")), path.name

import csv
import json

import numpy as np
import pytest

import labelregret as lr
from labelregret import cli
from labelregret._io import write_table
from labelregret.dataset import save_semisynthetic

from conftest import write_lines


@pytest.fixture
def semisynth_dir(tmp_path):
    """A saved 20-point two-cluster semi-synthetic dataset."""
    ss = lr.two_cluster_semisynthetic(20, lr.LabelDrawSeed(7))
    directory = tmp_path / "ss"
    directory.mkdir()
    save_semisynthetic(ss, directory / "semisynth.csv", directory / "semisynth.json")
    return directory


def true_regret(directory, out):
    return cli.dispatch(["true-regret", "--semisynth", str(directory), "--k", "20",
                         "--seed", "3", "--out", str(out)])


class TestSemisynthLoadErrors:
    """A damaged --semisynth directory ends as a package error with exit code 1."""

    def test_intact_directory_runs(self, semisynth_dir, tmp_path):
        assert true_regret(semisynth_dir, tmp_path / "out") == 0

    def test_truncated_row(self, semisynth_dir, tmp_path, capsys):
        path = semisynth_dir / "semisynth.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # drop the true_prob cell of data row 2
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert true_regret(semisynth_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("NonNumericCell: ") and "data row 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["seed", "theta", "feature_names"])
    def test_sidecar_without_key(self, semisynth_dir, tmp_path, capsys, key):
        path = semisynth_dir / "semisynth.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        del sidecar[key]
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        assert true_regret(semisynth_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("BadJsonFile: ") and repr(key) in err
        assert "Traceback" not in err


@pytest.fixture
def data_csv(tmp_path):
    """A 12-point, 2-feature CSV with 0/1 labels."""
    ss = lr.gaussian_semisynthetic(12, 2, [1.0, -0.7], 42)
    path = tmp_path / "data.csv"
    write_table(path, ["a", "b", "label"],
                [*ss.base.features.T, (ss.base.labels + 1) // 2])
    return path


def _edit_json(path, change):
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(change(payload)), encoding="utf-8")


def _bad_config(tmp_path, data_csv, semisynth_dir, text):
    (tmp_path / "cfg.json").write_text(text, encoding="utf-8")
    return ["regret", "--data", str(data_csv), "--config", str(tmp_path / "cfg.json")]


def _bad_model(tmp_path, data_csv, semisynth_dir, change):
    assert cli.dispatch(["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit")]) == 0
    _edit_json(tmp_path / "fit" / "model.json", change)
    return ["theory", "--data", str(data_csv), "--model", str(tmp_path / "fit" / "model.json")]


def _bad_semisynth(tmp_path, data_csv, semisynth_dir, damage):
    damage(semisynth_dir)
    return ["true-regret", "--semisynth", str(semisynth_dir), "--k", "5"]


def _set_seed_to_int(directory):
    _edit_json(directory / "semisynth.json", lambda s: {**s, "seed": 5})


def _rename_feature(directory):
    _edit_json(directory / "semisynth.json", lambda s: {**s, "feature_names": ["x1", "x0"]})


def _empty_csv(directory):
    (directory / "semisynth.csv").write_text("", encoding="utf-8")


def _non_numeric_cell(directory):
    path = directory / "semisynth.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "abc," + lines[2].split(",", 1)[1]
    write_lines(path, lines)


def _bad_data(tmp_path, data_csv, semisynth_dir, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return ["fit", "--data", str(path)]


def _enumerate_data(tmp_path, data_csv, semisynth_dir, text):
    path = tmp_path / "enum.csv"
    path.write_text(text, encoding="utf-8")
    return ["enumerate", "--data", str(path), "--ridge", "0"]


def _rank_deficient_semisynth(tmp_path, data_csv, semisynth_dir, scale):
    """enumerate --semisynth at ridge 0 on 8 points whose columns are x and 2x
    times scale. No base fit runs, so the refits meet the design first."""
    x = np.random.default_rng(0).standard_normal(8)
    ss = lr.semisynthetic_from_model(np.column_stack([x, 2.0 * x]) * scale,
                                     lr.LogisticModel([0.4, -0.1]), lr.LabelDrawSeed(3))
    directory = tmp_path / "rank1"
    directory.mkdir()
    save_semisynthetic(ss, directory / "semisynth.csv", directory / "semisynth.json")
    return ["enumerate", "--semisynth", str(directory), "--ridge", "0"]


def _flags(tmp_path, data_csv, semisynth_dir, argv):
    return [str(data_csv) if arg == "DATA" else arg for arg in argv]


# longer than the csv module's default field size limit of 131,072 characters
BIG_CELL = "x" * 140_000

BAD_INPUTS = {
    "config holding a number": (_bad_config, "5", "BadJsonFile"),
    "config not JSON": (_bad_config, "{k_resamples", "BadJsonFile"),
    "config with an unknown key": (_bad_config, '{"k_resample": 3}', "UnknownConfigKey"),
    "config value of the wrong type": (_bad_config, '{"k_resamples": "abc"}', "ValueError"),
    "config grid of one cutoff": (_bad_config, '{"cutoff_grid": [0.5]}', "ValueError"),
    "model without includes_intercept": (
        _bad_model, lambda payload: {k: v for k, v in payload.items()
                                     if k != "includes_intercept"}, "BadJsonFile"),
    "model as a JSON list": (_bad_model, lambda payload: [1, 2], "BadJsonFile"),
    "model theta of strings": (_bad_model, lambda payload: {**payload, "theta": ["a"]},
                               "BadJsonFile"),
    "model standardization of strings": (
        _bad_model, lambda payload: {**payload, "standardization": {"mean": ["a", "b"],
                                                                    "std": [1.0, 1.0]}},
        "BadJsonFile"),
    "sidecar seed as an integer": (_bad_semisynth, _set_seed_to_int, "BadJsonFile"),
    "sidecar names not the CSV columns": (_bad_semisynth, _rename_feature,
                                          "MissingLabelColumn"),
    "empty semisynth.csv": (_bad_semisynth, _empty_csv, "EmptyDataset"),
    "non-numeric semisynth cell": (_bad_semisynth, _non_numeric_cell, "NonNumericCell"),
    "CSV header cell over the field limit": (
        _bad_data, f"{BIG_CELL},b,label\n1,2,1\n3,4,0\n", "UnreadableCsvRecord"),
    "cell over the field limit in a rejected row": (
        _bad_data, f"a,b,label\n1,2,1\n3,{BIG_CELL},0\n", "NonNumericCell"),
    "label column named twice": (_bad_data, "x,label,label\n1,1,0\n2,0,1\n",
                                 "MissingLabelColumn"),
    # A NaN or infinite setting would otherwise pass every comparison-based check
    # and end in zero regret, a theta = 0 model or NaN tokens in meta.json.
    "regret --grad-tol inf": (_flags, ["regret", "--data", "DATA", "--grad-tol", "inf"],
                              "ValueError"),
    "regret --ridge nan": (_flags, ["regret", "--data", "DATA", "--ridge", "nan"], "ValueError"),
    "regret --ridge inf": (_flags, ["regret", "--data", "DATA", "--ridge", "inf"], "ValueError"),
    "fit --ridge nan": (_flags, ["fit", "--data", "DATA", "--ridge", "nan"], "ValueError"),
    "fit --grad-tol nan": (_flags, ["fit", "--data", "DATA", "--grad-tol", "nan"], "ValueError"),
    "semisynth --gt-ridge nan": (_flags, ["semisynth", "--data", "DATA", "--gt-ridge", "nan"],
                                 "ValueError"),
    "theory --constant nan": (_flags, ["theory", "--data", "DATA", "--constant", "nan"],
                              "ValueError"),
    "theory --constant inf": (_flags, ["theory", "--data", "DATA", "--constant", "inf"],
                              "ValueError"),
    # At the default ridge of 0, the initial split of this population is separable.
    "active with a separable initial split": (
        _flags, ["active", "--seed", "7", "--n-points", "12", "--batch", "1", "--k", "50"],
        "InitialFitFailed"),
    # The regret estimate fits the base model first, so a separable base ends
    # as a failed initial fit, as it does in `regret` and `active`.
    "selective with a separable base": (
        _flags, ["selective", "--seed", "2", "--n-points", "6", "--k", "10"],
        "InitialFitFailed"),
    # enumerate fits its base model as regret does, so separable observed
    # labels end as a failed initial fit too.
    "enumerate with separable labels": (
        _enumerate_data, "x,label\n-1.0,0\n-0.5,0\n0.7,1\n1.2,1\n", "InitialFitFailed"),
    # A rank-deficient design has no unique fit at ridge 0, whatever its labels.
    "enumerate --semisynth on a rank-deficient design": (
        _rank_deficient_semisynth, 1.0, "SingularHessian"),
    # The K label rows are one Generator.random((K, n)) call, and numpy rejects
    # a K past the C ssize_t range in its shape check, before allocating.
    # (A K at or below 2**63 - 1 would try to allocate K rows.)
    "regret --k past the index range": (
        _flags, ["regret", "--data", "DATA", "--k", str(10 ** 20)], "ValueError"),
    # numpy rejects a feature matrix of this shape before allocating it, and the
    # default ground truth is built only after the features.
    "trials --n-features past the dimension limit": (
        _flags, ["trials", "--experiment", "theory_vs_actual", "--dataset", "gaussian",
                 "--n-features", str(10 ** 20)], "ValueError"),
}


@pytest.mark.parametrize("case", BAD_INPUTS, ids=list(BAD_INPUTS))
def test_bad_input_exits_1_with_one_line(case, tmp_path, data_csv, semisynth_dir, capsys):
    build, detail, error = BAD_INPUTS[case]
    argv = build(tmp_path, data_csv, semisynth_dir, detail)
    capsys.readouterr()
    assert cli.dispatch([*argv, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_long_valid_cell_does_not_hide_a_later_bad_cell(tmp_path, capsys):
    """The rejection scan reads cells of any length and then restores the csv limit."""
    path = tmp_path / "d.csv"
    path.write_text(f"a,b,label\n0.{'1' * 139_998},2,1\nabc,4,0\n", encoding="utf-8")
    limit = csv.field_size_limit()
    assert cli.dispatch(["fit", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "NonNumericCell: non-numeric cell at data row 1, column 'a': 'abc'\n"
    assert csv.field_size_limit() == limit


# Each command line lacks exactly one required flag.
MISSING_FLAG = [
    ["fit", "--out", "o"],
    ["fit", "--data", "d.csv"],
    ["regret", "--out", "o"],
    ["regret", "--data", "d.csv"],
    ["true-regret", "--out", "o"],
    ["true-regret", "--semisynth", "s"],
    ["enumerate", "--out", "o"],
    ["enumerate", "--data", "d.csv"],
    ["theory", "--out", "o"],
    ["theory", "--data", "d.csv"],
    ["semisynth", "--out", "o"],
    ["semisynth", "--data", "d.csv"],
    ["selective"],
    ["active"],
    ["trials", "--out", "o"],
    ["trials", "--experiment", "active"],
    [],
]


@pytest.mark.parametrize("argv", MISSING_FLAG, ids=[" ".join(a) or "none" for a in MISSING_FLAG])
def test_missing_required_flag_exits_2(argv, capsys):
    assert cli.dispatch(argv) == 2
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    (["fit", "--data", "DATA"], ["--ridge", "0.25", "--seed", "9", "--no-intercept"]),
    (["selective"], ["--n-points", "20", "--k", "10", "--p-high", "0.7", "--seed", "4"]),
    (["trials", "--experiment", "theory_vs_actual"],
     ["--n-trials", "1", "--n-points", "20", "--k", "10", "--dataset", "gaussian",
      "--n-features", "3"]),
], ids=["fit", "selective", "trials"])
def test_config_round_trip(command, flags, tmp_path, data_csv):
    """A run's meta.json config fed back through --config reproduces that config."""
    command = [str(data_csv) if arg == "DATA" else arg for arg in command]
    out, meta, cfg = tmp_path / "out", tmp_path / "out" / "meta.json", tmp_path / "cfg.json"
    assert cli.dispatch([*command, *flags, "--out", str(out)]) == 0
    first = json.loads(meta.read_text(encoding="utf-8"))["config"]
    cfg.write_text(json.dumps(first), encoding="utf-8")
    assert cli.dispatch([*command, "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(meta.read_text(encoding="utf-8"))["config"] == first


class TestTheoryModelColumns:
    """theory --model checks the model's feature names against the data's columns."""

    @pytest.fixture
    def model_path(self, tmp_path, data_csv):
        assert cli.dispatch(["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit")]) == 0
        return tmp_path / "fit" / "model.json"

    def test_matching_columns_run(self, tmp_path, data_csv, model_path):
        assert cli.dispatch(["theory", "--data", str(data_csv), "--model", str(model_path),
                             "--out", str(tmp_path / "out")]) == 0

    def test_swapped_columns_exit_1(self, tmp_path, data_csv, model_path, capsys):
        lines = data_csv.read_text(encoding="utf-8").splitlines()
        swapped = tmp_path / "swapped.csv"
        write_lines(swapped, [",".join([b, a, label])
                              for a, b, label in (line.split(",") for line in lines)])
        capsys.readouterr()
        assert cli.dispatch(["theory", "--data", str(swapped), "--model", str(model_path),
                             "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FeatureNameMismatch: ") and err.count("\n") == 1
        assert "['a', 'b']" in err and "['b', 'a']" in err
        assert "Traceback" not in err


class TestConfigFileAndFlags:
    """Flags win over --config, and only the merged config is validated."""

    def _run(self, tmp_path, data_csv, payload, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        return cli.dispatch(["regret", "--data", str(data_csv), "--config", str(cfg),
                             *flags, "--out", str(tmp_path / "out")])

    def test_flag_overrides_invalid_file_value(self, tmp_path, data_csv):
        assert self._run(tmp_path, data_csv, {"k_resamples": 1}, "--k", "10") == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["k_resamples"] == 10
        assert meta["report"]["n_resamples"] == 10

    def test_data_flag_completes_csv_dataset(self, tmp_path, data_csv):
        assert self._run(tmp_path, data_csv, {"dataset": "csv"}, "--k", "5") == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["dataset"] == "csv"
        assert meta["config"]["data_path"] == str(data_csv)

    def test_invalid_file_value_without_flag_exits_1(self, tmp_path, data_csv, capsys):
        assert self._run(tmp_path, data_csv, {"k_resamples": 1}) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and "k_resamples" in err


def _expected_config(**fields):
    """The config as meta.json stores it."""
    return json.loads(json.dumps(lr.ExperimentConfig(**fields).to_dict()))


@pytest.mark.parametrize("command", ["fit", "theory", "regret", "enumerate"])
def test_meta_json_contents(command, tmp_path, data_csv):
    """meta.json names the command, the files written, the resolved config and the report."""
    out = tmp_path / "out"
    flags = {"fit": ["--ridge", "0.5"], "theory": [], "regret": ["--k", "20", "--seed", "3"],
             "enumerate": ["--ridge", "0.1"]}[command]
    assert cli.dispatch([command, "--data", str(data_csv), *flags, "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == command
    written = sorted(p.name for p in out.iterdir() if p.name != "meta.json")
    assert meta["outputs"] == written == [{"fit": "model.json", "theory": "theory.csv",
                                           "regret": "regret.csv",
                                           "enumerate": "enumeration.csv"}[command]]
    common = {"dataset": "csv", "data_path": str(data_csv), "out_dir": str(out)}
    expected = {"fit": dict(include_intercept=True, ridge=0.5), "theory": {},
                "regret": dict(k_resamples=20, master_seed=3),
                "enumerate": dict(ridge=0.1)}[command]
    assert meta["config"] == _expected_config(**common, **expected)
    if command == "fit":
        assert set(meta) == {"command", "config", "outputs", "log_loss", "auc"}
        return
    report = meta["report"]
    if command == "theory":
        assert isinstance(report["epsilon"], float)
        assert report["bound_applies"] == (report["epsilon"] < 1.0)
    else:
        assert report["n_resamples"] == {"regret": 20, "enumerate": 2 ** 12}[command]
        assert isinstance(report["n_fallback_refits"], int)
        assert 0 <= report["n_fallback_refits"] <= report["n_resamples"]


class TestTheoryStandardizedModel:
    """theory --model computes q on the features the model was fitted on."""

    @pytest.mark.parametrize("standardize", [False, True], ids=["plain", "standardized"])
    def test_report_matches_the_fit(self, tmp_path, data_csv, standardize):
        fit_flags = ["--standardize"] if standardize else []
        assert cli.dispatch(["fit", "--data", str(data_csv), *fit_flags,
                             "--out", str(tmp_path / "fit")]) == 0
        model_path = tmp_path / "fit" / "model.json"
        assert ("standardization" in json.loads(model_path.read_text(encoding="utf-8"))
                ) == standardize
        out = tmp_path / "theory"
        assert cli.dispatch(["theory", "--data", str(data_csv), "--model", str(model_path),
                             "--out", str(out)]) == 0

        data = lr.load_csv(data_csv)
        if standardize:
            data, _ = lr.standardize_features(data)
        model = lr.fit_logistic(data, lr.FitOptions(include_intercept=True))
        expected = lr.theory_report(model, data.features)
        report = json.loads((out / "meta.json").read_text(encoding="utf-8"))["report"]
        assert report["epsilon"] == pytest.approx(expected.epsilon, rel=1e-12)
        assert report["lambda_min"] == pytest.approx(expected.lambda_min, rel=1e-12)
        q = np.loadtxt(out / "theory.csv", delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(q, expected.q, rtol=1e-12)

    def test_standardization_of_the_wrong_length_exits_1(self, tmp_path, data_csv, capsys):
        assert cli.dispatch(["fit", "--data", str(data_csv), "--standardize",
                             "--out", str(tmp_path / "fit")]) == 0
        model_path = tmp_path / "fit" / "model.json"
        _edit_json(model_path, lambda m: {**m, "standardization": {"mean": [0.0],
                                                                   "std": [1.0]}})
        capsys.readouterr()
        assert cli.dispatch(["theory", "--data", str(data_csv), "--model", str(model_path),
                             "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("DimensionMismatch: ") and err.count("\n") == 1

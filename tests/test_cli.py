import json

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
    "sidecar seed as an integer": (_bad_semisynth, _set_seed_to_int, "BadJsonFile"),
    "sidecar names not the CSV columns": (_bad_semisynth, _rename_feature,
                                          "MissingLabelColumn"),
    "empty semisynth.csv": (_bad_semisynth, _empty_csv, "EmptyDataset"),
    "non-numeric semisynth cell": (_bad_semisynth, _non_numeric_cell, "NonNumericCell"),
}


@pytest.mark.parametrize("case", BAD_INPUTS, ids=list(BAD_INPUTS))
def test_bad_input_exits_1_with_one_line(case, tmp_path, data_csv, semisynth_dir, capsys):
    build, detail, error = BAD_INPUTS[case]
    argv = build(tmp_path, data_csv, semisynth_dir, detail)
    capsys.readouterr()
    assert cli.dispatch([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Each command line lacks exactly one required flag.
MISSING_FLAG = [
    ["fit", "--out", "o"],
    ["fit", "--data", "d.csv"],
    ["regret", "--out", "o"],
    ["regret", "--data", "d.csv"],
    ["true-regret", "--out", "o"],
    ["true-regret", "--semisynth", "s"],
    ["bootstrap", "--out", "o"],
    ["bootstrap", "--data", "d.csv"],
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

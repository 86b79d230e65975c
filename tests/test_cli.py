import json

import pytest

import labelregret as lr
from labelregret import cli
from labelregret.dataset import save_semisynthetic


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
        assert err.startswith("MissingSidecarKey: ") and repr(key) in err
        assert "Traceback" not in err

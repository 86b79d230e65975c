import json

import numpy as np
import pytest

from labelregret import errors
from labelregret.config import ExperimentConfig

# One config per rule of ExperimentConfig.validate, each breaking that rule alone.
BROKEN = {
    "int field given a string": dict(k_resamples="abc"),
    "optional field given the wrong type": dict(n_batches=2.5),
    "seed below 0": dict(master_seed=-1),
    "seed above 64 bits": dict(master_seed=2 ** 64),
    "one resample": dict(k_resamples=1),
    "no trials": dict(n_trials=0),
    "negative ridge": dict(ridge=-0.1),
    "infinite ridge": dict(ridge=float("inf")),
    "negative ground-truth ridge": dict(ground_truth_ridge=-1.0),
    "zero gradient tolerance": dict(grad_tol=0.0),
    "infinite gradient tolerance": dict(grad_tol=float("inf")),
    "no iterations": dict(max_iters=0),
    "unknown dataset": dict(dataset="moons"),
    "csv without a path": dict(dataset="csv"),
    "three points": dict(n_points=3),
    "no features": dict(n_features=0),
    "p_high of one half": dict(p_high=0.5),
    "p_high of one": dict(p_high=1.0),
    "initial fraction of 0": dict(initial_fraction=0.0),
    "initial fraction of 1": dict(initial_fraction=1.0),
    "empty batches": dict(batch_size=0),
    "negative batch count": dict(n_batches=-1),
    "no threads": dict(threads=0),
    "grid of one cutoff": dict(cutoff_grid=[0.5]),
    "grid with an infinite cutoff": dict(cutoff_grid=[0.1, float("inf")]),
    "grid with a NaN cutoff": dict(cutoff_grid=[0.1, float("nan")]),
    "grid with a bool cutoff": dict(cutoff_grid=[0.1, True]),
    "empty true theta": dict(true_theta=[]),
    "true theta with a string": dict(true_theta=["1"]),
}


@pytest.mark.parametrize("fields", BROKEN.values(), ids=BROKEN.keys())
def test_each_rule_of_validate_raises(fields):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields).validate()


def test_the_defaults_are_valid():
    config = ExperimentConfig()
    assert config.validate() is config


@pytest.mark.parametrize("name", ["k_resamples", "ridge"])
def test_a_bool_is_no_number(name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**{name: True}).validate()


def test_a_numpy_integer_is_an_int():
    ExperimentConfig(k_resamples=np.int64(10), master_seed=np.uint64(3)).validate()


def test_overrides_win_over_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k_resamples": 10, "n_trials": 4}), encoding="utf-8")
    config = ExperimentConfig().with_file(path, k_resamples=20)
    assert (config.k_resamples, config.n_trials) == (20, 4)


def test_only_the_merged_config_is_validated(tmp_path):
    """A file value that breaks a rule is fine when an override replaces it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k_resamples": 1}), encoding="utf-8")
    assert ExperimentConfig().with_file(path, k_resamples=5).k_resamples == 5
    with pytest.raises(ValueError, match="k_resamples"):
        ExperimentConfig().with_file(path)


def test_an_unknown_file_key_is_named(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k_resample": 3}), encoding="utf-8")
    with pytest.raises(errors.UnknownConfigKey) as raised:
        ExperimentConfig().with_file(path)
    assert raised.value.keys == ("k_resample",)


def test_profile_rejects_an_unknown_name():
    assert ExperimentConfig.profile("desk").n_trials == 20
    with pytest.raises(ValueError, match="unknown profile"):
        ExperimentConfig.profile("huge")


def test_to_dict_round_trips_through_a_json_file(tmp_path):
    config = ExperimentConfig(master_seed=7, ridge=0.25, dataset="gaussian",
                              true_theta=[0.5, -1.5], cutoff_grid=[0.0, 0.5, 1.0],
                              n_batches=None, out_dir="runs")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert ExperimentConfig().with_file(path) == config

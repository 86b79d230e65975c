import pytest

from labelregret import glm, harness
from labelregret.config import ExperimentConfig


def test_trials_reject_custom_grid_before_any_refit(monkeypatch):
    """A grid whose length differs from the aggregation positions fails up front."""
    def no_refit(*args, **kwargs):
        raise AssertionError("a refit ran before the cutoff grid was rejected")

    for owner in (glm, harness):
        monkeypatch.setattr(owner, "fit_logistic", no_refit)
    monkeypatch.setattr(glm, "fit_logistic_batch", no_refit)
    cfg = ExperimentConfig(n_trials=3, n_points=20, k_resamples=10,
                           cutoff_grid=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=f"{harness.DEFAULT_GRID_POINTS} cutoffs"):
        harness.run_trials(cfg, "selective")

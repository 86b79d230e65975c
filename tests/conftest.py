import numpy as np
import pytest

import labelregret as lr


@pytest.fixture
def flat_trainer():
    """Logistic trainer with a small ridge; robust on tiny resamples."""
    return lr.LogisticTrainer(lr.FitOptions(ridge=0.01, include_intercept=False))


@pytest.fixture
def plain_trainer():
    """Unregularized, no-intercept logistic trainer."""
    return lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=False))


@pytest.fixture
def small_dataset():
    """Non-separable 8-point, 2-feature dataset with mixed labels."""
    features = lr.gaussian_features(8, 2, 123)
    ground_truth = lr.LogisticModel(np.array([0.9, -0.6]))
    ss = lr.semisynthetic_from_model(features, ground_truth, lr.LabelDrawSeed(123))
    return ss.base


@pytest.fixture
def cluster_ss():
    """Two-cluster semi-synthetic dataset (true probabilities 0.8 / 0.2)."""
    return lr.two_cluster_semisynthetic(200, lr.LabelDrawSeed(11))


class ConstantTrainer(lr.TrainerHandle):
    """Ignores the labels and predicts a fixed probability everywhere."""

    def __init__(self, value: float = 0.5):
        if not 0.0 <= value <= 1.0:
            raise ValueError("constant prediction must lie in [0, 1]")
        self.value = float(value)
        self.name = f"constant({value:g})"

    def fit(self, data, start=None):
        value = self.value
        return lambda X: np.full(np.atleast_2d(np.asarray(X)).shape[0], value)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def ladder_run(monkeypatch):
    """run(trainer, data, label_rows, cold=False) -> (samples, n_fallbacks,
    rungs): LogisticTrainer.fit_many on distinct label rows, predicting at
    data's features, and for each row the fit_logistic_batch call in which
    its fit succeeded: 0 for the first, 1 for the FALLBACK_RIDGES rung.
    cold=True starts the rung at theta = 0, as the cold oracle does."""
    glm = lr.glm

    def run(trainer, data, label_rows, cold=False):
        succeeded = {}
        batch = glm.fit_logistic_batch

        def recording(X, rows, opts=glm.FitOptions(), *, theta0=None):
            thetas, separable = batch(X, rows, opts, theta0=theta0)
            for labels, flagged in zip(rows, separable):
                if not flagged:
                    succeeded[labels.tobytes()] = recording.calls
            recording.calls += 1
            return thetas, separable

        recording.calls = 0
        with monkeypatch.context() as patch:
            patch.setattr(glm, "fit_logistic_batch", recording)
            if cold:
                patch.setattr(glm, "_rung_starts", lambda X, label_rows, opts: None)
            samples, n_fallbacks = trainer.fit_many(data, label_rows, data.features)
        return samples, n_fallbacks, [succeeded[labels.tobytes()] for labels in label_rows]

    return run


def write_large_csv(path, n_rows=3000, seed=29):
    """A headered CSV of n_rows rows of 20 standard-normal features and a 0/1
    label, written by write_table: about 390 bytes a row."""
    gen = np.random.default_rng(seed)
    features = gen.standard_normal((n_rows, 20))
    lr._io.write_table(path, [*(f"x{j}" for j in range(20)), "label"],
                       [*features.T, gen.integers(0, 2, n_rows)])

"""The names the benchmark in perfbench/ reaches into labelregret for.

perfbench/tracer.py wraps the functions in its TARGETS and counts
glm.fit_logistic.newton_steps from the loss trace of
fit_logistic(..., return_trace=True). The mc_separable oracle in
perfbench/workloads.py takes its base probabilities as
LogisticTrainer(opts).fit(Dataset(X, y))(X), which works because a fitted
LogisticModel is its own predictor, and refits each assignment as
trainer.fit_with_extra_ridge(data, extra)(X) along regret.FALLBACK_RIDGES. A
rename that drops any of them, or a change to what these calls return, breaks
the benchmark without failing any other test. The files are read, never
imported.

The oracle's ladder is cold: every rung starts at theta = 0. The CLI's
LogisticTrainer.fit_many starts a one-column rung's rows at their line
optimum instead, so the two agree only within the band that grad_tol
leaves. The oracle stands for the CLI's ladder while both put every row on
the same rung and their predictions agree within 1e-7, as a test here checks.
"""

from dataclasses import replace

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors

import glm_reference as reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


@pytest.mark.parametrize("module, qualname", tracer_targets())
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(f"labelregret.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_oracle_ladder_hooks_exist():
    from labelregret.regret import FALLBACK_RIDGES

    assert FALLBACK_RIDGES == lr.glm.FALLBACK_RIDGES and len(FALLBACK_RIDGES) > 0
    assert callable(lr.LogisticTrainer.fit_with_extra_ridge)


def test_oracle_call_shapes_give_fit_logistic_predictions():
    """Both oracle calls equal predict_proba of fit_logistic, bit for bit, at
    the trainer's ridge plus the rung's extra ridge."""
    from labelregret.regret import FALLBACK_RIDGES

    X = np.array([[-1.5], [-0.7], [-0.2], [0.4], [0.9], [1.8]])
    mixed, separable = lr.Dataset(X, [-1, 1, -1, 1, -1, 1]), lr.Dataset(X, [-1, -1, -1, 1, 1, 1])
    for ridge in (0.0, 0.01):
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        trainer = lr.LogisticTrainer(opts)
        np.testing.assert_array_equal(trainer.fit(lr.Dataset(X, mixed.labels))(X),
                                      lr.predict_proba(lr.fit_logistic(mixed, opts), X))
        for data, extra in [(mixed, 0.0), *((separable, e) for e in FALLBACK_RIDGES)]:
            expected = lr.fit_logistic(data, replace(opts, ridge=ridge + extra))
            np.testing.assert_array_equal(trainer.fit_with_extra_ridge(data, extra)(X),
                                          lr.predict_proba(expected, X))


def test_fit_trace_counts_the_reference_newton_steps(small_dataset, cluster_ss):
    """The tracer's call: a (model, list) pair whose list never increases and
    has one entry more than the reference fit takes Newton steps."""
    cases = [(small_dataset, lr.FitOptions(include_intercept=False), None),
             (small_dataset, lr.FitOptions(ridge=0.5, include_intercept=True), None),
             (cluster_ss.base, lr.FitOptions(include_intercept=False), None),
             (cluster_ss.base, lr.FitOptions(include_intercept=True), np.array([0.3, -0.2, 0.1]))]
    for data, opts, theta0 in cases:
        result = lr.fit_logistic(data, opts, theta0=theta0, return_trace=True)
        assert isinstance(result, tuple) and len(result) == 2
        model, trace = result
        assert isinstance(model, lr.LogisticModel) and isinstance(trace, list)
        assert np.all(np.diff(trace) <= 0.0)
        _, reference_trace = reference.fit_logistic(data, opts, theta0=theta0,
                                                    return_trace=True)
        assert len(trace) - 1 == len(reference_trace) - 1 > 0


def test_stalled_fit_raises_like_the_reference(small_dataset):
    """A tolerance below rounding: the steps stop moving theta before the
    gradient meets it. Both fits end in NoConvergence, so on this path no
    trace comes back and the tracer counts the call as failed, not its steps."""
    opts = lr.FitOptions(grad_tol=1e-300, max_iters=40, include_intercept=False)
    for fit in (lr.fit_logistic, reference.fit_logistic):
        with pytest.raises(errors.NoConvergence):
            fit(small_dataset, opts, return_trace=True)


def test_failed_step_halving_raises_like_the_reference(small_dataset, monkeypatch):
    """With no halvings allowed, the first full Newton step from this warm
    start raises the loss. Both fits stop there with the same NoConvergence,
    so again no trace comes back."""
    monkeypatch.setattr(lr.glm, "MAX_HALVINGS", 0)
    monkeypatch.setattr(reference, "MAX_HALVINGS", 0)
    opts = lr.FitOptions(include_intercept=False)
    messages = []
    for fit in (lr.fit_logistic, reference.fit_logistic):
        with pytest.raises(errors.NoConvergence) as raised:
            fit(small_dataset, opts, theta0=np.array([3.0, 3.0]), return_trace=True)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_fit_many_agrees_with_the_oracle_cold_ladder(ladder_run):
    """All 64 assignments of a 6-point, one-column set: fit_many and the
    oracle's cold fit_with_extra_ridge ladder put the same rows on the same
    rungs, and their predictions agree within 1e-7."""
    from labelregret.regret import FALLBACK_RIDGES

    X = np.array([[-1.5], [-0.7], [-0.2], [0.4], [0.9], [1.8]])
    trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=False))
    label_rows = np.where((np.arange(64)[:, None] >> np.arange(6)) & 1, 1, -1)
    samples, n_fallbacks, rungs = ladder_run(trainer, lr.Dataset(X, label_rows[0]), label_rows)
    expected, expected_rungs = [], []
    for labels in label_rows:
        data = lr.Dataset(X, labels)
        for rung, extra in enumerate((0.0, *FALLBACK_RIDGES)):
            try:
                predictor = trainer.fit_with_extra_ridge(data, extra)
                break
            except (errors.FitDiverged, errors.SingularHessian):
                continue
        expected.append(predictor(X))
        expected_rungs.append(rung)
    assert rungs == expected_rungs
    assert n_fallbacks == sum(rung > 0 for rung in rungs) > 0
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-7)

"""Metamorphic relations of the estimators: what the model class guarantees
about a permuted input, checked at the estimator level.

Permuting the points permutes exact enumeration's regret, and permuting the
feature columns leaves a ridge-0 logistic fit's predictions, so the Monte
Carlo regret, unchanged. Both hold exactly in exact arithmetic; the bounds
allow only the rounding of sums taken in another order. Each bound is about
two to ten times the largest difference measured over random sets:
- EchoTrainer enumeration, 200 sets of 4-11 points: 1.0e-15 (4.5 eps);
- LogisticTrainer enumeration at ridge 0, 60 of those sets: 3.2e-15 (14.5 eps);
- estimate_regret at ridge 0 on permuted columns, 200 runs of 40 points,
  2-4 columns, with and without an intercept: 3.4e-16 (1.5 eps);
- the same on laddered sets, whose separable resamples the fallback rung
  fits (8 points, 2 columns and an intercept, K = 200): 4.7e-16 (2.1 eps)
  over the 126 of data seeds 0-199 whose base fit exists, each with 41-174
  laddered resamples.
Column scaling and translation are left out: ridge-0 estimates still move
under a column scale of 1e7 or a translation of 1e3 (ROADMAP item 15).
"""

import numpy as np
import pytest

import labelregret as lr

EPS = np.finfo(float).eps


def permuted_enumeration(trainer, n, seed):
    """(regret, regret of the permuted points, the permutation) of one set."""
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, 2))
    p = gen.uniform(0.02, 0.98, n)
    perm = gen.permutation(n)
    regret = lr.exact_regret_enumeration(X, p, trainer).regret
    return regret, lr.exact_regret_enumeration(X[perm], p[perm], trainer).regret, perm, p


@pytest.mark.parametrize("n, seed", [(7, 1), (9, 2), (10, 3)])
def test_point_permutation_permutes_echo_regret(n, seed):
    regret, permuted, perm, p = permuted_enumeration(lr.EchoTrainer(), n, seed)
    assert np.max(np.abs(permuted - regret[perm])) <= 8 * EPS
    assert np.max(np.abs(permuted - p[perm] * (1 - p[perm]))) <= 8 * EPS


@pytest.mark.parametrize("n, seed", [(8, 4), (9, 5)])
def test_point_permutation_permutes_logistic_regret(n, seed):
    trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=False))
    regret, permuted, perm, _ = permuted_enumeration(trainer, n, seed)
    assert np.max(np.abs(permuted - regret[perm])) <= 64 * EPS


@pytest.mark.parametrize("intercept", [False, True])
def test_column_permutation_keeps_monte_carlo_regret(intercept):
    trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=intercept))
    data = lr.gaussian_semisynthetic(40, 3, [1.0, -0.5, 0.25], 7).base
    columns = [2, 0, 1]
    permuted = lr.Dataset(data.features[:, columns], data.labels,
                          tuple(data.feature_names[c] for c in columns))
    regret = lr.estimate_regret(data, trainer, 100, seed=7).regret
    assert np.max(np.abs(lr.estimate_regret(permuted, trainer, 100, seed=7).regret
                         - regret)) <= 16 * EPS


def test_column_permutation_keeps_laddered_monte_carlo_regret():
    """The rung's ridge penalizes every column alike, so its fits permute
    with the columns too."""
    trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=True))
    data = lr.gaussian_semisynthetic(8, 2, [1.0, -0.5], 4).base
    permuted = lr.Dataset(data.features[:, [1, 0]], data.labels, data.feature_names[::-1])
    report = lr.estimate_regret(data, trainer, 200, seed=7)
    assert report.n_fallback_refits > 0
    assert np.max(np.abs(lr.estimate_regret(permuted, trainer, 200, seed=7).regret
                         - report.regret)) <= 16 * EPS

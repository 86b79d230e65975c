"""Experiment configuration shared by the harness and the command line.

A config is a flat record that round-trips losslessly through JSON; every run
artifact embeds the resolved config so a run can be reproduced from its own
output. Unknown keys are a hard error so typos cannot silently change runs.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass
from typing import Optional

from . import errors, rng
from ._io import read_json

# What each annotated field type accepts; bool is rejected where it is not the type.
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str, list: list}


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    k_resamples: int = 300
    n_trials: int = 100

    # trainer used for fits and refits
    ridge: float = 0.0
    include_intercept: bool = False
    grad_tol: float = 1e-8
    max_iters: int = 100

    # semi-synthetic population
    dataset: str = "two_cluster"  # "two_cluster", "gaussian", or "csv"
    data_path: Optional[str] = None
    label_column: str = "label"
    ground_truth_ridge: float = 1.0
    ground_truth_intercept: bool = False
    n_points: int = 200
    n_features: int = 2
    p_high: float = 0.8
    true_theta: Optional[list] = None  # gaussian builtin only; defaults per n_features

    # selective prediction
    cutoff_grid: Optional[list] = None  # None -> 21 score quantiles

    # active learning
    initial_fraction: float = 0.5
    batch_size: int = 1
    n_batches: Optional[int] = None  # None -> acquire until the pool is empty

    # execution; threads has no effect (runs are single-threaded) and stays so
    # that command lines and saved configs that set it keep working
    threads: int = 1
    out_dir: Optional[str] = None

    def validate(self) -> "ExperimentConfig":
        for name, kinds in _FIELD_KINDS.items():
            value = getattr(self, name)
            if value is None and type(None) in kinds:
                continue
            if not isinstance(value, _ACCEPTS[kinds[0]]) or (
                    isinstance(value, bool) and kinds[0] is not bool):
                raise ValueError(f"{name} must be "
                                 f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")
        rng._check_seed(self.master_seed)
        if self.k_resamples < 2:
            raise ValueError("k_resamples must be at least 2")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not (0 <= self.ridge < math.inf and 0 <= self.ground_truth_ridge < math.inf):
            raise ValueError("ridge values must be finite and non-negative")
        if not 0 < self.grad_tol < math.inf or self.max_iters < 1:
            raise ValueError("bad optimizer tolerances")
        if self.dataset not in {"two_cluster", "gaussian", "csv"}:
            raise ValueError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "csv" and not self.data_path:
            raise ValueError("dataset 'csv' requires data_path")
        if self.n_points < 4 or self.n_features < 1:
            raise ValueError("population too small")
        if not 0.5 < self.p_high < 1.0:
            raise ValueError("p_high must lie in (0.5, 1)")
        if not 0.0 < self.initial_fraction < 1.0:
            raise ValueError("initial_fraction must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.n_batches is not None and self.n_batches < 0:
            raise ValueError("n_batches must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        for name, min_len in (("cutoff_grid", 2), ("true_theta", 1)):
            values = getattr(self, name)
            if values is not None and (len(values) < min_len or not all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in values)):
                raise ValueError(f"{name} must be a list of at least {min_len} "
                                 f"finite numbers, got {values!r}")
        return self

    def fit_options(self):
        from .glm import FitOptions

        return FitOptions(ridge=self.ridge, max_iters=self.max_iters,
                          grad_tol=self.grad_tol,
                          include_intercept=self.include_intercept)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    def with_file(self, path, **overrides) -> "ExperimentConfig":
        """This config with every field the JSON object in path sets replaced.

        overrides win over the file; only the merged config is validated.
        """
        payload = read_json(path)
        unknown = set(payload) - set(self.field_names())
        if unknown:
            raise errors.UnknownConfigKey(unknown)
        return self.replace(**{**payload, **overrides})

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes).validate()

    @classmethod
    def profile(cls, name: str) -> "ExperimentConfig":
        """Named presets: 'desk' (small, minutes) and 'paper' (full trial count)."""
        if name == "desk":
            return cls(n_trials=20, n_points=200, k_resamples=300,
                       batch_size=10, n_batches=5)
        if name == "paper":
            return cls(n_trials=100, n_points=200, k_resamples=300,
                       batch_size=10, n_batches=5)
        raise ValueError(f"unknown profile {name!r}; choose 'desk' or 'paper'")


# field -> (T,) or (T, NoneType) for Optional[T]; resolving annotations per validate is slow
_FIELD_KINDS = {name: typing.get_args(hint) or (hint,)
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}

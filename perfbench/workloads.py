"""The four benchmark workloads.

Each workload makes its inputs from the workload seed with its own
numpy Generator (never labelregret.rng, so a change to the package's label
streams cannot change the inputs), names the command lines of one pass, reads
a pass's output directory back, and checks it against an oracle computed
outside the timed region. corruptions() returns damaged copies of a good
output that check() must reject, so no check is vacuous.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import zlib

import numpy as np


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _write_csv(path, features, labels01) -> None:
    names = [f"x{j}" for j in range(features.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*names, "label"]) + "\n")
        for row, label in zip(features.tolist(), labels01.tolist()):
            fh.write(",".join(map(repr, row)) + f",{int(label)}\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_table(path) -> np.ndarray:
    """Float matrix of the rows of a headered numeric CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def _corr(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def _copy(out: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in out.items()}


class Workload:
    """One set of inputs plus the command lines, output reader and checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: str, index: int = 0):
        self.gen = np.random.default_rng(
            [int(seed) % 2 ** 64, zlib.crc32(self.name.encode()), index])
        self.inputs: dict = {}

    def passes(self, out_dir: str) -> list[list[str]]:
        """CLI argument lists making up one pass, writing under out_dir."""
        raise NotImplementedError

    def read(self, out_dir: str) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        """Problems found in a parsed output; empty when it is correct."""
        raise NotImplementedError

    def corruptions(self, out: dict) -> dict:
        raise NotImplementedError

    def refits(self, out: dict) -> int:
        """Label-resample refits one pass performs, from its meta.json."""
        return int(out["meta"]["report"]["n_resamples"])


class McTrials(Workload):
    name = "mc_trials"
    why = ("desk theory_vs_actual trials: the paper's headline Monte Carlo path "
           "through glm, rng label streams, regret and harness")
    n_trials = 2

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.master = int(self.gen.integers(0, 2 ** 63))
        self.inputs = {"master_seed": self.master, "n_trials": self.n_trials,
                       "profile": "desk"}

    def passes(self, out_dir):
        return [["trials", "--experiment", "theory_vs_actual", "--profile", "desk",
                 "--n-trials", str(self.n_trials), "--seed", str(self.master),
                 "--threads", "1", "--out", out_dir]]

    def read(self, out_dir):
        summary = _read_json(os.path.join(out_dir, "summary.json"))
        trials = _read_table(os.path.join(out_dir, "trials_estimated_regret.csv"))
        return {
            "meta": _read_json(os.path.join(out_dir, "meta.json")),
            "median_regret": np.array(summary["summaries"]["estimated_regret"]["median"]),
            "median_q": np.array(summary["summaries"]["q"]["median"]),
            "true_regret": np.array(summary["extras"]["true_regret"]),
            "regret": trials[:, 1:],
        }

    def check(self, out):
        cfg = out["meta"]["config"]
        k = cfg["k_resamples"]
        cap = 0.25 * k / (k - 1)
        values = out["regret"]
        problems = []
        if values.shape != (cfg["n_trials"], cfg["n_points"]):
            return [f"regret table has shape {values.shape}"]
        if not np.all(np.isfinite(values)) or values.min() < 0 or values.max() > cap:
            problems.append(f"a regret value is outside [0, {cap:.6g}]")
        if np.max(np.abs(np.median(values, axis=0) - out["median_regret"])) > 1e-12:
            problems.append("summary median differs from the per-trial table")
        r = _corr(out["median_regret"], out["median_q"])
        if not r >= 0.95:
            problems.append(f"corr(median regret, median q) = {r:.4f} < 0.95")
        ratio = out["median_regret"].mean() / out["median_q"].mean()
        if not 0.75 <= ratio <= 1.25:
            problems.append(f"mean regret is {ratio:.3f} x the mean q (limit 0.75..1.25)")
        # Against the reference true regret the per-point correlation of correct
        # runs ranged 0.78-0.999 over 40 seeds, so only gross disagreement fails.
        r = _corr(out["median_regret"], out["true_regret"])
        if not r >= 0.5:
            problems.append(f"corr(median regret, true regret) = {r:.4f} < 0.5")
        return problems

    def corruptions(self, out):
        permuted = _copy(out)
        permuted["median_regret"] = np.random.default_rng(0).permutation(out["median_regret"])
        over_cap = _copy(out)
        over_cap["regret"][0, 0] = 0.3
        doubled = _copy(out)
        doubled["median_regret"] *= 2.0
        doubled["regret"] *= 2.0
        return {"permuted median regret": permuted, "regret above cap": over_cap,
                "regret doubled": doubled}

    def refits(self, out):
        cfg = out["meta"]["config"]
        return (cfg["n_trials"] + 1) * cfg["k_resamples"]  # trials plus one reference


class EnumGray(Workload):
    name = "enum_gray"
    why = ("exhaustive Gray-code enumeration of two 9-point sets: warm-started glm "
           "refits with no label streams, so an rng change should not move it")
    n_points = 9
    oracle_k = 2000

    def __init__(self, seed, work_dir, index=0):
        super().__init__(seed, work_dir, index)
        # The Monte Carlo oracle's standard error is only reliable when every
        # label flips in a fair share of resamples, so base probabilities are
        # kept inside [0.05, 0.95]; a point at p=0.001 flips about 4 times in
        # 4000 draws and put a correct run 5.5 standard errors out.
        while True:
            X = self.gen.standard_normal((self.n_points, 2))
            theta = self.gen.standard_normal(2)
            theta *= 1.0 / np.linalg.norm(theta)
            labels01 = (self.gen.random(self.n_points) < _sigmoid(X @ theta)).astype(int)
            labels = 2 * labels01 - 1
            if _separable_through_origin(X, labels):
                continue
            p = _sigmoid(X @ _fit_no_intercept(X, labels))
            if 0.05 <= p.min() and p.max() <= 0.95:
                break
        self.features, self.labels01 = X, labels01
        self.csv = os.path.join(work_dir, "enum.csv")
        _write_csv(self.csv, X, labels01)
        self.oracle_seed = int(self.gen.integers(0, 2 ** 63))
        self.inputs = {"n_points": self.n_points, "n_features": 2, "ridge": 0.0,
                       "oracle_k": self.oracle_k, "oracle_seed": self.oracle_seed}
        self._oracle = None

    def passes(self, out_dir):
        return [["enumerate", "--data", self.csv, "--ridge", "0", "--threads", "1",
                 "--out", out_dir]]

    def read(self, out_dir):
        table = _read_table(os.path.join(out_dir, "enumeration.csv"))
        return {"meta": _read_json(os.path.join(out_dir, "meta.json")),
                "base_pred": table[:, 1], "regret": table[:, 3]}

    def oracle(self):
        """Untimed Monte Carlo estimate and its per-point standard error."""
        if self._oracle is None:
            import labelregret as lr

            data = lr.Dataset(self.features, 2 * self.labels01 - 1)
            trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=False))
            mc = lr.estimate_regret(data, trainer, self.oracle_k, self.oracle_seed,
                                    keep_samples=True)
            self._oracle = (mc.regret, lr.variance_standard_error(mc.samples), mc.base_pred)
        return self._oracle

    def check(self, out):
        regret, se, base_pred = self.oracle()
        problems = []
        if out["regret"].shape != regret.shape:
            return [f"expected {regret.size} rows, got {out['regret'].size}"]
        if np.max(np.abs(out["base_pred"] - base_pred)) > 1e-9:
            problems.append("base predictions differ from the oracle's base fit")
        z = np.abs(out["regret"] - regret) / se
        if not np.all(z <= 4.0):
            problems.append(f"regret is {np.nanmax(z):.2f} standard errors from the "
                            f"K={self.oracle_k} Monte Carlo oracle (limit 4)")
        return problems

    def corruptions(self, out):
        doubled = _copy(out)
        doubled["regret"] *= 2.0
        return {"regret doubled": doubled}


class McSeparable(Workload):
    name = "mc_separable"
    why = ("Monte Carlo regret on three 6-point sets, 1 feature, ridge 0, K=400: about "
           "6% of resamples are separable and take the ridge fallback ladder")
    n_points = 6
    k = 400
    share_range = (0.055, 0.065)
    tolerance_se = 5.0

    def __init__(self, seed, work_dir, index=0):
        super().__init__(seed, work_dir, index)
        # Draw until the exact chance that a resample is separable is about 6%,
        # so every seed exercises the fallback path by the same amount.
        while True:
            x = self.gen.uniform(0.3, 2.0, self.n_points)
            x *= self.gen.choice([-1.0, 1.0], self.n_points)
            labels = np.where(self.gen.random(self.n_points) < _sigmoid(1.2 * x), 1, -1)
            if abs(labels @ np.sign(x)) == self.n_points:
                continue  # observed labels separable: the base fit has no optimum
            p = _sigmoid(_fit_no_intercept(x[:, None], labels)[0] * x)
            up = np.where(x > 0, p, 1.0 - p).prod()
            down = np.where(x > 0, 1.0 - p, p).prod()
            if self.share_range[0] <= up + down <= self.share_range[1]:
                break
        self.features = x[:, None]
        self.labels = labels
        self.csv = os.path.join(work_dir, "separable.csv")
        _write_csv(self.csv, self.features, (labels + 1) // 2)
        self.master = int(self.gen.integers(0, 2 ** 63))
        self.inputs = {"n_points": self.n_points, "n_features": 1, "k": self.k,
                       "ridge": 0.0, "master_seed": self.master,
                       "separable_share": float(up + down)}
        self._oracle = None

    def passes(self, out_dir):
        return [["regret", "--data", self.csv, "--ridge", "0", "--k", str(self.k),
                 "--seed", str(self.master), "--threads", "1", "--out", out_dir]]

    def read(self, out_dir):
        table = _read_table(os.path.join(out_dir, "regret.csv"))
        return {"meta": _read_json(os.path.join(out_dir, "meta.json")),
                "mean_pred": table[:, 2], "regret": table[:, 3]}

    def oracle(self):
        """Exact mean, variance and fourth central moment over all 64 assignments."""
        if self._oracle is None:
            import labelregret as lr
            from labelregret.regret import FALLBACK_RIDGES

            trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=False))
            X = self.features
            p = trainer.fit(lr.Dataset(X, self.labels))(X)
            n = self.n_points
            preds, weights = [], []
            for code in range(2 ** n):
                bits = (code >> np.arange(n)) & 1
                data = lr.Dataset(X, 2 * bits - 1)
                for extra in (0.0, *FALLBACK_RIDGES):  # the CLI's fallback ladder
                    try:
                        predictor = trainer.fit_with_extra_ridge(data, extra)
                        break
                    except (lr.errors.FitDiverged, lr.errors.SingularHessian):
                        continue
                preds.append(predictor(X))
                weights.append(np.prod(np.where(bits == 1, p, 1.0 - p)))
            preds, weights = np.array(preds), np.array(weights)
            mean = weights @ preds
            centered = preds - mean
            self._oracle = (mean, weights @ centered ** 2, weights @ centered ** 4)
        return self._oracle

    def check(self, out):
        mean, var, m4 = self.oracle()
        k = self.k
        problems = []
        if out["regret"].shape != var.shape:
            return [f"expected {var.size} rows, got {out['regret'].size}"]
        if out["meta"]["report"]["n_resamples"] != k:
            problems.append(f"report counts {out['meta']['report']['n_resamples']} "
                            f"resamples, {k} were asked for")
        # standard errors of the K-sample variance and mean under the exact law
        se_var = np.sqrt(np.maximum(m4 - (k - 3) / (k - 1) * var ** 2, 0.0) / k)
        se_mean = np.sqrt(var / k)
        z = np.abs(out["regret"] - var) / np.maximum(se_var, 1e-300)
        if not np.all(z <= self.tolerance_se):
            problems.append(f"regret is {np.nanmax(z):.2f} standard errors from the "
                            f"64-assignment enumeration (limit {self.tolerance_se:g})")
        if not np.all(np.abs(out["mean_pred"] - mean) <= self.tolerance_se * se_mean):
            problems.append("mean prediction disagrees with the enumeration")
        if not out["meta"]["report"]["n_fallback_refits"] > 0:
            problems.append("no refit took the ridge fallback")
        return problems

    def corruptions(self, out):
        doubled = _copy(out)
        doubled["regret"] *= 2.0
        no_fallback = _copy(out)
        no_fallback["meta"] = json.loads(json.dumps(out["meta"]))
        no_fallback["meta"]["report"]["n_fallback_refits"] = 0
        short = _copy(out)
        short["meta"] = json.loads(json.dumps(out["meta"]))
        short["meta"]["report"]["n_resamples"] = self.k // 2
        return {"regret doubled": doubled, "fallback count zeroed": no_fallback,
                "resample count halved": short}


class Sets(Workload):
    """Independent instances of one workload, run one after another in a pass.

    Each instance draws its own inputs and writes its own subdirectory. The
    cost of a pass then depends less on the inputs one seed happens to draw
    (the Newton steps and separable resamples of a small dataset vary by
    5-20% from seed to seed).
    """

    def __init__(self, part, count: int, seed, work_dir):
        self.name, self.why = part.name, part.why
        self.parts = []
        for i in range(count):
            os.makedirs(os.path.join(work_dir, f"set{i}"))
            self.parts.append(part(seed, os.path.join(work_dir, f"set{i}"), i))
        self.inputs = {"sets": [p.inputs for p in self.parts]}

    def passes(self, out_dir):
        return [argv for i, p in enumerate(self.parts)
                for argv in p.passes(os.path.join(out_dir, f"set{i}"))]

    def read(self, out_dir):
        return [p.read(os.path.join(out_dir, f"set{i}")) for i, p in enumerate(self.parts)]

    def check(self, outs):
        return [f"set {i}: {problem}" for i, (p, out) in enumerate(zip(self.parts, outs))
                for problem in p.check(out)]

    def corruptions(self, outs):
        return {label: [damaged, *outs[1:]]
                for label, damaged in self.parts[0].corruptions(outs[0]).items()}

    def refits(self, outs):
        return sum(p.refits(out) for p, out in zip(self.parts, outs))


class TheoryLarge(Workload):
    name = "theory_large"
    why = ("fit then theory --model on a 10000x20 CSV: no refits; CSV load, "
           "Hessian and q at scale, so a refit-engine change should not move it")
    n_points = 10_000
    n_features = 20

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        X = self.gen.standard_normal((self.n_points, self.n_features))
        theta = self.gen.normal(0.0, 0.3, self.n_features)
        labels01 = (self.gen.random(self.n_points) < _sigmoid(X @ theta + 0.2)).astype(int)
        self.features, self.labels01 = X, labels01
        self.csv = os.path.join(work_dir, "large.csv")
        _write_csv(self.csv, X, labels01)
        self.inputs = {"n_points": self.n_points, "n_features": self.n_features}

    def passes(self, out_dir):
        fit_dir = os.path.join(out_dir, "fit")
        return [["fit", "--data", self.csv, "--threads", "1", "--out", fit_dir],
                ["theory", "--data", self.csv, "--model",
                 os.path.join(fit_dir, "model.json"), "--threads", "1",
                 "--out", os.path.join(out_dir, "theory")]]

    def read(self, out_dir):
        table = _read_table(os.path.join(out_dir, "theory", "theory.csv"))
        return {"model": _read_json(os.path.join(out_dir, "fit", "model.json")),
                "q": table[:, 1]}

    def check(self, out):
        model = out["model"]
        theta = np.array(model["theta"])
        X = self.features
        if model["includes_intercept"]:
            X = np.hstack([X, np.ones((X.shape[0], 1))])
        if theta.shape != (X.shape[1],) or out["q"].shape != (X.shape[0],):
            return ["model or q has the wrong shape"]
        p = _sigmoid(X @ theta)
        problems = []
        grad = X.T @ (p - self.labels01)
        if np.max(np.abs(grad)) > 1e-6:
            problems.append(f"fitted model is not at the optimum (|grad| = "
                            f"{np.max(np.abs(grad)):.3g})")
        w = p * (1.0 - p)
        H = X.T @ (X * w[:, None])
        L = np.linalg.cholesky(H)
        quad = (np.linalg.solve(L, X.T) ** 2).sum(axis=0)
        q_ref = w ** 2 * quad
        rel = np.abs(out["q"] - q_ref) / q_ref
        if not np.all(rel <= 1e-9):
            problems.append(f"q differs from the numpy recomputation by "
                            f"{np.nanmax(rel):.3g} relative (limit 1e-9)")
        return problems

    def corruptions(self, out):
        swapped = _copy(out)
        i, j = int(np.argmin(out["q"])), int(np.argmax(out["q"]))
        swapped["q"][[i, j]] = out["q"][[j, i]]
        return {"two q values swapped": swapped}

    def refits(self, out):
        return 1  # no resampling: the fit subcommand's one model fit per pass


def _separable_through_origin(X, labels) -> bool:
    """Whether some line through the origin puts every y_i x_i on one side (2-D)."""
    v = X * labels[:, None]
    angles = np.sort(np.arctan2(v[:, 1], v[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * np.pi]))
    return bool(gaps.max() > np.pi)


def _fit_no_intercept(X, labels, steps: int = 100) -> np.ndarray:
    """Unpenalized no-intercept logistic fit by plain Newton iteration (NaN if singular)."""
    theta = np.zeros(X.shape[1])
    y01 = (labels + 1) / 2
    for _ in range(steps):
        p = _sigmoid(X @ theta)
        try:
            step = np.linalg.solve(X.T @ (X * (p * (1.0 - p))[:, None]), X.T @ (y01 - p))
        except np.linalg.LinAlgError:
            return np.full(X.shape[1], np.nan)
        theta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return theta


WORKLOADS = {
    McTrials.name: McTrials,
    EnumGray.name: functools.partial(Sets, EnumGray, 2),
    McSeparable.name: functools.partial(Sets, McSeparable, 3),
    TheoryLarge.name: TheoryLarge,
}

"""Command-line front end.

Every subcommand writes its artifacts into the --out directory plus a
meta.json embedding the fully resolved configuration, then prints a one-line
summary with the output paths. stdout never carries data, only summaries.
Exit codes: 0 success, 1 operation error, 2 usage error. All writes go
through a temp-file-plus-rename, so output files are never partial.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import errors, rng
from ._io import dump_json, write_table
from .config import ExperimentConfig
from .dataset import (LabelDrawSeed, load_csv, load_semisynthetic,
                      make_semisynthetic, save_semisynthetic,
                      semisynthetic_from_model, standardize_features)
from .glm import (LogisticTrainer, auc, fit_logistic, load_model, log_loss,
                  model_to_dict, predict_proba)
from .harness import (active_learning_run, base_population, oracle_error_scores,
                      run_trials, save_trials_result, selective_prediction_curve)
from .regret import (bootstrap_regret, estimate_regret,
                     exact_regret_enumeration, regret_report_metadata,
                     regret_report_table, true_regret)
from .theory import (DEFAULT_CONSTANT, theory_report, theory_report_metadata,
                     theory_report_table)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; explicit flags win over it")
    parser.add_argument("--seed", type=int, default=None, dest="master_seed",
                        help="master seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect (every "
                             "run is single-threaded)")
    parser.add_argument("--out", required=True, help="output directory")


def _add_trainer(parser):
    parser.add_argument("--ridge", type=float, default=None)
    parser.add_argument("--intercept", action=argparse.BooleanOptionalAction,
                        default=None, dest="include_intercept")
    parser.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")
    parser.add_argument("--max-iters", type=int, default=None, dest="max_iters")


def _add_resample(parser):
    parser.add_argument("--k", type=int, default=None, dest="k_resamples",
                        help="number of resamples")


def _resolve_config(args, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """base overlaid with the --config file, then the flags; validated once, merged."""
    cfg = base if base is not None else ExperimentConfig()
    # every flag that sets a config field has that field's name as its dest
    overrides = {name: getattr(args, name) for name in ExperimentConfig.field_names()
                 if getattr(args, name, None) is not None}
    if getattr(args, "data", None):
        overrides["dataset"] = "csv"
        overrides["data_path"] = args.data
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "config", None):
        return cfg.with_file(args.config, **overrides)
    return cfg.replace(**overrides)


def _write_meta(out_dir, command: str, cfg: ExperimentConfig, extra: dict,
                outputs: list) -> str:
    path = os.path.join(out_dir, "meta.json")
    dump_json(path, {
        "command": command,
        "config": cfg.to_dict(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        **extra,
    })
    return path


def _load_semisynth_dir(path):
    return load_semisynthetic(os.path.join(path, "semisynth.csv"),
                              os.path.join(path, "semisynth.json"))


def _semisynth_input(args, cfg):
    """A SemiSyntheticDataset from --semisynth DIR, or built from the config."""
    if getattr(args, "semisynth", None):
        return _load_semisynth_dir(args.semisynth)
    features, ground_truth, gt_ridge = base_population(cfg)
    return semisynthetic_from_model(features, ground_truth,
                                    LabelDrawSeed(cfg.master_seed, 0),
                                    gt_ridge=gt_ridge)


# ---------------------------------------------------------------------------
# handlers


def _cmd_fit(args):
    cfg = _resolve_config(args, ExperimentConfig(include_intercept=True))
    data = load_csv(args.data, cfg.label_column)
    extra = {}
    if args.standardize:
        data, extra["standardization"] = standardize_features(data)
    model = fit_logistic(data, cfg.fit_options())
    preds = predict_proba(model, data.features)
    out = args.out
    model_path = os.path.join(out, "model.json")
    dump_json(model_path, model_to_dict(model, data.feature_names))
    extra["log_loss"] = log_loss(preds, data.labels)
    try:
        extra["auc"] = auc(preds, data.labels)
    except errors.SingleClass:
        extra["auc"] = None
    meta = _write_meta(out, "fit", cfg, extra, [model_path])
    print(f"fit: n={data.n_points} d={data.n_features} "
          f"log_loss={extra['log_loss']:.4f} -> {model_path}, {meta}")
    return 0


def _regret_command(args, kind: str):
    cfg = _resolve_config(args)
    trainer = LogisticTrainer(cfg.fit_options())
    if kind == "true-regret":
        ss = _load_semisynth_dir(args.semisynth)
        report = true_regret(ss, trainer, cfg.k_resamples, cfg.master_seed)
        n = ss.base.n_points
    else:
        data = load_csv(args.data, cfg.label_column)
        fn = estimate_regret if kind == "regret" else bootstrap_regret
        report = fn(data, trainer, cfg.k_resamples, cfg.master_seed)
        n = data.n_points
    csv_path = os.path.join(args.out, "regret.csv")
    write_table(csv_path, *regret_report_table(report))
    meta = _write_meta(args.out, kind, cfg, {"report": regret_report_metadata(report)},
                       [csv_path])
    print(f"{kind}: n={n} K={report.n_resamples} "
          f"max_regret={report.regret.max():.6g} -> {csv_path}, {meta}")
    return 0


def _cmd_enumerate(args):
    cfg = _resolve_config(args)
    trainer = LogisticTrainer(cfg.fit_options())
    if args.semisynth:
        ss = _load_semisynth_dir(args.semisynth)
        features, probs = ss.base.features, ss.true_probs
        names = ss.base.feature_names
    else:
        data = load_csv(args.data, cfg.label_column)
        probs = np.asarray(trainer.fit(data)(data.features), dtype=float)
        features, names = data.features, data.feature_names
    report = exact_regret_enumeration(features, probs, trainer, feature_names=names)
    csv_path = os.path.join(args.out, "enumeration.csv")
    write_table(csv_path, *regret_report_table(report))
    meta = _write_meta(args.out, "enumerate", cfg,
                       {"report": regret_report_metadata(report)}, [csv_path])
    print(f"enumerate: n={features.shape[0]} assignments={report.n_resamples} "
          f"max_regret={report.regret.max():.6g} -> {csv_path}, {meta}")
    return 0


def _cmd_theory(args):
    cfg = _resolve_config(args)
    data = load_csv(args.data, cfg.label_column)
    if args.model:
        model, names = load_model(args.model)
        if tuple(names) != data.feature_names:
            raise errors.FeatureNameMismatch(
                f"model {args.model} was fitted on columns {names}, but "
                f"{args.data} has feature columns {list(data.feature_names)}")
    else:
        model = fit_logistic(data, cfg.fit_options())
    report = theory_report(model, data.features, constant=args.constant)
    csv_path = os.path.join(args.out, "theory.csv")
    write_table(csv_path, *theory_report_table(report))
    meta = _write_meta(args.out, "theory", cfg,
                       {"report": theory_report_metadata(report)}, [csv_path])
    print(f"theory: n={data.n_points} epsilon={report.epsilon:.6g} "
          f"bound_applies={report.bound_applies} -> {csv_path}, {meta}")
    return 0


def _cmd_semisynth(args):
    cfg = _resolve_config(args)
    data = load_csv(args.data, cfg.label_column)
    seed = LabelDrawSeed(cfg.master_seed, args.stream)
    ss = make_semisynthetic(data.features, data.labels,
                            ridge=cfg.ground_truth_ridge, seed=seed,
                            include_intercept=cfg.ground_truth_intercept,
                            feature_names=data.feature_names)
    csv_path = os.path.join(args.out, "semisynth.csv")
    json_path = os.path.join(args.out, "semisynth.json")
    save_semisynthetic(ss, csv_path, json_path)
    meta = _write_meta(args.out, "semisynth", cfg,
                       {"stream_index": args.stream}, [csv_path, json_path])
    print(f"semisynth: n={ss.base.n_points} "
          f"mean_true_prob={ss.true_probs.mean():.4f} -> {csv_path}, {meta}")
    return 0


def _cmd_selective(args):
    cfg = _resolve_config(args)
    ss = _semisynth_input(args, cfg)
    trainer = LogisticTrainer(cfg.fit_options())
    model = fit_logistic(ss.base, cfg.fit_options())
    estimated = estimate_regret(ss.base, trainer, cfg.k_resamples, cfg.master_seed)
    true_rep = true_regret(ss, trainer, cfg.k_resamples,
                           rng.derive_master(cfg.master_seed, rng.REFERENCE, 0))
    grid = cfg.cutoff_grid
    outputs = []
    for ranking, scores in (("estimated_regret", estimated.regret),
                            ("true_regret", true_rep.regret),
                            ("oracle_error", oracle_error_scores(ss, model))):
        curve = selective_prediction_curve(ss, model, scores, grid, ranking=ranking)
        path = os.path.join(args.out, f"selective_{ranking}.csv")
        write_table(path, ["cutoff", "coverage", "mean_kl", "n_kept"],
                    [curve.cutoffs, curve.coverages, curve.mean_kls, curve.n_kept])
        outputs.append(path)
    meta = _write_meta(args.out, "selective", cfg, {}, outputs)
    print(f"selective: n={ss.base.n_points} K={cfg.k_resamples} "
          f"-> {args.out} ({len(outputs)} curves), {meta}")
    return 0


def _cmd_active(args):
    cfg = _resolve_config(args)
    ss = _semisynth_input(args, cfg)
    trainer = LogisticTrainer(cfg.fit_options())
    outputs = []
    finals = {}
    for strategy in ("estimated_regret", "true_regret", "uniform"):
        trace = active_learning_run(ss, trainer, cfg.k_resamples, cfg.master_seed,
                                    strategy=strategy,
                                    initial_fraction=cfg.initial_fraction,
                                    batch=cfg.batch_size,
                                    n_batches=cfg.n_batches)
        path = os.path.join(args.out, f"active_{strategy}.csv")
        write_table(path, ["n_labeled", "mean_kl"], [trace.n_labeled, trace.mean_kl])
        outputs.append(path)
        finals[strategy] = float(trace.mean_kl[-1])
    meta = _write_meta(args.out, "active", cfg, {"final_mean_kl": finals}, outputs)
    print(f"active: n={ss.base.n_points} batch={cfg.batch_size} "
          f"final_kl={finals} -> {args.out}, {meta}")
    return 0


def _cmd_trials(args):
    base = ExperimentConfig.profile(args.profile) if args.profile else None
    cfg = _resolve_config(args, base)
    result = run_trials(cfg, args.experiment)
    save_trials_result(result, args.out)
    outputs = [os.path.join(args.out, f"trials_{name}.csv") for name in result.series]
    outputs.append(os.path.join(args.out, "summary.json"))
    meta = _write_meta(args.out, "trials", cfg, {"experiment": args.experiment},
                       outputs)
    print(f"trials: experiment={args.experiment} n_trials={cfg.n_trials} "
          f"-> {args.out}, {meta}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelregret",
        description="Per-point arbitrariness of probabilistic classifiers "
                    "via label resampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a logistic model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None, dest="label_column")
    p.add_argument("--standardize", action="store_true")
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("regret", help="Monte Carlo regret on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None, dest="label_column")
    _add_resample(p)
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=lambda a: _regret_command(a, "regret"))

    p = sub.add_parser("true-regret",
                       help="regret under the recorded ground truth")
    p.add_argument("--semisynth", required=True,
                   help="directory containing semisynth.csv + semisynth.json")
    _add_resample(p)
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=lambda a: _regret_command(a, "true-regret"))

    p = sub.add_parser("bootstrap", help="row-bootstrap regret baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None, dest="label_column")
    _add_resample(p)
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=lambda a: _regret_command(a, "bootstrap"))

    p = sub.add_parser("enumerate",
                       help="exact regret over all label assignments (small n)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data")
    group.add_argument("--semisynth")
    p.add_argument("--label-column", default=None, dest="label_column")
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("theory", help="closed-form variance and error bound")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None, dest="label_column")
    p.add_argument("--model", help="model JSON; fitted from the data when omitted")
    p.add_argument("--constant", type=float, default=DEFAULT_CONSTANT)
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_theory)

    p = sub.add_parser("semisynth",
                       help="fit a ridge ground truth and redraw the labels")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None, dest="label_column")
    p.add_argument("--gt-ridge", type=float, default=None, dest="ground_truth_ridge")
    p.add_argument("--gt-intercept", action=argparse.BooleanOptionalAction,
                   default=None, dest="ground_truth_intercept")
    p.add_argument("--stream", type=int, default=0,
                   help="label draw stream index (trial number)")
    _add_common(p)
    p.set_defaults(handler=_cmd_semisynth)

    for name, handler in (("selective", _cmd_selective), ("active", _cmd_active)):
        p = sub.add_parser(name, help=f"single-shot {name} experiment")
        p.add_argument("--semisynth",
                       help="directory with semisynth.csv/json; built-in "
                            "population from the config when omitted")
        p.add_argument("--dataset", choices=("two_cluster", "gaussian"),
                       default=None)
        p.add_argument("--n-points", type=int, default=None, dest="n_points")
        p.add_argument("--p-high", type=float, default=None, dest="p_high")
        if name == "active":
            p.add_argument("--initial-fraction", type=float, default=None)
            p.add_argument("--batch", type=int, default=None, dest="batch_size")
            p.add_argument("--n-batches", type=int, default=None, dest="n_batches")
        _add_resample(p)
        _add_trainer(p)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("trials", help="multi-trial experiment with aggregation")
    p.add_argument("--experiment", required=True,
                   choices=("theory_vs_actual", "selective", "active"))
    p.add_argument("--profile", choices=("desk", "paper"), default=None)
    p.add_argument("--n-trials", type=int, default=None, dest="n_trials")
    p.add_argument("--dataset", choices=("two_cluster", "gaussian", "csv"),
                   default=None)
    p.add_argument("--data")
    p.add_argument("--label-column", default=None, dest="label_column")
    p.add_argument("--gt-ridge", type=float, default=None, dest="ground_truth_ridge")
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.add_argument("--n-features", type=int, default=None, dest="n_features")
    p.add_argument("--p-high", type=float, default=None, dest="p_high")
    p.add_argument("--initial-fraction", type=float, default=None)
    p.add_argument("--batch", type=int, default=None, dest="batch_size")
    p.add_argument("--n-batches", type=int, default=None, dest="n_batches")
    _add_resample(p)
    _add_trainer(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_trials)

    return parser


def dispatch(argv) -> int:
    """Parse and run one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except errors.LabelRegretError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Every subcommand writes its artifacts into the --out directory plus a
meta.json embedding the fully resolved configuration, then prints a one-line
summary with the output paths. stdout never carries data, only summaries.
Exit codes: 0 success, 1 operation error, 2 usage error. All writes go
through a temp-file-plus-rename, so output files are never partial. When
the first argument names a command, dispatch builds that command's parser
alone; any other command line goes through the full parser tree of
build_parser. Help, usage errors and exit codes are the same on both routes.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import errors
from ._io import dump_json, write_table
from .config import ExperimentConfig
from .dataset import (load_csv, load_semisynthetic, save_semisynthetic,
                      standardize_features)
from .glm import (LogisticTrainer, auc, fit_logistic, load_model, log_loss,
                  model_to_dict, predict_proba)
from .harness import (active_runs, population_draw, run_trials, save_trials_result,
                      selective_run)
from .regret import (_initial_fit, estimate_regret, exact_regret_enumeration,
                     regret_report_metadata, regret_report_table, true_regret)
from .theory import (DEFAULT_CONSTANT, theory_report, theory_report_metadata,
                     theory_report_table)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; explicit flags win over it")
    parser.add_argument("--seed", type=int, default=None, dest="master_seed",
                        help="master seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; starts no workers and "
                             "changes no output")
    parser.add_argument("--out", required=True, help="output directory")


def _add_trainer(parser, resample=False):
    """The fit flags, after --k for commands that refit resamples."""
    if resample:
        parser.add_argument("--k", type=int, default=None, dest="k_resamples",
                            help="number of resamples")
    parser.add_argument("--ridge", type=float, default=None)
    parser.add_argument("--intercept", action=argparse.BooleanOptionalAction,
                        default=None, dest="include_intercept")
    parser.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")
    parser.add_argument("--max-iters", type=int, default=None, dest="max_iters")


def _add_data(parser, required=True, group=None, gt_ridge=False):
    """--data (added to group when given), --label-column and, for commands
    that fit a ground truth on the data, --gt-ridge."""
    (group or parser).add_argument("--data", required=required)
    parser.add_argument("--label-column", default=None, dest="label_column")
    if gt_ridge:
        parser.add_argument("--gt-ridge", type=float, default=None,
                            dest="ground_truth_ridge")


def _add_population(parser, kinds=("two_cluster", "gaussian")):
    parser.add_argument("--dataset", choices=kinds, default=None)
    parser.add_argument("--n-points", type=int, default=None, dest="n_points")
    parser.add_argument("--p-high", type=float, default=None, dest="p_high")


def _add_acquisition(parser):
    parser.add_argument("--initial-fraction", type=float, default=None)
    parser.add_argument("--batch", type=int, default=None, dest="batch_size")
    parser.add_argument("--n-batches", type=int, default=None, dest="n_batches")


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
    dump_json(path, {"command": command, "config": cfg.to_dict(),
                     "outputs": sorted(os.path.basename(p) for p in outputs), **extra})
    return path


def _write_report(out, command: str, name: str, cfg: ExperimentConfig, table,
                  metadata: dict):
    """Write table to out/name and a meta.json holding metadata as its report;
    returns both paths."""
    path = os.path.join(out, name)
    write_table(path, *table)
    return path, _write_meta(out, command, cfg, {"report": metadata}, [path])


def _load_semisynth_dir(path):
    return load_semisynthetic(os.path.join(path, "semisynth.csv"),
                              os.path.join(path, "semisynth.json"))


def _semisynth_input(args, cfg):
    """A SemiSyntheticDataset from --semisynth DIR, or built from the config."""
    return _load_semisynth_dir(args.semisynth) if args.semisynth else population_draw(cfg, 0)


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
    model_path = os.path.join(args.out, "model.json")
    dump_json(model_path, model_to_dict(model, data.feature_names,
                                        extra.get("standardization")))
    extra["log_loss"] = log_loss(preds, data.labels)
    try:
        extra["auc"] = auc(preds, data.labels)
    except errors.SingleClass:
        extra["auc"] = None
    meta = _write_meta(args.out, "fit", cfg, extra, [model_path])
    print(f"fit: n={data.n_points} d={data.n_features} "
          f"log_loss={extra['log_loss']:.4f} -> {model_path}, {meta}")
    return 0


def _regret_command(args):
    """regret or true-regret, as args.command names."""
    kind = args.command
    cfg = _resolve_config(args)
    trainer = LogisticTrainer(cfg.fit_options())
    if kind == "true-regret":
        ss = _load_semisynth_dir(args.semisynth)
        report = true_regret(ss, trainer, cfg.k_resamples, cfg.master_seed)
    else:
        data = load_csv(args.data, cfg.label_column)
        report = estimate_regret(data, trainer, cfg.k_resamples, cfg.master_seed)
    csv_path, meta = _write_report(args.out, kind, "regret.csv", cfg,
                                   regret_report_table(report),
                                   regret_report_metadata(report))
    print(f"{kind}: n={report.n_points} K={report.n_resamples} "
          f"max_regret={report.regret.max():.6g} -> {csv_path}, {meta}")
    return 0


def _cmd_enumerate(args):
    cfg = _resolve_config(args)
    trainer = LogisticTrainer(cfg.fit_options())
    if args.semisynth:
        ss = _load_semisynth_dir(args.semisynth)
        features, probs = ss.base.features, ss.true_probs
    else:
        data = load_csv(args.data, cfg.label_column)
        features, probs = data.features, _initial_fit(trainer, data)(data.features)
    report = exact_regret_enumeration(features, probs, trainer)
    csv_path, meta = _write_report(args.out, "enumerate", "enumeration.csv", cfg,
                                   regret_report_table(report),
                                   regret_report_metadata(report))
    print(f"enumerate: n={features.shape[0]} assignments={report.n_resamples} "
          f"max_regret={report.regret.max():.6g} -> {csv_path}, {meta}")
    return 0


def _cmd_theory(args):
    cfg = _resolve_config(args)
    data = load_csv(args.data, cfg.label_column)
    if args.model:
        model, names, standardization = load_model(args.model)
        if tuple(names) != data.feature_names:
            raise errors.FeatureNameMismatch(
                f"model {args.model} was fitted on columns {names}, but "
                f"{args.data} has feature columns {list(data.feature_names)}")
        if standardization is not None:  # the model saw standardized features
            data, _ = standardize_features(data, standardization)
    else:
        model = fit_logistic(data, cfg.fit_options())
    report = theory_report(model, data.features, constant=args.constant)
    csv_path, meta = _write_report(args.out, "theory", "theory.csv", cfg,
                                   theory_report_table(report),
                                   theory_report_metadata(report))
    print(f"theory: n={data.n_points} epsilon={report.epsilon:.6g} "
          f"bound_applies={report.bound_applies} -> {csv_path}, {meta}")
    return 0


def _cmd_semisynth(args):
    """Save the draw at stream --stream of the CSV population: trial --stream
    of a trials run with the same flags."""
    cfg = _resolve_config(args)
    ss = population_draw(cfg, args.stream)
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
    outputs = []
    for ranking, curve in selective_run(ss, cfg).items():
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
    traces = active_runs(ss, LogisticTrainer(cfg.fit_options()), cfg, cfg.master_seed)
    outputs, finals = [], {}
    for strategy, trace in traces.items():
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
    outputs = save_trials_result(run_trials(cfg, args.experiment), args.out)
    meta = _write_meta(args.out, "trials", cfg, {"experiment": args.experiment},
                       outputs)
    print(f"trials: experiment={args.experiment} n_trials={cfg.n_trials} "
          f"-> {args.out}, {meta}")
    return 0


# ---------------------------------------------------------------------------
# parser: one function per command adds its arguments, before the common ones


def _fit_arguments(p):
    _add_data(p)
    p.add_argument("--standardize", action="store_true")
    _add_trainer(p)


def _regret_arguments(p, semisynth=False):
    if semisynth:
        p.add_argument("--semisynth", required=True,
                       help="directory containing semisynth.csv + semisynth.json")
    else:
        _add_data(p)
    _add_trainer(p, resample=True)


def _enumerate_arguments(p):
    group = p.add_mutually_exclusive_group(required=True)
    _add_data(p, required=False, group=group)
    group.add_argument("--semisynth")
    _add_trainer(p)


def _theory_arguments(p):
    _add_data(p)
    p.add_argument("--model", help="model JSON; fitted from the data when omitted")
    p.add_argument("--constant", type=float, default=DEFAULT_CONSTANT)
    _add_trainer(p)


def _semisynth_arguments(p):
    _add_data(p, gt_ridge=True)
    p.add_argument("--gt-intercept", action=argparse.BooleanOptionalAction,
                   default=None, dest="ground_truth_intercept")
    p.add_argument("--stream", type=int, default=0,
                   help="label draw stream index (trial number)")


def _experiment_arguments(p, acquisition=False):
    p.add_argument("--semisynth",
                   help="directory with semisynth.csv/json; built-in "
                        "population from the config when omitted")
    _add_population(p)
    if acquisition:
        _add_acquisition(p)
    _add_trainer(p, resample=True)


def _trials_arguments(p):
    p.add_argument("--experiment", required=True,
                   choices=("theory_vs_actual", "selective", "active"))
    p.add_argument("--profile", choices=("desk", "paper"), default=None)
    p.add_argument("--n-trials", type=int, default=None, dest="n_trials")
    _add_population(p, ("two_cluster", "gaussian", "csv"))
    p.add_argument("--n-features", type=int, default=None, dest="n_features")
    _add_data(p, required=False, gt_ridge=True)
    _add_acquisition(p)
    _add_trainer(p, resample=True)


# name -> (help, function adding its arguments, handler), in the order of -h
COMMANDS = {
    "fit": ("fit a logistic model on a CSV dataset", _fit_arguments, _cmd_fit),
    "regret": ("Monte Carlo regret on a CSV dataset", _regret_arguments, _regret_command),
    "true-regret": ("regret under the recorded ground truth",
                    lambda p: _regret_arguments(p, semisynth=True), _regret_command),
    "enumerate": ("exact regret over all label assignments (small n)",
                  _enumerate_arguments, _cmd_enumerate),
    "theory": ("closed-form variance and error bound", _theory_arguments, _cmd_theory),
    "semisynth": ("fit a ridge ground truth and redraw the labels", _semisynth_arguments,
                  _cmd_semisynth),
    "selective": ("single-shot selective experiment", _experiment_arguments, _cmd_selective),
    "active": ("single-shot active experiment",
               lambda p: _experiment_arguments(p, acquisition=True), _cmd_active),
    "trials": ("multi-trial experiment with aggregation", _trials_arguments, _cmd_trials),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every command a subparser of its own."""
    parser = argparse.ArgumentParser(prog="labelregret", description="Per-point arbitrariness "
                                     "of probabilistic classifiers via label resampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _command_arguments(parser, name: str):
    """Add command name's arguments, the common ones and its defaults to parser."""
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    _add_common(parser)
    parser.set_defaults(handler=handler, command=name)


def _parse(argv):
    """dispatch's parse of argv; SystemExit on -h or a usage error."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"labelregret {argv[0]}")
        _command_arguments(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if rest:
            build_parser().error(f"unrecognized arguments: {' '.join(rest)}")
        return args
    return build_parser().parse_args(argv)


def dispatch(argv) -> int:
    """Parse and run one command line; returns the process exit code.

    When the first argument names a command, only that command's parser is
    built, which argparse's subparser action would enter with the rest of the
    command line, and the top-level parser reports the arguments it leaves.
    Any other command line (no command, -h, an unknown command or a leading
    option) goes through the full tree of build_parser.
    """
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (errors.LabelRegretError, OSError, OverflowError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

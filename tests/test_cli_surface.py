"""The command-line surface: each command's flags, the usage errors argparse
reports, and one run per fresh interpreter, as users invoke the CLI."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from labelregret import cli

from conftest import write_large_csv, write_lines

SRC = Path(__file__).resolve().parent.parent / "src"

HELP = ["-h", "--help"]
COMMON = ["--config", "--seed", "--threads", "--out"]
TRAINER = ["--ridge", "--intercept", "--no-intercept", "--grad-tol", "--max-iters"]
DATA = ["--data", "--label-column"]
POPULATION = ["--dataset", "--n-points", "--p-high"]
ACQUISITION = ["--initial-fraction", "--batch", "--n-batches"]

# command -> (the smallest command line it accepts, its option strings)
COMMANDS = {
    "fit": (["--data", "d.csv", "--out", "o"], [*DATA, "--standardize", *TRAINER]),
    "regret": (["--data", "d.csv", "--out", "o"], [*DATA, "--k", *TRAINER]),
    "true-regret": (["--semisynth", "s", "--out", "o"], ["--semisynth", "--k", *TRAINER]),
    "enumerate": (["--data", "d.csv", "--out", "o"], [*DATA, "--semisynth", *TRAINER]),
    "theory": (["--data", "d.csv", "--out", "o"], [*DATA, "--model", "--constant", *TRAINER]),
    "semisynth": (["--data", "d.csv", "--out", "o"],
                  [*DATA, "--gt-ridge", "--gt-intercept", "--no-gt-intercept", "--stream"]),
    "selective": (["--out", "o"], ["--semisynth", *POPULATION, "--k", *TRAINER]),
    "active": (["--out", "o"], ["--semisynth", *POPULATION, *ACQUISITION, "--k", *TRAINER]),
    "trials": (["--experiment", "active", "--out", "o"],
               ["--experiment", "--profile", "--n-trials", *POPULATION, "--n-features", *DATA,
                "--gt-ridge", *ACQUISITION, "--k", *TRAINER]),
}

OPTION = re.compile(r"(?<![\w-])--?[a-z][a-z-]*")


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


def run(argv, capsys):
    capsys.readouterr()
    code = cli.dispatch(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_exactly_its_options(command, capsys):
    code, out, err = run([command, "-h"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: labelregret {command} ")
    assert set(OPTION.findall(out)) == {*HELP, *COMMANDS[command][1], *COMMON}


@pytest.mark.parametrize("command", COMMANDS)
def test_unknown_flag_is_a_usage_error(command, capsys):
    code, out, err = run([command, *COMMANDS[command][0], "--bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\nlabelregret: error: unrecognized arguments: --bogus\n")


def test_top_level_help_lists_every_command(capsys):
    code, out, err = run(["-h"], capsys)
    assert (code, err) == (0, "")
    assert "{" + ",".join(COMMANDS) + "}" in out
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == list(COMMANDS)


def test_unknown_command_names_every_choice(capsys):
    code, out, err = run(["bogus"], capsys)
    assert (code, out) == (2, "")
    choices = ", ".join(f"'{name}'" for name in COMMANDS)
    assert err.endswith(f"labelregret: error: argument command: invalid choice: 'bogus' "
                        f"(choose from {choices})\n")


def test_bootstrap_is_not_a_command(capsys):
    """The row bootstrap resamples rows, not labels, and the CLI has no command
    for it: its command line is a usage error that lists the commands."""
    code, out, err = run(["bootstrap", "--data", "d.csv", "--out", "o"], capsys)
    assert (code, out) == (2, "")
    choices = ", ".join(f"'{name}'" for name in COMMANDS)
    assert err.endswith(f"labelregret: error: argument command: invalid choice: "
                        f"'bootstrap' (choose from {choices})\n")
    assert "Traceback" not in err


def test_unknown_flag_before_the_command_reaches_the_command(capsys):
    """argparse sets an unknown leading option aside and still enters the command."""
    code, out, err = run(["--bogus", "fit"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("labelregret fit: error: the following arguments are required: "
                        "--data, --out\n")


def full_tree():
    """The parser tree as it was before dispatch built a command's parser alone:
    every command a subparser of its own, with its arguments and the common ones."""
    parser = argparse.ArgumentParser(prog="labelregret",
                                     description=cli.build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        cli._add_common(p)
    return parser


@pytest.mark.parametrize("case", ["-h", "bare", "bad value", "unknown flag after",
                                  "unknown flag before"])
@pytest.mark.parametrize("command", COMMANDS)
def test_dispatch_matches_the_full_parser_tree(command, case, capsys):
    """Help, usage errors and exit codes, byte for byte, on either route of dispatch."""
    minimal = COMMANDS[command][0]
    argv = {"-h": [command, "-h"], "bare": [command],
            "bad value": [command, *minimal, "--ridge", "x"],
            "unknown flag after": [command, *minimal, "--bogus"],
            "unknown flag before": ["--bogus", command, *minimal]}[case]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        full_tree().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    assert run(argv, capsys) == expected


def test_dispatch_builds_only_the_invoked_command(monkeypatch, tmp_path, capsys):
    """A count, not a timing: parsing `regret` adds no other command's option."""
    built = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(self, *args, **kwargs):
        built.extend(a for a in args if a.startswith("-"))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    data = tmp_path / "d.csv"
    write_lines(data, ["a,label", "0.5,1", "-1.0,0", "1.5,0", "-0.2,1"])
    code, out, err = run(["regret", "--data", str(data), "--k", "5", "--ridge", "0.1",
                          "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (0, "")
    assert "--standardize" not in built and "--experiment" not in built
    # --no-intercept comes with --intercept; each parser adds its own -h, --help
    own = [o for o in COMMANDS["regret"][1] if o != "--no-intercept"] + COMMON
    assert sorted(o for o in built if o not in HELP) == sorted(own)


@pytest.mark.parametrize("argv, exit_code, parsers", [
    (["regret", "--data", "DATA", "--k", "5", "--out", "OUT"], 0, 1),
    (["enumerate", "-h"], 0, 1), (["regret"], 2, 1),
    (["-h"], 0, 1 + len(cli.COMMANDS)), (["bogus"], 2, 1 + len(cli.COMMANDS))],
    ids=["regret", "enumerate -h", "regret without flags", "-h", "bogus"])
def test_dispatch_constructs_one_parser_or_the_full_tree(argv, exit_code, parsers, monkeypatch,
                                                         tmp_path, capsys):
    """A command line that starts with a command builds that command's parser
    alone; any other the full tree, the top-level parser and one per command:
    a count, not a timing."""
    data = tmp_path / "d.csv"
    write_lines(data, ["a,label", "0.5,1", "-1.0,0", "1.5,0", "-0.2,1"])
    argv = [{"DATA": str(data), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(argv, capsys)[0] == exit_code
    assert len(constructed) == parsers


@pytest.mark.parametrize("argv", [["fit", "-h"], ["regret", "--data", "DATA", "--k", "5",
                                                  "--ridge", "0.1", "--out", "OUT"]],
                         ids=["fit -h", "regret"])
def test_fresh_interpreter_runs_the_cli(argv, tmp_path):
    """One command per process, as a user's shell runs it."""
    data = tmp_path / "d.csv"
    write_lines(data, ["a,label", "0.5,1", "-1.0,0", "1.5,0", "-0.2,1"])
    argv = [{"DATA": str(data), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "labelregret.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: labelregret fit " if argv[0] == "fit"
                                  else "regret: n=4 K=5 ")


def test_large_csv_summary_printed_once(tmp_path):
    """theory on a CSV large enough for the two-thread parse, stdout a file:
    a line still buffered when the parse starts, and the summary, are each
    written once."""
    data = tmp_path / "large.csv"
    write_large_csv(data)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a file is then block-buffered
    stdout = tmp_path / "stdout.txt"
    with open(stdout, "w", encoding="utf-8") as fh:
        done = subprocess.run([sys.executable, "-c",
                               "print('buffered'); from labelregret.cli import main; main()",
                               "theory", "--data", str(data), "--out", str(tmp_path / "out")],
                              env=env, stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = stdout.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0] == "buffered"
    assert lines[1].startswith("theory: n=3000 ")

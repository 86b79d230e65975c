"""Count code, docstring, comment and blank lines per Python module.

    python tools/line_counts.py [--against REV] [PATH ...]

PATH is a module or a directory of modules (default: src/labelregret). Every
physical line falls in exactly one class. A docstring line lies within the
docstring of a module, class or function (found with ast). A code line holds
part of a token other than a comment (found with tokenize), so a blank line
inside a multi-line string is code. A blank line holds only whitespace, and a
comment line only a comment. With --against REV, each count is printed next to
the same module at git revision REV, and the net change after it.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """Lines of each kind in one module's source, and their sum as "lines"."""
    docstrings = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, text in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif not text.strip():
            kind = "blank"
        else:
            kind = "comment" if number in comments else "code"
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def modules(paths) -> list:
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def source_at(rev: str, path: Path) -> str:
    """The module's text at git revision rev; empty where it did not exist."""
    result = subprocess.run(["git", "show", f"{rev}:{path.as_posix()}"],
                            capture_output=True, text=True)
    return result.stdout if result.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/labelregret"])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare with (run from the repository root)")
    args = parser.parse_args(argv)
    rows = []
    for path in modules(args.paths):
        then = count(source_at(args.against, path)) if args.against else None
        rows.append((path.name, count(path.read_text(encoding="utf-8")), then))
    total = {c: sum(now[c] for _, now, _ in rows) for c in COLUMNS}
    total_then = ({c: sum(then[c] for _, _, then in rows) for c in COLUMNS}
                  if args.against else None)
    rows.append(("total", total, total_then))
    width = 20 if args.against else 10
    print(f"{'module':<16}" + "".join(f"{c:>{width}}" for c in COLUMNS))
    for name, now, then in rows:
        cells = (f"{now[c]}" if then is None else f"{then[c]}->{now[c]} ({now[c] - then[c]:+d})"
                 for c in COLUMNS)
        print(f"{name:<16}" + "".join(f"{cell:>{width}}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of the ptqes package.

A code line holds at least one token: blank lines, comment-only lines and
the lines of docstrings (module, class and function) are not counted.  A
token that spans several lines, such as a multi-line string, counts on
each line it covers.

    python tests/code_lines.py         # per-module counts, then the total
    python tests/code_lines.py HEAD^   # counts at a git ref, the working
                                       # tree's, and the delta

With a git ref, each module's count at that ref is read with
`git show REF:src/ptqes/NAME`; a module missing on one side counts 0 there.

Uses the standard library and git only.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ptqes"

# Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    """Line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def counts_at(ref: str) -> dict:
    """{module name: code lines} of src/ptqes at the git ref."""
    paths = _git("ls-tree", "--name-only", ref, "--", "src/ptqes/").split()
    return {Path(p).name: code_lines(_git("show", f"{ref}:{p}")) for p in paths if p.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of src/ptqes, per module.")
    parser.add_argument("ref", nargs="?", help="also count at this git ref and print the delta")
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    if args.ref is None:
        for name, n in counts.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    try:
        before = counts_at(args.ref)
    except subprocess.CalledProcessError as exc:
        parser.error(exc.stderr.strip())
    rows = {name: (before.get(name, 0), counts.get(name, 0)) for name in sorted(before.keys() | counts.keys())}
    rows["total"] = (sum(before.values()), sum(counts.values()))
    print(f"{args.ref[:6]:>6s}  {'tree':>6s}  {'delta':>6s}")
    for name, (old, new) in rows.items():
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

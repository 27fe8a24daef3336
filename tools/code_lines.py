"""Count the code lines of each module under ``src/qdensity/``.

    python tools/code_lines.py [REV]

A code line is a line that is not blank, not only a comment and not inside a
docstring (the leading string of a module, class or function body).  Without
REV the working tree is counted; with REV the files of that git revision are
read with ``git show``.  Prints one row per file and the total.

Needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/qdensity"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def sources(rev: str | None) -> dict[str, str]:
    """File name -> source text of every module under PACKAGE."""
    if rev is None:
        folder = os.path.join(ROOT, PACKAGE)
        names = sorted(n for n in os.listdir(folder) if n.endswith(".py"))
        out = {}
        for name in names:
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                out[name] = fh.read()
        return out

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                              text=True).stdout

    paths = sorted(p for p in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
                   if p.endswith(".py"))
    return {p: git("show", f"{rev}:{PACKAGE}/{p}") for p in paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev", nargs="?", help="git revision to count instead of the working tree")
    args = parser.parse_args(argv)
    total = 0
    for name, text in sources(args.rev).items():
        n = code_lines(text)
        total += n
        print(f"{name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count the code lines of Python sources.

A line counts when it holds a token that is not a comment, a line break
(NL, NEWLINE), an INDENT or DEDENT, the end marker, or part of a
docstring: a string literal that is a statement of its own.  A token that spans lines (a
string literal) puts each of its lines in the count.  Blank lines,
comment lines and docstrings therefore count for nothing, wherever they
stand.

Usage: python scripts/code_lines.py PATH [PATH ...]

Each path is a file or a directory searched for ``*.py``; the script
prints one line per file and then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    docstrings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (
            tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docstrings)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=Path)
    args = ap.parse_args(argv)
    files = sorted(f for p in args.paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Code lines of each module of a package directory, and their total.

    python tools/code_lines.py [DIR]

DIR defaults to src/curvemoduli.  A code line is a line that holds a token
other than a comment: blank lines, comment lines and docstrings (the
string that opens a module, class or function body) do not count, while a
statement split over several lines counts each of them, and so does every
line of a multi-line string that is not a docstring.  Prints one line per
`.py` file directly under DIR, by name, then the total.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIR = os.path.join(ROOT, "src", "curvemoduli")
# tokens that hold no code: layout, comments and the encoding marker
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree):
    """(start, end) positions of every docstring statement in `tree`."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines of the Python source text `source`."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b
                                               for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=DEFAULT_DIR,
                        help="directory of modules (default: src/curvemoduli)")
    args = parser.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(args.dir)):
        if name.endswith(".py"):
            with open(os.path.join(args.dir, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

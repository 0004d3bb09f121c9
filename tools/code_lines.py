"""Count the code lines of each module of the refocus package.

A code line is a source line that holds at least one token of code:
blank lines, comment lines and the lines of docstrings (the leading
string of a module, class or function body) do not count. A statement
spread over several lines counts each line it spans that holds code.

Usage: python tools/code_lines.py [package_dir]

package_dir defaults to src/refocus of the checkout this script sits
in. Prints one "lines path" row per module, sorted by path, and a total
row. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers spanned by every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one Python source file."""
    source = Path(path).read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "refocus"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(root.parent)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

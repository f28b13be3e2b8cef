"""Count the code lines of the Python files under src/ and tests/.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (module, class and function) do not
count; a line of a multi-line string that is not a docstring does. Run
from the repository root:

    python tools/loc.py            # src/ and tests/
    python tools/loc.py src        # any directories or files

It prints the count of each file, then each directory's total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in *source*."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src", "tests"]):
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

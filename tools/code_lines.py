"""Count the code lines of each ``cuspidal`` module and of the package.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, and lies outside every module, class and function docstring;
a string token spanning lines makes each of its lines a code line.  Blank
lines, comments and docstrings are not counted.

Run from the repository root:

    python3 tools/code_lines.py [package directory, default src/cuspidal]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/cuspidal")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

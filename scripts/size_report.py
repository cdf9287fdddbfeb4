#!/usr/bin/env python3
"""Print the size of each ``src/dipterous`` module and of the package.

Lines are physical lines, as ``wc -l`` counts them. Code tokens are the
``tokenize`` tokens of the module, not counting comments, docstrings or
layout tokens (newlines, indents, dedents and the end marker). Python 3.12
and later split each f-string into several tokens, so compare counts made
under one Python version.

Usage: python scripts/size_report.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dipterous"

LAYOUT = {
    tokenize.COMMENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
    tokenize.INDENT,
    tokenize.NEWLINE,
    tokenize.NL,
}


def docstring_starts(text: str) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0].value
                starts.add((doc.lineno, doc.col_offset))
    return starts


def code_tokens(text: str) -> int:
    docstrings = docstring_starts(text)
    return sum(
        1
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in LAYOUT and tok.start not in docstrings
    )


def main() -> int:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), code_tokens(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':16s} {'lines':>6s} {'tokens':>7s}")
    for name, lines, tokens in rows:
        print(f"{name:16s} {lines:6d} {tokens:7d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

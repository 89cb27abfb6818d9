"""Print the code lines of each module of a package, as JSON.

Usage::

    python scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/entconc`` of this checkout. For each
``*.py`` file in it (not recursing) the script prints the number of its
code lines, and the sum under ``"total"``. A code line is a line that

- lies within the lines of a statement of the module's AST (from its
  ``lineno`` to its ``end_lineno``; a compound statement's lines include
  its body's),
- holds a token other than a comment, a newline or an indent, so blank
  and comment-only lines are left out, and
- is not a line of a docstring: the string statement that opens a module,
  a class or a function.

So a statement written over three lines counts 3, a decorator counts, and
a line holding both code and a trailing comment counts once. Counting the
same files twice gives the same numbers; running it on two checkouts
compares their sizes.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entconc"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _span(node) -> set:
    return set(range(node.lineno, node.end_lineno + 1))


def code_lines(source: str) -> int:
    """Number of code lines of one module's source, by the rule above."""
    tree = ast.parse(source)
    statements, docstrings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            statements |= _span(node)
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docstrings |= _span(node.body[0])
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    return len((statements & tokens) - docstrings)


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    files = sorted(package.glob("*.py"))
    if not files:
        print(f"error: no Python modules in {package}", file=sys.stderr)
        return 2
    counts = {f.stem: code_lines(f.read_text(encoding="utf-8")) for f in files}
    counts["total"] = sum(counts.values())
    print(json.dumps(counts, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

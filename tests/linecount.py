"""Line census of the package source, one row per module.

Prints physical lines and code lines for every module of
``src/stirlingkit``, and their totals.  A code line carries at least one
token that is not part of a comment or a docstring, so blank lines,
comments and docstrings are left out; a statement spread over several
lines counts each of them.  Standard library only.

    python tests/linecount.py [source directory]

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def census(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "stirlingkit"
    total_physical = total_code = 0
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        physical, code = census(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the package's source lines: per module and in total, the lines
`wc -l` counts and the code lines among them, without docstrings, comments
and blank lines.

    python3 tools/src_size.py [DIR]

DIR defaults to src/motionprim beside this script. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def sizes(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in SKIP and token.type != tokenize.ENCODING:
                code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "motionprim"
    total = [0, 0]
    print(f"{'module':<24}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = sizes(path)
        total = [total[0] + lines, total[1] + code]
        print(f"{path.name:<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total[0]:>8}{total[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

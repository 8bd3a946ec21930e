"""Count the lines of the package's source files.

    python tools/code_lines.py [DIRECTORY]

prints, for each ``*.py`` file in DIRECTORY (default ``src/aobs``) and in
total, its physical lines (what ``wc -l`` counts) split four ways:

* code: lines that hold a token of a statement, a line a multi-line
  token spans included, and that are not part of a docstring;
* docstring: lines of a module, class or function docstring;
* comment: other lines that hold only a comment;
* blank: other lines that hold only white space.

The four add up to the physical lines.  The code count is the measure of
size that the change log and the roadmap quote.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set

#: tokens that hold no part of a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
KINDS = ("lines", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> Set[int]:
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(source: str) -> Dict[str, int]:
    """The line counts of one file's ``source``, by kind."""
    lines = source.splitlines()
    docs = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    comments: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    blank = len(lines) - len(code) - len(docs) - len(comments)
    return {"lines": len(lines), "code": len(code), "docstring": len(docs),
            "comment": len(comments), "blank": blank}


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "aobs")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{k:>10}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

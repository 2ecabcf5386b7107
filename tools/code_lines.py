"""Count the code lines of the library, per module and in total.

A code line is a line that holds a token other than a comment, and is not
part of a module, class or function docstring; blank lines do not count.
Run from the root of a source checkout::

    python3 tools/code_lines.py              # src/diqkd_lab/*.py
    python3 tools/code_lines.py FILE ...     # the given files

It prints one ``count path`` line per file and a ``count total`` line, and
writes nothing.
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
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef)


def code_lines(path: Path) -> int:
    """Lines of ``path`` that hold code, less its docstrings' lines."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = {
        line
        for t in tokens
        if t.type not in _NOT_CODE
        for line in range(t.start[0], t.end[0] + 1)
    }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent
    library = sorted((root / "src" / "diqkd_lab").glob("*.py"))
    files = [(p, Path(p)) for p in argv] or [(p.relative_to(root), p) for p in library]
    total = 0
    for name, path in files:
        count = code_lines(path)
        total += count
        print(count, name)
    print(total, "total")


if __name__ == "__main__":
    main(sys.argv[1:])

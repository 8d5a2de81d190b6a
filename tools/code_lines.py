"""Count the code lines of Python modules: docstrings, comments and blank
lines excluded.

A line counts when a token other than a comment or a docstring starts or
continues on it.  A docstring is a string literal that stands alone as a
statement.  Usage::

    python tools/code_lines.py src/supq

prints the count of each module under the given files or directories
(default ``src/supq``), then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that carry no code; NEWLINE is kept, because it ends a statement
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that carry code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _SKIP]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        alone = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and statement_start and alone:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = sorted({f for arg in argv or ["src/supq"]
                    for f in ([Path(arg)] if Path(arg).is_file() else Path(arg).rglob("*.py"))})
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

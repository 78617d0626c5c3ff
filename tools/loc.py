"""Code lines per module: lines that hold Python code, leaving out comment
lines, blank lines and docstrings.

Usage, from the repository root:

    python3 tools/loc.py              # src/dapclust
    python3 tools/loc.py PATH ...     # .py files, or directories of them

A line counts when ``tokenize`` finds on it a token other than a comment,
a line break, an indent or a dedent, and it is not part of a docstring
(the first statement of a module, class or function, when that is a string
literal). A token that spans lines, such as a triple-quoted string that is
not a docstring, counts on every line it spans. Prints one line per module,
then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths) -> list[Path]:
    """The .py files named, or found under the directories named, sorted."""
    out = []
    for path in map(Path, paths):
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "dapclust")])
    args = ap.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

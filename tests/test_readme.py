"""The README's library example runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def leading_literal(comment):
    """The longest prefix of `comment`, cut at a ", ", that is a Python
    literal: `"imprimitive", builds M itself` gives 'imprimitive'."""
    cuts = [m.start() for m in re.finditer(", ", comment)]
    for end in [len(comment)] + cuts[::-1]:
        try:
            return ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"no literal leads the comment {comment!r}")


def test_library_example_prints_its_comments():
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints) >= 5
    for line, printed in zip(prints, lines):
        comment = line.split("#", 1)[1].strip()
        assert printed == str(leading_literal(comment)), (line, printed)

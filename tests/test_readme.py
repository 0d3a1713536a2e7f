"""The command-line examples in README.md print what README.md says they print.

An example is a `quivertex ...` line of a ```sh block followed by a `# output`
line.  Lines followed by anything else show usage only and are skipped: they
name files or print more than one line.  An output that begins with `error:` is
the stderr of a command that exits 2.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from quivertex.cli import main

README = Path(__file__).parent.parent / "README.md"


def _examples():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [
        (shlex.split(line, comments=True)[1:], after[2:])
        for line, after in zip(lines, lines[1:] + [""])
        if line.startswith("quivertex ") and after.startswith("# ")
    ]


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6
    assert any(output.startswith("error:") for _, output in EXAMPLES)


@pytest.mark.parametrize("argv, output", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(argv, output):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if output.startswith("error:"):
        assert (code, out.getvalue(), err.getvalue()) == (2, "", output + "\n")
    else:
        assert (code, out.getvalue(), err.getvalue()) == (0, output + "\n", "")

"""The README's examples print what it says they print.

Each ``$ credal ...`` block runs through ``credal.cli.run`` and its
stdout is compared byte for byte with the lines under the command.  The
Python quick start runs line by line, and each ``expr  # value`` line
checks ``repr(expr)`` against the comment, up to its first colon.
"""

import io
import re
import shlex
from pathlib import Path

from credal.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(r"```%s\n(.*?)```" % language, README, flags=re.S)


def test_every_shell_example_prints_its_documented_output():
    examples = [b for b in _blocks("text") if b.startswith("$ credal ")]
    assert len(examples) >= 2
    for block in examples:
        command, _, expected = block.partition("\n")
        buf = io.StringIO()
        assert run(shlex.split(command)[2:], stdout=buf) == 0, command
        assert buf.getvalue() == expected, command


def test_the_python_quick_start_runs_as_documented():
    (block,) = _blocks("python")
    scope = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, scope)
            continue
        assert repr(eval(code, scope)) == comment.split(":")[0].strip(), line
        checked += 1
    assert checked == 2

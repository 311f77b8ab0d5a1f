"""The README's examples run and print what they show.

The "Library use" block is executed; each ``$ hilbfock ...`` transcript
is rerun through ``cli.main`` and compared with its block, with the
wall times ``verify`` prints dropped on both sides.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hilbfock import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
TRANSCRIPTS = re.findall(r"```\n\$ hilbfock (.*?)\n(.*?)```", TEXT, re.DOTALL)
CHECK_TIME = re.compile(r"^((?:PASS|FAIL)  \S+)\s+\d+\.\d+s$", re.MULTILINE)


def test_library_use_example_prints_its_values():
    section = TEXT.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split() == ["-1/36", "-3/4", "[(1),", "(1)]", "1/6"]


def test_the_readme_shows_five_transcripts():
    assert [args.split()[0] for args, _ in TRANSCRIPTS] == ["table"] * 3 + ["verify", "equivariant"]


@pytest.mark.parametrize("args, shown", TRANSCRIPTS, ids=[args for args, _ in TRANSCRIPTS])
def test_transcript_prints_what_the_readme_shows(args, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(args))
    assert code == 0
    assert CHECK_TIME.sub(r"\1", out.getvalue()) == CHECK_TIME.sub(r"\1", shown)

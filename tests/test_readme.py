"""README's examples run as written: every ``ggl`` line of its shell blocks
exits 0, and the library quick start prints what its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from groupoidlab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


GGL_LINES = [line for block in _blocks("bash") for line in block.splitlines() if line.startswith("ggl ")]


def test_readme_names_ggl_commands():
    assert len(GGL_LINES) >= 10


@pytest.mark.parametrize("line", GGL_LINES)
def test_readme_ggl_line_exits_0(line):
    args = shlex.split(line, comments=True)[1:]
    r = CliRunner().invoke(cli.main, args)
    assert r.exit_code == 0, r.output


def test_readme_quick_start_prints_what_its_comments_say():
    (source,) = _blocks("python")
    want = []
    for line in source.splitlines():
        if line.startswith("print("):
            m = re.match(r"^print\(.*\)\s+# (.*)$", line)
            assert m, f"a print line without its expected output: {line!r}"
            want.append(m.group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want

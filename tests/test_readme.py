"""Every example in README.md runs: the library quick start prints what its
comments say, and each command-line example exits 0 on small input files."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from ecomath.cli import EXIT_OK, dispatch

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block after the given '## ' heading."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments():
    block = code_block("Library quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, got in zip(prints, printed):
        if "#" not in line:
            continue
        comment = line.split("#", 1)[1].strip()
        if comment.startswith("~"):  # approximate: as many decimals as the comment gives
            want = re.match(r"~(-?\d+(?:\.(\d+))?)", comment)
            places = len(want.group(2) or "")
            assert float(got) == pytest.approx(float(want.group(1)), abs=0.5 * 10.0 ** -places)
        else:
            assert got == comment
        checked += 1
    assert checked == 4


FIXTURES = {
    "problem.json": json.dumps({"sense": "max", "c": [3, 2], "A": [[1, 1], [1, 0]], "b": [4, 2]}),
    "A.txt": "2, 1\n1, 3\n",
    "b.txt": "3\n5\n",
    "table.txt": "0, 2\n1, 0\n",
    "y.txt": "2\n1\n",
}


def cli_examples() -> list[str]:
    lines = code_block("Command-line interface", "bash").splitlines()
    commands = [cmd.split("#", 1)[0].strip() for line in lines for cmd in line.split(" ; ")]
    return [cmd for cmd in commands if cmd]


def test_cli_examples_are_found():
    assert len(cli_examples()) == 8
    assert all(cmd.startswith("ecomath ") for cmd in cli_examples())


@pytest.mark.parametrize("command", cli_examples())
def test_cli_example_exits_0(command, tmp_path, monkeypatch, capsys):
    for name, text in FIXTURES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = dispatch(shlex.split(command)[1:])
    err = capsys.readouterr().err
    assert code == EXIT_OK, err

"""The README's examples run: the library block executes and every CLI
line parses with the command-line parser."""

import re
import shlex
from pathlib import Path

from hyperspline.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_library_block_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
    assert "UT" in capsys.readouterr().out  # the per-mode MSE table was printed


def test_readme_cli_lines_parse():
    lines = [shlex.split(line, comments=True)
             for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("hyperspline ")]
    assert sorted(words[1] for words in lines) == ["calibrate", "compare", "lcurve", "predict"]
    parser = build_parser()
    for words in lines:
        parser.parse_args(words[1:])  # exits with status 2 on a mismatch

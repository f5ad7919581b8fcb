"""Every command of the README's CLI block runs and prints what it printed
when its output was pinned.

A flag or subcommand that the README documents but the parser no longer
accepts exits 2 here, so the documentation cannot drift from the CLI.
``readme_cli_output.txt`` holds, for each command, a ``$ qtmoments ...``
line and then that command's stdout (``python -m qtmoments ...``), byte for
byte; a change to any README example's output fails here until the file is
rewritten on purpose.
"""

import shlex
from pathlib import Path

import pytest

from qtmoments.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PINNED = Path(__file__).resolve().parent / "readme_cli_output.txt"


def _cli_block_commands() -> list:
    """The ``qtmoments ...`` lines of the fenced sh block under ``## CLI``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qtmoments ")]


def _pinned_outputs() -> dict:
    """{command line: its pinned stdout} from ``readme_cli_output.txt``."""
    outputs: dict = {}
    for line in PINNED.read_bytes().decode("utf-8").splitlines(keepends=True):
        if line.startswith("$ "):
            command = line[2:].rstrip("\n")
            outputs[command] = ""
        else:
            outputs[command] += line
    return outputs


COMMANDS = _cli_block_commands()
PINNED_OUTPUTS = _pinned_outputs()


def test_cli_block_lists_commands():
    assert len(COMMANDS) >= 10


def test_every_readme_command_has_pinned_output():
    assert list(PINNED_OUTPUTS) == COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    argv = shlex.split(line)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, line
    assert out.strip(), line
    assert out == PINNED_OUTPUTS[line], line

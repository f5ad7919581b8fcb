"""Every command of the README's CLI block runs and prints something.

A flag or subcommand that the README documents but the parser no longer
accepts exits 2 here, so the documentation cannot drift from the CLI.
"""

import shlex
from pathlib import Path

import pytest

from qtmoments.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block_commands() -> list:
    """The ``qtmoments ...`` lines of the fenced sh block under ``## CLI``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qtmoments ")]


COMMANDS = _cli_block_commands()


def test_cli_block_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    argv = shlex.split(line)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, line
    assert out.strip(), line

"""The README's command-line examples run as written, and its command-line
section names every flag the commands take and no other."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from spincat.cli import FIELDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """argv lists of the `spincat` lines in the first shell block of the
    "Command line" section, with backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spincat ")]


def test_readme_has_an_example_per_command():
    assert {argv[0] for argv in readme_commands()} == {
        "squeeze", "cat", "trajectories", "feasibility"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    assert json.loads(stdout.getvalue())["command"] == argv[0]


def command_line_flags():
    """(the --flags the "Command line" section names, up to the next `## `
    heading; every FIELDS name of every command written as a flag)."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    flags = {"--" + name.replace("_", "-") for table in FIELDS.values() for name in table}
    return named, flags


def test_readme_names_only_flags_of_some_command():
    """Every --flag in the "Command line" section is a FIELDS name written
    as a flag, --config or --help."""
    named, flags = command_line_flags()
    assert named
    assert named - flags - {"--config", "--help"} == set()


def test_readme_names_every_flag_of_every_command():
    named, flags = command_line_flags()
    assert flags - named == set()

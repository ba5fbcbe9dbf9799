"""Every byte the manifest's commands write, print and return, against the
committed `tests/golden/manifest.json` (see `tests/golden/regenerate.py`),
and every refusal of the package, reached by one of those commands or by
a refused `spincat.cli.main` call."""

import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import GOLDEN, load_regenerate, raise_statements, traced_lines, traced_manifest
from spincat.cli import EXIT_CONFIG, EXIT_NUMERIC, main
from spincat.state import Basis, QuadratureWavefunction


@pytest.fixture(scope="module")
def manifest():
    """(fresh manifest, package lines its commands run), shared by the
    tests of this module and the CLI fuzz test."""
    return traced_manifest()


def test_outputs_match_the_manifest(manifest):
    regenerate = load_regenerate()
    committed = json.loads((GOLDEN / "manifest.json").read_text())
    # The bytes are pinned for one numpy, Python and platform; on another
    # this fails by name rather than by a list of hashes.
    assert committed["environment"] == regenerate.environment(), (
        f"manifest made on {committed['environment']}, "
        f"this is {regenerate.environment()}: rerun tests/golden/regenerate.py "
        "on the parent commit here")
    assert regenerate.differences(committed, manifest[0]) == []


README = Path(__file__).resolve().parents[1] / "README.md"

# The library entry points that check their own inputs, as the README
# lists them.
CHECKING_ENTRY_POINTS = ("spincat.cli.main",)


def make_refused_calls(tmp_path, monkeypatch, capsys):
    """The refusals that no manifest command reaches, each through
    `spincat.cli.main`: the two guards against faults of the package itself,
    each shown a fault that a monkeypatch puts in, and an output name that
    is an existing directory."""
    with monkeypatch.context() as patched:  # a cat approximation that is not even
        patched.setattr("spincat.cat.approx_p_wavefunction", lambda params, grid:
                        QuadratureWavefunction(grid, np.arange(grid.count, dtype=float),
                                               Basis.P))
        assert main(["cat", "--xi2", "20", "--beta", "0.3333333333333333",
                     "--pr-over-beta", "7", "--out-dir", str(tmp_path / "cat")]) == EXIT_NUMERIC
    assert json.loads(capsys.readouterr().err) == {
        "error": "wavefunction values are not a bitwise palindrome", "kind": "DomainError"}
    assert "cat_approx_p.csv" not in os.listdir(tmp_path / "cat")

    (tmp_path / "doc").mkdir()
    (tmp_path / "doc" / ".tmp-000000000000").touch()
    with monkeypatch.context() as patched:
        patched.setattr(os, "urandom", bytes)  # every temp name is .tmp-000000000000
        assert main(["feasibility", "--preset", "bec-cavity",
                     "--out-dir", str(tmp_path / "doc")]) == EXIT_CONFIG
    assert "no unused temporary file name" in capsys.readouterr().err

    (tmp_path / "out" / "squeeze_exact_state.csv").mkdir(parents=True)
    assert main(["squeeze", "--xi2", "2", "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG


def test_every_refusal_is_reached(manifest, tmp_path, monkeypatch, capsys):
    """Every `raise <exception>` statement of the package runs in some
    manifest command or in `make_refused_calls`."""
    with traced_lines() as called:
        make_refused_calls(tmp_path, monkeypatch, capsys)
    assert sorted(raise_statements() - manifest[1] - called) == []


def test_readme_lists_the_entry_points_of_the_refused_calls():
    """The entry points the README lists as checking their inputs are
    those whose refusals `make_refused_calls` calls."""
    section = README.read_text().split(
        "### Library entry points that check their inputs", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"`([\w.]+)\(", section)) == sorted(CHECKING_ENTRY_POINTS)
    source = inspect.getsource(make_refused_calls)
    for name in CHECKING_ENTRY_POINTS:
        assert name.rsplit(".", 1)[-1] + "(" in source, name

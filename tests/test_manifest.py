"""Every byte the manifest's commands write, print and return, against the
committed `tests/golden/manifest.json` (see `tests/golden/regenerate.py`),
and every refusal of the package, reached by one of those commands or by
a refused call into an entry point that checks its own inputs."""

import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import GOLDEN, load_regenerate, raise_statements, traced_lines, traced_manifest
from spincat import (
    Basis,
    DomainError,
    ExperimentalParams,
    QuadratureGrid,
    RandomSource,
    analyze_cat,
    choose_truncation,
)
from spincat.cli import EXIT_CONFIG, main
from spincat.io import atomic_write_text, write_wavefunction_csv
from spincat.state import TAIL_TOL, QuadratureWavefunction


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
CHECKING_ENTRY_POINTS = (
    "choose_truncation", "RandomSource", "RandomSource.for_trajectory",
    "ExperimentalParams", "analyze_cat", "io.write_wavefunction_csv",
    "io.atomic_write_text", "spincat.cli.main")


def make_refused_calls(tmp_path, monkeypatch):
    """One refused call per check that a library entry point makes of its
    own inputs: the entry points that scripts/ and the README drive with
    raw arguments, listed in the README under "Library entry points that
    check their inputs"."""
    for args in ((0.5, 1.0, 0.0, TAIL_TOL), (20.0, 0.0, 0.0, TAIL_TOL),
                 (20.0, 1.0, -1.0, TAIL_TOL), (20.0, 1.0, 0.0, 1e-3)):
        with pytest.raises(DomainError):
            choose_truncation(*args)
    with pytest.raises(DomainError):
        RandomSource(-1)
    with pytest.raises(DomainError):
        RandomSource.for_trajectory(2 ** 64, 0)
    with pytest.raises(DomainError):
        ExperimentalParams(kappa0=-1.0, gamma=1.0, delta=100.0, n_atoms=10, n_photons=10.0)
    for xi2, beta in ((1.0, 0.5), (20.0, 0.0)):
        with pytest.raises(DomainError):
            analyze_cat(xi2, beta, 1.0)

    lopsided = QuadratureWavefunction(QuadratureGrid(1.0, 3), np.array([1.0, 0.5, 2.0]),
                                      Basis.X)
    with pytest.raises(DomainError):
        write_wavefunction_csv(lopsided, str(tmp_path / "wf.csv"))
    assert os.listdir(tmp_path) == []
    with monkeypatch.context() as patched, pytest.raises(FileExistsError):
        patched.setattr(os, "urandom", bytes)  # every temp name is .tmp-000000000000
        (tmp_path / ".tmp-000000000000").touch()
        atomic_write_text(str(tmp_path / "doc.json"), ["{}\n"])

    (tmp_path / "out" / "squeeze_exact_state.csv").mkdir(parents=True)
    assert main(["squeeze", "--xi2", "2", "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG


def test_every_refusal_is_reached(manifest, tmp_path, monkeypatch):
    """Every `raise <exception>` statement of the package runs in some
    manifest command or in `make_refused_calls`."""
    with traced_lines() as called:
        make_refused_calls(tmp_path, monkeypatch)
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

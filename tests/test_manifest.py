"""Every byte the manifest's commands write, print and return, against the
committed `tests/golden/manifest.json` (see `tests/golden/regenerate.py`),
every refusal of the package, reached by one of those commands or by a
refused `spincat.cli.main` call, and the `--keep`/`--compare` tooling of
`regenerate.py`."""

import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import GOLDEN, load_regenerate, raise_statements, traced_lines, traced_manifest
from spincat.cli import EXIT_CONFIG, EXIT_NUMERIC, main
from spincat.state import Basis, QuadratureGrid, QuadratureWavefunction


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
    `spincat.cli.main`: the three guards against faults of the package
    itself, each shown a fault that a monkeypatch puts in, and an output
    name that is an existing directory."""
    with monkeypatch.context() as patched:  # a squeeze grid that cuts off the state
        patched.setattr("spincat.cli.grid_for_state", lambda state: QuadratureGrid(3.0, 256))
        assert main(["squeeze", "--xi2", "20", "--out-dir", str(tmp_path / "squeeze")]) \
            == EXIT_NUMERIC
    assert json.loads(capsys.readouterr().err)["kind"] == "ResolutionError"
    assert not (tmp_path / "squeeze").exists()

    with monkeypatch.context() as patched:  # a cat approximation that is not even
        patched.setattr("spincat.cat.approx_p_wavefunction", lambda mu, beta, grid:
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


def kept_entry(root, name, code=0, stdout="", stderr="", files=()):
    """A directory as `regenerate.keep` writes it for one entry; `files`
    maps each output file name to its text."""
    entry = root / name
    (entry / "files").mkdir(parents=True)
    (entry / "exit").write_text(f"{code}\n")
    (entry / "stdout").write_text(stdout)
    (entry / "stderr").write_text(stderr)
    for file, text in dict(files).items():
        (entry / "files" / file).write_text(text)


def test_compare_reports_each_kind_of_difference(tmp_path, capsys):
    regenerate = load_regenerate()
    old, new = tmp_path / "old", tmp_path / "new"
    wave = "coord,re,im,abs2\n-1,0.5,0,0.25\n0,1,0,1\n1,0.5,0,0.25\n"
    for root, changed in ((old, False), (new, True)):
        kept_entry(root, "same", stdout='{"a": 1}\n', files={"cat_p.csv": wave})
        kept_entry(root, "code", code=3 if changed else 0)
        kept_entry(root, "wave", files={"cat_p.csv": wave.replace("0.5,0,0.25", "0.25,0,0.0625")
                                        if changed else wave})
        kept_entry(root, "grid", files={"cat_x.csv": wave + "2,0,0,0\n3,0,0,0\n"
                                        if changed else wave})
        doc = {"a": 1, "b": {"c": 2, "d": 4}, "e": 5} if changed else {"a": 1, "b": {"c": 2, "d": 3}}
        kept_entry(root, "doc", files={"report.json": json.dumps(doc)})
        kept_entry(root, "lines", stderr="config error: x\n" if changed else "config error: y\n")
        kept_entry(root, "new" if changed else "gone")
    (new / "same" / "files" / "extra.csv").write_text(wave)
    expected = [
        "code: exit 0 -> 3",
        "doc: files/report.json: keys differ: b.d, e",
        "gone: missing",
        "grid: files/cat_x.csv: grid changed: 3 -> 5 points",
        "lines: stderr: 1 of 1 lines differ",
        "new: added",
        "same: files/extra.csv: added",
        "wave: files/cat_p.csv: max |delta| 0.25 of the peak 1, in 2 of 3 rows, coord -1 to 1, "
        "|coord| >= 1",
    ]
    assert regenerate.compare(str(old), str(new)) == expected
    assert regenerate.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == expected
    assert regenerate.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "no entry differs\n"


def test_keep_writes_what_compare_reads(tmp_path):
    """Two runs of the same commands keep outputs that compare equal, with
    the output directory written as "<out>"."""
    regenerate = load_regenerate()
    entries = {"report": ["feasibility", "--preset", "bec-cavity"],
               "refused/kappa0": ["feasibility", "--kappa0", "0"]}
    for run in ("a", "b"):
        regenerate.keep(entries, str(tmp_path / run))
    assert regenerate.compare(str(tmp_path / "a"), str(tmp_path / "b")) == []
    report = tmp_path / "a" / "report"
    assert (report / "exit").read_text() == "0\n"
    assert json.loads((report / "stdout").read_text())["files"] == {
        "report": "<out>/feasibility_report.json"}
    assert (report / "files" / "feasibility_report.json").exists()
    assert (tmp_path / "a" / "refused" / "kappa0" / "exit").read_text() == "2\n"
    with pytest.raises(FileExistsError):
        regenerate.keep(entries, str(tmp_path / "a"))

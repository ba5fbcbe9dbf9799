"""Flat-file serialization: CSV for states and wavefunctions, JSON for
summaries and reports, JSON lines for trajectories.  All writes are atomic
(temp file then rename).  CSV fields carry 17 significant digits and JSON
floats their shortest repr, both enough to round-trip doubles.

Parity: a wavefunction whose values are a bitwise palindrome (every even
state on a symmetric grid) has only the re,im,abs2 fields of its upper
half formatted, and a bitwise antisymmetric grid only its positive
coordinates; the lower half reuses that text, so the bytes are those of
formatting every point.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import DomainError
from .state import NumberState, QuadratureGrid, QuadratureWavefunction, _mirror_half


# Row templates applied to zipped columns of Python numbers; "%.17g" gives
# the same text as f"{x:.17g}", faster.
_FIELD = "%.17g"
_STATE_ROW = "%d,%.17g,%.17g\n"
_WAVEFUNCTION_TAIL = ",%.17g,%.17g,%.17g\n"
_HISTOGRAM_ROW = "%.17g,%.17g,%d\n"
# One trajectory record as json.dumps(record, sort_keys=True) writes it; the
# head holds the flags, which take four values within one command.
_TRAJECTORY_HEAD = ('{"flags": {"combined": %s, "reachable": %s, "resolvable": %s}, '
                    '"index": ')
_TRAJECTORY_ROW = '%s%d, "mu_approx": %r, "mu_exact": %r, "p_P": %r, "p_R": %r}\n'
_JSON_BOOL = ("false", "true")


def atomic_write_text(path: str, chunks) -> None:
    """Write the concatenation of the str `chunks` (any iterable, consumed
    once) to `path` through a temp file and a rename, so the file appears
    whole or not at all, also when producing a chunk raises."""
    if isinstance(chunks, str):
        raise TypeError("atomic_write_text takes an iterable of str chunks, not a str")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_number_state_csv(state: NumberState, path: str) -> None:
    amps = state.amplitudes
    rows = [_STATE_ROW % row
            for row in zip(range(amps.size), amps.real.tolist(), amps.imag.tolist())]
    atomic_write_text(path, ("n,re,im\n", "".join(rows)))


def format_coords(grid: QuadratureGrid) -> list[str]:
    """The formatted coordinate column of a wavefunction CSV on `grid`.  On
    a bitwise antisymmetric grid whose mirrored upper points are positive,
    the lower half is the upper half's text behind a "-"."""
    points = grid.points()
    half = _mirror_half(-points, points)
    if half and not points[-half:].min() > 0.0:
        half = 0
    upper = [_FIELD % x for x in points[half:].tolist()]
    return ["-" + text for text in upper[::-1][:half]] + upper


def write_wavefunction_csv(wf: QuadratureWavefunction, path: str, *,
                           coords: list[str] | None = None) -> None:
    """`coords`, if given, is `format_coords(wf.grid)`, computed once for
    several files on one grid."""
    if coords is None:
        coords = format_coords(wf.grid)
    elif len(coords) != wf.grid.count:
        raise DomainError(
            f"{len(coords)} coordinates for a grid of {wf.grid.count} points"
        )
    vals = wf.values
    half = _mirror_half(vals, vals)
    upper = vals[half:]
    # Python's abs per element: np.abs(vals) ** 2 can differ in the last ulp.
    try:
        abs2 = [abs(v) ** 2 for v in upper.tolist()]
    except OverflowError:
        # A Python float raises where numpy's scalar gives inf (|v| > 1.3e154).
        abs2 = [abs(v) ** 2 for v in upper]
    tails = [_WAVEFUNCTION_TAIL % row
             for row in zip(upper.real.tolist(), upper.imag.tolist(), abs2)]
    tails = tails[::-1][:half] + tails
    rows = map(str.__add__, coords, tails)
    atomic_write_text(path, ("coord,re,im,abs2\n", "".join(rows)))


def write_json(obj, path: str) -> None:
    atomic_write_text(path, (json.dumps(obj, indent=2, sort_keys=True), "\n"))


def write_json_lines(chunks, path: str) -> None:
    """Write already formatted JSON lines, such as the blocks of
    `format_trajectory_lines`, streaming one chunk at a time."""
    atomic_write_text(path, chunks)


def format_trajectory_lines(first_index: int, p_P, p_R, mu_exact, mu_approx,
                            resolvable, reachable, combined: bool) -> str:
    """JSON lines of the trajectory records first_index, first_index+1, ...
    from equal-length arrays of outcomes, mu values and condition flags;
    each line equals json.dumps(record, sort_keys=True)."""
    heads = [_TRAJECTORY_HEAD % (_JSON_BOOL[combined], reach, resolve)
             for reach in _JSON_BOOL for resolve in _JSON_BOOL]
    head_index = (2 * reachable + resolvable).tolist()
    rows = zip(map(heads.__getitem__, head_index),
               range(first_index, first_index + len(head_index)),
               mu_approx.tolist(), mu_exact.tolist(), p_P.tolist(), p_R.tolist())
    return "".join([_TRAJECTORY_ROW % row for row in rows])


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path: str) -> None:
    edges = np.asarray(edges).tolist()
    rows = [_HISTOGRAM_ROW % row for row in zip(edges[:-1], edges[1:], map(int, counts))]
    atomic_write_text(path, ("bin_left,bin_right,count\n", "".join(rows)))

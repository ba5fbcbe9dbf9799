"""Flat-file serialization: CSV for states and wavefunctions, JSON for
summaries and reports, JSON lines for trajectories.  All writes are atomic
(temp file then rename).  CSV fields carry 17 significant digits and JSON
floats their shortest repr, both enough to round-trip doubles.

Values are real, so the im column of every CSV is the constant 0.
Parity: wavefunction values must be a bitwise palindrome (every even
state on a grid, all of which are symmetric), and grid points are
bitwise antisymmetric, so only the upper half of each column is
formatted; the lower half reuses that text, so the bytes are those of
formatting every point.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DomainError
from .state import NumberState, QuadratureGrid, QuadratureWavefunction


# Row templates applied to zipped columns of Python numbers; "%.17g" gives
# the same text as f"{x:.17g}", faster.
_FIELD = "%.17g"
_STATE_ROW = "%d,%.17g,0\n"
_WAVEFUNCTION_TAIL = ",%.17g,0,%.17g\n"
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
    whole or not at all, also when producing a chunk raises.  The file
    gets the mode the umask leaves of 0o666, as any file the process
    creates (mkstemp's temp file would be 0o600, which the rename keeps)."""
    if isinstance(chunks, str):
        raise TypeError("atomic_write_text takes an iterable of str chunks, not a str")
    directory = os.path.dirname(os.path.abspath(path))
    for _ in range(100):  # a random name, drawn again if it is taken
        tmp = os.path.join(directory, ".tmp-" + os.urandom(6).hex())
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    else:
        raise FileExistsError(f"no unused temporary file name in {directory!r}")
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
    rows = [_STATE_ROW % row for row in zip(range(amps.size), amps.tolist())]
    atomic_write_text(path, ("n,re,im\n", "".join(rows)))


def _palindrome_half(values: np.ndarray) -> int:
    """Half the size when `values` read the same bit for bit in reverse
    (so -0.0 differs from +0.0), else 0."""
    half = values.size // 2
    return half if values[:half].tobytes() == values[::-1][:half].tobytes() else 0


def format_coords(grid: QuadratureGrid) -> list[str]:
    """The formatted coordinate column of a wavefunction CSV on `grid`: the
    lower half is the upper half's text behind a "-", since the points are
    bitwise antisymmetric (a +0.0 upper point mirrors to -0.0, "-0")."""
    half = grid.count // 2
    upper = [_FIELD % x for x in grid.points()[half:].tolist()]
    return ["-" + text for text in upper[::-1][:half]] + upper


def write_wavefunction_csv(wf: QuadratureWavefunction, path: str, *,
                           coords: list[str] | None = None) -> None:
    """Values that are not a bitwise palindrome raise DomainError, and no
    file is written.  `coords`, if given, is `format_coords(wf.grid)`,
    computed once for several files on one grid."""
    if coords is None:
        coords = format_coords(wf.grid)
    elif len(coords) != wf.grid.count:
        raise DomainError(
            f"{len(coords)} coordinates for a grid of {wf.grid.count} points"
        )
    vals = wf.values
    half = _palindrome_half(vals)
    if not half:
        raise DomainError("wavefunction values are not a bitwise palindrome")
    upper = vals[half:]
    # Python's x ** 2 per element (C pow): numpy's x * x can differ in the
    # last ulp.
    try:
        abs2 = [x ** 2 for x in upper.tolist()]
    except OverflowError:
        # A Python float raises where numpy's scalar gives inf (|x| > 1.3e154).
        abs2 = [x ** 2 for x in upper]
    tails = [_WAVEFUNCTION_TAIL % row for row in zip(upper.tolist(), abs2)]
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

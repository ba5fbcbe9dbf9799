"""Flat-file serialization: CSV for states and wavefunctions, JSON for
summaries and reports, JSON lines for trajectories.  All writes are atomic
(temp file then rename).  CSV fields carry 17 significant digits and JSON
floats their shortest repr, both enough to round-trip doubles.

Values are real, so the im column of every CSV is the constant 0.
Parity: wavefunction values must be a bitwise palindrome (every even
state on a grid, all of which are symmetric), and grid points are
bitwise antisymmetric, so only the rows of the upper half are
formatted; the lower half is those rows in reverse, each behind a "-",
so the bytes are those of formatting every point.

Every writer hands `atomic_write_text` its text in chunks of at most
_CHUNK_ROWS rows, so a command's text buffers do not grow with the size
of its output.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .errors import DomainError
from .state import NumberState, QuadratureGrid, QuadratureWavefunction


# The most rows a writer formats and hands on at once.
_CHUNK_ROWS = 1024

# Row templates applied to zipped columns of Python numbers; "%.17g" gives
# the same text as f"{x:.17g}", faster.
_FIELD = "%.17g"
_STATE_ROW = "%d,%.17g,0\n"
_WAVEFUNCTION_ROW = "%s,%.17g,0,%.17g\n"
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


def _chunks(template: str, *columns: np.ndarray):
    """The rows `template % row` over the zipped equal-length `columns`, at
    most _CHUNK_ROWS rows a chunk.  Each chunk is one `%` over a flat tuple
    of Python numbers, which gives the same text as one `%` per row."""
    width, size = len(columns), len(columns[0])
    for start in range(0, size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, size)
        flat = [None] * (width * (stop - start))
        for j, column in enumerate(columns):
            flat[j::width] = column[start:stop].tolist()
        yield (template * (stop - start)) % tuple(flat)


def write_number_state_csv(state: NumberState, path: str) -> None:
    amps = state.amplitudes
    atomic_write_text(path, chain(("n,re,im\n",),
                                  _chunks(_STATE_ROW, np.arange(amps.size), amps)))


def _palindrome_half(values: np.ndarray) -> int:
    """Half the size when `values` read the same bit for bit in reverse
    (so -0.0 differs from +0.0), else 0."""
    half = values.size // 2
    return half if values[:half].tobytes() == values[::-1][:half].tobytes() else 0


def format_coords(grid: QuadratureGrid) -> list[str]:
    """The formatted coordinates of the upper half of `grid`, from the
    middle point (for an odd count) or the first positive one up."""
    return [_FIELD % x for x in grid.points()[grid.count // 2:].tolist()]


def write_wavefunction_csv(wf: QuadratureWavefunction, path: str, *,
                           coords: list[str] | None = None) -> None:
    """Values that are not a bitwise palindrome raise DomainError, and no
    file is written.  `coords`, if given, is `format_coords(wf.grid)`,
    computed once for several files on one grid.  A lower row is its
    mirrored upper row behind a "-", as the points are bitwise
    antisymmetric (a +0.0 upper point mirrors to -0.0, "-0")."""
    if coords is None:
        coords = format_coords(wf.grid)
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
    rows = [_WAVEFUNCTION_ROW % row for row in zip(coords, upper.tolist(), abs2)]
    lower = rows[::-1][:half]
    atomic_write_text(path, chain(
        ("coord,re,im,abs2\n",),
        ("-" + "-".join(lower[i:i + _CHUNK_ROWS]) for i in range(0, half, _CHUNK_ROWS)),
        ("".join(rows[i:i + _CHUNK_ROWS]) for i in range(0, len(rows), _CHUNK_ROWS))))


def write_json(obj, path: str) -> None:
    atomic_write_text(path, (json.dumps(obj, indent=2, sort_keys=True), "\n"))


def write_json_lines(blocks, path: str) -> None:
    """Write the trajectory records of `blocks`, an iterable (consumed
    once) of tuples (first_index, p_P, p_R, mu_exact, mu_approx,
    resolvable, reachable, combined): equal-length arrays of the outcomes,
    mu values and condition flags of records first_index, first_index+1,
    ..., and the bool `combined` they share.  Each line equals
    json.dumps(record, sort_keys=True)."""
    def chunks():
        for first, p_P, p_R, mu_exact, mu_approx, resolvable, reachable, combined in blocks:
            heads = np.array([_TRAJECTORY_HEAD % (_JSON_BOOL[combined], reach, resolve)
                              for reach in _JSON_BOOL for resolve in _JSON_BOOL], dtype=object)
            yield from _chunks(_TRAJECTORY_ROW, heads[2 * reachable + resolvable],
                               np.arange(first, first + len(p_P)),
                               mu_approx, mu_exact, p_P, p_R)

    atomic_write_text(path, chunks())


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path: str) -> None:
    edges = np.asarray(edges)
    atomic_write_text(path, chain(("bin_left,bin_right,count\n",),
                                  _chunks(_HISTOGRAM_ROW, edges[:-1], edges[1:],
                                          np.asarray(counts))))

"""The CSV writers against one-value-at-a-time reference writers: the
files must be equal byte for byte, on adversarial values too.  The atomic
chunk writer under them."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_histogram_csv,
    reference_number_state_csv,
    reference_wavefunction_csv,
)
from spincat.errors import DomainError
from spincat.io import (
    _CHUNK_ROWS,
    atomic_write_text,
    format_coords,
    write_histogram_csv,
    write_json_lines,
    write_number_state_csv,
    write_wavefunction_csv,
)
from spincat.protocol import squeezed_state_exact
from spincat.state import Basis, NumberState, QuadratureGrid, QuadratureWavefunction, to_quadrature

# Signed zeros, subnormals, the normal range's ends, and magnitudes whose
# square underflows or overflows.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, -1e-300, 1e-160, 1.5e-155, 1e-5, 1.0 / 3.0,
           -1.0, np.pi, 1e154, 1.3e154, -1.4e154, 1e300, 1.7976931348623157e308,
           -1.7976931348623157e308]

GRIDS = [QuadratureGrid(6.0, 2), QuadratureGrid(1e-300, 7), QuadratureGrid(1e300, 9)]

# Row counts at the edges of the writers' chunks.
C = _CHUNK_ROWS
CHUNK_EDGES = [1, C - 1, C, C + 1, 2 * C + 1]


def written(tmp_path, write, *args, **kwargs) -> bytes:
    path = tmp_path / "out.csv"
    write(*args, str(path), **kwargs)
    return path.read_bytes()


def adversarial_values(count: int) -> np.ndarray:
    return np.resize(np.array(SPECIAL), count)


@functools.cache
def _abs2_mismatches() -> np.ndarray:
    rng = np.random.default_rng(3)
    v = rng.normal(size=2 ** 20)
    return v[v * v != np.array([x ** 2 for x in v.tolist()])]


def abs2_mismatch_values(count: int) -> np.ndarray:
    """Random values on which numpy's x * x and Python's x ** 2 (the
    reference writer's abs(x) ** 2) disagree, as many as the search finds."""
    picked = _abs2_mismatches()[:count]
    assert picked.size > 0
    return picked


def mirrored(upper: np.ndarray, count: int) -> np.ndarray:
    """The bitwise palindrome of `count` values whose upper half, from
    index count // 2 on, is the start of `upper`."""
    upper = upper[:count - count // 2]
    return np.concatenate((upper[::-1][:count // 2], upper))


def wavefunction(grid, values) -> QuadratureWavefunction:
    """The palindrome of `values` on `grid`: the writer takes no other."""
    return QuadratureWavefunction(grid, mirrored(np.resize(values, grid.count), grid.count),
                                  Basis.X)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{-g.half_width:g}:{g.count}")
def test_wavefunction_csv_bytes_adversarial(tmp_path, grid):
    cases = [
        adversarial_values(grid.count),
        adversarial_values(grid.count)[::-1],
        -adversarial_values(grid.count),
        abs2_mismatch_values(grid.count),
    ]
    with np.errstate(over="ignore"):
        for values in cases:
            wf = wavefunction(grid, values)
            expected = reference_wavefunction_csv(wf).encode()
            assert written(tmp_path, write_wavefunction_csv, wf) == expected
            assert written(tmp_path, write_wavefunction_csv, wf,
                           coords=format_coords(grid)) == expected


@given(parts=st.lists(st.floats(), min_size=2, max_size=40),
       half=st.floats(1e-300, 1e300))
@settings(max_examples=60, deadline=None)
def test_wavefunction_csv_bytes_any_floats(tmp_path_factory, parts, half):
    grid = QuadratureGrid(half, len(parts))
    wf = wavefunction(grid, np.array(parts))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_wavefunction_csv(wf).encode()
        got = written(tmp_path_factory.mktemp("wf"), write_wavefunction_csv, wf)
    assert got == expected


def test_wavefunction_csv_bytes_squeezed_state(tmp_path):
    state = squeezed_state_exact(20.0, 230)
    grid = QuadratureGrid(12.0, 2048)
    for basis in (Basis.P, Basis.X):
        wf = to_quadrature(state, grid, basis)
        assert written(tmp_path, write_wavefunction_csv, wf) == \
            reference_wavefunction_csv(wf).encode()


def nan_with_payload(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(float)[0])


@pytest.mark.parametrize("count", [2, 3, 8, 9, 361, 362,
                                   # each half, or the whole file, at a chunk edge
                                   C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1,
                                   2 * C + 2, 2 * C + 3, 4 * C + 3])
def test_palindromic_wavefunction_csv_bytes(tmp_path, count):
    grid = QuadratureGrid(6.5, count)
    rng = np.random.default_rng(count)
    cases = [
        adversarial_values(count),
        abs2_mismatch_values(count),
        rng.normal(size=count),
        -rng.normal(size=count),
        np.array([nan_with_payload(5)] * count),
    ]
    with np.errstate(over="ignore"):
        for upper in cases:
            values = mirrored(np.resize(upper, count), count)
            assert values.tobytes() == values[::-1].tobytes()
            wf = QuadratureWavefunction(grid, values, Basis.P)
            expected = reference_wavefunction_csv(wf).encode()
            assert written(tmp_path, write_wavefunction_csv, wf) == expected
            assert written(tmp_path, write_wavefunction_csv, wf,
                           coords=format_coords(grid)) == expected


@pytest.mark.parametrize("count", [2, 7, 64])
@pytest.mark.parametrize("left, right", [
    (0.0, -0.0), (complex(1.5, 0.0), complex(1.5, -0.0)),
    (nan_with_payload(1), nan_with_payload(2)),
    (complex(0.25, nan_with_payload(1)), complex(0.25, -nan_with_payload(1))),
    (1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)),
    (complex(2.0, -1e-300), complex(2.0, np.nextafter(-1e-300, 0.0))),
], ids=["signed-zero", "signed-zero-imag", "nan-payload", "nan-sign", "one-ulp",
        "one-ulp-imag"])
def test_near_palindromic_wavefunction_csv_bytes(tmp_path, count, left, right):
    """Values whose mirror pair differs in nothing but its bits, a sign of
    zero, a NaN payload or one ulp in either part, are not a palindrome:
    DomainError, and no file."""
    rng = np.random.default_rng(count)
    values = mirrored(rng.normal(size=count), count).astype(complex)
    values[0], values[-1] = left, right
    assert values.tobytes() != values[::-1].tobytes()
    grid = QuadratureGrid(3.0, count)
    for coords in (None, format_coords(grid)):
        with pytest.raises(DomainError):
            written(tmp_path, write_wavefunction_csv,
                    QuadratureWavefunction(grid, values, Basis.X), coords=coords)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", [
    QuadratureGrid(6.0, 2), QuadratureGrid(6.0, 3),
    QuadratureGrid(12.0, 2048), QuadratureGrid(12.0, 301),
    QuadratureGrid(1e-300, 7), QuadratureGrid(1e300, 10),
    QuadratureGrid(5e-324, 4), QuadratureGrid(5e-324, 5),
], ids=lambda g: f"{g.points()[0]:g}:{g.points()[-1]:g}:{g.count}")
def test_format_coords_equals_formatting_each_point(grid):
    """format_coords is the text of each point of the upper half."""
    assert format_coords(grid) == ["%.17g" % x for x in grid.points()[grid.count // 2:]]


def test_number_state_csv_bytes_adversarial(tmp_path):
    for amps in (adversarial_values(len(SPECIAL)), -adversarial_values(len(SPECIAL)),
                 np.array([1.0]),
                 *(adversarial_values(rows)[::-1] for rows in CHUNK_EDGES)):
        state = NumberState(amps)
        assert written(tmp_path, write_number_state_csv, state) == \
            reference_number_state_csv(state).encode()


def test_histogram_csv_bytes_adversarial(tmp_path):
    edges = np.array(SPECIAL)
    counts = np.array([0, 1, 2 ** 62, 7] * len(SPECIAL))[:edges.size - 1]
    cases = [(edges, counts), (np.sort(edges), counts[::-1]),
             (np.histogram([0.1, 0.2, 0.2], bins=3)[1], np.array([1, 0, 2]))]
    cases += [(adversarial_values(rows + 1), np.resize(counts, rows))
              for rows in CHUNK_EDGES]
    for e, c in cases:
        assert written(tmp_path, write_histogram_csv, e, c) == \
            reference_histogram_csv(e, c).encode()


def test_atomic_write_chunks_equal_joined_text(tmp_path):
    chunks = ["n,re,im\n", "", "0,1,0\n" * 1000, "1,-0,5e-324\n"]
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), iter(chunks))
    assert path.read_bytes() == "".join(chunks).encode()


def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path):
    def chunks():
        yield "first line\n"
        raise RuntimeError("producer failed")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        atomic_write_text(str(path), chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("combined", [False, True])
def test_trajectory_lines_equal_json_dumps(tmp_path, combined):
    """Blocks of 40 records and of each chunk edge, written one after the
    other, from index 2**40 on."""
    finite = np.array([v for v in SPECIAL if np.isfinite(v)])
    blocks, expected, first = [], [], 2 ** 40
    for size in [40, *CHUNK_EDGES]:
        p_p = np.resize(finite, size)
        p_r = np.resize(finite[::-1], size)
        mu_exact, mu_approx = np.resize(finite[3:], size), -p_r
        resolvable = np.arange(size) % 2 == 0
        reachable = np.arange(size) % 4 < 2
        blocks.append((first, p_p, p_r, mu_exact, mu_approx, resolvable, reachable,
                       combined))
        expected += [json.dumps({
            "index": first + i, "p_P": p_p[i], "p_R": p_r[i],
            "mu_exact": mu_exact[i], "mu_approx": mu_approx[i],
            "flags": {"resolvable": bool(resolvable[i]),
                      "reachable": bool(reachable[i]), "combined": combined},
        }, sort_keys=True) + "\n" for i in range(size)]
        first += size
    assert written(tmp_path, write_json_lines, iter(blocks)) == "".join(expected).encode()

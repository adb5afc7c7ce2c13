"""Basins of attraction of the phase-difference map over the square.

Every interior point off the main diagonal converges to one of the two
splay attractors; the boundary of the square and the diagonal form the
invariant leftover set.  Rasterization classifies the forward orbit of
each cell center:

* ``upper`` / ``lower``: the orbit came within ``tol`` (max-norm) of the
  corresponding attractor,
* ``boundary``: the point sits on the invariant set (an edge, or within
  1e-13 of the diagonal), which the orbit can never leave,
* ``unresolved``: the iteration budget ran out; reported, never coerced.

Cell centers are sampled (not corners) so lattice points avoid the
invariant lines except for the deliberate diagonal band.

The classifier keeps ``x`` and ``y`` as two contiguous 1-D arrays and
steps them with :func:`~triclock.core.three_clock_step_xy`.  Rasterization
iterates only the half lattice ``row <= col``, listed by index, and
scatters each result to its cell and its mirror: swapping the two
non-reference clocks maps ``(x, y)`` to ``(y, x)``, and the map
commutes with that swap bit for bit (``g`` is computed as ``f`` with its
arguments swapped, the sine is odd, the edge snap, the diagonal band and
the attractor tests are symmetric, and both axes share one array of cell
centers).  So cell ``[col, row]`` takes the iteration count of
``[row, col]`` and its label with upper and lower exchanged.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import (
    TWO_PI,
    CouplingParams,
    default_max_iterations,
    in_square,
    three_clock_step,  # noqa: F401 -- perfbench's traced run wraps basin.three_clock_step
    three_clock_step_scalar,
    three_clock_step_xy,
)

__all__ = [
    "LABEL_NAMES",
    "ATTRACTOR_UPPER",
    "ATTRACTOR_LOWER",
    "BasinGrid",
    "classify_point",
    "rasterize",
    "orbit",
    "write_grid_csv",
    "write_grid_binary",
    "read_grid_binary",
]

_UPPER, _LOWER, _BOUNDARY, _UNRESOLVED = 0, 1, 2, 3
LABEL_NAMES = ("upper", "lower", "boundary", "unresolved")

ATTRACTOR_UPPER = np.array([2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
ATTRACTOR_LOWER = np.array([4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])

# Label of the mirror cell: swapping x and y swaps the two attractors.
_SWAP_LABEL = np.array([_LOWER, _UPPER, _BOUNDARY, _UNRESOLVED], dtype=np.uint8)

_DIAGONAL_BAND = 1e-13


@dataclass(frozen=True)
class BasinGrid:
    """Rasterized attractor labels and iteration counts over the square.

    ``labels[row, col]`` covers the cell centered at
    ``((col + 0.5) * h, (row + 0.5) * h)`` with ``h = 2*pi / resolution``;
    row 0 is the bottom of the square.
    """

    resolution: int
    labels: np.ndarray  # uint8 codes into LABEL_NAMES, shape (res, res)
    iterations: np.ndarray  # int32, shape (res, res)
    params: CouplingParams
    tol: float
    max_iter: int | None

    def label_counts(self) -> dict[str, int]:
        return {
            name: int(np.count_nonzero(self.labels == code))
            for code, name in enumerate(LABEL_NAMES)
        }


def _on_invariant_boundary(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Points on an edge or the diagonal band; ``d`` is scratch of their size."""
    np.subtract(x, y, out=d)
    np.abs(d, out=d)
    return (x == 0.0) | (x == TWO_PI) | (y == 0.0) | (y == TWO_PI) | (d < _DIAGONAL_BAND)


def _captured(
    x: np.ndarray, y: np.ndarray, attractor: np.ndarray, tol: float, d: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """``max(|x - ax|, |y - ay|) <= tol``, formed in the scratch arrays ``d`` and ``e``."""
    np.subtract(x, attractor[0], out=d)
    np.abs(d, out=d)
    np.subtract(y, attractor[1], out=e)
    np.abs(e, out=e)
    np.maximum(d, e, out=d)
    return d <= tol


def _classify(
    x: np.ndarray, y: np.ndarray, params: CouplingParams, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Label the points ``(x[i], y[i])``; ``x`` and ``y`` are 1-D float arrays."""
    m = x.size
    labels = np.full(m, _UNRESOLVED, dtype=np.uint8)
    iters = np.full(m, max_iter, dtype=np.int32)
    alive = np.arange(m)
    # The masks' float arithmetic goes to one scratch pair, cut to the cells
    # still alive, so an iteration allocates no float array for them.
    scratch = np.empty((2, m))
    for k in range(max_iter + 1):
        d, e = scratch[:, : x.size]
        done_b = _on_invariant_boundary(x, y, d)
        done_u = _captured(x, y, ATTRACTOR_UPPER, tol, d, e)
        done_l = _captured(x, y, ATTRACTOR_LOWER, tol, d, e)
        done = done_b | done_u | done_l
        if done.any():
            idx = alive[done]
            labels[idx] = np.where(
                done_b[done], _BOUNDARY, np.where(done_u[done], _UPPER, _LOWER)
            )
            iters[idx] = k
            keep = ~done
            x = x[keep]
            y = y[keep]
            alive = alive[keep]
        if alive.size == 0 or k == max_iter:
            break
        x, y = three_clock_step_xy(x, y, params)
    return labels, iters


def _budget(params: CouplingParams, tol: float, max_iter: int | None) -> int:
    """Validate the classifier's inputs and resolve the default iteration budget."""
    params.require_analysis_range()
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if max_iter is None:
        return default_max_iterations(params)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    return max_iter


def classify_point(
    p,
    params: CouplingParams,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> tuple[str, int]:
    """Label a single point and report the iterations spent deciding it."""
    max_iter = _budget(params, tol, max_iter)
    point = np.asarray(p, dtype=float).reshape(2)
    if not bool(in_square(point)):
        raise ValueError(f"point {p} outside the square")
    labels, iters = _classify(point[:1], point[1:], params, tol, max_iter)
    return LABEL_NAMES[int(labels[0])], int(iters[0])


def rasterize(
    resolution: int,
    params: CouplingParams,
    tol: float = 1e-6,
    max_iter: int | None = None,
    workers: int = 1,
) -> BasinGrid:
    """Classify the cell-center lattice; deterministic for fixed inputs.

    Only the cells with ``row <= col`` are iterated; each mirror cell
    ``[col, row]`` gets the same iteration count and the label swapped
    upper <-> lower, which is exact (see the module docstring).
    ``workers`` is accepted and checked to be at least 1, but it changes
    nothing: the raster always runs in the calling thread.
    """
    max_iter = _budget(params, tol, max_iter)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    c = (np.arange(resolution) + 0.5) * (TWO_PI / resolution)
    row, col = np.triu_indices(resolution)
    half_labels, half_iters = _classify(c[col], c[row], params, tol, max_iter)

    labels = np.empty((resolution, resolution), dtype=np.uint8)
    iters = np.empty((resolution, resolution), dtype=np.int32)
    # Mirrors first, so that each diagonal cell ends with its own label.
    labels[col, row] = _SWAP_LABEL[half_labels]
    labels[row, col] = half_labels
    iters[col, row] = iters[row, col] = half_iters
    return BasinGrid(
        resolution=resolution,
        labels=labels,
        iterations=iters,
        params=params,
        tol=tol,
        max_iter=max_iter,
    )


def orbit(p, params: CouplingParams, n: int) -> np.ndarray:
    """Forward orbit polyline (p, F(p), ..., F^n(p)), shape (n + 1, 2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    start = np.asarray(p, dtype=float).reshape(2)
    if not bool(in_square(start)):
        raise ValueError(f"point {p} outside the square")
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    for _ in range(n):
        x, y = three_clock_step_scalar(x, y, params.epsilon)
        points.append((x, y))
    return np.array(points)


def write_grid_csv(grid: BasinGrid, stream: IO[str]) -> None:
    """Row-major label matrix, a blank line, then the iteration matrix."""
    for row in grid.labels.tolist():
        stream.write(",".join([LABEL_NAMES[v] for v in row]) + "\n")
    stream.write("\n")
    for row in grid.iterations.tolist():
        stream.write(",".join(map(str, row)) + "\n")


_HEADER = struct.Struct("<qdd")  # resolution, epsilon, tol


def write_grid_binary(grid: BasinGrid, stream: IO[bytes]) -> None:
    """Compact layout: little-endian header, one label byte per cell, then
    32-bit iteration counts, both row-major."""
    stream.write(_HEADER.pack(grid.resolution, grid.params.epsilon, grid.tol))
    stream.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())
    stream.write(np.ascontiguousarray(grid.iterations, dtype="<i4").tobytes())


def read_grid_binary(stream: IO[bytes]) -> BasinGrid:
    """Read what :func:`write_grid_binary` wrote; any other length is a ValueError."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError(f"grid header needs {_HEADER.size} bytes, got {len(header)}")
    resolution, epsilon, tol = _HEADER.unpack(header)
    if resolution < 1:
        raise ValueError(f"grid header gives resolution {resolution}")
    n = resolution * resolution
    body = stream.read()
    if len(body) != 5 * n:
        raise ValueError(
            f"grid of resolution {resolution} needs {5 * n} bytes after the header, "
            f"got {len(body)}"
        )
    labels = np.frombuffer(body, dtype=np.uint8, count=n).reshape(resolution, resolution)
    iters = np.frombuffer(body, dtype="<i4", offset=n).reshape(resolution, resolution)
    return BasinGrid(
        resolution=int(resolution),
        labels=labels.copy(),
        iterations=iters.astype(np.int32),
        params=CouplingParams(epsilon=float(epsilon)),
        tol=float(tol),
        max_iter=None,
    )

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

A large half lattice is split over forked processes (POSIX only):
``rasterize(..., workers=n)`` deals its cells round-robin into at most
``n`` parts of at least ``_MIN_CELLS_PER_PROCESS`` cells, forked children
classify parts 1.. and send their labels and counts back through pipes,
and the caller classifies part 0.  Each cell's arithmetic is elementwise,
so the result does not depend on the split.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import IO, NoReturn

import numpy as np

from .core import (
    TWO_PI,
    CouplingParams,
    default_max_iterations,
    in_square,
    require_integer,
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

# A forked worker costs about 2-3 ms to fork and reap, plus copy-on-write
# faults.  Two processes beat the serial classifier from about 1000-1300
# cells each; at 1463 and more they took 0.63-0.91x its time (README).
_MIN_CELLS_PER_PROCESS = 1500


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


def _classify_split(
    x: np.ndarray, y: np.ndarray, params: CouplingParams, tol: float, max_iter: int, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_classify` over at most ``workers`` processes.

    The points are dealt round-robin into parts of at least
    ``_MIN_CELLS_PER_PROCESS`` points, each laid out as one slice.  Parts
    1.. run in forked children, which write their labels and counts to a
    pipe; the caller runs part 0 and reads each pipe into its part's slice.
    With one part, or without ``os.fork``, this is :func:`_classify`.  Each
    point's arithmetic is elementwise, so the result is the serial one bit
    for bit.
    """
    m = x.size
    parts = min(workers, m // _MIN_CELLS_PER_PROCESS)
    if parts < 2 or not hasattr(os, "fork"):
        return _classify(x, y, params, tol, max_iter)
    dealt = [np.arange(j, m, parts) for j in range(parts)]
    order = np.concatenate(dealt)
    bounds = np.cumsum([0] + [d.size for d in dealt]).tolist()
    first, *rest = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    x, y = x[order], y[order]
    labels = np.empty(m, dtype=np.uint8)
    iters = np.empty(m, dtype=np.int32)
    children: dict[int, tuple[int, slice]] = {}  # pid -> (read end of its pipe, its part)
    try:
        for part in rest:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _classify_in_child(w, x[part], y[part], params, tol, max_iter)
            os.close(w)
            children[pid] = (r, part)
        labels[first], iters[first] = _classify(x[first], y[first], params, tol, max_iter)
        for pid, (r, part) in list(children.items()):
            complete = _receive(r, (labels[part], iters[part]))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(r)
            if status != 0:
                raise RuntimeError(f"raster worker {pid} exited with status {status}")
            if not complete:
                raise RuntimeError(
                    f"raster worker {pid} did not send exactly the {5 * (part.stop - part.start)} "
                    "bytes of its part"
                )
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (r, _) in children.items():
            os.close(r)
            os.waitpid(pid, 0)
    out_labels = np.empty_like(labels)
    out_iters = np.empty_like(iters)
    out_labels[order] = labels
    out_iters[order] = iters
    return out_labels, out_iters


def _classify_in_child(
    fd: int, x: np.ndarray, y: np.ndarray, params: CouplingParams, tol: float, max_iter: int
) -> NoReturn:
    """In a forked child: classify, write labels then counts to ``fd``, and
    leave by ``os._exit`` only, so inherited stdio buffers are never flushed
    and ``atexit`` handlers never run."""
    status = 1
    try:
        for a in _classify(x, y, params, tol, max_iter):
            view = memoryview(a).cast("B")
            while view:
                view = view[os.write(fd, view):]
        status = 0
    except BaseException:  # reported here; the caller sees the exit status
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _receive(fd: int, arrays: tuple[np.ndarray, ...]) -> bool:
    """Fill the contiguous ``arrays`` in turn from the pipe ``fd``; whether
    the pipe held exactly their bytes."""
    for a in arrays:
        view = memoryview(a).cast("B")
        while view:
            n = os.readv(fd, [view])
            if n == 0:
                return False
            view = view[n:]
    return os.read(fd, 1) == b""


def _budget(params: CouplingParams, tol: float, max_iter: int | None) -> int:
    """Validate the classifier's inputs and resolve the default iteration budget."""
    params.require_analysis_range()
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if max_iter is None:
        return default_max_iterations(params)
    require_integer(max_iter, "max_iter")
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
    ``workers`` is the most processes that classify the half lattice:
    where ``os.fork`` exists and each process gets at least
    ``_MIN_CELLS_PER_PROCESS`` cells, up to ``workers - 1`` forked children
    classify parts of it beside the caller (POSIX only; the output is the
    same bit for bit at any ``workers``).  A failed child raises
    ``RuntimeError``, and no child outlives the call.
    """
    require_integer(resolution, "resolution")
    require_integer(workers, "workers")
    max_iter = _budget(params, tol, max_iter)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    c = (np.arange(resolution) + 0.5) * (TWO_PI / resolution)
    row, col = np.triu_indices(resolution)
    half_labels, half_iters = _classify_split(c[col], c[row], params, tol, max_iter, workers)

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

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
``[row, col]`` and its label with upper and lower exchanged.  That holds
while no cell can pass both capture tests at once, that is for
``tol < _MIRROR_TOL`` = 1: a cell that passes both is labelled upper, and
so is its mirror.  From that tol up every cell is iterated.

A large half lattice is split over forked processes (POSIX only):
``rasterize(..., workers=n)`` deals its cells round-robin into at most
``n`` parts of at least ``_MIN_CELLS_PER_PROCESS`` cells, forked children
classify parts 1.. and send their labels and counts back through pipes,
and the caller classifies part 0.  Each cell's arithmetic is elementwise,
so the result does not depend on the split.

The classifier runs each finish test only where a cell can pass it.  A
cell's finish distances are ``||p - U||`` and ``||p - L||`` (max-norm,
``U`` and ``L`` the attractors), ``|x - y|`` and
``min(x, y, 2*pi - x, 2*pi - y)``; a test passes where its distance is at
most ``tol``, ``_DIAGONAL_BAND`` or 0.  Lemma: for ``0 < eps < 1/9`` and
``p`` in the square, one exact step ``F = id + eps*omega`` shrinks each of
them at most by the factor ``1 - 5*eps``, which is above 4/9.  Proof: each
row of ``|D-omega|`` sums to at most ``3 + 2 = 5`` (``|2 cos x + cos(x - y)|
+ |cos y - cos(x - y)|``), so each component of ``omega`` is 5-Lipschitz in
the max-norm; ``omega`` vanishes at ``U``, so ``||F(p) - U|| >= ||p - U|| -
eps*||omega(p) - omega(U)|| >= (1 - 5*eps)*||p - U||``, and likewise at
``L``.  ``f - g = sin x - sin y + 2 sin(x - y)`` vanishes on the diagonal,
with ``|f - g| <= 3|x - y|``; ``f`` vanishes on the edges ``x = 0`` and
``x = 2*pi`` for every ``y``, with ``|df/dx| <= 3``, and ``g`` likewise on
``y = 0`` and ``y = 2*pi``, so those two distances keep at least
``1 - 3*eps`` of themselves.  So the least value of a distance over the
cells bounds how many steps must pass before its test can pass again
(see ``_SKIP_SLACK`` for the float step), and the classifier takes those
steps without testing.  At the default ``tol`` no cell of a raster
finishes in the first half of its run: the benchmark's basin-raster
workload took 0.82x the time of testing every cell at every iteration
(held-out seed, 10 pairs; the README has the other ratios).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import IO, NoReturn

import numpy as np

from .core import (
    BOUNDARY_SNAP_TOL,
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

# Below this tol no point passes both capture tests, since the attractors
# are 2*pi/3 apart in the max-norm.  From it up, a cell that passes both at
# once is labelled upper, and so is its mirror, which passes both at the
# same iteration: the swap no longer gives the mirror's label, and the
# raster classifies every cell instead of the half lattice.
_MIRROR_TOL = 1.0

_DIAGONAL_BAND = 1e-13

# Each finish distance shrinks per exact step at most by the factor
# 1 - _OMEGA_LIPSCHITZ*eps (the lemma in the module docstring).
_OMEGA_LIPSCHITZ = 5.0

# The lemma holds for the exact map.  The float step differs from it by its
# rounding (a few 1e-16 per coordinate) and the edge snap (less than
# BOUNDARY_SNAP_TOL = 1e-14), and each finish distance is at most
# 2-Lipschitz in the max-norm, so the float step moves it less than 3e-14
# more.  The float constants (the attractors, TWO_PI), the distances' own
# rounding and the rounding of the recurrence below add less than 1e-14.
# This slack per step covers both with a wide margin: where a distance's
# least value over the cells is g at some iteration, its test passes no
# cell j steps later while b_j > floor, where b_0 = g,
# b_{i+1} = (1 - _OMEGA_LIPSCHITZ*eps)*b_i - _SKIP_SLACK and
# floor = max(tol, _DIAGONAL_BAND, BOUNDARY_SNAP_TOL) + _SKIP_SLACK.
_SKIP_SLACK = 1e-12

# A forked worker costs about 2-3 ms to fork and reap, plus copy-on-write
# faults.  Two processes beat the serial classifier from about 1000-1300
# cells each; at 1314 and more they took 0.57-0.94x its time (README).
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


def _distance(
    x: np.ndarray, y: np.ndarray, ax: float, ay: float, out: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """``max(|x - ax|, |y - ay|)`` into ``out``, with ``e`` as scratch of its size."""
    np.subtract(x, ax, out=out)
    np.abs(out, out=out)
    np.subtract(y, ay, out=e)
    np.abs(e, out=e)
    return np.maximum(out, e, out=out)


def _next_test(k: int, gaps: tuple, rate: float, floor: float, max_iter: int) -> int:
    """The iteration at which a finish test whose least values over the
    cells were ``gaps`` at iteration ``k`` must run again: ``k + 1``, plus
    one for each ``j >= 1`` in turn with ``b_j > floor`` while that stays
    below ``max_iter``, where ``b_0`` is the least gap and
    ``b_{i+1} = rate*b_i - _SKIP_SLACK``.  Every gap is compared before
    ``min()`` sees them, so a NaN (which fails the comparison) skips no step.
    """
    j = k + 1
    if all(g > floor for g in gaps):
        b = rate * min(gaps) - _SKIP_SLACK
        while j < max_iter and b > floor:
            j += 1
            b = rate * b - _SKIP_SLACK
    return j


def _classify(
    x: np.ndarray, y: np.ndarray, params: CouplingParams, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Label the points ``(x[i], y[i])``; ``x`` and ``y`` are 1-D float arrays.

    There are four finish tests: the edges, the diagonal band and the two
    captures.  Each runs at iteration 0, and then again at the iteration
    :func:`_next_test` gives (see the module docstring); the steps in
    which no test is due are taken without testing or compacting.  A test
    forms its distance once, with the edge distances taken from one
    reduction per coordinate and side, and forms its mask only where that
    least value shows a hit.  The labels and counts are those of running
    every test at every iteration: boundary before upper before lower.
    """
    m = x.size
    labels = np.full(m, _UNRESOLVED, dtype=np.uint8)
    iters = np.full(m, max_iter, dtype=np.int32)
    alive = np.arange(m)
    # The tests' float arithmetic goes to one scratch pair, cut to the cells
    # still alive, so a test allocates no float array for them.
    scratch = np.empty((2, m))
    rate = 1.0 - _OMEGA_LIPSCHITZ * params.epsilon
    floor = max(tol, _DIAGONAL_BAND, BOUNDARY_SNAP_TOL) + _SKIP_SLACK
    # The iteration at which each test runs next: edges, band, upper, lower.
    due = [0, 0, 0, 0]
    k = 0
    while alive.size:
        d, e = scratch[:, : alive.size]
        hits = []  # (label, cells that take it), in the labels' order of precedence
        if due[0] == k:
            xmin, xmax = np.minimum.reduce(x), np.maximum.reduce(x)
            ymin, ymax = np.minimum.reduce(y), np.maximum.reduce(y)
            gaps = (xmin, ymin, TWO_PI - xmax, TWO_PI - ymax)
            if not all(g > 0.0 for g in gaps):
                hits.append((_BOUNDARY, (x == 0.0) | (x == TWO_PI) | (y == 0.0) | (y == TWO_PI)))
            due[0] = _next_test(k, gaps, rate, floor, max_iter)
        if due[1] == k:
            np.subtract(x, y, out=d)
            np.abs(d, out=d)
            gap = np.minimum.reduce(d)
            if not gap >= _DIAGONAL_BAND:
                hits.append((_BOUNDARY, d < _DIAGONAL_BAND))
            due[1] = _next_test(k, (gap,), rate, floor, max_iter)
        for i, code, (ax, ay) in ((2, _UPPER, ATTRACTOR_UPPER), (3, _LOWER, ATTRACTOR_LOWER)):
            if due[i] == k:
                gap = np.minimum.reduce(_distance(x, y, ax, ay, d, e))
                if not gap > tol:
                    hits.append((code, d <= tol))
                due[i] = _next_test(k, (gap,), rate, floor, max_iter)
        if hits:
            done = hits[0][1]
            for _, hit in hits[1:]:
                done = done | hit
            idx = alive[done]
            if idx.size:
                iters[idx] = k
                # Last to first, so that each cell keeps the first label it passes.
                for code, hit in reversed(hits):
                    labels[alive[hit]] = code
                keep = ~done
                alive = alive[keep]
                x = x[keep]
                y = y[keep]
        if not alive.size or k == max_iter:
            break
        # A test that passed no cell bounds the survivors too; one that
        # passed some is due again at k + 1, since its least value was a hit.
        upto = min(due)
        for _ in range(upto - k):
            x, y = three_clock_step_xy(x, y, params)
        k = upto
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

    For ``tol < _MIRROR_TOL`` only the cells with ``row <= col`` are
    iterated; each mirror cell ``[col, row]`` gets the same iteration count
    and the label swapped upper <-> lower, which is exact (see the module
    docstring).  A larger ``tol`` iterates every cell.
    ``workers`` is the most processes that classify the lattice:
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
    mirror = tol < _MIRROR_TOL
    if mirror:
        row, col = np.triu_indices(resolution)
    else:
        row, col = np.indices((resolution, resolution)).reshape(2, -1)
    cell_labels, cell_iters = _classify_split(c[col], c[row], params, tol, max_iter, workers)

    labels = np.empty((resolution, resolution), dtype=np.uint8)
    iters = np.empty((resolution, resolution), dtype=np.int32)
    if mirror:
        # Mirrors first, so that each diagonal cell ends with its own label.
        labels[col, row] = _SWAP_LABEL[cell_labels]
        iters[col, row] = cell_iters
    labels[row, col] = cell_labels
    iters[row, col] = cell_iters
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

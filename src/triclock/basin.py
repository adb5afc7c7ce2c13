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

The classifier steps the centred coordinates ``u = x - pi``, ``v = y -
pi`` as two contiguous 1-D arrays, with
:func:`~triclock.core.three_clock_step_centred`.  There the edges are
``u = -pi``, ``u = pi`` and likewise for ``v`` (one float and its
negation), the attractors are ``(-pi/3, pi/3)`` (upper) and
``(pi/3, -pi/3)`` (lower), and the cell centres are
``(i + (0.5 - res/2)) * (2*pi/res)``, so centre ``res-1-i`` is exactly
minus centre ``i``.  Two mirrors map cell centres to cell centres: the
transpose ``(u, v) -> (v, u)``, which swaps the two non-reference clocks
and the two attractors, and the anti-transpose ``R(u, v) = (-v, -u)``,
which fixes both attractors.  The float step commutes with the first bit
for bit and with the second up to the sign of zeros, which no test sees
(see ``three_clock_step_centred``), and the edge tests, the diagonal band
and the pair of attractor tests are invariant under both.  So rasterization
iterates only the quarter lattice ``row <= col``, ``row + col <= res - 1``,
listed by index, and scatters each result to its four images, all with
its iteration count: the cell ``[row, col]`` and its ``R`` image
``[res-1-col, res-1-row]`` with its label, and its transpose
``[col, row]`` and point reflection ``[res-1-row, res-1-col]`` with upper
and lower exchanged.  That needs no cell to pass two tests of different
labels, which holds for every accepted ``tol``, ``0 <= tol < _TOL_BOUND``
= 1 (see there).  :func:`classify_point` classifies ``p - (pi, pi)`` with
the same classifier, so it is the raster's oracle.

A large quarter lattice is split over forked processes (POSIX only):
``rasterize(..., workers=n)`` deals its cells round-robin into at most
``n`` parts of at least ``_MIN_CELLS_PER_PROCESS`` cells, forked children
classify parts 1.. into one shared mapping made before the fork, and the
caller classifies part 0 into it.  Each cell's arithmetic is elementwise,
so the result does not depend on the split.

The classifier runs each finish test only where a cell can pass it.  A
cell's finish distances are ``||p - U||`` and ``||p - L||`` (max-norm,
``U`` and ``L`` the attractors), ``|u - v|`` and
``min(pi + u, pi + v, pi - u, pi - v)``; a test passes where its distance
is at most ``tol``, ``_DIAGONAL_BAND`` or 0.  Lemma: for ``0 < eps < 1/9``
and ``p`` in the square, one exact step ``F = id + eps*omega`` shrinks
each of them at most by the factor ``1 - 5*eps``, which is above 4/9.
Proof (in the square's coordinates; a translation changes neither the
distances nor the Lipschitz constants): each row of ``|D-omega|`` sums to
at most ``3 + 2 = 5`` (``|2 cos x + cos(x - y)| + |cos y - cos(x - y)|``),
so each component of ``omega`` is 5-Lipschitz in the max-norm; ``omega``
vanishes at ``U``, so ``||F(p) - U|| >= ||p - U|| - eps*||omega(p) -
omega(U)|| >= (1 - 5*eps)*||p - U||``, and likewise at ``L``.  ``f - g =
sin x - sin y + 2 sin(x - y)`` vanishes on the diagonal, with ``|f - g|
<= 3|x - y|``; ``f`` vanishes on the edges ``x = 0`` and ``x = 2*pi`` for
every ``y``, with ``|df/dx| <= 3``, and ``g`` likewise on ``y = 0`` and
``y = 2*pi``, so those two distances keep at least ``1 - 3*eps`` of
themselves.  So the least value of a distance over the cells bounds how
many steps must pass before its test can pass again (see ``_SKIP_SLACK``
for the float step), and the classifier takes those steps without
testing.  At the default ``tol`` no cell of a raster finishes in the
first half of its run: the benchmark's basin-raster workload took 0.82x
the time of testing every cell at every iteration (held-out seed, 10
pairs; the README has the other ratios).
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import (
    BOUNDARY_SNAP_TOL,
    TWO_PI,
    CouplingParams,
    default_max_iterations,
    in_square,
    require_integer,
    three_clock_step,  # noqa: F401 -- perfbench's traced run wraps basin.three_clock_step
    three_clock_step_centred,
    three_clock_step_scalar,
)

__all__ = [
    "LABEL_NAMES",
    "BasinGrid",
    "classify_point",
    "rasterize",
    "require_capture_tol",
    "orbit",
    "write_grid_csv",
    "write_grid_binary",
    "read_grid_binary",
]

_UPPER, _LOWER, _BOUNDARY, _UNRESOLVED = 0, 1, 2, 3
LABEL_NAMES = ("upper", "lower", "boundary", "unresolved")

# The attractors in centred coordinates, from one float and its negation:
# (label, u, v), upper before lower.
_PI_3 = math.pi / 3.0
_CENTRED_ATTRACTORS = ((_UPPER, -_PI_3, _PI_3), (_LOWER, _PI_3, -_PI_3))

# Label of the transposed cell: swapping u and v swaps the two attractors.
_SWAP_LABEL = np.array([_LOWER, _UPPER, _BOUNDARY, _UNRESOLVED], dtype=np.uint8)

# A capture tol is below this round number under pi/3, from which up the
# upper capture box would take cells of the lower triangle.  A point within
# tol (max-norm) of U = (-pi/3, pi/3) has v - u >= 2*pi/3 - 2*tol > 0.094:
# the upper box lies in the open upper triangle, more than pi/3 - 1 off the
# diagonal and 2*pi/3 - 1 off every edge, and the lower box likewise.  So
# no cell passes two tests of different labels, and a transposed cell's
# label is the swapped one.
_TOL_BOUND = 1.0

_DIAGONAL_BAND = 1e-13

# Each finish distance shrinks per exact step at most by the factor
# 1 - _OMEGA_LIPSCHITZ*eps (the lemma in the module docstring).
_OMEGA_LIPSCHITZ = 5.0

# The lemma holds for the exact map.  The float step in centred coordinates
# differs from it by its rounding (a few 1e-16 per coordinate: every
# coordinate and its image are below pi + 0.45 in size, the sines' arguments
# below 2*pi) and the edge snap (less than BOUNDARY_SNAP_TOL = 1e-14), and
# each finish distance is at most 2-Lipschitz in the max-norm, so the float
# step moves it less than 3e-14 more.  The float constants (pi/3 and pi,
# each within 1.3e-16 of its real value), the distances' own rounding and
# the rounding of the recurrence below add less than 1e-14.  This slack per
# step covers both with a wide margin: where a distance's least value over
# the cells is g at some iteration, its test passes no cell j steps later
# while b_j > floor, where b_0 = g,
# b_{i+1} = (1 - _OMEGA_LIPSCHITZ*eps)*b_i - _SKIP_SLACK and
# floor = max(tol, _DIAGONAL_BAND, BOUNDARY_SNAP_TOL) + _SKIP_SLACK.
_SKIP_SLACK = 1e-12

# A forked worker costs about 2-3 ms to fork and reap, plus copy-on-write
# faults.  On quarter lattices at eps 0.035 and 0.07, two processes took
# 0.90-1.40x the serial time up to 1035 cells each and 0.68-0.93x from 1275
# cells each, but for one run of 1.14x at 1540 (median of 7 interleaved
# runs; README).
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
    u: np.ndarray, v: np.ndarray, au: float, av: float, out: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """``max(|u - au|, |v - av|)`` into ``out``, with ``e`` as scratch of its size."""
    np.subtract(u, au, out=out)
    np.abs(out, out=out)
    np.subtract(v, av, out=e)
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
    u: np.ndarray, v: np.ndarray, params: CouplingParams, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Label the points ``(u[i], v[i])`` of centred coordinates; ``u`` and
    ``v`` are 1-D float arrays.

    There are four finish tests: the edges, the diagonal band and the two
    captures.  Each runs at iteration 0, and then again at the iteration
    :func:`_next_test` gives (see the module docstring); the steps in
    which no test is due are taken without testing or compacting.  A test
    forms its distance once, with the edge distances taken from one
    reduction per coordinate and side, and forms its mask only where that
    least value shows a hit.  The labels and counts are those of running
    every test at every iteration: boundary before upper before lower.
    """
    m = u.size
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
            umin, umax = np.minimum.reduce(u), np.maximum.reduce(u)
            vmin, vmax = np.minimum.reduce(v), np.maximum.reduce(v)
            gaps = (math.pi + umin, math.pi + vmin, math.pi - umax, math.pi - vmax)
            if not all(g > 0.0 for g in gaps):
                hits.append((_BOUNDARY, (np.abs(u) == math.pi) | (np.abs(v) == math.pi)))
            due[0] = _next_test(k, gaps, rate, floor, max_iter)
        if due[1] == k:
            np.subtract(u, v, out=d)
            np.abs(d, out=d)
            gap = np.minimum.reduce(d)
            if not gap >= _DIAGONAL_BAND:
                hits.append((_BOUNDARY, d < _DIAGONAL_BAND))
            due[1] = _next_test(k, (gap,), rate, floor, max_iter)
        for i, (code, au, av) in enumerate(_CENTRED_ATTRACTORS, start=2):
            if due[i] == k:
                gap = np.minimum.reduce(_distance(u, v, au, av, d, e))
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
                u = u[keep]
                v = v[keep]
        if not alive.size or k == max_iter:
            break
        # A test that passed no cell bounds the survivors too; one that
        # passed some is due again at k + 1, since its least value was a hit.
        upto = min(due)
        for _ in range(upto - k):
            u, v = three_clock_step_centred(u, v, params)
        k = upto
    return labels, iters


def _classify_split(
    u: np.ndarray, v: np.ndarray, params: CouplingParams, tol: float, max_iter: int, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_classify` over at most ``workers`` processes.

    Part ``j`` of the points is the slice ``j::parts``, of at least
    ``_MIN_CELLS_PER_PROCESS`` points.  Forked children classify parts 1..
    into one shared mapping made before the fork, the caller part 0 before
    it reaps them; with one part, or without ``os.fork``, this is
    :func:`_classify`.  Each point's arithmetic is elementwise, so the
    result is the serial one bit for bit.
    """
    m = u.size
    parts = min(workers, m // _MIN_CELLS_PER_PROCESS)
    if parts < 2 or not hasattr(os, "fork"):
        return _classify(u, v, params, tol, max_iter)
    # Counts first, so that their view is aligned.  The views keep the
    # mapping alive; closing it under them would raise BufferError.
    shared = mmap.mmap(-1, 5 * m)
    iters = np.frombuffer(shared, dtype=np.int32, count=m)
    labels = np.frombuffer(shared, dtype=np.uint8, count=m, offset=4 * m)

    def classify_part(j: int) -> None:
        part = slice(j, None, parts)
        labels[part], iters[part] = _classify(u[part], v[part], params, tol, max_iter)

    children: list[int] = []  # each pid stays here until its waitpid has returned
    try:
        for j in range(1, parts):
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit only: no stdio flush, no atexit
                status = 1
                try:
                    classify_part(j)
                    status = 0
                except BaseException:  # reported here; the caller sees the exit status
                    import traceback

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(status)
            children.append(pid)
        classify_part(0)
        while children:
            status = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            pid = children.pop(0)
            if status != 0:
                raise RuntimeError(f"raster worker {pid} exited with status {status}")
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)
    return labels, iters


def require_capture_tol(tol: float) -> None:
    """Refuse a capture tolerance outside ``[0, 1)`` (see ``_TOL_BOUND``)."""
    if not 0.0 <= tol < _TOL_BOUND:  # NaN fails it too
        raise ValueError(f"tol must be >= 0 and < {_TOL_BOUND:g}, got {tol}")


def _budget(params: CouplingParams, tol: float, max_iter: int | None) -> int:
    """Validate the classifier's inputs and resolve the default iteration budget."""
    params.require_analysis_range()
    require_capture_tol(tol)
    if max_iter is None:
        return default_max_iterations(params)
    require_integer(max_iter, "max_iter", 0)
    return max_iter


def classify_point(
    p,
    params: CouplingParams,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> tuple[str, int]:
    """Label a single point of the square and report the iterations spent
    deciding it.

    It classifies the centred point ``p - (pi, pi)`` with the raster's
    classifier, so it labels and counts a cell centre as :func:`rasterize`
    does wherever ``x - pi`` is that cell's centred centre.  A point within
    rounding of an edge may round onto it.
    """
    max_iter = _budget(params, tol, max_iter)
    point = np.asarray(p, dtype=float).reshape(2)
    if not bool(in_square(point)):
        raise ValueError(f"point {p} outside the square")
    centred = point - math.pi
    labels, iters = _classify(centred[:1], centred[1:], params, tol, max_iter)
    return LABEL_NAMES[int(labels[0])], int(iters[0])


def rasterize(
    resolution: int,
    params: CouplingParams,
    tol: float = 1e-6,
    max_iter: int | None = None,
    workers: int = 1,
) -> BasinGrid:
    """Classify the cell-center lattice; deterministic for fixed inputs.

    Only the quarter lattice ``row <= col``, ``row + col <= resolution - 1``
    is iterated, in centred coordinates; its cells' other three images get
    the same iteration count, the transpose ``[col, row]`` and the point
    reflection ``[res-1-row, res-1-col]`` with the label swapped upper <->
    lower and the anti-transpose ``[res-1-col, res-1-row]`` with the same
    label, which is exact for every accepted ``0 <= tol < 1`` (see the
    module docstring).  ``workers`` is the most processes that
    classify the lattice, each of at least ``_MIN_CELLS_PER_PROCESS``
    cells (forked, so POSIX only; the output is the same bit for bit at
    any ``workers``).  A failed child
    raises ``RuntimeError``, and no child outlives the call.
    """
    require_integer(resolution, "resolution", 2)
    require_integer(workers, "workers", 1)
    max_iter = _budget(params, tol, max_iter)
    # Centred cell centres: c[resolution-1-i] is exactly -c[i].
    c = (np.arange(resolution) + (0.5 - resolution / 2)) * (TWO_PI / resolution)
    row, col = np.triu_indices(resolution)
    quarter = row + col < resolution
    row, col = row[quarter], col[quarter]
    cell_labels, cell_iters = _classify_split(c[col], c[row], params, tol, max_iter, workers)

    labels = np.empty((resolution, resolution), dtype=np.uint8)
    iters = np.empty((resolution, resolution), dtype=np.int32)
    swapped = _SWAP_LABEL[cell_labels]
    flip_row, flip_col = resolution - 1 - row, resolution - 1 - col
    # Swapped images first, so that a cell that is its own transpose or point
    # reflection (a diagonal cell, labelled boundary) ends with its own label.
    images = (
        ((col, row), swapped),  # transpose
        ((flip_row, flip_col), swapped),  # point reflection
        ((flip_col, flip_row), cell_labels),  # anti-transpose
        ((row, col), cell_labels),
    )
    for index, image_labels in images:
        labels[index] = image_labels
        iters[index] = cell_iters
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
    params.require_analysis_range()
    require_integer(n, "n", 0)
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
    """Read what :func:`write_grid_binary` wrote; a wrong length, label code
    or count, or a resolution, eps or ``tol`` that :func:`rasterize` refuses,
    is a ValueError."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError(f"grid header needs {_HEADER.size} bytes, got {len(header)}")
    resolution, epsilon, tol = _HEADER.unpack(header)
    require_integer(resolution, "grid header resolution", 2)
    params = CouplingParams(epsilon=float(epsilon))
    params.require_analysis_range()
    require_capture_tol(tol)
    n = resolution * resolution
    body = stream.read()
    if len(body) != 5 * n:
        raise ValueError(
            f"grid of resolution {resolution} needs {5 * n} bytes after the header, "
            f"got {len(body)}"
        )
    labels = np.frombuffer(body, dtype=np.uint8, count=n).reshape(resolution, resolution)
    iters = np.frombuffer(body, dtype="<i4", offset=n).reshape(resolution, resolution)
    if labels.max() >= len(LABEL_NAMES):
        raise ValueError(f"grid holds label code {labels.max()}; codes run 0..{_UNRESOLVED}")
    if iters.min() < 0:
        raise ValueError(f"grid holds iteration count {iters.min()}; counts are >= 0")
    return BasinGrid(
        resolution=int(resolution),
        labels=labels.copy(),
        iterations=iters.astype(np.int32),
        params=params,
        tol=float(tol),
        max_iter=None,
    )

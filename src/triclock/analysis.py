"""Fixed points, invariant segments, heteroclinics and Lyapunov scans.

Everything here analyzes the three-clock map F = id + eps * omega on the
closed square S.  The drift field omega does not depend on eps, so root
finding is eps-free; eps only enters stability data through the Jacobian
I + eps * D-omega.

The square carries eleven fixed points (three interior, four corners,
four edge midpoints), ten straight invariant segments whose restriction
dynamics are monotone interval maps of the form t -> t + eps * q(t), and
a web of heteroclinic orbits between the fixed points.  Two quadratic
Lyapunov functions, one per open triangle beside the main diagonal,
certify the global pull toward the splay attractors; their decrement per
step is evaluated in expanded form to avoid cancellation.

Single orbits run on Python floats: the census traces the 2-D orbits
through :func:`~triclock.core.three_clock_step_scalar`, and every orbit
end, traced or a segment root, takes the record of its fixed-point row.
Each segment is a row of drift coefficients ``(a, b, c)`` of ``a*sin(t)
+ b*sin(c*t)``, whose drift picks ``math.sin`` for a float, as in the
segment orbits and root bisection, and ``np.sin`` for an array.  The
Lyapunov scan lists its triangle's lattice nodes by index, as one
``(n, 2)`` point array, and evaluates the decrement on them directly,
in the same operation order as :func:`orbital_derivative`, which checks
its points and calls the same code.

Work on many fixed points or segments is one array pass per kind, and
the one-item calls are its one-row form: :func:`classify_rows` makes one
drift and one Jacobian call for all its rows (:func:`classify` is its
one-row call, and the census classifies the eleven fixed points in one
batch), the Newton search runs on the half of its seed lattice with
``row <= col`` and mirrors the rest, and :func:`verify_invariance` given
several segments steps all their samples with one map call.

The swap ``(x, y) -> (y, x)`` commutes with the map bit for bit, and
the work of ``verify`` is done once per mirror pair.  The census traces
3 of its 6 saddle orbits and takes the other 3 as their mirror images,
paired by fixed-point row.  It iterates 4 of its 12 segment orbits,
since the restriction map depends only on a segment's coefficient row.
The lower Lyapunov scan is the upper one mirrored: the decrement at
``(y, x)`` in the lower triangle equals the upper one at ``(x, y)`` bit
for bit, so the last upper scan's maximum and zero set are kept for it.

The work of ``verify`` that does not depend on eps is done once and kept
for later calls in the process, each of which then does only its eps
arithmetic, with the same operands in the same order:

- each segment finds its drift roots once (:attr:`InvariantSegment.roots`)
  and keeps its last sample set, ``t`` with its points, drift and drift
  slope: about 40 kB a segment at 1000 samples;
- the upper Lyapunov lattice and the decrement's terms ``quad`` and
  ``lin`` on it (``DV = eps*eps*quad + eps*lin``) are kept for the last
  grid: about 1.5 MB at grid 300.

A segment's data lives on the segment, so one that differs from another
only in the sign of a zero keeps data of its own.  Nothing is computed at
import, and the kept arrays are read-only.  ``verify --eps`` with several
couplings is the caller that gains.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .core import (
    TWO_PI,
    CouplingParams,
    default_max_iterations,
    in_square,
    jacobian,
    omega_field,
    omega_jacobian,
    require_integer,
    three_clock_step,
    three_clock_step_scalar,
)

__all__ = [
    "FixedPointRecord",
    "FixedPointSearch",
    "InvariantSegment",
    "InvarianceCheck",
    "HeteroclinicOrbit",
    "HeteroclinicCensus",
    "LyapunovReport",
    "known_fixed_points",
    "find_fixed_points",
    "require_residual_tol",
    "classify",
    "classify_rows",
    "invariant_segments",
    "restriction_fixed_points",
    "verify_invariance",
    "trace_heteroclinic",
    "heteroclinic_census",
    "lyapunov_value",
    "orbital_derivative",
    "orbital_derivative_scan",
    "region_fixed_points",
]

_PI = math.pi
_THIRD = 2.0 * math.pi / 3.0

# Bounds of the checks: an invariant segment's image may stray less than
# DEVIATION_TOL off it; a Lyapunov scan's decrement may rise to MAX_DF_TOL,
# and its zero set (the samples with |decrement| < ZERO_TOL) must lie within
# ZERO_SET_CELLS lattice cells of the region's fixed points.
DEVIATION_TOL = 1e-12
MAX_DF_TOL = 1e-12
ZERO_TOL = 1e-12
ZERO_SET_CELLS = 2

# A fixed point's drift residual (max-norm) is at most RESIDUAL_TOL, and the
# fixed-point search's Newton tolerance may not exceed it.
RESIDUAL_TOL = 1e-10

# A heteroclinic orbit starts SEED_STEP off its source fixed point and ends
# once within CAPTURE_TOL of another one.
SEED_STEP = 1e-6
CAPTURE_TOL = 1e-6

# The census that passes: 6 saddle-to-attractor, 10 repeller-to-saddle and
# at least 2 repeller-to-attractor orbits.
CENSUS_RULE = "sa == 6, rs == 10, ra >= 2"

Region = Literal["upper", "lower"]

# The stability classes of a fixed point, each with its letter in an orbit's kind.
_KIND_LETTER = {"attractor": "a", "repeller": "r", "saddle": "s"}

# The eleven fixed points (see known_fixed_points), built once.
_FIXED_POINTS = np.array([
    (_PI, _PI), (_THIRD, 2.0 * _THIRD), (2.0 * _THIRD, _THIRD),  # symmetric, splay points
    (0.0, 0.0), (0.0, TWO_PI), (TWO_PI, 0.0), (TWO_PI, TWO_PI),  # corners
    (0.0, _PI), (TWO_PI, _PI), (_PI, 0.0), (_PI, TWO_PI),  # edge midpoints
])
_FIXED_POINTS.flags.writeable = False
_FIXED_XY = [(float(fx), float(fy)) for fx, fy in _FIXED_POINTS]
_FIXED_X = sorted({fx for fx, _ in _FIXED_XY})
# The row of each fixed point's mirror image (fy, fx).
_MIRROR_ROW = tuple(_FIXED_XY.index((fy, fx)) for fx, fy in _FIXED_XY)
# Each triangle's Lyapunov function is centered on its splay point.
_CENTERS: dict[str, tuple[float, float]] = {"upper": _FIXED_XY[1], "lower": _FIXED_XY[2]}


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointRecord:
    """A fixed point with its local linearization and stability class."""

    location: np.ndarray
    jacobian: np.ndarray
    eigenvalues: tuple[float, float]
    eigenvectors: tuple[np.ndarray, np.ndarray]
    kind: str  # attractor | repeller | saddle
    residual: float

    @classmethod
    def from_dict(cls, d: dict) -> "FixedPointRecord":
        """The record as ``json.dumps(rec, default=json_data)`` wrote it, the
        form of the ``fixed-points`` JSON; a ``kind`` other than attractor,
        repeller or saddle raises ValueError."""
        kind = str(d["kind"])
        if kind not in _KIND_LETTER:
            raise ValueError(f"kind must be attractor, repeller or saddle, got {kind!r}")
        return cls(
            location=np.asarray(d["location"], dtype=float),
            jacobian=np.asarray(d["jacobian"], dtype=float),
            eigenvalues=(float(d["eigenvalues"][0]), float(d["eigenvalues"][1])),
            eigenvectors=(
                np.asarray(d["eigenvectors"][0], dtype=float),
                np.asarray(d["eigenvectors"][1], dtype=float),
            ),
            kind=kind,
            residual=float(d["residual"]),
        )

    def unstable_directions(self) -> list[np.ndarray]:
        return [
            vec
            for lam, vec in zip(self.eigenvalues, self.eigenvectors)
            if abs(lam) > 1.0
        ]


@dataclass(frozen=True)
class FixedPointSearch:
    """Deduplicated roots plus the seeds that never converged."""

    records: tuple[FixedPointRecord, ...]
    unconverged_seeds: np.ndarray


def known_fixed_points() -> np.ndarray:
    """The eleven zeros of the drift field in the closed square.

    Three interior (the symmetric point and the two splay points), the four
    corners, and the four edge midpoints; shape (11, 2), a fresh array.
    """
    return _FIXED_POINTS.copy()


def _eig2(J: np.ndarray) -> tuple[tuple[float, float], tuple[np.ndarray, np.ndarray]]:
    """Closed-form eigenpairs of a real 2x2 matrix with real spectrum."""
    a, b = float(J[0, 0]), float(J[0, 1])
    c, d = float(J[1, 0]), float(J[1, 1])
    disc = (a - d) * (a - d) + 4.0 * b * c
    if disc < 0.0:
        if disc < -1e-12:
            raise ValueError("complex eigenvalue pair; expected a real spectrum")
        disc = 0.0
    s = math.sqrt(disc)
    lams = ((a + d + s) / 2.0, (a + d - s) / 2.0)

    def vec(lam: float) -> np.ndarray:
        if abs(b) > 1e-14:
            v = np.array([b, lam - a])
        elif abs(c) > 1e-14:
            v = np.array([lam - d, c])
        else:
            v = np.array([1.0, 0.0]) if abs(lam - a) <= abs(lam - d) else np.array([0.0, 1.0])
        return v / float(np.linalg.norm(v))

    if abs(b) <= 1e-14 and abs(c) <= 1e-14 and abs(a - d) <= 1e-14:
        vecs: tuple[np.ndarray, np.ndarray] = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    else:
        vecs = (vec(lams[0]), vec(lams[1]))
    # Unstable direction first: order by descending modulus.
    if abs(lams[1]) > abs(lams[0]):
        lams = (lams[1], lams[0])
        vecs = (vecs[1], vecs[0])
    return lams, vecs


def classify(location, params: CouplingParams) -> FixedPointRecord:
    """Fill Jacobian, eigenpairs and the stability class at a fixed point:
    :func:`classify_rows` of the one location, which must be two floats."""
    location = np.asarray(location, dtype=float)
    if location.shape != (2,):
        raise ValueError(f"a location is two floats, got shape {location.shape}")
    return classify_rows(location[None], params)[0]


def classify_rows(locations, params: CouplingParams) -> tuple[FixedPointRecord, ...]:
    """:func:`classify` at each row of an ``(n, 2)`` array, in order.

    One drift and one Jacobian evaluation serve all rows; the eigenpairs
    and the class are found row by row.  Every row must be a drift zero
    (residual at most ``RESIDUAL_TOL``), else ValueError: a non-finite
    coordinate gives a NaN residual and is refused too.  The records'
    locations are rows of a copy of ``locations``.
    """
    params.require_analysis_range()
    rows = np.array(locations, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"locations must have shape (n, 2), got {rows.shape}")
    residuals = np.max(np.abs(omega_field(rows)), axis=-1)
    records = []
    for location, J, residual in zip(rows, jacobian(rows, params), residuals):
        if not residual <= RESIDUAL_TOL:
            raise ValueError(f"{location} is not a fixed point (drift residual {residual:.3e})")
        lams, vecs = _eig2(J)
        moduli = [abs(l) for l in lams]
        if all(m < 1.0 for m in moduli):
            kind = "attractor"
        elif all(m > 1.0 for m in moduli):
            kind = "repeller"
        else:
            kind = "saddle"
        records.append(FixedPointRecord(location, J, lams, vecs, kind, float(residual)))
    return tuple(records)


def _newton_on_drift(seeds: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the drift field, iterates clamped to the square.

    At most 50 Newton steps, each halved at most 30 times.  Clamping keeps
    corner identities intact (the drift is periodic, so an escaped iterate
    would converge to a translated copy of a root).  A seed
    whose Newton step is exactly zero (a singular Jacobian) can never move
    again, so it is frozen where it stands, unconverged.
    Returns final iterates and a converged mask.
    """
    p = np.clip(np.asarray(seeds, dtype=float), 0.0, TWO_PI).copy()
    res = np.max(np.abs(omega_field(p)), axis=-1)
    frozen = np.zeros(res.shape, dtype=bool)
    for _ in range(50):
        todo = (res > tol) & ~frozen
        if not todo.any():
            break
        q = p[todo]
        r = omega_field(q)
        J = omega_jacobian(q)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        safe = np.where(np.abs(det) > 1e-14, det, np.inf)  # singular -> zero step
        dx = np.empty_like(q)
        dx[:, 0] = (-r[:, 0] * J[:, 1, 1] + r[:, 1] * J[:, 0, 1]) / safe
        dx[:, 1] = (-r[:, 1] * J[:, 0, 0] + r[:, 0] * J[:, 1, 0]) / safe
        moving = (dx[:, 0] != 0.0) | (dx[:, 1] != 0.0)
        if not moving.all():
            frozen[np.flatnonzero(todo)[~moving]] = True
            todo[todo] = moving
            q = q[moving]
            dx = dx[moving]
        base = res[todo]
        step = dx
        cand = np.clip(q + step, 0.0, TWO_PI)
        cres = np.max(np.abs(omega_field(cand)), axis=-1)
        for _ in range(30):
            worse = (cres >= base) & (cres > tol)
            if not worse.any():
                break
            step = np.where(worse[:, None], step * 0.5, step)
            cand = np.clip(q + step, 0.0, TWO_PI)
            cres = np.max(np.abs(omega_field(cand)), axis=-1)
        p[todo] = cand
        res[todo] = cres
    return p, res <= tol


def _dedupe_roots(roots: np.ndarray, radius: float) -> list[np.ndarray]:
    """First-seen representatives of ``roots`` (shape ``(n, 2)``).

    A root is kept unless it lies within ``radius`` (max-norm) of a root
    kept before it.  One vector pass per kept root: keep the first remaining
    root, then drop every remaining root within ``radius`` of it.
    """
    unique: list[np.ndarray] = []
    rest = roots
    while rest.shape[0]:
        first = rest[0]
        unique.append(first)
        rest = rest[1:][~(np.max(np.abs(rest[1:] - first), axis=-1) < radius)]
    return unique


def require_residual_tol(tol: float) -> None:
    """Refuse a Newton residual tolerance that is not finite, or not in
    ``(0, RESIDUAL_TOL]``."""
    if not (math.isfinite(tol) and 0.0 < tol <= RESIDUAL_TOL):
        raise ValueError(f"tol must be finite and > 0 and at most {RESIDUAL_TOL}, got {tol}")


def find_fixed_points(
    seed_grid: int = 50, tol: float = 1e-12, *, params: CouplingParams
) -> FixedPointSearch:
    """Newton search for all drift zeros from a uniform seed lattice over S.

    Roots are deduplicated within 1e-6 and classified; seeds that fail to
    converge are returned, never silently dropped.  For eps < 1/9 the root
    set is exactly the eleven points of :func:`known_fixed_points`.  ``tol``
    is at most ``RESIDUAL_TOL``, so that every root it accepts classifies.
    """
    params.require_analysis_range()
    require_integer(seed_grid, "seed_grid", 2)
    require_residual_tol(tol)
    seeds, roots, ok = _newton_on_lattice(seed_grid, tol)
    unique = np.array(_dedupe_roots(roots[ok], 1e-6)).reshape(-1, 2)
    # Roots within rounding of an edge are boundary roots; snap them onto it
    # when that does not cost residual accuracy.
    cand = unique.copy()
    cand[np.abs(cand) < 1e-9] = 0.0
    cand[np.abs(cand - TWO_PI) < 1e-9] = TWO_PI
    keep = np.max(np.abs(omega_field(cand)), axis=-1) <= tol
    snapped = np.where(keep[:, None], cand, unique)
    order = sorted(range(len(snapped)),
                   key=lambda i: (round(float(snapped[i, 0]), 9), round(float(snapped[i, 1]), 9)))
    records = classify_rows(snapped[order], params)
    return FixedPointSearch(records=records, unconverged_seeds=seeds[~ok])


def _newton_on_lattice(seed_grid: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed lattice of :func:`find_fixed_points` in row-major order, and
    :func:`_newton_on_drift`'s final iterates and converged mask on it.

    The drift and its Jacobian commute with the swap ``(x, y) -> (y, x)``
    bit for bit, so Newton from the mirror seed ends at the mirror of the
    seed's iterate.  Newton runs on the seeds with ``row <= col`` only,
    listed by index; the mirror results (columns swapped) are scattered
    first and the half's second, which rebuilds the whole lattice's
    arrays in seed order.
    """
    axis = np.linspace(0.0, TWO_PI, seed_grid)
    gx, gy = np.meshgrid(axis, axis)
    seeds = np.column_stack((gx.ravel(), gy.ravel()))
    row, col = np.triu_indices(seed_grid)
    half, half_ok = _newton_on_drift(np.column_stack((axis[col], axis[row])), tol)
    roots = np.empty_like(seeds)
    ok = np.empty(seeds.shape[0], dtype=bool)
    for index, found in ((col * seed_grid + row, half[:, ::-1]), (row * seed_grid + col, half)):
        roots[index] = found
        ok[index] = half_ok
    return seeds, roots, ok


# ---------------------------------------------------------------------------
# Invariant segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSegment:
    """A straight segment mapped into itself, with its restriction dynamics.

    Points are ``origin + t * direction`` for t in ``domain``; the map
    restricted to the segment reads ``t -> t + eps * drift(t)``, with the
    drift ``a*sin(t) + b*sin(c*t)`` given by its ``coefficients`` row.  A
    Python float ``t`` (``np.float64`` included) goes through ``math.sin``
    and gives a float, anything else through ``np.sin``, bit for bit alike.
    """

    name: str
    origin: tuple[float, float]
    direction: tuple[float, float]
    domain: tuple[float, float]
    coefficients: tuple[float, float, float]

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.asarray(self.origin) + np.multiply.outer(t, self.direction)

    def drift(self, t):
        """``a*sin(t) + b*sin(c*t)``; for ``c == 1`` the one sine serves both
        terms, since ``1.0*t == t`` exactly."""
        a, b, c = self.coefficients
        if isinstance(t, float):
            sin = math.sin
        else:
            sin, t = np.sin, np.asarray(t, dtype=float)
        s = sin(t)
        return a * s + b * (s if c == 1.0 else sin(c * t))

    def drift_derivative(self, t) -> np.ndarray:
        """``a*cos(t) + (b*c)*cos(c*t)``."""
        a, b, c = self.coefficients
        t = np.asarray(t, dtype=float)
        return a * np.cos(t) + (b * c) * np.cos(c * t)

    def restriction(self, t, params: CouplingParams):
        """``t + eps * drift(t)``; a float ``t`` gives a float, not a 0-d array."""
        return t + params.epsilon * self.drift(t)

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """Roots of the drift on the domain (eps-free), sorted and read-only,
        found once per segment.

        A scan of 4096 equal intervals plus bisection; grid nodes already
        within rounding of a root count directly, which catches the domain
        endpoints.
        """
        t = np.linspace(*self.domain, 4097)
        q = self.drift(t)
        roots: list[float] = [float(t[i]) for i in np.flatnonzero(np.abs(q) < 1e-13)]
        sign_change = np.flatnonzero(q[:-1] * q[1:] < 0.0)
        for i in sign_change:
            lo, hi = float(t[i]), float(t[i + 1])
            qlo = float(q[i])
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                qm = self.drift(mid)
                if qm == 0.0:
                    lo = hi = mid
                    break
                if (qm < 0.0) == (qlo < 0.0):
                    lo, qlo = mid, qm
                else:
                    hi = mid
                if hi - lo < 1e-15:
                    break
            roots.append(0.5 * (lo + hi))
        roots.sort()
        out: list[float] = []
        for r in roots:
            if not out or r - out[-1] > 1e-9:
                out.append(r)
        found = np.asarray(out)
        found.flags.writeable = False
        return found

    def _samples(self, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``t``, ``point(t)``, ``drift(t)`` and ``drift_derivative(t)`` on
        ``samples`` equal steps of the domain, read-only; the last set is kept
        for the next call."""
        kept = getattr(self, "_kept_samples", None)
        if kept is None or kept[0].size != samples:
            t = np.linspace(*self.domain, samples)
            kept = (t, self.point(t), self.drift(t), self.drift_derivative(t))
            for a in kept:
                a.flags.writeable = False
            object.__setattr__(self, "_kept_samples", kept)
        return kept


@dataclass(frozen=True)
class InvarianceCheck:
    """Result of sampling a segment and measuring how far F drifts off it."""

    name: str
    passed: bool = field(init=False)
    max_deviation: float
    worst_point: np.ndarray
    monotone: bool
    min_slope: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", not self.failures())

    def failures(self) -> list[str]:
        """The bounds this check broke, as ``verify`` names them."""
        broke = []
        if not self.max_deviation < DEVIATION_TOL:
            broke.append(f"max_deviation={self.max_deviation:.3e} >= {DEVIATION_TOL:g}")
        if not self.monotone:
            broke.append("restriction map not monotone")
        return broke


# 2*sin(t) + sin(t) rounds once, to 3.0*sin(t), and x + (-2)*y is x - 2*y:
# each row gives its drift as written in invariant_segments, bit for bit.
_EDGE, _CHORD = (2.0, 1.0, 1.0), (1.0, 1.0, 2.0)
_SEGMENTS = (
    InvariantSegment("s0", (0.0, 0.0), (0.0, 1.0), (0.0, TWO_PI), _EDGE),
    InvariantSegment("s1", (TWO_PI, 0.0), (0.0, 1.0), (0.0, TWO_PI), _EDGE),
    InvariantSegment("r0", (0.0, 0.0), (1.0, 0.0), (0.0, TWO_PI), _EDGE),
    InvariantSegment("r1", (0.0, TWO_PI), (1.0, 0.0), (0.0, TWO_PI), _EDGE),
    InvariantSegment("diag", (0.0, 0.0), (1.0, 1.0), (0.0, TWO_PI), _EDGE),
    InvariantSegment("anti_diag", (0.0, TWO_PI), (1.0, -1.0), (0.0, TWO_PI), _CHORD),
    InvariantSegment("d1", (0.0, _PI), (1.0, 0.5), (0.0, _THIRD), (2.0, -2.0, 0.5)),
    InvariantSegment("c1", (0.0, 0.0), (1.0, 2.0), (_THIRD, _PI), _CHORD),
    InvariantSegment("c2", (0.0, -TWO_PI), (1.0, 2.0), (_PI, 2.0 * _THIRD), _CHORD),
    InvariantSegment("d2", (0.0, 0.0), (1.0, 0.5), (2.0 * _THIRD, TWO_PI), (2.0, 2.0, 0.5)),
)


def invariant_segments() -> tuple[InvariantSegment, ...]:
    """The ten invariant straight segments of the map on S.

    Edges and the main diagonal share the restriction t + 3*eps*sin(t); the
    anti-diagonal and the two chords through each splay point carry
    t + eps*(sin t + sin 2t); the remaining half-slope segments carry
    t + 2*eps*(sin t -+ sin(t/2)), the lower one being the mirror image of
    the upper one.  One tuple, built at import.
    """
    return _SEGMENTS


def restriction_fixed_points(segment: InvariantSegment) -> np.ndarray:
    """Roots of the segment drift on its domain (eps-independent), sorted:
    a fresh copy of :attr:`InvariantSegment.roots`."""
    return segment.roots.copy()


def verify_invariance(
    segment: InvariantSegment | Sequence[InvariantSegment],
    params: CouplingParams,
    samples: int = 1000,
) -> InvarianceCheck | tuple[InvarianceCheck, ...]:
    """Sample the segment, apply the map, and measure the off-segment drift.

    Passes when the worst perpendicular deviation stays below
    ``DEVIATION_TOL`` and the restriction map is strictly increasing (its
    slope 1 + eps * q'(t) stays positive on a dense sample).  The samples
    ``t``, their points, drift and drift slope do not depend on eps; the
    segment keeps its last set.

    Given a sequence of segments, it checks them all with one map call on
    their stacked samples and returns their checks as a tuple, in order;
    one segment is the one-row call of that form.  The deviations of all
    segments are one ``(segments, samples)`` array.
    """
    require_integer(samples, "samples", 2)
    params.require_analysis_range()
    if isinstance(segment, InvariantSegment):
        return _check_segments((segment,), params, samples)[0]
    return _check_segments(tuple(segment), params, samples)


def _check_segments(segments: tuple[InvariantSegment, ...], params: CouplingParams,
                    samples: int) -> tuple[InvarianceCheck, ...]:
    """:func:`verify_invariance` of each segment, with one map call."""
    if not segments:
        return ()
    kept = [seg._samples(samples) for seg in segments]
    pts = np.stack([points for _, points, _, _ in kept])
    w = three_clock_step(pts, params) - np.array([seg.origin for seg in segments])[:, None]
    direction = np.array([seg.direction for seg in segments])
    dx, dy = direction[:, :1], direction[:, 1:]
    norm = np.array([[math.hypot(*seg.direction)] for seg in segments])
    # Cross-product point-to-line distance: exact zero for images that land
    # exactly on the segment, unlike a projection-based residual.
    dev = np.abs(dy * w[..., 0] - dx * w[..., 1]) / norm
    worst = np.argmax(dev, axis=1)
    checks = []
    for seg, (t, points, drift, drift_slope), row, i in zip(segments, kept, dev, worst):
        slope = 1.0 + params.epsilon * drift_slope
        # seg.restriction(t, params), with the same operands in the same order.
        restricted = t + params.epsilon * drift
        monotone = bool(np.all(np.diff(restricted) > 0.0) and np.all(slope > 0.0))
        checks.append(InvarianceCheck(
            name=seg.name,
            max_deviation=float(row[i]),
            worst_point=points[i].copy(),
            monotone=monotone,
            min_slope=float(np.min(slope)),
        ))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Heteroclinic orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeteroclinicOrbit:
    """A forward orbit running from one fixed point to another."""

    source: FixedPointRecord
    target: FixedPointRecord
    kind: str = field(init=False)  # sa | rs | ra (source/target class initials)
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _orbit_kind(self.source, self.target))


@dataclass(frozen=True)
class HeteroclinicCensus:
    """The census's orbits and how many there are of each kind."""

    orbits: tuple[HeteroclinicOrbit, ...]
    counts: dict[str, int]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """The rule the counts broke, :data:`CENSUS_RULE`, as ``verify`` names it."""
        c = self.counts
        holds = c.get("sa", 0) == 6 and c.get("rs", 0) == 10 and c.get("ra", 0) >= 2
        return [] if holds else [f"expected {CENSUS_RULE}"]


def _orbit_kind(source: FixedPointRecord, target: FixedPointRecord) -> str:
    return _KIND_LETTER[source.kind] + _KIND_LETTER[target.kind]


def trace_heteroclinic(
    source: FixedPointRecord, direction, params: CouplingParams
) -> HeteroclinicOrbit:
    """Iterate the map from just off a fixed point until it lands at another.

    Seeds at ``source + SEED_STEP * direction`` (unit-normalized) and
    follows the forward orbit; terminates once within ``CAPTURE_TOL`` of a
    different fixed point.  Raises ValueError when the seed falls outside
    the square and RuntimeError when the iteration budget
    (:func:`~triclock.core.default_max_iterations`) runs out without capture.
    """
    params.require_analysis_range()
    seed = _seed_point(source, direction)
    if not bool(in_square(seed)):
        raise ValueError("seed point leaves the square; try the opposite sign")
    samples, j = _trace(source, seed, params)
    return HeteroclinicOrbit(source, classify(np.array(_FIXED_XY[j]), params), samples)


def _seed_point(source: FixedPointRecord, direction) -> np.ndarray:
    """``source + SEED_STEP * direction``, the direction unit-normalized."""
    v = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return np.asarray(source.location, dtype=float) + SEED_STEP * (v / norm)


def _fixed_row(x: float, y: float) -> int | None:
    """The row of ``_FIXED_POINTS`` within ``CAPTURE_TOL`` (max-norm) of ``(x, y)``,
    or None; the eleven lie at least pi/3 apart, so at most one qualifies."""
    for j, (fx, fy) in enumerate(_FIXED_XY):
        if max(abs(fx - x), abs(fy - y)) <= CAPTURE_TOL:
            return j
    return None


def _trace(source: FixedPointRecord, seed: np.ndarray, params: CouplingParams
           ) -> tuple[np.ndarray, int]:
    """The samples of the orbit from ``seed`` (in the square) that
    :func:`trace_heteroclinic` follows, and the row of ``_FIXED_POINTS`` it
    lands on: any row but the source's own, if the source has one."""
    max_iter = default_max_iterations(params)
    fp_x = _FIXED_X
    src_row = _fixed_row(*(float(v) for v in source.location))
    last = len(fp_x) - 1
    eps = params.epsilon
    x, y = float(seed[0]), float(seed[1])
    samples = [(x, y)]
    for _ in range(max_iter):
        x, y = three_clock_step_scalar(x, y, eps)
        if not (0.0 <= x <= TWO_PI and 0.0 <= y <= TWO_PI):  # impossible while S is invariant
            raise RuntimeError(f"orbit escaped the square at {np.array((x, y))}")
        samples.append((x, y))
        # A capture needs some fixed point's x within CAPTURE_TOL.  fl(fx - x)
        # is monotone in fx, so the nearest x is one of the two neighbours of x
        # in the sorted list, and checking those equals checking all of them.
        i = bisect_left(fp_x, x)
        if (i > last or fp_x[i] - x > CAPTURE_TOL) and (i == 0 or x - fp_x[i - 1] > CAPTURE_TOL):
            continue
        j = _fixed_row(x, y)
        if j is not None and j != src_row:
            return np.array(samples), j
    raise RuntimeError(
        f"no fixed point captured within {max_iter} iterations from "
        f"{source.location}; last point {np.array((x, y))}"
    )


def _restriction_orbit(
    segment: InvariantSegment, t_src: float, t_dst: float, params: CouplingParams
) -> list[float]:
    """Parameters of the heteroclinic running inside a segment from its fixed
    point at ``t_src`` to the one at ``t_dst``, iterated by its restriction map."""
    t = t_src + math.copysign(SEED_STEP, t_dst - t_src)
    ts = [t]
    for _ in range(default_max_iterations(params)):
        t = segment.restriction(t, params)
        ts.append(t)
        if abs(t - t_dst) <= CAPTURE_TOL:
            return ts
    raise RuntimeError(f"restriction orbit on {segment.name} failed to land")


def heteroclinic_census(params: CouplingParams) -> HeteroclinicCensus:
    """Full catalog of heteroclinic orbits between the eleven fixed points.

    Saddle-to-attractor orbits come from 2-D tracing along every unstable
    eigendirection (both signs, seeds outside S discarded).  The orbits
    between the remaining fixed points live inside the invariant segments
    and are enumerated from the segment restriction dynamics; a segment
    orbit is not built when its endpoints make it saddle-to-attractor,
    since tracing has already found that connection.  Each orbit end takes
    its :func:`known_fixed_points` row's record, the eleven classified at once.

    The map and the capture test commute with the swap ``(x, y) -> (y, x)``
    bit for bit, so 3 orbits are traced.  A saddle whose mirror has an
    earlier row takes that saddle's orbits in order, columns swapped and
    landing rows mirrored; ``(pi, pi)`` is its own mirror, and its second
    orbit is its first one's mirror image.  The restriction map depends
    only on a segment's coefficient row, so its orbits are iterated once
    per row and pair of end parameters.
    """
    params.require_analysis_range()
    records = classify_rows(_FIXED_POINTS, params)
    restricted: dict[tuple, list[float]] = {}  # (coefficients, t_src, t_dst) -> orbit
    orbits: list[HeteroclinicOrbit] = []
    paths: dict[int, list[tuple[np.ndarray, int]]] = {}  # saddle row -> samples, landing row
    for i, rec in enumerate(records):
        if rec.kind != "saddle":
            continue
        m = _MIRROR_ROW[i]
        if m >= i:  # traced; (pi, pi), its own mirror, traces its first seed only
            seeds = [_seed_point(rec, sign * u) for u in rec.unstable_directions()
                     for sign in (1.0, -1.0)]
            seeds = [seed for seed in seeds if bool(in_square(seed))]
            paths[i] = [_trace(rec, seed, params) for seed in seeds[: 1 if m == i else None]]
        if m <= i:  # then the mirror's orbits in order, columns swapped
            mirrored = [(s[:, ::-1].copy(), _MIRROR_ROW[j]) for s, j in paths[m]]
            paths[i] = paths.get(i, []) + mirrored
        orbits.extend(HeteroclinicOrbit(rec, records[j], s) for s, j in paths[i])
    for segment in invariant_segments():
        ts = [float(t) for t in segment.roots]
        located = [records[_fixed_row(*point)] for point in map(segment.point, ts)]
        for i in range(len(ts) - 1):
            qm = segment.drift(0.5 * (ts[i] + ts[i + 1]))
            src, dst = (i, i + 1) if qm > 0.0 else (i + 1, i)
            if _orbit_kind(located[src], located[dst]) != "sa":  # found by tracing
                key = (segment.coefficients, ts[src], ts[dst])
                if key not in restricted:
                    restricted[key] = _restriction_orbit(segment, ts[src], ts[dst], params)
                orbits.append(HeteroclinicOrbit(located[src], located[dst],
                                                segment.point(restricted[key])))
    return HeteroclinicCensus(orbits=tuple(orbits), counts=dict(Counter(o.kind for o in orbits)))


# ---------------------------------------------------------------------------
# Lyapunov functions
# ---------------------------------------------------------------------------

def _require_region(region: str) -> tuple[float, float]:
    if region not in _CENTERS:
        raise ValueError(f"region must be 'upper' or 'lower', got {region!r}")
    return _CENTERS[region]


def _in_region(p: np.ndarray, region: str) -> np.ndarray:
    """Membership of the points ``p`` in the closed triangle, with 1e-12 of
    slack for rounding."""
    x = p[..., 0]
    y = p[..., 1]
    lo, hi = -1e-12, TWO_PI + 1e-12
    side = y >= x - 1e-12 if region == "upper" else y <= x + 1e-12
    return (x >= lo) & (x <= hi) & (y >= lo) & (y <= hi) & side


def _require_inside(p, region: str) -> np.ndarray:
    """``p`` as a float array, all of whose points lie in the closed triangle."""
    _require_region(region)
    p = np.asarray(p, dtype=float)
    if not np.all(_in_region(p, region)):
        raise ValueError(f"point outside the closed {region} triangle")
    return p


def lyapunov_value(p, region: Region) -> np.ndarray:
    """Quadratic Lyapunov function of the given triangle, zero at its attractor.

    ``V(x, y) = u**2 + v**2 - u*v`` with (u, v) the offset from the
    triangle's splay point; positive definite since the cross term is
    dominated.  Points outside the closed triangle are rejected.
    """
    p = _require_inside(p, region)
    cx, cy = _CENTERS[region]
    u = p[..., 0] - cx
    v = p[..., 1] - cy
    return u * u + v * v - u * v


def orbital_derivative(p, region: Region, params: CouplingParams) -> np.ndarray:
    """Per-step Lyapunov decrement V(F(p)) - V(p), in expanded form.

    Expanding the quadratic keeps the result accurate near the attractor,
    where the naive difference of two O(1) values loses all digits::

        DV = eps**2 * (f**2 + g**2 - f*g) + eps * (u*(2f - g) + v*(2g - f))
    """
    p = _require_inside(p, region)
    return _combine(*_decrement_terms(p, region), params.epsilon)


def _decrement_terms(p: np.ndarray, region: str) -> tuple[np.ndarray, np.ndarray]:
    """The eps-free terms of the decrement at the points ``p``,
    ``quad = f*f + g*g - f*g`` and ``lin = u*(2f - g) + v*(2g - f)``."""
    cx, cy = _CENTERS[region]
    w = omega_field(p)
    f = w[..., 0]
    g = w[..., 1]
    u = p[..., 0] - cx
    v = p[..., 1] - cy
    return f * f + g * g - f * g, u * (2.0 * f - g) + v * (2.0 * g - f)


def _combine(quad: np.ndarray, lin: np.ndarray, eps: float) -> np.ndarray:
    """The decrement ``eps*eps*quad + eps*lin``: the expanded form's operands
    in its order, so the split changes no bit."""
    return eps * eps * quad + eps * lin


def region_fixed_points(region: Region) -> np.ndarray:
    """Fixed points lying in the closed triangle (seven per region)."""
    _require_region(region)
    return _REGION_POINTS[region].copy()


_REGION_POINTS = {r: _FIXED_POINTS[_in_region(_FIXED_POINTS, r)] for r in _CENTERS}


@dataclass(frozen=True)
class LyapunovReport:
    """Scan of the Lyapunov decrement over a triangular lattice."""

    region: str
    grid_resolution: int
    max_df: float
    zero_set: np.ndarray
    passed: bool = field(init=False)
    cell: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", not self.failures())

    def failures(self) -> list[str]:
        """The bounds this scan broke, as ``verify`` names them."""
        broke = []
        if not self.max_df <= MAX_DF_TOL:
            broke.append(f"max_df={self.max_df:.3e} > {MAX_DF_TOL:g}")
        fps = _REGION_POINTS[self.region]
        dists = np.min(np.max(np.abs(self.zero_set[:, None, :] - fps), axis=-1), axis=-1)
        far = int(np.count_nonzero(~(dists <= ZERO_SET_CELLS * self.cell)))
        if far:
            broke.append(
                f"{far} zero-set points farther than {ZERO_SET_CELLS} cells from a fixed point"
            )
        return broke


def orbital_derivative_scan(
    region: Region, params: CouplingParams, grid: int = 300
) -> LyapunovReport:
    """Evaluate the decrement on a triangular lattice and report its sign.

    Passes when the lattice maximum stays at most ``MAX_DF_TOL`` and every
    near-zero sample (|DV| < ``ZERO_TOL``) sits within ``ZERO_SET_CELLS``
    lattice cells of a fixed point of the region's closure.  The sign is
    reported, never assumed; a positive maximum is a reported failure.  The
    zero set is read-only.
    """
    require_integer(grid, "grid", 100)
    params.require_analysis_range()
    _require_region(region)
    max_df, zero_pts = _upper_scan(params.epsilon, grid)
    if region == "lower":
        # The lower decrement at (y, x) is the upper one at (x, y) bit for bit
        # (the swap carries lattice, centre and drift across, and the
        # decrement's sums and products commute): list the mirrored upper
        # zeros in the lower lattice's row-major order, by y, then x.
        mirror = zero_pts[:, ::-1]
        zero_pts = mirror[np.lexsort(mirror.T)]
        zero_pts.flags.writeable = False
    return LyapunovReport(
        region=region,
        grid_resolution=grid,
        max_df=max_df,
        zero_set=zero_pts,
        cell=TWO_PI / grid,
    )


@functools.lru_cache(maxsize=1)
def _upper_scan(eps: float, grid: int) -> tuple[float, np.ndarray]:
    """The decrement's maximum and read-only zero set on the upper triangle's
    lattice, kept for the lower scan that follows with the same arguments."""
    p, quad, lin = _upper_lattice(grid)
    df = _combine(quad, lin, eps)
    zero = np.abs(df) < ZERO_TOL
    zero_pts = p[zero]
    zero_pts.flags.writeable = False
    return float(np.max(df)), zero_pts


@functools.lru_cache(maxsize=1)
def _upper_lattice(grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper triangle's lattice nodes ``p``, an ``(n, 2)`` array, and the
    decrement's eps-free terms ``quad``, ``lin`` on them, all read-only:
    ``n = (grid + 1) * (grid + 2) / 2``, about 1.5 MB at grid 300, kept for
    the scans of later couplings on the same grid.
    """
    # The triangle's nodes, y >= x, in row-major order: the nodes _in_region
    # admits, since no off-diagonal node lies within its slack of the diagonal.
    axis = np.linspace(0.0, TWO_PI, grid + 1)
    row, col = np.tril_indices(grid + 1)
    p = np.stack((axis[col], axis[row]), axis=-1)
    arrays = (p, *_decrement_terms(p, "upper"))
    for a in arrays:
        a.flags.writeable = False
    return arrays

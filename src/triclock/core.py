"""Pointwise maps for impact-coupled identical clocks.

The module collects every map used elsewhere in the package, all pure
functions of their arguments:

* the one-clock escapement return map ``v -> sqrt((v - 4*mu)**2 + h**2)``,
* the three-clock phase-difference map on the closed square
  ``S = [0, 2*pi]**2``::

      F(x, y) = (x, y) + eps * (f(x, y), g(x, y))
      f(x, y) = 2 sin x + sin y + sin(x - y)
      g(x, y) = sin x + 2 sin y + sin(y - x) = f(y, x)

  together with its exact Jacobian.

State points for the square are plain ``(..., 2)`` float arrays; every
array function broadcasts, so the same code serves bulk grid scans and
the batched Newton search.  Per-point loops (orbits, the heteroclinic
census) step Python floats through :func:`three_clock_step_scalar`, the
same map bit for bit without numpy's per-call cost.  The square is kept
CLOSED: there is no modular wrapping of map states, because the edges
and the main diagonal are invariant sets that the analysis layer has to
see exactly.  A separate
:func:`normalize_phase` exists for absolute clock phases, which do wrap.

:func:`three_clock_step_centred` is the same map in the centred
coordinates ``u = x - pi``, ``v = y - pi`` of the square ``[-pi, pi]**2``,
and the package's one step formed in place, since the basin raster runs
it on whole lattices.  There both mirror symmetries of the map are exact
in floats: the transpose ``(u, v) -> (v, u)`` and the anti-transpose
``(u, v) -> (-v, -u)`` only swap and negate, and the basin raster
classifies a quarter of its lattice on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "EPSILON_BOUND",
    "MIN_ANALYSIS_EPSILON",
    "BOUNDARY_SNAP_TOL",
    "CouplingParams",
    "normalize_phase",
    "require_basin_velocity",
    "require_integer",
    "andronov_step",
    "andronov_fixed_point",
    "omega_field",
    "omega_jacobian",
    "three_clock_step",
    "three_clock_step_centred",
    "three_clock_step_scalar",
    "jacobian",
    "in_square",
    "default_max_iterations",
    "json_data",
]

TWO_PI = 2.0 * math.pi

# Sufficient coupling bound: below 1/9 every restriction map used by the
# analysis layer is a homeomorphism of its segment.
EPSILON_BOUND = 1.0 / 9.0

# Below this the map is indistinguishable from the identity and fixed-point
# classification is meaningless; analysis operations refuse such couplings.
MIN_ANALYSIS_EPSILON = 1e-8

# Map iterates this close to an edge of S are snapped onto it, so that the
# boundary stays exactly invariant under accumulated rounding.
BOUNDARY_SNAP_TOL = 1e-14

# The edge snap runs only on coordinates with |q - centre| above this (see
# _snap_to_edges); it holds every coordinate the snap can move.
_SNAP_GATE = math.pi - 1e-12


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strength plus the escapement constants.

    ``epsilon`` is the primary free parameter; ``mu`` (dry friction) and
    ``h`` (energy-kick velocity scale) only matter for the one-clock
    escapement map.  The common angular frequency is fixed at 1.
    """

    epsilon: float
    mu: float = 0.1
    h: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not math.isfinite(self.mu) or self.mu < 0.0:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not math.isfinite(self.h) or self.h <= 0.0:
            raise ValueError(f"h must be finite and > 0, got {self.h}")

    def require_analysis_range(self) -> None:
        """Reject couplings outside (1e-8, 1/9), where analysis is unsound."""
        if not MIN_ANALYSIS_EPSILON < self.epsilon < EPSILON_BOUND:
            raise ValueError(
                f"epsilon={self.epsilon} outside the analysis range "
                f"({MIN_ANALYSIS_EPSILON}, 1/9 ~= {EPSILON_BOUND:.6f})"
            )

    def require_simulator_range(self) -> None:
        """Reject eps >= 1, where a kick can carry a clock across the threshold."""
        if self.epsilon >= 1.0:
            raise ValueError(f"the simulator needs eps < 1, got eps={self.epsilon}")


def normalize_phase(phi):
    """Reduce absolute phases to the canonical representative in [0, 2*pi).

    Tiny negative inputs would round to exactly 2*pi under the plain
    modulo; those are folded back to 0 so the half-open range holds.
    """
    out = np.asarray(phi, dtype=float) % TWO_PI
    return np.where(out == TWO_PI, 0.0, out)


def require_basin_velocity(v: float, params: CouplingParams) -> None:
    """Raise ValueError unless ``v`` is finite and above ``4*mu``: a slower
    section velocity leaves the limit cycle's basin and the clock stops."""
    if not math.isfinite(v):
        raise ValueError(f"v={v} is not finite")
    if v <= 4.0 * params.mu:
        raise ValueError(f"v={v} is outside the limit-cycle basin "
                         f"(requires v > 4*mu = {4.0 * params.mu})")


def require_integer(value, name: str, least: int) -> None:
    """Refuse a size or count that is not an integer of at least ``least``:
    a bool or a float (even an integral one) is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def andronov_step(v: float, params: CouplingParams) -> float:
    """One escapement cycle of an isolated clock: sqrt((v - 4*mu)**2 + h**2),
    for a ``v`` that passes :func:`require_basin_velocity`."""
    require_basin_velocity(v, params)
    return math.hypot(v - 4.0 * params.mu, params.h)


def andronov_fixed_point(params: CouplingParams) -> float:
    """Stationary section velocity v_f = h**2 / (8*mu) + 2*mu (needs mu > 0 and
    a finite v_f above 4*mu, that is h > 4*mu, where every iterate is >= h)."""
    if params.mu <= 0.0:
        raise ValueError("the escapement fixed point requires mu > 0")
    try:
        vf = params.h**2 / (8.0 * params.mu) + 2.0 * params.mu
    except OverflowError:
        vf = math.inf
    if math.isinf(vf):
        raise ValueError(f"the escapement fixed point overflows at mu={params.mu}, h={params.h}")
    if vf <= 4.0 * params.mu:
        raise ValueError(f"the escapement has no limit cycle at mu={params.mu}, h={params.h}: "
                         f"v_f={vf} is not above 4*mu = {4.0 * params.mu} (requires h > 4*mu)")
    return vf


def omega_field(p) -> np.ndarray:
    """Drift field (f, g) of the three-clock map, independent of eps.

    ``f(x, y) = 2 sin x + sin y + sin(x - y)`` and ``g(x, y) = f(y, x)``.
    Accepts any ``(..., 2)`` array and broadcasts.
    """
    p = np.asarray(p, dtype=float)
    sx = np.sin(p[..., 0])
    sy = np.sin(p[..., 1])
    sxy = np.sin(p[..., 0] - p[..., 1])
    # 0.0 - sxy, not -sxy: the two differ only where sxy is a zero, and there
    # 0.0 - sxy is +0, as sin(y - x) is, except at x = +0, y = -0, where the
    # +0 of sx + 2*sy absorbs either sign.  So g(x, y) == f(y, x) bit for bit,
    # signed zeros included, since the sine is odd and IEEE addition commutes.
    return np.stack((2.0 * sx + sy + sxy, sx + 2.0 * sy + (0.0 - sxy)), axis=-1)


def omega_jacobian(p) -> np.ndarray:
    """Derivative of :func:`omega_field`, shape ``(..., 2, 2)``."""
    p = np.asarray(p, dtype=float)
    x = p[..., 0]
    y = p[..., 1]
    cx = np.cos(x)
    cy = np.cos(y)
    cxy = np.cos(x - y)
    row0 = np.stack((2.0 * cx + cxy, cy - cxy), axis=-1)
    row1 = np.stack((cx - cxy, cxy + 2.0 * cy), axis=-1)
    return np.stack((row0, row1), axis=-2)


def _snap_to_edges(q: np.ndarray, centre: float = math.pi) -> np.ndarray:
    """Snap, in place, the coordinates within ``BOUNDARY_SNAP_TOL`` of an edge
    ``centre - pi`` or ``centre + pi`` onto that edge; ``q`` is an array the
    caller owns.  Returns ``q``.

    ``centre`` is pi for the square's coordinates, whose edges are 0 and
    2*pi, and 0 for the centred ones, whose edges are -pi and pi; both
    pairs of edges are exact in floats.

    The exact rule runs only where ``|q - centre| > pi - 1e-12``.  That set
    holds every coordinate the rule can move: one below ``BOUNDARY_SNAP_TOL``
    = 1e-14 from an edge (-0.0 and the band outside the square included) is
    ``pi - 1e-14`` from the centre, give or take one rounding of at most
    2.3e-16 (none for the centre 0), so about 1e-12 inside it.  Rounding is
    monotone, so ``|q - centre|`` is largest at the least or the greatest
    coordinate: two reductions, with no array written, show when the set is
    empty, as it is for all but a few steps.  A NaN fails both tests and
    takes the exact path.
    """
    lo = np.minimum.reduce(q, axis=None, initial=centre)
    hi = np.maximum.reduce(q, axis=None, initial=centre)
    if not (abs(lo - centre) <= _SNAP_GATE and abs(hi - centre) <= _SNAP_GATE):
        near = np.abs(q - centre) > _SNAP_GATE
        e = q[near]
        for edge in (centre - math.pi, centre + math.pi):
            e = np.where(np.abs(e - edge) < BOUNDARY_SNAP_TOL, edge, e)
        q[near] = e
    return q


def three_clock_step(p, params: CouplingParams) -> np.ndarray:
    """One cycle of the phase-difference map, F(p) = p + eps * omega_field(p).

    For ``p`` in the closed square S and eps < 1/9 the image stays in S and
    edge points stay on their edge; coordinates within ``BOUNDARY_SNAP_TOL``
    of 0 or 2*pi are snapped onto the boundary to keep that exact under
    rounding.  ``p`` is any ``(..., 2)`` array and is only read.
    """
    p = np.asarray(p, dtype=float)
    return _snap_to_edges(p + params.epsilon * omega_field(p))


def _rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two rows of ``q`` as writable views (0-d views when ``q`` is 1-D)."""
    return q[0, ...], q[1, ...]


def three_clock_step_centred(u, v, params: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`three_clock_step` in centred coordinates ``u = x - pi``,
    ``v = y - pi``, on coordinate arrays that broadcast: ``(u', v')``, the
    two rows of one fresh array (numpy scalars for 0-d inputs); ``u`` and
    ``v`` are only read.  It agrees with :func:`three_clock_step` of the
    translated point to within rounding, not bit for bit.

    The field ``f = (0.0 - (2*su + sv)) + suv``, ``g = (0.0 - (su + 2*sv))
    - suv`` (``su = sin(u)``, ``sv = sin(v)``, ``suv = sin(u - v)``) is
    formed in place in the returned array and one scratch array of its
    size, and coordinates within ``BOUNDARY_SNAP_TOL`` of -pi or pi are
    snapped onto that edge.
    Negation is exact, IEEE addition commutes, ``a - b`` is ``a + (-b)``,
    the sine is odd bit for bit and ``0.0 - a`` is never -0, so the step
    commutes with the transpose ``(u, v) -> (v, u)`` bit for bit and with
    the anti-transpose ``(u, v) -> (-v, -u)`` up to the sign of zeros,
    which no later operation turns into a nonzero difference.
    """
    q = np.empty((2,) + np.broadcast(u, v).shape)
    t = np.empty_like(q)
    su, sv = _rows(q)
    np.sin(u, out=su)
    np.sin(v, out=sv)
    np.multiply(2.0, q, out=t)
    a, b = _rows(t)
    np.add(a, sv, out=a)
    np.add(su, b, out=b)
    np.subtract(0.0, t, out=t)
    # t holds 0.0 - (2*su + sv) and 0.0 - (su + 2*sv); q takes suv, then (f, g).
    suv, g = _rows(q)
    np.subtract(u, v, out=suv)
    np.sin(suv, out=suv)
    np.subtract(b, suv, out=g)
    np.add(a, suv, out=suv)
    np.multiply(params.epsilon, q, out=q)
    f, g = _rows(q)
    np.add(u, f, out=f)
    np.add(v, g, out=g)
    u1, v1 = _snap_to_edges(q, 0.0)
    return u1, v1


def three_clock_step_scalar(x: float, y: float, eps: float) -> tuple[float, float]:
    """:func:`three_clock_step` of one point given as two floats, bit for bit.

    The per-point form for loops over a single orbit.  It keeps the array
    form's operation order and edge snap (written inline, which saves two
    calls per step); ``math.sin`` and ``np.sin`` agree bit for bit on the
    platforms the tests run on (they check it).
    """
    sx = math.sin(x)
    sy = math.sin(y)
    sxy = math.sin(x - y)
    x = x + eps * (2.0 * sx + sy + sxy)
    y = y + eps * (sx + 2.0 * sy + (0.0 - sxy))
    if abs(x) < BOUNDARY_SNAP_TOL:
        x = 0.0
    elif abs(x - TWO_PI) < BOUNDARY_SNAP_TOL:
        x = TWO_PI
    if abs(y) < BOUNDARY_SNAP_TOL:
        y = 0.0
    elif abs(y - TWO_PI) < BOUNDARY_SNAP_TOL:
        y = TWO_PI
    return x, y


def jacobian(p, params: CouplingParams) -> np.ndarray:
    """Exact Jacobian of the three-clock map, I + eps * omega_jacobian(p)."""
    dw = omega_jacobian(p)
    return np.eye(2) + params.epsilon * dw


def in_square(p) -> np.ndarray:
    """Whether each point lies in the closed square S."""
    p = np.asarray(p, dtype=float)
    return np.all((p >= 0.0) & (p <= TWO_PI), axis=-1)


def default_max_iterations(params: CouplingParams) -> int:
    """Iteration budget ceil(60/eps): covers escape plus contraction with margin."""
    return math.ceil(60.0 / params.epsilon)


def json_data(obj):
    """The ``default=`` hook of every ``json.dumps`` in the package.

    An array or numpy scalar becomes its ``tolist()``, a dataclass the dict
    of its fields in declaration order; ``json`` itself walks what comes
    back, so nested dataclasses and arrays take the same hook.  Any other
    value raises TypeError, as ``json`` does without a hook.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

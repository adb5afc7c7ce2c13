"""Phase-difference dynamics of three impact-coupled identical clocks.

A library plus CLI around a single object: the map
``F(x, y) = (x, y) + eps * (f(x, y), f(y, x))`` on the closed square
``[0, 2*pi]**2`` describing how the pairwise phase differences of three
pulse-coupled clocks evolve per cycle.  The package provides the map and
its relatives (:mod:`triclock.core`), an exact event-driven N-clock
simulator that doubles as an oracle for it (:mod:`triclock.events`),
fixed-point / invariant-set / Lyapunov analysis
(:mod:`triclock.analysis`), basin rasterization (:mod:`triclock.basin`),
and SVG rendering plus a command line (:mod:`triclock.render`,
:mod:`triclock.cli`).
"""

from .core import (
    BOUNDARY_SNAP_TOL,
    EPSILON_BOUND,
    MIN_ANALYSIS_EPSILON,
    TWO_PI,
    CouplingParams,
    andronov_fixed_point,
    andronov_step,
    in_square,
    jacobian,
    normalize_phase,
    omega_field,
    omega_jacobian,
    three_clock_step,
)
from .events import (
    ClockEnsemble,
    CycleTrace,
    KickEvent,
    LockResult,
    cyclic_gaps,
    difference_vector,
    phase_differences,
    run_cycle,
    run_until_locked,
)
from .analysis import (
    FixedPointRecord,
    FixedPointSearch,
    HeteroclinicCensus,
    HeteroclinicOrbit,
    InvarianceCheck,
    InvariantSegment,
    LyapunovReport,
    classify,
    find_fixed_points,
    heteroclinic_census,
    invariant_segments,
    known_fixed_points,
    lyapunov_value,
    orbital_derivative,
    orbital_derivative_scan,
    restriction_fixed_points,
    trace_heteroclinic,
    verify_invariance,
)
from .basin import (
    ATTRACTOR_LOWER,
    ATTRACTOR_UPPER,
    BasinGrid,
    classify_point,
    orbit,
    rasterize,
)
from .render import LAYERS, PortraitSpec, render_portrait

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_SNAP_TOL",
    "EPSILON_BOUND",
    "MIN_ANALYSIS_EPSILON",
    "TWO_PI",
    "CouplingParams",
    "andronov_fixed_point",
    "andronov_step",
    "in_square",
    "jacobian",
    "normalize_phase",
    "omega_field",
    "omega_jacobian",
    "three_clock_step",
    "ClockEnsemble",
    "CycleTrace",
    "KickEvent",
    "LockResult",
    "cyclic_gaps",
    "difference_vector",
    "phase_differences",
    "run_cycle",
    "run_until_locked",
    "FixedPointRecord",
    "FixedPointSearch",
    "HeteroclinicCensus",
    "HeteroclinicOrbit",
    "InvarianceCheck",
    "InvariantSegment",
    "LyapunovReport",
    "classify",
    "find_fixed_points",
    "heteroclinic_census",
    "invariant_segments",
    "known_fixed_points",
    "lyapunov_value",
    "orbital_derivative",
    "orbital_derivative_scan",
    "restriction_fixed_points",
    "trace_heteroclinic",
    "verify_invariance",
    "ATTRACTOR_LOWER",
    "ATTRACTOR_UPPER",
    "BasinGrid",
    "classify_point",
    "orbit",
    "rasterize",
    "LAYERS",
    "PortraitSpec",
    "render_portrait",
    "__version__",
]

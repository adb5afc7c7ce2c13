import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triclock.core import (
    BOUNDARY_SNAP_TOL,
    TWO_PI,
    CouplingParams,
    _snap_to_edges,
    andronov_fixed_point,
    andronov_step,
    in_square,
    jacobian,
    normalize_phase,
    omega_field,
    omega_jacobian,
    require_integer,
    three_clock_step,
    three_clock_step_centred,
    three_clock_step_scalar,
)

PI = math.pi

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)

# Coordinates of S, with extra weight on the edges, the snap band next to
# them (and just beyond it) and the main diagonal.
square_coords = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, TWO_PI]),
    st.floats(0.0, 2 * BOUNDARY_SNAP_TOL),
    st.floats(TWO_PI - 2 * BOUNDARY_SNAP_TOL, TWO_PI),
)


@st.composite
def square_point_arrays(draw):
    """An (n, 2) array: drawn edge, snap-band and diagonal points, then a
    seeded uniform batch, since a last-bit difference shows on only a few
    percent of generic points."""
    point = st.one_of(st.tuples(square_coords, square_coords), square_coords.map(lambda v: (v, v)))
    special = np.array(draw(st.lists(point, min_size=1, max_size=50)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = rng.uniform(0.0, TWO_PI, size=(draw(st.integers(0, 200)), 2))
    return np.concatenate((special, bulk))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TestCouplingParams:
    def test_defaults_valid(self):
        p = CouplingParams(epsilon=0.05)
        assert p.mu == 0.1 and p.h == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1},
            {"epsilon": float("nan")},
            {"epsilon": 0.05, "mu": -1.0},
            {"epsilon": 0.05, "h": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CouplingParams(**kwargs)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1.0 / 9.0, 0.2])
    def test_analysis_range_guard(self, eps):
        with pytest.raises(ValueError):
            CouplingParams(epsilon=eps).require_analysis_range()

    @pytest.mark.parametrize("eps", [1e-7, 0.01, 0.05, 0.1])
    def test_analysis_range_accepts(self, eps):
        CouplingParams(epsilon=eps).require_analysis_range()


# ---------------------------------------------------------------------------
# sizes and counts
# ---------------------------------------------------------------------------

class TestRequireInteger:
    @pytest.mark.parametrize("least", [0, 1, 2, 100])
    @pytest.mark.parametrize("kind", [int, np.int64])
    @pytest.mark.parametrize("above", [0, 1, 1000])
    def test_accepts_an_integer_at_or_above_least(self, least, kind, above):
        require_integer(kind(least + above), "size", least)

    @pytest.mark.parametrize("value", [True, False, 2.0, np.float64(2.0)])
    def test_refuses_a_bool_or_a_float(self, value):
        with pytest.raises(ValueError) as exc:
            require_integer(value, "size", 0)
        assert str(exc.value) == f"size must be an integer, got {value!r}"

    @pytest.mark.parametrize("least", [0, 1, 2, 100])
    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_refuses_a_value_below_least(self, least, kind):
        value = kind(least - 1)
        with pytest.raises(ValueError) as exc:
            require_integer(value, "size", least)
        assert str(exc.value) == f"size must be at least {least}, got {value!r}"


# ---------------------------------------------------------------------------
# escapement return map
# ---------------------------------------------------------------------------

class TestAndronov:
    def test_fixed_point_values(self):
        assert andronov_fixed_point(CouplingParams(0.0, mu=0.1, h=1.0)) == pytest.approx(1.45)
        assert andronov_fixed_point(CouplingParams(0.0, mu=0.125, h=1.0)) == pytest.approx(1.25)

    def test_fixed_point_is_fixed(self):
        p = CouplingParams(0.0, mu=0.1, h=1.0)
        vf = andronov_fixed_point(p)
        assert abs(andronov_step(vf, p) - vf) < 1e-14

    def test_frictionless_pythagorean(self):
        p = CouplingParams(0.0, mu=0.0, h=4.0)
        assert andronov_step(3.0, p) == pytest.approx(5.0, abs=1e-15)

    def test_direct_evaluation(self):
        p = CouplingParams(0.0, mu=0.1, h=1.0)
        assert andronov_step(2.0, p) == pytest.approx(math.hypot(1.6, 1.0), abs=1e-15)

    def test_domain_error_below_basin(self):
        p = CouplingParams(0.0, mu=0.1, h=1.0)
        with pytest.raises(ValueError):
            andronov_step(0.4, p)
        with pytest.raises(ValueError):
            andronov_step(0.2, p)

    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_non_finite_velocity_refused(self, v):
        with pytest.raises(ValueError, match="is not finite"):
            andronov_step(v, CouplingParams(0.0, mu=0.1, h=1.0))

    @pytest.mark.parametrize("mu, h", [(1e-320, 1.0), (0.1, 1e308)])
    def test_fixed_point_overflow_refused(self, mu, h):
        with pytest.raises(ValueError, match="overflows"):
            andronov_fixed_point(CouplingParams(0.0, mu=mu, h=h))

    def test_fixed_point_needs_friction(self):
        with pytest.raises(ValueError):
            andronov_fixed_point(CouplingParams(0.0, mu=0.0, h=1.0))

    def test_fixed_point_needs_a_limit_cycle(self):
        # v_f = h**2/(8*mu) + 2*mu is above 4*mu exactly when h > 4*mu; at
        # mu = 1, h = 1 it is 2.125, and a start at 5 leaves the basin.
        for mu, h in ((1.0, 1.0), (0.125, 0.5)):
            with pytest.raises(ValueError, match=r"no limit cycle .* \(requires h > 4\*mu\)"):
                andronov_fixed_point(CouplingParams(0.0, mu=mu, h=h))
        p = CouplingParams(0.0, mu=0.125, h=0.5000001)
        vf, v = andronov_fixed_point(p), 5.0
        for _ in range(100):
            v = andronov_step(v, p)
        assert 4.0 * p.mu < v and abs(v - vf) < abs(5.0 - vf)

    @pytest.mark.parametrize("v0", [0.41, 10.0, 100.0])
    def test_monotone_convergence(self, v0):
        p = CouplingParams(0.0, mu=0.1, h=1.0)
        vf = andronov_fixed_point(p)
        v = v0
        gaps = [abs(v - vf)]
        for _ in range(600):
            v = andronov_step(v, p)
            gaps.append(abs(v - vf))
            if gaps[-1] < 1e-10:
                break
        assert gaps[-1] < 1e-10
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# drift field and map
# ---------------------------------------------------------------------------

class TestOmegaField:
    @pytest.mark.parametrize(
        "point",
        [(PI, PI), (2 * PI / 3, 4 * PI / 3), (4 * PI / 3, 2 * PI / 3)],
    )
    def test_interior_zeros(self, point):
        assert np.max(np.abs(omega_field(point))) < 1e-14

    def test_direct_value(self):
        f, g = omega_field((PI / 2, 3 * PI / 2))
        assert f == pytest.approx(1.0, abs=1e-14)
        assert g == pytest.approx(-1.0, abs=1e-14)

    @settings(deadline=None)
    @given(x=angles, y=angles)
    def test_component_exchange(self, x, y):
        fwd = omega_field((x, y))
        rev = omega_field((y, x))
        assert fwd[1] == rev[0]
        assert fwd[0] == rev[1]

    @settings(deadline=None)
    @given(x=angles, y=angles)
    def test_linear_combination_identities(self, x, y):
        f, g = omega_field((x, y))
        assert 2 * f - g == pytest.approx(3 * (math.sin(x) + math.sin(x - y)), abs=1e-12)
        assert 2 * g - f == pytest.approx(3 * (math.sin(y) - math.sin(x - y)), abs=1e-12)
        assert f + g == pytest.approx(3 * (math.sin(x) + math.sin(y)), abs=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(pts=st.one_of(square_point_arrays(),
                         st.lists(st.tuples(angles, angles), min_size=1, max_size=20)))
    def test_transpose_swaps_the_components_bitwise(self, pts):
        # omega(y, x) == omega(x, y)[::-1] bit for bit, signed zeros included;
        # the raster's mirrored half lattice rests on it.
        pts = np.asarray(pts, dtype=float)
        swapped = np.ascontiguousarray(pts[:, ::-1])
        assert omega_field(swapped).tobytes() == np.ascontiguousarray(
            omega_field(pts)[:, ::-1]).tobytes()

    def test_signed_zero_corner_gives_positive_zeros(self):
        # g adds 0.0 - sin(x - y), which is +0 where sin(y - x) is, so the
        # field at (-0, -0) is (+0, +0) like its transpose.
        w = omega_field([(-0.0, -0.0)])
        assert w.tobytes() == np.zeros((1, 2)).tobytes()
        assert omega_field((-0.0, -0.0)).tobytes() == np.zeros(2).tobytes()

    # The two symmetries below hold only to rounding: each sine argument is
    # rounded once more than on the left-hand side, and |f|, |g| <= 4.
    # Observed worst case over 2e6 points: 2.8e-15.
    @settings(deadline=None, max_examples=200)
    @given(pts=square_point_arrays())
    def test_point_reflection_negates_the_field(self, pts):
        # omega(2*pi - x, 2*pi - y) == -omega(x, y): the field is odd about (pi, pi).
        reflected = omega_field(TWO_PI - pts)
        assert np.max(np.abs(reflected + omega_field(pts))) < 1e-14

    @settings(deadline=None, max_examples=200)
    @given(pts=square_point_arrays())
    def test_relabelling_with_clock_2_as_reference(self, pts):
        # Measuring the differences from clock 2 instead of clock 1 maps
        # (x, y) to (-x, y - x) mod 2*pi, and the field to (-f, g - f).
        x, y = pts[:, 0], pts[:, 1]
        w = omega_field(pts)
        f, g = w[:, 0], w[:, 1]
        relabelled = omega_field(np.stack((np.mod(-x, TWO_PI), np.mod(y - x, TWO_PI)), axis=-1))
        assert np.max(np.abs(relabelled[:, 0] + f)) < 1e-14
        assert np.max(np.abs(relabelled[:, 1] - (g - f))) < 1e-14

    def test_identities_on_grid(self):
        axis = np.linspace(0.0, TWO_PI, 101)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack((gx, gy), axis=-1)
        w = omega_field(pts)
        f, g = w[..., 0], w[..., 1]
        sx, sy, sxy = np.sin(gx), np.sin(gy), np.sin(gx - gy)
        assert np.max(np.abs(2 * f - g - 3 * (sx + sxy))) < 1e-12
        assert np.max(np.abs(2 * g - f - 3 * (sy - sxy))) < 1e-12
        assert np.max(np.abs(f + g - 3 * (sx + sy))) < 1e-12


class TestThreeClockStep:
    def test_interior_fixed_point(self):
        p = CouplingParams(epsilon=0.05)
        point = np.array([2 * PI / 3, 4 * PI / 3])
        assert np.max(np.abs(three_clock_step(point, p) - point)) < 1e-14

    def test_corner_fixed_point(self):
        p = CouplingParams(epsilon=0.05)
        assert np.array_equal(three_clock_step((0.0, 0.0), p), np.array([0.0, 0.0]))

    def test_derived_step(self):
        p = CouplingParams(epsilon=0.01)
        out = three_clock_step((PI / 2, 3 * PI / 2), p)
        assert out[0] == pytest.approx(PI / 2 + 0.01, abs=1e-14)
        assert out[1] == pytest.approx(3 * PI / 2 - 0.01, abs=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(
        x=st.floats(0.0, TWO_PI, allow_nan=False),
        y=st.floats(0.0, TWO_PI, allow_nan=False),
    )
    def test_exchange_symmetry(self, x, y):
        p = CouplingParams(epsilon=0.05)
        fwd = three_clock_step((x, y), p)
        rev = three_clock_step((y, x), p)
        assert fwd[0] == rev[1] and fwd[1] == rev[0]

    @settings(deadline=None, max_examples=200)
    @given(pts=square_point_arrays(), eps=st.floats(1e-6, 0.11))
    def test_transpose_equivariant_on_arrays(self, pts, eps):
        # Bit for bit, snapping included: rasterize mirrors its half lattice on this.
        p = CouplingParams(epsilon=eps)
        fwd = three_clock_step(pts, p)
        rev = three_clock_step(np.ascontiguousarray(pts[:, ::-1]), p)
        assert np.ascontiguousarray(fwd[:, ::-1]).tobytes() == rev.tobytes()

    # Translating by pi rounds x - pi and the image - pi, and moves each sine
    # argument by at most half an ulp of pi, so the two steps part by about
    # an ulp of 2*pi (observed worst case over 4e6 points: exactly one).
    # Where either step snapped a coordinate onto an edge, they may part by
    # up to the snap width more.
    CENTRED_STEP_BOUND = 4 * math.ulp(TWO_PI)

    @settings(deadline=None, max_examples=200)
    @given(pts=square_point_arrays(),
           eps=st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True))
    def test_centred_step_is_the_same_map_within_ulps(self, pts, eps):
        p = CouplingParams(epsilon=eps)
        expected = three_clock_step(pts, p) - PI
        u, v = three_clock_step_centred(pts[:, 0] - PI, pts[:, 1] - PI, p)
        got = np.stack((u, v), axis=-1)
        on_edge = (np.abs(got) == PI) | (np.abs(expected) == PI)
        bound = np.where(on_edge, BOUNDARY_SNAP_TOL + self.CENTRED_STEP_BOUND,
                         self.CENTRED_STEP_BOUND)
        assert np.all(np.abs(got - expected) <= bound), np.max(np.abs(got - expected))

    @settings(deadline=None, max_examples=200)
    @given(pts=square_point_arrays(), eps=st.floats(0.0, 0.11))
    def test_centred_step_commutes_with_both_mirrors(self, pts, eps):
        # The raster classifies a quarter of its lattice on this.  The
        # transpose (u, v) -> (v, u) commutes bit for bit; the anti-transpose
        # (u, v) -> (-v, -u) up to the sign of zeros, which == ignores.
        p = CouplingParams(epsilon=eps)
        u = np.concatenate((pts[:, 0] - PI, [0.0, -0.0, 0.0, -0.0, PI, -PI]))
        v = np.concatenate((pts[:, 1] - PI, [-0.0, 0.0, 0.0, -0.0, -PI, 0.0]))
        su, sv = three_clock_step_centred(u, v, p)
        tu, tv = three_clock_step_centred(v, u, p)
        assert tu.tobytes() == sv.tobytes() and tv.tobytes() == su.tobytes()
        ru, rv = three_clock_step_centred(-v, -u, p)
        assert np.array_equal(ru, -sv) and np.array_equal(rv, -su)

    @settings(deadline=None, max_examples=200)
    @given(
        pts=square_point_arrays(),
        eps=st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True),
    )
    def test_scalar_step_is_the_same_map(self, pts, eps):
        # The census and orbits step floats and verify steps square arrays
        # (the raster steps centred ones).  Both must walk the same orbit,
        # snapping included.
        stepped = [three_clock_step_scalar(x, y, eps) for x, y in pts.tolist()]
        assert all(type(v) is float for xy in stepped for v in xy)
        expected = three_clock_step(pts, CouplingParams(epsilon=eps))
        assert np.array(stepped).tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(
        t=square_coords,
        line=st.sampled_from([(0, 0.0), (0, TWO_PI), (1, 0.0), (1, TWO_PI), None]),
        eps=st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True),
    )
    def test_scalar_step_keeps_edges_and_diagonal_exactly(self, t, line, eps):
        # The census and orbits step floats; their edge and diagonal points
        # must stay exactly on their invariant line.  ``line`` is an edge as
        # (coordinate index, its value) or None for the main diagonal.
        point = [t, t]
        if line is not None:
            point[line[0]] = line[1]
        x, y = point
        for _ in range(300):
            x, y = three_clock_step_scalar(x, y, eps)
            if line is None:
                assert x == y
            else:
                assert (x, y)[line[0]] == line[1]

    @settings(deadline=None, max_examples=500)
    @given(t=st.floats(allow_nan=False, allow_infinity=False))
    def test_math_sin_is_numpy_sin(self, t):
        # three_clock_step_scalar equals three_clock_step only while this holds.
        expected = np.sin(np.full(16, t))
        assert np.array([math.sin(t)]).tobytes() == expected[:1].tobytes()
        assert np.float64(np.sin(t)).tobytes() == expected[:1].tobytes()

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_square_invariant_on_grid(self, eps):
        p = CouplingParams(epsilon=eps)
        axis = np.linspace(0.0, TWO_PI, 61)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack((gx, gy), axis=-1).reshape(-1, 2)
        for _ in range(20):
            pts = three_clock_step(pts, p)
        assert bool(np.all(in_square(pts)))

    def test_edges_stay_exactly_on_edges(self):
        p = CouplingParams(epsilon=0.1)
        t = np.linspace(0.0, TWO_PI, 37)
        for fixed_coord, axis_idx in ((0.0, 0), (TWO_PI, 0), (0.0, 1), (TWO_PI, 1)):
            pts = np.empty((t.size, 2))
            pts[:, axis_idx] = fixed_coord
            pts[:, 1 - axis_idx] = t
            for _ in range(200):
                pts = three_clock_step(pts, p)
            assert np.all(pts[:, axis_idx] == fixed_coord)

    def test_diagonal_preserved_bitwise(self):
        p = CouplingParams(epsilon=0.05)
        pts = np.stack([np.linspace(0.0, TWO_PI, 29)] * 2, axis=-1)
        for _ in range(100):
            pts = three_clock_step(pts, p)
        assert np.all(pts[:, 0] == pts[:, 1])

    def test_boundary_snap_constant_is_tight(self):
        # Drift per step on the x = 2*pi edge is far below the snap width.
        p = CouplingParams(epsilon=0.1)
        pts = np.column_stack((np.full(17, TWO_PI), np.linspace(0.1, TWO_PI - 0.1, 17)))
        raw = pts + p.epsilon * omega_field(pts)
        assert np.max(np.abs(raw[:, 0] - TWO_PI)) < BOUNDARY_SNAP_TOL


def _plain_snap(q, lo=0.0, hi=TWO_PI):
    q = np.where(np.abs(q - lo) < BOUNDARY_SNAP_TOL, lo, q)
    return np.where(np.abs(q - hi) < BOUNDARY_SNAP_TOL, hi, q)


def _plain_step_xy(x, y, eps):
    # The map written plainly: every product and sum a fresh array, the
    # snap rule over every coordinate, and g with - sxy (the same bits after
    # the snap, which turns the -0 of g at (-0, -0) into +0).
    sx = np.sin(x)
    sy = np.sin(y)
    sxy = np.sin(x - y)
    f = 2.0 * sx + sy + sxy
    g = sx + 2.0 * sy - sxy
    return _plain_snap(x + eps * f), _plain_snap(y + eps * g)


def _plain_centred_step(u, v, eps):
    # The centred map written plainly, each product and sum a fresh array
    # and the snap rule at -pi and pi over every coordinate.
    su = np.sin(u)
    sv = np.sin(v)
    suv = np.sin(u - v)
    f = (0.0 - (2.0 * su + sv)) + suv
    g = (0.0 - (su + 2.0 * sv)) - suv
    return _plain_snap(u + eps * f, -PI, PI), _plain_snap(v + eps * g, -PI, PI)


_ULP_2PI = math.ulp(TWO_PI)

# Coordinates where the edge snap and its gate act: the edges and signed
# zeros, the snap band on both sides of each edge (up to 1e-13 outside the
# square), the gate's own margin near 1e-12, and the smallest subnormal.
oracle_coords = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, BOUNDARY_SNAP_TOL, -BOUNDARY_SNAP_TOL, 1e-12,
        TWO_PI, TWO_PI - _ULP_2PI, TWO_PI + _ULP_2PI,
        TWO_PI - BOUNDARY_SNAP_TOL, TWO_PI + BOUNDARY_SNAP_TOL, TWO_PI - 1e-12, PI,
    ]),
    st.floats(-1e-13, 2 * BOUNDARY_SNAP_TOL),
    st.floats(TWO_PI - 2 * BOUNDARY_SNAP_TOL, TWO_PI + 1e-13),
    st.floats(0.0, 2e-12),
    st.floats(TWO_PI - 2e-12, TWO_PI),
)
oracle_eps = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.11]), st.floats(0.0, 0.11))


@st.composite
def oracle_point_arrays(draw):
    """An (n, 2) array of drawn snap-relevant points and a seeded uniform batch."""
    point = st.one_of(st.tuples(oracle_coords, oracle_coords), oracle_coords.map(lambda v: (v, v)))
    special = np.array(draw(st.lists(point, min_size=1, max_size=40)), dtype=float).reshape(-1, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = rng.uniform(0.0, TWO_PI, size=(draw(st.integers(0, 300)), 2))
    return np.concatenate((special, bulk))


class TestInPlaceStepOracle:
    """The array steps and the gated snap equal the plain formula bit for
    bit, and leave their inputs untouched."""

    @settings(deadline=None, max_examples=200)
    @given(pts=oracle_point_arrays(), eps=oracle_eps)
    def test_three_clock_step(self, pts, eps):
        before = pts.tobytes()
        params = CouplingParams(epsilon=eps)
        x, y = _plain_step_xy(pts[:, 0], pts[:, 1], eps)
        expected = np.stack((x, y), axis=-1)
        assert three_clock_step(pts, params).tobytes() == expected.tobytes()
        # One point, shape (2,), and the same points as a 3-D stack.
        for i in range(min(len(pts), 8)):
            assert three_clock_step(pts[i], params).tobytes() == expected[i].tobytes()
        stacked = pts[: len(pts) // 2 * 2].reshape(-1, 2, 2)
        assert (three_clock_step(stacked, params).tobytes()
                == expected[: len(pts) // 2 * 2].reshape(-1, 2, 2).tobytes())
        assert pts.tobytes() == before

    @settings(deadline=None, max_examples=200)
    @given(pts=oracle_point_arrays(), eps=oracle_eps)
    def test_three_clock_step_centred(self, pts, eps):
        # The snap-relevant points translated: the edges -pi and pi, the snap
        # band on both sides of each, the gate's margin and signed zeros.
        pts = np.concatenate((pts - PI, [[0.0, -0.0], [-0.0, 0.0], [PI, -PI]]))
        before = pts.tobytes()
        params = CouplingParams(epsilon=eps)
        eu, ev = _plain_centred_step(pts[:, 0], pts[:, 1], eps)
        # Strided column views and contiguous copies, as the raster passes them.
        for u, v in ((pts[:, 0], pts[:, 1]), (pts[:, :1], pts[:, 1:2]),
                     (pts[:, 0].copy(), pts[:, 1].copy())):
            gu, gv = three_clock_step_centred(u, v, params)
            assert gu.ravel().tobytes() == eu.tobytes() and gv.ravel().tobytes() == ev.tobytes()
        # 0-d and one-element arrays.
        for i in range(min(len(pts), 8)):
            for u, v in ((pts[i, 0:1], pts[i, 1:2]), (pts[i, 0, ...], pts[i, 1, ...])):
                gu, gv = three_clock_step_centred(u, v, params)
                assert gu.shape == u.shape and gv.shape == v.shape
                assert gu.tobytes() == eu[i].tobytes() and gv.tobytes() == ev[i].tobytes()
        assert pts.tobytes() == before

    @settings(deadline=None, max_examples=100)
    @given(pts=oracle_point_arrays(), eps=oracle_eps)
    def test_mixed_shapes_broadcast(self, pts, eps):
        # A column against a row, a 0-d array against a 1-D one, and a 1-D
        # array against a float broadcast as the plain formula does.
        params = CouplingParams(epsilon=eps)
        xs, ys = pts[:40, 0], pts[:40, 1]
        for x, y in ((xs[:, None], ys[None, :]), (xs[0, ...], ys), (xs, float(ys[-1]))):
            ex, ey = _plain_centred_step(x - PI, y - PI, eps)
            gx, gy = three_clock_step_centred(x - PI, y - PI, params)
            assert gx.tobytes() == ex.tobytes() and gy.tobytes() == ey.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(pts=oracle_point_arrays(), eps=oracle_eps)
    def test_a_stack_steps_as_its_rows(self, pts, eps):
        # verify steps its segments' samples as one (k, n, 2) stack; the
        # snap's gate sees the whole stack, a row call only its row.
        params = CouplingParams(epsilon=eps)
        n = len(pts) // 3
        stack = pts[: 3 * n].reshape(3, n, 2)
        rows = np.stack([three_clock_step(row, params) for row in stack])
        assert three_clock_step(stack, params).tobytes() == rows.tobytes()

    def test_a_step_needs_two_coordinates(self):
        params = CouplingParams(epsilon=0.05)
        for p in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(3)):
            with pytest.raises((ValueError, IndexError)):
                three_clock_step(p, params)

    @settings(deadline=None, max_examples=50)
    @given(pts=oracle_point_arrays())
    def test_field_of_a_column_and_a_row(self, pts):
        # On the (n, m, 2) stack of a column against a row: (n, m, 2) in
        # float64, each point's field the one-point call's.
        x, y = pts[:12, 0], pts[-7:, 1]
        stack = np.stack(np.broadcast_arrays(x[:, None], y[None, :]), axis=-1)
        w = omega_field(stack)
        assert w.shape == (len(x), len(y), 2) and w.dtype == np.float64
        each = np.array([[omega_field(stack[i, j]) for j in range(len(y))]
                         for i in range(len(x))])
        assert each.tobytes() == w.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(pts=oracle_point_arrays())
    def test_snap_to_edges(self, pts):
        for q in (pts.ravel(), pts[:, 0], pts[0, 0, ...], pts[:1, 1]):
            expected = _plain_snap(q)
            got = _snap_to_edges(np.array(q))
            assert got.tobytes() == expected.tobytes()
            centred = np.array(np.array(q) - PI)
            expected = _plain_snap(centred, -PI, PI)
            assert _snap_to_edges(centred, 0.0).tobytes() == expected.tobytes()

    def test_snap_to_edges_writes_in_place(self):
        q = np.array([-0.0, 5e-324, 1.0, TWO_PI + BOUNDARY_SNAP_TOL / 2])
        assert _snap_to_edges(q) is q
        assert q.tobytes() == np.array([0.0, 0.0, 1.0, TWO_PI]).tobytes()
        assert _snap_to_edges(np.empty(0)).size == 0


class TestJacobian:
    def test_symmetric_saddle_matrix(self):
        eps = 0.05
        J = jacobian((PI, PI), CouplingParams(epsilon=eps))
        expect = np.array([[1 - eps, -2 * eps], [-2 * eps, 1 - eps]])
        assert np.max(np.abs(J - expect)) < 1e-14

    def test_corner_matrix(self):
        eps = 0.03
        J = jacobian((0.0, 0.0), CouplingParams(epsilon=eps))
        assert np.max(np.abs(J - np.diag([1 + 3 * eps, 1 + 3 * eps]))) < 1e-14

    def test_matches_finite_differences(self):
        p = CouplingParams(epsilon=0.05)
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            pt = rng.uniform(0.5, TWO_PI - 0.5, size=2)
            J = jacobian(pt, p)
            fd = np.empty((2, 2))
            for i in range(2):
                d = np.zeros(2)
                d[i] = h
                fd[:, i] = (three_clock_step(pt + d, p) - three_clock_step(pt - d, p)) / (2 * h)
            assert np.max(np.abs(J - fd)) < 1e-6

    @settings(deadline=None, max_examples=200)
    @given(pts=st.one_of(square_point_arrays(),
                         st.lists(st.tuples(angles, angles), min_size=1, max_size=20),
                         st.lists(st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, PI]),
                                            square_coords), min_size=1, max_size=20)))
    def test_transpose_conjugates_the_jacobian_bitwise(self, pts):
        # D-omega(y, x) == P @ D-omega(x, y) @ P with P the swap, bit for bit,
        # signed zeros included; the half-lattice Newton search rests on it.
        # P @ J @ P reverses both axes of J; written as a product, 0*x + 1*y
        # would turn a -0 entry into +0.
        pts = np.asarray(pts, dtype=float)
        swapped = np.ascontiguousarray(pts[:, ::-1])
        assert omega_jacobian(swapped).tobytes() == np.ascontiguousarray(
            omega_jacobian(pts)[:, ::-1, ::-1]).tobytes()

    def test_omega_jacobian_shape_broadcasts(self):
        pts = np.zeros((4, 3, 2))
        assert omega_jacobian(pts).shape == (4, 3, 2, 2)


class TestNormalizePhase:
    @settings(deadline=None)
    @given(phi=angles)
    def test_range_and_congruence(self, phi):
        out = float(normalize_phase(phi))
        assert 0.0 <= out < TWO_PI
        assert math.isclose(math.sin(out), math.sin(phi), abs_tol=1e-9)
        assert math.isclose(math.cos(out), math.cos(phi), abs_tol=1e-9)

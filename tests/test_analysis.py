import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triclock import analysis
from triclock.analysis import (
    RESIDUAL_TOL,
    HeteroclinicOrbit,
    InvariantSegment,
    _dedupe_roots,
    _newton_on_drift,
    classify,
    classify_rows,
    default_max_iterations,
    find_fixed_points,
    heteroclinic_census,
    invariant_segments,
    known_fixed_points,
    lyapunov_value,
    orbital_derivative,
    orbital_derivative_scan,
    region_fixed_points,
    restriction_fixed_points,
    trace_heteroclinic,
    verify_invariance,
)
from triclock.cli import main as cli_main
from triclock.core import (
    TWO_PI,
    CouplingParams,
    json_data,
    omega_field,
    three_clock_step,
    three_clock_step_centred,
)

PI = math.pi
THIRD = 2 * PI / 3
UPPER_ATTRACTOR = np.array([THIRD, 2 * THIRD])
LOWER_ATTRACTOR = np.array([2 * THIRD, THIRD])


def params(eps=0.05):
    return CouplingParams(epsilon=eps)


SEGMENT_NAMES = ["s0", "s1", "r0", "r1", "diag", "anti_diag", "d1", "c1", "c2", "d2"]


def segment_by_name(name):
    return next(s for s in invariant_segments() if s.name == name)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

class TestKnownFixedPoints:
    def test_count(self):
        assert known_fixed_points().shape == (11, 2)

    def test_contains_expected_points(self):
        fps = known_fixed_points()
        for expect in (UPPER_ATTRACTOR, np.array([0.0, PI])):
            assert np.min(np.max(np.abs(fps - expect), axis=1)) < 1e-15

    def test_all_are_drift_zeros(self):
        assert np.max(np.abs(omega_field(known_fixed_points()))) < 1e-14


class TestFindFixedPoints:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_recovers_exactly_the_known_set(self, eps):
        search = find_fixed_points(seed_grid=50, tol=1e-12, params=params(eps))
        found = np.array([rec.location for rec in search.records])
        assert found.shape == (11, 2)
        for known in known_fixed_points():
            assert np.min(np.max(np.abs(found - known), axis=1)) < 1e-9

    def test_residuals_below_tolerance(self):
        search = find_fixed_points(seed_grid=50, tol=1e-12, params=params())
        assert all(rec.residual < 1e-12 for rec in search.records)

    def test_unconverged_seeds_reported(self):
        search = find_fixed_points(seed_grid=50, tol=1e-12, params=params())
        assert search.unconverged_seeds.shape[1:] == (2,)

    def test_eigenvalues_at_symmetric_saddle(self):
        eps = 0.05
        search = find_fixed_points(seed_grid=40, tol=1e-12, params=params(eps))
        rec = next(
            r for r in search.records if np.max(np.abs(r.location - np.array([PI, PI]))) < 1e-9
        )
        assert rec.eigenvalues[0] == pytest.approx(1 + eps, abs=1e-12)
        assert rec.eigenvalues[1] == pytest.approx(1 - 3 * eps, abs=1e-12)

    def test_rejects_out_of_range_coupling(self):
        with pytest.raises(ValueError):
            find_fixed_points(seed_grid=20, tol=1e-12, params=CouplingParams(epsilon=0.2))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            find_fixed_points(seed_grid=1, tol=1e-12, params=params())
        with pytest.raises(ValueError):
            find_fixed_points(seed_grid=20, tol=0.0, params=params())
        for tol in (math.nan, math.inf, -math.inf, -1e-12, 2e-10, 1e-6):
            with pytest.raises(ValueError, match="tol must be finite"):
                find_fixed_points(seed_grid=20, tol=tol, params=params())
        with pytest.raises(TypeError):
            find_fixed_points()

    @pytest.mark.parametrize("eps", [0.011, 0.05, 0.1111])
    @pytest.mark.parametrize("seed_grid", [16, 23, 50])
    def test_the_loosest_tolerance_classifies_every_root(self, eps, seed_grid):
        # Seed grid 23 ends Newton at (2*pi, pi) with residual 1.3e-10 under
        # tol 2e-10, which classify would refuse; that tol is refused up front.
        search = find_fixed_points(seed_grid=seed_grid, tol=RESIDUAL_TOL, params=params(eps))
        assert len(search.records) == 11
        assert all(rec.residual <= RESIDUAL_TOL for rec in search.records)

    def test_seed_grid_must_be_an_integer(self):
        with pytest.raises(ValueError, match="seed_grid must be an integer, got 16.0"):
            find_fixed_points(seed_grid=16.0, tol=1e-12, params=params())
        assert len(find_fixed_points(seed_grid=np.int64(16), tol=1e-12, params=params()).records) == 11

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_half_lattice_newton_is_the_full_lattice_newton(self, tol):
        # Newton runs on the seeds with row <= col and mirrors the rest; that
        # must give the whole lattice's iterates and mask bit for bit, in seed
        # order.  Grids with g - 1 divisible by 4 have frozen singular seeds.
        for g in range(2, 71):
            seeds, roots, ok = analysis._newton_on_lattice(g, tol)
            axis = np.linspace(0.0, TWO_PI, g)
            gx, gy = np.meshgrid(axis, axis)
            assert seeds.tobytes() == np.column_stack((gx.ravel(), gy.ravel())).tobytes()
            full, full_ok = _newton_on_drift(seeds, tol)
            assert roots.tobytes() == full.tobytes(), g
            assert ok.tolist() == full_ok.tolist(), g
            if (g - 1) % 4 == 0:
                assert not ok.all(), g

    @pytest.mark.parametrize("seed", range(6))
    def test_dedupe_keeps_the_pairwise_loops_representatives(self, seed):
        def pairwise(roots):
            unique = []
            for root in roots:
                for seen in unique:
                    if np.max(np.abs(root - seen)) < 1e-6:
                        break
                else:
                    unique.append(root)
            return unique

        # Clusters around a few centres, with members straddling 1e-6 from
        # each other in one or both coordinates, in shuffled order.
        rng = np.random.default_rng(seed)
        centres = rng.uniform(0.0, TWO_PI, size=(5, 2))
        offsets = rng.choice([0.0, 0.4e-6, 0.9999e-6, 1e-6, 1.0001e-6, 1.6e-6], size=(300, 2))
        offsets *= rng.choice([-1.0, 1.0], size=(300, 2))
        roots = centres[rng.integers(0, 5, size=300)] + offsets
        kept = _dedupe_roots(roots, 1e-6)
        expected = pairwise(roots)
        assert len(kept) > 5
        assert np.array(kept).tobytes() == np.array(expected).tobytes()
        assert _dedupe_roots(roots[:0], 1e-6) == []

    # Any float, with weight on NaN, the infinities, signed zeros and subnormals.
    any_float = st.one_of(
        st.floats(),
        st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                         2.2250738585072009e-308, -2.2250738585072014e-308]),
        st.floats(-2.3e-308, 2.3e-308),
    )

    @settings(deadline=None, max_examples=300)
    @given(values=st.lists(any_float, min_size=2, max_size=48))
    def test_max_norm_is_the_reduction_bit_for_bit(self, values):
        # The Newton search, classify_rows, the root dedupe and the zero-set
        # check take max-norms by columns; a reduction gives the same bits,
        # except for a NaN's payload, which only a NaN input with a payload
        # carries and which every caller only compares.
        r = np.array(values[: len(values) // 2 * 2]).reshape(-1, 2)
        for a in (r, r[None], r[0], r[:0]):
            got = analysis._max_norm(a)
            want = np.max(np.abs(a), axis=-1)
            nan = np.isnan(want)
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
            default_nan = np.abs(a).view(np.uint64) == 0x7FF8000000000000
            if np.all(default_nan | ~np.isnan(a)):
                assert got.tobytes() == want.tobytes()

    def test_zero_newton_step_freezes_the_seed(self, monkeypatch):
        # At (pi/2, pi/2) the drift Jacobian is singular, so the step is zero.
        calls = []
        real = analysis.omega_field
        monkeypatch.setattr(analysis, "omega_field", lambda p: calls.append(1) or real(p))
        seeds = np.array([[PI / 2, PI / 2], [3.0, 3.1]])
        final, ok = _newton_on_drift(seeds, 1e-12)
        assert final[0].tobytes() == seeds[0].tobytes()
        assert ok.tolist() == [False, True]
        assert len(calls) < 50


class TestClassify:
    def test_class_census(self):
        kinds = [classify(p, params()).kind for p in known_fixed_points()]
        assert kinds.count("attractor") == 2
        assert kinds.count("repeller") == 4
        assert kinds.count("saddle") == 5

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_eigenvalue_closed_forms(self, eps):
        p = params(eps)
        # saddle at the center of the square
        rec = classify((PI, PI), p)
        assert rec.eigenvalues[0] == pytest.approx(1 + eps, abs=1e-12)
        assert rec.eigenvalues[1] == pytest.approx(1 - 3 * eps, abs=1e-12)
        # corners: double 1 + 3 eps
        for corner in ((0.0, 0.0), (0.0, TWO_PI), (TWO_PI, 0.0), (TWO_PI, TWO_PI)):
            rec = classify(corner, p)
            assert rec.eigenvalues[0] == pytest.approx(1 + 3 * eps, abs=1e-12)
            assert rec.eigenvalues[1] == pytest.approx(1 + 3 * eps, abs=1e-12)
        # edge midpoints: {1 + eps, 1 - 3 eps}
        for edge in ((0.0, PI), (TWO_PI, PI), (PI, 0.0), (PI, TWO_PI)):
            rec = classify(edge, p)
            assert rec.eigenvalues[0] == pytest.approx(1 + eps, abs=1e-12)
            assert rec.eigenvalues[1] == pytest.approx(1 - 3 * eps, abs=1e-12)
        # interior attractors: the Jacobian is diag(1 - 1.5 eps), an isotropic
        # contraction (finite differences agree; see test_core).
        for point in (UPPER_ATTRACTOR, LOWER_ATTRACTOR):
            rec = classify(point, p)
            assert rec.eigenvalues[0] == pytest.approx(1 - 1.5 * eps, abs=1e-12)
            assert rec.eigenvalues[1] == pytest.approx(1 - 1.5 * eps, abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        log_eps=st.floats(
            math.log(1e-8), math.log(1 / 9), exclude_min=True, exclude_max=True
        ).filter(lambda u: 1e-8 < math.exp(u) < 1 / 9)
    )
    def test_every_fixed_point_is_hyperbolic(self, log_eps):
        # The multipliers are 1 - 3*eps/2, 1 + 3*eps, 1 + eps and 1 - 3*eps, so
        # no modulus comes within eps of 1 and every point gets a class.
        eps = math.exp(log_eps)
        for point in known_fixed_points():
            rec = classify(point, params(eps))
            assert min(abs(abs(lam) - 1.0) for lam in rec.eigenvalues) >= 0.999 * eps
            assert rec.kind in ("attractor", "repeller", "saddle")

    def test_unstable_directions(self):
        p = params()
        rec = classify((0.0, PI), p)
        assert rec.kind == "saddle"
        (u,) = rec.unstable_directions()
        expect = np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert np.max(np.abs(np.abs(u) - expect)) < 1e-12
        rec = classify((PI, 0.0), p)
        (u,) = rec.unstable_directions()
        expect = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert np.max(np.abs(np.abs(u) - expect)) < 1e-12

    def test_center_saddle_directions(self):
        rec = classify((PI, PI), params())
        (u,) = rec.unstable_directions()
        assert abs(abs(float(u @ np.array([1, 1]) / math.sqrt(2)))) < 1e-12
        stable = rec.eigenvectors[1]
        assert abs(abs(float(stable @ np.array([1, -1]) / math.sqrt(2)))) < 1e-12

    def test_rejects_non_fixed_point(self):
        with pytest.raises(ValueError):
            classify((1.0, 2.0), params())

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("location", [(math.nan, 0.0), (0.0, math.nan), (math.inf, PI),
                                          (-math.inf, 0.0)])
    def test_rejects_a_non_finite_location(self, location):
        # nan > 1e-10 is False, so a NaN residual once passed as a fixed point.
        with pytest.raises(ValueError, match="is not a fixed point"):
            classify(location, params())
        with pytest.raises(ValueError, match="is not a fixed point"):
            classify_rows([(PI, PI), location], params())

    @pytest.mark.parametrize("location", [(PI, PI, 7.0), (PI,), [[PI, PI]], PI])
    def test_a_location_is_two_floats(self, location):
        with pytest.raises(ValueError, match="a location is two floats"):
            classify(location, params())

    @pytest.mark.parametrize("locations", [(PI, PI), [(PI, PI, 7.0)], np.zeros((1, 1, 2))])
    def test_rows_are_an_n_by_2_array(self, locations):
        with pytest.raises(ValueError, match=r"locations must have shape \(n, 2\)"):
            classify_rows(locations, params())

    def test_no_rows_give_no_records(self):
        assert classify_rows(np.empty((0, 2)), params()) == ()

    @settings(deadline=None, max_examples=50)
    @given(
        log_eps=st.floats(
            math.log(1e-8), math.log(1 / 9), exclude_min=True, exclude_max=True
        ).filter(lambda u: 1e-8 < math.exp(u) < 1 / 9)
    )
    def test_rows_form_is_the_one_point_form(self, log_eps):
        # One drift and one Jacobian call for all eleven points must give what
        # each point gives alone, bit for bit.
        p = params(math.exp(log_eps))
        rows = classify_rows(known_fixed_points(), p)
        assert len(rows) == 11
        for location, rec in zip(known_fixed_points(), rows):
            J = analysis.jacobian(location, p)
            lams, vecs = analysis._eig2(J)
            residual = float(np.max(np.abs(omega_field(location))))
            fresh = (location.tobytes(), J.tobytes(), repr(lams), [v.tobytes() for v in vecs],
                     repr(residual))
            for one in (rec, classify(location, p)):
                assert (one.location.tobytes(), one.jacobian.tobytes(), repr(one.eigenvalues),
                        [v.tobytes() for v in one.eigenvectors], repr(one.residual)) == fresh
            assert rec.kind == classify(location, p).kind

    def test_complex_spectrum_rejected(self):
        with pytest.raises(ValueError, match="complex eigenvalue pair"):
            analysis._eig2(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_larger_modulus_first(self):
        # diag(-3, 1): the closed form gives 1 first; the ordering swaps in -3.
        lams, vecs = analysis._eig2(np.diag([-3.0, 1.0]))
        assert lams == (-3.0, 1.0)
        assert vecs[0].tolist() == [1.0, 0.0]
        assert vecs[1].tolist() == [0.0, 1.0]

    def test_record_dict_round_trip(self):
        rec = classify((PI, PI), params())
        back = type(rec).from_dict(json_data(rec))
        assert np.array_equal(back.location, rec.location)
        assert np.array_equal(back.jacobian, rec.jacobian)
        assert back.eigenvalues == rec.eigenvalues
        assert back.kind == rec.kind

    @pytest.mark.parametrize("kind", ["non-hyperbolic", "Saddle", ""])
    def test_record_dict_rejects_an_unknown_kind(self, kind):
        # Read as is, such a record fails later, as a bare KeyError where a
        # portrait or an orbit looks its kind up.
        rec = classify((PI, PI), params())
        with pytest.raises(ValueError, match=f"got {kind!r}"):
            type(rec).from_dict(json_data(rec) | {"kind": kind})


# ---------------------------------------------------------------------------
# invariant segments
# ---------------------------------------------------------------------------

class TestInvariantSegments:
    def test_ten_segments(self):
        names = [s.name for s in invariant_segments()]
        assert names == SEGMENT_NAMES

    def test_segment_geometry(self):
        d1 = segment_by_name("d1")
        assert np.allclose(d1.point(0.0), [0.0, PI])
        assert np.allclose(d1.point(THIRD), [THIRD, 2 * THIRD])
        c2 = segment_by_name("c2")
        assert np.allclose(c2.point(PI), [PI, 0.0])
        assert np.allclose(c2.point(2 * THIRD), [2 * THIRD, THIRD])
        d2 = segment_by_name("d2")
        assert np.allclose(d2.point(TWO_PI), [TWO_PI, PI])

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("name", SEGMENT_NAMES)
    def test_invariance_at_thousand_samples(self, name, eps):
        check = verify_invariance(segment_by_name(name), params(eps), samples=1000)
        assert check.passed, (check.name, check.max_deviation)
        assert check.max_deviation < 1e-12
        assert check.monotone
        assert check.min_slope > 0.0

    def test_diagonal_deviation_is_exactly_zero(self):
        check = verify_invariance(segment_by_name("diag"), params(), samples=1000)
        assert check.max_deviation == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="samples must be at least 2, got 1"):
            verify_invariance(segment_by_name("diag"), params(), samples=1)

    @settings(deadline=None, max_examples=300)
    @given(
        name=st.sampled_from(SEGMENT_NAMES),
        t=st.one_of(st.floats(0.0, TWO_PI), st.floats(-100.0, 100.0)),  # every domain, and beyond
        eps=st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True),
    )
    def test_float_drift_is_the_array_drift(self, name, t, eps):
        # The census steps floats through math.sin; verify_invariance and the
        # root scan evaluate arrays through np.sin.  Both must be one function.
        seg = segment_by_name(name)
        one = np.array([t])
        value = seg.drift(t)
        assert type(value) is float
        assert np.array([value]).tobytes() == seg.drift(one).tobytes()
        stepped = seg.restriction(t, params(eps))
        assert type(stepped) is float
        assert np.array([stepped]).tobytes() == seg.restriction(one, params(eps)).tobytes()

    def test_coefficient_rows_give_the_written_out_drifts(self):
        # The drifts and their derivatives as they were written out, one
        # function each, before the segments became rows of (a, b, c); each
        # drift took the sine as an argument.
        written = {
            "g": (lambda t, sin: 3.0 * sin(t), lambda t: 3.0 * np.cos(t)),
            "h1": (lambda t, sin: sin(t) + sin(2.0 * t),
                   lambda t: np.cos(t) + 2.0 * np.cos(2.0 * t)),
            "h2": (lambda t, sin: 2.0 * sin(t) - 2.0 * sin(0.5 * t),
                   lambda t: 2.0 * np.cos(t) - np.cos(0.5 * t)),
            "d2": (lambda t, sin: 2.0 * sin(t) + 2.0 * sin(0.5 * t),
                   lambda t: 2.0 * np.cos(t) + np.cos(0.5 * t)),
        }
        family = {"s0": "g", "s1": "g", "r0": "g", "r1": "g", "diag": "g",
                  "anti_diag": "h1", "c1": "h1", "c2": "h1", "d1": "h2", "d2": "d2"}
        for seg in invariant_segments():
            drift, derivative = written[family[seg.name]]
            lo, hi = seg.domain
            t = np.concatenate((np.linspace(lo, hi, 100_001), [-0.0, 0.0, 5e-324, -5e-324]))
            assert seg.drift(t).tobytes() == drift(t, np.sin).tobytes(), seg.name
            assert seg.drift_derivative(t).tobytes() == derivative(t).tobytes(), seg.name
            for v in [float(v) for v in t[::97]] + [-0.0, 5e-324, -5e-324]:
                got, want = seg.drift(v), drift(v, math.sin)
                assert type(got) is float
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (seg.name, v)
                assert got == want, (seg.name, v)

    def test_restriction_matches_map_on_segment(self):
        p = params(0.08)
        for seg in invariant_segments():
            t = np.linspace(seg.domain[0], seg.domain[1], 50)
            expect = seg.point(seg.restriction(t, p))
            got = three_clock_step(seg.point(t), p)
            assert np.max(np.abs(expect - got)) < 1e-12, seg.name

    def test_edge_restriction_fixed_points(self):
        roots = restriction_fixed_points(segment_by_name("s0"))
        assert np.max(np.abs(roots - np.array([0.0, PI, TWO_PI]))) < 1e-10

    def test_anti_diagonal_restriction_fixed_points(self):
        roots = restriction_fixed_points(segment_by_name("anti_diag"))
        expect = np.array([0.0, THIRD, PI, 2 * THIRD, TWO_PI])
        assert roots.shape == (5,)
        assert np.max(np.abs(roots - expect)) < 1e-10

    def test_half_slope_restriction_fixed_points(self):
        roots = restriction_fixed_points(segment_by_name("d1"))
        assert np.max(np.abs(roots - np.array([0.0, THIRD]))) < 1e-10

    def test_chord_restriction_fixed_points(self):
        assert np.max(np.abs(restriction_fixed_points(segment_by_name("c1")) - [THIRD, PI])) < 1e-10
        assert np.max(np.abs(restriction_fixed_points(segment_by_name("c2")) - [PI, 2 * THIRD])) < 1e-10
        assert np.max(np.abs(restriction_fixed_points(segment_by_name("d2")) - [2 * THIRD, TWO_PI])) < 1e-10

    def test_monotone_slope_bound_at_large_coupling(self):
        # slope 1 + eps q' >= 1 - 3 eps stays positive up to the 1/9 bound
        p = params(0.1)
        for seg in invariant_segments():
            check = verify_invariance(seg, p, samples=2000)
            assert check.min_slope > 1 - 3 * 0.1 - 1e-9


# ---------------------------------------------------------------------------
# heteroclinic orbits
# ---------------------------------------------------------------------------

class TestTraceHeteroclinic:
    def test_from_left_edge_saddle(self):
        p = params()
        rec = classify((0.0, PI), p)
        orbit = trace_heteroclinic(rec, (2.0, 1.0), p)
        assert orbit.kind == "sa"
        assert np.max(np.abs(orbit.target.location - UPPER_ATTRACTOR)) < 1e-12
        assert np.max(np.abs(orbit.samples[0] - rec.location)) <= 1e-6 + 1e-12
        assert np.max(np.abs(orbit.samples[-1] - UPPER_ATTRACTOR)) <= 1e-6

    def test_center_saddle_reaches_both_attractors(self):
        p = params()
        rec = classify((PI, PI), p)
        up = trace_heteroclinic(rec, (-1.0, 1.0), p)
        down = trace_heteroclinic(rec, (1.0, -1.0), p)
        assert np.max(np.abs(up.target.location - UPPER_ATTRACTOR)) < 1e-12
        assert np.max(np.abs(down.target.location - LOWER_ATTRACTOR)) < 1e-12

    def test_bottom_edge_saddle(self):
        p = params()
        orbit = trace_heteroclinic(classify((PI, 0.0), p), (1.0, 2.0), p)
        assert np.max(np.abs(orbit.target.location - LOWER_ATTRACTOR)) < 1e-12

    def test_consecutive_samples_related_by_map(self):
        # The orbit is stepped in centred coordinates and given in the
        # square's: its centred samples follow the centred step byte for
        # byte, and the orbit's samples are pi plus those.
        p = params()
        rec = classify((0.0, PI), p)
        centred, _ = analysis._trace(rec, analysis._seed_point(rec, (2.0, 1.0)), p)
        u, v = three_clock_step_centred(centred[:-1, 0], centred[:-1, 1], p)
        assert np.stack((u, v), axis=-1).tobytes() == centred[1:].tobytes()
        orbit = trace_heteroclinic(rec, (2.0, 1.0), p)
        assert orbit.samples.tobytes() == (PI + centred).tobytes()

    def test_seed_outside_square_rejected(self):
        p = params()
        rec = classify((0.0, PI), p)
        with pytest.raises(ValueError):
            trace_heteroclinic(rec, (-2.0, -1.0), p)

    def test_zero_direction_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="direction must be nonzero"):
            trace_heteroclinic(classify((0.0, PI), p), (0.0, 0.0), p)

    def test_iteration_budget_respected(self):
        p = params()
        rec = classify((0.0, PI), p)
        orbit = trace_heteroclinic(rec, (2.0, 1.0), p)
        assert orbit.samples.shape[0] - 1 <= default_max_iterations(p)

    def test_a_source_off_its_row_by_rounding_traces_as_the_table_row(self):
        # A source record one ulp off (pi, pi) still excludes the row it
        # rounds to: from the same seed, the orbit and its target match the
        # table source's (trace_heteroclinic seeds off the record's own
        # floats, so its samples differ in the last bit).
        p = params()
        table = classify((PI, PI), p)
        nudged = classify((math.nextafter(PI, 4.0), PI), p)
        assert nudged.location.tobytes() != table.location.tobytes()
        for direction in ((-1.0, 1.0), (1.0, -1.0)):
            want = trace_heteroclinic(table, direction, p)
            seed = analysis._seed_point(table, direction)
            got_samples, j = analysis._trace(nudged, seed, p)
            assert (PI + got_samples).tobytes() == want.samples.tobytes()
            assert known_fixed_points()[j].tobytes() == want.target.location.tobytes()
            got = trace_heteroclinic(nudged, direction, p)
            assert got.target.location.tobytes() == want.target.location.tobytes()

    @settings(deadline=None, max_examples=20)
    @given(eps=st.floats(0.01, 1 / 9, exclude_max=True))
    def test_mirror_seed_gives_the_mirror_orbit(self, eps):
        # Tracing the exact mirror of a seed from the mirror saddle gives the
        # mirror orbit, which the census takes for a mirror saddle's orbit.
        p = params(eps)
        table = known_fixed_points().tolist()
        records = {tuple(loc): classify(loc, p) for loc in table}
        for loc, rec in records.items():
            if rec.kind != "saddle":
                continue
            for u in rec.unstable_directions():
                for sign in (1.0, -1.0):
                    seed = analysis._seed_point(rec, sign * u)
                    if not analysis._in_centred_square(seed):
                        continue
                    samples, j = analysis._trace(rec, seed, p)
                    mirror, k = analysis._trace(records[loc[::-1]], seed[::-1].copy(), p)
                    assert mirror.tobytes() == samples[:, ::-1].copy().tobytes()
                    assert table[k] == table[j][::-1]
                    assert k == analysis._MIRROR_ROW[j]


@pytest.fixture(scope="module")
def census():
    return heteroclinic_census(params())


class TestHeteroclinicCensus:
    def test_counts(self, census):
        assert census.counts == {"sa": 6, "rs": 10, "ra": 2}

    def test_saddle_to_attractor_endpoints(self, census):
        pairs = {
            (tuple(np.round(o.source.location, 6)), tuple(np.round(o.target.location, 6)))
            for o in census.orbits
            if o.kind == "sa"
        }
        expect = {
            (tuple(np.round((0.0, PI), 6)), tuple(np.round(UPPER_ATTRACTOR, 6))),
            (tuple(np.round((TWO_PI, PI), 6)), tuple(np.round(LOWER_ATTRACTOR, 6))),
            (tuple(np.round((PI, 0.0), 6)), tuple(np.round(LOWER_ATTRACTOR, 6))),
            (tuple(np.round((PI, TWO_PI), 6)), tuple(np.round(UPPER_ATTRACTOR, 6))),
            (tuple(np.round((PI, PI), 6)), tuple(np.round(UPPER_ATTRACTOR, 6))),
            (tuple(np.round((PI, PI), 6)), tuple(np.round(LOWER_ATTRACTOR, 6))),
        }
        assert pairs == expect

    def test_repeller_to_saddle_orbits_live_on_edges_and_diagonal(self, census):
        rs = [o for o in census.orbits if o.kind == "rs"]
        on_edges = 0
        on_diag = 0
        for orbit in rs:
            x, y = orbit.samples[:, 0], orbit.samples[:, 1]
            if np.all(x == x[0]) or np.all(y == y[0]):
                on_edges += 1
            elif np.max(np.abs(x - y)) < 1e-9:
                on_diag += 1
        assert on_edges == 8 and on_diag == 2

    def test_each_location_is_classified_once(self, monkeypatch):
        # The eleven fixed points in one batch: the traced orbits and the
        # segment roots take their rows' records and add no classification.
        # classify is the one-row call of classify_rows, so rows are counted.
        real = analysis.classify_rows
        rows = []
        monkeypatch.setattr(analysis, "classify_rows",
                            lambda locs, p: rows.append(len(locs)) or real(locs, p))
        assert heteroclinic_census(params()).counts == {"sa": 6, "rs": 10, "ra": 2}
        assert rows == [11]

    def test_every_segment_root_lies_on_one_table_row(self):
        # The census names each segment root by the one table row within
        # CAPTURE_TOL of it; the roots are found by their own scan and
        # bisection, so this checks the table against the drift.
        table = known_fixed_points()
        for segment in invariant_segments():
            for t in segment.roots:
                dist = np.max(np.abs(table - segment.point(float(t))), axis=-1)
                assert np.count_nonzero(dist < 1e-12) == 1, (segment.name, t)
                assert analysis._fixed_row(*segment.point(float(t))) == int(np.argmin(dist))

    def test_the_drift_is_nonzero_between_consecutive_roots(self):
        # The census orients each segment orbit by the drift's sign at the
        # midpoint of its two roots, which is never zero.
        for segment in invariant_segments():
            ts = [float(t) for t in segment.roots]
            for lo, hi in zip(ts, ts[1:]):
                assert segment.drift(0.5 * (lo + hi)) != 0.0, (segment.name, lo, hi)

    def test_fixed_row_is_the_one_row_within_the_capture_tolerance(self):
        table = known_fixed_points()
        for j, (fx, fy) in enumerate(table):
            assert analysis._fixed_row(fx, fy) == j
            assert analysis._fixed_row(fx + analysis.CAPTURE_TOL * 0.5, fy) == j
        assert analysis._fixed_row(1.0, 2.0) is None
        assert analysis._fixed_row(PI + 2 * analysis.CAPTURE_TOL, PI) is None

    def test_kind_comes_from_the_endpoints(self, census):
        orbit = census.orbits[0]
        assert HeteroclinicOrbit(orbit.target, orbit.source, orbit.samples).kind == "as"
        with pytest.raises(TypeError):
            HeteroclinicOrbit(orbit.source, orbit.target, "sa", orbit.samples)
        with pytest.raises(TypeError):
            HeteroclinicOrbit(source=orbit.source, target=orbit.target, kind="sa",
                              samples=orbit.samples)

    @pytest.mark.parametrize("eps, traces", [(0.01, 2), (0.05, 2), (0.1, 2), (0.109, 2)])
    def test_verify_computes_each_mirror_pair_once(self, monkeypatch, eps, traces):
        # One verify traces 2 of the 6 saddle orbits, iterates 4 of the 12
        # segment orbits and combines one Lyapunov triangle's terms with eps.
        # At eps 0.109 the seeds off (0, pi) and (pi, 0) are each other's
        # mirror only up to the last bit, and the mirror saddle still takes
        # its partner's orbit.  The lattice terms and the segment roots are
        # eps-free: three couplings build the lattice at most once, and the
        # later two find no roots.
        calls = {name: 0 for name in ("_trace", "_restriction_orbit", "_combine")}
        for name in calls:
            real = getattr(analysis, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(analysis, name, counted)
        analysis._upper_scan.cache_clear()
        builds = analysis._upper_lattice.cache_info().misses
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["verify", "--eps", repr(eps)]) == 0
            assert calls == {"_trace": traces, "_restriction_orbit": 4, "_combine": 1}
            roots = [vars(seg)["roots"] for seg in invariant_segments()]
            for other in (0.5 * eps, 0.9 * eps):
                assert cli_main(["verify", "--eps", repr(other)]) == 0
        assert calls["_combine"] == 3
        assert analysis._upper_lattice.cache_info().misses - builds <= 1
        assert all(seg.roots is kept for seg, kept in zip(invariant_segments(), roots))

    @pytest.mark.parametrize("eps", [0.012, 0.05, 0.1])
    def test_restriction_orbit_is_the_chained_restriction_map(self, eps):
        # _restriction_orbit steps in one local loop; every root pair's orbit
        # is the one chained through InvariantSegment.restriction, bit for bit.
        p = params(eps)
        pairs = 0
        for segment in invariant_segments():
            ts = [float(t) for t in segment.roots]
            for lo, hi in zip(ts, ts[1:]):
                src, dst = (lo, hi) if segment.drift(0.5 * (lo + hi)) > 0.0 else (hi, lo)
                t = src + math.copysign(analysis.SEED_STEP, dst - src)
                want = [t]
                for _ in range(default_max_iterations(p)):
                    t = segment.restriction(t, p)
                    want.append(t)
                    if abs(t - dst) <= analysis.CAPTURE_TOL:
                        break
                got = analysis._restriction_orbit(segment, src, dst, p)
                assert [t.hex() for t in got] == [t.hex() for t in want], (segment.name, src)
                pairs += 1
        assert pairs == 18

    # The couplings of [0.01, 0.11] (201 points) and of the benchmark's verify
    # pools at which _eig2's eigenvectors at (0, pi) and (pi, 0) are not exact
    # transposes, so their seeds miss each other's mirror by a rounding.
    SEED_MISSES_MIRROR = (
        0.0155, 0.0165, 0.019000000000000003, 0.033, 0.0545, 0.059000000000000004,
        0.060500000000000005, 0.075, 0.107, 0.109,
        0.012242, 0.01412, 0.096679, 0.09702, 0.097732, 0.098819,
    )

    def test_census_is_exactly_mirror_symmetric(self, monkeypatch):
        traces = []
        real = analysis._trace

        def counted(*args):
            traces.append(real(*args))
            return traces[-1]

        monkeypatch.setattr(analysis, "_trace", counted)
        row = {tuple(xy): i for i, xy in enumerate(known_fixed_points().tolist())}
        for eps in self.SEED_MISSES_MIRROR:
            traces.clear()
            sa = [o for o in heteroclinic_census(params(eps)).orbits if o.kind == "sa"]
            assert len(traces) == 2
            landed = [row[tuple(o.target.location.tolist())] for o in sa]
            # (pi, pi) twice, then (0, pi), (2*pi, pi), (pi, 0) and (pi, 2*pi).
            for a, b in ((0, 1), (2, 4), (3, 5)):
                assert sa[b].samples.tobytes() == sa[a].samples[:, ::-1].copy().tobytes()
                assert landed[b] == analysis._MIRROR_ROW[landed[a]]
            # (2*pi, pi) is (0, pi) point-reflected, and (pi, 2*pi) is (pi, 0)
            # point-reflected, each against the traced centred orbit.
            c, _ = traces[1]
            for k, centred in ((2, c), (3, -c), (4, c[:, ::-1]), (5, -c[:, ::-1])):
                assert sa[k].samples.tobytes() == (PI + centred).tobytes()
            for a, b in ((2, 3), (4, 5)):
                assert landed[b] == analysis._REFLECT_ROW[landed[a]]

    @staticmethod
    def _check_each_edge_saddle_traced_alone(eps):
        # The D2 census's oracle: each edge saddle traced from its own seed
        # gives the census's orbit length and landing row, and the orbit of
        # (2*pi, pi) is that of (0, pi) negated, in centred samples.
        p = params(eps)
        table = known_fixed_points().tolist()
        records = classify_rows(np.array(table), p)
        sa = [o for o in heteroclinic_census(p).orbits if o.kind == "sa"]
        own = {}
        for orbit in sa[2:]:
            i = table.index(orbit.source.location.tolist())
            seeds = [analysis._seed_point(records[i], sign * u)
                     for u in records[i].unstable_directions() for sign in (1.0, -1.0)]
            (seed,) = [seed for seed in seeds if analysis._in_centred_square(seed)]
            own[i], j = analysis._trace(records[i], seed, p)
            assert len(own[i]) == len(orbit.samples), (eps, i)
            assert table[j] == orbit.target.location.tolist(), (eps, i)
        left, right = table.index([0.0, PI]), table.index([TWO_PI, PI])
        assert np.array_equal(own[right], -own[left])
        assert np.array_equal(sa[2].samples, PI + own[left])
        assert np.array_equal(sa[3].samples, PI + own[right])

    @settings(deadline=None, max_examples=20)
    @given(eps=st.floats(0.01, 1 / 9, exclude_max=True))
    def test_each_edge_saddle_traced_alone_gives_the_census(self, eps):
        self._check_each_edge_saddle_traced_alone(eps)

    def test_each_edge_saddle_traced_alone_where_seeds_miss_their_mirror(self):
        for eps in self.SEED_MISSES_MIRROR:
            self._check_each_edge_saddle_traced_alone(eps)

    def test_the_output_digests_draw_portraits_where_seeds_miss_their_mirror(self):
        # tools/output_digests.py digests a heteroclinic portrait at each of
        # these couplings, where a reflected orbit's .3f polyline would show.
        path = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
        spec = importlib.util.spec_from_file_location("output_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tuple(map(float, tool.SEED_MISSES_MIRROR)) == self.SEED_MISSES_MIRROR
        portraits = [args[2] for args in tool.sweep("")
                     if args[0] == "portrait" and args[3:] == ["--layers", "heteroclinics"]]
        assert set(tool.SEED_MISSES_MIRROR) <= set(portraits)

    def test_repeller_to_attractor_orbits_on_anti_diagonal(self, census):
        ra = [o for o in census.orbits if o.kind == "ra"]
        assert len(ra) == 2
        for orbit in ra:
            s = orbit.samples
            assert np.max(np.abs(s[:, 0] + s[:, 1] - TWO_PI)) < 1e-9


# ---------------------------------------------------------------------------
# Lyapunov functions
# ---------------------------------------------------------------------------

class TestLyapunovValue:
    def test_zero_at_attractor(self):
        assert lyapunov_value(UPPER_ATTRACTOR, "upper") == 0.0

    def test_value_at_center_saddle(self):
        assert lyapunov_value((PI, PI), "upper") == pytest.approx(PI**2 / 3, abs=1e-12)

    def test_positive_away_from_attractor(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(0.0, TWO_PI)
            y = rng.uniform(x, TWO_PI)
            v = float(lyapunov_value((x, y), "upper"))
            if np.max(np.abs(np.array([x, y]) - UPPER_ATTRACTOR)) > 1e-6:
                assert v > 0.0

    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            lyapunov_value((3 * PI / 2, PI / 2), "upper")
        with pytest.raises(ValueError):
            lyapunov_value((PI / 2, 3 * PI / 2), "lower")
        with pytest.raises(ValueError):
            lyapunov_value((PI, PI), "middle")


class TestOrbitalDerivative:
    def test_zero_at_fixed_point(self):
        df = orbital_derivative(UPPER_ATTRACTOR, "upper", params())
        assert abs(float(df)) < 1e-15

    def test_strictly_negative_off_fixed_points(self):
        df = orbital_derivative((PI / 2, 3 * PI / 2), "upper", params(0.01))
        assert float(df) < -1e-4

    def test_membership_enforced(self):
        with pytest.raises(ValueError, match="outside the closed upper triangle"):
            orbital_derivative(LOWER_ATTRACTOR, "upper", params())

    def test_expanded_form_matches_naive_difference(self):
        p = params(0.05)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(0.0, TWO_PI)
            y = rng.uniform(x, TWO_PI)
            point = np.array([x, y])
            expanded = float(orbital_derivative(point, "upper", p))
            naive = float(
                lyapunov_value(np.clip(three_clock_step(point, p), 0.0, TWO_PI), "upper")
                - lyapunov_value(point, "upper")
            )
            assert expanded == pytest.approx(naive, abs=1e-12)

    def test_descent_along_orbit(self):
        p = params()
        point = np.array([PI / 2, 3 * PI / 2])
        values = []
        for _ in range(300):
            values.append(float(lyapunov_value(point, "upper")))
            point = three_clock_step(point, p)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-15)
        assert np.all(diffs[:100] < 0.0)


class TestOrbitalDerivativeScan:
    @pytest.mark.parametrize("region", ["upper", "lower"])
    @pytest.mark.parametrize("eps", [0.01, 0.05])
    def test_non_positive_and_zeros_at_fixed_points(self, region, eps):
        report = orbital_derivative_scan(region, params(eps), grid=150)
        assert report.passed
        assert report.max_df <= 1e-12
        fps = region_fixed_points(region)
        for zero in report.zero_set:
            assert np.min(np.max(np.abs(fps - zero), axis=1)) <= 2 * report.cell

    def test_region_fixed_point_counts(self):
        assert region_fixed_points("upper").shape == (7, 2)
        assert region_fixed_points("lower").shape == (7, 2)

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            orbital_derivative_scan("upper", params(), grid=50)

    @pytest.mark.parametrize("grid", [100, 101, 150, 301])
    @pytest.mark.parametrize("lower_first", [True, False])
    def test_lower_scan_is_the_direct_lower_decrement(self, grid, lower_first):
        # The lower scan mirrors the upper one; it must equal the decrement
        # evaluated on the lower lattice itself, in its row-major order.
        for eps in (0.011, 0.05, 0.109):
            analysis._upper_scan.cache_clear()
            order = ("lower", "upper") if lower_first else ("upper", "lower")
            scans = {region: orbital_derivative_scan(region, params(eps), grid=grid)
                     for region in order}
            axis = np.linspace(0.0, TWO_PI, grid + 1)
            x, y = (c.ravel() for c in np.meshgrid(axis, axis))
            for region, scan in scans.items():
                inside = y >= x if region == "upper" else y <= x
                df = orbital_derivative(np.column_stack((x[inside], y[inside])), region,
                                        params(eps))
                zero = np.abs(df) < analysis.ZERO_TOL
                expect = np.column_stack((x[inside][zero], y[inside][zero]))
                assert repr(scan.max_df) == repr(float(np.max(df)))
                assert scan.zero_set.shape == expect.shape
                assert scan.zero_set.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("region", ["upper", "lower"])
    def test_zero_set_is_read_only(self, region):
        scan = orbital_derivative_scan(region, params(0.05), grid=100)
        with pytest.raises(ValueError):
            scan.zero_set[0, 0] = 1.0
        again = orbital_derivative_scan(region, params(0.05), grid=100)
        assert again.zero_set.tobytes() == scan.zero_set.tobytes()


def fresh_invariance(segment, p, samples):
    """The fields of ``verify_invariance``, computed from scratch as it did
    before it kept the eps-free samples."""
    t = np.linspace(*segment.domain, samples)
    pts = segment.point(t)
    img = three_clock_step(pts, p)
    dx, dy = segment.direction
    w = img - np.asarray(segment.origin, dtype=float)
    dev = np.abs(dy * w[:, 0] - dx * w[:, 1]) / math.hypot(dx, dy)
    worst = int(np.argmax(dev))
    slope = 1.0 + p.epsilon * segment.drift_derivative(t)
    monotone = bool(np.all(np.diff(segment.restriction(t, p)) > 0.0) and np.all(slope > 0.0))
    return repr(float(dev[worst])), pts[worst].tobytes(), monotone, repr(float(np.min(slope)))


def _negative_zeros(values):
    return tuple(-0.0 if v == 0.0 else v for v in values)


# The ten segments made again by hand, with every zero of their origin,
# direction and domain negated: each equals its original under ==, keeps data
# of its own, and a zero's sign can reach its points and roots.
SIGNED_ZERO_SEGMENTS = [
    dataclasses.replace(seg, origin=_negative_zeros(seg.origin),
                        direction=_negative_zeros(seg.direction),
                        domain=_negative_zeros(seg.domain))
    for seg in invariant_segments()
]


def check_fields(check):
    return (repr(check.max_deviation), check.worst_point.tobytes(), check.monotone,
            repr(check.min_slope))


class TestEpsFreeCaches:
    """The lattice terms, segment samples and segment roots are kept across
    couplings; every result must equal a from-scratch evaluation."""

    @settings(deadline=None, max_examples=15)
    @given(
        steps=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.011, 0.05, 0.109]),
                          st.floats(0.01, 1 / 9, exclude_max=True)),
                st.sampled_from([100, 101, 300]),
                st.sampled_from([2, 17, 1000]),
                st.permutations(["upper", "lower"]),
                st.lists(st.sampled_from(SIGNED_ZERO_SEGMENTS), max_size=3),
            ),
            min_size=2, max_size=5,
        )
    )
    def test_kept_terms_give_the_fresh_results(self, steps):
        # The first step comes back last, after the others may have evicted
        # its lattice (one grid kept) and its samples (one sample count kept).
        for eps, grid, samples, regions, made in [*steps, steps[0]]:
            p = params(eps)
            for segment in (*invariant_segments(), *made):
                check = verify_invariance(segment, p, samples=samples)
                assert check.name == segment.name
                assert check_fields(check) == fresh_invariance(segment, p, samples)
                # replace() builds a new segment, which keeps nothing yet.
                fresh_roots = dataclasses.replace(segment).roots
                assert restriction_fixed_points(segment).tobytes() == fresh_roots.tobytes()
            axis = np.linspace(0.0, TWO_PI, grid + 1)
            x, y = (c.ravel() for c in np.meshgrid(axis, axis))
            for region in regions:
                scan = orbital_derivative_scan(region, p, grid=grid)
                inside = y >= x if region == "upper" else y <= x
                df = orbital_derivative(np.column_stack((x[inside], y[inside])), region, p)
                zero = np.abs(df) < analysis.ZERO_TOL
                expect = np.column_stack((x[inside][zero], y[inside][zero]))
                assert repr(scan.max_df) == repr(float(np.max(df)))
                assert scan.zero_set.shape == expect.shape
                assert scan.zero_set.tobytes() == expect.tobytes()

    def test_a_coupling_sweep_builds_the_eps_free_terms_once(self, monkeypatch):
        # verify --eps with several couplings is the caller the kept terms
        # serve: one lattice, and one sample set and one root set per segment,
        # for the whole run.
        for seg in invariant_segments():
            vars(seg).pop("roots", None)
            vars(seg).pop("_kept_samples", None)
        analysis._upper_lattice.cache_clear()
        built = {"roots": 0, "samples": 0}
        find_roots = InvariantSegment.roots.func
        slope = InvariantSegment.drift_derivative

        def counted_roots(seg):
            built["roots"] += 1
            return find_roots(seg)

        def counted_slope(seg, t):
            built["samples"] += 1
            return slope(seg, t)

        monkeypatch.setattr(InvariantSegment.roots, "func", counted_roots)
        monkeypatch.setattr(InvariantSegment, "drift_derivative", counted_slope)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["verify", "--eps", "0.011,0.05,0.08,0.109"]) == 0
        assert built == {"roots": 10, "samples": 10}
        assert analysis._upper_lattice.cache_info().misses == 1

    def test_kept_arrays_are_read_only_and_returned_arrays_are_the_callers(self):
        seg, p = segment_by_name("d1"), params(0.05)
        orbital_derivative_scan("upper", p, grid=100)
        for kept in analysis._upper_lattice(100):
            assert not kept.flags.writeable
        check = verify_invariance(seg, p, samples=17)
        for kept in seg._samples(17):
            assert not kept.flags.writeable
        roots = restriction_fixed_points(seg)
        assert not seg.roots.flags.writeable
        want_roots, want_worst = roots.tobytes(), check.worst_point.tobytes()
        roots[:] = -1.0
        check.worst_point[:] = -1.0
        assert restriction_fixed_points(seg).tobytes() == want_roots
        assert verify_invariance(seg, p, samples=17).worst_point.tobytes() == want_worst

    def test_kept_drift_is_the_segments_drift(self):
        # verify forms the restriction t + eps*drift from the kept drift.
        for seg in invariant_segments():
            t, _, drift, _ = seg._samples(1000)
            assert not drift.flags.writeable
            assert drift.tobytes() == seg.drift(t).tobytes()

    @pytest.mark.parametrize("kept", [True, False])
    def test_a_non_integer_size_is_refused_whatever_is_kept(self, kept):
        # A float equal to an integer would match that integer's kept data
        # and fail in np.linspace without it; it is refused either way.
        seg, p = dataclasses.replace(segment_by_name("s0")), params(0.05)
        analysis._upper_scan.cache_clear()
        analysis._upper_lattice.cache_clear()
        if kept:
            verify_invariance(seg, p, samples=17)
            orbital_derivative_scan("upper", p, grid=100)
        with pytest.raises(ValueError, match="samples must be an integer, got 17.0"):
            verify_invariance(seg, p, samples=17.0)
        with pytest.raises(ValueError, match="grid must be an integer, got 100.0"):
            orbital_derivative_scan("upper", p, grid=100.0)
        # A numpy integer is an integer.
        check = verify_invariance(seg, p, samples=np.int64(17))
        assert check_fields(check) == fresh_invariance(seg, p, 17)
        assert orbital_derivative_scan("upper", p, grid=np.int64(100)).grid_resolution == 100

    def test_keys_tell_a_zero_from_a_negative_zero(self):
        # Equal under ==, these segments differ in the sign of a zero that
        # reaches their points or their roots.
        s0 = segment_by_name("s0")
        neg = InvariantSegment("s0", (-0.0, 0.0), (-0.0, 1.0), (-0.0, TWO_PI), s0.coefficients)
        assert neg == s0
        p = params(0.05)
        for seg in (s0, neg, s0):
            check = verify_invariance(seg, p, samples=17)
            assert check_fields(check) == fresh_invariance(seg, p, 17)
        assert np.signbit(verify_invariance(neg, p, samples=17).worst_point[0])
        # np.linspace ends on the domain's stop as given, signed zero included.
        ends = [InvariantSegment("s0", s0.origin, s0.direction, (-1.0, stop), s0.coefficients)
                for stop in (0.0, -0.0, 0.0)]
        assert [np.signbit(restriction_fixed_points(seg)[-1]) for seg in ends] == [
            False, True, False]


class TestBatchedSegmentChecks:
    """``verify_invariance`` of a sequence steps all its segments' samples
    with one map call; each check must be that segment's own."""

    @pytest.mark.parametrize("samples", [2, 17, 1000])
    def test_batched_checks_are_the_one_segment_checks(self, samples):
        segments = (*invariant_segments(), *SIGNED_ZERO_SEGMENTS)
        for eps in (0.011, 0.05, 0.109):
            p = params(eps)
            batched = verify_invariance(segments, p, samples=samples)
            assert isinstance(batched, tuple) and len(batched) == len(segments)
            for seg, check in zip(segments, batched):
                assert check.name == seg.name
                fields = check_fields(check)
                assert fields == check_fields(verify_invariance(seg, p, samples=samples))
                assert fields == fresh_invariance(seg, p, samples)

    def test_any_sequence_and_none(self):
        p = params()
        segments = list(invariant_segments()[:3])
        assert [c.name for c in verify_invariance(segments, p, samples=17)] == ["s0", "s1", "r0"]
        assert verify_invariance((), p, samples=17) == ()
        with pytest.raises(ValueError, match="samples must be an integer"):
            verify_invariance(segments, p, samples=17.0)
        with pytest.raises(ValueError, match="samples must be at least 2, got 1"):
            verify_invariance(segments, p, samples=1)


# ---------------------------------------------------------------------------
# pinned outcomes
# ---------------------------------------------------------------------------

# Couplings of the pinned census, and the (eps, seed grid) pairs of the pinned
# fixed-point searches.  Seed grids 33 and 45 put seeds on singular-Jacobian
# points (grid - 1 divisible by 4), 16 and 72 are even grids.
PINNED_CENSUS_EPS = (0.01, 0.013, 0.02, 0.03, 0.045, 0.05, 0.066, 0.08, 0.1, 0.109)
PINNED_SEARCHES = (
    (0.05, 2), (0.05, 5), (0.05, 16), (0.05, 33), (0.05, 45), (0.05, 72), (0.05, 100),
    (0.01, 33), (0.01, 72), (0.1, 45), (0.1, 16),
)


def census_outcome(eps):
    """Counts and per-orbit sample digests of ``heteroclinic_census``."""
    census = heteroclinic_census(params(eps))
    return {
        "eps": repr(eps),
        "counts": census.counts,
        "orbits": [
            {
                "kind": orb.kind,
                "source": [repr(float(v)) for v in orb.source.location],
                "target": [repr(float(v)) for v in orb.target.location],
                "length": int(orb.samples.shape[0]),
                "sha256": hashlib.sha256(orb.samples.tobytes()).hexdigest(),
            }
            for orb in census.orbits
        ],
    }


def fixed_points_outcome(eps, seed_grid):
    """Digests of the ``fixed-points`` JSON and CSV reports."""
    out = {"eps": repr(eps), "seed_grid": seed_grid}
    for fmt in ("json", "csv"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["fixed-points", "--eps", repr(eps), "--seed-grid", str(seed_grid),
                             "--format", fmt])
        assert code == 0
        out[f"{fmt}_sha256"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def analysis_outcomes():
    return {
        "census": [census_outcome(eps) for eps in PINNED_CENSUS_EPS],
        "fixed_points": [fixed_points_outcome(eps, g) for eps, g in PINNED_SEARCHES],
    }


def test_analysis_outcomes_match_the_recorded_numpy_loops():
    """Bit-for-bit census and fixed-point reports of the numpy-per-step analysis.

    ``data/analysis_outcomes.json`` is ``analysis_outcomes()`` recorded with
    the analysis layer that stepped the census through ``three_clock_step``
    one 2-vector at a time and deduplicated roots pairwise.  The digests of
    the ``sa`` orbits were re-recorded when the census began to trace in
    centred coordinates; their lengths and targets did not change.
    """
    pinned = json.loads((Path(__file__).parent / "data" / "analysis_outcomes.json").read_text())
    got = analysis_outcomes()
    for old, new in zip(pinned["census"], got["census"]):
        assert new == old, f"census at eps {old['eps']}"
    for old, new in zip(pinned["fixed_points"], got["fixed_points"]):
        assert new == old, f"fixed points at eps {old['eps']}, seed grid {old['seed_grid']}"
    assert len(got["census"]) == len(pinned["census"])
    assert len(got["fixed_points"]) == len(pinned["fixed_points"])


# Couplings and lattice sizes of the pinned Lyapunov scans.  Grid 300 is the
# default; 301 puts no lattice node on the splay points' thirds of 2*pi.
PINNED_SCAN_EPS = (0.011, 0.017, 0.025, 0.035, 0.05, 0.063, 0.08, 0.097, 0.109)
PINNED_SCAN_GRIDS = (100, 300, 301)


def lyapunov_outcome(region, eps, grid):
    """``max_df``, zero-set digest and verdict of ``orbital_derivative_scan``,
    and the digest of ``orbital_derivative`` on the scan's lattice points."""
    report = orbital_derivative_scan(region, params(eps), grid=grid)
    axis = np.linspace(0.0, TWO_PI, grid + 1)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    pts = pts[pts[:, 1] >= pts[:, 0]] if region == "upper" else pts[pts[:, 1] <= pts[:, 0]]
    decrement = orbital_derivative(pts, region, params(eps))
    return {
        "region": region,
        "eps": repr(eps),
        "grid": grid,
        "max_df": repr(report.max_df),
        "zero_set_shape": list(report.zero_set.shape),
        "zero_set_sha256": hashlib.sha256(report.zero_set.tobytes()).hexdigest(),
        "passed": report.passed,
        "decrement_sha256": hashlib.sha256(decrement.tobytes()).hexdigest(),
    }


def lyapunov_outcomes():
    return [
        lyapunov_outcome(region, eps, grid)
        for region in ("upper", "lower")
        for eps in PINNED_SCAN_EPS
        for grid in PINNED_SCAN_GRIDS
    ]


def test_lyapunov_outcomes_match_the_recorded_stacked_scan():
    """Bit-for-bit Lyapunov scans of the ``(N, 2)``-stack implementation.

    ``data/lyapunov_outcomes.json`` is ``lyapunov_outcomes()`` recorded with
    the scan that stacked the lattice into one ``(N, 2)`` array and checked
    region membership again inside ``orbital_derivative``.
    """
    pinned = json.loads((Path(__file__).parent / "data" / "lyapunov_outcomes.json").read_text())
    got = lyapunov_outcomes()
    for old, new in zip(pinned, got):
        assert new == old, f"{old['region']} scan at eps {old['eps']}, grid {old['grid']}"
    assert len(got) == len(pinned)

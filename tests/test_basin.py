import io
import math
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triclock import basin
from triclock.analysis import default_max_iterations, lyapunov_value
from triclock.basin import (
    ATTRACTOR_LOWER,
    ATTRACTOR_UPPER,
    LABEL_NAMES,
    BasinGrid,
    classify_point,
    orbit,
    rasterize,
    read_grid_binary,
    write_grid_binary,
    write_grid_csv,
)
from triclock.cli import main as cli_main
from triclock.core import TWO_PI, CouplingParams, three_clock_step, three_clock_step_centred

PI = math.pi
# The attractors in the classifier's centred coordinates u = x - pi, v = y - pi.
CENTRED_UPPER, CENTRED_LOWER = (-PI / 3, PI / 3), (PI / 3, -PI / 3)


def params(eps=0.05):
    return CouplingParams(epsilon=eps)


class TestClassifyPoint:
    def test_upper_triangle_point(self):
        label, iters = classify_point((PI / 2, 3 * PI / 2), params())
        assert label == "upper"
        assert 0 < iters <= default_max_iterations(params())

    def test_lower_triangle_point(self):
        label, _ = classify_point((3 * PI / 2, PI / 2), params())
        assert label == "lower"

    def test_diagonal_point_detected_immediately(self):
        label, iters = classify_point((1.0, 1.0), params())
        assert label == "boundary"
        assert iters == 0

    def test_edge_point(self):
        label, _ = classify_point((0.0, 2.3), params())
        assert label == "boundary"

    def test_attractor_is_instant(self):
        label, iters = classify_point(ATTRACTOR_UPPER, params())
        assert label == "upper" and iters == 0

    def test_budget_exhaustion_is_unresolved(self):
        label, iters = classify_point((PI / 2, 3 * PI / 2), params(), max_iter=2)
        assert label == "unresolved" and iters == 2

    def test_outside_square_rejected(self):
        with pytest.raises(ValueError):
            classify_point((-1.0, 1.0), params())


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"max_iter": -3}, {"max_iter": 2.0}],
    ids=["negative-tol", "nan-tol", "inf-tol", "negative-max-iter", "float-max-iter"],
)
@pytest.mark.parametrize("classify", ["rasterize", "classify_point"])
def test_meaningless_budget_rejected(classify, kwargs):
    with pytest.raises(ValueError):
        if classify == "rasterize":
            rasterize(4, params(), **kwargs)
        else:
            classify_point((1.0, 2.0), params(), **kwargs)


@pytest.mark.parametrize("args, kwargs", [((50.5,), {}), ((10,), {"workers": 2.5})],
                         ids=["resolution", "workers"])
def test_non_integer_sizes_rejected(args, kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        rasterize(*args, params(), **kwargs)


def centred_reference(u, v, p, tol, max_iter):
    """The classifier spelled out on centred coordinates: every test on every
    open point at every iteration.  Labels and counts per point."""
    labels = np.full(u.size, 3, dtype=np.uint8)
    iters = np.full(u.size, max_iter, dtype=np.int32)
    open_ = np.ones(u.size, dtype=bool)
    for k in range(max_iter + 1):
        on_boundary = (np.abs(u) == PI) | (np.abs(v) == PI) | (np.abs(u - v) < 1e-13)
        near = [np.maximum(np.abs(u - au), np.abs(v - av)) <= tol
                for au, av in (CENTRED_UPPER, CENTRED_LOWER)]
        for code, hit in ((2, on_boundary), (0, near[0]), (1, near[1])):
            new = open_ & hit
            labels[new] = code
            iters[new] = k
            open_ &= ~new
        if not open_.any() or k == max_iter:
            break
        u, v = three_clock_step_centred(u, v, p)
    return labels, iters


def reference_classification(points, p, tol, max_iter):
    """:func:`centred_reference` of an (n, 2) array of points of the square,
    taken to centred coordinates as ``classify_point`` takes them."""
    pts = np.array(points, dtype=float).reshape(-1, 2) - PI
    return centred_reference(pts[:, 0], pts[:, 1], p, tol, max_iter)


def full_lattice_reference(resolution, p, tol, max_iter):
    """:func:`centred_reference` of every centred cell centre, as grids."""
    c = (np.arange(resolution) + (0.5 - resolution / 2)) * (TWO_PI / resolution)
    gu, gv = np.meshgrid(c, c)
    labels, iters = centred_reference(gu.ravel(), gv.ravel(), p, tol, max_iter)
    return labels.reshape(resolution, resolution), iters.reshape(resolution, resolution)


def _ulps(value, n):
    """``value`` moved ``n`` floats up (n > 0) or down (n < 0)."""
    toward = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        value = math.nextafter(value, toward)
    return value


# Couplings over the analysis range, weighted to both of its ends.
COUPLINGS = st.one_of(
    st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True),
    st.floats(1e-8, 1e-6, exclude_min=True),
    st.floats(0.11, 1 / 9, exclude_max=True),
)


@st.composite
def adversarial_starts(draw, tol):
    """A point of the square drawn uniformly, or where a finish test is close
    to firing: 1e-14 to 1e-9 off an edge, a few ulps about the diagonal band,
    or about ``tol`` (max-norm) off an attractor."""
    t = draw(st.floats(0.0, TWO_PI))
    kind = draw(st.sampled_from(["uniform", "edge", "diagonal", "attractor"]))
    if kind == "uniform":
        return t, draw(st.floats(0.0, TWO_PI))
    if kind == "edge":
        off = draw(st.one_of(st.floats(1e-14, 1e-9), st.sampled_from([0.0, 1e-14])))
        q = draw(st.sampled_from([off, TWO_PI - off]))
        return draw(st.sampled_from([(q, t), (t, q)]))
    if kind == "diagonal":
        x = draw(st.floats(0.01, TWO_PI - 0.01))
        band = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
        return x, _ulps(x + band, draw(st.integers(-4, 4)))
    ax, ay = draw(st.sampled_from([ATTRACTOR_UPPER, ATTRACTOR_LOWER]))
    r = _ulps(tol * draw(st.sampled_from([1.0, 1.0, 1.01, 1.3, 3.0])), draw(st.integers(-3, 3)))
    r = min(max(r, 0.0), 2.0)
    w = draw(st.floats(-1.0, 1.0))
    sx, sy = draw(st.sampled_from([(r, w * r), (-r, w * r), (w * r, r), (w * r, -r)]))
    return float(ax) + sx, float(ay) + sy


def finish_distances(u, v):
    """The distances the classifier's finish tests compare (max-norm), on
    centred coordinates."""
    return {
        "upper": np.maximum(np.abs(u - CENTRED_UPPER[0]), np.abs(v - CENTRED_UPPER[1])),
        "lower": np.maximum(np.abs(u - CENTRED_LOWER[0]), np.abs(v - CENTRED_LOWER[1])),
        "diagonal": np.abs(u - v),
        "edge": np.minimum(PI + np.minimum(u, v), PI - np.maximum(u, v)),
    }


class TestSkipBound:
    """The classifier skips its finish tests on this bound: one float step
    of the centred map, the one the classifier takes, shrinks each finish
    distance at most by the factor ``1 - _OMEGA_LIPSCHITZ*eps``, less
    ``_SKIP_SLACK``."""

    @settings(deadline=None, max_examples=300)
    @given(eps=COUPLINGS, tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]), data=st.data())
    def test_each_finish_distance_shrinks_at_most_by_the_bound(self, eps, tol, data):
        pts = np.array(data.draw(st.lists(adversarial_starts(tol), min_size=1, max_size=16))) - PI
        u, v = pts[:, 0], pts[:, 1]
        before = finish_distances(u, v)
        after = finish_distances(*three_clock_step_centred(u, v, params(eps)))
        rate = 1.0 - basin._OMEGA_LIPSCHITZ * eps
        for name, d in before.items():
            shrunk = after[name] < rate * d - basin._SKIP_SLACK
            assert not shrunk.any(), (name, pts[shrunk], d[shrunk], after[name][shrunk])

    def test_the_bound_is_nearly_tight_near_an_attractor(self):
        # At an attractor the distance shrinks by 1 - 1.5*eps per step, so a
        # Lipschitz factor below 1.5 would be false: the bound is not vacuous.
        eps = 0.1
        u, v = CENTRED_LOWER[0] + np.array([1e-3]), CENTRED_LOWER[1] + np.array([0.0])
        ratio = finish_distances(*three_clock_step_centred(u, v, params(eps)))["lower"][0] / 1e-3
        assert 1.0 - basin._OMEGA_LIPSCHITZ * eps < ratio < 1.0 - 1.4 * eps


# The largest accepted capture tolerance: a tol must be >= 0 and < 1.
LARGEST_TOL = math.nextafter(1.0, 0.0)
TOLERANCES = st.one_of(
    st.sampled_from([0.0, 1e-6, 1e-3, 0.5, LARGEST_TOL]),
    st.floats(0.0, 1.0, exclude_max=True),
)
BUDGETS = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 160))


class TestClassifierOracle:
    """The classifier, which runs each finish test only where it can fire,
    labels and counts as :func:`reference_classification` does."""

    @settings(deadline=None, max_examples=150)
    @given(eps=COUPLINGS, tol=TOLERANCES, max_iter=BUDGETS, data=st.data())
    def test_points_match_the_reference(self, eps, tol, max_iter, data):
        pts = data.draw(st.lists(adversarial_starts(tol), min_size=1, max_size=8))
        p = params(eps)
        labels, iters = reference_classification(pts, p, tol, max_iter)
        for point, code, count in zip(pts, labels, iters):
            assert classify_point(point, p, tol=tol, max_iter=max_iter) == (
                LABEL_NAMES[code], count)
        xy = np.array(pts, dtype=float)
        batch = basin._classify(xy[:, 0] - PI, xy[:, 1] - PI, p, tol, max_iter)
        assert batch[0].tobytes() == labels.tobytes()
        assert batch[1].tobytes() == iters.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(resolution=st.integers(2, 9), eps=COUPLINGS, tol=TOLERANCES, max_iter=BUDGETS)
    def test_rasters_match_the_reference(self, resolution, eps, tol, max_iter):
        p = params(eps)
        grid = rasterize(resolution, p, tol=tol, max_iter=max_iter)
        labels, iters = full_lattice_reference(resolution, p, tol, max_iter)
        assert grid.labels.tobytes() == labels.tobytes()
        assert grid.iterations.tobytes() == iters.tobytes()

    # From tol = pi/3 up a capture box takes cells of the other triangle, and
    # the raster would mislabel them; every tol from 1 up is refused, as are
    # negative ones and NaN.
    @pytest.mark.parametrize("tol", [1.0, 2.5, math.inf, -math.inf, math.nan],
                             ids=["1", "2.5", "inf", "-inf", "nan"])
    def test_tolerances_outside_zero_to_one_refused(self, tmp_path, capsys, tol):
        with pytest.raises(ValueError, match="tol must be >= 0 and < 1"):
            rasterize(4, params(), tol=tol)
        with pytest.raises(ValueError, match="tol must be >= 0 and < 1"):
            classify_point((1.0, 2.0), params(), tol=tol)
        out = tmp_path / "grid.bin"
        code = cli_main(["basins", "--eps", "0.05", "--resolution", "48", "--tol", repr(tol),
                         "--format", "bin", "--out", str(out)])
        assert code == 2
        assert "tol must be >= 0 and < 1" in capsys.readouterr().err
        assert not out.exists()


class TestRasterize:
    def test_small_grid_matches_pointwise_classification(self):
        p = params()
        grid = rasterize(3, p)
        h = TWO_PI / 3
        for row in range(3):
            for col in range(3):
                point = ((col + 0.5) * h, (row + 0.5) * h)
                label, iters = classify_point(point, p)
                assert LABEL_NAMES[grid.labels[row, col]] == label
                assert grid.iterations[row, col] == iters

    def test_diagonal_cells_are_boundary(self):
        grid = rasterize(9, params())
        assert all(LABEL_NAMES[grid.labels[i, i]] == "boundary" for i in range(9))

    def test_triangles_fill_with_their_attractor(self):
        grid = rasterize(20, params())
        for row in range(20):
            for col in range(20):
                if row > col:
                    assert LABEL_NAMES[grid.labels[row, col]] == "upper"
                elif row < col:
                    assert LABEL_NAMES[grid.labels[row, col]] == "lower"

    @settings(deadline=None, max_examples=80)
    @given(resolution=st.integers(2, 48), eps=COUPLINGS, tol=TOLERANCES,
           max_iter=st.one_of(BUDGETS, st.none()))
    def test_d2_symmetry_bit_for_bit(self, resolution, eps, tol, max_iter):
        # The transpose and the point reflection swap upper and lower; the
        # anti-transpose [r, c] -> [res-1-c, res-1-r] keeps every label.  All
        # three keep the iteration counts.  (The default budget only where it
        # is short enough to run.)
        assume(max_iter is not None or eps >= 0.01)
        grid = rasterize(resolution, params(eps), tol=tol, max_iter=max_iter)
        swap = np.array([1, 0, 2, 3], dtype=np.uint8)
        labels, iters = grid.labels, grid.iterations
        for image, swapped in ((lambda a: a.T, True), (lambda a: a[::-1, ::-1].T, False),
                               (lambda a: a[::-1, ::-1], True)):
            expected = swap[labels] if swapped else labels
            assert np.ascontiguousarray(image(labels)).tobytes() == expected.tobytes()
            assert np.ascontiguousarray(image(iters)).tobytes() == iters.tobytes()

    @settings(deadline=None, max_examples=15)
    @given(resolution=st.integers(2, 96), eps=st.floats(0.02, 1 / 9, exclude_max=True),
           tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), max_iter=st.sampled_from([None, 37]))
    def test_quarter_equals_the_full_centred_lattice(self, resolution, eps, tol, max_iter):
        # The fold is exact: the classifier run on every centred cell centre
        # gives the same bytes, also at tight tol and larger resolutions
        # than the spelled-out reference can afford.
        p = params(eps)
        grid = rasterize(resolution, p, tol=tol, max_iter=max_iter)
        c = (np.arange(resolution) + (0.5 - resolution / 2)) * (TWO_PI / resolution)
        gu, gv = np.meshgrid(c, c)
        labels, iters = basin._classify(gu.ravel(), gv.ravel(), p, tol, grid.max_iter)
        assert grid.labels.tobytes() == labels.tobytes()
        assert grid.iterations.tobytes() == iters.tobytes()

    @pytest.mark.parametrize(
        "resolution, eps, tol, max_iter",
        [(33, 0.05, 1e-6, None), (48, 0.08, 1e-6, None), (20, 0.05, 1e-3, 50),
         (24, 0.05, LARGEST_TOL, None)],
        ids=["odd", "even", "unresolved", "wide-tol"],
    )
    def test_mirror_equals_full_lattice(self, resolution, eps, tol, max_iter):
        p = params(eps)
        grid = rasterize(resolution, p, tol=tol, max_iter=max_iter)
        labels, iters = full_lattice_reference(resolution, p, tol, grid.max_iter)
        assert np.array_equal(grid.labels, labels)
        assert np.array_equal(grid.iterations, iters)
        if max_iter is not None:
            assert grid.label_counts()["unresolved"] > 0

    def test_deterministic_and_worker_invariant(self):
        p = params()
        base = rasterize(24, p)
        again = rasterize(24, p)
        threaded = rasterize(24, p, workers=3)
        assert np.array_equal(base.labels, again.labels)
        assert np.array_equal(base.iterations, again.iterations)
        assert np.array_equal(base.labels, threaded.labels)
        assert np.array_equal(base.iterations, threaded.iterations)

    def test_interior_cells_resolve_within_default_budget(self):
        grid = rasterize(50, params())
        assert grid.label_counts()["unresolved"] == 0

    def test_default_max_iter(self):
        assert default_max_iterations(params(0.05)) == math.ceil(60 / 0.05)
        assert rasterize(4, params(0.05)).max_iter == math.ceil(60 / 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            rasterize(1, params())
        with pytest.raises(ValueError):
            rasterize(10, params(), workers=0)
        with pytest.raises(ValueError):
            rasterize(10, CouplingParams(epsilon=0.5))


# Quarter lattices of 1260 cells (below the per-process minimum, so no split
# at 2 or 3 processes) and 5041 (above three times it; neither 2 nor 3
# divides it).
BELOW, ABOVE = 70, 141


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the raster forks only where os.fork exists")
class TestForkedRaster:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of os.fork calls the parent makes."""
        made = []
        real_fork = os.fork

        def fork():
            made.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return made

    @pytest.mark.parametrize("resolution", [BELOW, ABOVE], ids=["70", "141"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_equals_serial_byte_for_byte(self, forks, resolution, workers):
        p = params(0.045)
        serial = rasterize(resolution, p)
        assert forks == []
        split = rasterize(resolution, p, workers=workers)
        assert len(forks) == (workers - 1 if resolution == ABOVE else 0)
        assert split.labels.tobytes() == serial.labels.tobytes()
        assert split.iterations.tobytes() == serial.iterations.tobytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault", ["raises", "short", "long", "killed", "caller"])
    def test_failed_worker_raises_and_leaves_no_child(self, monkeypatch, capfd, fault):
        parent = os.getpid()
        classify = basin._classify

        def faulty(x, y, *args):
            if fault == "caller" and os.getpid() == parent:
                raise ArithmeticError("caller fault")
            labels, iters = classify(x, y, *args)
            if os.getpid() == parent:
                return labels, iters
            if fault == "raises":
                raise ArithmeticError("worker fault")
            if fault == "short":
                return labels[:-1], iters[:-1]
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return np.append(labels, labels[:1]), np.append(iters, iters[:1])

        monkeypatch.setattr(basin, "_classify", faulty)
        error, message = RuntimeError, "raster worker"
        if fault == "killed":
            message = "raster worker [0-9]+ exited with status -9"
        if fault == "caller":
            error, message = ArithmeticError, "caller fault"
        with pytest.raises(error, match=message):
            rasterize(ABOVE, params(), workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if fault == "raises":
            assert "ArithmeticError: worker fault" in capfd.readouterr().err

    def test_cli_writes_the_grid_once(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "triclock.cli", "basins", "--eps", "0.05",
             "--resolution", str(ABOVE), "--format", "csv"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        expected = io.StringIO()
        write_grid_csv(rasterize(ABOVE, params()), expected)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected.getvalue()


class TestOrbit:
    def test_zero_length(self):
        line = orbit((1.0, 2.0), params(), 0)
        assert line.shape == (1, 2)
        assert np.array_equal(line[0], [1.0, 2.0])

    def test_fixed_point_orbit_constant(self):
        line = orbit(ATTRACTOR_LOWER, params(), 10)
        assert np.max(np.abs(line - ATTRACTOR_LOWER)) < 1e-12

    def test_lyapunov_decreases_along_orbit(self):
        line = orbit((PI / 2, 3 * PI / 2), params(), 200)
        values = [float(lyapunov_value(p, "upper")) for p in line]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_no_triangle_crossing(self):
        p = params()
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(0.05, TWO_PI - 0.05)
            y = rng.uniform(x + 0.01, TWO_PI - 0.01)
            line = orbit((x, y), p, 300)
            assert np.all(line[:, 1] > line[:, 0])

    @pytest.mark.parametrize(
        "start", [(PI / 2, 3 * PI / 2), (0.0, 1.0), (2.5, 2.5), (TWO_PI, 4.0), (1e-15, 3.0)]
    )
    @pytest.mark.parametrize("eps", [0.013, 0.1])
    def test_iterates_of_the_array_step(self, start, eps):
        # step and the portrait's sample orbits must walk the raster's orbits.
        p = params(eps)
        expected = [np.asarray(start, dtype=float)]
        for _ in range(200):
            expected.append(three_clock_step(expected[-1], p))
        assert orbit(start, p, 200).tobytes() == np.array(expected).tobytes()

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            orbit((1.0, 2.0), params(), -1)
        with pytest.raises(ValueError, match="n must be an integer"):
            orbit((1.0, 2.0), params(), 2.5)

    @pytest.mark.parametrize("start", [(7.0, -1.0), (1.0, TWO_PI + 1e-9), (math.nan, 1.0)])
    def test_start_outside_square_rejected(self, start):
        with pytest.raises(ValueError, match="outside the square"):
            orbit(start, params(), 3)

    @pytest.mark.parametrize("eps", [5.0, 0.0, 1 / 9])
    def test_coupling_outside_the_analysis_range_rejected(self, eps):
        with pytest.raises(ValueError, match="outside the analysis range"):
            orbit((1.0, 2.0), CouplingParams(epsilon=eps), 3)


class TestGridSerialization:
    def test_csv_layout(self):
        grid = rasterize(5, params())
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        blocks = buf.getvalue().split("\n\n")
        assert len(blocks) == 2
        label_rows = blocks[0].splitlines()
        iter_rows = blocks[1].strip().splitlines()
        assert len(label_rows) == 5 and len(iter_rows) == 5
        assert all(len(row.split(",")) == 5 for row in label_rows)
        assert label_rows[0].split(",")[0] in LABEL_NAMES

    def test_binary_round_trip(self):
        grid = rasterize(7, params(), tol=1e-7)
        buf = io.BytesIO()
        write_grid_binary(grid, buf)
        buf.seek(0)
        back = read_grid_binary(buf)
        assert back.resolution == 7
        assert back.tol == 1e-7
        assert back.params.epsilon == grid.params.epsilon
        assert np.array_equal(back.labels, grid.labels)
        assert np.array_equal(back.iterations, grid.iterations)

    def test_binary_header_layout(self):
        grid = rasterize(4, params(), tol=1e-6)
        buf = io.BytesIO()
        write_grid_binary(grid, buf)
        raw = buf.getvalue()
        assert len(raw) == 24 + 16 + 64
        assert int.from_bytes(raw[:8], "little") == 4

    @settings(deadline=None, max_examples=50)
    @given(
        resolution=st.integers(2, 9),
        eps=st.floats(1e-8, 1 / 9, exclude_min=True, exclude_max=True),
        tol=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_binary_round_trip_of_any_grid(self, resolution, eps, tol, seed):
        rng = np.random.default_rng(seed)
        shape = (resolution, resolution)
        grid = BasinGrid(
            resolution=resolution,
            labels=rng.integers(0, 4, size=shape, dtype=np.uint8),
            iterations=rng.integers(0, 2**31 - 1, size=shape, dtype=np.int32),
            params=CouplingParams(epsilon=eps),
            tol=tol,
            max_iter=None,
        )
        buf = io.BytesIO()
        write_grid_binary(grid, buf)
        back = read_grid_binary(io.BytesIO(buf.getvalue()))
        assert (back.resolution, back.params.epsilon, back.tol) == (resolution, eps, tol)
        assert np.array_equal(back.labels, grid.labels)
        assert np.array_equal(back.iterations, grid.iterations)

    # The resolution-4 file: the header (resolution, epsilon, tol) fills
    # bytes 0-24, the 16 labels 24-40 and the 16 counts 40-104.
    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda raw: raw[:20], "header needs 24 bytes, got 20"),
            (lambda raw: raw[:-1], "needs 80 bytes after the header, got 79"),
            (lambda raw: raw + b"\0", "needs 80 bytes after the header, got 81"),
            (lambda raw: bytes(8) + raw[8:], "grid header resolution must be at least 2, got 0"),
            (lambda raw: struct.pack("<q", 1) + raw[8:25] + raw[40:44],
             "grid header resolution must be at least 2, got 1"),
            (lambda raw: raw[:24] + b"\x09" + raw[25:], r"label code 9; codes run 0\.\.3"),
            (lambda raw: raw[:40] + struct.pack("<i", -5) + raw[44:], "iteration count -5"),
            (lambda raw: raw[:16] + struct.pack("<d", math.nan) + raw[24:], "got nan"),
            (lambda raw: raw[:16] + struct.pack("<d", math.inf) + raw[24:], "got inf"),
            (lambda raw: raw[:16] + struct.pack("<d", -1.0) + raw[24:], "got -1.0"),
            (lambda raw: raw[:16] + struct.pack("<d", 1.0) + raw[24:], "< 1, got 1.0"),
            (lambda raw: raw[:8] + struct.pack("<d", 5.0) + raw[16:],
             "epsilon=5.0 outside the analysis range"),
            (lambda raw: raw[:8] + struct.pack("<d", 0.0) + raw[16:],
             "epsilon=0.0 outside the analysis range"),
        ],
        ids=["short-header", "short-body", "trailing-bytes", "zero-resolution", "res-1", "label-9",
             "negative-count", "nan-tol", "inf-tol", "negative-tol", "tol-1", "eps-5", "eps-0"],
    )
    def test_binary_length_checked(self, cut, message):
        buf = io.BytesIO()
        write_grid_binary(rasterize(4, params()), buf)
        with pytest.raises(ValueError, match=message):
            read_grid_binary(io.BytesIO(cut(buf.getvalue())))

    def test_label_counts(self):
        grid = rasterize(6, params())
        counts = grid.label_counts()
        assert sum(counts.values()) == 36
        assert counts["boundary"] == 6

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triclock.analysis import classify, heteroclinic_census, invariant_segments, known_fixed_points
from triclock.basin import LABEL_NAMES, BasinGrid, orbit, rasterize
from triclock import render
from triclock.cli import main
from triclock.core import CouplingParams
from triclock.render import render_portrait


@pytest.fixture(scope="module")
def portrait_data():
    p = CouplingParams(epsilon=0.05)
    return {
        "grid": rasterize(24, p),
        "segments": invariant_segments(),
        "heteroclinics": heteroclinic_census(p).orbits,
        "fixed_points": [classify(fp, p) for fp in known_fixed_points()],
        "orbits": [orbit((0.9, 2.1), p, 200)],
    }


# The stroke color of each polyline layer, and the frame's.
COLORS = {"segments": "#2457a8", "heteroclinics": "#c81e1e", "orbits": "#3c3c3c"}
FRAME = 'stroke="#000000"'


class TestPortraitSpec:
    # A portrait is specified by layer names from render.LAYERS; the names
    # are checked where they arrive, on the command line, before any drawing.
    def test_rejects_unknown_layer(self, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("rendered before the layer names were checked")

        monkeypatch.setattr(render, "render_portrait", refuse)
        code = main(["portrait", "--eps", "0.05", "--layers", "fixed_points,flow_arrows"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("triclock: error: --layers: unknown layers: ['flow_arrows']; "
                                f"choose from {render.LAYERS}\n")


class TestRenderPortrait:
    def test_deterministic_bytes(self, portrait_data):
        one = render_portrait(**portrait_data)
        two = render_portrait(**portrait_data)
        assert one == two

    def test_document_structure(self, portrait_data):
        svg = render_portrait(**portrait_data)
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 11
        assert "<rect" in svg
        # heteroclinics drawn in the default red
        assert "#c81e1e" in svg
        # both basin colors present
        assert "#dbe9f6" in svg and "#fbe8d3" in svg

    def test_minimal_layer_set(self, portrait_data):
        svg = render_portrait(fixed_points=portrait_data["fixed_points"])
        assert svg.count("<circle") == 11
        assert "<rect" not in svg

    def test_draws_only_given_layers(self, portrait_data):
        # No data draws the frame alone; each given layer adds its own marks.
        bare = render_portrait().splitlines()
        assert len(bare) == 4 and FRAME in bare[2]
        for key, color in COLORS.items():
            svg = render_portrait(**{key: portrait_data[key]})
            assert color in svg and "<rect" not in svg and "<circle" not in svg
            assert all(other not in svg for other in COLORS.values() if other != color)

    def test_draw_order(self, portrait_data):
        # background, frame, segments, heteroclinics, sample orbits, fixed points
        svg = render_portrait(**portrait_data)
        marks = ["<rect", FRAME, COLORS["segments"], COLORS["heteroclinics"],
                 COLORS["orbits"], "<circle"]
        firsts = [svg.index(mark) for mark in marks]
        lasts = [svg.rindex(mark) for mark in marks]
        assert all(last < first for last, first in zip(lasts, firsts[1:]))

    def test_empty_data_draws_no_marks(self):
        # Given but empty data is a drawn layer with nothing in it.
        assert render_portrait(segments=(), heteroclinics=(), orbits=[], fixed_points=[]) == (
            render_portrait()
        )


@st.composite
def label_grids(draw):
    """Grids of resolution 1-12 over all four label codes, whose rows are one
    run, alternate every cell, or are drawn cell by cell."""
    res = draw(st.integers(1, 12))
    code = st.integers(0, len(LABEL_NAMES) - 1)
    rows = []
    for _ in range(res):
        kind = draw(st.sampled_from(("one run", "alternating", "free")))
        if kind == "one run":
            rows.append([draw(code)] * res)
        elif kind == "alternating":
            a, b = draw(code), draw(code)
            rows.append([(a, b)[col % 2] for col in range(res)])
        else:
            rows.append(draw(st.lists(code, min_size=res, max_size=res)))
    return BasinGrid(
        resolution=res,
        labels=np.array(rows, dtype=np.uint8),
        iterations=np.zeros((res, res), dtype=np.int32),
        params=CouplingParams(epsilon=0.05),
        tol=1e-6,
        max_iter=None,
    )


RECT = re.compile(
    r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)" height="([0-9.]+)" '
    r'fill="(#[0-9a-f]{6})" stroke="none"/>'
)


class TestBasinBackground:
    @settings(deadline=None, max_examples=200)
    @given(grid=label_grids())
    def test_rect_runs_decode_to_labels(self, grid):
        # Each row is drawn bottom-up as maximal runs of equal labels, left to right.
        cell = (render._SIZE - 2 * render._MARGIN) / grid.resolution
        decoded = [[] for _ in range(grid.resolution)]
        last_row = -1
        for line in render_portrait(grid=grid).splitlines():
            match = RECT.fullmatch(line)
            if match is None:
                continue
            x, y, width, height = (float(v) for v in match.groups()[:4])
            row = round((render._SIZE - render._MARGIN - y) / cell) - 1
            n = round(width / cell)
            code = render._BACKGROUND.index(match.group(5))
            assert height == pytest.approx(cell, abs=1e-3)
            assert width == pytest.approx(n * cell, abs=1e-3)
            assert row >= last_row
            last_row = row
            assert x == pytest.approx(render._MARGIN + len(decoded[row]) * cell, abs=1e-3)
            assert not decoded[row] or decoded[row][-1] != code  # runs are maximal
            decoded[row].extend([code] * n)
        assert decoded == grid.labels.tolist()

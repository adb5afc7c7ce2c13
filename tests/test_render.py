import pytest

from triclock.analysis import classify, heteroclinic_census, invariant_segments, known_fixed_points
from triclock.basin import orbit, rasterize
from triclock.core import CouplingParams
from triclock.render import LAYERS, PortraitSpec, render_portrait


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


class TestPortraitSpec:
    def test_needs_a_layer(self):
        with pytest.raises(ValueError):
            PortraitSpec(layers=())

    def test_rejects_unknown_layer(self):
        with pytest.raises(ValueError):
            PortraitSpec(layers=("flow_arrows",))


class TestRenderPortrait:
    def test_deterministic_bytes(self, portrait_data):
        spec = PortraitSpec(layers=LAYERS)
        one = render_portrait(spec, **portrait_data)
        two = render_portrait(spec, **portrait_data)
        assert one == two

    def test_refuses_layer_without_data(self, portrait_data):
        spec = PortraitSpec(layers=("basin_background",))
        with pytest.raises(ValueError):
            render_portrait(spec)

    def test_document_structure(self, portrait_data):
        spec = PortraitSpec(layers=LAYERS)
        svg = render_portrait(spec, **portrait_data)
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 11
        assert "<rect" in svg
        # heteroclinics drawn in the default red
        assert "#c81e1e" in svg
        # both basin colors present
        assert "#dbe9f6" in svg and "#fbe8d3" in svg

    def test_minimal_layer_set(self, portrait_data):
        spec = PortraitSpec(layers=("fixed_points",))
        svg = render_portrait(spec, fixed_points=portrait_data["fixed_points"])
        assert svg.count("<circle") == 11
        assert "<rect" not in svg

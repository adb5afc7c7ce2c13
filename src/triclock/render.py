"""Deterministic SVG phase portraits.

The renderer only draws data handed to it by the analysis and basin
layers; it computes no dynamics of its own.  A layer is drawn exactly when
its data is given, so the data is the request and :func:`render_portrait`
takes no layer names; ``LAYERS`` names the layers for callers that take
names from outside, such as the command line.  Output is a plain SVG 1.1
byte stream with fixed-precision coordinates, no timestamps and no
generated ids, so identical inputs give identical bytes.  The vertical
axis points up, matching the mathematical convention.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .core import TWO_PI
from .analysis import FixedPointRecord, HeteroclinicOrbit, InvariantSegment
from .basin import BasinGrid

__all__ = ["LAYERS", "render_portrait"]

LAYERS = (
    "basin_background",
    "invariant_segments",
    "heteroclinics",
    "fixed_points",
    "sample_orbits",
)

# The picture is _SIZE pixels square with the square S inset by _MARGIN.
_SIZE = 720
_MARGIN = 40
_SCALE = (_SIZE - 2 * _MARGIN) / TWO_PI

# Cell fill by label code, in basin.LABEL_NAMES order: upper, lower,
# boundary, unresolved.
_BACKGROUND = ("#dbe9f6", "#fbe8d3", "#b9b9b9", "#ffffff")
# Marker fill by fixed-point class.
_MARKER_FILL = {"attractor": "#111111", "repeller": "#ffffff", "saddle": "#808080"}


def _x(value: float) -> float:
    return _MARGIN + value * _SCALE


def _y(value: float) -> float:
    # y grows upward
    return _SIZE - (_MARGIN + value * _SCALE)


def _polyline(pts: np.ndarray, color: str, width: str) -> str:
    coords = " ".join(f"{_x(px):.3f},{_y(py):.3f}" for px, py in pts.tolist())
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"/>'
    )


def _background_rects(grid: BasinGrid) -> list[str]:
    # One rect per run of equal labels along each row keeps the file small.
    out: list[str] = []
    h = TWO_PI / grid.resolution
    cell_px = h * _SCALE
    for row, labels in enumerate(grid.labels.tolist()):
        y0 = _y((row + 1) * h)
        col = 0
        for code, run in groupby(labels):
            n = len(list(run))
            out.append(
                f'<rect x="{_x(col * h):.3f}" y="{y0:.3f}" width="{n * cell_px:.3f}" '
                f'height="{cell_px:.3f}" fill="{_BACKGROUND[code]}" stroke="none"/>'
            )
            col += n
    return out


def _marker(record: FixedPointRecord) -> str:
    fill = _MARKER_FILL[record.kind]
    cx = _x(float(record.location[0]))
    cy = _y(float(record.location[1]))
    return (
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="5.0" fill="{fill}" '
        'stroke="#111111" stroke-width="1.2"/>'
    )


def render_portrait(
    *,
    grid: BasinGrid | None = None,
    segments: Sequence[InvariantSegment] | None = None,
    heteroclinics: Iterable[HeteroclinicOrbit] | None = None,
    fixed_points: Sequence[FixedPointRecord] | None = None,
    orbits: Sequence[np.ndarray] | None = None,
) -> str:
    """Assemble the SVG document from precomputed layer data.

    Each layer whose data is given is drawn, in this order: the basin
    background (``grid``), the frame of the square, the invariant
    ``segments``, the ``heteroclinics``, the sample ``orbits`` and the
    ``fixed_points``.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    if grid is not None:
        parts.extend(_background_rects(grid))
    # frame of the square
    frame = np.array([(0.0, 0.0), (TWO_PI, 0.0), (TWO_PI, TWO_PI), (0.0, TWO_PI), (0.0, 0.0)])
    parts.append(_polyline(frame, "#000000", "1.0"))
    if segments is not None:
        # straight repeller-to-attractor segments in blue
        for seg in segments:
            parts.append(_polyline(seg.point(np.asarray(seg.domain)), "#2457a8", "1.2"))
    if heteroclinics is not None:
        # heteroclinic connections in red
        for orb in heteroclinics:
            parts.append(_polyline(orb.samples, "#c81e1e", "1.6"))
    if orbits is not None:
        for line in orbits:
            parts.append(_polyline(line, "#3c3c3c", "0.8"))
    if fixed_points is not None:
        for record in fixed_points:
            parts.append(_marker(record))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""SVG rendering for dissections and lattice regions.

The drawings are display artifacts: every coordinate is a decimal rendering,
to twelve significant digits, of an exact value, and nothing here is ever
parsed back.  In a dissection drawing each piece becomes one ``<polygon>``
element and the region outline is a ``<path>``, so the number of polygon
elements always equals the piece count.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from .boundary import Cell, boundary_loops
from .dissect import Dissection

__all__ = ["dissection_svg", "lattice_region_svg"]

_WIDTH_PX = 640

_PALETTE = [
    "#8dd3c7",
    "#ffffb3",
    "#bebada",
    "#fb8072",
    "#80b1d3",
    "#fdb462",
    "#b3de69",
    "#fccde5",
    "#d9d9d9",
    "#bc80bd",
]


def _decimal(value) -> str:
    """Twelve-significant-digit decimal rendering of an exact value: its
    ``float`` is within one ulp, so the digits hold however small it is."""
    out = f"{float(value):.12g}"
    return "0" if out == "-0" else out


def _point_list(points: Sequence[Tuple[object, object]]) -> str:
    return " ".join(f"{_decimal(x)},{_decimal(y)}" for x, y in points)


def _path_of(points: Sequence[Tuple[object, object]]) -> str:
    head = points[0]
    parts = [f"M {_decimal(head[0])} {_decimal(head[1])}"]
    parts.extend(f"L {_decimal(x)} {_decimal(y)}" for x, y in points[1:])
    parts.append("Z")
    return " ".join(parts)


def _document(body: List[str], xs: List[float], ys: List[float]) -> str:
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    pad = 0.04 * max(span_x, span_y)
    view = (min_x - pad, min_y - pad, span_x + 2 * pad, span_y + 2 * pad)
    height_px = max(1, round(_WIDTH_PX * view[3] / view[2]))
    # The group transform flips the y axis in place, so the coordinates of
    # every element are the untouched exact values.
    flip = _decimal(min_y + max_y)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH_PX}" '
        f'height="{height_px}" viewBox="{_decimal(view[0])} {_decimal(view[1])} '
        f'{_decimal(view[2])} {_decimal(view[3])}">',
        f'<g transform="matrix(1 0 0 -1 0 {flip})">',
        *body,
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def dissection_svg(dissection: Dissection) -> str:
    """Render a dissection: one polygon per piece plus the region outline."""
    body: List[str] = []
    xs: List[float] = []
    ys: List[float] = []
    stroke_width = 0.004

    for idx, piece in enumerate(dissection.pieces):
        pts = [(v.x, v.y) for v in piece.vertices]
        fill = _PALETTE[idx % len(_PALETTE)]
        body.append(
            f'<polygon points="{_point_list(pts)}" fill="{fill}" '
            f'stroke="#444444" stroke-width="{_decimal(stroke_width)}" '
            'stroke-linejoin="round"/>'
        )
    region_pts = [(v.x, v.y) for v in dissection.region.vertices]
    body.append(
        f'<path d="{_path_of(region_pts)}" fill="none" stroke="#000000" '
        f'stroke-width="{_decimal(2 * stroke_width)}" stroke-linejoin="round"/>'
    )
    for v in dissection.region.vertices:
        xs.append(float(v.x))
        ys.append(float(v.y))
    for piece in dissection.pieces:
        for v in piece.vertices:
            xs.append(float(v.x))
            ys.append(float(v.y))
    return _document(body, xs, ys)


_SQRT3_HALF = math.sqrt(3) / 2


def _lattice_xy(vertex: Tuple[int, int]) -> Tuple[float, float]:
    i, j = vertex
    return i + j / 2, j * _SQRT3_HALF


def lattice_region_svg(cells: Iterable[Cell]) -> str:
    """Render a lattice region: cells as light paths, boundary loops heavy."""
    cells = list(cells)
    body: List[str] = []
    xs: List[float] = []
    ys: List[float] = []
    for cell in cells:
        pts = [_lattice_xy(v) for v in cell.vertices()]
        body.append(
            f'<path d="{_path_of(pts)}" fill="#dce9f5" stroke="#9fb8d0" '
            f'stroke-width="{_decimal(0.02)}" stroke-linejoin="round"/>'
        )
        for x, y in pts:
            xs.append(x)
            ys.append(y)
    for loop in boundary_loops(cells):
        pts = [_lattice_xy(v) for v in loop.vertices]
        body.append(
            f'<path d="{_path_of(pts)}" fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_decimal(0.05)}" stroke-linejoin="round"/>'
        )
    return _document(body, xs, ys)

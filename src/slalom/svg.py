"""Write-only SVG rendering of curves in the cover plane and punctured plane."""

from __future__ import annotations

import math
from typing import Sequence

from slalom.covering import ElementaryPiece, HalfPlane, PolyPath

_PAD = 1.0  # margin around the drawing, in math units


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _xy(z: complex, x: str = "x", y: str = "y") -> str:
    return f'{x}="{_fmt(z.real)}" {y}="{_fmt(-z.imag)}"'


def _dot(z: complex, color: str, scale: float) -> str:
    return f'<circle {_xy(z, "cx", "cy")} r="{3.0 / scale:.4f}" fill="{color}"/>'


def _polyline(points: Sequence[complex], color: str, scale: float) -> str:
    pts = " ".join(f"{_fmt(z.real)},{_fmt(-z.imag)}" for z in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{1.5 / scale:.4f}"/>'


def render_lift_scene(lifted: PolyPath, pieces: Sequence[ElementaryPiece], curve: PolyPath, scale: float) -> str:
    """Lifted slalom curve with the imaginary axis, lattice dots and piece labels, and ``curve`` in a second color.

    Shapes are in math coordinates, y pointing up, 1 unit = ``scale`` px; the view box holds them and 0.
    """
    ims = [z.imag for z in lifted.points]
    lo, hi = math.floor(min(ims)) - 1, math.ceil(max(ims)) + 1
    axis = (complex(0, lo), complex(0, hi))
    lattice = [complex(0, k) for k in range(lo, hi + 1)]
    labels = []
    for idx, piece in enumerate(pieces):
        mid = (piece.start_component + piece.end_component + 1) / 2
        x = -0.6 if piece.half_plane is HalfPlane.LEFT else 0.3
        tag = f"{idx}: {piece.start_component}->{piece.end_component}"
        if piece.trivial:
            tag += " (trivial)"
        labels.append((complex(x, mid), tag))
    elements = [
        f'<line {_xy(axis[0], "x1", "y1")} {_xy(axis[1], "x2", "y2")} stroke="#999999" '
        f'stroke-width="{1.0 / scale:.4f}"/>',
        *(_dot(z, "#c0392b", scale) for z in lattice),
        _polyline(lifted.points, "#1f4e9c", scale),
        _polyline(curve.points, "#2e8b57", scale),
        _dot(-1 + 0j, "#555555", scale),
        _dot(1 + 0j, "#555555", scale),
        *(f'<text {_xy(z)} fill="#333333" font-size="{12 / scale:.4f}">{tag}</text>' for z, tag in labels),
    ]
    shown = [0j, *axis, *lattice, *lifted.points, *curve.points, -1 + 0j, 1 + 0j, *(z for z, _ in labels)]
    x0, x1 = min(z.real for z in shown) - _PAD, max(z.real for z in shown) + _PAD
    y0, y1 = min(z.imag for z in shown) - _PAD, max(z.imag for z in shown) + _PAD
    w, h = (x1 - x0) * scale, (y1 - y0) * scale
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">\n'
        f"{body}\n</svg>\n"
    )

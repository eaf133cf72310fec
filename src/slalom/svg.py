"""Write-only SVG rendering of curves in the cover plane and punctured plane."""

from __future__ import annotations

import math
from typing import Sequence

from slalom.covering import ElementaryPiece, PolyPath

_PAD = 1.0  # margin around the drawing, in math units


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class SvgScene:
    """Accumulates shapes in math coordinates; y points up, 1 unit = scale px."""

    def __init__(self, scale: float):
        self.scale = scale
        self.elements: list[str] = []
        self._xs: list[float] = [0.0]
        self._ys: list[float] = [0.0]

    def _track(self, xs, ys):
        self._xs.extend(xs)
        self._ys.extend(ys)

    def polyline(self, points: Sequence[complex], color: str = "#1f4e9c", width: float = 1.5):
        self._track([z.real for z in points], [z.imag for z in points])
        pts = " ".join(f"{_fmt(z.real)},{_fmt(-z.imag)}" for z in points)
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width / self.scale:.4f}"/>'
        )

    def line(self, a: complex, b: complex, color: str = "#999999", width: float = 1.0):
        self._track([a.real, b.real], [a.imag, b.imag])
        self.elements.append(
            f'<line x1="{_fmt(a.real)}" y1="{_fmt(-a.imag)}" x2="{_fmt(b.real)}" '
            f'y2="{_fmt(-b.imag)}" stroke="{color}" stroke-width="{width / self.scale:.4f}"/>'
        )

    def dot(self, z: complex, color: str = "#c0392b", radius: float = 3.0):
        self._track([z.real], [z.imag])
        self.elements.append(
            f'<circle cx="{_fmt(z.real)}" cy="{_fmt(-z.imag)}" '
            f'r="{radius / self.scale:.4f}" fill="{color}"/>'
        )

    def label(self, z: complex, text: str, color: str = "#333333"):
        self._track([z.real], [z.imag])
        self.elements.append(
            f'<text x="{_fmt(z.real)}" y="{_fmt(-z.imag)}" fill="{color}" '
            f'font-size="{12 / self.scale:.4f}">{text}</text>'
        )

    def render(self) -> str:
        x0, x1 = min(self._xs) - _PAD, max(self._xs) + _PAD
        y0, y1 = min(self._ys) - _PAD, max(self._ys) + _PAD
        w, h = (x1 - x0) * self.scale, (y1 - y0) * self.scale
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">\n'
            f"{body}\n</svg>\n"
        )


def render_lift_scene(lifted: PolyPath, pieces: Sequence[ElementaryPiece], curve: PolyPath, scale: float) -> str:
    """Lifted slalom curve with the imaginary axis, lattice dots and piece labels, and ``curve`` in a second color."""
    scene = SvgScene(scale)
    ims = [z.imag for z in lifted.points]
    lo, hi = math.floor(min(ims)) - 1, math.ceil(max(ims)) + 1
    scene.line(complex(0, lo), complex(0, hi))
    for k in range(lo, hi + 1):
        scene.dot(complex(0, k))
    scene.polyline(lifted.points)
    scene.polyline(curve.points, color="#2e8b57")
    scene.dot(-1 + 0j, color="#555555")
    scene.dot(1 + 0j, color="#555555")
    for idx, piece in enumerate(pieces):
        mid = (piece.start_component + piece.end_component + 1) / 2
        x = -0.6 if piece.half_plane.value == "left" else 0.3
        tag = f"{idx}: {piece.start_component}->{piece.end_component}"
        if piece.trivial:
            tag += " (trivial)"
        scene.label(complex(x, mid), tag)
    return scene.render()

"""The logarithmic covering of the twice-punctured plane and path lifting.

The covering map is f1 o f2 with f2(z) = (e^{pi z} - 1)/(e^{pi z} + 1) and
f1(w) = (w + 1/w)/2, a covering from C \\ iZ onto C \\ {-1, 1}.  Loops based
at 0 lift from -i/2; the lift's excursions into the half-planes are its
slalom pieces (a left piece moving up n components carries a1^n, a right
piece moving down n carries a2^n).  The word of a loop is read without
lifting, from its crossings of the rays (-inf, -1] and [1, inf).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

from slalom.words import FreeWord, Generator, reduce as reduce_word

PUNCTURES = (-1.0, 1.0)
BASE_LIFT_POINT = complex(0.0, -0.5)

_PUNCTURE_TOL = 1e-9
_NEWTON_TOL = 1e-9  # lift residual |f(z) - u|; the lift_tolerance key can only tighten it
_AXIS_TOL = 10 * _NEWTON_TOL  # lifts of 0 lie within _NEWTON_TOL / |f'| <= _NEWTON_TOL / pi of iR
_FIBER_TOL = 1e-8
_CROSSING_TOL = 1e-6
_STEP_SAFETY = 0.25
_MAX_SUBDIVISION = 4096
_NEWTON_MAX_ITER = 50


class LiftError(RuntimeError):
    """Lifting failed: start off fiber, refinement limit, or Newton divergence."""


class Plane(enum.Enum):
    PUNCTURED = "punctured"   # C \ {-1, 1}
    COVER = "cover"           # C \ iZ


class HalfPlane(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def _off_punctures(z: complex) -> bool:
    return all(abs(z - p) > _PUNCTURE_TOL for p in PUNCTURES)


def _off_lattice(z: complex) -> bool:
    return not (abs(z.real) <= _PUNCTURE_TOL and abs(z.imag - round(z.imag)) <= _PUNCTURE_TOL)


@dataclass(frozen=True)
class PolyPath:
    """Discretized curve; a single point represents a constant path."""

    points: tuple[complex, ...]
    plane: Plane

    def __post_init__(self):
        if not self.points:
            raise ValueError("path needs at least one point")
        check = _off_punctures if self.plane is Plane.PUNCTURED else _off_lattice
        for z in self.points:
            if not check(z):
                raise ValueError(f"path point {z} hits the excluded set of {self.plane.value}")
        for a, b in zip(self.points, self.points[1:]):
            if a == b:
                raise ValueError("zero-length segment in path")

    @property
    def is_constant(self) -> bool:
        return len(self.points) == 1

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]


def make_path(points: Sequence[complex], plane: Plane) -> PolyPath:
    """Build a PolyPath, collapsing consecutive duplicate points."""
    pts: list[complex] = []
    for z in points:
        if not pts or z != pts[-1]:
            pts.append(z)
    return PolyPath(tuple(pts), plane)


@dataclass(frozen=True)
class ElementaryPiece:
    half_plane: HalfPlane
    start_component: int
    end_component: int

    @property
    def trivial(self) -> bool:
        return abs(self.start_component - self.end_component) <= 1


@dataclass(frozen=True)
class SlalomDecomposition:
    pieces: tuple[ElementaryPiece, ...]


def cover_map(z: complex) -> complex:
    """f1(f2(z)) for z off iZ."""
    if not _off_lattice(z):
        raise ValueError(f"{z} is within tolerance of iZ")
    w = cmath.tanh(cmath.pi * z / 2)
    return 0.5 * (w + 1 / w)


def cover_derivative(z: complex) -> complex:
    """d/dz of the covering map; equals -pi / sinh^2(pi z), never zero."""
    if not _off_lattice(z):
        raise ValueError(f"{z} is within tolerance of iZ")
    s = cmath.sinh(cmath.pi * z)
    return -cmath.pi / (s * s)


def _dist_to_punctures(z: complex) -> float:
    return min(abs(z - p) for p in PUNCTURES)


def _refine(points: Sequence[complex]) -> list[complex]:
    """Subdivide segments whose image step is large relative to puncture distance."""
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        step = abs(b - a)
        limit = _STEP_SAFETY * min(_dist_to_punctures(a), _dist_to_punctures(b))
        n = max(1, math.ceil(step / limit)) if limit > 0 else _MAX_SUBDIVISION + 1
        if n > _MAX_SUBDIVISION:
            raise LiftError(f"refinement limit exceeded near {a} -> {b}")
        for j in range(1, n + 1):
            out.append(a + (b - a) * j / n)
    return out


def lift_path(path: PolyPath, start: complex, tol: float = 1e-6) -> PolyPath:
    """Lift of ``path`` through the covering with initial point ``start``.

    Predictor step through the derivative plus Newton correction at every
    sample; the input is refined where it approaches a puncture.
    """
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("lift_path expects a path in the punctured plane")
    if abs(cover_map(start) - path.start) > _FIBER_TOL:
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    pts = _refine(path.points)
    z = start
    lift = [z]
    newton_tol = min(tol, _NEWTON_TOL)
    for prev, target in zip(pts, pts[1:]):
        z = z + (target - prev) / cover_derivative(z)
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            err = cover_map(z) - target
            if abs(err) < newton_tol:
                converged = True
                break
            z = z - err / cover_derivative(z)
        if not converged:
            raise LiftError(f"Newton correction failed near image point {target}")
        lift.append(z)
    return make_path(lift, Plane.COVER)


def standard_loop(g: Generator, n: int, samples_per_turn: int = 128) -> PolyPath:
    """Standard representative of a_j^n: unit circle about the puncture, based at 0.

    a1 surrounds -1 counterclockwise inside the closed left half-plane; a2
    surrounds +1 counterclockwise inside the closed right half-plane.
    Negative n traverses the reversed loop |n| times.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if samples_per_turn < 16:
        raise ValueError("samples_per_turn must be >= 16")
    center, phase = (-1.0, 0.0) if g is Generator.A1 else (1.0, math.pi)
    sign = 1 if n > 0 else -1
    pts: list[complex] = []
    for rep in range(abs(n)):
        start = 0 if rep == 0 else 1
        for j in range(start, samples_per_turn + 1):
            t = sign * 2 * math.pi * j / samples_per_turn
            pts.append(center + cmath.exp(1j * (phase + t)))
    # the base-point touches are exact zeros by construction up to rounding
    pts[0] = 0j
    pts[-1] = 0j
    return make_path(pts, Plane.PUNCTURED)


def word_to_curve(w: FreeWord, samples_per_turn: int = 128) -> PolyPath:
    """Concatenation of standard loops for each term; identity gives a constant path."""
    if w.is_identity:
        return PolyPath((0j,), Plane.PUNCTURED)
    pts: list[complex] = []
    for term in w.terms:
        loop = standard_loop(term.gen, term.exponent, samples_per_turn)
        pts.extend(loop.points if not pts else loop.points[1:])
    return make_path(pts, Plane.PUNCTURED)


def _component(im: float) -> int:
    k = math.floor(im)
    if min(im - k, k + 1 - im) < _CROSSING_TOL:
        raise LiftError(f"axis point {im}i is within tolerance of iZ")
    return k


def slalom_decompose(lifted: PolyPath) -> SlalomDecomposition:
    """Elementary pieces of a lift, split at its imaginary-axis crossings.

    One piece per maximal closed-half-plane excursion, labeled with its
    half-plane and endpoint components.  Samples exactly on the axis inherit
    the surrounding sign, so tangential touches do not split an excursion.
    """
    pts = lifted.points
    if len(pts) < 2:
        return SlalomDecomposition(())
    for z in (pts[0], pts[-1]):
        if abs(z.real) > _CROSSING_TOL:
            raise LiftError(f"path endpoint {z} is not on the imaginary axis")
    pieces: list[ElementaryPiece] = []
    cur_sign = 0
    cur_start = _component(pts[0].imag)
    for a, b in zip(pts, pts[1:]):
        # tangential touches of lifted base points must not register as crossings
        sb = 0 if abs(b.real) <= _AXIS_TOL else (1 if b.real > 0 else -1)
        if sb == 0 or sb == cur_sign:
            continue
        if cur_sign == 0:
            cur_sign = sb
            continue
        # sign change: linear interpolation for the crossing ordinate
        t = a.real / (a.real - b.real)
        comp = _component(a.imag + t * (b.imag - a.imag))
        pieces.append(ElementaryPiece(HalfPlane.LEFT if cur_sign < 0 else HalfPlane.RIGHT, cur_start, comp))
        cur_start = comp
        cur_sign = sb
    if cur_sign != 0:
        pieces.append(
            ElementaryPiece(HalfPlane.LEFT if cur_sign < 0 else HalfPlane.RIGHT, cur_start, _component(pts[-1].imag))
        )
    return SlalomDecomposition(tuple(pieces))


def _ray(x: float) -> int:
    """-1 on (-inf, -1), 1 on (1, inf), 0 on (-1, 1); raises within tolerance of a puncture."""
    if abs(abs(x) - 1) < _PUNCTURE_TOL:
        raise ValueError(f"path meets the real axis at {x}, within tolerance of a puncture")
    return (x > 1) - (x < -1)


def curve_to_word(path: PolyPath) -> FreeWord:
    """Word of a loop based at 0: its freely reduced sequence of ray crossings.

    The plane cut along (-inf, -1] and [1, inf) is simply connected (the
    cutting-sequence method).  Crossing the left ray downward reads a1, the
    right ray upward a2, the reverse crossings their inverses.  A sample on
    the real axis locates the crossing through it; touching a ray reads nothing.
    """
    if abs(path.start) > _FIBER_TOL or abs(path.end) > _FIBER_TOL:
        raise ValueError("curve_to_word expects a loop based at 0")
    raw: list[tuple[Generator, int]] = []
    prev = axis_x = None  # the last sample off the real axis; the last on-axis real part after it
    for z in path.points:
        if z.imag == 0:
            # a run of on-axis samples must not pass a puncture between them
            if axis_x is not None and _ray(axis_x) != _ray(z.real):
                raise ValueError(f"path runs along the real axis through a puncture near {z.real}")
            axis_x = z.real
            continue
        if prev is not None and (z.imag > 0) != (prev.imag > 0):
            x = axis_x if axis_x is not None else prev.real + prev.imag / (prev.imag - z.imag) * (z.real - prev.real)
            ray = _ray(x)
            if ray:
                raw.append((Generator.A1 if ray < 0 else Generator.A2, ray if z.imag > 0 else -ray))
        prev, axis_x = z, None
    return reduce_word(raw)

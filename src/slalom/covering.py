"""The logarithmic covering of the twice-punctured plane and path lifting.

The covering map f1 o f2, with f2(z) = (e^{pi z} - 1)/(e^{pi z} + 1) and
f1(w) = (w + 1/w)/2, is coth(pi z) from C \\ iZ onto C \\ {-1, 1}.  A path lifts
to atanh(u)/pi + im, m in 1/2 + Z moving at its crossings of the rays (-inf, -1]
and [1, inf).  Loops based at 0 lift from -i/2; the lift's excursions into the
half-planes are its slalom pieces (a left piece moving up n components carries
a1^n, a right piece moving down n carries a2^n).  The word of a loop is read
without lifting, from the same ray crossings.  Word curves repeat their turns,
so the point checks and atanh run once per distinct sample.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from itertools import compress, count, islice, repeat, tee
from operator import add, attrgetter, eq, ge, mul, sub, truediv
from typing import Collection, Sequence

from slalom.words import FreeWord, Generator, reduce as reduce_word

PUNCTURES = (-1.0, 1.0)
BASE_LIFT_POINT = complex(0.0, -0.5)

_PUNCTURE_TOL = 1e-9
_AXIS_TOL = 1e-8  # lifts of 0 lie on iR up to rounding; samples this close count as on the axis
_FIBER_TOL = 1e-8
_CROSSING_TOL = 1e-6
_STEP_SAFETY = 0.25
_MAX_SUBDIVISION = 4096
MAX_CURVE_POINTS = 10**6  # word_to_curve's budget, checked before any point is built


class LiftError(RuntimeError):
    """Lifting failed: start off fiber, refinement limit, or a lifted point's residual above the tolerance."""


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
        if not (pts := self.points):
            raise ValueError("path needs at least one point")
        # only points within the tolerance of the real axis (of iR on the cover) can be excluded: C-level passes clear
        # the others (over set(pts) if punctured), a scan names the first bad point; isfinite first: round(inf) raises
        check, part = (_off_punctures, "imag") if self.plane is Plane.PUNCTURED else (_off_lattice, "real")
        pool = set(pts) if self.plane is Plane.PUNCTURED else pts
        near = compress(pool, map(_PUNCTURE_TOL.__ge__, map(abs, map(attrgetter(part), pool))))
        if not (all(map(cmath.isfinite, pool)) and all(map(check, near))):
            z = next(z for z in pts if not (cmath.isfinite(z) and check(z)))
            why = f"hits the excluded set of {self.plane.value}" if cmath.isfinite(z) else "is not finite"
            raise ValueError(f"path point {z} {why}")
        if any(map(eq, pts, islice(pts, 1, None))):
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
    """f1(f2(z)) = coth(pi z) for z off iZ, since (t + 1/t)/2 = coth(2x) for t = tanh(x)."""
    if not _off_lattice(z):
        raise ValueError(f"{z} is within tolerance of iZ")
    return 1 / cmath.tanh(cmath.pi * z)


def _refine(points: Sequence[complex], distinct: Collection[complex] = ()) -> Sequence[complex]:
    """Subdivide segments whose image step is large relative to puncture distance; ``points`` if none is."""
    # every step is within its limit when the largest step is within the smallest limit, as small over set(points)
    near = min(min(map(abs, map(sub, distinct or points, repeat(p)))) for p in PUNCTURES)
    if max(map(abs, map(sub, islice(points, 1, None), points)), default=0.0) <= _STEP_SAFETY * near:
        return points
    out = [points[0]]
    da = min(abs(points[0] - p) for p in PUNCTURES)
    for a, b in zip(points, islice(points, 1, None)):
        db = min(abs(b - p) for p in PUNCTURES)
        limit = _STEP_SAFETY * min(da, db)
        n = max(1, math.ceil(abs(b - a) / limit)) if limit > 0 else _MAX_SUBDIVISION + 1
        if n > _MAX_SUBDIVISION:
            raise LiftError(f"refinement limit exceeded near {a} -> {b}")
        for j in range(1, n + 1):
            out.append(a + (b - a) * j / n)
        da = db
    return out if len(out) > len(points) else points


class _AtanhTable(dict):
    def __missing__(self, u: complex) -> complex:  # atanh(u)/pi of a sample the table leaves out
        return cmath.atanh(u) / math.pi


def lift_path(path: PolyPath, start: complex, tol: float = 1e-6) -> PolyPath:
    """Lift of ``path`` through the covering with initial point ``start``.

    Each sample u of the input, refined near the punctures, lifts to atanh(u)/pi + im,
    where m in 1/2 + Z starts at ``start``'s branch and moves by one where the path
    crosses the ray (-inf, -1] or [1, inf): up going down, down going up.  An axis
    sample takes the side of its zero's sign, as atanh does; atanh runs once per distinct
    sample.  Raises ``LiftError`` where the path meets the axis near a puncture or runs
    along it past one, where two samples lift to one point, or where |f(z) - u| > tol.
    """
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("lift_path expects a path in the punctured plane")
    if abs(cover_map(start) - path.start) > _FIBER_TOL:
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    if (us := _refine(path.points, distinct := set(path.points))) is not path.points:
        distinct = set(us)
    m = round((start - cmath.atanh(us[0]) / math.pi).imag - 0.5) + 0.5
    cuts = [(1, m)]  # the first sample and the m of each run of samples on one branch
    cuts += [(i, m := m - side) for i, side, _ in _crossings(us, LiftError)]
    # after the walk, which raises LiftError before atanh meets -1 or 1.  atanh puts a sample on the real axis
    # beyond them on its zero's side, and a set merges 0.0 and -0.0, so the table leaves such samples out
    keys = [u for u in distinct if u.imag or abs(u.real) <= 1]
    atanh_pi = _AtanhTable(zip(keys, map(truediv, map(cmath.atanh, keys), repeat(math.pi)))).__getitem__
    lift = [start]
    for (lo, offset), (hi, _) in zip(cuts, [*cuts[1:], (len(us), 0)]):
        lift += map(add, map(atanh_pi, us[lo:hi]), repeat(complex(0.0, offset)))
    # the residual is cover_map's; the final PolyPath checks the lattice.  ge(tol, nan) is False, so NaN fails
    coth = map(truediv, repeat(1 + 0j), map(cmath.tanh, map(mul, islice(lift, 1, None), repeat(math.pi))))
    if not all(map(ge, repeat(tol), map(abs, map(sub, coth, islice(us, 1, None))))):
        z, u = next((z, u) for z, u in zip(lift[1:], us[1:]) if not abs(1 / cmath.tanh(math.pi * z) - u) <= tol)
        raise LiftError(f"lifted point {z} misses its image point {u} by more than {tol}")
    try:
        return PolyPath(tuple(lift), Plane.COVER)
    except ValueError:  # where two samples lift to one point, a scan on failure names them
        if (i := next((i for i in range(1, len(lift)) if lift[i - 1] == lift[i]), 0)) == 0:
            raise
        raise LiftError(f"samples {us[i - 1]} and {us[i]} lift to the same point {lift[i]}") from None


def word_to_curve(w: FreeWord, samples_per_turn: int = 128) -> PolyPath:
    """Concatenation of the standard loops of the terms, of at most ``MAX_CURVE_POINTS`` points.

    The standard loop of a_j^n is the unit circle about the puncture, based
    at 0 and sampled ``samples_per_turn`` times per turn: a1 surrounds -1
    counterclockwise inside the closed left half-plane, a2 surrounds +1
    counterclockwise inside the closed right half-plane, and a negative n
    traverses the reversed circle |n| times.  The identity gives a constant path.
    """
    if samples_per_turn < 16:
        raise ValueError("samples_per_turn must be >= 16")
    if w.letter_length() * samples_per_turn > MAX_CURVE_POINTS:
        raise ValueError(f"word curve exceeds {MAX_CURVE_POINTS} points; use fewer letters or samples")
    pts = [0j]
    turns: dict[tuple[Generator, int], list[complex]] = {}
    for term in w.terms:
        sign = 1 if term.exponent > 0 else -1
        turn = turns.get((term.gen, sign))
        if turn is None:
            center, phase = (-1.0, 0.0) if term.gen is Generator.A1 else (1.0, math.pi)
            turn = turns[term.gen, sign] = [
                center + cmath.exp(1j * (phase + sign * 2 * math.pi * j / samples_per_turn))
                for j in range(1, samples_per_turn + 1)
            ]
        pts.extend(turn * abs(term.exponent))
        pts[-1] = 0j  # each term ends at the base point up to rounding; make it exact
    return PolyPath(tuple(pts), Plane.PUNCTURED)


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


def _ray(x: float, error: type[Exception] = ValueError) -> int:
    """-1 on (-inf, -1), 1 on (1, inf), 0 on (-1, 1); raises ``error`` within tolerance of a puncture."""
    if abs(abs(x) - 1) < _PUNCTURE_TOL:
        raise error(f"path meets the real axis at {x}, within tolerance of a puncture")
    return (x > 1) - (x < -1)


def _crossings(us: Sequence[complex], error: type[Exception]):
    """(i, side, ray) per ray crossing from sample i - 1 to i: the sign of Im on the side entered (an axis sample's
    zero's), and ``_ray`` of the crossing; raises ``error`` near a puncture or on an axis run through one."""
    # a pair can cross or touch the real axis only where the product of its imaginary parts is <= 0
    ims, later = tee(map(attrgetter("imag"), us))
    next(later)
    for i in compress(count(1), map(ge, repeat(0.0), map(mul, ims, later))):
        a, b = us[i - 1], us[i]
        if a.imag == 0 == b.imag and _ray(a.real, error) != _ray(b.real, error):
            raise error(f"path runs along the real axis through a puncture near {b.real}")
        if (side := math.copysign(1.0, b.imag)) != math.copysign(1.0, a.imag):
            x = b.real if b.imag == 0 else a.real + a.imag / (a.imag - b.imag) * (b.real - a.real)
            if ray := _ray(x, error):
                yield i, side, ray


def curve_to_word(path: PolyPath) -> FreeWord:
    """Word of a loop based at 0: its freely reduced sequence of ray crossings.

    The plane cut along (-inf, -1] and [1, inf) is simply connected (the
    cutting-sequence method).  Crossing the left ray downward reads a1, the
    right ray upward a2, the reverse crossings their inverses.  A sample on
    the real axis is on the side of its zero's sign; touching a ray from the
    other side reads a crossing and its inverse, which reduction removes.
    """
    if abs(path.start) > _FIBER_TOL or abs(path.end) > _FIBER_TOL:
        raise ValueError("curve_to_word expects a loop based at 0")
    return reduce_word([(Generator.A1 if ray < 0 else Generator.A2, int(side) * ray)
                        for _, side, ray in _crossings(path.points, ValueError)])

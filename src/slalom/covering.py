"""The logarithmic covering of the twice-punctured plane and path lifting.

The covering map f1 o f2, with f2(z) = (e^{pi z} - 1)/(e^{pi z} + 1) and f1(w) = (w + 1/w)/2, is coth(pi z) from
C \\ iZ onto C \\ {-1, 1}.  A path lifts to atanh(u)/pi + im, m in 1/2 + Z moving at its crossings of the rays
(-inf, -1] and [1, inf).  Loops based at 0 lift from -i/2; the lift's excursions into the half-planes are its slalom
pieces (a left piece moving up n components carries a1^n, a right piece moving down n carries a2^n).  The word of a
loop is read without lifting, from the same ray crossings.  A lifted point keeps its sample's Re atanh(u)/pi, which has
the sign of Re u or underflows to 0, on iR; a lift changes half-plane where that sign does, and a sample iy on iR lifts
to i(atan(y)/pi + m), so a piece ends in component m - 1/2.

A path is runs of copies of units: a word curve, checked by construction, is copies of at most four turns and 0, and
builds its points only when they are read; any other path is one run, and PolyPath(points, Plane.PUNCTURED), the
tests' oracle, checks a word curve point by point.  The lift and the reader walk the crossings once per plan, a unit
after one sample; the lift's plan holds atanh(u)/pi per point, and b"-0+" strings of the sign classes of
Re atanh(u)/pi and Im u, where bytes.find finds half-plane changes and crossings, and a regex the pieces.  The lifted
points are built once per chunk, a plan lifted on one branch m, which each later copy of the plan on that m reuses; the
residual and the iZ test run once per segment, a unit's samples between crossings, and class of its branch, the
zero-length check once per class of a plan's chunks; only points of samples marked near iR are checked against iZ.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, attrgetter, eq, sub
from typing import Iterable, Sequence

from slalom.words import FreeWord, Generator, _check_tuple, _new, _set, _Value, reduce as reduce_word

PUNCTURES = (-1.0, 1.0)
BASE_LIFT_POINT = complex(0.0, -0.5)

_PUNCTURE_TOL = 1e-9
_FIBER_TOL = 1e-8
MAX_CURVE_POINTS = 10**6  # word_to_curve's budget, checked before any point is built

_FLIPS = (b"-+", b"+-")
_TOUCHING = (b"-0", b"00", b"+0", b"0-", b"0+", *_FLIPS)  # a zero class at either end, or strictly opposite ones
_EXCURSION = re.compile(rb"-+|\++")  # a maximal run of one nonzero class


def _signs(xs: Iterable[float]) -> bytes:
    """The b"-0+" class of each float: - below 0, + above it, else 0 (a zero of either sign, or NaN)."""
    return bytes([45 if x < 0 else 43 if x > 0 else 48 for x in xs])  # the bytes of "-", "+" and "0"


class LiftError(ValueError):
    """Lifting failed: start off fiber, residual above the tolerance, or a lift ending or changing half-plane off iR."""


class Plane(enum.Enum):
    PUNCTURED = "punctured"   # C \ {-1, 1}
    COVER = "cover"           # C \ iZ


class HalfPlane(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def _off_punctures(z: complex) -> bool:
    return abs(z.imag) > _PUNCTURE_TOL or all(abs(z - p) > _PUNCTURE_TOL for p in PUNCTURES)  # first: abs can overflow


def _off_fiber(z: complex) -> bool:  # abs(z) > _FIBER_TOL; a part decides first where abs(z) overflows
    return abs(z.real) > _FIBER_TOL or abs(z.imag) > _FIBER_TOL or abs(z) > _FIBER_TOL


def _off_lattice(z: complex) -> bool:
    return not (abs(z.real) <= _PUNCTURE_TOL and abs(z.imag - round(z.imag)) <= _PUNCTURE_TOL)


class PolyPath(_Value):
    """Discretized curve; a single point represents a constant path.  ``_runs`` holds its points as copies of units."""

    __match_args__ = ("points", "plane")

    def __init__(self, points: tuple[complex, ...], plane: Plane):
        _set(self, points, plane)
        if not isinstance(plane, Plane):
            raise ValueError(f"plane must be a Plane member; got {plane!r}")
        _check_tuple(points, "path points")  # not its elements: a float point is accepted
        if not points:
            raise ValueError("path needs at least one point")
        # only points within the tolerance of the real axis (of iR on the cover) can be excluded: C-level passes clear
        # the others, a scan names the first bad point; isfinite first: round(inf) raises
        check, part = (_off_punctures, "imag") if plane is Plane.PUNCTURED else (_off_lattice, "real")
        near = compress(points, map(_PUNCTURE_TOL.__ge__, map(abs, map(attrgetter(part), points))))
        if not (all(map(cmath.isfinite, points)) and all(map(check, near))):
            z = next(z for z in points if not (cmath.isfinite(z) and check(z)))
            why = f"hits the excluded set of {plane.value}" if cmath.isfinite(z) else "is not finite"
            raise ValueError(f"path point {z} {why}")
        if any(map(eq, points, islice(points, 1, None))):
            raise ValueError("zero-length segment in path")

    @cached_property
    def points(self) -> tuple[complex, ...]:  # only a word curve comes here: any other path sets its points
        return tuple(chain.from_iterable(unit * n for unit, n in self._runs))

    @cached_property
    def _runs(self) -> tuple[tuple[tuple[complex, ...], int], ...]:
        """(unit, count) pairs, each unit repeated count times, that make up the points: one run but on a word curve."""
        return ((self.points, 1),)

    @property
    def start(self) -> complex:
        return self._runs[0][0][0]

    @property
    def end(self) -> complex:
        return self._runs[-1][0][-1]


class ElementaryPiece(_Value):
    __match_args__ = ("half_plane", "start_component", "end_component")

    def __init__(self, half_plane: HalfPlane, start_component: int, end_component: int):
        _set(self, half_plane, start_component, end_component)

    @property
    def trivial(self) -> bool:
        return abs(self.start_component - self.end_component) <= 1


class SlalomDecomposition(_Value):
    __match_args__ = ("pieces",)

    def __init__(self, pieces: tuple[ElementaryPiece, ...]):
        _set(self, pieces)


def cover_map(z: complex) -> complex:
    """f1(f2(z)) = coth(pi z) for z off iZ, since (t + 1/t)/2 = coth(2x) for t = tanh(x); of period i, it is taken at
    z - i round(Im z), exactly, so within 1e-15 max(1, |coth(pi z)|) of the exact value however large |Im z| is."""
    if not cmath.isfinite(z):
        raise ValueError(f"{z} is not finite")
    if not _off_lattice(z):
        raise ValueError(f"{z} is within tolerance of iZ")
    return 1 / cmath.tanh(cmath.pi * complex(z.real, z.imag - round(z.imag)))


def _pairs(signs: bytes, pairs: tuple[bytes, ...]) -> list[int]:
    """Each i where the b"-0+" classes signs[i - 1:i + 1] are one of ``pairs``, in order."""
    found = []
    for pair in pairs:
        i = -1
        while (i := signs.find(pair, i + 1)) >= 0:
            found.append(i + 1)
    return sorted(found)


def _copies(path: PolyPath, plan) -> list[tuple[object, int]]:
    """(plan(us, memo), count) per stretch of copies of a unit after one sample, us that sample (none at the start) and
    the unit, memo a dict that the unit's plans share, kept under its id alone; ``plan`` runs once per unit and sample,
    in path order."""
    plans, out, pred = {}, [], None
    for unit, count in path._runs:
        for n in (1, count - 1):  # the first copy follows the sample before the run, the others the unit's last
            if n > 0:
                if (got := plans.get(key := (id(unit), id(pred)))) is None:
                    got = plans[key] = plan(unit if pred is None else (pred, *unit), plans.setdefault(id(unit), {}))
                out.append((got, n))
                pred = unit[-1]
    return out


def _plan(us: Sequence[complex], checked: dict) -> tuple:
    """A copy's lift but for its branch: us, an axis point inserted where Re atanh(u)/pi flips; the crossings' sides;
    the lengths of us[1:] between them; us[1:]'s atanh(u)/pi, near-iR marks, real classes and signs of Im as +-i/2; a
    dict for chunks; per nonempty segment, its offset's index and key in ``checked``, which the unit's plans share.
    The insertion overflows only past |Re u| = 2^970, where no sample lifts within tol < 1e290."""
    values = [cmath.atanh(u) / math.pi for u in us]  # PolyPath keeps the samples off -1 and 1, where atanh fails
    real = _signs(v.real for v in values)
    # where the lift's real part Re atanh(u)/pi flips; where it underflows to 0 the lifted point is on iR already
    if flips := _pairs(real, _FLIPS):
        pts, vals, reals = us, values, real
        us, values, real = list(pts[:flips[0]]), vals[:flips[0]], reals[:flips[0]]
        for i, j in zip(flips, [*flips[1:], len(pts)]):
            a, b = pts[i - 1], pts[i]
            u = complex(0.0, a.imag + a.real / (a.real - b.real) * (b.imag - a.imag))
            us += u, *pts[i:j]
            values += cmath.atanh(u) / math.pi, *vals[i:j]
            real += b"0" + reals[i:j]  # Re atanh(iy) is 0, or NaN where y is
    crossings = list(_crossings(us, _signs(u.imag for u in us), LiftError))
    cuts, n = [1, *(i for i, _, _ in crossings), len(us)], len(us)
    # a segment's samples: its place from the unit's end, which slices us and us[1:]'s lists alike, and us[1]'s bits
    segments = [(k, (i - n, j - n or None, i == 1 and us[1].imag.hex()))
                for k, (i, j) in enumerate(zip(cuts, cuts[1:])) if i < j]
    return (us, [side for _, side, _ in crossings], list(map(sub, cuts[1:], cuts[:-1])), values[1:],
            bytes([abs(v.real) <= _PUNCTURE_TOL for v in values[1:]]), real[1:], {},
            [complex(0.0, math.copysign(0.5, v.imag)) for v in values[1:]], segments, checked)


def _chunk(plan: tuple, m: float, tol: float, last: complex, faults: dict) -> list[complex]:
    """A copy of ``plan`` lifted on branch ``m`` after the point ``last``, checked at the first chunk of each class,
    which the plan's dict holds: the zero-length check there, the residual and the near-iZ test on each of its segments
    at the first of its class, which the plan's ``checked`` holds; each check's first fault in path order stays in
    ``faults``.  A point on offset o is z = Re v + i fl(Im v + o), |Im v| <= 1/2, so d = Im z - o is exact (Sterbenz),
    and the checks read z only through Re v and d: the residual at z - i fl(o +- 1/2), the integer nearest Im z on
    Im v's side; the near-iZ test at |d -+ 1/2|; equal points, whose d differ by the sides.  So a segment's class is
    its samples and, while |m| < 2^51, o's sign and binade, ulp(o): for |o| >= 3/2, Im v + o is in [|o| - 1/2,
    |o| + 1/2], which no power of two splits, so in one binade, of floats the multiples of 2^(e-52) and o of a parity e
    fixes, where d is one function of Im v.  +-1/2 are alone in theirs; past 2^51, o is, and fl(o +- 1/2) is an integer
    too.  A chunk's class is whether ``last`` is its first point and its offsets' classes, which fix its segments'."""
    us, sides, lengths, values, near, _, built, halves, segments, checked = plan
    offsets = list(accumulate(sides, sub, initial=m))  # the m between crossings
    steps = list(chain.from_iterable(map(repeat, map(complex, repeat(0.0), offsets), lengths)))
    lift = list(map(add, values, steps))
    classes = tuple(map(math.copysign, map(math.ulp, offsets), offsets)) if abs(m) < 2**51 else tuple(offsets)
    if built.setdefault((last == lift[0], classes), lift) is not lift:  # an earlier chunk of the class was checked
        return lift
    todo = [where[:2] for k, where in segments if checked.setdefault((where, classes[k]), lift) is lift]  # path order
    for z, o, half, u in chain.from_iterable(zip(lift[i:j], steps[i:j], halves[i:j], us[i:j]) for i, j in todo
                                             ) if tol < math.inf else ():  # the residual is cover_map's, see above
        if not (t := cmath.tanh(cmath.pi * (z - (o + half)))) or not abs(1 / t - u) <= tol:  # exact, see above
            why = f"misses its image point {u} by more than {tol}" if t else f"of image point {u} is on iZ"
            grid = math.pi * abs(1 - u * u) * math.ulp(o.imag) > tol  # rounding Im z moves its image as far
            grid = f": Im z on branch {o.imag} is good only to {math.ulp(o.imag)}" if t and grid else ""
            faults.setdefault(0, LiftError(f"lifted point {z} {why}{grid}"))
            break
    for i, (a, b) in enumerate(zip(chain((last,), lift), lift)):  # the sample of ``last`` is us[0]
        if a == b:
            faults.setdefault(1, LiftError(f"samples {us[i]} and {us[i + 1]} lift to the same point {b}"))
            break
    # adding the offset keeps Re atanh(u)/pi, so only the points of samples marked near iR can be near iZ
    for z, marked in chain.from_iterable(zip(lift[i:j], near[i:j]) for i, j in todo):
        if marked and not _off_lattice(z):
            faults.setdefault(2, ValueError(f"path point {z} hits the excluded set of cover"))
            break
    return lift


def lift_path(path: PolyPath, start: complex, tol: float = 1e-6) -> PolyPath:
    """Lift of ``path`` through the covering with initial point ``start``.

    Each sample u of the input lifts to atanh(u)/pi + im, where m in 1/2 + Z starts at ``start``'s branch and moves by
    one where the path crosses the ray (-inf, -1] or [1, inf): up going down, down going up.  Where two consecutive
    samples lift to real parts Re atanh(u)/pi of strictly opposite sign, the point where their segment meets iR is
    inserted as a sample, so the lift is on iR wherever it changes half-plane.  A sample on the real axis takes the side
    of its zero's sign, as atanh does.  Raises ``LiftError``, a ``ValueError``, where the path meets the axis near a
    puncture or runs along it past one, where two samples lift to one point, or where |f(z) - u| > tol or a point lifts
    onto iZ; raises a plain ``ValueError`` where a lifted point is within tolerance of iZ, as ``PolyPath`` would.
    ``tol`` > 0, else ``ValueError``; ``math.inf`` turns off the residual check alone, as the tests use it; the config
    refuses it.  The residual is ``cover_map``'s; far up, Im z holds branch m only to ulp(m), which moves the image by
    pi |1 - u^2| ulp(m): word curves lift within 1e-6 while |m| < 2^30; a refusal names ulp(m) where that passes tol.

    atanh, the sign classes and the crossing walk run once per plan, a unit of the path's runs after one sample; the
    lifted points once per chunk, the plan on one branch m, which a later copy on that m takes, m moving by each copy's
    net shift; the residual and the iZ test once per segment of a unit between crossings and class of its branch,
    whatever the sample before the unit, the zero-length check once per class of a plan's chunks (``_chunk``).  Chunks
    and segments are walked in path order, so as on a lift point by point every point is checked, and the earliest
    check's first fault in path order is raised.  A word curve is lifted from its runs: its points are never built.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0; got {tol!r}")
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("lift_path expects a path in the punctured plane")
    if _off_fiber(cover_map(start) - path.start):
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    runs = _copies(path, _plan)  # all first: the crossing walk raises first
    m = round((start - cmath.atanh(path.start) / math.pi).imag - 0.5) + 0.5
    parts, faults, last = [], {}, start
    for plan, n in runs:
        sides, values, built = plan[1], plan[3], plan[6]
        for _ in repeat(None, n if values else 0):  # a first unit of the start point alone lifts to nothing
            if (chunk := built.get(m)) is None:
                chunk = built[m] = _chunk(plan, m, tol, last, faults)
            parts.append(chunk)
            last, m = chunk[-1], reduce(sub, sides, m)  # the chunk's last offset
    if faults:  # as on a lift point by point, the first fault of the earliest check
        raise faults[min(faults)]
    return _new(PolyPath, points=tuple(chain((start,), chain.from_iterable(parts))), plane=Plane.COVER,
                _real_signs=_signs((start.real,)) + b"".join(p[5] * n for p, n in runs))  # checked above


def word_to_curve(w: FreeWord, samples_per_turn: int = 128) -> PolyPath:
    """Concatenation of the standard loops of the terms, of at most ``MAX_CURVE_POINTS`` points.

    The standard loop of a_j^n is the unit circle about the puncture, based at 0 and sampled ``samples_per_turn`` times
    per turn: a1 surrounds -1 counterclockwise inside the closed left half-plane, a2 surrounds +1 counterclockwise
    inside the closed right half-plane, and a negative n traverses the reversed circle |n| times.  The identity gives a
    constant path.  The curve carries its runs: 0, then per term |n| - 1 copies of its turn and one closing turn, the
    turn with its last sample set to 0, both built once per generator and sign.  It is checked by construction, so it is
    built without ``PolyPath``'s point checks; ``PolyPath(points, Plane.PUNCTURED)``, the tests' oracle, accepts it and
    finds the same samples, because:

    - every sample is center + e^{it} with center = -1 or 1, so it is finite, about 1 from its own puncture and at
      least about 1 from the other;
    - consecutive samples differ by a chord of at least 2 sin(pi / samples_per_turn), which the budget
      (samples_per_turn <= ``MAX_CURVE_POINTS``) keeps above 6e-6;
    - a term's end 0 differs, by about that chord, from the samples on either side of it.
    """
    if not isinstance(samples_per_turn, int) or samples_per_turn < 16:
        raise ValueError(f"samples_per_turn must be an int >= 16; got {samples_per_turn!r}")
    if w.letter_length() * samples_per_turn > MAX_CURVE_POINTS:
        raise ValueError(f"word curve exceeds {MAX_CURVE_POINTS} points; use fewer letters or samples")
    runs = [((0j,), 1)]
    turns: dict[tuple[Generator, int], tuple[tuple[complex, ...], tuple[complex, ...]]] = {}
    for term in w.terms:
        sign = 1 if term.exponent > 0 else -1
        if (pair := turns.get((term.gen, sign))) is None:
            center, phase = (-1.0, 0.0) if term.gen is Generator.A1 else (1.0, math.pi)
            turn = tuple(center + cmath.exp(1j * (phase + sign * 2 * math.pi * j / samples_per_turn))
                         for j in range(1, samples_per_turn + 1))
            pair = turns[term.gen, sign] = turn, turn[:-1] + (0j,)  # each term ends at the base point, exactly
        n = abs(term.exponent)
        runs += [(pair[0], n - 1), (pair[1], 1)][n < 2:]  # |n| - 1 copies of the turn, then its closing turn
    return _new(PolyPath, plane=Plane.PUNCTURED, _runs=tuple(runs))  # checked by construction; points on first read


def slalom_decompose(lifted: PolyPath) -> SlalomDecomposition:
    """Elementary pieces of a lift whose ends are on iR, split where it changes half-plane.

    One piece per maximal closed-half-plane excursion, labeled with its half-plane and
    endpoint components.  A piece ends at the last point of the run on iR (real part 0)
    between excursions of opposite sign, in the component floor(Im) of that point; a touch
    of iR does not split an excursion.  ``lift_path`` puts a point on iR wherever a lift
    changes half-plane, so a change with none between raises ``LiftError``.
    """
    if lifted.plane is not Plane.COVER:
        raise ValueError("slalom_decompose expects a path on the cover")
    pts = lifted.points
    for z in (pts[0], pts[-1]):
        if z.real:
            raise LiftError(f"path endpoint {z} is not on the imaginary axis")
    signs = lifted.__dict__.get("_real_signs") or _signs(z.real for z in pts)  # a lift's, or its own
    sides, ends = [], [math.floor(pts[0].imag)]  # the sign of each excursion; the components between them
    for run in _EXCURSION.finditer(signs):  # signs[0] is b"0", so each run follows a 0 or the other sign
        if (s := run[0][:1]) in sides[-1:]:
            continue
        i = run.start()
        if sides:
            if signs[i - 1:i] != b"0":
                raise LiftError(f"lift changes half-plane between {pts[i - 1]} and {pts[i]}, off the imaginary axis")
            ends.append(math.floor(pts[i - 1].imag))
        sides.append(s)
    ends.append(math.floor(pts[-1].imag))
    return SlalomDecomposition(tuple(ElementaryPiece(HalfPlane.LEFT if s == b"-" else HalfPlane.RIGHT, a, b)
                                     for s, a, b in zip(sides, ends, islice(ends, 1, None))))


def _ray(x: float, error: type[Exception] = ValueError) -> int:
    """-1 on (-inf, -1), 1 on (1, inf), 0 on (-1, 1); raises ``error`` within tolerance of a puncture."""
    if abs(abs(x) - 1) < _PUNCTURE_TOL:
        raise error(f"path meets the real axis at {float(x)}, within tolerance of a puncture")
    return (x > 1) - (x < -1)


def _crossings(us: Sequence[complex], imag_signs: bytes, error: type[Exception]):
    """(i, side, ray) per ray crossing from sample i - 1 to i: the sign of Im on the side entered (an axis sample's
    zero's), and ``_ray`` of the crossing; raises ``error`` near a puncture or on an axis run through one."""
    # a pair can cross or touch the real axis only where the b"-0+" classes of Im have a zero or opposite signs
    for i in _pairs(imag_signs, _TOUCHING):
        a, b = us[i - 1], us[i]
        if a.imag == 0 == b.imag and _ray(a.real, error) != _ray(b.real, error):
            raise error(f"path runs along the real axis through a puncture near {b.real}")
        if (side := math.copysign(1.0, b.imag)) != math.copysign(1.0, a.imag):
            x = b.real if b.imag == 0 else a.real + a.imag / (a.imag - b.imag) * (b.real - a.real)
            # x errs < 2^-50 (|a.real| + |b.real|) if a.imag - b.imag is finite; exact where that nears a tolerance edge
            err = (abs(a.real) + abs(b.real)) * 2**-50 if math.isfinite(a.imag - b.imag) else math.inf
            if b.imag and not abs(abs(abs(x) - 1) - _PUNCTURE_TOL) > err:  # not: a NaN x is placed exactly too
                from fractions import Fraction as F
                x = F(a.real) + F(a.imag) / (F(a.imag) - F(b.imag)) * (F(b.real) - F(a.real))
            if ray := _ray(x, error):
                yield i, side, ray


def curve_to_word(path: PolyPath) -> FreeWord:
    """Word of a loop based at 0: its freely reduced sequence of ray crossings.

    The plane cut along (-inf, -1] and [1, inf) is simply connected (the
    cutting-sequence method).  Crossing the left ray downward reads a1, the
    right ray upward a2, the reverse crossings their inverses.  A sample on
    the real axis is on the side of its zero's sign; touching a ray from the
    other side reads a crossing and its inverse, which reduction removes.
    The crossings are walked once per plan, a unit of the path's runs after
    one sample, and read again for each copy of the unit that follows it.
    """
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("curve_to_word expects a path in the punctured plane")
    if _off_fiber(path.start) or _off_fiber(path.end):
        raise ValueError("curve_to_word expects a loop based at 0")
    runs = _copies(path, lambda us, _: list(_crossings(us, _signs(u.imag for u in us), ValueError)))
    return reduce_word([(Generator.A1 if ray < 0 else Generator.A2, int(side) * ray)
                        for crossings, n in runs for _, side, ray in crossings * n])

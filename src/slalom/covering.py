"""The logarithmic covering of the twice-punctured plane and path lifting.

The covering map f1 o f2, with f2(z) = (e^{pi z} - 1)/(e^{pi z} + 1) and f1(w) = (w + 1/w)/2, is coth(pi z) from
C \\ iZ onto C \\ {-1, 1}.  A path lifts to atanh(u)/pi + im, m in 1/2 + Z moving at its crossings of the rays
(-inf, -1] and [1, inf).  Loops based at 0 lift from -i/2; the lift's excursions into the half-planes are its slalom
pieces (a left piece moving up n components carries a1^n, a right piece moving down n carries a2^n).  The word of a
loop is read without lifting, from the same ray crossings.  A lifted point keeps its sample's Re atanh(u)/pi, which has
the sign of Re u or underflows to 0, on iR; a lift changes half-plane where that sign does, and a sample iy on iR lifts
to i(atan(y)/pi + m), so a piece ends in component m - 1/2.

A path is runs of copies of units: a word curve, checked by construction, is 0, then per term a^n |n| copies of a turn
from 0 to 0 exactly, one per generator, sign and sampling, which the process keeps up to ``_TURN_CAP`` samples; any
other path is one run, and PolyPath(points, Plane.PUNCTURED), the tests' oracle, checks a word curve point by point.
The lift and the reader walk the crossings once per plan, a unit after one sample, once per process for a kept turn;
the lift's plan holds atanh(u)/pi per point and a copy's changes of half-plane, which bytes.find and a regex find in
b"-0+" strings of the sign classes of Re atanh(u)/pi, as bytes.find finds crossings in those of Im u.  The lift's
checks run once per chunk, a plan lifted on one branch m, and class of chunks, the sign and binade of each offset and
whether the point before is the first; only points of samples near iR are checked against iZ, and the residual's first
fault is raised at once.  A lift keeps one memo per plan, the chunk classes whose checks passed before its first fault;
a kept turn's lift plan keeps it for later lifts at one tol, at most 204 classes.  A word curve and a lift build their
points only when read; ``slalom_decompose`` reads a lift by its runs.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from bisect import bisect_right
from functools import cache, cached_property, lru_cache, reduce
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
_TURN_CAP = 1024  # the most samples per turn of a turn that the process keeps
_READS = (None, Generator.A2, Generator.A1)  # what a crossing of ray 1 or -1 reads, by the ray, so bound once


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
    """Discretized curve; a single point represents a constant path.  A word curve holds its points as ``_runs``,
    copies of units, and a lift as ``_lift``, copies of plans on their branches; each builds them on first read."""

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

    def __getstate__(self):  # a lift pickles its points in place of its plans, which hold its memos
        state = dict(self.__dict__)
        return state if state.pop("_lift", None) is None else {**state, "points": self.points}

    @cached_property
    def points(self) -> tuple[complex, ...]:  # only a word curve or a lift comes here: any other path sets its points
        if "_lift" not in self.__dict__:
            return tuple(chain.from_iterable(unit * n for unit, n in self._runs))
        points = [self.start]  # a lift's (plan, m, n, _) per run of n copies of a plan from branch m, as _chunk builds
        for plan, m, n, _ in self._lift:
            for _ in repeat(None, n):
                offsets = list(accumulate(plan[1], sub, initial=m))
                points += map(add, plan[3], _steps(plan[2], offsets))
                m = offsets[-1]
        return tuple(points)

    @cached_property
    def _runs(self) -> tuple[tuple[tuple[complex, ...], int], ...]:
        """(unit, count) pairs, each unit repeated count times, that make up the points: one run but on a word curve."""
        return ((self.points, 1),)

    @cached_property
    def start(self) -> complex:  # a lift sets its start and end
        return self._runs[0][0][0]

    @cached_property
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
    """(plan(us, shared), count) per stretch of copies of a unit after one sample, us that sample (none at the start,
    where a unit of one sample is skipped) and the unit; ``plan`` runs once per unit and sample's bits, in path order.
    A run after a sample with the bits of its unit's last, as every run of a word curve is, is one stretch; any other
    run is its first copy and then the rest.  A turn that ``_turn`` keeps, after its last sample, keeps its plan in its
    dict, so it lives and dies with it, ``shared`` a dict for ``lift_path``'s memo; any other plan is the call's own,
    ``shared`` None."""
    plans, out, pred = {}, [], None
    for unit, count in path._runs:
        one = pred is unit[-1] or repr(pred) == repr(unit[-1])  # repr: -0.0 apart from 0.0
        for before, n in [(unit[-1], count)] if one else [(pred, 1), (unit[-1], count - 1)]:
            if n and (before is not None or len(unit) > 1):
                if type(unit) is _Turn and before is unit[-1]:
                    if (got := vars(unit).get(plan)) is None:
                        got = vars(unit)[plan] = plan((before, *unit), {})  # no caller's sample kept
                elif (got := plans.get(key := (id(unit), repr(before)))) is None:
                    got = plans[key] = plan(unit if before is None else (before, *unit), None)
                out.append((got, n))
        pred = unit[-1]
    return out


def _plan(us: Sequence[complex], shared: dict | None) -> tuple:
    """A copy's lift but for its branch, its geometry: us, an axis point inserted where Re atanh(u)/pi flips; the
    crossings' sides; the lengths of us[1:] between them; us[1:]'s atanh(u)/pi, near-iR marks and signs of Im as
    +-i/2; ``_changes``; and then ``shared``, where a kept turn's plan keeps the chunk classes that lifts passed
    (``lift_path``).
    An insertion that overflows, only past |Re u| = 2^970, is refused after the faults of the samples before it."""
    values = [cmath.atanh(u) / math.pi for u in us]  # PolyPath keeps the samples off -1 and 1, where atanh fails
    real = _signs(v.real for v in values)
    # where the lift's real part Re atanh(u)/pi flips; where it underflows to 0 the lifted point is on iR already
    if flips := _pairs(real, _FLIPS):
        pts, vals, reals = us, values, real
        us, values, real = list(pts[:flips[0]]), vals[:flips[0]], reals[:flips[0]]
        for i, j in zip(flips, [*flips[1:], len(pts)]):
            a, b = pts[i - 1], pts[i]
            u = complex(0.0, a.imag + a.real / (a.real - b.real) * (b.imag - a.imag))
            if not cmath.isfinite(u):
                list(_crossings(us, _signs(u.imag for u in us), LiftError))
                raise LiftError(f"the segment from {a} to {b} meets the imaginary axis at a point that overflows")
            us += u, *pts[i:j]
            values += cmath.atanh(u) / math.pi, *vals[i:j]
            real += b"0" + reals[i:j]  # Re atanh(iy) is 0
    crossings = list(_crossings(us, _signs(u.imag for u in us), LiftError))
    cuts = [1, *(i for i, _, _ in crossings), len(us)]
    sides, lengths = [side for _, side, _ in crossings], list(map(sub, cuts[1:], cuts[:-1]))
    return (us, sides, lengths, values[1:], bytes([abs(v.real) <= _PUNCTURE_TOL for v in values[1:]]),
            [complex(0.0, math.copysign(0.5, v.imag)) for v in values[1:]], _changes(real[1:], sides, lengths), shared)


def _steps(lengths: Sequence[int], offsets: Sequence[float]) -> Iterable[complex]:
    """i o per point of a copy whose segments, of ``lengths`` points, are on the offsets o of ``offsets``."""
    return chain.from_iterable(map(repeat, map(complex, repeat(0.0), offsets), lengths))


def _chunk(plan: tuple, passed: set, m: float, tol: float, last: complex, faults: dict) -> float:
    """Check a copy of ``plan`` lifted on branch ``m`` after the point ``last``, and return the branch after it, its
    last offset.  The checks run, and the points are built, only at a chunk whose class ``passed`` lacks: the
    residual, whose first fault is raised at once, since no later check can change the error a lift raises, then the
    zero-length check and the near-iZ test, each until it has a fault in ``faults``, its first in path order.  While
    ``faults`` is empty, the chunk's class goes into ``passed``.  A point on offset o is z = Re v + i fl(Im v + o),
    |Im v| <= 1/2, so d = Im z - o is exact (Sterbenz), and the checks read z only through Re v and d: the residual at
    z - i fl(o +- 1/2), the integer nearest Im z on Im v's side; the near-iZ test at |d -+ 1/2|; equal points, whose d
    differ by the sides.  So while |m| < 2^51 a point's checks are decided by its sample and o's sign and binade,
    ulp(o): for |o| >= 3/2, Im v + o is in [|o| - 1/2, |o| + 1/2], which no power of two splits, so in one binade, of
    floats the multiples of 2^(e-52) and o of a parity e fixes, where d is one function of Im v; +-1/2 are alone in
    theirs.  A chunk's class, known before any point is built, is whether ``last`` is its first point and its offsets'
    classes, so its checks pass where they passed before at this tol, in this lift or another (``passed``).  Past
    2^51 o is its own class, so a chunk has none, and none is looked up or kept.  A kept turn crosses a ray once, by
    side s, so its chunks' offset classes are (class(m), class(m - s)), 204 pairs below 2^51, and a chunk whose
    ``last`` is its first point never passes: a kept plan keeps at most 204 classes."""
    us, sides, lengths, values, near, halves, _, _ = plan
    offsets = list(accumulate(sides, sub, initial=m))  # the m between crossings: none before us[1] where it crosses
    key = abs(m) < 2**51 and (last == values[0] + complex(0.0, offsets[not lengths[0]]),  # none past 2^51
                              tuple(map(math.copysign, map(math.ulp, offsets), offsets)))
    if key and key in passed:
        return offsets[-1]
    steps = list(_steps(lengths, offsets))
    lift = list(map(add, values, steps))
    for z, o, half, u in zip(lift, steps, halves, islice(us, 1, None)) if tol < math.inf else ():
        if not (t := cmath.tanh(cmath.pi * (z - (o + half)))) or not abs(1 / t - u) <= tol:  # cover_map's, exactly
            why = f"misses its image point {u} by more than {tol}" if t else f"of image point {u} is on iZ"
            grid = math.pi * abs(1 - u * u) * math.ulp(o.imag) > tol  # rounding Im z moves its image as far
            grid = f": Im z on branch {o.imag} is good only to {math.ulp(o.imag)}" if t and grid else ""
            raise LiftError(f"lifted point {z} {why}{grid}")
    for i, (a, b) in enumerate(zip(chain((last,), lift), lift)) if 1 not in faults else ():  # ``last``'s sample: us[0]
        if a == b:
            faults[1] = LiftError(f"samples {us[i]} and {us[i + 1]} lift to the same point {b}")
            break
    # adding the offset keeps Re atanh(u)/pi, so only the points of samples marked near iR can be near iZ
    for z, marked in zip(lift, near) if 2 not in faults else ():
        if marked and not _off_lattice(z):
            faults[2] = ValueError(f"path point {z} hits the excluded set of cover")
            break
    if key and not faults:
        passed.add(key)
    return offsets[-1]


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
    checks once per chunk, the plan on one branch m, at its first copy on m after a copy, m moving by each copy's net
    shift, and once per class of a plan's chunks (``_chunk``).  Chunks are walked in path order, so as on a lift point
    by point every point is checked, and the earliest check's first fault in path order is raised: the residual's at
    once, as it is found, and the others' after the walk.  The lift holds (plan, m, n, m after) per run of n copies of
    a plan from m, and builds its points only when read, as ``_chunk`` would; a word curve's are never built.  Each
    plan has one memo, the chunk classes whose checks passed at this tol before the lift's first fault: a turn that the
    process keeps is planned once (``_copies``), and its plan keeps that memo, at most 204 classes, for later lifts at
    this tol, until a lift at another tol replaces it.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0; got {tol!r}")
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("lift_path expects a path in the punctured plane")
    if _off_fiber(cover_map(start) - path.start):
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    runs = _copies(path, _plan)  # all first: the crossing walk raises first
    m = round((start - cmath.atanh(path.start) / math.pi).imag - 0.5) + 0.5
    parts, faults, tail, memos = [], {}, None, {}  # tail: the last copy's last value, its last point tail + im
    for plan, n in runs:
        if (got := memos.get(id(plan))) is None:  # per plan: its branches, and the classes that passed at this tol
            if (shared := plan[-1]) is not None and tol not in shared:
                shared.clear()  # a kept plan keeps the classes of one tol: a pass at inf checks no residual
            got = memos[id(plan)] = {}, set() if shared is None else shared.setdefault(tol, set())
        (built, passed), values, first = got, plan[3], m
        for _ in repeat(None, n):
            if (after := built.get(m)) is None:  # a later copy on m follows the plan's us[0] lifted on m, as this one
                after = _chunk(plan, passed, m, tol, start if tail is None else tail + complex(0.0, m), faults)
                if tail is not None:  # unless this one follows the start, which need not be that lift
                    built[m] = after
            tail, m = values[-1], after
        parts.append((plan, first, n, m))
    if faults:  # as on a lift point by point, the first fault of the earliest check
        raise faults[min(faults)]
    return _new(PolyPath, plane=Plane.COVER, start=start, end=start if tail is None else tail + complex(0.0, m),
                _lift=tuple(parts))


class _Turn(tuple):
    """A turn that ``_turn`` keeps, with its plans in its dict (``_copies``); it pickles as a tuple, without them."""

    def __reduce__(self):
        return tuple, (tuple(self),)


@lru_cache(maxsize=16)
def _turn(name: str, sign: int, samples_per_turn: int) -> _Turn:
    """The turn of generator ``name`` in direction ``sign``, to 0 exactly; the process keeps at most 16, each of at most
    ``_TURN_CAP`` samples, with their plans, where ``word_to_curve`` calls it, and past that a call's own memo of
    ``__wrapped__``, as tuples."""
    center, phase = (-1.0, 0.0) if name == "a1" else (1.0, math.pi)
    arc = (center + cmath.exp(1j * (phase + sign * 2 * math.pi * j / samples_per_turn))
           for j in range(1, samples_per_turn))
    return _Turn((*arc, 0j))  # each turn ends at the base point, exactly


def word_to_curve(w: FreeWord, samples_per_turn: int = 128) -> PolyPath:
    """Concatenation of the standard loops of the terms, of at most ``MAX_CURVE_POINTS`` points.

    The standard loop of a_j^n is the unit circle about the puncture, based at 0 and sampled ``samples_per_turn`` times
    per turn: a1 surrounds -1 counterclockwise inside the closed left half-plane, a2 surrounds +1 counterclockwise
    inside the closed right half-plane, and a negative n traverses the reversed circle |n| times.  The identity gives a
    constant path.  The curve carries its runs: 0, then per term |n| copies of its turn, whose last sample is the base
    point 0 exactly, one per generator, sign and sampling, kept by ``_turn``.  It is checked by construction, so it is
    built without ``PolyPath``'s point checks; ``PolyPath(points, Plane.PUNCTURED)``, the tests' oracle, accepts it and
    finds the same samples, because:

    - every sample is center + e^{it} with center = -1 or 1, so it is finite, about 1 from its own puncture and at
      least about 1 from the other;
    - consecutive samples differ by a chord of at least 2 sin(pi / samples_per_turn), which the budget
      (samples_per_turn <= ``MAX_CURVE_POINTS``) keeps above 6e-6;
    - every turn's end 0 differs, by about that chord, from the samples on either side of it.
    """
    if not isinstance(samples_per_turn, int) or samples_per_turn < 16:
        raise ValueError(f"samples_per_turn must be an int >= 16; got {samples_per_turn!r}")
    if w.letter_length() * samples_per_turn > MAX_CURVE_POINTS:
        raise ValueError(f"word curve exceeds {MAX_CURVE_POINTS} points; use fewer letters or samples")
    turn = _turn if samples_per_turn <= _TURN_CAP else cache(lambda *key: tuple(_turn.__wrapped__(*key)))
    runs = [(turn(t.gen._value_, 1 if t.exponent > 0 else -1, samples_per_turn), abs(t.exponent)) for t in w.terms]
    return _new(PolyPath, plane=Plane.PUNCTURED, _runs=(((0j,), 1), *runs))  # checked by construction; points on read


def _changes(real: bytes, sides: Sequence[float], lengths: Sequence[int]) -> list[tuple[int, HalfPlane, Sequence]]:
    """(i, half-plane, the crossings' sides before point i - 1) where a copy of a plan, of real classes ``real`` and
    ``sides`` between segments of ``lengths`` points, enters a half-plane: at its first run of one nonzero real class
    and at each run of the other class after one.  So a copy of a plan with one change, after the plan's first, changes
    nothing, and a piece's end is one point, on branch m less those sides, as ``_chunk`` offsets it."""
    ends, found = list(accumulate(lengths)), []
    for run in _EXCURSION.finditer(real):
        half = HalfPlane.RIGHT if real[i := run.start()] == 43 else HalfPlane.LEFT  # b"+" is 43
        if not found or found[-1][1] is not half:
            found.append((i, half, sides[:bisect_right(ends, i - 1)]))
    return found


def slalom_decompose(lifted: PolyPath) -> SlalomDecomposition:
    """Elementary pieces of a lift whose ends are on iR, split where it changes half-plane.

    One piece per maximal closed-half-plane excursion, labeled with its half-plane and
    endpoint components.  A piece ends at the last point of the run on iR (real part 0)
    between excursions of opposite sign, in the component floor(Im) of that point; a touch
    of iR does not split an excursion.  ``lift_path`` puts a point on iR wherever a lift
    changes half-plane, so a change with none between raises ``LiftError``.  A lift is read
    by its runs (a plan's ``_changes``); any other cover path is one copy of one plan on branch 0.
    """
    if lifted.plane is not Plane.COVER:
        raise ValueError("slalom_decompose expects a path on the cover")
    for z in (lifted.start, lifted.end):
        if z.real:
            raise LiftError(f"path endpoint {z} is not on the imaginary axis")
    if (parts := lifted.__dict__.get("_lift")) is None:
        pts = lifted.points
        signs = _signs(z.real for z in pts)
        if flips := _pairs(signs, _FLIPS):
            i = flips[0]
            raise LiftError(f"lift changes half-plane between {pts[i - 1]} and {pts[i]}, off the imaginary axis")
        parts = [((None, (), None, pts[1:], None, None, _changes(signs[1:], (), ())), 0.0, 1, 0.0)
                 ] if pts[1:] else ()
    side, halves, ends, prev = None, [], [math.floor(lifted.start.imag)], lifted.start.imag  # prev: Im before a copy
    for plan, m, n, after in parts:
        sides, values, changes = plan[1], plan[3], plan[6]
        for j in range(n if len(changes) > 1 else 1):
            if j:  # the copy before ends on m
                prev = values[-1].imag + (m := reduce(sub, sides, m))
            for i, half, before in changes:
                if half is not side:
                    if side is not None:  # the piece ends at the point before the change, on iR
                        ends.append(math.floor(values[i - 1].imag + reduce(sub, before, m) if i else prev))
                    halves.append(side := half)
        prev = values[-1].imag + after
    ends.append(math.floor(lifted.end.imag))
    return _new(SlalomDecomposition, pieces=tuple([
        _new(ElementaryPiece, half_plane=h, start_component=a, end_component=b)
        for h, a, b in zip(halves, ends, islice(ends, 1, None))]))


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
    one sample, or once per process for a kept turn (``_copies``); a run of
    n copies of a unit that reads one letter a^k reads a^(k n), else its
    letters n times.
    """
    if path.plane is not Plane.PUNCTURED:
        raise ValueError("curve_to_word expects a path in the punctured plane")
    if _off_fiber(path.start) or _off_fiber(path.end):
        raise ValueError("curve_to_word expects a loop based at 0")
    return reduce_word(chain.from_iterable([(reads[0][0], reads[0][1] * n)] if len(reads) == 1 else reads * n
                                           for reads, n in _copies(path, _reads)))


def _reads(us: Sequence[complex], _) -> list[tuple[Generator, int]]:
    """The letter that each ray crossing of ``us`` reads, a plan of ``curve_to_word``."""
    return [(_READS[ray], int(side) * ray) for _, side, ray in _crossings(us, _signs(u.imag for u in us), ValueError)]

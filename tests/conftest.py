import cmath
import contextlib
import dataclasses
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, compress, count, groupby, repeat, tee
from operator import attrgetter, ge, mul
from typing import Iterable

import pytest
from hypothesis import strategies as st

from slalom import braids, words
from slalom.braids import BraidGenerator, BraidWord, braid_to_strands, cross_ratio_curve, full_twist, parse_braid
from slalom.covering import (
    BASE_LIFT_POINT,
    PUNCTURES,
    ElementaryPiece,
    HalfPlane,
    LiftError,
    Plane,
    PolyPath,
    cover_map,
    curve_to_word,
    lift_path,
    slalom_decompose,
)
from slalom.syllables import SyllableKind
from slalom.words import FreeWord, Generator, Term, WordSyntaxError, parse_word, reduce

FIGURE2_TEXT = "a2^-1 a1^2 a2^-3 a1^-1 a2^-1 a1^-1 a2 a1^-1"


def _default(value):
    return dataclasses.field(default=value)


# Oracle for the value types' semantics: each type's twin is the frozen dataclass it was declared as, with its
# fields and defaults written out here, and no checks.
VALUE_TWINS = {name: dataclasses.make_dataclass(name, fields, frozen=True) for name, fields in {
    "Term": ["gen", "exponent"],
    "FreeWord": [("terms", tuple, _default(()))],
    "Syllable": ["terms", "kind"],
    "SyllableDecomposition": ["syllables"],
    "BoundConstants": [("c_minus", float, _default(0.1)), ("c_plus", float, _default(10.0))],
    "LambdaBounds": ["lambda_value", "lower", "upper", "exceptional"],
    "Config": [("c_minus", float, _default(0.1)), ("c_plus", float, _default(10.0)),
               ("samples_per_turn", int, _default(128)), ("lift_tolerance", float, _default(1e-6)),
               ("svg_scale", float, _default(40.0))],
    "QuadModulus": ["extremal_length", "conformal_module"],
    "BoundCheckReport": ["m_range", "ratio_min", "ratio_max"],
    "PolyPath": ["points", "plane"],
    "ElementaryPiece": ["half_plane", "start_component", "end_component"],
    "SlalomDecomposition": ["pieces"],
    "BraidLetter": ["gen", "sign"],
    "BraidWord": [("letters", tuple, _default(()))],
}.items()}


@pytest.fixture
def figure2_word() -> FreeWord:
    return parse_word(FIGURE2_TEXT)


def lift_read_word(path: PolyPath) -> FreeWord:
    """Oracle for ``curve_to_word``: the word of a loop at 0 read from the slalom pieces of its lift.

    A left piece moving up n components carries a1^n, a right piece moving
    down n components carries a2^n.
    """
    if len(path.points) == 1:
        return FreeWord()
    raw = []
    for p in slalom_decompose(lift_path(path, BASE_LIFT_POINT)).pieces:
        if p.half_plane is HalfPlane.LEFT:
            raw.append((Generator.A1, p.end_component - p.start_component))
        else:
            raw.append((Generator.A2, p.start_component - p.end_component))
    return reduce(raw)


def reference_ray(x: float, error: type[Exception] = ValueError) -> int:
    """-1 on (-inf, -1), 1 on (1, inf), 0 on (-1, 1); ``error`` within 1e-9 of -1 or 1."""
    if abs(abs(x) - 1) < 1e-9:
        raise error(f"path meets the real axis at {x}, within tolerance of a puncture")
    return (x > 1) - (x < -1)


def float_crossing(a: complex, b: complex) -> float:
    """Where the segment from a to b meets the real axis, by the float formula, whose differences can overflow."""
    return a.real + a.imag / (a.imag - b.imag) * (b.real - a.real)


def exact_crossing(a: complex, b: complex) -> Fraction:
    """Where the segment from a to b meets the real axis, exactly: every float converts to a Fraction as it is."""
    (ax, ay), (bx, by) = ((Fraction(z.real), Fraction(z.imag)) for z in (a, b))
    return ax + ay / (ay - by) * (bx - ax)


def reference_read_word(path: PolyPath, crossing=float_crossing) -> FreeWord:
    """Oracle for ``curve_to_word``: the cutting sequence read sample by sample.

    Samples on the real axis are skipped; a crossing between the off-axis samples
    around them is located at the last of them, and a run of them must not pass
    a puncture.  Crossing the left ray downward reads a1, the right ray upward a2.
    ``crossing`` locates the other crossings: ``float_crossing`` is the route's
    float formula, so on loops of modest coordinates the errors, which print the
    crossing, read alike; ``exact_crossing`` makes this the exact oracle for the
    route's geometry over every finite point, with the same 1e-9 rule about the
    punctures, applied to the exact distance.
    """
    if abs(path.start) > 1e-8 or abs(path.end) > 1e-8:
        raise ValueError("curve_to_word expects a loop based at 0")
    raw = []
    prev = axis_x = None  # the last sample off the real axis; the last on-axis real part after it
    for z in path.points:
        if z.imag == 0:
            if axis_x is not None and reference_ray(axis_x) != reference_ray(z.real):
                raise ValueError(f"path runs along the real axis through a puncture near {z.real}")
            axis_x = z.real
            continue
        if prev is not None and (z.imag > 0) != (prev.imag > 0):
            x = axis_x if axis_x is not None else crossing(prev, z)
            ray = reference_ray(x)
            if ray:
                raw.append((Generator.A1 if ray < 0 else Generator.A2, ray if z.imag > 0 else -ray))
        prev, axis_x = z, None
    return reduce(raw)


def reference_touching(parts: Iterable[float]) -> list[int]:
    """Oracle for the candidate pairs of the ray walk and the piece reader: each i with parts[i - 1] * parts[i] <= 0.

    This is the product pass over the floats that the covering ran before its sign strings: every
    zero, every change of strict sign, and also every pair of one sign whose product underflows.
    """
    parts, later = tee(parts)
    next(later, None)
    return list(compress(count(1), map(ge, repeat(0.0), map(mul, parts, later))))


def word_pieces(w: FreeWord) -> tuple[ElementaryPiece, ...]:
    """Oracle for the slalom pieces of the lift of ``word_to_curve(w)`` from -i/2: one per term, from component -1.

    a1^n is a left piece from component k to k + n, a2^n a right piece from k to k - n.
    """
    pieces, k = [], -1
    for t in w.terms:
        left = t.gen is Generator.A1
        end = k + t.exponent if left else k - t.exponent
        pieces.append(ElementaryPiece(HalfPlane.LEFT if left else HalfPlane.RIGHT, k, end))
        k = end
    return tuple(pieces)


def axis_samples(points) -> list[complex]:
    """Oracle for the samples ``lift_path`` lifts: ``points``, and between two whose lifts have real parts
    Re atanh(u)/pi of strictly opposite sign, the point where their segment meets the imaginary axis, with real
    part 0.0.  Where Re atanh(u)/pi underflows to 0 the sample's lift is on the axis already, and none is added."""
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        x, y = (cmath.atanh(a) / math.pi).real, (cmath.atanh(b) / math.pi).real
        if x < 0 < y or y < 0 < x:
            out.append(complex(0.0, a.imag + a.real / (a.real - b.real) * (b.imag - a.imag)))
        out.append(b)
    return out


def reference_parts(a: complex, b: complex) -> int:
    """Parts of the nearest-branch oracle's segment a -> b: ceil(|b - a| / (0.25 min(d(a), d(b)))).

    d is the distance to the punctures; more than 4096 parts raise ``LiftError``.
    """
    limit = 0.25 * min(abs(z - p) for z in (a, b) for p in PUNCTURES)
    n = max(1, math.ceil(abs(b - a) / limit)) if limit > 0 else 4097
    if n > 4096:
        raise LiftError(f"refinement limit exceeded near {a} -> {b}")
    return n


def reference_refine(points) -> list[complex]:
    """Each segment cut into ``reference_parts`` equal parts; every point of ``points`` kept with its bits."""
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        n = reference_parts(a, b)
        out += [a + (b - a) * j / n for j in range(1, n)]
        out.append(b)
    return out


def sample_positions(samples) -> list[int]:
    """The index of each of ``samples`` in ``reference_refine(samples)``."""
    return list(accumulate(map(reference_parts, samples, samples[1:]), initial=0))


def reference_lift(path: PolyPath, start: complex, tol: float = 1e-6) -> PolyPath:
    """Oracle for ``lift_path``: the nearest-branch lift through the covering's explicit inverse.

    It lifts ``reference_refine(axis_samples(path.points))``: each sample u lifts to
    the root w = u +- sqrt(u^2 - 1) nearest the previous w, then to the branch of
    z = Log((1 + w)/(1 - w))/pi + 2ik nearest the previous z.  That choice is right
    only where consecutive samples are close on the scale of their distance to the
    punctures, which the refinement makes them; a chord passing close to -1 or 1
    can still take the wrong sheet.  Re z has the sign of Re u (0 on iR), which
    Log's rounding can lose where Re u is within rounding of 0; the oracle takes
    that sign from u, so that ``slalom_decompose`` reads its pieces.
    """
    if abs(cover_map(start) - path.start) > 1e-8:
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    z = start
    w = cmath.tanh(cmath.pi * z / 2)
    lift = [z]
    for u in reference_refine(axis_samples(path.points))[1:]:
        r = cmath.sqrt((u - 1) * (u + 1))
        up, um = u + r, u - r
        w = up if abs(up - w) <= abs(um - w) else um
        v = cmath.log((1 + w) / (1 - w)) / cmath.pi
        z = v + 2j * round((z - v).imag / 2)
        t = cmath.tanh(cmath.pi * z / 2)
        if not abs(0.5 * (t + 1 / t) - u) <= tol:
            raise LiftError(f"lifted point {z} misses its image point {u} by more than {tol}")
        lift.append(complex(math.copysign(z.real, u.real) if u.real else 0.0, z.imag))
    return PolyPath(tuple(lift), Plane.COVER)


def reference_lift_points(path: PolyPath, start: complex, tol: float = 1e-6) -> tuple[complex, ...]:
    """Oracle for ``lift_path``'s checks, point by point: the lifted points, or the error ``lift_path`` must raise.

    Each of ``axis_samples`` u lifts on its own to atanh(u)/pi + im.  m starts at ``start``'s branch and, pair by
    pair of samples, moves by one where their segment crosses a ray: up going down, down going up (a sample on
    the real axis is on the side of its zero's sign).  The fiber test, the crossings and each point's residual, taken
    as ``cover_map`` takes it and not at all where ``tol`` is inf, come first; then two consecutive equal points raise
    ``LiftError``, and then ``PolyPath(points, Plane.COVER)`` refuses whatever it refuses.
    """
    if abs(cover_map(start) - path.start) > 1e-8:
        raise LiftError(f"start {start} is not in the fiber over {path.start}")
    us = axis_samples(path.points)
    m = round((start - cmath.atanh(us[0]) / math.pi).imag - 0.5) + 0.5
    offsets = [m]
    for a, b in zip(us, us[1:]):
        if a.imag == 0 == b.imag and reference_ray(a.real, LiftError) != reference_ray(b.real, LiftError):
            raise LiftError(f"path runs along the real axis through a puncture near {b.real}")
        if (side := math.copysign(1.0, b.imag)) != math.copysign(1.0, a.imag):
            x = b.real if b.imag == 0 else a.real + a.imag / (a.imag - b.imag) * (b.real - a.real)
            if reference_ray(x, LiftError):
                m -= side
        offsets.append(m)
    lift = [start] + [cmath.atanh(u) / math.pi + complex(0.0, k) for u, k in zip(us[1:], offsets[1:])]
    for z, u, k in zip(lift[1:], us[1:], offsets[1:]) if tol < math.inf else ():
        try:
            residual = abs(1 / cmath.tanh(math.pi * complex(z.real, z.imag - round(z.imag))) - u)
        except ZeroDivisionError:
            raise LiftError(f"lifted point {z} of image point {u} is on iZ") from None
        if not residual <= tol:
            grid = math.pi * abs(1 - u * u) * math.ulp(k) > tol  # the rounding of Im z can move its image as far
            grid = f": Im z on branch {k} is good only to {math.ulp(k)}" if grid else ""
            raise LiftError(f"lifted point {z} misses its image point {u} by more than {tol}{grid}")
    for i in range(1, len(lift)):
        if lift[i - 1] == lift[i]:
            raise LiftError(f"samples {us[i - 1]} and {us[i]} lift to the same point {lift[i]}")
    return PolyPath(tuple(lift), Plane.COVER).points


def reference_chunk(plan: tuple, m: float, tol: float, last: complex, faults: dict) -> list[complex]:
    """Oracle for ``covering._chunk``, which runs its checks once per class of chunks: the same copy of ``plan``
    lifted on branch ``m`` after the point ``last``, with every check run on it, point by point.  The residual is
    taken as ``_chunk`` takes it, at z - i fl(o +- 1/2), o the offset and +-1/2 the plan's half for the sample; each
    check's first fault in path order stays in ``faults``."""
    us, sides, lengths, values, near, _, _, halves = plan[:8]
    offsets = list(accumulate(sides, lambda o, side: o - side, initial=m))
    steps = [complex(0.0, o) for o, n in zip(offsets, lengths) for _ in range(n)]
    lift = [v + step for v, step in zip(values, steps)]
    for z, step, half, u in zip(lift, steps, halves, us[1:]) if tol < math.inf else ():
        try:
            t = cmath.tanh(cmath.pi * (z - (step + half)))
            residual = abs(1 / t - u)
        except ZeroDivisionError:
            faults.setdefault(0, LiftError(f"lifted point {z} of image point {u} is on iZ"))
            break
        if not residual <= tol:
            o = step.imag  # the rounding of Im z to ulp(o) can move its image by pi |1 - u^2| ulp(o)
            grid = f": Im z on branch {o} is good only to {math.ulp(o)}"
            grid = grid if math.pi * abs(1 - u * u) * math.ulp(o) > tol else ""
            faults.setdefault(0, LiftError(f"lifted point {z} misses its image point {u} by more than {tol}{grid}"))
            break
    for i, (a, b) in enumerate(zip([last, *lift], lift)):
        if a == b:
            faults.setdefault(1, LiftError(f"samples {us[i]} and {us[i + 1]} lift to the same point {b}"))
            break
    for z, marked in zip(lift, near):
        if marked and abs(z.real) <= 1e-9 and abs(z.imag - round(z.imag)) <= 1e-9:
            faults.setdefault(2, ValueError(f"path point {z} hits the excluded set of cover"))
            break
    return lift


def checked_word_curve(curve: PolyPath) -> PolyPath:
    """Oracle for ``word_to_curve``, which builds its curve without ``PolyPath``'s checks: the same points
    built through them, so that they are checked point by point."""
    return PolyPath(curve.points, Plane.PUNCTURED)


def reference_path_error(points, plane: Plane) -> str | None:
    """Oracle for ``PolyPath``'s validation, point by point: the message it must raise, or None.

    A point is bad when it is not finite, or within 1e-9 of -1 or 1 (punctured
    plane) or of iZ (cover plane); then a repeated consecutive point is bad.
    """
    if not points:
        return "path needs at least one point"
    for z in points:
        if not cmath.isfinite(z):
            return f"path point {z} is not finite"
        if plane is Plane.PUNCTURED:
            excluded = min(abs(z - p) for p in PUNCTURES) <= 1e-9
        else:
            excluded = abs(z.real) <= 1e-9 and abs(z.imag - round(z.imag)) <= 1e-9
        if excluded:
            return f"path point {z} hits the excluded set of {plane.value}"
    if any(a == b for a, b in zip(points, points[1:])):
        return "zero-length segment in path"
    return None


def reference_scan_tokens(text: str, token_re: re.Pattern, error=WordSyntaxError):
    """Oracle for ``scan_tokens``: the two-step scan, which finds each token as a run of ``\\S+`` and then
    matches it against ``token_re``, anchored by ``$``, with the name as group 1 and the exponent as group 2."""
    for m in re.finditer(r"\S+", text):
        tok, col = m.group(0), m.start() + 1
        tm = token_re.match(tok)
        if tm is None:
            raise error(f"bad token {tok!r}", col)
        exp = 1 if tm.group(2) is None else Decimal(tm.group(2))  # exact, with no limit on its digits, as int() has
        if not (-(2**63) <= exp <= 2**63 - 1):
            raise error(f"exponent out of range in {tok!r}", col)
        yield tm.group(1), int(exp)


@contextlib.contextmanager
def reference_scanner():
    """``parse_word`` and ``parse_braid`` run on ``reference_scan_tokens`` and anchored token patterns inside."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "scan_tokens", reference_scan_tokens)
        mp.setattr(braids, "scan_tokens", reference_scan_tokens)
        mp.setattr(words, "_TOKEN_RE", re.compile(r"(a[12])(?:\^([+-]?\d+))?$"))
        mp.setattr(braids, "_BRAID_TOKEN_RE", re.compile(r"(s[12])(?:\^([+-]?\d+))?$"))
        yield


def checked_reduce(raw) -> FreeWord:
    """Oracle for ``reduce``, which builds its result without the constructors' checks: the same merge, with the
    word and each of its terms built through them."""
    stack: list[list] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] is gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return FreeWord(tuple(Term(g, e) for g, e in stack))


def reference_decompose(w: FreeWord) -> list[tuple[SyllableKind, tuple[Term, ...]]]:
    """Oracle for ``syllables.decompose``: the terms grouped by equal exponent, each term of
    |exponent| >= 2 a big power on its own, a group of +-1 terms a run if it has two or more."""
    out = []
    for exponent, group in groupby(w.terms, key=attrgetter("exponent")):
        group = tuple(group)
        if abs(exponent) >= 2:
            out += [(SyllableKind.BIG_POWER, (t,)) for t in group]
        else:
            out.append((SyllableKind.ALTERNATING_RUN if len(group) >= 2 else SyllableKind.SINGLETON, group))
    return out


def reference_permutation(b: BraidWord) -> tuple[int, int, int]:
    """Oracle for ``permutation``: the slot of strand 1, 2, 3 after each letter sigma_i swaps slots i - 1 and i."""
    slot = [0, 1, 2]
    for letter in b.letters:
        i = 0 if letter.gen is BraidGenerator.SIGMA1 else 1
        for s in range(3):
            if slot[s] == i:
                slot[s] = i + 1
            elif slot[s] == i + 1:
                slot[s] = i
    return tuple(slot)


def numeric_cstar(b: BraidWord) -> FreeWord:
    """Oracle for ``cstar``: the word read from the ray crossings of the braid's cross-ratio curve."""
    return curve_to_word(cross_ratio_curve(braid_to_strands(b)))


def random_word_max_terms(rng: random.Random, max_terms: int, max_exp: int = 4) -> FreeWord:
    terms = []
    gen = rng.choice(list(Generator))
    for _ in range(rng.randint(0, max_terms)):
        terms.append(Term(gen, rng.choice((1, -1)) * rng.randint(1, max_exp)))
        gen = Generator.A2 if gen is Generator.A1 else Generator.A1
    return FreeWord(tuple(terms))


# pure-braid generators: A12 = s1^2, A23 = s2^2, A13 = s2 s1^2 s2^-1
PURE_GENERATORS = (
    parse_braid("s1^2"),
    parse_braid("s2^2"),
    parse_braid("s2 s1^2 s2^-1"),
)


def random_pure_braid(rng: random.Random, max_letters: int) -> BraidWord:
    b = BraidWord()
    while True:
        g = rng.choice(PURE_GENERATORS)
        if rng.random() < 0.5:
            g = g.inverse()
        if len(b.letters) + len(g.letters) > max_letters:
            return b
        b = b * g


@st.composite
def reduced_words(draw, max_terms: int = 20, max_exp: int = 5) -> FreeWord:
    n = draw(st.integers(0, max_terms))
    first = draw(st.sampled_from(list(Generator)))
    terms = []
    gen = first
    for _ in range(n):
        exp = draw(st.integers(-max_exp, max_exp).filter(lambda e: e != 0))
        terms.append(Term(gen, exp))
        gen = Generator.A2 if gen is Generator.A1 else Generator.A1
    return FreeWord(tuple(terms))


@st.composite
def pure_braids(draw, max_factors: int = 8) -> BraidWord:
    """Products of up to ``max_factors`` pure generators or their inverses, with or without the full twist."""
    b = BraidWord()
    for g, inverted in draw(st.lists(st.tuples(st.sampled_from(PURE_GENERATORS), st.booleans()), max_size=max_factors)):
        b = b * (g.inverse() if inverted else g)
    return b * full_twist() if draw(st.booleans()) else b

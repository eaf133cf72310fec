"""Pure 3-braids, their induced words in the free group, and the strand picture.

``cstar`` rewrites a pure braid into the free group on a1, a2 letter by letter
through a Reidemeister-Schreier table for P3 inside B3 (Birman 1974) over the
transversal 1, s1, s2, s1 s2, s2 s1, s1 s2 s1.  Six of its images are written
out, and two rules give the other 18 rows: a letter swaps the slots at its two
places, and s^-1 taken from p s returns to p with the inverse image.  Its
kernel is generated by the full twist (s1 s2 s1)^2.  The picture traces three
strands from (-1, 0, 1), each letter a half-turn of the pair at its slots, and
maps them to the cross-ratio curve 2 (g2 - g1)/(g3 - g1) - 1, whose word, read
through the covering, is the tests' oracle for the table.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import re

from slalom.covering import MAX_CURVE_POINTS, Plane, PolyPath
from slalom.syllables import BoundaryCondition, BoundConstants, LambdaBounds, lambda_bounds
from slalom.words import (FreeWord, Generator, WordSyntaxError, _check_tuple, _column, _new, _set, _Value, reduce,
                          scan_tokens)

_SLOTS = (-1.0, 0.0, 1.0)
_ID = (0, 1, 2)  # the identity permutation, where the walk of a pure braid starts and ends
_HALF_GAP = 0.5          # half the distance between adjacent slots
_TURN_RADIUS_MIN = 0.35  # pair radius at mid-turn, keeps strands apart
MAX_BRAID_LETTERS = 10**4  # parse_braid's budget, checked before a power is expanded

_BRAID_TOKEN_RE = re.compile(r"(s[12])(?:\^([+-]?\d+))?")


class BraidSyntaxError(WordSyntaxError):
    """Malformed braid text; ``column`` is the 1-based position of the offender."""


class PurityError(ValueError):
    """The braid does not return every strand to its starting slot."""


class BraidGenerator(enum.Enum):
    SIGMA1 = "s1"
    SIGMA2 = "s2"


class BraidLetter(_Value):
    __match_args__ = ("gen", "sign")

    def __init__(self, gen: BraidGenerator, sign: int):
        _set(self, gen, sign)
        if not isinstance(gen, BraidGenerator):
            raise ValueError(f"letter generator must be a BraidGenerator member; got {gen!r}")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError("letter sign must be +-1")


class BraidWord(_Value):
    __match_args__ = ("letters",)

    def __init__(self, letters: tuple[BraidLetter, ...] = ()):
        _set(self, letters)
        _check_tuple(letters, "braid letters", BraidLetter)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(BraidLetter(l.gen, -l.sign) for l in reversed(self.letters)))


_LETTERS = {g.value: (BraidLetter(g, 1), BraidLetter(g, -1)) for g in BraidGenerator}  # by name, then sign < 0


def parse_braid(text: str) -> BraidWord:
    """Tokens ``s1``/``s2`` with optional ``^<int>``, expanded to at most ``MAX_BRAID_LETTERS`` unit letters.

    Checked by construction: ``BraidWord`` checks for a tuple of ``BraidLetter`` values, built here from ``_LETTERS``.
    """
    letters: list[BraidLetter] = []
    for i, (name, exp) in enumerate(scan_tokens(text, _BRAID_TOKEN_RE, BraidSyntaxError)):
        if len(letters) + abs(exp) > MAX_BRAID_LETTERS:
            raise ValueError(f"braid exceeds {MAX_BRAID_LETTERS} letters at column {_column(text, i)}")
        letters.extend([_LETTERS[name][exp < 0]] * abs(exp))
    return _new(BraidWord, letters=tuple(letters))


def format_braid(b: BraidWord) -> str:
    return " ".join(l.gen.value if l.sign == 1 else f"{l.gen.value}^-1" for l in b.letters)


def full_twist() -> BraidWord:
    """The center generator (s1 s2 s1)^2."""
    return parse_braid("s1 s2 s1 s1 s2 s1")


def _schreier_table(images: dict) -> dict:
    """(state, generator's ``_value_``, sign) -> (next state, image): each row from ``images`` by the two rules."""
    states = {p: p for p in itertools.permutations(range(3))}  # one tuple per state: key compares stop at ``is``
    table = {}
    for i, gen in enumerate(g.value for g in BraidGenerator):
        for p in states:
            q = states[tuple(i + 1 if s == i else i if s == i + 1 else s for s in p)]
            image = images.get((p, gen), ())
            table[p, gen, 1] = (q, image)
            table[q, gen, -1] = (p, tuple((g, -e) for g, e in reversed(image)))
    return table


# nonempty images rep(p) s rep(p s)^-1 by (p, s), keyed by ``_value_``: hashing the member more than doubles the walk
_SCHREIER = _schreier_table({
    ((0, 2, 1), "s2"): ((Generator.A2, 1),),
    ((1, 0, 2), "s1"): ((Generator.A1, 1),),
    ((1, 2, 0), "s1"): ((Generator.A1, -1), (Generator.A2, -1)),
    ((2, 0, 1), "s2"): ((Generator.A2, -1), (Generator.A1, -1)),
    ((2, 1, 0), "s1"): ((Generator.A2, 1),),
    ((2, 1, 0), "s2"): ((Generator.A1, 1),),
})


def permutation(b: BraidWord) -> tuple[int, int, int]:
    """Image in S3 as the tuple (slot of strand 1, 2, 3): the state in which the ``_SCHREIER`` walk ends."""
    state = _ID
    for letter in b.letters:
        state = _SCHREIER[state, letter.gen._value_, letter.sign][0]
    return state


def braid_to_strands(b: BraidWord, samples_per_crossing: int = 32) -> tuple[tuple[complex, ...], ...]:
    """Trace the strand motions of a pure braid from base point (-1, 0, 1), one tuple of points per strand.

    Each letter rotates the pair at the affected slots by a half-turn about
    their midpoint (counterclockwise for positive sign); the pair radius dips
    to _TURN_RADIUS_MIN mid-turn so the moving strands clear the static one.
    Letters x ``samples_per_crossing``, and ``samples_per_crossing`` itself, are at most
    ``MAX_CURVE_POINTS``, checked before anything is built.
    """
    if not isinstance(samples_per_crossing, int) or samples_per_crossing < 16:
        raise ValueError(f"samples_per_crossing must be an int >= 16; got {samples_per_crossing!r}")
    if max(len(b.letters), 1) * samples_per_crossing > MAX_CURVE_POINTS:
        raise ValueError(f"strands exceed {MAX_CURVE_POINTS} points; use fewer letters or samples")
    if (perm := permutation(b)) != _ID:
        raise PurityError(f"braid {format_braid(b)!r} is not pure: permutation {perm}")
    # the half-turn factors (rotation, radius scale) depend only on the sign and the sample
    ts = [j / samples_per_crossing for j in range(1, samples_per_crossing + 1)]
    scales = [(_HALF_GAP - (_HALF_GAP - _TURN_RADIUS_MIN) * math.sin(math.pi * t)) / _HALF_GAP for t in ts]
    turns = {sign: [(cmath.exp(1j * sign * math.pi * t), r) for t, r in zip(ts, scales)] for sign in (1, -1)}
    slot = [0, 1, 2]  # strand -> slot
    paths: list[list[complex]] = [[complex(_SLOTS[s])] for s in slot]
    for letter in b.letters:
        i = 0 if letter.gen is BraidGenerator.SIGMA1 else 1
        moving = [s for s in range(3) if slot[s] in (i, i + 1)]
        static = next(s for s in range(3) if s not in moving)
        center = complex((_SLOTS[i] + _SLOTS[i + 1]) / 2)
        for s in moving:
            arm = complex(_SLOTS[slot[s]]) - center
            paths[s].extend(center + arm * rot * r for rot, r in turns[letter.sign])
        paths[static].extend([paths[static][-1]] * samples_per_crossing)
        slot[moving[0]], slot[moving[1]] = slot[moving[1]], slot[moving[0]]
    return tuple(tuple(p) for p in paths)


def cross_ratio_curve(strands: tuple[tuple[complex, ...], ...]) -> PolyPath:
    """Pointwise 2 (g2 - g1)/(g3 - g1) - 1 over three strands of equal length; a loop at 0 for pure braids."""
    g1, g2, g3 = strands
    pts = []
    for a, b, c in zip(g1, g2, g3, strict=True):  # strands of unequal length raise ValueError
        den = c - a
        if abs(den) < 1e-9:
            raise ValueError("degenerate configuration: strands 1 and 3 collide")
        pts.append(2 * (b - a) / den - 1)  # strand 2 meeting strand 1 or 3 gives -1 or 1, which PolyPath rejects
    return PolyPath(tuple(pts), Plane.PUNCTURED)


def cstar(b: BraidWord) -> FreeWord:
    """The induced word of a pure braid, the reduced product of the images along its ``_SCHREIER`` walk.

    The word read from the strand picture, ``cross_ratio_curve(braid_to_strands(b))``, is the tests' oracle.
    """
    state, raw = _ID, []
    for letter in b.letters:
        state, image = _SCHREIER[state, letter.gen._value_, letter.sign]
        raw.extend(image)
    if state != _ID:
        raise PurityError(f"braid {format_braid(b)!r} is not pure: permutation {state}")
    return reduce(raw)


def braid_invariant(b: BraidWord, bc: BoundaryCondition, k: BoundConstants = BoundConstants()) -> LambdaBounds:
    """Lambda bounds of the induced word; a conformal invariant of the braid."""
    return lambda_bounds(cstar(b), bc, k)

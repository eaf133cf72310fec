"""Syllable decomposition of reduced words and the Lambda invariant.

Syllables partition a reduced word into three kinds: a single term with
|exponent| >= 2 (big power), a maximal run of >= 2 consecutive terms all
carrying the same exponent +1 or all -1 (alternating run), and remaining
+-1 terms (singletons).  Lambda(w) is the sum of log(1 + degree) over the
syllables.  The two-sided comparison with the extremal lengths lambda_tr
and lambda_pb holds up to configurable positive constants, outside the
exceptional words where the extremal length vanishes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from slalom.words import FreeWord, Term


class SyllableKind(enum.Enum):
    BIG_POWER = "big_power"
    ALTERNATING_RUN = "alternating_run"
    SINGLETON = "singleton"


class BoundaryCondition(enum.Enum):
    TOTALLY_REAL = "tr"
    PERPENDICULAR_BISECTOR = "pb"


class WordClass(enum.Enum):
    GENERIC = "generic"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class Syllable:
    terms: tuple[Term, ...]
    kind: SyllableKind

    def __post_init__(self):
        if self.kind is SyllableKind.BIG_POWER:
            if len(self.terms) != 1 or abs(self.terms[0].exponent) < 2:
                raise ValueError("big power must be one term with |exponent| >= 2")
        elif self.kind is SyllableKind.ALTERNATING_RUN:
            exps = {t.exponent for t in self.terms}
            if len(self.terms) < 2 or exps not in ({1}, {-1}):
                raise ValueError("alternating run needs >= 2 terms of equal exponent +-1")
        else:
            if len(self.terms) != 1 or abs(self.terms[0].exponent) != 1:
                raise ValueError("singleton must be one term with exponent +-1")

    @property
    def degree(self) -> int:
        return sum(abs(t.exponent) for t in self.terms)


@dataclass(frozen=True)
class SyllableDecomposition:
    syllables: tuple[Syllable, ...]
    source: FreeWord


@dataclass(frozen=True)
class BoundConstants:
    """Empirical bracket for the comparison constants; the theory asserts
    existence only, so the defaults are declared placeholders."""

    c_minus: float = 0.1
    c_plus: float = 10.0

    def __post_init__(self):
        if not (0 < self.c_minus <= self.c_plus):
            raise ValueError("need 0 < c_minus <= c_plus")


@dataclass(frozen=True)
class LambdaBounds:
    lambda_value: float
    lower: float
    upper: float
    exceptional: bool


def decompose(w: FreeWord) -> SyllableDecomposition:
    """Unique partition of ``w`` into syllables, scanning left to right."""
    terms = w.terms
    out: list[Syllable] = []
    i = 0
    while i < len(terms):
        if abs(terms[i].exponent) >= 2:
            out.append(Syllable((terms[i],), SyllableKind.BIG_POWER))
            i += 1
            continue
        j = i + 1
        while j < len(terms) and terms[j].exponent == terms[i].exponent:
            j += 1
        if j - i >= 2:
            out.append(Syllable(tuple(terms[i:j]), SyllableKind.ALTERNATING_RUN))
        else:
            out.append(Syllable((terms[i],), SyllableKind.SINGLETON))
        i = j if j - i >= 2 else i + 1
    return SyllableDecomposition(tuple(out), w)


def lambda_invariant(w: FreeWord) -> float:
    return sum(math.log(1 + s.degree) for s in decompose(w).syllables)


def classify_exceptional(w: FreeWord, bc: BoundaryCondition) -> WordClass:
    """Words whose extremal length vanishes for the given boundary condition."""
    if bc is BoundaryCondition.TOTALLY_REAL:
        exceptional = len(w.terms) <= 1
    else:
        exps = {t.exponent for t in w.terms}
        exceptional = exps in (set(), {1}, {-1})
    return WordClass.EXCEPTIONAL if exceptional else WordClass.GENERIC


def lambda_bounds(w: FreeWord, bc: BoundaryCondition, k: BoundConstants = BoundConstants()) -> LambdaBounds:
    lam = lambda_invariant(w)
    if classify_exceptional(w, bc) is WordClass.EXCEPTIONAL:
        return LambdaBounds(lam, 0.0, 0.0, True)
    return LambdaBounds(lam, k.c_minus * lam, k.c_plus * lam, False)

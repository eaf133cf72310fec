"""Syllable decomposition of reduced words and the Lambda invariant.

Syllables partition a reduced word into three kinds: a single term with
|exponent| >= 2 (big power), a maximal run of >= 2 consecutive terms all
carrying the same exponent +1 or all -1 (alternating run), and remaining
+-1 terms (singletons).  Lambda(w) is the sum of log(1 + degree) over the
syllables.  One private scan over the terms writes this rule, with each
syllable's degree: |exponent| for a big power, the number of terms for a
run or singleton.  ``decompose`` builds its syllables from the scan, and
``lambda_invariant`` reads the degrees straight from it, with no syllable
built.  The two-sided comparison with the extremal lengths lambda_tr and
lambda_pb holds up to configurable positive constants, outside the
exceptional words where the extremal length vanishes.
"""

from __future__ import annotations

import enum
import math

from slalom.words import FreeWord, Term, _check_tuple, _new, _set, _Value


class SyllableKind(enum.Enum):
    BIG_POWER = "big_power"
    ALTERNATING_RUN = "alternating_run"
    SINGLETON = "singleton"


_BIG_POWER, _ALTERNATING_RUN, _SINGLETON = SyllableKind  # bound once: a read of a member through the class costs more


class BoundaryCondition(enum.Enum):
    TOTALLY_REAL = "tr"
    PERPENDICULAR_BISECTOR = "pb"


class Syllable(_Value):
    __match_args__ = ("terms", "kind")

    def __init__(self, terms: tuple[Term, ...], kind: SyllableKind):
        _set(self, terms, kind)
        _check_tuple(terms, "syllable terms", Term)
        if kind is _BIG_POWER:
            if len(terms) != 1 or abs(terms[0].exponent) < 2:
                raise ValueError("big power must be one term with |exponent| >= 2")
        elif kind is _ALTERNATING_RUN:
            exps = {t.exponent for t in terms}
            if len(terms) < 2 or exps not in ({1}, {-1}):
                raise ValueError("alternating run needs >= 2 terms of equal exponent +-1")
        elif kind is _SINGLETON:
            if len(terms) != 1 or abs(terms[0].exponent) != 1:
                raise ValueError("singleton must be one term with exponent +-1")
        else:
            raise ValueError(f"syllable kind must be a SyllableKind member; got {kind!r}")

    @property
    def degree(self) -> int:
        return sum(abs(t.exponent) for t in self.terms)


class SyllableDecomposition(_Value):
    __match_args__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...]):
        _set(self, syllables)


class BoundConstants(_Value):
    """Empirical bracket for the comparison constants; the theory asserts
    existence only, so the defaults are declared placeholders."""

    __match_args__ = ("c_minus", "c_plus")

    def __init__(self, c_minus: float = 0.1, c_plus: float = 10.0):
        _set(self, c_minus, c_plus)
        if not (0 < c_minus <= c_plus < math.inf):
            raise ValueError("need 0 < c_minus <= c_plus, both finite")


class LambdaBounds(_Value):
    __match_args__ = ("lambda_value", "lower", "upper", "exceptional")

    def __init__(self, lambda_value: float, lower: float, upper: float, exceptional: bool):
        _set(self, lambda_value, lower, upper, exceptional)


def _spans(terms: tuple[Term, ...]):
    """(start, stop, kind, degree) of each syllable of ``terms``, scanning left to right."""
    i, n = 0, len(terms)
    while i < n:
        e, j = terms[i].exponent, i + 1
        if abs(e) >= 2:
            yield i, j, _BIG_POWER, abs(e)
        else:
            while j < n and terms[j].exponent == e:
                j += 1
            yield i, j, _ALTERNATING_RUN if j - i >= 2 else _SINGLETON, j - i
        i = j


def decompose(w: FreeWord) -> SyllableDecomposition:
    """Unique partition of ``w`` into syllables.

    Checked by construction: each syllable is a slice of the word's tuple of terms, of the kind ``_spans`` gives it
    by the rule that ``Syllable`` checks.
    """
    terms = w.terms
    return SyllableDecomposition(tuple([_new(Syllable, terms=terms[i:j], kind=kind)
                                        for i, j, kind, _ in _spans(terms)]))


def lambda_invariant(w: FreeWord) -> float:
    """Sum of log(1 + degree) over the syllables of ``w``, within 4.5e-16 relative of the exact sum."""
    return math.fsum(math.log(1 + d) for _, _, _, d in _spans(w.terms))


def classify_exceptional(w: FreeWord, bc: BoundaryCondition) -> bool:
    """Whether the extremal length of ``w`` vanishes for the given boundary condition."""
    if bc is BoundaryCondition.TOTALLY_REAL:
        return len(w.terms) <= 1
    if bc is BoundaryCondition.PERPENDICULAR_BISECTOR:
        return {t.exponent for t in w.terms} in (set(), {1}, {-1})
    raise ValueError(f"boundary condition must be a BoundaryCondition member; got {bc!r}")


def lambda_bounds(w: FreeWord, bc: BoundaryCondition, k: BoundConstants = BoundConstants()) -> LambdaBounds:
    """Lambda of ``w`` and its bracket [c_minus Lambda, c_plus Lambda]; ``OverflowError`` if c_plus Lambda is inf."""
    if not isinstance(k, BoundConstants):
        raise ValueError(f"bound constants must be a BoundConstants value; got {k!r}")
    lam = lambda_invariant(w)
    if classify_exceptional(w, bc):
        return LambdaBounds(lam, 0.0, 0.0, True)
    if math.isinf(upper := k.c_plus * lam):
        raise OverflowError(f"upper bound c_plus x Lambda = {k.c_plus!r} x {lam!r} exceeds the float range")
    return LambdaBounds(lam, k.c_minus * lam, upper, False)

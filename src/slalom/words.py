"""Reduced words in the free group on two generators a1, a2.

A word is a sequence of terms a_j^n with nonzero integer exponents in
which consecutive terms use different generators.  All values are
immutable; the operations are pure functions.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_TOKEN_RE = re.compile(r"(a[12])(?:\^([+-]?\d+))?(?!\S)|\S+")


class WordSyntaxError(ValueError):
    """Malformed word text; ``column`` is the 1-based position of the offender."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class Generator(enum.Enum):
    A1 = "a1"
    A2 = "a2"


@dataclass(frozen=True)
class Term:
    gen: Generator
    exponent: int

    def __post_init__(self):
        e = self.exponent
        if not isinstance(self.gen, Generator) or not isinstance(e, int) or isinstance(e, bool) or e == 0:
            raise ValueError(f"term needs a Generator member and a nonzero int exponent; got {self!r}")
        if not (_INT64_MIN <= e <= _INT64_MAX):
            raise OverflowError("term exponent exceeds 64-bit range")


def _check_tuple(values, what: str, cls: type | None = None) -> None:
    """Refuse ``values``, the field ``what``, with ``ValueError`` unless it is a tuple, of ``cls`` values if given."""
    if not isinstance(values, tuple):
        raise ValueError(f"{what} must be a tuple; got {type(values).__name__}")
    if cls and (bad := [v for v in values if not isinstance(v, cls)]):
        raise ValueError(f"{what} must be {cls.__name__} values; got {bad[0]!r}")


@dataclass(frozen=True)
class FreeWord:
    """Reduced word; the empty tuple is the identity."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        _check_tuple(self.terms, "word terms", Term)
        for prev, cur in zip(self.terms, self.terms[1:]):
            if prev.gen is cur.gen:
                raise ValueError("word is not reduced: consecutive terms share a generator")

    def letter_length(self) -> int:
        """Total number of generator letters, sum of |exponent|."""
        return sum(abs(t.exponent) for t in self.terms)


def _new(cls, **fields):
    """A ``cls`` of ``fields`` built unchecked: only for a value known to pass every check its constructor runs."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def reduce(raw: Iterable[tuple[Generator, int]]) -> FreeWord:
    """Merge adjacent (generator, exponent) pairs of one generator and drop zeros; a result past 64 bits overflows.

    Checked by construction: the merge leaves a tuple of terms with no zero and no two adjacent of one generator,
    which ``FreeWord`` checks; a ``Generator`` member and an ``int`` within 64 bits pass ``Term``'s checks, and
    ``Term`` itself builds any other pair, so it raises what it would raise.  Each unchecked term gets its two
    fields by ``object.__setattr__``, which keeps its attributes inline, so later reads of them stay fast.
    """
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
    terms = []
    for g, e in stack:
        # must pass only what Term accepts (type() is stricter than isinstance: no bool, no int subclass);
        # TestReduce::test_builds_what_the_constructors_build pins it against the checked build
        if type(g) is Generator and type(e) is int and _INT64_MIN <= e <= _INT64_MAX:
            t = object.__new__(Term)
            object.__setattr__(t, "gen", g)
            object.__setattr__(t, "exponent", e)
        else:
            t = Term(g, e)
        terms.append(t)
    return _new(FreeWord, terms=tuple(terms))


def scan_tokens(text: str, token_re: re.Pattern, error=WordSyntaxError) -> Iterator[tuple[str, int, int]]:
    """Yield (name, exponent, column) for each whitespace-separated token of ``text``, lazily, in one regex pass.

    ``token_re`` is a good token, with the name as group 1 and the exponent as
    group 2, followed by whitespace or the end, or else the catch-all ``\\S+``,
    which matches a whole bad token with no name; a bad token, or an exponent
    outside 64 bits, raises ``error``.
    """
    for m in token_re.finditer(text):
        name, digits = m.groups()
        col = m.start() + 1
        if name is None:
            raise error(f"bad token {m.group()!r}", col)
        exp = 1 if digits is None else int(digits)
        if not (_INT64_MIN <= exp <= _INT64_MAX):
            raise error(f"exponent out of range in {m.group()!r}", col)
        yield name, exp, col


def parse_word(text: str) -> FreeWord:
    """Parse whitespace-separated tokens ``a1``/``a2`` with optional ``^<int>``."""
    return reduce((Generator(name), exp) for name, exp, _ in scan_tokens(text, _TOKEN_RE))


def concat(u: FreeWord, v: FreeWord) -> FreeWord:
    return reduce((t.gen, t.exponent) for t in u.terms + v.terms)


def invert(u: FreeWord) -> FreeWord:
    return reduce((t.gen, -t.exponent) for t in reversed(u.terms))  # negating -2^63 overflows there


def format_word(u: FreeWord) -> str:
    """Canonical string; ``parse_word`` round-trips it. Identity formats as ''."""
    return " ".join(t.gen.value if t.exponent == 1 else f"{t.gen.value}^{t.exponent}" for t in u.terms)

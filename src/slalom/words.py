"""Reduced words in the free group on two generators a1, a2.

A word is a sequence of terms a_j^n with nonzero integer exponents in
which consecutive terms use different generators.  All values are
immutable; the operations are pure functions.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from operator import attrgetter
from typing import Iterable, Iterator

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_TOKEN_RE = re.compile(r"(a[12])(?:\^([+-]?\d+))?")
_RUN = re.compile(r"\S+")
# characters a scan splits at a time; the longest token a memo keeps; the largest |exponent| of a shared term
_SLICE, _MEMO_TOKEN, _SMALL = 4096, 32, 64


class WordSyntaxError(ValueError):
    """Malformed word text; ``column`` is the 1-based position of the offender."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class Generator(enum.Enum):
    A1 = "a1"
    A2 = "a2"


_GENERATORS = {g.value: g for g in Generator}  # by name: a dict lookup, not the Enum metaclass call
_TERMS: dict[str, dict[int, "Term"]] = {name: {} for name in _GENERATORS}  # reduce's shared terms, by name and int


class _Value:
    """Base of slalom's value types, which behave as frozen dataclasses without loading ``dataclasses``.

    A type names its fields once, in ``__match_args__``; its ``__init__`` sets them with ``_set`` and then runs the
    type's checks, if it has any; ``_new`` skips them, as does ``reduce`` for its terms.  Values are immutable, equal
    when of one class with equal field tuples, hashed by that tuple, and shown as ``Type(field=value, ...)``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__match_args__)  # the fields, read in C; one field it returns bare
        cls._astuple = staticmethod(get if len(cls.__match_args__) > 1 else lambda value: (get(value),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._astuple(self) == other._astuple(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"


def _set(value: _Value, *values) -> None:
    """Set the fields of a new ``value``, named by its type's ``__match_args__``, to ``values`` in that order, one
    ``object.__setattr__`` each, as the generated ``__init__`` of a frozen dataclass does."""
    for i, name in enumerate(type(value).__match_args__):
        object.__setattr__(value, name, values[i])


class Term(_Value):
    __match_args__ = ("gen", "exponent")

    def __init__(self, gen: Generator, exponent: int):
        _set(self, gen, exponent)
        e = exponent
        if not isinstance(gen, Generator) or not isinstance(e, int) or isinstance(e, bool) or e == 0:
            raise ValueError(f"term needs a Generator member and a nonzero int exponent; got {self!r}")
        if not (_INT64_MIN <= e <= _INT64_MAX):
            raise OverflowError("term exponent exceeds 64-bit range")


def _check_tuple(values, what: str, cls: type | None = None) -> None:
    """Refuse ``values``, the field ``what``, with ``ValueError`` unless it is a tuple, of ``cls`` values if given."""
    if not isinstance(values, tuple):
        raise ValueError(f"{what} must be a tuple; got {type(values).__name__}")
    if cls and (bad := [v for v in values if not isinstance(v, cls)]):
        raise ValueError(f"{what} must be {cls.__name__} values; got {bad[0]!r}")


class FreeWord(_Value):
    """Reduced word; the empty tuple is the identity."""

    __match_args__ = ("terms",)

    def __init__(self, terms: tuple[Term, ...] = ()):
        _set(self, terms)
        _check_tuple(terms, "word terms", Term)
        for prev, cur in zip(terms, terms[1:]):
            if prev.gen is cur.gen:
                raise ValueError("word is not reduced: consecutive terms share a generator")

    def letter_length(self) -> int:
        """Total number of generator letters, sum of |exponent|."""
        return sum(abs(t.exponent) for t in self.terms)


def _new(cls, **fields):
    """A ``cls`` of ``fields``, in ``__match_args__`` order, built unchecked: only for a value its checks pass."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def reduce(raw: Iterable[tuple[Generator, int]]) -> FreeWord:
    """Merge adjacent (generator, exponent) pairs of one generator and drop zeros; a result past 64 bits overflows.

    Checked by construction: the merge leaves a tuple of terms with no zero and no two adjacent of one generator,
    which ``FreeWord`` checks; a ``Generator`` member and an ``int`` within 64 bits pass ``Term``'s checks, and
    ``Term`` itself builds any other pair, so it raises what it would raise.  A term is the one unchecked build not
    through ``_new``, whose ``__dict__.update`` would give it a dict of its own: 248 bytes, not 96, and slower reads.
    A term of |exponent| <= ``_SMALL`` is built by ``Term`` once and shared, as values are immutable: ``_TERMS`` keys
    it by ``_value_`` and the int, not by the member, whose Python-level ``__hash__`` costs more than the build.
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
        if type(g) is not Generator or type(e) is not int or not _INT64_MIN <= e <= _INT64_MAX:
            t = Term(g, e)
        elif -_SMALL <= e <= _SMALL:
            t = (table := _TERMS[g._value_]).get(e) or table.setdefault(e, Term(g, e))
        else:
            t = object.__new__(Term)
            object.__setattr__(t, "gen", g)
            object.__setattr__(t, "exponent", e)
        terms.append(t)
    return _new(FreeWord, terms=tuple(terms))


def _short(digits: str) -> str:
    """``digits``, a sign and decimal digits, in at most 20 characters, of the same value or else past 64 bits.

    2^63 has 19 digits, and int() refuses a text of over 4300 digits, with no column: a digit before the last 19
    other than a zero puts the value past 64 bits, and zeros there keep it.
    """
    head = digits[:-19]
    return "9" * 20 if any(map(int, head.lstrip("+-"))) else head[:1] + digits[-19:]


@functools.lru_cache(maxsize=4)
def _reader(token_re: re.Pattern):
    """The memo of ``token_re``'s answer per token: (name, exponent) or the refusal; ``__wrapped__`` keeps none."""
    @functools.lru_cache(maxsize=1024)
    def read(tok: str):
        m = token_re.fullmatch(tok)
        if m is None:
            return f"bad token {tok!r}"
        name, digits = m.groups()
        exp = 1 if digits is None else int(digits if len(digits) <= 20 else _short(digits))
        return (name, exp) if _INT64_MIN <= exp <= _INT64_MAX else f"exponent out of range in {tok!r}"
    return read


def _column(text: str, index: int, start: int = 0) -> int:
    """The 1-based column of token ``index``, counting from 0, of ``text[start:]``, found only for a refusal."""
    return next(itertools.islice(_RUN.finditer(text, start), index, None)).start() + 1


def scan_tokens(text: str, token_re: re.Pattern, error=WordSyntaxError) -> Iterator[tuple[str, int]]:
    """Yield (name, exponent) for each whitespace-separated token of ``text``, lazily, read once per distinct token.

    ``token_re`` matches a whole good token, name as group 1 and exponent as group 2; any other, or an exponent past
    64 bits, raises ``error`` at its column.  ``_reader`` memoises tokens of at most ``_MEMO_TOKEN`` characters; the
    text is split ``_SLICE`` characters at a time, cut at whitespace, so the scan holds a bounded list of tokens.
    """
    read, start = _reader(token_re), 0
    while start < len(text):
        end = m.end() if (m := _RUN.match(text, start + _SLICE)) else start + _SLICE  # the end of a token, or a space
        toks = text[start:end].split()
        for tok in toks:
            got = read(tok) if len(tok) <= _MEMO_TOKEN else read.__wrapped__(tok)
            if got.__class__ is str:
                raise error(got, _column(text, toks.index(tok), start))  # an earlier place of tok would have raised
            yield got
        start = end


def parse_word(text: str) -> FreeWord:
    """Parse whitespace-separated tokens ``a1``/``a2`` with optional ``^<int>``, each distinct one read once."""
    return reduce((_GENERATORS[name], exp) for name, exp in scan_tokens(text, _TOKEN_RE))


def concat(u: FreeWord, v: FreeWord) -> FreeWord:
    return reduce((t.gen, t.exponent) for t in u.terms + v.terms)


def invert(u: FreeWord) -> FreeWord:
    return reduce((t.gen, -t.exponent) for t in reversed(u.terms))  # negating -2^63 overflows there


def format_word(u: FreeWord) -> str:
    """Canonical string; ``parse_word`` round-trips it. Identity formats as ''."""
    return " ".join(t.gen._value_ if t.exponent == 1 else f"{t.gen._value_}^{t.exponent}" for t in u.terms)

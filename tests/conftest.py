import random

import pytest
from hypothesis import strategies as st

from slalom.braids import BraidWord, parse_braid
from slalom.covering import BASE_LIFT_POINT, HalfPlane, PolyPath, lift_path, slalom_decompose
from slalom.words import FreeWord, Generator, Term, parse_word, reduce

FIGURE2_TEXT = "a2^-1 a1^2 a2^-3 a1^-1 a2^-1 a1^-1 a2 a1^-1"


@pytest.fixture
def figure2_word() -> FreeWord:
    return parse_word(FIGURE2_TEXT)


def lift_read_word(path: PolyPath) -> FreeWord:
    """Oracle for ``curve_to_word``: the word of a loop at 0 read from the slalom pieces of its lift.

    A left piece moving up n components carries a1^n, a right piece moving
    down n components carries a2^n.
    """
    if path.is_constant:
        return FreeWord()
    raw = []
    for p in slalom_decompose(lift_path(path, BASE_LIFT_POINT)).pieces:
        if p.half_plane is HalfPlane.LEFT:
            raw.append((Generator.A1, p.end_component - p.start_component))
        else:
            raw.append((Generator.A2, p.start_component - p.end_component))
    return reduce(raw)


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

import math
import random

import pytest
from hypothesis import given

from conftest import random_word_max_terms, reduced_words
from slalom.syllables import (
    BoundaryCondition,
    BoundConstants,
    SyllableDecomposition,
    SyllableKind,
    WordClass,
    classify_exceptional,
    decompose,
    lambda_bounds,
    lambda_invariant,
)
from slalom.words import FreeWord, Generator, Term, concat, invert, parse_word

TR = BoundaryCondition.TOTALLY_REAL
PB = BoundaryCondition.PERPENDICULAR_BISECTOR


def check_partition(dec: SyllableDecomposition) -> None:
    """Rule-checking oracle: validates the partition invariants directly."""
    flat = tuple(t for s in dec.syllables for t in s.terms)
    assert flat == dec.source.terms
    for s in dec.syllables:
        if s.kind is SyllableKind.BIG_POWER:
            assert len(s.terms) == 1 and abs(s.terms[0].exponent) >= 2
        elif s.kind is SyllableKind.ALTERNATING_RUN:
            exps = {t.exponent for t in s.terms}
            assert len(s.terms) >= 2 and exps in ({1}, {-1})
        else:
            assert len(s.terms) == 1 and abs(s.terms[0].exponent) == 1
        assert s.degree == sum(abs(t.exponent) for t in s.terms)
    # maximality: no run (or singleton) extendable by an adjacent equal +-1 term
    idx = 0
    boundaries = []
    for s in dec.syllables:
        boundaries.append((idx, idx + len(s.terms), s))
        idx += len(s.terms)
    terms = dec.source.terms
    for start, stop, s in boundaries:
        if s.kind is SyllableKind.ALTERNATING_RUN:
            e = s.terms[0].exponent
            assert start == 0 or terms[start - 1].exponent != e
            assert stop == len(terms) or terms[stop].exponent != e


class TestDecompose:
    def test_figure2(self, figure2_word):
        dec = decompose(figure2_word)
        got = [(s.kind, s.degree) for s in dec.syllables]
        assert got == [
            (SyllableKind.SINGLETON, 1),
            (SyllableKind.BIG_POWER, 2),
            (SyllableKind.BIG_POWER, 3),
            (SyllableKind.ALTERNATING_RUN, 3),
            (SyllableKind.SINGLETON, 1),
            (SyllableKind.SINGLETON, 1),
        ]
        check_partition(dec)

    def test_single_big_power(self):
        dec = decompose(parse_word("a1^5"))
        assert [(s.kind, s.degree) for s in dec.syllables] == [(SyllableKind.BIG_POWER, 5)]

    def test_run_then_singleton(self):
        dec = decompose(parse_word("a1 a2 a1^-1"))
        assert [(s.kind, s.degree) for s in dec.syllables] == [
            (SyllableKind.ALTERNATING_RUN, 2),
            (SyllableKind.SINGLETON, 1),
        ]
        check_partition(dec)

    def test_partition_property_random(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            check_partition(decompose(random_word_max_terms(rng, 30)))


class TestLambda:
    def test_figure2_value(self, figure2_word):
        expected = 3 * math.log(2) + math.log(3) + 2 * math.log(4)
        assert lambda_invariant(figure2_word) == pytest.approx(expected, abs=1e-12)
        assert lambda_invariant(figure2_word) == pytest.approx(5.9506, abs=1e-4)

    def test_identity_and_power(self):
        assert lambda_invariant(FreeWord()) == 0.0
        assert lambda_invariant(parse_word("a1^3")) == pytest.approx(math.log(4), abs=1e-15)

    def test_single_generator_powers(self):
        for gen in ("a1", "a2"):
            for n in range(1, 101):
                for sign in (1, -1):
                    w = parse_word(f"{gen}^{sign * n}")
                    assert lambda_invariant(w) == pytest.approx(math.log(1 + n), abs=1e-12)

    @given(reduced_words())
    def test_invariant_under_inversion(self, w):
        assert lambda_invariant(invert(w)) == pytest.approx(lambda_invariant(w), abs=1e-12)

    def test_subadditivity_with_log2_slack(self):
        rng = random.Random(7)
        slack = math.log(2) + 1e-12
        for _ in range(2000):
            u, v = random_word_max_terms(rng, 10), random_word_max_terms(rng, 10)
            assert lambda_invariant(concat(u, v)) <= lambda_invariant(u) + lambda_invariant(v) + slack


class TestExceptional:
    def test_tr_single_generator_powers(self):
        assert classify_exceptional(parse_word("a1^5"), TR) is WordClass.EXCEPTIONAL
        assert classify_exceptional(parse_word("a2^-7"), TR) is WordClass.EXCEPTIONAL
        assert classify_exceptional(FreeWord(), TR) is WordClass.EXCEPTIONAL
        assert classify_exceptional(parse_word("a1 a2"), TR) is WordClass.GENERIC

    def test_pb_sign_constant(self):
        assert classify_exceptional(parse_word("a1 a2 a1"), PB) is WordClass.EXCEPTIONAL
        assert classify_exceptional(parse_word("a1^-1 a2^-1"), PB) is WordClass.EXCEPTIONAL
        assert classify_exceptional(FreeWord(), PB) is WordClass.EXCEPTIONAL
        assert classify_exceptional(parse_word("a1^5"), PB) is WordClass.GENERIC

    def test_figure2_generic_pb(self, figure2_word):
        assert classify_exceptional(figure2_word, PB) is WordClass.GENERIC


class TestBounds:
    def test_exceptional_tr(self):
        b = lambda_bounds(parse_word("a1^5"), TR)
        assert (b.lambda_value, b.lower, b.upper, b.exceptional) == (
            pytest.approx(math.log(6)), 0.0, 0.0, True)

    def test_identity_pb(self):
        b = lambda_bounds(FreeWord(), PB)
        assert (b.lambda_value, b.lower, b.upper, b.exceptional) == (0.0, 0.0, 0.0, True)

    def test_generic_scaling(self, figure2_word):
        b = lambda_bounds(figure2_word, PB, BoundConstants(0.1, 10.0))
        assert not b.exceptional
        assert b.lambda_value == pytest.approx(5.9506, abs=1e-4)
        assert b.lower == pytest.approx(0.59506, abs=1e-5)
        assert b.upper == pytest.approx(59.506, abs=1e-3)

    def test_bound_constants_validation(self):
        with pytest.raises(ValueError):
            BoundConstants(1.0, 0.5)
        with pytest.raises(ValueError):
            BoundConstants(0.0, 1.0)

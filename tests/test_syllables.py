import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_word_max_terms, reduced_words, reference_decompose
from slalom.syllables import (
    BoundaryCondition,
    BoundConstants,
    Syllable,
    SyllableDecomposition,
    SyllableKind,
    classify_exceptional,
    decompose,
    lambda_bounds,
    lambda_invariant,
)
from slalom.words import FreeWord, Generator, Term, concat, invert, parse_word

TR = BoundaryCondition.TOTALLY_REAL
PB = BoundaryCondition.PERPENDICULAR_BISECTOR


def check_partition(dec: SyllableDecomposition, w: FreeWord) -> None:
    """Rule-checking oracle: validates the invariants of ``dec`` as a partition of ``w`` directly."""
    flat = tuple(t for s in dec.syllables for t in s.terms)
    assert flat == w.terms
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
    terms = w.terms
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
        check_partition(dec, figure2_word)

    def test_single_big_power(self):
        dec = decompose(parse_word("a1^5"))
        assert [(s.kind, s.degree) for s in dec.syllables] == [(SyllableKind.BIG_POWER, 5)]

    def test_run_then_singleton(self):
        w = parse_word("a1 a2 a1^-1")
        dec = decompose(w)
        assert [(s.kind, s.degree) for s in dec.syllables] == [
            (SyllableKind.ALTERNATING_RUN, 2),
            (SyllableKind.SINGLETON, 1),
        ]
        check_partition(dec, w)

    def test_partition_property_random(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            w = random_word_max_terms(rng, 30)
            check_partition(decompose(w), w)


class TestSyllableChecks:
    A1, A1_INV, A1_SQ, A2 = Term(Generator.A1, 1), Term(Generator.A1, -1), Term(Generator.A1, 2), Term(Generator.A2, 1)

    @pytest.mark.parametrize("terms, kind, message", [
        ((A1,), SyllableKind.BIG_POWER, "big power must be one term"),
        ((A1_SQ, A2), SyllableKind.BIG_POWER, "big power must be one term"),
        ((A1,), SyllableKind.ALTERNATING_RUN, "alternating run needs"),
        ((A1, A2, A1_INV), SyllableKind.ALTERNATING_RUN, "alternating run needs"),
        ((A1_SQ, Term(Generator.A2, 2)), SyllableKind.ALTERNATING_RUN, "alternating run needs"),
        ((A1_SQ,), SyllableKind.SINGLETON, "singleton must be one term"),
        ((A1, A2), SyllableKind.SINGLETON, "singleton must be one term"),
        ((A1,), "big_power", "must be a SyllableKind member"),  # would pass as a singleton
        (("a1",), SyllableKind.SINGLETON, "must be Term values"),
        ((A1, (Generator.A2, 1)), SyllableKind.ALTERNATING_RUN, "must be Term values"),
        ([A1], SyllableKind.SINGLETON, "must be a tuple"),  # unhashable, and unequal to the same syllable
    ])
    def test_kind_is_checked(self, terms, kind, message):
        with pytest.raises(ValueError, match=message):
            Syllable(terms, kind)


class TestDecomposeBuild:
    @settings(max_examples=300)
    @given(reduced_words(max_terms=30, max_exp=3))
    @example(FreeWord((Term(Generator.A1, -(2**63)), Term(Generator.A2, 1), Term(Generator.A1, 1))))
    def test_builds_what_the_constructors_build(self, w):
        """Each unchecked syllable equals the checked one in ==, hash and repr, and so does the decomposition."""
        dec = decompose(w)
        rebuilt = SyllableDecomposition(tuple(Syllable(s.terms, s.kind) for s in dec.syllables))
        for got, want in zip(dec.syllables + (dec,), rebuilt.syllables + (rebuilt,), strict=True):
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))


class TestReferenceDecompose:
    @settings(max_examples=300)
    @given(reduced_words(max_terms=30, max_exp=3))
    def test_matches_reference(self, w):
        """The scan and the oracle's grouping agree on kinds and terms, and so on Lambda."""
        expected = reference_decompose(w)
        assert [(s.kind, s.terms) for s in decompose(w).syllables] == expected
        lam = sum(math.log(1 + sum(abs(t.exponent) for t in terms)) for _, terms in expected)
        for bc in BoundaryCondition:
            assert lambda_bounds(w, bc).lambda_value == pytest.approx(lam, rel=1e-12, abs=1e-15)


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

    def test_within_stated_accuracy_of_mpmath(self):
        """10^4 big powers of degrees 2 to 9: Lambda is within 4.5e-16 relative of the exact sum."""
        rng = random.Random(20261019)
        degrees = [rng.randint(2, 9) for _ in range(10**4)]
        w = FreeWord(tuple(Term(Generator.A1 if i % 2 else Generator.A2, d * rng.choice((1, -1)))
                           for i, d in enumerate(degrees)))
        got = lambda_invariant(w)
        with mpmath.workdps(50):  # one log per distinct degree
            exact = mpmath.fsum(degrees.count(d) * mpmath.log(1 + d) for d in set(degrees))
            assert abs(got - exact) <= 4.5e-16 * exact

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from((1, -1)) | st.integers(-(2**63 - 1), 2**63 - 1).filter(bool), max_size=12),
           st.sampled_from(list(Generator)))
    @example([], Generator.A1)
    @example([2**63 - 1], Generator.A2)
    @example([-(2**63 - 1)], Generator.A1)
    @example([1], Generator.A1)
    def test_equals_the_sum_over_the_syllable_table(self, exponents, first):
        """The degrees Lambda reads are those of ``decompose``'s syllables: equal with ``==``, not within a
        tolerance."""
        other = Generator.A2 if first is Generator.A1 else Generator.A1
        w = FreeWord(tuple(Term(first if i % 2 == 0 else other, e) for i, e in enumerate(exponents)))
        assert lambda_invariant(w) == math.fsum(math.log(1 + s.degree) for s in decompose(w).syllables)

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
        assert classify_exceptional(parse_word("a1^5"), TR) is True
        assert classify_exceptional(parse_word("a2^-7"), TR) is True
        assert classify_exceptional(FreeWord(), TR) is True
        assert classify_exceptional(parse_word("a1 a2"), TR) is False

    def test_pb_sign_constant(self):
        assert classify_exceptional(parse_word("a1 a2 a1"), PB) is True
        assert classify_exceptional(parse_word("a1^-1 a2^-1"), PB) is True
        assert classify_exceptional(FreeWord(), PB) is True
        assert classify_exceptional(parse_word("a1^5"), PB) is False

    def test_figure2_generic_pb(self, figure2_word):
        assert classify_exceptional(figure2_word, PB) is False

    @pytest.mark.parametrize("bc", ["tr", "pb", None, 0])
    def test_boundary_must_be_a_member(self, bc):
        """A value or a name in place of the member is refused, not read as the pb condition."""
        w = parse_word("a1 a2")
        with pytest.raises(ValueError, match="must be a BoundaryCondition member"):
            classify_exceptional(w, bc)
        with pytest.raises(ValueError, match="must be a BoundaryCondition member"):
            lambda_bounds(w, bc)


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

    def test_upper_bound_past_float_range_raises(self):
        """c_plus x Lambda = 1e308 x log 12 is not a float: an error naming c_plus, not upper = inf."""
        with pytest.raises(OverflowError, match="c_plus"):
            lambda_bounds(parse_word("a1^3 a2^2"), TR, BoundConstants(0.1, 1e308))
        assert lambda_bounds(parse_word("a1^3 a2^2"), TR, BoundConstants(0.1, 1e307)).upper < math.inf

    @pytest.mark.parametrize("k", [None, (0.1, 10.0), 0.5])
    @pytest.mark.parametrize("text", ["a1^3 a2^2", "a1^5", ""])
    def test_bound_constants_must_be_a_value(self, text, k):
        """Refused on every word: not an AttributeError on a generic one, nor ignored on an exceptional one."""
        with pytest.raises(ValueError, match="must be a BoundConstants value"):
            lambda_bounds(parse_word(text), TR, k)

    def test_bound_constants_validation(self):
        with pytest.raises(ValueError):
            BoundConstants(1.0, 0.5)
        with pytest.raises(ValueError):
            BoundConstants(0.0, 1.0)

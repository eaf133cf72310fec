import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import checked_reduce, reduced_words, reference_scanner
from slalom import braids, words
from slalom.braids import BraidGenerator, parse_braid
from slalom.words import (
    FreeWord,
    Generator,
    Term,
    WordSyntaxError,
    concat,
    format_word,
    invert,
    parse_word,
    reduce,
)


class TestParse:
    def test_direct_tokens(self):
        w = parse_word("a1^2 a2^-3")
        assert w.terms == (Term(Generator.A1, 2), Term(Generator.A2, -3))

    def test_full_cancellation(self):
        assert parse_word("a1 a1^-1") == FreeWord()

    def test_figure2_already_reduced(self):
        w = parse_word("a2^-1 a1^2 a2^-3 a1^-1 a2^-1 a1^-1 a2 a1^-1")
        assert len(w.terms) == 8
        assert [t.exponent for t in w.terms] == [-1, 2, -3, -1, -1, -1, 1, -1]

    def test_empty_input(self):
        assert parse_word("") == FreeWord()
        assert parse_word("   ") == FreeWord()

    def test_exponent_zero_dropped(self):
        assert parse_word("a1^0 a2") == parse_word("a2")

    def test_bad_token_reports_column(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("a1 b2")
        assert exc.value.column == 4

    def test_malformed_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a1^x")

    def test_exponent_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            parse_word(f"a1^{2**70}")


# token parts: names good and bad, exponent marks, ASCII and Unicode digits, digit strings past 2^63, and
# ASCII, Unicode or no whitespace after each token
NAMES = ("a1", "a2", "s1", "s2", "a", "s3", "x", "")
MARKS = ("", "^", "^+", "^-", "^^", "-")
DIGITS = ("", "0", "1", "12", "\u0663", "\uff11\uff12", str(2**63 - 1), str(2**63), "9" * 25)
SPACES = (" ", "  ", "\t", "\n", "\u3000", "\u00a0", "\x1f", "")
TOKENS = st.tuples(*map(st.sampled_from, (NAMES, MARKS, DIGITS, SPACES))).map("".join)


READERS = (words._reader(words._TOKEN_RE), words._reader(braids._BRAID_TOKEN_RE))


def parse_outcome(parse, text):
    """The parsed value, or the error's type, message and column."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as e:
        return type(e), str(e), getattr(e, "column", None)


def reduce_outcome(build, raw):
    """The built word, or the error's type and message; a ``TypeError`` too, as from merging a str exponent."""
    try:
        return build(raw)
    except (ValueError, OverflowError, TypeError) as e:
        return type(e), str(e)


class TestScanner:
    @settings(max_examples=400)
    @given(text=st.lists(TOKENS, max_size=10).map("".join))
    @example(text="a1^-12 a2\u3000a1^\u0663")
    @example(text="s1^+\uff11\uff12\ts2\x1fs1^-\u0663")
    @example(text=f"a1^{2**63} s1^{2**63 - 1}")
    @example(text="a1a2 s1s2")
    @example(text="a1 a2^" + "9" * 4301)  # more digits than int() converts
    @example(text="s1 s2^-" + "9" * 4301)
    @example(text="a2^-" + "0" * 4400 + str(2**63) + " a1^" + "\u0660" * 30 + "\u0663 a2^+" + "0" * 30 + str(2**63))
    @example(text="s2^+" + "0" * 4400 + "7 s1^" + "\u0660" * 30 + "\u0663")
    @example(text="a1\u3000" * 1500 + "a2^x")  # texts past the scan's slice of 4096 characters
    @example(text="s2^-12 " * 700 + "s1 s1^x")
    @example(text="a2" + " " * 5000 + "a1 x")
    @example(text="a1 " * 1364 + "a2^1 b2")  # whitespace at the slice's end
    @pytest.mark.parametrize("parse", [parse_word, parse_braid])
    def test_matches_the_two_step_scan(self, parse, text):
        """A memoised read of each distinct token gives what a match per whitespace-separated token gave, whether
        the memo starts empty or holds the text's tokens already."""
        with reference_scanner():
            want = parse_outcome(parse, text)
        for read in READERS:
            read.cache_clear()
        assert parse_outcome(parse, text) == want
        assert parse_outcome(parse, text) == want

    @pytest.mark.parametrize("parse, texts", [
        (parse_braid, [("s1 s3", 4), ("s3 s1", 1), ("s1\u3000s2 s3 s3", 7)]),
        (parse_braid, [(f"s1 s2^{2**63}", 4), (f"s2^{2**63} s1", 1)]),
        (parse_word, [("a1 b2", 4), ("b2 a1", 1), (f"a1^{2**64} a2", 1), (f"a2 a1^{2**64}", 4)]),
        (parse_word, [("a1 " * 2000 + "b2 b2", 6001), ("a2 b2 " + "a1 " * 2000 + "b2", 4)]),  # past a split slice
    ])
    def test_a_memoised_refusal_reports_each_place(self, parse, texts):
        for text, column in texts:
            with pytest.raises(WordSyntaxError) as exc:
                parse(text)
            assert exc.value.column == column

    def test_the_memo_is_bounded(self):
        read = READERS[0]
        read.cache_clear()
        parse_word(" ".join(f"a{1 + k % 2}^{k}" for k in range(3000)))
        assert read.cache_info().currsize == read.cache_info().maxsize == 1024
        read.cache_clear()
        long = "a1^" + "0" * 40 + "7"
        assert parse_word(long) == FreeWord((Term(Generator.A1, 7),))
        assert read.cache_info().currsize == 0  # a token longer than the memo keeps is read, not memoised


# raw pairs for reduce: mostly members and small ints, which merge, plus exponents at and past the 64-bit ends
# and values of the wrong type
GENS = st.sampled_from((Generator.A1, Generator.A2) * 4 + ("a1", None, BraidGenerator.SIGMA1))
EXPONENTS = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(),
    st.sampled_from((2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, True, False, 2.5, 1.0, "1", None)),
)


class TestReduce:
    @settings(max_examples=400)
    @given(raw=st.lists(st.tuples(GENS, EXPONENTS), max_size=12))
    @example(raw=[(Generator.A1, 2**63 - 1), (Generator.A2, 1), (Generator.A2, -1), (Generator.A1, 1)])
    @example(raw=[(Generator.A1, -(2**63)), (Generator.A2, -(2**63) - 1)])
    @example(raw=[(Generator.A1, True), (Generator.A2, 1)])
    @example(raw=[(Generator.A1, True), (Generator.A1, True)])
    @example(raw=[(Generator.A1, 1), ("a2", 2)])
    @example(raw=[(Generator.A1, 2.5), (Generator.A1, -2.5), (Generator.A2, 1.0)])
    def test_builds_what_the_constructors_build(self, raw):
        """The unchecked build, the terms from the table or not, equals the checked one in ==, hash and repr, or
        raises its error and message."""
        got = reduce_outcome(reduce, raw)
        want = reduce_outcome(checked_reduce, raw)
        assert got == want
        if isinstance(got, FreeWord):
            rebuilt = FreeWord(tuple(Term(t.gen, t.exponent) for t in got.terms))
            assert (got, hash(got), repr(got)) == (rebuilt, hash(rebuilt), repr(rebuilt))
            assert [(t, hash(t), repr(t)) for t in got.terms] == [(t, hash(t), repr(t)) for t in want.terms]

    def test_small_terms_are_shared_and_the_table_is_bounded(self):
        raw = [(g, e) for e in (1, -1, 64, -64, 65, -65, 2**40) for g in Generator]
        first, again = reduce(raw), reduce(raw)
        small = [i for i, t in enumerate(first.terms) if abs(t.exponent) <= words._SMALL]
        assert [first.terms[i] is again.terms[i] for i in range(len(raw))] == [i in small for i in range(len(raw))]
        assert again == checked_reduce(raw)
        assert all(abs(e) <= words._SMALL and e for table in words._TERMS.values() for e in table)
        assert [len(table) <= 2 * words._SMALL for table in words._TERMS.values()] == [True, True]

    def test_merge(self):
        w = reduce([(Generator.A1, 1), (Generator.A1, 1)])
        assert w.terms == (Term(Generator.A1, 2),)

    def test_cascading_cancellation(self):
        raw = [(Generator.A1, 1), (Generator.A2, 2), (Generator.A2, -2), (Generator.A1, -1)]
        assert reduce(raw) == FreeWord()

    def test_already_reduced(self):
        raw = [(Generator.A2, -1), (Generator.A1, 2)]
        assert reduce(raw).terms == (Term(Generator.A2, -1), Term(Generator.A1, 2))

    def test_overflow_is_error(self):
        big = 2**63 - 1
        with pytest.raises(OverflowError):
            reduce([(Generator.A1, big), (Generator.A1, big)])

    def test_only_the_result_must_fit_64_bits(self):
        big = 2**63 - 1
        assert reduce([(Generator.A1, big), (Generator.A1, 1), (Generator.A1, -1)]).terms == (Term(Generator.A1, big),)


class TestTypes:
    @pytest.mark.parametrize("largest", [2**63 - 1, -(2**63)])
    def test_term_exponent_fits_64_bits(self, largest):
        assert Term(Generator.A1, largest).exponent == largest
        with pytest.raises(OverflowError, match="64-bit"):
            Term(Generator.A1, largest + (1 if largest > 0 else -1))

    @pytest.mark.parametrize("gen, exponent, message", [
        (Generator.A1, 0, "nonzero int exponent"),
        ("a1", 1, "Generator member"),  # word_to_curve would draw it as a2
        (Generator.A1, 2.5, "nonzero int exponent"),  # Lambda would read log 3.5
        (Generator.A1, True, "nonzero int exponent"),  # a bool is not a count
    ])
    def test_term_values_are_checked(self, gen, exponent, message):
        with pytest.raises(ValueError, match=message):
            Term(gen, exponent)

    @pytest.mark.parametrize("terms", [("a1",), ("a1", "a2"), (Term(Generator.A1, 1), (Generator.A2, 1))])
    def test_word_terms_must_be_terms(self, terms):
        """Anything but a Term is refused, not accepted or left to fail later as an AttributeError."""
        with pytest.raises(ValueError, match="must be Term values"):
            FreeWord(terms)

    @pytest.mark.parametrize("terms", [[], [Term(Generator.A1, 1)]])
    def test_word_terms_must_be_a_tuple(self, terms):
        """A list is refused, not kept as an unhashable word unequal to the same terms in a tuple."""
        with pytest.raises(ValueError, match="must be a tuple"):
            FreeWord(terms)

    def test_word_must_be_reduced(self):
        with pytest.raises(ValueError, match="not reduced"):
            FreeWord((Term(Generator.A1, 1), Term(Generator.A1, 2)))


class TestAlgebra:
    def test_concat_cancel(self):
        assert concat(parse_word("a1"), parse_word("a1^-1")) == FreeWord()

    def test_concat_merge(self):
        assert concat(parse_word("a1^2"), parse_word("a1^3")) == parse_word("a1^5")

    def test_concat_partial_cancel(self):
        assert concat(parse_word("a1 a2"), parse_word("a2^-1 a1")) == parse_word("a1^2")

    def test_invert(self):
        assert invert(parse_word("a1^2 a2^-1")) == parse_word("a2 a1^-2")
        assert invert(FreeWord()) == FreeWord()
        assert invert(parse_word("a1")) == parse_word("a1^-1")

    def test_format(self):
        assert format_word(FreeWord()) == ""
        assert format_word(parse_word("a1^2")) == "a1^2"
        assert format_word(parse_word("a2^-1 a1^1")) == "a2^-1 a1"


@given(reduced_words())
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w)) == w


@given(st.lists(st.tuples(st.sampled_from(list(Generator)), st.integers(-5, 5)), max_size=30))
def test_reduce_idempotent(raw):
    once = reduce(raw)
    assert reduce((t.gen, t.exponent) for t in once.terms) == once


@given(reduced_words(), reduced_words(), reduced_words())
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(reduced_words())
def test_invert_involution_and_inverse(u):
    assert invert(invert(u)) == u
    assert concat(u, invert(u)) == FreeWord()
    assert concat(invert(u), u) == FreeWord()


@given(reduced_words())
def test_identity_neutral(u):
    e = FreeWord()
    assert concat(u, e) == u
    assert concat(e, u) == u

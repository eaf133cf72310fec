import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lift_read_word, numeric_cstar, pure_braids, random_pure_braid, reference_permutation
from slalom.braids import (
    MAX_BRAID_LETTERS,
    BraidGenerator,
    BraidLetter,
    BraidSyntaxError,
    BraidWord,
    PurityError,
    _SCHREIER,
    braid_invariant,
    braid_to_strands,
    cross_ratio_curve,
    cstar,
    format_braid,
    full_twist,
    parse_braid,
    permutation,
)
from slalom.covering import MAX_CURVE_POINTS
from slalom.syllables import BoundaryCondition, Syllable, decompose
from slalom.words import FreeWord, Generator, Term, WordSyntaxError, concat, format_word, parse_word

# the coset representatives of the Reidemeister-Schreier table
TRANSVERSAL = ("", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1")
UNIT_LETTERS = tuple(BraidLetter(g, sign) for g in BraidGenerator for sign in (1, -1))

# orientation convention pinned by tracing: sigma1^2 maps to a1 (not a1^-1)
SIGMA1_SQUARED_IMAGE = "a1"

PB = BoundaryCondition.PERPENDICULAR_BISECTOR


class TestParse:
    def test_power_expansion(self):
        b = parse_braid("s1^2")
        assert b.letters == (BraidLetter(BraidGenerator.SIGMA1, 1),) * 2

    def test_delta3(self):
        b = parse_braid("s1 s2 s1")
        assert [l.gen for l in b.letters] == [
            BraidGenerator.SIGMA1, BraidGenerator.SIGMA2, BraidGenerator.SIGMA1]

    def test_empty(self):
        assert parse_braid("") == BraidWord()

    def test_negative_power(self):
        b = parse_braid("s2^-3")
        assert all(l.sign == -1 for l in b.letters) and len(b.letters) == 3

    def test_bad_token(self):
        with pytest.raises(BraidSyntaxError) as exc:
            parse_braid("s1 s3")
        assert exc.value.column == 4

    def test_format_round_trip(self):
        b = parse_braid("s1 s2^-1 s1^2")
        assert parse_braid(format_braid(b)) == b

    def test_exponent_out_of_range(self):
        with pytest.raises(BraidSyntaxError) as exc:
            parse_braid(f"s1 s2^{2**70}")
        assert exc.value.column == 4 and isinstance(exc.value, WordSyntaxError)

    def test_letter_budget(self):
        half = MAX_BRAID_LETTERS // 2
        assert len(parse_braid(f"s1^{half} s2^-{half}").letters) == MAX_BRAID_LETTERS
        for text in (f"s1^{MAX_BRAID_LETTERS + 1}", f"s1^{MAX_BRAID_LETTERS} s2", "s1^1000000000"):
            with pytest.raises(ValueError, match="exceeds"):
                parse_braid(text)

    @settings(max_examples=200)
    @given(tokens=st.lists(st.tuples(st.sampled_from(("s1", "s2")), st.integers(-4, 4)), max_size=12))
    def test_builds_what_the_constructor_builds(self, tokens):
        """The unchecked build equals the checked one in ==, hash and repr."""
        b = parse_braid(" ".join(f"{name}^{e}" for name, e in tokens))
        rebuilt = BraidWord(tuple(b.letters))
        assert (b, hash(b), repr(b)) == (rebuilt, hash(rebuilt), repr(rebuilt))

    def test_letter_budget_names_the_column_of_the_token_past_it(self):
        with pytest.raises(ValueError) as exc:
            parse_braid("s2 s1^9999 s2^2")
        assert str(exc.value) == "braid exceeds 10000 letters at column 12"
        with pytest.raises(ValueError, match="at column 30001$"):
            parse_braid("s1 " * (MAX_BRAID_LETTERS + 1))  # the token past the budget is in the scan's eighth slice

    def test_letter_budget_refuses_a_long_text_in_bounded_memory(self):
        """The scan splits a bounded slice of the text at a time: a whole-text split would take about 59 MB."""
        text = "s1 " * 10**6
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds"):
                parse_braid(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_letter_budget_stops_the_scan(self):
        """The token past the budget is refused before the scan reaches the bad token after it."""
        with pytest.raises(ValueError, match="exceeds") as exc:
            parse_braid("s1 " * (MAX_BRAID_LETTERS + 1) + "s3")
        assert not isinstance(exc.value, BraidSyntaxError)


class TestLetter:
    @pytest.mark.parametrize("sign", [0, 2, -2, True])
    def test_sign_is_checked(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            BraidLetter(BraidGenerator.SIGMA1, sign)

    @pytest.mark.parametrize("letters", [("s1",), (BraidLetter(BraidGenerator.SIGMA1, 1), (BraidGenerator.SIGMA1, 1))])
    def test_word_letters_must_be_letters(self, letters):
        """Anything but a BraidLetter is refused, not left to fail in cstar or permutation as an AttributeError."""
        with pytest.raises(ValueError, match="must be BraidLetter values"):
            BraidWord(letters)

    @pytest.mark.parametrize("letters", [[], [BraidLetter(BraidGenerator.SIGMA1, 1)]])
    def test_word_letters_must_be_a_tuple(self, letters):
        """A list is refused, not kept as an unhashable braid unequal to the same letters in a tuple."""
        with pytest.raises(ValueError, match="must be a tuple"):
            BraidWord(letters)

    @pytest.mark.parametrize("gen", ["s1", Generator.A1])
    def test_gen_must_be_a_member(self, gen):
        """A value in place of the member is refused, not read as sigma2."""
        with pytest.raises(ValueError, match="must be a BraidGenerator member"):
            BraidLetter(gen, 1)


class TestPermutation:
    def test_sigma1_transposition(self):
        assert permutation(parse_braid("s1")) == (1, 0, 2)

    def test_sigma1_squared_identity(self):
        assert permutation(parse_braid("s1^2")) == (0, 1, 2)

    def test_full_twist_pure(self):
        assert permutation(full_twist()) == (0, 1, 2)

    def test_inverse_sign_irrelevant(self):
        assert permutation(parse_braid("s1^-1")) == permutation(parse_braid("s1"))

    def test_matches_the_slot_swaps_on_every_short_word(self):
        words = [BraidWord(w) for n in range(7) for w in itertools.product(UNIT_LETTERS, repeat=n)]
        assert len(words) == 5461
        for b in words:
            assert permutation(b) == reference_permutation(b)


class TestStrands:
    def test_empty_braid_constant(self):
        s = braid_to_strands(BraidWord())
        assert s == ((-1 + 0j,), (0j,), (1 + 0j,))

    def test_sigma1_squared_full_turn(self):
        s = braid_to_strands(parse_braid("s1^2"), 32)
        g1, g2, g3 = s
        assert g1[0] == -1 and abs(g1[-1] - (-1)) < 1e-12
        assert g2[0] == 0 and abs(g2[-1]) < 1e-12
        assert all(z == 1 for z in g3)

    def test_full_twist_returns_and_separates(self):
        s = braid_to_strands(full_twist(), 32)
        for strand, base in zip(s, (-1, 0, 1)):
            assert strand[0] == pytest.approx(base, abs=1e-12)
            assert strand[-1] == pytest.approx(base, abs=1e-9)
        mind = min(
            abs(a - b)
            for i in range(3)
            for j in range(i + 1, 3)
            for a, b in zip(s[i], s[j])
        )
        assert mind >= 0.2

    @settings(max_examples=60, deadline=None)
    @given(pure_braids(), st.sampled_from((16, 32)))
    def test_pairs_stay_apart(self, b, samples):
        # the pair radius dips to 0.35 mid-turn; the static strand stays at least 1 from the moving pair
        s = braid_to_strands(b, samples)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert min(abs(p - q) for p, q in zip(s[i], s[j])) >= 0.7 - 1e-12

    def test_rejects_non_pure(self):
        with pytest.raises(PurityError):
            braid_to_strands(parse_braid("s1"))

    def test_rejects_coarse_sampling(self):
        with pytest.raises(ValueError):
            braid_to_strands(parse_braid("s1^2"), 8)

    @pytest.mark.parametrize("samples", [16.5, "32", None])
    def test_rejects_a_sampling_that_is_not_an_int(self, samples):
        """Refused up front, not left to fail in range() as an untyped TypeError."""
        with pytest.raises(ValueError, match="must be an int"):
            braid_to_strands(parse_braid("s1^2"), samples)

    @pytest.mark.parametrize("b, samples", [
        (BraidWord(), 10**15),
        (parse_braid("s1^2"), 10**15),
        (BraidWord(), MAX_CURVE_POINTS + 1),
        (parse_braid("s1^2"), MAX_CURVE_POINTS // 2 + 1),
    ])
    def test_point_budget_refuses_before_building(self, b, samples):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed"):
                braid_to_strands(b, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_point_budget_admits_every_parsed_braid_at_the_default_sampling(self):
        assert MAX_BRAID_LETTERS * 32 <= MAX_CURVE_POINTS


class TestCrossRatioCurve:
    def test_constant_base_configuration(self):
        curve = cross_ratio_curve(((-1 + 0j,), (0j,), (1 + 0j,)))
        assert len(curve.points) == 1 and curve.start == 0

    def test_middle_strand_identity(self):
        zs = tuple(0.3 * complex(c, s) for c, s in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
        n = len(zs)
        curve = cross_ratio_curve(((-1 + 0j,) * n, zs, (1 + 0j,) * n))
        assert len(curve.points) == len(zs)
        for got, want in zip(curve.points, zs):
            assert abs(got - want) < 1e-14

    @pytest.mark.parametrize("strands, message", [
        (((-1 + 0j, 0.5 + 0j), (0j, 0.5 + 0j), (1 + 0j, 1 + 0j)), "excluded set"),  # strand 1 meets strand 2
        (((-1 + 0j, 0.5 + 0j), (0j, 0j), (1 + 0j, 0.5 + 0j)), "strands 1 and 3 collide"),
    ])
    def test_collision_rejected(self, strands, message):
        with pytest.raises(ValueError, match=message):
            cross_ratio_curve(strands)

    @pytest.mark.parametrize("strands", [
        ((-1 + 0j,), (0j, 0.1j), (1 + 0j, 1 + 0j)),  # strand 1 shorter
        ((-1 + 0j, -1 + 0j), (0j,), (1 + 0j, 1 + 0j)),  # strand 2 shorter
        ((-1 + 0j, -1 + 0j), (0j, 0.1j), (1 + 0j, 1 + 0j, 1 + 0j)),  # strand 3 longer
    ])
    def test_unequal_strand_lengths_rejected(self, strands):
        """Strands sampled on different grids are refused, not cut to the shortest."""
        with pytest.raises(ValueError, match="zip"):
            cross_ratio_curve(strands)

    @pytest.mark.parametrize("d, collides", [(0.5e-9, True), (2e-9, False)])
    def test_strand_distance_tolerance(self, d, collides):
        """Strands 1 and 3 closer than 1e-9 collide; the middle strand sits where the cross ratio is i."""
        strands = ((0j,), (complex(d / 2, d / 2),), (complex(d, 0.0),))
        if collides:
            with pytest.raises(ValueError, match="strands 1 and 3 collide"):
                cross_ratio_curve(strands)
        else:
            assert cross_ratio_curve(strands).points == (1j,)

    def test_affine_invariance(self):
        s = braid_to_strands(parse_braid("s1^2"), 16)
        mapped = tuple(tuple(2 * z + 5 for z in strand) for strand in s)
        a = cross_ratio_curve(s)
        b = cross_ratio_curve(mapped)
        assert len(a.points) == len(b.points)
        for x, y in zip(a.points, b.points):
            assert abs(x - y) < 1e-12

    def test_base_point_consistency(self):
        rng = random.Random(23)
        for _ in range(10):
            b = random_pure_braid(rng, 8)
            curve = cross_ratio_curve(braid_to_strands(b, 16))
            assert abs(curve.start) < 1e-9 and abs(curve.end) < 1e-9


class TestCstar:
    def test_full_twist_kernel(self):
        for m in (1, 2, 3):
            b = BraidWord()
            for _ in range(m):
                b = b * full_twist()
            assert cstar(b) == FreeWord()

    def test_full_twist_absorbed(self):
        rng = random.Random(29)
        for _ in range(10):
            b = random_pure_braid(rng, 8)
            assert cstar(b * full_twist()) == cstar(b)

    def test_sigma1_squared_pinned_sign(self):
        assert cstar(parse_braid("s1^2")) == parse_word(SIGMA1_SQUARED_IMAGE)

    def test_homomorphism(self):
        rng = random.Random(31)
        for _ in range(20):
            b1 = random_pure_braid(rng, 6)
            b2 = random_pure_braid(rng, 6)
            assert cstar(b1 * b2) == concat(cstar(b1), cstar(b2))

    @settings(max_examples=40, deadline=None)
    @given(pure_braids())
    def test_matches_lift_oracle(self, b):
        assert cstar(b) == lift_read_word(cross_ratio_curve(braid_to_strands(b)))

    def test_purity_gate(self):
        with pytest.raises(PurityError, match=r"^braid 's1 s2' is not pure: permutation \(2, 0, 1\)$"):
            cstar(parse_braid("s1 s2"))

    def test_schreier_table_rederived(self):
        # every entry is (reference_permutation(rep(p) x), numeric image of rep(p) x rep(next)^-1)
        reps = {reference_permutation(parse_braid(t)): parse_braid(t) for t in TRANSVERSAL}
        assert len(reps) == 6
        expected = {}
        for p, rep in reps.items():
            for letter in UNIT_LETTERS:
                x = BraidWord((letter,))
                nxt = reference_permutation(rep * x)
                image = numeric_cstar(rep * x * reps[nxt].inverse())
                expected[p, letter.gen.value, letter.sign] = (nxt, image.terms)
        got = {key: (nxt, tuple(Term(g, e) for g, e in image)) for key, (nxt, image) in _SCHREIER.items()}
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(pure_braids(), st.lists(st.sampled_from(UNIT_LETTERS), max_size=6))
    def test_matches_numeric_oracle_conjugated(self, b, conjugator):
        # conjugation lets the walk reach all six states; the pure generators alone skip some entries
        c = BraidWord(tuple(conjugator))
        b = c * b * c.inverse()
        assert cstar(b) == numeric_cstar(b)


class TestBraidInvariant:
    @pytest.mark.parametrize("bc", ["tr", "pb"])
    def test_boundary_must_be_a_member(self, bc):
        with pytest.raises(ValueError, match="must be a BoundaryCondition member"):
            braid_invariant(parse_braid("s1^2 s2^2"), bc)

    @pytest.mark.parametrize("k", [None, (0.1, 10.0)])
    @pytest.mark.parametrize("text", ["s1^2 s2^2", "s1 s2 s1 s1 s2 s1"])
    def test_bound_constants_must_be_a_value(self, text, k):
        """Refused on every braid: not an AttributeError on a generic one, nor ignored on an exceptional one."""
        with pytest.raises(ValueError, match="must be a BoundConstants value"):
            braid_invariant(parse_braid(text), BoundaryCondition.TOTALLY_REAL, k)

    def test_full_twist_exceptional(self):
        b = braid_invariant(full_twist(), PB)
        assert (b.lambda_value, b.lower, b.upper, b.exceptional) == (0.0, 0.0, 0.0, True)

    def test_sigma1_even_powers(self):
        import math
        for n in (1, 2, 3):
            w = cstar(parse_braid(f"s1^{2 * n}"))
            assert len(w.terms) == 1 and w.terms[0].gen.value == "a1"
            from slalom.syllables import lambda_invariant
            assert lambda_invariant(w) == pytest.approx(math.log(1 + n), abs=1e-12)

    def test_not_a_conjugacy_invariant(self):
        rng = random.Random(37)
        found = False
        for _ in range(50):
            b = random_pure_braid(rng, 6)
            c = random_pure_braid(rng, 6)
            inv_b = braid_invariant(b, PB)
            inv_conj = braid_invariant(c * b * c.inverse(), PB)
            if abs(inv_b.lambda_value - inv_conj.lambda_value) > 1e-9:
                found = True
                break
        assert found, "randomized search found no conjugation changing the invariant"


class TestCheckedByConstruction:
    def test_hot_paths_run_no_constructor_check(self, monkeypatch):
        """cstar, parse_braid, parse_word and decompose build their values without the constructors' checks."""
        rng = random.Random(26)
        braid_words = [random_pure_braid(rng, 40) for _ in range(20)]
        texts = [format_braid(b) for b in braid_words]
        calls = []
        for cls in (Term, FreeWord, BraidLetter, BraidWord, Syllable):
            def counted(self, *args, init=cls.__init__, **kwargs):  # an unchecked build calls no __init__
                calls.append(self)
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        FreeWord((Term(Generator.A1, 1),))
        assert len(calls) == 2  # the counters see a checked build
        calls.clear()
        images = [cstar(b) for b in braid_words]
        assert sum(len(w.terms) for w in images) > 50 and calls == []
        for text, w in zip(texts, images):
            parse_braid(text)
            decompose(parse_word(format_word(w)))
        assert calls == []

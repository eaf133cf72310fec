import cmath
import math
import pickle
import random
import re
import struct
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, starmap
from operator import add, attrgetter, sub
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIGURE2_TEXT,
    axis_samples,
    checked_word_curve,
    eager_lift,
    eager_pieces,
    exact_crossing,
    lift_read_word,
    pure_braids,
    reduced_words,
    reference_lift,
    reference_chunk,
    reference_lift_points,
    reference_path_error,
    reference_read_word,
    reference_touching,
    sample_positions,
    sign_string,
    word_pieces,
)
from slalom.braids import braid_to_strands, cross_ratio_curve
from slalom import covering
from slalom.cli import _random_reduced_word
from slalom.covering import (
    BASE_LIFT_POINT,
    ElementaryPiece,
    HalfPlane,
    MAX_CURVE_POINTS,
    LiftError,
    Plane,
    PolyPath,
    SlalomDecomposition,
    cover_map,
    curve_to_word,
    lift_path,
    slalom_decompose,
    word_to_curve,
)
from slalom.words import FreeWord, Generator, Term, _new, concat, parse_word


def packed(points) -> bytes:
    """The exact floats of ``points``, one value at a time.  Unlike ``pickle.dumps``, which memoizes a repeated
    object, it gives equal bytes for equal values however the points share objects."""
    return b"".join(starmap(struct.Struct("<dd").pack, map(attrgetter("real", "imag"), points)))


def bits(points) -> list[tuple[bytes]]:
    """The exact floats of ``points``, 16 bytes a point, so that 0.0 and -0.0 differ."""
    return list(struct.iter_unpack("16s", packed(points)))


def per_point_lift(path: PolyPath, start: complex) -> list[complex]:
    """Each of ``axis_samples`` lifted on its own to atanh(u)/pi + im, m from the nearest-branch oracle's lift of u."""
    samples = axis_samples(path.points)
    oracle = reference_lift(path, start).points
    lift = [start]
    for u, i in zip(samples[1:], sample_positions(samples)[1:]):
        z = cmath.atanh(u) / math.pi
        lift.append(z + complex(0.0, round((oracle[i] - z).imag - 0.5) + 0.5))
    return lift


def sign(x: float) -> int:
    return (x > 0) - (x < 0)


def winding_number(points, center: complex) -> float:
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += cmath.phase((b - center) / (a - center))
    return total / (2 * math.pi)


NON_FINITE_STARTS = [complex(0.0, math.inf), complex(0.3, math.nan), complex(math.nan, -0.5)]


def loop_vertices():
    """Points at distance 1e-8 to 0.3 from a puncture, or anywhere in [-3, 3]^2."""
    return st.one_of(
        st.builds(lambda c, log_r, theta: c + 10**log_r * cmath.exp(1j * theta),
                  st.sampled_from((-1.0, 1.0)), st.floats(-8, math.log10(0.3)), st.floats(0, 2 * math.pi)),
        st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    )


def log_uniform(lo: int = -1074, hi: int = 1024):
    """Floats of either sign, log-uniform from 2^lo to 2^hi: 5e-324 to the largest finite float by default."""
    return st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from((1.0, -1.0)),
                     st.floats(0.5, 1, exclude_max=True), st.integers(lo, hi))


def wide_vertices():
    """Points with coordinates log-uniform over the float range, points on and near the real axis, and points near
    a puncture, at offsets from 5e-324 to 0.5."""
    return st.one_of(
        st.builds(complex, log_uniform(), log_uniform()),
        st.builds(complex, log_uniform(), st.one_of(st.sampled_from((0.0, -0.0)), log_uniform(hi=-1))),
        st.builds(lambda c, d, y: complex(c + d, y), st.sampled_from((-1.0, 1.0)), log_uniform(hi=-1),
                  log_uniform(hi=-1)),
    )


class TestCoverMap:
    def test_fiber_over_zero(self):
        assert cover_map(-0.5j) == pytest.approx(0, abs=1e-12)
        assert cover_map(0.5j) == pytest.approx(0, abs=1e-12)

    def test_real_on_reals(self):
        v = cover_map(1.0 + 0j)
        assert abs(v.imag) < 1e-12
        assert min(abs(v - 1), abs(v + 1)) > 1e-9

    def test_periodicity(self):
        rng = random.Random(5)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) + rng.randint(-3, 3))
            assert cover_map(z + 2j) == pytest.approx(cover_map(z), abs=1e-9)

    def test_avoids_punctures(self):
        rng = random.Random(6)
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 0.95) + rng.randint(-2, 2))
            w = cover_map(z)
            assert min(abs(w - 1), abs(w + 1)) > 1e-12

    def test_rejects_lattice_points(self):
        for z in (0j, 1j, -3j, 1e-12 + 2j):
            with pytest.raises(ValueError):
                cover_map(z)

    @pytest.mark.parametrize("z", NON_FINITE_STARTS)
    def test_rejects_non_finite(self, z):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{z} is not finite')}$"):
            cover_map(z)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(complex, log_uniform(), st.one_of(
        log_uniform(),
        st.builds(add, st.integers(-2**53, 2**53).map(float), log_uniform(hi=-1)),
    )))
    @example(complex(0.3, 1e15 + 0.5))
    @example(complex(0.3, 1e8 + 0.25))
    @example(complex(1e-3, 1e300))
    @example(BASE_LIFT_POINT)
    def test_within_1e15_of_mpmath(self, z):
        """Within 1e-15 max(1, |coth(pi z)|) of 50-digit mpmath at any |Im z|, where pi Im z rounds away its
        fraction.  The oracle reduces y = Im z modulo 1 exactly, as a ``Fraction``, since coth(pi z) has period i and
        at 50 digits mpmath cannot reduce pi 1e300 on its own; it then takes coth(a + ib) = (sinh 2a - i sin 2b) /
        (2 (sinh^2 a + sin^2 b)), which cancels nowhere, unlike mpmath's coth near its zeros."""
        assume(covering._off_lattice(z))
        y = Fraction(z.imag) % 1
        with mpmath.workdps(50):
            a, b = mpmath.pi * z.real, mpmath.pi * y.numerator / y.denominator
            den = 2 * (mpmath.sinh(a) ** 2 + mpmath.sin(b) ** 2)
            exact = mpmath.mpc(mpmath.sinh(2 * a), -mpmath.sin(2 * b)) / den
            assert abs(cover_map(z) - exact) <= 1e-15 * max(1, abs(exact))


class TestLiftPath:
    def test_rejects_cover_plane_path(self):
        path = PolyPath((-0.5j, 0.5 + 0.5j), Plane.COVER)
        with pytest.raises(ValueError, match="lift_path expects a path in the punctured plane"):
            lift_path(path, BASE_LIFT_POINT)

    def test_alpha1_endpoint(self):
        lift = lift_path(word_to_curve(parse_word("a1"), 64), BASE_LIFT_POINT)
        assert abs(lift.end - 0.5j) < 1e-6

    def test_alpha2_endpoint(self):
        lift = lift_path(word_to_curve(parse_word("a2"), 64), BASE_LIFT_POINT)
        assert abs(lift.end - (-1.5j)) < 1e-6

    def test_constant_path(self):
        lift = lift_path(PolyPath((0j,), Plane.PUNCTURED), BASE_LIFT_POINT)
        assert lift.points == (BASE_LIFT_POINT,)

    def test_projection_reproduces_input(self):
        path = word_to_curve(parse_word("a1^2 a2^-1"), 64)
        lift = lift_path(path, BASE_LIFT_POINT)
        # the lift may be finer than the input; every input point must appear
        images = [cover_map(z) for z in lift.points]
        j = 0
        for p in path.points:
            while j < len(images) and abs(images[j] - p) > 1e-6:
                j += 1
            assert j < len(images), f"input point {p} missing from projected lift"

    def test_deck_translation(self):
        path = word_to_curve(parse_word("a1 a2^-2"), 64)
        base = lift_path(path, BASE_LIFT_POINT)
        for k in (1, 2):
            shifted = lift_path(path, BASE_LIFT_POINT + 2j * k)
            assert len(shifted.points) == len(base.points)
            for a, b in zip(base.points, shifted.points):
                assert abs(b - (a + 2j * k)) < 1e-6

    def test_loop_lift_ends_in_fiber(self):
        rng = random.Random(11)
        for _ in range(5):
            w = _random_reduced_word(rng, 6)
            curve = word_to_curve(w, 64)
            if len(curve.points) == 1:
                continue
            lift = lift_path(curve, BASE_LIFT_POINT)
            assert abs(lift.end.real) < 1e-6
            assert abs(lift.end.imag - round(lift.end.imag - 0.5) - 0.5) < 1e-6

    def test_start_not_in_fiber(self):
        with pytest.raises(LiftError):
            lift_path(word_to_curve(parse_word("a1"), 64), 0.5 + 0.5j)

    @staticmethod
    def assert_exact_continuous_lift(curve):
        lift = lift_path(curve, BASE_LIFT_POINT, tol=1e-12)
        samples = axis_samples(curve.points)
        assert len(lift.points) == len(samples)
        assert all(abs(cover_map(z) - u) <= 1e-12 for z, u in zip(lift.points, samples))
        # another point of the fiber z + iZ is at least 1 away, so the lift keeps one branch
        assert all(abs(b - a) < 0.5 for a, b in zip(lift.points, lift.points[1:]))

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=3), st.sampled_from((16, 64, 128)))
    def test_word_curve_lift_is_exact_and_continuous(self, w, samples):
        self.assert_exact_continuous_lift(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids(max_factors=6))
    def test_braid_curve_lift_is_exact_and_continuous(self, b):
        self.assert_exact_continuous_lift(cross_ratio_curve(braid_to_strands(b)))

    @staticmethod
    def assert_matches_reference(curve):
        try:
            expected = reference_lift(curve, BASE_LIFT_POINT)
        except LiftError as exc:
            with pytest.raises(LiftError, match=re.escape(str(exc))):
                lift_path(curve, BASE_LIFT_POINT)
            return
        lift = lift_path(curve, BASE_LIFT_POINT)
        samples = axis_samples(curve.points)
        assert len(lift.points) == len(samples)
        # the oracle's lift holds every sample, between the points where it cuts
        rs = [expected.points[i] for i in sample_positions(samples)]
        assert all(abs(z - r) <= 1e-15 * max(1.0, abs(r)) for z, r in zip(lift.points, rs))
        assert slalom_decompose(lift) == slalom_decompose(expected)

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(), st.sampled_from((16, 64, 128)))
    def test_word_curve_matches_reference(self, w, samples):
        self.assert_matches_reference(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids())
    def test_braid_curve_matches_reference(self, b):
        self.assert_matches_reference(cross_ratio_curve(braid_to_strands(b)))

    @staticmethod
    def assert_bit_equal_per_point(curve):
        try:
            expected = per_point_lift(curve, BASE_LIFT_POINT)
        except LiftError:
            return  # test_*_matches_reference requires lift_path to raise the same
        assert bits(lift_path(curve, BASE_LIFT_POINT).points) == bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(), st.sampled_from((16, 64, 128)))
    def test_word_curve_is_bit_equal_per_point(self, w, samples):
        """atanh runs once per plan, not per copy; every lifted point has the bits of its own atanh(u)/pi + im."""
        self.assert_bit_equal_per_point(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids())
    def test_braid_curve_is_bit_equal_per_point(self, b):
        self.assert_bit_equal_per_point(cross_ratio_curve(braid_to_strands(b)))

    def test_equal_samples_with_other_zeros_lift_apart(self):
        """-5 + 0i and -5 - 0i are equal but lie on either side of the ray, one sheet apart; 0.5i and -0 + 0.5i are
        equal and differ only in the sign of a zero real part."""
        path = PolyPath((-5 + 0.5j, complex(-5, 0.0), -5.5 + 0.5j, complex(-5, -0.0), -5 - 0.5j), Plane.PUNCTURED)
        start = cmath.atanh(path.start) / math.pi + 0.5j
        lift = lift_path(path, start)
        assert bits(lift.points) == bits(per_point_lift(path, start))
        assert lift.points[1] == lift.points[3] == complex(lift.points[1].real, 1.0)
        path = PolyPath((0j, 0.5j, 0.5 + 0.5j, complex(-0.0, 0.5), -0.5 + 0.5j, 0j), Plane.PUNCTURED)
        assert bits(lift_path(path, BASE_LIFT_POINT).points) == bits(per_point_lift(path, BASE_LIFT_POINT))

    def test_collapsed_lift_raises_lift_error(self):
        """Samples closer than the rounding of their lifts, 0 and 1e-17i, lift to one point of the cover.  LiftError is
        a ValueError, as the package's other errors are."""
        assert issubclass(LiftError, ValueError)
        with pytest.raises(LiftError, match=re.escape("samples 0j and 1e-17j lift to the same point -0.5j")):
            lift_path(PolyPath((0j, 1e-17j, 0j), Plane.PUNCTURED), BASE_LIFT_POINT)

    def test_tolerance_governs(self):
        with pytest.raises(LiftError, match="misses"):
            lift_path(word_to_curve(parse_word("a1"), 64), BASE_LIFT_POINT, tol=1e-16)

    def test_far_axis_sample_misses(self):
        """A sample iy lifts within 1/(pi y) of iZ; far up the axis the residual check refuses it."""
        with pytest.raises(LiftError, match="misses"):
            lift_path(PolyPath((0j, 1e10j, 0j), Plane.PUNCTURED), BASE_LIFT_POINT)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, 0, -1.0, -math.inf])
    def test_tolerance_refused_up_front(self, tol):
        """tol must be > 0; it is checked before anything else, here a start off the fiber."""
        with pytest.raises(ValueError, match=f"^{re.escape(f'tol must be > 0; got {tol!r}')}$"):
            lift_path(word_to_curve(parse_word("a1"), 16), complex(0.3, 0.0), tol)

    def test_infinite_tolerance_accepted(self):
        curve = word_to_curve(parse_word("a1 a2^-2"), 16)
        assert lift_path(curve, BASE_LIFT_POINT, math.inf) == lift_path(curve, BASE_LIFT_POINT)

    @pytest.mark.parametrize("m, point, grid", [
        (1e15 - 0.5, "(-0.0015181747412651334+999999999999999.5j)",
         "on branch 999999999999999.5 is good only to 0.125"),
        (2.0**40 - 0.5, "(-0.0015181747412651334+1099511627775.5311j)",
         "on branch 1099511627775.5 is good only to 0.0001220703125"),
    ])
    def test_far_up_the_cover_names_the_branch_grid(self, m, point, grid):
        """Far up the cover Im z holds the branch only to ulp(m), which moves each image by far more than tol: the
        refusal names that, as the residual, taken as cover_map takes it, is no longer what fails."""
        message = f"lifted point {point} misses its image point (-0.004815273327803071+0.0980171403295606j) by more"
        with pytest.raises(LiftError, match=f"^{re.escape(f'{message} than 1e-06: Im z {grid}')}$"):
            lift_path(word_to_curve(parse_word("a1 a2"), 64), complex(0.0, m))

    @pytest.mark.parametrize("k", [52, 53, 60])
    def test_integer_branch_lifts_onto_the_images(self, k):
        """Past 2^52 the branch m rounds to an integer.  From Re atanh(2)/pi + 2^k i, in the fiber over 2, the samples
        3 and 2.5 on the same ray lift onto points whose images they are, and the residual, taken at z less an integer
        near Im z, passes them."""
        path = PolyPath((2 + 0j, 3 + 0j, 2.5 + 0j), Plane.PUNCTURED)
        lifted = lift_path(path, complex((cmath.atanh(2 + 0j) / math.pi).real, 2.0**k))
        assert [z.imag for z in lifted.points] == [2.0**k] * 3
        assert all(abs(cover_map(z) - u) <= 1e-15 for z, u in zip(lifted.points, path.points))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_word_curves_lift_while_branch_below_2_to_30(self, sign):
        """Word curves lift within 1e-6 while |m| < 2^30, where ulp(m) is 2^-23; past it Im z rounds too coarsely."""
        for w in ("a1^5 a2^-5", "a2^5 a1^-5"):
            lifted = lift_path(word_to_curve(parse_word(w), 64), complex(0.0, sign * (2.0**30 - 10.5)))
            assert max(abs(z.imag) for z in lifted.points) < 2**30
        with pytest.raises(LiftError, match=re.escape("is good only to 2.384185791015625e-07")):
            lift_path(word_to_curve(parse_word("a1 a2"), 64), complex(0.0, sign * (2.0**30 + 0.5)))

    @pytest.mark.parametrize("d, lifts", [(0.5e-8, True), (2e-8, False)])
    def test_fiber_tolerance_at_start(self, d, lifts):
        """cover_map(-i/2) is 0 up to rounding, so the start is at distance d from the fiber over d."""
        path = PolyPath((complex(d, 0.0), 0.5j, complex(d, 0.0)), Plane.PUNCTURED)
        if lifts:
            assert lift_path(path, BASE_LIFT_POINT).start == BASE_LIFT_POINT
        else:
            with pytest.raises(LiftError, match="not in the fiber"):
                lift_path(path, BASE_LIFT_POINT)

    def test_subnormal_real_part_lifts_onto_the_axis(self):
        """atanh(5e-324 + i) is i pi/4: that sample's lift is the point on iR, and no axis sample is added beside it.
        Re atanh(5e-324 + 0.5i) is 5e-324 but Re atanh(u)/pi underflows to 0, so that lift is on iR too; an axis
        sample added between it and -0.1 + 0.4i would lift onto the same point."""
        for points, axis_point, pieces in (
            ((0j, -1 + 1j, 5e-324 + 1j, 1 + 1j, 0j), complex(0.0, -0.25),
             (ElementaryPiece(HalfPlane.LEFT, -1, -1), ElementaryPiece(HalfPlane.RIGHT, -1, -1))),
            ((0j, 0.3j, 5e-324 + 0.5j, -0.1 + 0.4j, -0.2 + 0j, -0.1 - 0.3j, 0j), complex(0.0, -0.35241638234956674),
             (ElementaryPiece(HalfPlane.LEFT, -1, -1),)),
        ):
            path = PolyPath(points, Plane.PUNCTURED)
            lift, expected = lift_path(path, BASE_LIFT_POINT), reference_lift_points(path, BASE_LIFT_POINT)
            assert len(lift.points) == len(points) and lift.points[2] == axis_point
            assert bits(lift.points) == bits(expected)
            assert slalom_decompose(lift).pieces == slalom_decompose(PolyPath(expected, Plane.COVER)).pieces == pieces

    def test_chords_near_a_puncture_lift(self):
        """Chords that pass within rounding of a puncture lift, and their pieces read the word of the crossings."""
        for points, word in (
            ((0j, -1 + 2e-9j, 0j), ""),                          # out to 2e-9 from -1 and back
            ((0j, 2 + 1e-300j, -2 - 1e-300j, 0j), ""),           # past both punctures, 5e-301 away
            ((0j, -1 + 2e-9j, -1.5 - 1e-3j, 0j), "a1"),
            ((0j, 1 - 2e-9j, 2 + 1e-300j, 0.5 + 1j, 0j), "a2"),
        ):
            path = PolyPath(points, Plane.PUNCTURED)
            k = sum(t.exponent if t.gen is Generator.A1 else -t.exponent for t in parse_word(word).terms)
            assert lift_path(path, BASE_LIFT_POINT).end == complex(0.0, k - 0.5)
            assert lift_read_word(path) == curve_to_word(path) == parse_word(word)

    @pytest.mark.parametrize("points, message", [
        # Re a - Re b and Im b - Im a both overflow, so the point where the segment meets iR is NaN
        ((0j, 3.634698112347587e295 - 1.205167748024748j, -1.3e308 + 1.3e308j, 1.7e308 - 1.3e308j, 0j),
         "the segment from (-1.3e+308+1.3e+308j) to (1.7e+308-1.3e+308j) meets the imaginary axis at a point that "
         "overflows"),
        # a crossing at a puncture earlier in the path is refused first
        ((0j, -1 + 1j, -1 - 1j, -1.3e308 + 1.3e308j, 1.7e308 - 1.3e308j, 0j),
         "path meets the real axis at -1.0, within tolerance of a puncture"),
    ])
    def test_overflowing_axis_point_refused_in_path_order(self, points, message):
        """An axis point that overflows, NaN here, is refused by name, after the faults of the samples before it."""
        for tol in (1e-6, math.inf):
            with pytest.raises(LiftError, match=f"^{re.escape(message)}$"):
                lift_path(PolyPath(points, Plane.PUNCTURED), BASE_LIFT_POINT, tol)

    @staticmethod
    def assert_half_planes_kept(curve):
        """Re atanh(u)/pi has the sign of Re u or underflows to 0: every lifted point is in the closed half-plane of its
        sample."""
        try:
            lift = lift_path(curve, BASE_LIFT_POINT)
        except (LiftError, ValueError):
            return
        samples = axis_samples(curve.points)
        assert len(lift.points) == len(samples)
        # Re atanh(u)/pi underflows to 0 only from a subnormal Re u
        assert all(sign(z.real) == sign(u.real) or (z.real == 0 and abs(u.real) < sys.float_info.min)
                   for z, u in zip(lift.points, samples))

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=3), st.sampled_from((16, 64, 128)))
    def test_word_curve_keeps_half_planes(self, w, samples):
        self.assert_half_planes_kept(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids(max_factors=6))
    def test_braid_curve_keeps_half_planes(self, b):
        self.assert_half_planes_kept(cross_ratio_curve(braid_to_strands(b)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(loop_vertices(), st.builds(complex, st.floats(-3, 3), st.sampled_from((0.0, -0.0)))),
                    min_size=1, max_size=6))
    def test_polygon_keeps_half_planes(self, vertices):
        try:
            path = PolyPath((0j, *vertices, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        self.assert_half_planes_kept(path)


def near(center: complex):
    tiny = st.floats(-3e-9, 3e-9)
    return st.builds(lambda x, y: center + complex(x, y), tiny, tiny)


def path_points():
    """Points within 3e-9 of -1, 1 or iZ, non-finite points, and ordinary ones."""
    return st.one_of(
        st.sampled_from((-1.0, 1.0)).flatmap(near),
        st.integers(-3, 3).flatmap(lambda k: near(complex(0, k))),
        st.sampled_from((math.inf, -math.inf, math.nan)).flatmap(
            lambda bad: st.floats(-2, 2).flatmap(lambda x: st.sampled_from((complex(bad, x), complex(x, bad))))),
        st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    )


class TestPolyPath:
    @pytest.mark.parametrize("points, plane", [
        ((-1 + 0j, 0.5j), "punctured"),  # checked against iZ, the puncture -1 would get through
        ((0j, 1j), "cover"),             # .value of a str: AttributeError
        ((0.5j, 1 + 1j), None),
    ])
    def test_plane_must_be_a_member(self, points, plane):
        with pytest.raises(ValueError, match="plane must be a Plane member"):
            PolyPath(points, plane)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            PolyPath((), Plane.PUNCTURED)

    @pytest.mark.parametrize("points", [[0j, 1j], iter((0j, 1j))])
    def test_points_must_be_a_tuple(self, points):
        """A list was accepted, and the path could not be hashed."""
        with pytest.raises(ValueError, match=f"path points must be a tuple; got {type(points).__name__}$"):
            PolyPath(points, Plane.PUNCTURED)

    @pytest.mark.parametrize("z", [-1 + 0j, 1 + 0j, -1 + 9e-10, 1 - 9e-10j, 1 + 6e-10 + 6e-10j])
    def test_rejects_point_near_puncture(self, z):
        with pytest.raises(ValueError, match="excluded set of punctured"):
            PolyPath((0j, z), Plane.PUNCTURED)

    @pytest.mark.parametrize("z", [0j, 2j, -3j, 9e-10 + 1j, 1j - 9e-10j, -6e-10 + (2 + 6e-10) * 1j])
    def test_rejects_point_near_lattice(self, z):
        with pytest.raises(ValueError, match="excluded set of cover"):
            PolyPath((0.5 - 0.5j, z), Plane.COVER)

    def test_accepts_points_just_outside_tolerance(self):
        assert len(PolyPath((0j, 1 + 2e-9, -1 - 2e-9j), Plane.PUNCTURED).points) == 3
        assert len(PolyPath((2e-9 + 1j, 1j + 2e-9j), Plane.COVER).points) == 2

    def test_names_the_bad_point_past_a_point_whose_abs_overflows(self):
        """The scan for the first bad point measured |z - 1| of every point: OverflowError at 1.3e308 (1 + i)."""
        with pytest.raises(ValueError, match="path point .* hits the excluded set of punctured"):
            PolyPath((0j, complex(1.3e308, 1.3e308), -1 + 2e-10j, 0j), Plane.PUNCTURED)

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError, match="zero-length"):
            PolyPath((0j, 0.5j, 0.5j, 0j), Plane.PUNCTURED)

    @pytest.mark.parametrize("plane, z", [
        (Plane.PUNCTURED, complex(math.inf, 1)),   # the ray crossing at inf - inf read the identity word
        (Plane.PUNCTURED, complex(0.5, -math.inf)),
        (Plane.PUNCTURED, complex(math.nan, 0)),
        (Plane.COVER, complex(math.nan, 0.5)),
        (Plane.COVER, complex(0.5, math.nan)),
        (Plane.COVER, complex(0, math.inf)),       # round(inf) would raise OverflowError
    ])
    def test_rejects_non_finite(self, plane, z):
        with pytest.raises(ValueError, match=re.escape(f"path point {z} is not finite")):
            PolyPath((0.5 + 0.5j, z, -0.5 + 0.5j), plane)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        plane = data.draw(st.sampled_from(Plane))
        points = data.draw(st.lists(path_points(), max_size=8))
        if points and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(points) - 1))
            points.insert(i, points[i])
        expected = reference_path_error(points, plane)
        if expected is None:
            assert PolyPath(tuple(points), plane).points == tuple(points)
        else:
            with pytest.raises(ValueError) as exc:
                PolyPath(tuple(points), plane)
            assert str(exc.value) == expected


    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(Plane), st.lists(path_points(), min_size=2, max_size=4),
           st.lists(st.integers(0, 3), max_size=12))
    @example(Plane.PUNCTURED, [0.5j, 1 + 0j], [0, 1, 0, 1, 0])              # a bad point twice
    @example(Plane.PUNCTURED, [0.5j, -1 + 1e-10j, complex(math.nan, 0)], [0, 2, 1, 0, 1, 2])
    @example(Plane.PUNCTURED, [0.5j, -1 + 1e-10j, complex(math.nan, 0)], [0, 1, 2, 0])  # bad before NaN
    @example(Plane.COVER, [0.5 + 0.5j, 2j, complex(0, math.inf)], [0, 1, 0, 2, 1])
    def test_repeated_points_match_reference(self, plane, pool, picks):
        """Paths over a pool of 2 to 4 points, so that points repeat, as on word curves."""
        points = [pool[i % len(pool)] for i in picks]
        expected = reference_path_error(points, plane)
        if expected is None:
            assert PolyPath(tuple(points), plane).points == tuple(points)
        else:
            with pytest.raises(ValueError) as exc:
                PolyPath(tuple(points), plane)
            assert str(exc.value) == expected


class TestPolygonLift:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(loop_vertices(), st.builds(complex, st.floats(-3, 3), st.sampled_from((0.0, -0.0)))),
                    min_size=1, max_size=6))
    @example([complex(2.1471486802942295, -0.10824609356497383)])  # there and back past 1: nearest-branch ends at i/2
    def test_endpoint_matches_cutting_sequence(self, vertices):
        """The lift of a loop at 0 ends at i(-1/2 + the a1 exponents - the a2 exponents) of its word.

        Chords passing close to -1 or 1 and vertices on the real axis, on either
        side of it by the sign of their zero, are where a lift can take a wrong sheet.
        """
        try:
            path = PolyPath((0j, *vertices, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        try:
            lift = lift_path(path, BASE_LIFT_POINT)
        except (LiftError, ValueError):  # ValueError: lifted points too close to iZ
            return
        word = curve_to_word(path)
        k = sum(t.exponent if t.gen is Generator.A1 else -t.exponent for t in word.terms)
        assert abs(lift.end - complex(0, k - 0.5)) <= 1e-9
        assert lift_read_word(path) == word


class TestStandardLoop:
    def test_alpha1_geometry(self):
        loop = word_to_curve(parse_word("a1"), 64)
        assert len(loop.points) == 65
        assert all(z.real <= 1e-12 for z in loop.points)
        assert loop.start == 0 and loop.end == 0

    def test_alpha2_clockwise(self):
        loop = word_to_curve(parse_word("a2^-1"), 64)
        assert winding_number(loop.points, 1) == pytest.approx(-1, abs=1e-9)

    def test_windings(self):
        loop = word_to_curve(parse_word("a1"), 64)
        assert winding_number(loop.points, -1) == pytest.approx(1, abs=1e-9)
        assert winding_number(loop.points, 1) == pytest.approx(0, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            word_to_curve(FreeWord((Term(Generator.A1, 0),)))
        with pytest.raises(ValueError):
            word_to_curve(parse_word("a1"), 8)


class TestWordToCurve:
    def test_identity_constant(self):
        assert len(word_to_curve(FreeWord()).points) == 1

    def test_single_generator(self):
        circle = [-1 + cmath.exp(2j * math.pi * j / 64) for j in range(1, 64)]
        assert word_to_curve(parse_word("a1"), 64).points == (0j, *circle, 0j)

    def test_winding_additivity(self):
        curve = word_to_curve(parse_word("a1 a2^-1"), 64)
        assert winding_number(curve.points, -1) == pytest.approx(1, abs=1e-9)
        assert winding_number(curve.points, 1) == pytest.approx(-1, abs=1e-9)

    @pytest.mark.parametrize("text, samples", [
        ("a1", MAX_CURVE_POINTS + 1),
        (f"a1^{MAX_CURVE_POINTS // 16 - 1} a2^2", 16),
        ("a1^1000000000", 128),
    ])
    def test_point_budget(self, text, samples):
        with pytest.raises(ValueError, match="exceeds"):
            word_to_curve(parse_word(text), samples)

    @pytest.mark.parametrize("samples", [16.5, "64", None])
    def test_rejects_a_sampling_that_is_not_an_int(self, samples):
        """Refused up front, not left to fail in range() as an untyped TypeError."""
        with pytest.raises(ValueError, match="must be an int"):
            word_to_curve(parse_word("a1"), samples)

    def test_turns_are_kept_up_to_the_cap(self):
        """The process keeps a turn of at most ``_TURN_CAP`` samples, bit for bit a fresh build, and at most 16 of them;
        past the cap a call builds one turn per generator and sign and keeps none."""
        w = parse_word("a1^2 a2 a1^-1 a2^-3 a1")
        covering._turn.cache_clear()
        past = word_to_curve(w, covering._TURN_CAP + 1)
        assert covering._turn.cache_info().currsize == 0 and past._runs[1][0] is past._runs[5][0]
        at = word_to_curve(w, covering._TURN_CAP)
        assert covering._turn.cache_info().currsize == 4
        for (unit, _), term in zip(at._runs[1:], w.terms):
            key = term.gen.value, 1 if term.exponent > 0 else -1, covering._TURN_CAP
            assert unit is covering._turn(*key) and packed(unit) == packed(covering._turn.__wrapped__(*key))
        for samples in range(16, 40):
            word_to_curve(w, samples)
        assert covering._turn.cache_info().currsize == 16

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=3), st.sampled_from((16, 17, 64, 128, 1025)))
    def test_cold_and_warm_turns_give_the_same_curve(self, w, samples):
        """A curve built on an empty turn cache and again on a full one has the same points, word, lift and pieces."""
        outcomes = []
        for cold in (True, False):
            if cold:
                covering._turn.cache_clear()
            curve = word_to_curve(w, samples)
            outcomes.append((packed(curve.points), curve_to_word(curve), lift_and_read(curve)))
        assert outcomes[0] == outcomes[1]


class TestWordCurveCheckedByConstruction:
    """``word_to_curve`` builds its curve without ``PolyPath``'s checks; ``checked_word_curve`` runs them on the same
    points."""

    def assert_matches_oracle(self, curve: PolyPath) -> PolyPath:
        oracle = checked_word_curve(curve)
        assert packed(curve.points) == packed(oracle.points)
        assert set(bits(set(curve.points))) == set(bits(set(oracle.points)))  # distinct, so as sorted lists
        assert curve == oracle and hash(curve) == hash(oracle)
        return oracle

    def assert_obligations(self, curve: PolyPath, samples: int):
        """The docstring's proof: samples finite and about 1 from both punctures, and chords of at least
        2 sin(pi / samples) between consecutive points, across each turn's end at 0 too."""
        distinct = set(curve.points)
        assert all(map(cmath.isfinite, distinct))
        assert min(abs(z - p) for z in distinct for p in (-1.0, 1.0)) >= 1 - 1e-12
        chords = list(map(abs, map(sub, curve.points[1:], curve.points[:-1])))
        assert min(chords, default=math.inf) >= 2 * math.sin(math.pi / samples) * (1 - 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(reduced_words(max_terms=8, max_exp=1), reduced_words(max_terms=8, max_exp=4)),
           st.integers(16, 130))
    @example(FreeWord(), 17)
    @example(parse_word("a1^2 a2^-1 a1^-3 a2^5"), 999)
    def test_matches_oracle(self, w, samples):
        curve = word_to_curve(w, samples)
        oracle = self.assert_matches_oracle(curve)
        self.assert_obligations(curve, samples)
        assert curve_to_word(curve) == curve_to_word(oracle) == w
        lifted, checked = (lift_path(c, BASE_LIFT_POINT) for c in (curve, oracle))
        assert bits(lifted.points) == bits(checked.points)
        assert slalom_decompose(lifted) == slalom_decompose(checked)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(reduced_words(max_terms=8, max_exp=1), reduced_words(max_terms=8, max_exp=4)),
           st.integers(16, 130))
    def test_every_turn_ends_at_the_base_point(self, w, samples):
        """Each turn's last sample is 0j exactly, so the points within 1e-12 of 0 are the start and one a letter."""
        ends = [z for z in word_to_curve(w, samples).points if abs(z) < 1e-12]
        assert bits(ends) == bits([0j] * (w.letter_length() + 1))

    @pytest.mark.parametrize("samples", [16, 17, 128])
    def test_identity(self, samples):
        curve = word_to_curve(FreeWord(), samples)
        assert len(curve.points) == 1 and set(curve.points) == {0j}
        self.assert_matches_oracle(curve)

    def test_at_point_budget(self):
        w, samples = parse_word("a1^3 a2^-1 a1"), MAX_CURVE_POINTS // 5
        curve = word_to_curve(w, samples)
        assert len(curve.points) == MAX_CURVE_POINTS + 1
        self.assert_matches_oracle(curve)
        self.assert_obligations(curve, samples)
        assert 2 * math.sin(math.pi / MAX_CURVE_POINTS) > 6e-6  # the chord at the most samples per turn

    def test_word_routes_skip_point_checks(self, monkeypatch):
        """Neither route builds a ``PolyPath`` through its checks; copies of the curve equal the oracle."""
        w = parse_word(FIGURE2_TEXT)
        oracle = checked_word_curve(word_to_curve(w, 64))

        def refuse(self, *args, **kwargs):
            raise AssertionError("PolyPath's checks ran")

        monkeypatch.setattr(PolyPath, "__init__", refuse)  # an unchecked build calls no __init__
        with pytest.raises(AssertionError):
            PolyPath((0j,), Plane.PUNCTURED)
        curve = word_to_curve(w, 64)
        assert curve_to_word(curve) == w
        assert slalom_decompose(lift_path(curve, BASE_LIFT_POINT)).pieces == word_pieces(w)
        monkeypatch.undo()
        for copy in (pickle.loads(pickle.dumps(curve)), PolyPath(curve.points, curve.plane)):
            assert copy == oracle and hash(copy) == hash(oracle)
            assert sorted(bits(set(copy.points))) == sorted(bits(set(oracle.points)))


def lift_and_read(curve: PolyPath, start: complex = BASE_LIFT_POINT, tol: float = 1e-6) -> tuple:
    """The lift's point bits, real signs and pieces, or the error of the lift or of its pieces (a start off iR), and
    the word read."""
    try:
        lifted = lift_path(curve, start, tol)
        pieces = slalom_decompose(lifted)
    except ValueError as exc:
        return type(exc), str(exc), curve_to_word(curve)
    return packed(lifted.points), sign_string(z.real for z in lifted.points), pieces, curve_to_word(curve)


def turn_leg(center: float, sign: int, radii) -> tuple[complex, ...]:
    """A polygon turn from 0 about the puncture ``center`` and back to 0, a vertex at each of ``radii``; its steps are
    under 2 pi / 3, so it crosses the puncture's ray once."""
    k, phase = len(radii) + 1, 0.0 if center < 0 else math.pi
    return (*(center + r * cmath.exp(1j * (phase + sign * 2 * math.pi * j / k)) for j, r in enumerate(radii, 1)), 0j)


def runs_path(runs) -> PolyPath:
    """The path of 0 then ``runs``, carrying them, built as ``word_to_curve`` builds a word curve."""
    runs = (((0j,), 1), *runs)
    path = object.__new__(PolyPath)
    path.__dict__.update(points=tuple(chain.from_iterable(unit * n for unit, n in runs)), plane=Plane.PUNCTURED,
                         _runs=runs)
    return path


# a leg goes from 0 back to 0: a turn crosses a ray once, a loop in the disk |z| < 0.85 never, wild vertices any number
# of times, or come near a puncture; a unit of 1 to 3 legs crosses the rays 0, 1 or more times
LEGS = st.one_of(
    st.builds(turn_leg, st.sampled_from((-1.0, 1.0)), st.sampled_from((1, -1)),
              st.lists(st.floats(0.3, 1.7), min_size=2, max_size=5)),
    st.lists(st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)), min_size=1, max_size=3).map(
        lambda vertices: (*vertices, 0j)),
    st.lists(loop_vertices(), min_size=1, max_size=3).map(lambda vertices: (*vertices, 0j)),
)
UNITS = st.lists(LEGS, min_size=1, max_size=3).map(lambda legs: sum(legs, ()))
FIGURE_EIGHT = turn_leg(-1.0, 1, (1.0, 1.0, 1.0)) + turn_leg(1.0, 1, (1.0, 1.0, 1.0))  # sides -1 and 1, no net shift
# a unit whose last sample and first, distinct, lift to one point: its copies after the first collapse at the junction
COLLAPSING = (5e-324 + 0j, 0.5 + 0.5j, 0j)
# units that end at -0.0 - 0.0i and off 0, across iR from a turn's first sample: a kept turn after them is planned
# by the call, from other bits
SIGNED_ZERO, OFF_ZERO = (0.5 + 0.5j, complex(-0.0, -0.0)), (0.5 + 0.5j, 0.3 + 0.2j)


class TestWordCurveRuns:
    """A word curve carries its runs, and the lift and the reader work once per unit and predecessor sample; the
    oracle is the same points as one run, ``checked_word_curve``, which the lift and the reader take point by point."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(UNITS, st.integers(1, 5)), min_size=1, max_size=4),
           st.sampled_from([(BASE_LIFT_POINT, 1e-6), (BASE_LIFT_POINT, math.inf), (BASE_LIFT_POINT, 2e-16),
                            (complex(0.0, 1e6 + 0.5), 1e-9)]))
    @example([(FIGURE_EIGHT, 3)], (BASE_LIFT_POINT, 1e-6))
    @example([(turn_leg(-1.0, 1, (1.0, 1.0)) * 2, 2), (turn_leg(1.0, -1, (0.5, 1.5, 1.0)), 3)], (BASE_LIFT_POINT, 1e-6))
    @example([((0.5j, 0j), 4), (FIGURE_EIGHT, 2)], (BASE_LIFT_POINT, 1e-6))
    @example([(COLLAPSING, 3)], (complex(3e-9, -0.5), math.inf))
    def test_units_crossing_the_rays_any_number_of_times(self, runs, start_tol):
        """Each word-curve turn crosses a ray once; units that cross the rays 0, 1 or more times, with net shifts
        other than their first crossing's, lift and read as the same points as one run."""
        path = runs_path(runs)
        try:
            oracle = PolyPath(path.points, Plane.PUNCTURED)
        except ValueError:
            return
        try:
            expected = lift_and_read(oracle, *start_tol)
        except ValueError as exc:  # the reader refuses a crossing near a puncture, as the lift does
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                lift_and_read(path, *start_tol)
            return
        assert lift_and_read(path, *start_tol) == expected

    @settings(max_examples=60, deadline=None)
    @given(reduced_words(max_terms=10, max_exp=12), st.integers(16, 130))
    @example(FreeWord(), 16)
    @example(parse_word("a1^12 a2^-12 a1^-12 a2^12"), 17)
    def test_runs_lift_and_read_as_one_run(self, w, samples):
        curve = word_to_curve(w, samples)
        oracle = checked_word_curve(curve)
        assert oracle._runs == ((oracle.points, 1),) and len(curve._runs) == 1 + len(w.terms)
        assert packed(chain.from_iterable(unit * n for unit, n in curve._runs)) == packed(curve.points)
        assert lift_and_read(curve) == lift_and_read(oracle)
        assert curve_to_word(curve) == w

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=12), st.sampled_from((16, 17, 64)),
           st.sampled_from([(BASE_LIFT_POINT, 2e-16), (BASE_LIFT_POINT, 0.0), (BASE_LIFT_POINT, math.nan),
                            (complex(3e-9, -2.5), 1e-15), (complex(0.0, 1e6 + 0.5), 1e-9),
                            (complex(0.0, 1e7 + 0.5), 1e-6)]))
    @example(parse_word("a1^5 a2^-3 a1"), 17, (complex(0.0, 1e6 + 0.5), 1e-9))
    @example(FreeWord(), 16, (complex(3e-9, -2.5), 1e-15))  # a one-point lift off iR, which slalom_decompose refuses
    def test_runs_fail_as_one_run(self, w, samples, start_tol):
        """With a tolerance below rounding, or far up the cover, where rounding grows with the offset, a lift by
        runs raises the first fault in path order, as the lift of the one-run oracle does."""
        curve = word_to_curve(w, samples)
        assert lift_and_read(curve, *start_tol) == lift_and_read(checked_word_curve(curve), *start_tol)

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=10, max_exp=12), st.sampled_from((16, 17, 64)))
    @example(parse_word("a1^3 a2^-2 a1^-1 a2^4 a1 a2^-5 a1^-2 a2"), 64)
    def test_one_plan_per_generator_and_sign(self, w, samples):
        """A term a^n is n copies of one turn from 0 to 0, so a cold lift plans once per (generator, sign), and not
        for the start, a sample alone."""
        covering._turn.cache_clear()
        with mock.patch.object(covering, "_plan", wraps=covering._plan) as plan:
            lift_path(word_to_curve(w, samples), BASE_LIFT_POINT)
        covering._turn.cache_clear()  # the turns keep the plans under the mock's key
        assert plan.call_count == len({(t.gen, t.exponent > 0) for t in w.terms})

    @settings(max_examples=20, deadline=None)
    @given(reduced_words(max_terms=10, max_exp=12), st.sampled_from((16, 17, 64)))
    def test_no_plan_when_warm(self, w, samples):
        """A lift or a reading of a word curve whose turns the process keeps, planned by an earlier one, plans
        nothing."""
        covering._turn.cache_clear()
        with mock.patch.object(covering, "_plan", wraps=covering._plan) as plan, \
                mock.patch.object(covering, "_reads", wraps=covering._reads) as reads:
            lift_path(word_to_curve(w, samples), BASE_LIFT_POINT)
            assert curve_to_word(word_to_curve(w, samples)) == w
            plan.reset_mock()
            reads.reset_mock()
            lift_path(word_to_curve(w, samples), BASE_LIFT_POINT)
            assert curve_to_word(word_to_curve(w, samples)) == w
        covering._turn.cache_clear()
        assert (plan.call_count, reads.call_count) == (0, 0)

    @pytest.mark.parametrize("text, samples, end", [("a1^62500", 16, 62499.5j), ("a2^-7812", 128, 7811.5j)])
    def test_lifts_at_the_point_budget(self, text, samples, end):
        """The longest powers within the budget lift, so no word curve within it is refused; the traced peak, about
        55.5 and 48.6 MiB on a 64-bit CPython 3.11, is mostly the 10^6 lifted points and their tuple."""
        w = parse_word(text)
        curve = word_to_curve(w, samples)
        assert len(curve.points) - 1 <= MAX_CURVE_POINTS < (w.letter_length() + 1) * samples
        tracemalloc.start()
        try:
            lifted = lift_path(curve, BASE_LIFT_POINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lifted.end == end and len(lifted.points) == len(curve.points)
        assert peak < 60 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=4), st.sampled_from((16, 17, 64)))
    @example(FreeWord(), 16)
    def test_word_routes_leave_the_points_unbuilt(self, w, samples):
        """A word curve holds its runs alone and its lift its plans: the reader, the lift, ``slalom_decompose`` of the
        lift and its refusal of the curve build no points; read, they are the oracles', and the curve, the lift and
        their pickled copies equal them in ==, hash and repr."""
        curve = word_to_curve(w, samples)
        assert curve_to_word(curve) == w
        lifted = lift_path(curve, BASE_LIFT_POINT)
        assert slalom_decompose(lifted).pieces == word_pieces(w)
        with pytest.raises(ValueError, match="expects a path on the cover"):
            slalom_decompose(curve)
        copy = pickle.loads(pickle.dumps(curve))
        assert "points" not in vars(curve) and "points" not in vars(copy) and "points" not in vars(lifted)
        oracle = checked_word_curve(word_to_curve(w, samples))
        assert (curve.start, curve.end) == (oracle.start, oracle.end)
        oracle_lift = eager_lift(oracle, BASE_LIFT_POINT)
        assert packed([lifted.start, lifted.end]) == packed([oracle_lift.start, oracle_lift.end])
        for value, expected in ((curve, oracle), (copy, oracle), (lifted, oracle_lift),
                                (pickle.loads(pickle.dumps(lifted)), oracle_lift)):
            assert value == expected and (hash(value), repr(value)) == (hash(expected), repr(expected))
            assert len(value.points) == len(expected.points) and "points" in vars(value)

    def test_copies_take_one_run(self):
        curve = word_to_curve(parse_word(FIGURE2_TEXT), 64)
        pickled = pickle.loads(pickle.dumps(curve))
        assert pickled._runs == curve._runs
        for copy in (PolyPath(curve.points, curve.plane), PolyPath(curve.points, Plane.PUNCTURED)):
            assert copy._runs == ((copy.points, 1),)
        for copy in (pickled, PolyPath(curve.points, curve.plane), PolyPath(curve.points, Plane.PUNCTURED)):
            assert copy == curve and hash(copy) == hash(curve)
            assert lift_and_read(copy) == lift_and_read(curve)


def lazy_outcome(path: PolyPath, start: complex, tol: float) -> tuple:
    """The lift's point bits, real signs, end and pieces, or its refusal of them, read before its points; or the
    lift's error."""
    try:
        lifted = lift_path(path, start, tol)
    except ValueError as exc:
        return type(exc), str(exc)
    try:
        pieces = slalom_decompose(lifted).pieces
    except LiftError as exc:
        pieces = type(exc), str(exc)
    assert "points" not in vars(lifted)
    return packed(lifted.points), sign_string(z.real for z in lifted.points), packed([lifted.end]), pieces


def eager_outcome(path: PolyPath, start: complex, tol: float) -> tuple:
    """``lazy_outcome`` by the oracles ``eager_lift`` and ``eager_pieces``."""
    try:
        lifted = eager_lift(path, start, tol)
    except ValueError as exc:
        return type(exc), str(exc)
    try:
        pieces = eager_pieces(lifted)
    except LiftError as exc:
        pieces = type(exc), str(exc)
    return packed(lifted.points), sign_string(z.real for z in lifted.points), packed(lifted.points[-1:]), pieces


SHIFTING_EIGHT = turn_leg(-1.0, 1, (1.0, 1.0, 1.0)) + turn_leg(1.0, -1, (1.0, 1.0, 1.0))  # sides -1 and -1: m up 2


class TestLazyLift:
    """``lift_path`` builds a lift's points on first read, and ``slalom_decompose`` reads a lift by its runs, a plan's
    changes of half-plane once; the oracles, ``eager_lift`` and ``eager_pieces``, build every point and read each."""

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(st.builds(word_to_curve, reduced_words(max_terms=8, max_exp=6), st.sampled_from((16, 17, 64))),
                     st.lists(st.one_of(loop_vertices(), wide_vertices()), min_size=1, max_size=6),
                     st.lists(st.tuples(UNITS, st.integers(2, 5)), min_size=1, max_size=4).map(runs_path)),
           st.sampled_from([(BASE_LIFT_POINT, 1e-6), (BASE_LIFT_POINT, math.inf), (BASE_LIFT_POINT, 2e-16),
                            (complex(0.0, 1e6 + 0.5), 1e-9), (complex(3e-9, -2.5), 1e-15)]))
    @example(runs_path([(SHIFTING_EIGHT, 3)]), (BASE_LIFT_POINT, 1e-6))
    @example(runs_path([(FIGURE_EIGHT, 2), (SHIFTING_EIGHT[::-1][1:] + (0j,), 3)]), (BASE_LIFT_POINT, 1e-6))
    @example(runs_path([((0.5j, 0j), 4), (SHIFTING_EIGHT, 2)]), (complex(0.0, 1e6 + 0.5), 1e-9))
    @example(word_to_curve(parse_word(FIGURE2_TEXT), 17), (complex(3e-9, -2.5), 1e-15))
    @example(runs_path([(COLLAPSING, 3)]), (complex(3e-9, -0.5), math.inf))
    @example(runs_path([(OFF_ZERO, 2), (FIGURE_EIGHT, 2), (SIGNED_ZERO, 2), (SHIFTING_EIGHT, 2)]),
             (BASE_LIFT_POINT, 1e-6))
    def test_matches_the_eager_lift(self, path, start_tol):
        """Word curves, polygon loops and runs of copies of units that cross the rays 0, 1 or more times, after samples
        of their units' last bits or others: the same point bits, real signs, end and pieces, or the same first fault,
        as the lift that builds every point."""
        try:
            PolyPath(path.points if isinstance(path, PolyPath) else (0j, *path, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        if not isinstance(path, PolyPath):
            path = PolyPath((0j, *path, 0j), Plane.PUNCTURED)
        assert lazy_outcome(path, *start_tol) == eager_outcome(path, *start_tol)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.builds(word_to_curve, reduced_words(max_terms=6, max_exp=4), st.sampled_from((16, 64))),
                     st.lists(st.tuples(UNITS, st.integers(2, 4)), min_size=1, max_size=3).map(runs_path)))
    def test_pickled_lift_carries_its_points_not_its_plans(self, path):
        """A pickled lift holds its points, plane, start and end: it equals the lift in ==, hash and repr, and reads
        as the same pieces."""
        try:
            lifted = lift_path(path, BASE_LIFT_POINT)
            pieces = slalom_decompose(lifted)
        except ValueError:
            return
        copy = pickle.loads(pickle.dumps(lifted))
        assert sorted(vars(copy)) == ["end", "plane", "points", "start"]
        assert copy == lifted and (hash(copy), repr(copy)) == (hash(lifted), repr(lifted))
        assert packed([copy.start, copy.end]) == packed([lifted.start, lifted.end])
        assert slalom_decompose(copy) == pieces

    def test_one_class_plans_read_their_first_copy_alone(self):
        """A copy of a plan that enters one half-plane alone, as every word-curve turn does, adds no piece after the
        plan's first copy: the pieces of a^n come from one copy."""
        lifted = lift_path(word_to_curve(parse_word("a1^40 a2^-40"), 16), BASE_LIFT_POINT)
        assert [(len(plan[6]), n) for plan, _, n, _ in lifted._lift] == [(1, 40), (1, 40)]
        assert slalom_decompose(lifted).pieces == word_pieces(parse_word("a1^40 a2^-40"))

    def test_a_refused_lift_stops_at_its_first_residual_fault(self):
        """A cold a1^50 at 64 samples is refused at tol 1e-15 in its second copy: the lift checks no chunk after that
        one, and raises the eager lift's error."""
        with pytest.raises(LiftError) as oracle:
            eager_lift(word_to_curve(parse_word("a1^50"), 64), BASE_LIFT_POINT, 1e-15)
        covering._turn.cache_clear()
        with mock.patch.object(covering, "_chunk", wraps=covering._chunk) as chunk, pytest.raises(LiftError) as got:
            lift_path(word_to_curve(parse_word("a1^50"), 64), BASE_LIFT_POINT, 1e-15)
        assert chunk.call_count == 2 and str(got.value) == str(oracle.value)


def kept_path(recipe) -> PolyPath:
    """The path of ``recipe``, built now: a word curve of (word, samples), or ``runs_path`` of (unit, count) runs, a
    unit given as the key of a turn that ``_turn`` keeps or as its points."""
    if isinstance(recipe[0], FreeWord):
        return word_to_curve(*recipe)
    return runs_path([(covering._turn(*unit) if isinstance(unit[0], str) else unit, n) for unit, n in recipe])


def kept_memos(w: FreeWord, samples: int) -> list[dict | None]:
    """The memo of each term's lift plan that the process keeps with the term's turn, or None where it keeps none."""
    turns = [covering._turn(t.gen.value, 1 if t.exponent > 0 else -1, samples) for t in w.terms]
    return [plan[-1] if (plan := vars(turn).get(covering._plan)) else None for turn in turns]


RECIPES = st.one_of(
    st.tuples(reduced_words(max_terms=6, max_exp=6), st.sampled_from((16, 17, 64))),
    st.lists(st.tuples(st.one_of(st.tuples(st.sampled_from(("a1", "a2")), st.sampled_from((1, -1)),
                                           st.sampled_from((16, 17))), UNITS, st.sampled_from((SIGNED_ZERO, OFF_ZERO))),
                       st.integers(1, 4)), min_size=1, max_size=4),
)
KEPT_STARTS = st.sampled_from([(BASE_LIFT_POINT, 1e-6), (BASE_LIFT_POINT, math.inf), (BASE_LIFT_POINT, 2e-16),
                               (BASE_LIFT_POINT, 1e-15), (complex(0.0, 1e6 + 0.5), 1e-9),
                               (complex(0.0, -(2.0**21 - 0.5)), 1e-9), (complex(3e-9, -0.5), math.inf)])


class TestKeptPlans:
    """The plans of a turn that ``_turn`` keeps are built once per process and live as long as it does; its lift plan
    keeps the chunk classes that lifts at one tol passed before their first fault, at most 204.  The oracle is the
    same lift on an empty turn cache."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(RECIPES, KEPT_STARTS), min_size=1, max_size=5))
    @example([(((("a1", 1, 64), 1),), (BASE_LIFT_POINT, 1e-15)),
              (((("a1", 1, 64), 1), (("a2", -1, 64), 1)), (BASE_LIFT_POINT, 1e-15))])
    @example([(((SIGNED_ZERO, 1), (("a1", 1, 16), 2)), (BASE_LIFT_POINT, 1e-6)),
              (((OFF_ZERO, 2), (("a1", 1, 16), 2), (("a1", 1, 16), 1)), (BASE_LIFT_POINT, 1e-6)),
              (((("a1", 1, 16), 3),), (BASE_LIFT_POINT, 1e-6))])
    def test_warm_lifts_match_cold_ones(self, lifts):
        """Lifts and readings one after another in one process, twice over, each give what they give on an empty
        turn cache: the same point bits, real signs, end and pieces, or the same first fault, and the same word; and
        those are what the oracles give, the eager lift and the reading of the same points as one run."""
        def outcome(recipe, start, tol):
            path = kept_path(recipe)
            try:
                word = curve_to_word(path)
            except ValueError as exc:
                word = type(exc), str(exc)
            return lazy_outcome(path, start, tol), word

        oracles = []
        for recipe, (start, tol) in lifts:
            try:
                oracle = PolyPath(kept_path(recipe).points, Plane.PUNCTURED)
            except ValueError:
                return
            try:
                word = curve_to_word(oracle)
            except ValueError as exc:
                word = type(exc), str(exc)
            oracles.append((eager_outcome(oracle, start, tol), word))
        cold = []
        for recipe, (start, tol) in lifts:
            covering._turn.cache_clear()
            cold.append(outcome(recipe, start, tol))
        assert cold == oracles
        covering._turn.cache_clear()
        warm = [outcome(recipe, start, tol) for _ in range(2) for recipe, (start, tol) in lifts]
        assert warm == cold * 2

    def test_a_lift_that_faults_keeps_what_passed_before_it(self):
        """At 1e-15, a1 lifts and a1 a2^-1 faults at the first chunk of its second term, after its first passed: the
        fault keeps the classes that a1's lift keeps and none of the second term's, and raises the same error cold and
        warm."""
        w, ok = parse_word("a1 a2^-1"), parse_word("a1")
        covering._turn.cache_clear()
        lift_path(word_to_curve(ok, 64), BASE_LIFT_POINT, 1e-15)
        passed = [{tol: set(keys) for tol, keys in memo.items()} for memo in kept_memos(ok, 64)]
        assert passed[0][1e-15]
        covering._turn.cache_clear()
        with pytest.raises(LiftError) as first:
            lift_path(word_to_curve(w, 64), BASE_LIFT_POINT, 1e-15)
        assert kept_memos(w, 64) == [*passed, {1e-15: set()}]
        for _ in range(2):
            with pytest.raises(LiftError) as again:
                lift_path(word_to_curve(w, 64), BASE_LIFT_POINT, 1e-15)
            assert str(again.value) == str(first.value)
            assert kept_memos(w, 64) == [*passed, {1e-15: set()}]

    def test_a_pass_at_inf_excuses_no_finer_tol(self):
        """A lift at tol inf checks no residual, so the classes it keeps are kept for inf alone: a lift at 2e-16
        after it faults as it does cold, and replaces them with the none that passed before its fault."""
        w = parse_word("a1")
        covering._turn.cache_clear()
        with pytest.raises(LiftError) as cold:
            lift_path(word_to_curve(w, 16), BASE_LIFT_POINT, 2e-16)
        lift_path(word_to_curve(w, 16), BASE_LIFT_POINT, math.inf)
        (memo,) = kept_memos(w, 16)
        kept = set(memo[math.inf])
        assert kept and list(memo) == [math.inf]
        with pytest.raises(LiftError) as warm:
            lift_path(word_to_curve(w, 16), BASE_LIFT_POINT, 2e-16)
        assert str(warm.value) == str(cold.value) and memo == {2e-16: set()}  # its first chunk faults
        lift_path(word_to_curve(w, 16), BASE_LIFT_POINT, 1e-6)  # a lift at another tol replaces them
        assert list(memo) == [1e-6] and memo[1e-6]

    def test_the_memo_bound_holds_far_up(self):
        """A kept turn crosses a ray once, by side s, so a chunk's class on branch m below 2^51 is (class(m),
        class(m - s)), class(o) = ulp(o) with o's sign, and whether the point before is its first, which never passes.
        For m in 1/2 + Z, |m| < 2^51, a pair is decided by the binades of m and m - s, so the half-integers within 2 of
        each power of two give every one: 204 for either s.  Lifts from +-(2^k - 1/2)i, k < 62, at tol inf keep no
        other class in a plan; branches past 2^51 keep none."""
        def kind(o):
            return math.copysign(math.ulp(o), o)

        near = {x for k in range(52) for j in range(-2, 2) if 0 < (x := 2.0**k + j + 0.5) < 2**51}
        pairs = {s: {(kind(m), kind(m - s)) for x in near for m in (x, -x)} for s in (1, -1)}
        assert [len(found) for found in pairs.values()] == [204, 204]
        w = parse_word("a1^3 a2^-1 a1^-2")
        covering._turn.cache_clear()
        lift_path(word_to_curve(w, 16), complex(0.0, -(2.0**52 - 0.5)), math.inf)
        assert kept_memos(w, 16) == [{math.inf: set()}] * 3
        covering._turn.cache_clear()
        for k in range(62):
            for sign in (1, -1):
                try:
                    lift_path(word_to_curve(w, 16), complex(0.0, sign * (2.0**k - 0.5)), math.inf)
                except ValueError:
                    assert k >= 52
        for t in w.terms:
            plan = vars(covering._turn(t.gen.value, 1 if t.exponent > 0 else -1, 16))[covering._plan]
            (side,) = plan[1]
            assert plan[-1][math.inf] and plan[-1][math.inf] <= {(False, pair) for pair in pairs[side]}

    def test_other_paths_keep_nothing(self):
        """Turns past the cap, runs of other units, a kept turn after a sample of other bits than its last, a
        one-run path and a pickled curve are planned by the call: the process keeps no plan of theirs."""
        w = parse_word("a1^2 a2^-1")
        covering._turn.cache_clear()
        past = word_to_curve(w, covering._TURN_CAP + 1)
        turn = covering._turn("a1", 1, 16)
        paths = [past, runs_path([(FIGURE_EIGHT, 2)]), runs_path([(SIGNED_ZERO, 1), (turn, 1)]),
                 PolyPath(word_to_curve(w, 16).points, Plane.PUNCTURED), pickle.loads(pickle.dumps(past))]
        for path in paths:
            lifted = lift_path(path, BASE_LIFT_POINT)
            curve_to_word(path)
            assert [plan[-1] for plan, *_ in lifted._lift] == [None] * len(lifted._lift)
        assert all(type(unit) is tuple for unit, _ in past._runs + paths[-1]._runs)
        keys = [("a1", 1, 16), ("a2", -1, 16)]  # the turn after -0.0 - 0.0i, and those of the one-run path's points
        assert covering._turn.cache_info().currsize == 2 and all(vars(covering._turn(*key)) == {} for key in keys)

    def test_kept_plans_live_with_their_turns(self):
        """A word curve's turns keep their lift and reading plans, of their own samples alone; the cache's clearing
        drops them with the turns, and a pickled curve holds its turns' samples, not their plans."""
        w = parse_word("a1^2 a2^-1 a1")
        covering._turn.cache_clear()
        curve = word_to_curve(w, 16)
        lifted = lift_path(curve, BASE_LIFT_POINT)
        assert curve_to_word(curve) == w
        turns = [unit for unit, _ in curve._runs[1:]]
        assert all(sorted(vars(turn), key=str) == sorted([covering._plan, covering._reads], key=str)
                   for turn in turns)
        for turn in turns:
            assert vars(turn)[covering._plan][0][0] is turn[-1]  # the turn's own sample, no caller's
        assert {id(plan) for plan, *_ in lifted._lift} == {id(vars(turn)[covering._plan]) for turn in turns}
        assert pickle.loads(pickle.dumps(curve))._runs == curve._runs
        assert all(type(unit) is tuple for unit, _ in pickle.loads(pickle.dumps(curve))._runs)
        covering._turn.cache_clear()
        fresh = word_to_curve(w, 16)
        assert all(unit is not turn and vars(unit) == {} for (unit, _), turn in zip(fresh._runs[1:], turns))


class TestCurveToWord:
    def test_square(self):
        w = parse_word("a1^2")
        assert curve_to_word(word_to_curve(w, 64)) == w

    def test_identity(self):
        assert curve_to_word(word_to_curve(FreeWord())) == FreeWord()

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            w = _random_reduced_word(rng, 12)
            assert curve_to_word(word_to_curve(w, 64)) == w

    def test_homomorphism(self):
        rng = random.Random(17)
        for _ in range(10):
            u = _random_reduced_word(rng, 5)
            v = _random_reduced_word(rng, 5)
            cu, cv = word_to_curve(u, 64), word_to_curve(v, 64)
            joined = PolyPath(cu.points + cv.points[1:], Plane.PUNCTURED)
            assert curve_to_word(joined) == concat(u, v)

    def test_refinement_stability(self):
        rng = random.Random(19)
        for _ in range(10):
            w = _random_reduced_word(rng, 8)
            assert curve_to_word(word_to_curve(w, 64)) == curve_to_word(word_to_curve(w, 128))

    def test_rejects_non_based_loop(self):
        path = PolyPath((0.5 + 0j, 0.5 + 1j, 0.5 + 0j), Plane.PUNCTURED)
        with pytest.raises(ValueError):
            curve_to_word(path)

    def test_rejects_cover_plane_path(self):
        """A cover-plane path is refused, as by lift_path and slalom_decompose, not read as a loop at 0."""
        path = PolyPath((5e-9 + 0j, -2 + 1j, -2 - 1j, 5e-9 + 0j), Plane.COVER)
        with pytest.raises(ValueError, match="punctured plane"):
            curve_to_word(path)

    @pytest.mark.parametrize("d, lifts", [(0.5e-8, True), (2e-8, False)])
    def test_fiber_tolerance_at_base_point(self, d, lifts):
        """A loop's ends may be up to 1e-8 from 0, at either end."""
        for ends in ((d, 0j), (0j, complex(0.0, -d))):
            path = PolyPath((ends[0], -2 + 1j, -2 - 1j, ends[1]), Plane.PUNCTURED)
            if lifts:
                assert curve_to_word(path) == parse_word("a1")
            else:
                with pytest.raises(ValueError, match="based at 0"):
                    curve_to_word(path)


def loop(*points: complex):
    """Polygonal loop based at 0 through ``points``."""
    return PolyPath((0j, *points, 0j), Plane.PUNCTURED)


class TestRayReader:
    @settings(max_examples=40, deadline=None)
    @given(reduced_words(max_terms=6, max_exp=3), st.sampled_from((16, 64, 128)))
    def test_matches_lift_oracle(self, w, samples):
        curve = word_to_curve(w, samples)
        assert curve_to_word(curve) == lift_read_word(curve) == w

    @pytest.mark.parametrize("points, expected", [
        ((-2 + 1j, -2 - 1j), "a1"),     # left ray, downward
        ((-2 - 1j, -2 + 1j), "a1^-1"),  # left ray, upward
        ((2 - 1j, 2 + 1j), "a2"),       # right ray, upward
        ((2 + 1j, 2 - 1j), "a2^-1"),    # right ray, downward
    ])
    def test_crossing_signs(self, points, expected):
        path = loop(*points)
        assert curve_to_word(path) == parse_word(expected) == lift_read_word(path)

    def test_middle_crossings_read_nothing(self):
        assert curve_to_word(loop(0.5 + 1j, -0.5 - 1j, 0.5 + 1j)) == FreeWord()

    @pytest.mark.parametrize("points, expected", [
        ((-2 + 1j, -2 + 0j, -2 - 1j), "a1"),
        ((2 - 1j, 3 + 0j, 2 + 1j), "a2"),
        ((-2 + 1j, -2 + 0j, -3 + 0j, -2 - 1j), "a1"),
        ((-1.2 + 1j, -1.5 + 0j, 0.5 - 1j), "a1"),  # the chord past the sample meets (-1, 1)
    ])
    def test_sample_on_ray_passed_through(self, points, expected):
        path = loop(*points)
        assert curve_to_word(path) == parse_word(expected) == lift_read_word(path)

    @pytest.mark.parametrize("points", [
        (-2 + 1j, -2 + 0j, -3 + 1j),
        (2 - 1j, 2 + 0j, 3 - 1j),
        (-0.5 + 1j, -0.5 + 0j, 0.5 + 1j),
    ])
    def test_sample_on_axis_touched_and_left(self, points):
        path = loop(*points)
        assert curve_to_word(path) == FreeWord() and lift_read_word(path) == FreeWord()

    @pytest.mark.parametrize("x", [-1.0, 1.0, -1 + 1e-10, 1 - 1e-10, 1 + 5e-10])
    def test_crossing_at_puncture_raises(self, x):
        with pytest.raises(ValueError, match="puncture"):
            curve_to_word(loop(x + 1j, x - 1j))
        with pytest.raises(LiftError, match="puncture"):
            lift_path(loop(x + 1j, x - 1j), BASE_LIFT_POINT)

    @pytest.mark.parametrize("x, word", [(-1 - 2e-9, "a1"), (1 + 2e-9, "a2^-1")])
    def test_crossing_just_outside_puncture_tolerance(self, x, word):
        path = loop(x + 1j, x - 1j)
        assert curve_to_word(path) == parse_word(word) == lift_read_word(path)

    def test_axis_run_through_puncture_raises(self):
        with pytest.raises(ValueError, match="puncture"):
            curve_to_word(loop(-0.5 + 1j, -0.5 + 0j, -1.5 + 0j, -1.5 - 1j))
        for run in ((-0.5 + 0j, -1.5 + 0j), (-0.4 + 0j, -1.7 + 0j)):
            with pytest.raises(LiftError, match="through"):
                lift_path(loop(run[0] + 1j, *run, run[1] - 1j), BASE_LIFT_POINT)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(loop_vertices(), st.builds(complex, st.floats(-3, 3), st.sampled_from((0.0, -0.0)))),
                    min_size=1, max_size=6))
    @example([-2 + 1j, complex(-2, -0.0), -3 + 1j])          # a touch from the other side: a1 a1^-1
    @example([-2 + 1j, complex(-2, 0.0), complex(-0.5, -0.0), -0.5 - 1j])  # an axis run through -1
    def test_matches_reference_reader(self, vertices):
        """The one crossing walker reads the word, or the error, of the per-sample reader on polygonal loops."""
        try:
            path = PolyPath((0j, *vertices, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        try:
            expected = reference_read_word(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                curve_to_word(path)
            assert str(got.value) == str(exc)
            return
        assert curve_to_word(path) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.lists(wide_vertices(), min_size=1, max_size=6))
    @example([2j, 1e308 + 1e-300j, -1e308 - 1j, -2j])    # b.real - a.real overflowed: read a1, not a2^-1
    @example([1e308 + 1.7e308j, -1e308 - 3e307j])        # a.imag - b.imag overflowed: read the identity, not a1
    @example([1j, 1e308 + 0j, -1e308 - 1j, -1j])        # 0 times an overflowed difference: no crossing, not a2^-1
    @example([2.0**52 - 0.5j, complex(0.5, 2.0**-54)])  # t rounds to 1, x to 0.5: at 1 - 1.1e-16, not an error
    @example([1.5 + 5e-324j, -0.5 - 5e-324j, 1j])        # Im's halves round to 0: a halved formula divides 0 by 0
    def test_matches_exact_oracle(self, vertices):
        """Over the whole float range, the reader reads the word, or the error type, of the cutting sequence with
        each crossing located exactly."""
        try:
            path = PolyPath((0j, *vertices, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        outcomes = []
        for read in (curve_to_word, lambda p: reference_read_word(p, exact_crossing)):
            try:
                outcomes.append(read(path))
            except ValueError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]


class TestSlalomDecompose:
    def test_cube_single_piece(self):
        lift = lift_path(word_to_curve(parse_word("a1^3"), 64), BASE_LIFT_POINT)
        dec = slalom_decompose(lift)
        assert len(dec.pieces) == 1
        piece = dec.pieces[0]
        assert piece.half_plane is HalfPlane.LEFT
        assert (piece.start_component, piece.end_component) == (-1, 2)
        assert not piece.trivial

    def test_single_loop_trivial(self):
        lift = lift_path(word_to_curve(parse_word("a1"), 64), BASE_LIFT_POINT)
        dec = slalom_decompose(lift)
        assert len(dec.pieces) == 1
        assert dec.pieces[0].trivial

    def test_figure2_piece_displacements(self):
        lift = lift_path(word_to_curve(parse_word(FIGURE2_TEXT), 64), BASE_LIFT_POINT)
        signed = []
        for p in slalom_decompose(lift).pieces:
            disp = p.end_component - p.start_component
            signed.append(disp if p.half_plane is HalfPlane.LEFT else -disp)
        assert signed == [-1, 2, -3, -1, -1, -1, 1, -1]

    def test_alternation_of_nontrivial_pieces(self):
        lift = lift_path(word_to_curve(parse_word("a1^2 a2^-2 a1^3"), 64), BASE_LIFT_POINT)
        pieces = [p for p in slalom_decompose(lift).pieces if not p.trivial]
        for a, b in zip(pieces, pieces[1:]):
            assert a.half_plane is not b.half_plane

    @pytest.mark.parametrize("points", [(0.3 + 0.5j,), (-5e-324 - 0.5j,), (0.3 + 0.5j, 0.3j)])
    def test_endpoint_off_the_axis_refused(self, points):
        """A path of one point off iR is refused as a longer one is; the identity's lift, on iR, has no pieces."""
        with pytest.raises(LiftError, match=f"^path endpoint {re.escape(str(points[0]))} is not on the imaginary"):
            slalom_decompose(PolyPath(points, Plane.COVER))
        assert slalom_decompose(lift_path(word_to_curve(FreeWord(), 64), BASE_LIFT_POINT)).pieces == ()

    @settings(max_examples=60, deadline=None)
    @given(reduced_words(), st.sampled_from((16, 64, 128)))
    def test_word_curve_matches_word_pieces(self, w, samples):
        """The pieces of a word curve's lift are those its terms spell, at every sampling."""
        lift = lift_path(word_to_curve(w, samples), BASE_LIFT_POINT)
        assert slalom_decompose(lift).pieces == word_pieces(w)


def cover(*points: complex) -> PolyPath:
    return PolyPath(points, Plane.COVER)


class TestSlalomReading:
    """slalom_decompose reads hand-built cover-plane paths exactly, with no tolerance."""

    def test_piece_ends_at_last_axis_point_of_run(self):
        path = cover(-0.5j, -0.3 + 0.5j, 0.5j, complex(-0.0, 1.2), 1.5j, 0.3 + 1.2j, 0.5j)
        assert slalom_decompose(path).pieces == (
            ElementaryPiece(HalfPlane.LEFT, -1, 1), ElementaryPiece(HalfPlane.RIGHT, 1, 0))

    def test_touch_does_not_split(self):
        path = cover(-0.5j, -0.3 + 0.5j, 1.5j, -0.3 + 2.5j, 2.5j)
        assert slalom_decompose(path).pieces == (ElementaryPiece(HalfPlane.LEFT, -1, 2),)

    def test_axis_only_path_has_no_pieces(self):
        assert slalom_decompose(cover(-0.5j, 0.5j, 1.5j)) == SlalomDecomposition(())

    def test_change_off_axis_raises(self):
        with pytest.raises(LiftError, match="off the imaginary axis"):
            slalom_decompose(cover(-0.5j, -0.3 + 0.5j, 0.3 + 0.5j, 0.5j))

    @pytest.mark.parametrize("points", [
        (complex(1e-300, -0.5), -0.3 + 0.5j, 0.5j),
        (-0.5j, -0.3 + 0.5j, complex(-1e-300, 0.5)),
    ])
    def test_endpoint_off_axis_raises(self, points):
        with pytest.raises(LiftError, match="not on the imaginary axis"):
            slalom_decompose(cover(*points))

    def test_punctured_plane_path_raises(self):
        with pytest.raises(ValueError, match="on the cover"):
            slalom_decompose(word_to_curve(parse_word("a1"), 64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(complex, st.sampled_from((0.0, -0.0, 0.3, -0.3, 5e-324, -5e-324)), st.floats(-5, 5)),
                    min_size=1, max_size=12))
    def test_matches_the_point_by_point_reader(self, points):
        """A cover path built point by point is read as one copy of one plan, as ``eager_pieces`` reads it."""
        try:
            path = PolyPath(tuple(points), Plane.COVER)
        except ValueError:
            return
        outcomes = []
        for read in (lambda: slalom_decompose(path).pieces, lambda: eager_pieces(path)):
            try:
                outcomes.append(read())
            except LiftError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


# zeros of both signs, the smallest subnormal, and values whose products with each other underflow to 0
EDGE_FLOATS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 1e-200, -1e-200, 1e-300, -1e-300))


class TestSignStrings:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS), max_size=24))
    @example([1e-200, 1e-200, -1e-200, -1e-200, 5e-324, 5e-324])  # products that underflow to 0.0 and -0.0
    @example([0.0, -0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, -1.0])
    def test_candidates_match_product_pass(self, xs):
        """The candidates are exactly the pairs with a zero or strictly opposite signs.  Over finite floats, as path
        points are, the product pass finds those, and besides them only pairs of one sign whose product underflows."""
        signs = sign_string(xs)
        got = covering._pairs(signs, covering._TOUCHING)
        assert got == [i for i in range(1, len(xs)) if xs[i - 1] == 0 or xs[i] == 0 or (xs[i - 1] < 0) != (xs[i] < 0)]
        assert covering._pairs(signs, covering._FLIPS) == [
            i for i in range(1, len(xs)) if min(xs[i - 1:i + 1]) < 0 < max(xs[i - 1:i + 1])]
        oracle = reference_touching(xs)
        assert set(got) <= set(oracle)
        assert all(xs[i - 1] != 0 != xs[i] and (xs[i - 1] > 0) == (xs[i] > 0) and xs[i - 1] * xs[i] == 0
                   for i in set(oracle) - set(got))

    @staticmethod
    def assert_lift_reads_as_its_points(curve):
        """A lift, read by its plans, and its points built again, read by their sign string, give the same pieces."""
        lifted = lift_path(curve, BASE_LIFT_POINT)
        plain = PolyPath(lifted.points, Plane.COVER)  # built again: it carries no plans
        assert "_lift" not in plain.__dict__ and plain == lifted and hash(plain) == hash(lifted)
        assert slalom_decompose(lifted) == slalom_decompose(plain)

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(), st.sampled_from((16, 64, 128)))
    def test_word_curve_lift_reads_as_its_points(self, w, samples):
        self.assert_lift_reads_as_its_points(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids())
    def test_braid_curve_lift_reads_as_its_points(self, b):
        self.assert_lift_reads_as_its_points(cross_ratio_curve(braid_to_strands(b)))


def lift_outcome(path: PolyPath, start: complex, tol: float):
    try:
        return bits(lift_path(path, start, tol).points)
    except (LiftError, ValueError) as exc:
        return type(exc), str(exc)


class TestCoverRoute:
    """lift_path checks only the points of samples near iR against iZ; the oracle checks every point."""

    @staticmethod
    def assert_route_matches_full_check(path, start=BASE_LIFT_POINT, tol=1e-6):
        try:
            expected = bits(reference_lift_points(path, start, tol))
        except (LiftError, ValueError) as exc:
            expected = type(exc), str(exc)
        assert lift_outcome(path, start, tol) == expected

    @settings(max_examples=40, deadline=None)
    @given(reduced_words(), st.sampled_from((16, 64, 128)))
    def test_word_curves(self, w, samples):
        self.assert_route_matches_full_check(word_to_curve(w, samples))

    @settings(max_examples=20, deadline=None)
    @given(pure_braids())
    def test_braid_curves(self, b):
        self.assert_route_matches_full_check(cross_ratio_curve(braid_to_strands(b)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(loop_vertices(), st.builds(complex, st.floats(-3, 3), st.sampled_from((0.0, -0.0))),
                              st.builds(complex, st.sampled_from((0.0, 3e8, 4.5e8, -1e9)),
                                        st.sampled_from((0.0, -0.0))),
                              st.builds(complex, st.sampled_from((0.0, -0.0)), st.floats(-1e300, 1e300)),
                              # subnormal real parts: Re atanh(u)/pi underflows to 0 at +-5e-324, not at +-1e-320
                              st.builds(complex, st.sampled_from((5e-324, -5e-324, 1e-320, -1e-320)), st.floats(-3, 3))),
                    min_size=1, max_size=6), st.sampled_from((1e-6, math.inf)))
    def test_polygon_loops(self, vertices, tol):
        try:
            path = PolyPath((0j, *vertices, 0j), Plane.PUNCTURED)
        except ValueError:
            return
        self.assert_route_matches_full_check(path, tol=tol)

    @pytest.mark.parametrize("points, start, tol, point", [
        # a sample on the real axis far beyond 1 lifts to within 1e-9 of iR at Im = +-1/2, and onto iZ
        ((0j, 2 + 1j, complex(1e9, 0.0), 2 - 1j, 0j), BASE_LIFT_POINT, 1e-6, "(3.1830988618379065e-10+0j)"),
        # a sample iy lifts onto iR within 1/(pi y) of iZ: 9.1e-10 here, inside 1e-9
        ((0j, 3.5e8j, 0j), BASE_LIFT_POINT, math.inf, "-9.094567876566373e-10j"),
        # an offset of 2^40 rounds the lift of 1e5j onto iZ; near 1 the start is in the fiber up to rounding
        ((1 + 1e-8 + 0j, 0.5 + 0.5j, 1e5j, -0.5 + 0.5j), cmath.atanh(1 + 1e-8) / math.pi + (2**40 + 0.5) * 1j,
         math.inf, "1099511627777j"),
        # at 4.5e8 the real part, 7.1e-10, is inside 1e-9 but outside half of it
        ((0j, 2 + 1j, complex(4.5e8, 0.0), 2 - 1j, 0j), BASE_LIFT_POINT, 1e-6, "(7.073553026306461e-10+0j)"),
    ])
    def test_lift_near_lattice_takes_full_check(self, points, start, tol, point):
        with pytest.raises(ValueError, match=re.escape(f"path point {point} hits the excluded set of cover")):
            lift_path(PolyPath(points, Plane.PUNCTURED), start, tol)

    def test_non_finite_start_takes_full_check(self):
        """cover_map refuses each start: round(inf) would overflow, round(nan) fail, and cover_map(nan - i/2) is NaN,
        which the fiber test would let through."""
        for start in NON_FINITE_STARTS:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{start} is not finite')}$"):
                lift_path(word_to_curve(parse_word("a1"), 16), start)

    @pytest.mark.parametrize("points", [(0j, 1e300j, 0j), (0j, 1e17j, -1e17j, 0j)])
    def test_lift_onto_lattice_raises_lift_error(self, points):
        """atan(y)/pi rounds to 1/2 far up iR, so the sample lifts exactly onto 0, the pole of coth."""
        path = PolyPath(points, Plane.PUNCTURED)
        with pytest.raises(LiftError, match=re.escape(f"lifted point 0j of image point {points[1]} is on iZ")):
            lift_path(path, BASE_LIFT_POINT)
        self.assert_route_matches_full_check(path)



def branches():
    """Lists of branches m, most in one binade or its neighbours near a drawn 2^k, so that classes repeat: half-integers
    of either sign, next to a power of two or anywhere in the binade, and past 2^52, where they round to integers."""
    def branch(k, dk, j, f, s):
        base = 2.0 ** max(k + dk, 0)
        return s * (base + j + 0.5 if f is None else math.floor(base * (1 + f)) + 0.5)
    one = lambda k: st.builds(branch, st.just(k), st.sampled_from((-1, 0, 0, 1)), st.integers(-3, 2),
                              st.one_of(st.none(), st.floats(0, 1, exclude_max=True)), st.sampled_from((1, -1)))
    return st.integers(0, 60).flatmap(lambda k: st.lists(one(k), min_size=1, max_size=8))


def word_plan(w: FreeWord, samples: int, i: int) -> tuple:
    runs = covering._copies(word_to_curve(w, samples), covering._plan)
    return runs[i % len(runs)][0] if runs else covering._plan((0j,), None)


def residuals(plan: tuple, m: float) -> list[float]:
    """The residual of each point of ``plan`` lifted on ``m``, by ``cover_map``; inf within tolerance of iZ."""
    out = []
    for z, u in zip(reference_chunk(plan, m, math.inf, math.nan, {}), plan[0][1:]):
        try:
            out.append(abs(cover_map(z) - u))
        except ValueError:
            out.append(math.inf)
    return out


# a unit that crosses the ray [1, inf) once, and predecessors of its first sample: across iR, so that an axis point is
# inserted at the junction (at 0.5i, and far up iR, where its lift is within 1e-9 of iZ), across the ray, and neither
JUNCTION_UNIT = (0.5 + 0.5j, 1.5 + 0.5j, 1.5 - 0.5j, 0.5 - 0.5j, 0j)
JUNCTIONS = (-0.5 + 0.5j, -0.5 + 1e9j, 3 - 1j, 0.5 + 0.25j)
# the same start, across the ray and back, with a sample whose residual on the binade [4, 8) tops, at the tol of the
# examples below, that of every other point lifted there: the first unit's third segment faults only on 4.5, a class its
# second segment met first, and the second unit's second segment only on 4.5, after its first met 3.5
CLASS_UNITS = ((0.5 + 0.5j, 1.5 + 0.5j, 1.5 - 0.5j, 1.5 + 0.5j, 3.165295427719368 + 1.6794003492886458j, 0j),
               (0.5 + 0.5j, 1.5 + 0.5j, 5.782369645851785 - 5.697399424944226j, 1.5 + 0.5j, 0j))


def chunk_points(plan: tuple, m: float, after: float) -> list[complex]:
    """The points of a copy of ``plan`` on branch ``m``, as a lift builds them on first read, its last on ``after``,
    the branch ``_chunk`` returns."""
    points = _new(PolyPath, plane=Plane.COVER, start=math.nan, _lift=[(plan, m, 1, after)]).points[1:]
    assert packed(points[-1:]) == packed([plan[3][-1] + complex(0.0, after)])
    return points


def raised(faults: dict) -> tuple | None:
    """What a lift raises after the chunks that left ``faults``, by type and message: the earliest check's first."""
    return (type(e := faults[min(faults)]), str(e)) if faults else None


class TestChunkMemo:
    """``_chunk`` runs its checks once per class of a plan's chunks, raises the residual's first fault at once and
    runs each other check until it has a fault; ``reference_chunk``, the oracle, runs all at every chunk.  ``_chunk``
    builds no points it returns: a copy's are those a lift builds on first read, and the point before the next copy
    is the oracle's last."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.builds(word_plan, reduced_words(max_terms=3, max_exp=3), st.sampled_from((16, 17, 64)),
                               st.integers(0, 10)),
                     st.lists(loop_vertices(), min_size=1, max_size=6).map(lambda vertices: (0j, *vertices, 0j))),
           branches(), st.integers(0, 7),
           st.one_of(st.sampled_from((1e-6, 2e-16, math.inf)),
                     st.tuples(st.integers(0, 10**6), st.sampled_from((0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0)))),
           st.lists(st.integers(0, 2), min_size=8, max_size=8))
    @example((0j, 0.5j, 2 + 0j, -0.5j, 0j), [0.5, -0.5, 1.5, 4.5, 2.0**52 + 1, 2.0**53, 4.5], 2, 1e-6,
             [0, 1, 2, 0, 1, 2, 0, 0])
    # +-1/2 are classes of their own sign: the residual is 6.1e-17 on -1/2 and 2.0e-16 on 1/2
    @example((0j, -0.37 + 0.34j, 0j), [-0.5, 0.5], 0, 1e-16, [0] * 8)
    def test_memo_matches_per_chunk_checks(self, unit, ms, bits, tol, ways):
        """The same point bits, and after each chunk the same error that a lift would raise, by type and message, until
        the oracle's first residual fault.  The plans come from word curves and polygon units; Im atanh(u)/pi
        rounded to a few bits makes ties; tol is drawn on either side of a residual of the first chunk; the point
        before each chunk is its predecessor sample lifted on m, its first point, or the last chunk's end."""
        if isinstance(unit[0], complex):  # a polygon unit after the sample 0, not a plan
            try:
                PolyPath(unit, Plane.PUNCTURED)
                unit = covering._plan(unit, None)
            except ValueError:
                return
        us, sides, lengths, values, near, _, changes, _ = unit
        if not values:
            return
        if bits:
            values = [complex(v.real, round(v.imag * 2**bits) / 2**bits) for v in values]
        halves = [complex(0.0, math.copysign(0.5, v.imag)) for v in values]
        plan, memo = (us, sides, lengths, values, near, halves, changes, None), set()
        if isinstance(tol, tuple):
            found = residuals(plan, ms[0])
            tol = found[tol[0] % len(found)] * tol[1] or 2e-16
        memo_faults, oracle_faults = {}, {}
        last = BASE_LIFT_POINT
        for m, way in zip(ms, ways):
            last = (cmath.atanh(us[0]) / math.pi + complex(0.0, m), values[0] + complex(0.0, m), last)[way]
            expected = reference_chunk(plan, m, tol, last, oracle_faults)
            try:
                after = covering._chunk(plan, memo, m, tol, last, memo_faults)
            except LiftError as exc:  # the residual's first fault, raised at once
                assert 0 in oracle_faults and (type(exc), str(exc)) == raised(oracle_faults)
                return
            assert raised(memo_faults) == raised(oracle_faults)
            assert packed(chunk_points(plan, m, after)) == packed(expected)
            last = expected[-1]

    def test_junctions_insert_cross_or_neither(self):
        """The predecessors of ``JUNCTIONS`` insert an axis point (the first two), cross the ray at the junction, and
        do neither."""
        plans = [covering._plan((pred, *JUNCTION_UNIT), None) for pred in JUNCTIONS]
        assert [len(plan[0]) - len(JUNCTION_UNIT) for plan in plans] == [2, 2, 1, 1]
        assert [plan[0][1] for plan in plans[:2]] == [0.5j, (5e8 + 0.25) * 1j]
        assert [plan[2][0] for plan in plans] == [3, 3, 0, 2]  # the samples before the first crossing

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from((JUNCTION_UNIT, *CLASS_UNITS)),
                     st.lists(LEGS, min_size=1, max_size=2).map(lambda legs: sum(legs, ()))),
           st.lists(st.one_of(st.sampled_from(JUNCTIONS), loop_vertices()), min_size=2, max_size=5),
           branches(), st.lists(st.integers(0, 4), min_size=8, max_size=8),
           st.lists(st.integers(0, 2), min_size=8, max_size=8),
           st.one_of(st.sampled_from((1e-6, 2e-16, math.inf)),
                     st.tuples(st.integers(0, 10**6), st.sampled_from((0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0)))))
    @example(JUNCTION_UNIT, list(JUNCTIONS), [0.5] * 4, [0, 1, 2, 3], [0] * 4, 1e-6)
    @example(JUNCTION_UNIT, list(JUNCTIONS), [2.5, -1.5, 2.5, 3.5, 2.5], [3, 2, 0, 1, 1], [2, 0, 1, 0, 2], math.inf)
    @example(CLASS_UNITS[0], [0.5 + 0.25j], [3.5, 4.5], [0, 0], [0, 2], 8e-15)
    @example(CLASS_UNITS[1], [0.5 + 0.25j], [2.5, 3.5], [0, 0], [0, 2], 4e-14)
    def test_plans_of_one_unit_match_per_chunk_checks(self, unit, preds, ms, picks, ways, tol):
        """Chunks of several plans of one unit, after different predecessor samples, each plan with its own memo, give
        the oracle's point bits and, after each chunk, the error that a lift would raise, by type and message, until
        the oracle's first residual fault.  The point before each chunk is its predecessor sample lifted on m, its first
        point, or the last chunk's end; tol is drawn on either side of a residual of the first chunk."""
        plans = []
        for pred in preds:
            try:
                PolyPath((pred, *unit), Plane.PUNCTURED)
                plans.append(covering._plan((pred, *unit), None))
            except ValueError:
                continue
        if not plans:
            return
        memos = [set() for _ in plans]
        if isinstance(tol, tuple):
            found = residuals(plans[picks[0] % len(plans)], ms[0])
            tol = found[tol[0] % len(found)] * tol[1] or 2e-16
        memo_faults, oracle_faults, last = {}, {}, BASE_LIFT_POINT
        for m, pick, way in zip(ms, picks, ways):
            plan = plans[pick % len(plans)]
            last = (cmath.atanh(plan[0][0]) / math.pi + complex(0.0, m), plan[3][0] + complex(0.0, m), last)[way]
            expected = reference_chunk(plan, m, tol, last, oracle_faults)
            try:
                after = covering._chunk(plan, memos[pick % len(plans)], m, tol, last, memo_faults)
            except LiftError as exc:  # the residual's first fault, raised at once
                assert 0 in oracle_faults and (type(exc), str(exc)) == raised(oracle_faults)
                return
            assert raised(memo_faults) == raised(oracle_faults)
            assert packed(chunk_points(plan, m, after)) == packed(expected)
            last = expected[-1]

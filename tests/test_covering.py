import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIGURE2_TEXT, lift_read_word, reduced_words
from slalom.cli import random_reduced_word
from slalom.covering import (
    BASE_LIFT_POINT,
    HalfPlane,
    LiftError,
    Plane,
    PolyPath,
    cover_derivative,
    cover_map,
    curve_to_word,
    lift_path,
    make_path,
    slalom_decompose,
    standard_loop,
    word_to_curve,
)
from slalom.words import FreeWord, Generator, concat, parse_word


def winding_number(points, center: complex) -> float:
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += cmath.phase((b - center) / (a - center))
    return total / (2 * math.pi)


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


class TestCoverDerivative:
    def test_finite_difference_oracle(self):
        z = -0.5j + 0.3
        h = 1e-6
        fd = (cover_map(z + h) - cover_map(z - h)) / (2 * h)
        d = cover_derivative(z)
        assert abs(d - fd) / abs(d) < 1e-6

    def test_periodicity(self):
        z = 0.7 + 0.25j
        assert cover_derivative(z + 2j) == pytest.approx(cover_derivative(z), abs=1e-9)

    def test_nonvanishing_random(self):
        rng = random.Random(7)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 0.95) + rng.randint(-2, 2))
            assert abs(cover_derivative(z)) > 0


class TestLiftPath:
    def test_alpha1_endpoint(self):
        lift = lift_path(standard_loop(Generator.A1, 1, 64), BASE_LIFT_POINT)
        assert abs(lift.end - 0.5j) < 1e-6

    def test_alpha2_endpoint(self):
        lift = lift_path(standard_loop(Generator.A2, 1, 64), BASE_LIFT_POINT)
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
            w = random_reduced_word(rng, 6)
            curve = word_to_curve(w, 64)
            if curve.is_constant:
                continue
            lift = lift_path(curve, BASE_LIFT_POINT)
            assert abs(lift.end.real) < 1e-6
            assert abs(lift.end.imag - round(lift.end.imag - 0.5) - 0.5) < 1e-6

    def test_start_not_in_fiber(self):
        with pytest.raises(LiftError):
            lift_path(standard_loop(Generator.A1, 1, 64), 0.5 + 0.5j)


class TestStandardLoop:
    def test_alpha1_geometry(self):
        loop = standard_loop(Generator.A1, 1, 64)
        assert len(loop.points) == 65
        assert all(z.real <= 1e-12 for z in loop.points)
        assert loop.start == 0 and loop.end == 0

    def test_alpha2_clockwise(self):
        loop = standard_loop(Generator.A2, -1, 64)
        assert winding_number(loop.points, 1) == pytest.approx(-1, abs=1e-9)

    def test_windings(self):
        loop = standard_loop(Generator.A1, 1, 64)
        assert winding_number(loop.points, -1) == pytest.approx(1, abs=1e-9)
        assert winding_number(loop.points, 1) == pytest.approx(0, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            standard_loop(Generator.A1, 0)
        with pytest.raises(ValueError):
            standard_loop(Generator.A1, 1, 8)


class TestWordToCurve:
    def test_identity_constant(self):
        assert word_to_curve(FreeWord()).is_constant

    def test_single_generator(self):
        assert word_to_curve(parse_word("a1"), 64).points == standard_loop(Generator.A1, 1, 64).points

    def test_winding_additivity(self):
        curve = word_to_curve(parse_word("a1 a2^-1"), 64)
        assert winding_number(curve.points, -1) == pytest.approx(1, abs=1e-9)
        assert winding_number(curve.points, 1) == pytest.approx(-1, abs=1e-9)


class TestCurveToWord:
    def test_square(self):
        w = parse_word("a1^2")
        assert curve_to_word(word_to_curve(w, 64)) == w

    def test_identity(self):
        assert curve_to_word(word_to_curve(FreeWord())).is_identity

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            w = random_reduced_word(rng, 12)
            assert curve_to_word(word_to_curve(w, 64)) == w

    def test_homomorphism(self):
        rng = random.Random(17)
        for _ in range(10):
            u = random_reduced_word(rng, 5)
            v = random_reduced_word(rng, 5)
            cu, cv = word_to_curve(u, 64), word_to_curve(v, 64)
            joined = make_path(cu.points + cv.points[1:], Plane.PUNCTURED)
            assert curve_to_word(joined) == concat(u, v)

    def test_refinement_stability(self):
        rng = random.Random(19)
        for _ in range(10):
            w = random_reduced_word(rng, 8)
            assert curve_to_word(word_to_curve(w, 64)) == curve_to_word(word_to_curve(w, 128))

    def test_rejects_non_based_loop(self):
        path = make_path([0.5 + 0j, 0.5 + 1j, 0.5 + 0j], Plane.PUNCTURED)
        with pytest.raises(ValueError):
            curve_to_word(path)


def loop(*points: complex):
    """Polygonal loop based at 0 through ``points``."""
    return make_path([0j, *points, 0j], Plane.PUNCTURED)


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
        assert curve_to_word(loop(0.5 + 1j, -0.5 - 1j, 0.5 + 1j)).is_identity

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
        assert curve_to_word(path).is_identity and lift_read_word(path).is_identity

    @pytest.mark.parametrize("x", [-1.0, 1.0, -1 + 1e-10, 1 - 1e-10, 1 + 5e-10])
    def test_crossing_at_puncture_raises(self, x):
        with pytest.raises(ValueError, match="puncture"):
            curve_to_word(loop(x + 1j, x - 1j))

    def test_axis_run_through_puncture_raises(self):
        with pytest.raises(ValueError, match="puncture"):
            curve_to_word(loop(-0.5 + 1j, -0.5 + 0j, -1.5 + 0j, -1.5 - 1j))


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

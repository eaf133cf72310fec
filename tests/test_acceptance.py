"""Acceptance suite: one pass/fail line per criterion, with runtime budgets."""

import math
import random
import time

import pytest

from conftest import FIGURE2_TEXT, lift_read_word, random_pure_braid, random_word_max_terms
from slalom.braids import BraidWord, braid_to_strands, cross_ratio_curve, cstar, full_twist, parse_braid
from slalom.cli import _random_reduced_word
from slalom.covering import curve_to_word, lift_path, word_to_curve, BASE_LIFT_POINT, cover_map
from slalom.elliptic import ModulusMethod, rect_extremal_length, verify_log_bounds
from slalom.syllables import (
    BoundaryCondition,
    SyllableKind,
    decompose,
    lambda_bounds,
    lambda_invariant,
)
from slalom.words import FreeWord, Generator, Term, concat, parse_word

TR = BoundaryCondition.TOTALLY_REAL
PB = BoundaryCondition.PERPENDICULAR_BISECTOR


class Criterion:
    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"{status} criterion {self.number}: {self.title} ({elapsed:.2f}s / {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"
        return False


def test_criterion_1_figure2_fidelity():
    with Criterion(1, "Figure-2 syllables and Lambda", 1.0):
        dec = decompose(parse_word(FIGURE2_TEXT))
        assert [(s.kind, s.degree) for s in dec.syllables] == [
            (SyllableKind.SINGLETON, 1),
            (SyllableKind.BIG_POWER, 2),
            (SyllableKind.BIG_POWER, 3),
            (SyllableKind.ALTERNATING_RUN, 3),
            (SyllableKind.SINGLETON, 1),
            (SyllableKind.SINGLETON, 1),
        ]
        expected = 3 * math.log(2) + math.log(3) + 2 * math.log(4)
        assert abs(lambda_invariant(parse_word(FIGURE2_TEXT)) - expected) < 1e-12


def test_criterion_2_exceptional_cases():
    with Criterion(2, "exceptional-case classification", 5.0):
        for gen in ("a1", "a2"):
            for n in range(-10, 11):
                w = parse_word(f"{gen}^{n}")
                b = lambda_bounds(w, TR)
                assert (b.lower, b.upper, b.exceptional) == (0.0, 0.0, True)
        # all sign-constant words of length <= 6 under pb
        for n_terms in range(0, 7):
            for sign in (1, -1):
                for first in Generator:
                    terms, gen = [], first
                    for _ in range(n_terms):
                        terms.append(Term(gen, sign))
                        gen = Generator.A2 if gen is Generator.A1 else Generator.A1
                    b = lambda_bounds(FreeWord(tuple(terms)), PB)
                    assert (b.lower, b.upper, b.exceptional) == (0.0, 0.0, True)
        # generic otherwise on a 500-word random suite
        rng = random.Random(101)
        checked = 0
        while checked < 500:
            w = random_word_max_terms(rng, 12)
            exps = [t.exponent for t in w.terms]
            if len(w.terms) > 1 and not (all(e == 1 for e in exps) or all(e == -1 for e in exps)):
                assert not lambda_bounds(w, TR).exceptional
                if not (len(set(exps)) == 1 and abs(exps[0]) == 1):
                    assert not lambda_bounds(w, PB).exceptional
                checked += 1


def test_criterion_3_elliptic_oracles():
    with Criterion(3, "elliptic oracle equivalence and log bounds", 30.0):
        for m in (0.1, 0.5, 1, 2, 5, 10, 100, 1e4):
            c = rect_extremal_length(m, ModulusMethod.CLOSED_FORM).extremal_length
            q = rect_extremal_length(m, ModulusMethod.QUADRATURE).extremal_length
            assert abs(c - q) < 1e-8, f"M={m}: {c} vs {q}"
        assert rect_extremal_length(0.0).extremal_length == 0.0
        grid = [10 ** (-1 + 5 * j / 49) for j in range(50)]
        vals = [rect_extremal_length(m).extremal_length for m in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        sweep = [0.5 * (2e4) ** (j / 39) for j in range(40)]
        rep = verify_log_bounds(sweep)
        assert 0 < rep.ratio_min <= rep.ratio_max
        assert rep.ratio_max / rep.ratio_min < 5
        # bracket pinned at build time, kept as regression numbers
        assert 0.7 < rep.ratio_min < 0.9
        assert 3.0 < rep.ratio_max < 3.3


def test_criterion_4_lift_endpoints():
    with Criterion(4, "covering lift endpoints and deck invariance", 5.0):
        a1 = word_to_curve(parse_word("a1"), 128)
        a2 = word_to_curve(parse_word("a2"), 128)
        l1 = lift_path(a1, BASE_LIFT_POINT)
        l2 = lift_path(a2, BASE_LIFT_POINT)
        assert abs(l1.end - 0.5j) < 1e-6
        assert abs(l2.end - (-1.5j)) < 1e-6
        # projection reproduces inputs pointwise (the lift holds every input sample)
        for path, lift in ((a1, l1), (a2, l2)):
            images = [cover_map(z) for z in lift.points]
            j = 0
            for p in path.points:
                while j < len(images) and abs(images[j] - p) > 1e-6:
                    j += 1
                assert j < len(images)
        for k in (1, 2):
            shifted = lift_path(a1, BASE_LIFT_POINT + 2j * k)
            for a, b in zip(l1.points, shifted.points):
                assert abs(b - (a + 2j * k)) < 1e-6


def test_criterion_5_word_curve_round_trip():
    with Criterion(5, "word/curve round trip at two refinements", 60.0):
        rng = random.Random(2024)
        for _ in range(100):
            w = _random_reduced_word(rng, 12)
            for samples in (64, 128):
                curve = word_to_curve(w, samples)
                assert curve_to_word(curve) == w and lift_read_word(curve) == w


def checked_cstar(b: BraidWord) -> FreeWord:
    """cstar, asserted equal to the word read from the lift of the same curve."""
    w = cstar(b)
    assert w == lift_read_word(cross_ratio_curve(braid_to_strands(b))), b
    return w


def test_criterion_6_braid_correspondence():
    with Criterion(6, "braid correspondence", 120.0):
        assert checked_cstar(full_twist()) == FreeWord()
        rng = random.Random(4096)
        for _ in range(50):
            b = random_pure_braid(rng, 10)
            assert checked_cstar(b * full_twist()) == checked_cstar(b)
        for _ in range(200):
            b1 = random_pure_braid(rng, 6)
            b2 = random_pure_braid(rng, 6)
            assert checked_cstar(b1 * b2) == concat(checked_cstar(b1), checked_cstar(b2))
        w = cstar(parse_braid("s1^2"))
        assert len(w.terms) == 1
        assert w.terms[0].gen is Generator.A1 and abs(w.terms[0].exponent) == 1
        # regression-pinned sign epsilon = +1
        assert w == parse_word("a1")

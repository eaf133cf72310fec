import math
import random

import mpmath
import pytest

from slalom.elliptic import (
    ModulusMethod,
    agm,
    elementary_slalom_bounds,
    rect_extremal_length,
    verify_log_bounds,
)

CLOSED = ModulusMethod.CLOSED_FORM
QUAD = ModulusMethod.QUADRATURE

# pinned at build time from the quadrature oracle; kept as regression numbers
RECT_M1 = 1.5634019226961113
SWEEP_RATIO_MIN = 0.7803459916548664
SWEEP_RATIO_MAX = 3.1550472422641684


class TestAgm:
    def test_equal_arguments(self):
        assert agm(1.0, 1.0) == 1.0

    def test_fixed_point_random(self):
        rng = random.Random(3)
        for _ in range(20):
            x = rng.uniform(1e-3, 1e3)
            assert agm(x, x) == pytest.approx(x, rel=1e-15)

    def test_symmetric(self):
        assert agm(2.0, 3.0) == pytest.approx(agm(3.0, 2.0), rel=1e-15)

    def test_against_high_precision_gauss_iteration(self):
        # independent oracle: Gauss iteration at 50-digit precision
        with mpmath.workdps(50):
            expected = float(mpmath.agm(1, mpmath.mpf(1) / 2))
        assert agm(1.0, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            agm(0.0, 1.0)
        with pytest.raises(ValueError):
            agm(1.0, -2.0)


class TestRectExtremalLength:
    def test_degenerate(self):
        qm = rect_extremal_length(0.0)
        assert qm.extremal_length == 0.0
        assert qm.conformal_module == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rect_extremal_length(-1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method", [CLOSED, QUAD])
    def test_non_finite_rejected(self, m, method):
        with pytest.raises(ValueError):
            rect_extremal_length(m, method)

    def test_pinned_value_at_m1(self):
        assert rect_extremal_length(1.0, CLOSED).extremal_length == pytest.approx(RECT_M1, abs=1e-9)
        assert rect_extremal_length(1.0, QUAD).extremal_length == pytest.approx(RECT_M1, abs=1e-8)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1, 2, 5, 10, 100, 1e4])
    def test_oracle_equivalence(self, m):
        c = rect_extremal_length(m, CLOSED).extremal_length
        q = rect_extremal_length(m, QUAD).extremal_length
        assert abs(c - q) < 1e-8

    def test_closed_form_mpmath_oracle_full_range(self):
        # lambda = 2 K(k) / K(k'), k = M/(M+1), at 80 digits (1 - k^2 needs 60 at M = 1e-30);
        # mpmath's ellipk takes the parameter k^2
        for j in range(61):
            m = 10.0 ** (-30 + j)
            with mpmath.workdps(80):
                big_m = mpmath.mpf(m)
                k2 = (big_m / (big_m + 1)) ** 2
                expected = 2 * mpmath.ellipk(k2) / mpmath.ellipk(1 - k2)
                rel = abs(rect_extremal_length(m).extremal_length - expected) / expected
            assert rel < 2e-15, f"M={m}: relative error {float(rel)}"

    @pytest.mark.filterwarnings("error")
    def test_quadrature_mpmath_oracle_full_range(self):
        # the quadrature route either meets 1e-8 or raises, without warnings; it must not raise on [1e-12, 1e8]
        for j in range(241):
            m = 10.0 ** (-12 + j / 10)
            with mpmath.workdps(30):
                big_m = mpmath.mpf(m)
                k2 = (big_m / (big_m + 1)) ** 2
                expected = float(2 * mpmath.ellipk(k2) / mpmath.ellipk(1 - k2))
            try:
                got = rect_extremal_length(m, QUAD).extremal_length
            except ArithmeticError:
                assert m > 1e8, f"quadrature raised at M={m}"
                continue
            assert got == pytest.approx(expected, rel=1e-8), f"M={m}"

    def test_monotone(self):
        assert (rect_extremal_length(2.0).extremal_length
                > rect_extremal_length(1.0).extremal_length)

    def test_strictly_increasing_fine_grid(self):
        ms = [10 ** (-1 + 5 * j / 49) for j in range(50)]
        vals = [rect_extremal_length(m).extremal_length for m in ms]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_length_module_duality(self):
        for m in (0.3, 1.0, 7.5):
            qm = rect_extremal_length(m)
            assert qm.extremal_length * qm.conformal_module == pytest.approx(1.0, rel=1e-12)


class TestVerifyLogBounds:
    def test_single_sample(self):
        rep = verify_log_bounds([0.5])
        expected = rect_extremal_length(0.5).extremal_length / math.log(1.5)
        assert rep.ratio_min == rep.ratio_max == pytest.approx(expected, rel=1e-12)

    def test_log_sweep_ratio_bracket(self):
        rep = verify_log_bounds([0.5, 1, 10, 100, 1000, 1e4])
        assert 0 < rep.ratio_min <= rep.ratio_max
        assert rep.ratio_max / rep.ratio_min < 5

    def test_pinned_sweep_extrema(self):
        rep = verify_log_bounds([0.5, 1, 10, 100, 1000, 1e4])
        assert rep.ratio_min == pytest.approx(SWEEP_RATIO_MIN, rel=1e-9)
        assert rep.ratio_max == pytest.approx(SWEEP_RATIO_MAX, rel=1e-9)

    def test_duplicates_do_not_change_extrema(self):
        a = verify_log_bounds([0.5, 2.0, 2.0, 0.5])
        b = verify_log_bounds([0.5, 2.0])
        assert (a.ratio_min, a.ratio_max) == (b.ratio_min, b.ratio_max)

    def test_rejects_empty_and_small_m(self):
        with pytest.raises(ValueError):
            verify_log_bounds([])
        with pytest.raises(ValueError):
            verify_log_bounds([0.4])


class TestElementarySlalomBounds:
    def test_adjacent_components_two_apart(self):
        rec = elementary_slalom_bounds(0, 2)
        assert rec.m_param == pytest.approx(0.5)
        assert rec.log_term == pytest.approx(math.log(1.5), abs=1e-15)

    def test_depends_only_on_gap(self):
        assert elementary_slalom_bounds(0, 3) == elementary_slalom_bounds(3, 0)

    def test_gap_eleven(self):
        rec = elementary_slalom_bounds(0, 11)
        assert rec.m_param == pytest.approx(5.0)
        # empirical bracket from the log-bound sweep, pinned at build time
        assert 0.3 * math.log(6) <= rec.rect_upper <= 5 * math.log(6)

    def test_rejects_trivial_gap(self):
        for k, l in [(0, 0), (0, 1), (2, 1)]:
            with pytest.raises(ValueError):
                elementary_slalom_bounds(k, l)

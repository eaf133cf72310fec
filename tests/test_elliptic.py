import math
import random
import re
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slalom.elliptic
from slalom.elliptic import (
    ModulusMethod,
    agm,
    rect_extremal_length,
    verify_log_bounds,
)

CLOSED = ModulusMethod.CLOSED_FORM
QUAD = ModulusMethod.QUADRATURE

# pinned at build time from the quadrature oracle; kept as regression numbers
RECT_M1 = 1.5634019226961113
SWEEP_RATIO_MIN = 0.7803459916548664
SWEEP_RATIO_MAX = 3.1550472422641684


def _mpmath_agm_oracle(m):
    # lambda = 2 K(k) / K(k') = 2 agm(1, k) / agm(1, k') in mpmath, both moduli exact at the working
    # precision: ellipk would need 1 - k^2, which takes 600 digits at M = 1e-300
    big_m = mpmath.mpf(m)
    return 2 * mpmath.agm(1, big_m / (big_m + 1)) / mpmath.agm(1, mpmath.sqrt(2 * big_m + 1) / (big_m + 1))


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

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            agm(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=5e-324, allow_infinity=False), st.floats(min_value=5e-324, allow_infinity=False))
    @example(5e-324, 5e-324)
    @example(1.7e308, 5e-324)
    @example(sys.float_info.max, sys.float_info.max)
    @example(1e200, 2e200)  # a * b overflows
    @example(1e-200, 2e-200)  # a * b underflows
    @example(1.5e-323, 1e-323)  # adjacent subnormals, whose arithmetic mean rounds back to the larger
    def test_within_stated_accuracy_of_mpmath(self, a, b):
        """The docstring's bound, 1e-15 relative plus 5e-324, against a 40-digit AGM, over all positive floats."""
        with mpmath.workdps(40):
            exact = mpmath.agm(a, b)
            assert abs(agm(a, b) - exact) <= 1e-15 * exact + 5e-324


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

    @pytest.mark.parametrize("method", ["closed", "quad", None])
    @pytest.mark.parametrize("m", [0.0, 2.0])
    def test_method_must_be_a_member(self, m, method):
        """A value or a name in place of the member is refused, not run as quadrature."""
        with pytest.raises(ValueError, match="must be a ModulusMethod member"):
            rect_extremal_length(m, method)

    @pytest.mark.parametrize("m", [9e307, sys.float_info.max])
    @pytest.mark.parametrize("method", [CLOSED, QUAD])
    def test_m_above_bound_rejected(self, m, method):
        # 2M + 1 overflows to inf above float max / 2; the error names the bound
        with pytest.raises(ValueError, match=re.escape(repr(sys.float_info.max / 2))):
            rect_extremal_length(m, method)

    @pytest.mark.parametrize("method", [CLOSED, QUAD])
    def test_largest_accepted_m_mpmath_oracle(self, method):
        m = sys.float_info.max / 2
        with mpmath.workdps(60):
            expected = _mpmath_agm_oracle(m)
            rel = abs(rect_extremal_length(m, method).extremal_length - expected) / expected
        assert rel < 2e-15, f"relative error {float(rel)}"

    def test_pinned_value_at_m1(self):
        assert rect_extremal_length(1.0, CLOSED).extremal_length == pytest.approx(RECT_M1, abs=1e-12)
        assert rect_extremal_length(1.0, QUAD).extremal_length == pytest.approx(RECT_M1, abs=1e-12)

    def test_quadrature_never_calls_agm(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("the quadrature route called agm")
        monkeypatch.setattr(slalom.elliptic, "agm", refuse)
        assert rect_extremal_length(1.0, QUAD).extremal_length == pytest.approx(RECT_M1, abs=1e-12)

    def test_coarse_step_raises(self, monkeypatch):
        # a step of 1 leaves the 2h sum about exp(-pi^2 / 2) off: the h-versus-2h estimate must catch it
        monkeypatch.setattr(slalom.elliptic, "_QUAD_STEP", 1.0)
        with pytest.raises(ArithmeticError):
            rect_extremal_length(1.0, QUAD)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1, 2, 5, 10, 100, 1e4])
    def test_oracle_equivalence(self, m):
        c = rect_extremal_length(m, CLOSED).extremal_length
        q = rect_extremal_length(m, QUAD).extremal_length
        assert abs(c - q) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300, 300))
    def test_routes_agree_log_uniform(self, log10_m):
        m = 10.0**log10_m
        closed = rect_extremal_length(m, CLOSED).extremal_length
        assert rect_extremal_length(m, QUAD).extremal_length == pytest.approx(closed, rel=1e-12)

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
        # the quadrature route meets 1e-13 and never raises, from the smallest subnormal to 1e300
        for m in [5e-324] + [10.0 ** (-300 + j) for j in range(601)]:
            with mpmath.workdps(60):
                expected = _mpmath_agm_oracle(m)
                rel = abs(rect_extremal_length(m, QUAD).extremal_length - expected) / expected
            assert rel < 1e-13, f"M={m}: relative error {float(rel)}"

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


class TestArc:
    def test_unit_modulus_is_half_pi(self):
        # I(1) = int_0^inf ds / cosh s = pi/2: an oracle that needs neither mpmath nor the AGM
        assert abs(slalom.elliptic._arc(1.0) - math.pi / 2) <= 2 * math.ulp(math.pi / 2)

    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-8, 0.5])
    def test_mpmath_oracle(self, eps):
        # I(eps) = K(sqrt(1 - eps^2)) = pi / (2 agm(1, eps))
        with mpmath.workdps(60):
            expected = mpmath.pi / (2 * mpmath.agm(1, eps))
            rel = abs(slalom.elliptic._arc(eps) - expected) / expected
        assert rel < 1e-15, f"relative error {float(rel)}"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1074, max_value=0).map(lambda x: 2.0**x))  # log-uniform on [5e-324, 1]
    @example(1.0)
    @example(1 - 2**-53)
    @example(0.5)
    @example(5e-324)
    def test_tail_series_within_1e15_of_mpmath(self, eps):
        # a tail closed by the first-order series alone errs by about e^-3T, which 1e-15 sees at T = 6
        with mpmath.workdps(60):
            expected = mpmath.pi / (2 * mpmath.agm(1, eps))
            rel = abs(slalom.elliptic._arc(eps) - expected) / expected
        assert rel < 1e-15, f"eps={eps!r}: relative error {float(rel)}"


class TestVerifyLogBounds:
    def test_reads_an_iterator_once(self):
        assert verify_log_bounds(iter([1.0, 2.0])) == verify_log_bounds([1.0, 2.0])

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


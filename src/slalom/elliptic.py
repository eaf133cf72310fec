"""Extremal length of the slalom rectangle R^M via elliptic integrals.

The rectangle is the conformal image of the left half-plane with boundary
marked points -i(M+1), -iM, iM, i(M+1); the horizontal sides are the images
of [-i(M+1), -iM] and [iM, i(M+1)].  The boundary arc lengths come from the
elliptic integral

    F_M(z) = int_0^z dzeta / sqrt((zeta^2 + M^2)(zeta^2 + (M+1)^2))

with the square-root branch positive on the positive real axis.  Writing
zeta = i t keeps both boundary integrals real:

    vertical side  a = 2 * int_0^M     dt / sqrt((M^2 - t^2)((M+1)^2 - t^2))
    horizontal     b =     int_M^{M+1} dt / sqrt((t^2 - M^2)((M+1)^2 - t^2))

and lambda(R^M) = a/b.  The closed form evaluates both as complete elliptic
integrals through the AGM, with modulus k = M/(M+1) and complement
k' = sqrt(2M+1)/(M+1), each passed to the AGM exactly.  The quadrature route
never calls the AGM.  Each side is K(sqrt(1 - eps^2)) for eps = k' or k, and
tan(theta) = eps sinh(s) turns it into I(eps) = int_0^inf ds / sqrt(1 +
(eps sinh s)^2), summed by the trapezoidal rule (Trefethen and Weideman,
SIAM Review 56, 2014); lambda = 2 I(k') / I(k).  The nodes stop at s =
log(2/eps) + T, T = 6.  Past there, in w = e^-(s + log(eps/2)) and q2 =
e^-2s, the integrand is w + (w q2 - w^3/2) + (w q2^2 - 3/2 w^3 q2 + 3/8 w^5)
+ O(w^7), and w is about e^-T, so each sum adds its own tail as three
geometric series, with ratios e^-h, e^-3h and e^-5h a step, that err by about
e^-7T.  It raises ArithmeticError if the sums at steps h and 2h differ by over
1e-6 relative, which cannot see the tail's error: the 1e-13 below rests on the
e^-7T argument and the full-range mpmath test.  Both routes raise ValueError
for M above float max / 2, where 2M+1 overflows.  Against mpmath the tests
hold the closed form within 2e-15 relative on [1e-30, 1e30], and the
quadrature within 1e-13 on [1e-300, 1e300] and at 5e-324.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Iterable

from slalom.words import _set, _Value

_AGM_RTOL = 1e-15
# The integrand is analytic in |Im s| < pi/2, so the step-h sum errs by about exp(-pi^2 / h) = 7e-18.
# The h-versus-2h difference measures the 2h sum's error instead (up to 1.07e-8, at eps = 1), hence the loose bound.
_QUAD_STEP = 0.25
_QUAD_TOL = 1e-6
_QUAD_TAIL = 6  # T: at 4 the tail series' e^-7T error shows
_M_MAX = sys.float_info.max / 2  # above it 2M + 1 overflows


class ModulusMethod(enum.Enum):
    CLOSED_FORM = "closed"
    QUADRATURE = "quad"


class QuadModulus(_Value):
    __match_args__ = ("extremal_length", "conformal_module")

    def __init__(self, extremal_length: float, conformal_module: float):
        _set(self, extremal_length, conformal_module)


class BoundCheckReport(_Value):
    __match_args__ = ("m_range", "ratio_min", "ratio_max")

    def __init__(self, m_range: tuple[float, ...], ratio_min: float, ratio_max: float):
        _set(self, m_range, ratio_min, ratio_max)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of positive finite floats, within 1e-15 relative plus 5e-324 of the exact value."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"agm requires positive finite arguments; got {a!r} and {b!r}")
    if max(a, b) < 2.0**-900:  # scaled up exactly, so that no step rounds to a subnormal or cycles between two
        return math.ldexp(agm(math.ldexp(a, 1000), math.ldexp(b, 1000)), -1000)
    while abs(a - b) > _AGM_RTOL * max(a, b):
        a, b = a + (b - a) / 2, math.sqrt(a) * math.sqrt(b)
    return a + (b - a) / 2


def _tail(series: tuple[float, float, float], r: float) -> float:
    """Sum over j >= 1 of c1 r^j + c3 r^3j + c5 r^5j, for ``series`` = (c1, c3, c5)."""
    c1, c3, c5 = series
    r3 = r * r * r
    r5 = r3 * r * r
    return c1 * r / (1 - r) + c3 * r3 / (1 - r3) + c5 * r5 / (1 - r5)


def _arc(eps: float) -> float:
    """I(eps) = int_0^inf ds / sqrt(1 + (eps sinh s)^2) = K(sqrt(1 - eps^2)), 0 < eps <= 1."""
    log_half = math.log(eps) - math.log(2)  # not log(eps / 2): that underflows for a subnormal eps
    n = 2 * math.ceil((_QUAD_TAIL - log_half) / (2 * _QUAD_STEP))  # even, so that the 2h sum also ends on node n
    f = [1 / math.hypot(1, math.exp(j * _QUAD_STEP + log_half) - math.exp(log_half - j * _QUAD_STEP))
         for j in range(n + 1)]  # eps sinh s, without math.sinh's overflow past s = 710
    f[0] /= 2
    # the nodes past n, in w and q2 at node n, as three geometric series (module docstring)
    w = math.exp(-(n * _QUAD_STEP + log_half))  # about e^-T: it cannot overflow
    q2 = math.exp(-2 * n * _QUAD_STEP)  # underflows to 0 for a small eps, harmlessly
    w3 = w * w * w
    series = (w, w * q2 - w3 / 2, w * q2 * q2 - 1.5 * w3 * q2 + 0.375 * w3 * w * w)
    r = math.exp(-_QUAD_STEP)
    fine = _QUAD_STEP * (math.fsum(f) + _tail(series, r))
    coarse = 2 * _QUAD_STEP * (math.fsum(f[::2]) + _tail(series, r * r))
    if abs(fine - coarse) > _QUAD_TOL * fine:
        raise ArithmeticError(f"quadrature did not converge at modulus {eps}")
    return fine


def rect_extremal_length(m_param: float, method: ModulusMethod = ModulusMethod.CLOSED_FORM) -> QuadModulus:
    """Extremal length a/b of the rectangle R^M; M = 0 degenerates to 0."""
    if not 0 <= m_param <= _M_MAX:
        raise ValueError(f"M must be in [0, {_M_MAX!r}], where 2M + 1 is finite; got {m_param}")
    if not isinstance(method, ModulusMethod):
        raise ValueError(f"method must be a ModulusMethod member; got {method!r}")
    if m_param == 0:
        return QuadModulus(0.0, math.inf)
    # k and its complement k', each computed exactly: no 1 - k^2 cancellation
    k, k_c = m_param / (m_param + 1), math.sqrt(2 * m_param + 1) / (m_param + 1)
    if method is ModulusMethod.CLOSED_FORM:
        lam = 2 * agm(1.0, k) / agm(1.0, k_c)  # 2 K(k) / K(k') by DLMF 19.8.5
    else:
        lam = 2 * _arc(k_c) / _arc(k)
    return QuadModulus(lam, 1 / lam)


def verify_log_bounds(m_values: Iterable[float]) -> BoundCheckReport:
    """Extrema of lambda(R^M) / log(1+M) by the closed form over the sample set, M >= 1/2."""
    if not (m_values := tuple(m_values)):
        raise ValueError("empty sample list")
    if any(m < 0.5 for m in m_values):
        raise ValueError("log-bound check requires M >= 1/2")
    ratios = [rect_extremal_length(m).extremal_length / math.log1p(m) for m in m_values]
    return BoundCheckReport(m_values, min(ratios), max(ratios))


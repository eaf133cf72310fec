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
k' = sqrt(2M+1)/(M+1), each passed to the AGM exactly; the quadrature route
integrates the arcs directly after trigonometric substitutions that remove
the inverse-square-root endpoint singularities.  The two routes are kept
independent and must agree to 1e-8.  Against mpmath, the closed form has
relative error below 2e-15 for M in [1e-30, 1e30]; the quadrature route is
within 1e-8 relative for M in [1e-12, 1e8] and raises ArithmeticError where
it does not converge, below about M = 1e-15 and above about 3e9.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

_AGM_RTOL = 1e-15
_QUAD_TOL = 1e-13


class ModulusMethod(enum.Enum):
    CLOSED_FORM = "closed"
    QUADRATURE = "quad"


@dataclass(frozen=True)
class QuadModulus:
    m_param: float
    extremal_length: float
    conformal_module: float
    method: ModulusMethod


@dataclass(frozen=True)
class BoundCheckReport:
    m_range: tuple[float, ...]
    ratio_min: float
    ratio_max: float


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive reals."""
    if a <= 0 or b <= 0:
        raise ValueError("agm requires positive arguments")
    while abs(a - b) > _AGM_RTOL * max(a, b):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _sides_quadrature(m: float) -> tuple[float, float]:
    from scipy.integrate import quad  # imported here: it costs more than the rest of slalom
    # t = m sin(theta) on the vertical arc, t^2 = m^2 cos^2 + (m+1)^2 sin^2 on
    # the horizontal one; both integrands are smooth on [0, pi/2].  Both arcs
    # are scaled by M+1, so the integrals stay O(1) and the relative error
    # check does not fight epsabs; the ratio a/b is unchanged.
    k = m / (m + 1)
    va, va_err = quad(
        lambda th: 1 / math.sqrt(1 - (k * math.sin(th)) ** 2),
        0, math.pi / 2, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, full_output=1,
    )[:2]
    hb, hb_err = quad(
        lambda th: 1 / math.sqrt((k * math.cos(th)) ** 2 + math.sin(th) ** 2),
        0, math.pi / 2, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, full_output=1,
    )[:2]
    if va_err > 1e-9 * va or hb_err > 1e-9 * hb:
        raise ArithmeticError(f"quadrature did not converge at M={m}")
    return 2 * va, hb


def rect_extremal_length(m_param: float, method: ModulusMethod = ModulusMethod.CLOSED_FORM) -> QuadModulus:
    """Extremal length a/b of the rectangle R^M; M = 0 degenerates to 0."""
    if not 0 <= m_param < math.inf:
        raise ValueError(f"M must be finite and nonnegative, got {m_param}")
    if m_param == 0:
        return QuadModulus(0.0, 0.0, math.inf, method)
    if method is ModulusMethod.CLOSED_FORM:
        # 2 K(k) / K(k') by DLMF 19.8.5, each complement passed exactly: no 1 - k^2 cancellation
        lam = 2 * agm(1.0, m_param / (m_param + 1)) / agm(1.0, math.sqrt(2 * m_param + 1) / (m_param + 1))
    else:
        a, b = _sides_quadrature(m_param)
        lam = a / b
    return QuadModulus(m_param, lam, 1 / lam, method)


def verify_log_bounds(m_values: Sequence[float]) -> BoundCheckReport:
    """Extrema of lambda(R^M) / log(1+M) by the closed form over the sample set, M >= 1/2."""
    if not m_values:
        raise ValueError("empty sample list")
    if any(m < 0.5 for m in m_values):
        raise ValueError("log-bound check requires M >= 1/2")
    ratios = [rect_extremal_length(m).extremal_length / math.log1p(m) for m in m_values]
    return BoundCheckReport(tuple(m_values), min(ratios), max(ratios))


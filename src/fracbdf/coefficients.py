"""Fractional BDF convolution-quadrature weights.

The order-k fractional backward difference operator approximates a tempered
(substantial) fractional derivative of order alpha by the discrete
convolution  tau^(-alpha) * sum_j g_j * phi^(n-j).  The weights come from
the generating power series

    ( sum_{j=1}^{k} (1/j) (1 - e^(-sigma*tau) zeta)^j )^alpha
        = sum_j g_j zeta^j,          g_j = e^(-sigma*j*tau) * l_j,

so the pure-fractional part l_j is the coefficient sequence of the alpha-th
power of the classical k-step BDF characteristic polynomial.

Two independent generation paths are provided:

* :func:`bdf_l_coefficients` uses per-order recurrences with closed-form
  starting values (hard-coded rational constants, O(J*k) work);
* :func:`series_oracle` expands the inner polynomial exactly via binomial
  coefficients and raises it to the power alpha with the classical
  power-of-a-series (J.C.P. Miller) recurrence.

The two must agree to near machine precision; the test suite enforces this
for every order, which guards against transcription errors in the long
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterDomainError

VALID_ORDERS = (1, 2, 3, 4, 5, 6)

# Leading coefficient of the BDF-k characteristic polynomial, i.e. the
# harmonic number H_k; l_0 = H_k^alpha.
_LEADING = {
    1: Fraction(1),
    2: Fraction(3, 2),
    3: Fraction(11, 6),
    4: Fraction(25, 12),
    5: Fraction(137, 60),
    6: Fraction(147, 60),
}

# Starting values l_1 .. l_{k-1} as polynomials in alpha (ascending powers,
# constant term zero) relative to l_0:  l_i = l_0 * sum_p c_p alpha^p.
_START = {
    1: (),
    2: ((Fraction(-4, 3),),),
    3: (
        (Fraction(-18, 11),),
        (Fraction(-63, 121), Fraction(162, 121)),
    ),
    4: (
        (Fraction(-48, 25),),
        (Fraction(-252, 625), Fraction(1152, 625)),
        (Fraction(-3664, 15625), Fraction(12096, 15625), Fraction(-18432, 15625)),
    ),
    5: (
        (Fraction(-300, 137),),
        (Fraction(-3900, 18769), Fraction(45000, 18769)),
        (Fraction(-423800, 2571353), Fraction(1170000, 2571353),
         Fraction(-4500000, 2571353)),
        (Fraction(-103893525, 352275361), Fraction(134745000, 352275361),
         Fraction(-175500000, 352275361), Fraction(337500000, 352275361)),
    ),
    6: (
        (Fraction(-360, 147),),
        (Fraction(150, 2401), Fraction(7200, 2401)),
        (Fraction(-42400, 352947), Fraction(-18000, 117649),
         Fraction(-288000, 117649)),
        (Fraction(-2603575, 5764801), Fraction(1707250, 5764801),
         Fraction(1080000, 5764801), Fraction(8640000, 5764801)),
        (Fraction(-94994224, 282475249), Fraction(310309000, 282475249),
         Fraction(-14730000, 40353607), Fraction(-43200000, 282475249),
         Fraction(-207360000, 282475249)),
    ),
}

# Recurrence factors f_1 .. f_k for j >= k:
#   l_j = sum_m f_m * s_m * (1 - m*(alpha+1)/j) * l_{j-m},   s_m = (-1)^(m+1).
_RECURRENCE = {
    1: (Fraction(1),),
    2: (Fraction(4, 3), Fraction(1, 3)),
    3: (Fraction(18, 11), Fraction(18, 22), Fraction(2, 11)),
    4: (Fraction(48, 25), Fraction(36, 25), Fraction(16, 25), Fraction(3, 25)),
    5: (Fraction(300, 137), Fraction(300, 137), Fraction(200, 137),
        Fraction(75, 137), Fraction(12, 137)),
    6: (Fraction(360, 147), Fraction(450, 147), Fraction(400, 147),
        Fraction(225, 147), Fraction(72, 147), Fraction(10, 147)),
}


def check_order(k: int) -> int:
    """Validate a BDF order, returning it as a plain int."""
    if k not in VALID_ORDERS:
        raise ParameterDomainError(f"BDF order must be in {VALID_ORDERS}, got {k!r}")
    return int(k)


def check_alpha(alpha: float) -> float:
    """Validate a fractional exponent; alpha = 1 is the classical limit."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1], got {alpha!r}")
    return float(alpha)


def check_sigma_tau(sigma: float, tau: float) -> None:
    """Validate a tempering rate (finite, >= 0) and a step size (finite, > 0)."""
    if not 0.0 <= sigma < math.inf:
        raise ParameterDomainError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not 0.0 < tau < math.inf:
        raise ParameterDomainError(f"tau must be finite and > 0, got {tau!r}")


@dataclass(frozen=True)
class FracParams:
    """Fractional exponent alpha, tempering rate sigma and step size tau."""

    alpha: float
    sigma: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_sigma_tau(self.sigma, self.tau)

    @property
    def damping(self) -> float:
        """Per-step tempering factor e^(-sigma*tau)."""
        return math.exp(-self.sigma * self.tau)


@dataclass(frozen=True)
class CoefficientTable:
    """Quadrature weights l_0..l_J and their tempered counterparts g_j."""

    k: int
    params: FracParams
    l: np.ndarray
    g: np.ndarray

    @property
    def J(self) -> int:
        return len(self.l) - 1


def bdf_polynomial(k: int) -> list[Fraction]:
    """Exact coefficients p_0..p_k of sum_{j=1}^{k} (1/j) (1 - z)^j."""
    check_order(k)
    p = [Fraction(0)] * (k + 1)
    for j in range(1, k + 1):
        for m in range(j + 1):
            p[m] += Fraction((-1) ** m * math.comb(j, m), j)
    return p


def bdf_l_coefficients(k: int, alpha: float, J: int) -> np.ndarray:
    """Weights l_0..l_J by the order-k recurrence with closed-form starts.

    The starting values l_0..l_{k-1} are evaluated from their closed forms
    (polynomials in alpha times the common factor H_k^alpha); subsequent
    entries use the k-term recurrence.  Work is O(J*k).

    The recurrence coefficients f_m s_m (1 - m(alpha+1)/j) are computed as
    arrays; each l_j is then accumulated in Python floats over m = 1..k,
    left to right from 0.0.  That order is fixed, so the output is bitwise
    stable (``sum()`` is not used: it compensates float sums on Python 3.12).
    """
    check_order(k)
    check_alpha(alpha)
    if J < 0:
        raise ParameterDomainError(f"J must be >= 0, got {J!r}")
    l0 = float(_LEADING[k]) ** alpha
    l = [l0]
    for poly in _START[k][:J]:
        acc = 0.0
        for c in reversed(poly):        # Horner in alpha, constant term 0
            acc = (acc + float(c)) * alpha
        l.append(l0 * acc)
    js = np.arange(k, J + 1, dtype=float)
    ap1 = alpha + 1.0
    cols = [float(f) * (-1.0) ** (m + 1) * (1.0 - m * ap1 / js)
            for m, f in enumerate(_RECURRENCE[k], start=1)]
    coefs = np.stack(cols, axis=1)
    for lo in range(0, len(coefs), 512):    # bounds the Python-float rows held
        for coef in coefs[lo:lo + 512].tolist():
            acc = 0.0
            for m, c in enumerate(coef, start=1):
                acc += c * l[-m]
            l.append(acc)
    return np.array(l)


def series_oracle(k: int, alpha: float, J: int) -> np.ndarray:
    """Weights l_0..l_J by direct series expansion, independent of the
    per-order recurrence constants.

    Expands the inner polynomial exactly (binomial coefficients as
    rationals) and applies the generic power-of-a-series recurrence

        j*p_0*l_j = sum_{m=1}^{min(j,k)} ((alpha+1)*m - j) * p_m * l_{j-m},

    seeded only by l_0 = p_0^alpha.
    """
    check_order(k)
    check_alpha(alpha)
    if J < 0:
        raise ParameterDomainError(f"J must be >= 0, got {J!r}")
    p = [float(c) for c in bdf_polynomial(k)]
    l = [p[0] ** alpha]
    ap1 = alpha + 1.0
    for j in range(1, J + 1):
        acc = 0.0
        for m in range(1, min(j, k) + 1):
            acc += p[m] * (ap1 * m - j) * l[j - m]
        l.append(acc / (j * p[0]))
    return np.array(l)


def bdf_g_coefficients(k: int, params: FracParams, J: int) -> CoefficientTable:
    """Build the tempered table g_j = e^(-sigma*j*tau) * l_j."""
    l = bdf_l_coefficients(k, params.alpha, J)
    if params.sigma == 0.0:
        g = l.copy()
    else:
        g = l * params.damping ** np.arange(J + 1)
    l.setflags(write=False)
    g.setflags(write=False)
    return CoefficientTable(k=check_order(k), params=params, l=l, g=g)

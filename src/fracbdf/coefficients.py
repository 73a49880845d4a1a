"""Fractional BDF convolution-quadrature weights.

The order-k fractional backward difference operator approximates a tempered
(substantial) fractional derivative of order alpha by the discrete
convolution  tau^(-alpha) * sum_j g_j * phi^(n-j).  The weights come from
the generating power series

    ( sum_{j=1}^{k} (1/j) (1 - e^(-sigma*tau) zeta)^j )^alpha
        = sum_j g_j zeta^j,          g_j = e^(-sigma*j*tau) * l_j,

so the pure-fractional part l_j is the coefficient sequence of the alpha-th
power of the classical k-step BDF characteristic polynomial.

Both generation paths start from the exact polynomial
:func:`bdf_polynomial` and differ in their arithmetic:

* :func:`bdf_l_coefficients` evaluates starting values l_1..l_{k-1} from
  polynomials in alpha with exact rational coefficients, then runs the
  power-of-a-series (J.C.P. Miller) recurrence in floats with the
  normalized factors -p_m/p_0 (O(J*k) work);
* :func:`series_oracle` runs the unnormalized recurrence in floats from
  l_0 alone, dividing each sum by j*p_0.

The two must agree to near machine precision; the test suite enforces this
for every order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterDomainError

VALID_ORDERS = (1, 2, 3, 4, 5, 6)


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


@functools.cache
def _recurrence(k: int) -> tuple[Fraction, tuple[Fraction, ...],
                                 tuple[tuple[Fraction, ...], ...]]:
    """p_0, f_m = -p_m/p_0 and the starts l_j/l_0 (j < k) of the recurrence
    l_j = sum_{m=1}^{min(j,k)} f_m (1 - m(alpha+1)/j) l_{j-m}, run in exact
    rationals: polynomials in ascending powers of alpha, zero constant dropped.
    """
    p = bdf_polynomial(k)
    factors = tuple(-c / p[0] for c in p[1:])
    starts = [(Fraction(1),)]
    for j in range(1, k):
        poly = [Fraction(0)] * (j + 1)
        for m, f in enumerate(factors[:j], start=1):
            a, b = f * (1 - Fraction(m, j)), -f * Fraction(m, j)
            for i, c in enumerate(starts[j - m]):
                poly[i] += a * c
                poly[i + 1] += b * c
        starts.append(tuple(poly))
    return p[0], factors, tuple(poly[1:] for poly in starts[1:])


def bdf_l_coefficients(k: int, alpha: float, J: int) -> np.ndarray:
    """Weights l_0..l_J by the order-k recurrence with exact-rational starts.

    The starting values l_0..l_{k-1} are p_0^alpha times polynomials in
    alpha whose rational coefficients the recurrence yields exactly
    (:func:`_recurrence`); subsequent entries use the k-term recurrence
    with the normalized factors -p_m/p_0.  Work is O(J*k).

    The recurrence coefficients f_m (1 - m(alpha+1)/j) are computed as
    arrays; each l_j is then accumulated in Python floats over m = 1..k,
    left to right from 0.0.  That order is fixed, so the output is bitwise
    stable (``sum()`` is not used: it compensates float sums on Python 3.12).
    """
    check_order(k)
    check_alpha(alpha)
    if J < 0:
        raise ParameterDomainError(f"J must be >= 0, got {J!r}")
    p0, factors, starts = _recurrence(k)
    l0 = float(p0) ** alpha
    l = [l0]
    for poly in starts[:J]:
        acc = 0.0
        for c in reversed(poly):        # Horner in alpha, constant term 0
            acc = (acc + float(c)) * alpha
        l.append(l0 * acc)
    js = np.arange(k, J + 1, dtype=float)
    ap1 = alpha + 1.0
    cols = [float(f) * (1.0 - m * ap1 / js) for m, f in enumerate(factors, start=1)]
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

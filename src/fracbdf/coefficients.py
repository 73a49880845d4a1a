"""Fractional BDF convolution-quadrature weights.

The order-k fractional backward difference operator approximates a tempered
(substantial) fractional derivative of order alpha by the discrete
convolution  tau^(-alpha) * sum_j g_j * phi^(n-j).  The weights come from
the generating power series

    ( sum_{j=1}^{k} (1/j) (1 - e^(-sigma*tau) zeta)^j )^alpha
        = sum_j g_j zeta^j,          g_j = e^(-sigma*j*tau) * l_j,

so the pure-fractional part l_j is the coefficient sequence of the alpha-th
power of the classical k-step BDF characteristic polynomial.

The polynomial factors as p(z) = (1 - z) R_k(z), where R_k has degree k - 1
and coefficients r_m = p_0 + ... + p_m (:func:`_residual_coefficients`);
its roots lie outside the unit disk.  This module owns that factorization,
and both generation paths start from the exact :func:`bdf_polynomial`:

* :func:`bdf_l_coefficients` convolves the binomial series of
  (1 - z)^alpha with h = R_k^alpha, which decays geometrically and is cut
  at :data:`_H_TERMS` terms;
* :func:`series_oracle` runs the power-of-a-series recurrence on p itself.

The two must agree to near machine precision; the test suite enforces this
for every order.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterDomainError, check_count

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


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Quadrature weights l_0..l_J; their tempered g_j are derived on access."""

    k: int
    params: FracParams
    l: np.ndarray

    @property
    def J(self) -> int:
        return len(self.l) - 1

    @functools.cached_property
    def g(self) -> np.ndarray:
        """g_j = e^(-sigma*j*tau) * l_j, j = 0..J (read-only); at sigma = 0
        the factors are all 1.0, so g equals l bitwise."""
        g = self.l * self.params.damping ** np.arange(len(self.l))
        g.setflags(write=False)
        return g


def bdf_polynomial(k: int) -> list[Fraction]:
    """Exact coefficients p_0..p_k of sum_{j=1}^{k} (1/j) (1 - z)^j."""
    check_order(k)
    p = [Fraction(0)] * (k + 1)
    for j in range(1, k + 1):
        for m in range(j + 1):
            p[m] += Fraction((-1) ** m * math.comb(j, m), j)
    return p


#: Terms kept of h = R_k(z)^alpha.  The roots of R_k lie outside the unit
#: disk, the nearest at modulus 1.158 (k = 6), so h decays geometrically:
#: the dropped terms stay below 1.6e-20 h_0 at k = 6 and 2e-42 h_0 for
#: k <= 5, over 200 alpha in [0.005, 1].
_H_TERMS = 256


@functools.cache
def _residual_coefficients(k: int) -> tuple[float, ...]:
    """r_m = p_0 + ... + p_m, m < k: (1 - z) sum_m r_m z^m is the BDF-k polynomial."""
    p = bdf_polynomial(k)
    return tuple(float(sum(p[:m + 1])) for m in range(k))


#: Most (k, alpha) pairs whose h :func:`_residual_power` keeps, 2 KiB each;
#: a ``verify-paper`` run uses 42.
_H_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_H_CACHE_SIZE)
def _residual_power(k: int, alpha: float) -> np.ndarray:
    """h = R_k(z)^alpha to :data:`_H_TERMS` terms, read-only.  It does not
    depend on J, so every weight build at one (k, alpha) shares it."""
    h = _power_series(_residual_coefficients(k), alpha, _H_TERMS)
    h.setflags(write=False)
    return h


def _miller(c, a0, up, ad, n: int, div) -> list:
    """First n coefficients a_0..a_(n-1) of (sum_m c_m z^m)^alpha by the
    power-of-a-series (J.C.P. Miller) recurrence, with alpha + 1 = up/ad:

        j*ad*c_0*a_j = sum_{m=1}^{min(j,deg)} (up*m - ad*j) * c_m * a_{j-m},

    seeded only by a_0, each sum accumulated left to right and then passed
    to ``div`` with j*ad*c_0.  Floats take ad = 1 and ``/``; the fixed-point
    twin (:func:`fracbdf.highprec.scalar_weights_mp`) takes integers and
    ``//``.
    """
    out = [a0]
    deg = len(c) - 1
    full = range(1, deg + 1)             # m = 1..min(j, deg) once j >= deg
    for j in range(1, n):
        dj = ad * j
        acc = 0
        for m in full if j > deg else range(1, j + 1):
            acc += c[m] * (up * m - dj) * out[j - m]
        out.append(div(acc, dj * c[0]))
    return out


def _power_series(c: tuple[float, ...], alpha: float, n: int) -> np.ndarray:
    """First n coefficients of (sum_m c_m z^m)^alpha in Python floats,
    seeded by c_0^alpha (:func:`_miller`)."""
    return np.array(_miller(c, c[0] ** alpha, alpha + 1.0, 1, n, operator.truediv))


def bdf_l_coefficients(k: int, alpha: float, J: int) -> np.ndarray:
    """Weights l_0..l_J of p(z)^alpha from the factorization p = (1 - z) R_k.

    l is the product of the binomial series b of (1 - z)^alpha, one cumprod
    of (j - 1 - alpha)/j, and h = R_k^alpha, the power recurrence
    (:func:`_power_series`) on the k coefficients of R_k cut at
    :data:`_H_TERMS` terms and kept per (k, alpha) by
    :func:`_residual_power`; one ``np.convolve`` forms the product.  Work is
    O(J * _H_TERMS).

    b is built to at least the length of h, so every output entry is the
    same dot product whatever J is: ``bdf_l_coefficients(k, alpha, J)`` is
    bitwise a prefix of the weights at any larger J.
    """
    check_order(k)
    check_alpha(alpha)
    J = check_count(J, "J", 0)
    j = np.arange(1, max(J + 1, _H_TERMS), dtype=float)
    b = np.cumprod(np.concatenate(([1.0], (j - 1.0 - alpha) / j)))
    return np.convolve(b, _residual_power(k, alpha))[:J + 1]


def series_oracle(k: int, alpha: float, J: int) -> np.ndarray:
    """Weights l_0..l_J by direct series expansion of p(z)^alpha,
    independent of the factorization.

    Expands the inner polynomial exactly (binomial coefficients as
    rationals) and runs the power recurrence (:func:`_power_series`) on
    p_0..p_k, seeded only by l_0 = p_0^alpha.
    """
    check_order(k)
    check_alpha(alpha)
    J = check_count(J, "J", 0)
    return _power_series(tuple(float(c) for c in bdf_polynomial(k)), alpha, J + 1)


def bdf_g_coefficients(k: int, params: FracParams, J: int) -> CoefficientTable:
    """Build the table of weights l_0..l_J; its g_j are formed when first read."""
    l = bdf_l_coefficients(k, params.alpha, J)
    l.setflags(write=False)
    return CoefficientTable(k=check_order(k), params=params, l=l)

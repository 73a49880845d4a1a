"""Mittag-Leffler function on the negative real axis, and the closed-form
solution of the scalar single-term model.

E_alpha(z) = sum_m z^m / Gamma(alpha*m + 1).  For z in [-5, 0] the power
series is summed directly; because Gamma(alpha*m + 1) grows slowly for
small alpha, the alternating terms can peak many orders of magnitude above
the result, so the summation precision is chosen adaptively from the peak
term (plain float64 when safe, mpmath otherwise).  For z < -5, or when the
series would need an unreasonable number of terms, the completely monotone
integral representation

    E_alpha(-x) = sin(alpha*pi)/(alpha*pi) *
                  integral_0^inf exp(-(u*x)^(1/alpha))
                                 / (u^2 + 2u cos(alpha*pi) + 1) du

is evaluated with adaptive quadrature.  The two routes agree on an overlap
band, which the test suite checks at 1e-10.

The scalar model  D^(alpha,sigma)(u - e^(-sigma*t) rho) + lam*u = 0,
u(0) = rho, reduces to the untempered problem through v = e^(sigma*t) u
and therefore has the closed form  u(t) = e^(-sigma*t) E_alpha(-lam*t^alpha) rho.
"""

from __future__ import annotations

import math

from .coefficients import check_alpha
from .errors import InternalConsistencyError, ParameterDomainError

_SERIES_CUTOFF = 5.0
# Beyond this many digits of cancellation the series is not worth forcing;
# the integral representation takes over regardless of |z|.
_MAX_CANCEL_DIGITS = 60.0


def _series_profile(alpha: float, z: float, drop: float = 45.0,
                    give_up: float | None = None):
    """Scan term magnitudes in log space.

    Returns (n_terms, peak_log10): how many terms until they fall ``drop``
    decimal digits below the running peak, and the peak magnitude.  Stops
    early once the peak exceeds ``give_up`` digits (the caller will not
    sum the series anyway) or at a generous term budget.
    """
    la = math.log(abs(z))
    peak = 0.0
    m = 1
    while m < 200000:
        t = (m * la - math.lgamma(alpha * m + 1.0)) / math.log(10.0)
        peak = max(peak, t)
        if give_up is not None and peak > give_up:
            return m + 1, peak
        if t < peak - drop and t < -25.0:
            return m + 1, peak
        m += 1
    return m, peak


def _series_float(alpha: float, z: float, n_terms: int) -> float:
    terms = [1.0]
    for m in range(1, n_terms):
        lt = m * math.log(abs(z)) - math.lgamma(alpha * m + 1.0)
        if lt < -400.0:
            break
        terms.append((-1.0) ** m * math.exp(lt))
    return math.fsum(terms)


def _series_mp(alpha: float, z: float, n_terms: int, guard_digits: int) -> float:
    from mpmath import mp, mpf

    with mp.workdps(25 + guard_digits):
        a = mpf(alpha)
        zz = mpf(z)
        terms = [zz ** m / mp.gamma(a * m + 1) for m in range(n_terms)]
        return float(mp.fsum(terms))


def _integral(alpha: float, z: float) -> float:
    from scipy.integrate import quad

    x = -z
    s = x ** (1.0 / alpha)
    c = math.cos(alpha * math.pi)
    inv_alpha = 1.0 / alpha

    def integrand(u: float) -> float:
        return math.exp(-s * u ** inv_alpha) / (u * (u + 2.0 * c) + 1.0)

    val, err = quad(integrand, 0.0, math.inf, limit=200, epsabs=1e-13, epsrel=1e-12)
    if err > 1e-9:
        raise InternalConsistencyError(
            f"Mittag-Leffler quadrature error estimate {err:.2e} too large "
            f"(alpha={alpha}, z={z})")
    return math.sin(alpha * math.pi) / (alpha * math.pi) * val


def mittag_leffler(alpha: float, z: float, method: str = "auto") -> float:
    """E_alpha(z) for 0 < alpha <= 1 and z <= 0.

    ``method`` is normally "auto"; "series" or "integral" force one route
    (used by the cross-validation tests).  Forcing the series outside its
    viable cancellation range raises ParameterDomainError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not z <= 0.0:
        raise ParameterDomainError(f"only z <= 0 is supported, got {z!r}")
    if method not in ("auto", "series", "integral"):
        raise ParameterDomainError(f"unknown method {method!r}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    if method == "integral":
        return _integral(alpha, z)

    series_ok = False
    n_terms = peak = 0
    if abs(z) <= 1.0:
        series_ok = True
        n_terms, peak = _series_profile(alpha, z)
    elif abs(z) <= _SERIES_CUTOFF or method == "series":
        n_terms, peak = _series_profile(alpha, z, give_up=_MAX_CANCEL_DIGITS)
        series_ok = peak <= _MAX_CANCEL_DIGITS and n_terms < 200000
    if method == "series" and not series_ok:
        raise ParameterDomainError(
            f"series not viable at alpha={alpha}, z={z}: "
            f"{peak:.0f} digits of cancellation")
    if not series_ok:
        return _integral(alpha, z)
    if peak <= 3.0:
        return _series_float(alpha, z, n_terms)
    return _series_mp(alpha, z, n_terms, guard_digits=int(peak) + 5)


def exact_scalar_solution(lam: float, alpha: float, sigma: float, rho: float,
                          t: float) -> float:
    """u(t) = e^(-sigma*t) E_alpha(-lam * t^alpha) * rho for the scalar model."""
    if not 0.0 < lam < math.inf:
        raise ParameterDomainError(f"lam must be finite and > 0, got {lam!r}")
    if not 0.0 <= sigma < math.inf:
        raise ParameterDomainError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not 0.0 <= t < math.inf:
        raise ParameterDomainError(f"t must be finite and >= 0, got {t!r}")
    if not math.isfinite(rho):
        raise ParameterDomainError(f"rho must be finite, got {rho!r}")
    check_alpha(alpha)
    if t == 0.0:
        return float(rho)
    return math.exp(-sigma * t) * mittag_leffler(alpha, -lam * t ** alpha) * rho

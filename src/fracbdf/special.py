"""Mittag-Leffler function on the negative real axis, and the closed-form
solution of the scalar single-term model.

E_alpha(z) = sum_m z^m / Gamma(alpha*m + 1).  For z in [-5, 0] the power
series is summed directly; because Gamma(alpha*m + 1) grows slowly for
small alpha, the alternating terms can peak many orders of magnitude above
the result.  Float64 sums a peak of at most 10^0.25, mpmath a larger one
for alpha > 0.95.  Every other z in [-5, 0], z < -5, and a series that is
not viable (more than 60 digits of cancellation, or terms that have not
decayed within a 200,000-term budget) take the completely monotone
integral representation, scaled by u = v/x so that the integrand's mass
stays at v = O(1) for every x (unscaled, it is a spike of width ~1/x at
u = 0 that quadrature misses for large x),

    E_alpha(-x) = sin(alpha*pi)/(alpha*pi*x) *
                  integral_0^inf exp(-v^(1/alpha))
                                 / ((v/x)^2 + 2(v/x) cos(alpha*pi) + 1) dv

evaluated with adaptive quadrature.  The two routes agree on an overlap
band, which the test suite checks at 1e-10.  Orders below alpha = 0.005 are
refused: for small alpha the integrand exp(-v^(1/alpha)) approaches a step
at v = 1, and at alpha = 0.002 the quadrature is off by ~4e-4 relative
while its error estimate is ~1e-14.  For alpha in [0.005, 0.01] and |z| up
to 1e5, values match a 30-digit quadrature to 1e-13 relative.

The mpmath twin's reference :func:`mittag_leffler_mp` takes the same two
routes at the active precision: the series where its peak term leaves 25
digits of that precision, else the same scaled integral by ``mp.quad``.

The scalar model  D^(alpha,sigma)(u - e^(-sigma*t) rho) + lam*u = 0,
u(0) = rho, reduces to the untempered problem through v = e^(sigma*t) u
and therefore has the closed form  u(t) = e^(-sigma*t) E_alpha(-lam*t^alpha) rho.
"""

from __future__ import annotations

import math

from .coefficients import check_alpha
from .errors import InternalConsistencyError, ParameterDomainError

_SERIES_CUTOFF = 5.0
# Beyond this many digits of cancellation the series is not worth summing;
# the integral representation takes over regardless of |z|.
_MAX_CANCEL_DIGITS = 60.0
#: Most terms the series scan examines; a series whose terms have not
#: decayed by then is not viable.
_TERM_BUDGET = 200000
#: Smallest order accepted (module docstring).
_MIN_ALPHA = 0.005
#: Largest peak term, in digits, of a float64 series sum: its terms carry the
#: rounding of their exponents, 4e-13 relative at a peak of 10^1, 3e-11 at 10^3.
_FLOAT_PEAK_DIGITS = 0.25
#: Orders up to this integrate a larger peak (within 3e-15 of 50 digits on
#: [-5, 0], without mpmath); above it the integrand nears a pole at v = x.
_INTEGRAL_MAX_ALPHA = 0.95
#: Digits of the working precision that :func:`mittag_leffler_mp` keeps
#: when it sums the series; with fewer left it integrates.
_MP_SERIES_DIGITS = 25


def _series_profile(alpha: float, z: float, drop: float = 45.0,
                    give_up: float | None = None):
    """Scan term magnitudes in log space.

    Returns (n_terms, peak_log10): how many terms until they fall ``drop``
    decimal digits below the running peak, and the peak magnitude.  Stops
    early once the peak exceeds ``give_up`` digits (the caller will not
    sum the series anyway) or at :data:`_TERM_BUDGET` terms.
    """
    la = math.log(abs(z))
    peak = 0.0
    m = 1
    while m < _TERM_BUDGET:
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


def mittag_leffler_mp(alpha, z):
    """E_alpha(z) for z <= 0 as an mpf at the active mpmath precision.

    The series is summed where its cancellation leaves
    :data:`_MP_SERIES_DIGITS` digits of the working precision; elsewhere
    mp.quad evaluates the scaled integral of :func:`_integral`, split
    around v = 1.
    """
    from mpmath import mp

    if float(z) != 0.0:          # below float range the series is immediate
        n_terms, peak = _series_profile(float(alpha), float(z),
                                        give_up=mp.dps - _MP_SERIES_DIGITS)
        if not (peak <= mp.dps - _MP_SERIES_DIGITS and n_terms < _TERM_BUDGET):
            return _integral_mp(alpha, z)
    return _series_mp(alpha, z)


def _integral_mp(alpha, z):
    from mpmath import mp, mpf

    a, x = mpf(alpha), -mpf(z)
    if a == 1:
        return mp.exp(-x)
    c = mp.cospi(a)
    val = mp.quad(lambda v: mp.exp(-v ** (1 / a)) / ((v / x) ** 2 + 2 * c * v / x + 1),
                  [0, 0.5, 0.9, 0.97, 1, 1.03, 1.1, 2, mp.inf])
    return mp.sinpi(a) / (a * mp.pi * x) * val


def _series_mp(alpha, z):
    """E_alpha(z) by direct series summation at the active mpmath precision."""
    from mpmath import mp, mpf

    a, zz = mpf(alpha), mpf(z)
    tol = mpf(10) ** (-(mp.dps + 10))
    total = mpf(1)
    for m in range(1, 100001):
        t = zz ** m / mp.gamma(a * m + 1)
        total += t
        if abs(t) < tol * max(mpf(1), abs(total)) and m > 4:
            return total
    raise ParameterDomainError(
        f"series did not converge at alpha={alpha}, z={z} with dps={mp.dps}")


def _integral(alpha: float, z: float) -> float:
    from scipy.integrate import quad

    x = -z
    c = math.cos(alpha * math.pi)
    inv_alpha = 1.0 / alpha

    def integrand(v: float) -> float:
        try:
            e = math.exp(-v ** inv_alpha)
        except OverflowError:           # v^(1/alpha) beyond float range: exp(-inf)
            return 0.0
        u = v / x
        return e / (u * (u + 2.0 * c) + 1.0)

    val, err = quad(integrand, 0.0, math.inf, limit=200, epsabs=1e-13, epsrel=1e-12)
    if err > 1e-9:
        raise InternalConsistencyError(
            f"Mittag-Leffler quadrature error estimate {err:.2e} too large "
            f"(alpha={alpha}, z={z})")
    return math.sin(alpha * math.pi) / (alpha * math.pi) * val / x


def _series(alpha: float, z: float, extended: bool = True) -> float | None:
    """E_alpha(z) by the power series, or None when the series is not
    viable (more than ``_MAX_CANCEL_DIGITS`` digits of cancellation, or
    terms that have not decayed within ``_TERM_BUDGET``) or, without
    ``extended``, needs mpmath (a peak above 10^_FLOAT_PEAK_DIGITS)."""
    n_terms, peak = _series_profile(alpha, z, give_up=_MAX_CANCEL_DIGITS)
    if peak > _MAX_CANCEL_DIGITS or n_terms >= _TERM_BUDGET:
        return None
    if peak <= _FLOAT_PEAK_DIGITS:
        return _series_float(alpha, z, n_terms)
    if not extended:
        return None
    from mpmath import mp
    with mp.workdps(30 + int(peak)):          # 25 digits, the cancellation, 5 guard
        return float(_series_mp(alpha, z))


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0.005 <= alpha <= 1 and z <= 0: the series if |z| <= 5
    and it is viable (in mpmath only for alpha > 0.95), else the integral."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if alpha < _MIN_ALPHA:
        raise ParameterDomainError(
            f"the Mittag-Leffler function needs alpha >= {_MIN_ALPHA}, got {alpha!r}")
    if not z <= 0.0:
        raise ParameterDomainError(f"only z <= 0 is supported, got {z!r}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    value = (_series(alpha, z, extended=alpha > _INTEGRAL_MAX_ALPHA)
             if z >= -_SERIES_CUTOFF else None)
    return _integral(alpha, z) if value is None else value


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

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

evaluated by a global adaptive Gauss-Kronrod 7/15 rule written in numpy
(:func:`_integral`: support [0, 745^alpha], epsabs 1e-13, epsrel 1e-12, at
most 200 panels), not by ``scipy.integrate.quad``, whose import alone
loads scipy.optimize, scipy.sparse and scipy.spatial, ~19 MiB resident.
The denominator is evaluated as (v/x + cos(alpha*pi))^2 + sin(alpha*pi)^2,
which does not cancel near its minimum sin(alpha*pi)^2 as alpha -> 1.
Over alpha in [0.005, 0.999] and x in [0.01, 1e10] values match a 40-digit
quadrature to 3.0e-14 relative; quad on the expanded denominator reached
only 5.1e-12 there, and 1.3e-6 at alpha = 0.999999.

The two routes agree on an overlap band, which the test suite checks at
1e-10.  Orders below alpha = 0.005 are refused.  For small alpha the
integrand exp(-v^(1/alpha)) approaches a step at v = 1; quad, which had no
edge there, was off by ~4e-4 at alpha = 0.002 with an error estimate of
~1e-14.  The rule above matches a 30-digit quadrature to 2.2e-16 at
alpha = 0.002 and 0.001, but the floor stays where the rest of the package
was checked.  For alpha in [0.005, 0.01] and |z| up to 1e5, values match a
30-digit quadrature to 1.1e-14 relative.

The mpmath twin's reference :func:`mittag_leffler_mp` takes the same two
routes at the active precision: the series where its peak term leaves 25
digits of that precision, else the same scaled integral by ``mp.quad``.

The scalar model  D^(alpha,sigma)(u - e^(-sigma*t) rho) + lam*u = 0,
u(0) = rho, reduces to the untempered problem through v = e^(sigma*t) u
and therefore has the closed form  u(t) = e^(-sigma*t) E_alpha(-lam*t^alpha) rho.

The package's seeded Gaussian draws (:func:`_standard_normal`) live here
too: Box-Muller in numpy on the stdlib ``random`` stream.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

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
#: exp(-t) is at most the smallest float64, 5e-324, for t >= 745, so the
#: integrand exp(-v^(1/alpha)) vanishes beyond v = 745^alpha.
_EXP_SUPPORT = 745.0
#: Tolerances of :func:`_gauss_kronrod`, those ``scipy.integrate.quad`` had.
_EPSABS = 1e-13
_EPSREL = 1e-12
#: Most panels :func:`_gauss_kronrod` may bisect into.
_PANEL_LIMIT = 200
#: The 15-point Kronrod nodes on [-1, 1] from the right end to the centre,
#: their Kronrod weights, and the weights of the 7-point Gauss rule they
#: embed (0 at the Kronrod-only nodes), as QUADPACK's qk15 tabulates them
#: (Piessens et al., QUADPACK, 1983).
_GK_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
             0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
             0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
             0.207784955007898467600689403773245, 0.0)
_GK_KRONROD = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
               0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
               0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
               0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GK_GAUSS = (0.0, 0.129484966168869693270611432679082,
             0.0, 0.279705391489276667901467771423780,
             0.0, 0.381830050505118944950369775488975,
             0.0, 0.417959183673469387755102040816327)


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


def _gauss_kronrod(f, edges: np.ndarray) -> tuple[float, float]:
    """Integral of the vectorized ``f`` over [edges[0], edges[-1]] and its
    error estimate, by global adaptive Gauss-Kronrod 7/15 quadrature.

    The panels start at ``edges``.  Each pass sums every panel's 15-point
    Kronrod value and its estimate |Kronrod - Gauss|; until the estimates sum
    to at most max(:data:`_EPSABS`, :data:`_EPSREL` * |total|), every panel
    whose estimate exceeds its even share of that tolerance is bisected, and
    only the halves are evaluated again.  More than :data:`_PANEL_LIMIT`
    panels raise :class:`InternalConsistencyError`.
    """
    half_nodes = np.array(_GK_NODES)
    nodes = np.concatenate((-half_nodes, half_nodes[-2::-1]))
    w_k, w_g = (np.concatenate((w, w[-2::-1]))
                for w in (np.array(_GK_KRONROD), np.array(_GK_GAUSS)))
    w_diff = w_k - w_g

    def rule(lo, hi):
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f_v = f(centre[:, None] + half[:, None] * nodes)
        return half * (f_v @ w_k), half * np.abs(f_v @ w_diff)

    lo, hi = edges[:-1], edges[1:]
    val, err = rule(lo, hi)
    while True:
        total = float(val.sum())
        tol = max(_EPSABS, _EPSREL * abs(total))
        if err.sum() <= tol:
            return total, float(err.sum())
        split = err > tol / len(err)
        if len(err) + np.count_nonzero(split) > _PANEL_LIMIT:
            raise InternalConsistencyError(
                f"Gauss-Kronrod quadrature needs more than {_PANEL_LIMIT} panels "
                f"(error estimate {err.sum():.2e}, tolerance {tol:.2e})")
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = rule(new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _integral(alpha: float, z: float) -> float:
    """E_alpha(z) by the scaled integral of the module docstring.

    :func:`_gauss_kronrod` integrates over the float support
    [0, 745^alpha]: beyond it exp(-v^(1/alpha)) < exp(-745), the smallest
    float64 (5e-324) or 0.  The starting panels are split at v = 1, where the
    integrand approaches a step as alpha -> 0, and for alpha > 1/2 also at
    v = x |cos(alpha pi)|, where the denominator comes nearest its pole
    (minimum sin^2(alpha pi); sin(alpha pi) is taken as sin(pi (1 - alpha))
    for alpha > 1/2, where 1 - alpha is exact, so that it keeps its relative
    accuracy as alpha -> 1).  The tolerances are epsabs 1e-13 and epsrel
    1e-12, with at most 200 panels; an error estimate above 1e-9 of the
    value raises (the integral reaches ~1e4 next to alpha = 1, so the cap
    is relative).  The rule is a few lines of numpy
    because ``scipy.integrate.quad``, which it replaces, would load
    scipy.integrate and with it scipy.optimize, scipy.sparse and
    scipy.spatial, ~19 MiB resident, for this one integral.
    """
    x = -z
    c = math.cos(alpha * math.pi)
    s = math.sin(math.pi * min(alpha, 1.0 - alpha))
    inv_alpha = 1.0 / alpha

    def integrand(v: np.ndarray) -> np.ndarray:
        # v^(1/alpha) overflows to inf (exp gives 0), and v/x underflows for
        # huge x; neither is an error
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-v ** inv_alpha) / ((v / x + c) ** 2 + s * s)

    upper = _EXP_SUPPORT ** alpha
    cuts = [0.0, 1.0, upper]
    if alpha > 0.5 and -c * x < upper:
        cuts.append(-c * x)
    val, err = _gauss_kronrod(integrand, np.array(sorted(set(cuts))))
    if err > 1e-9 * val:
        raise InternalConsistencyError(
            f"Mittag-Leffler quadrature error estimate {err:.2e} too large "
            f"(alpha={alpha}, z={z})")
    return s / (alpha * math.pi) * val / x


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


def _standard_normal(seed: int, shape) -> np.ndarray:
    """Standard Gaussian draws of the given shape, by Box-Muller on
    consecutive pairs (u1, u2) of ``random.Random(seed).random()``:
    sqrt(-2 log(1 - u1)) cos(2 pi u2).  Python keeps the ``random()`` stream
    of a seeded generator fixed across versions, which numpy does not
    promise for its ``Generator`` streams, and the stdlib ``random`` module
    is loaded by ``import numpy`` already, whereas ``numpy.random`` is 19
    more modules (~6 MiB resident).  The draws of a shape are a prefix of
    those of any larger size."""
    n = int(np.prod(shape))
    draw = random.Random(seed).random
    u = np.fromiter(itertools.starmap(draw, itertools.repeat((), 2 * n)), float, 2 * n)
    u1, u2 = u.reshape(n, 2).T
    return (np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)).reshape(shape)

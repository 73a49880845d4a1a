"""Fixed-point extended-precision twin of the scalar time stepper.

Measuring the observed convergence order of the high-order schemes needs
error resolution far below the double-precision roundoff floor: at k = 6
and N = 512 the true terminal error sits near 1e-16 while the float64
history recursion bottoms out around 1e-14.  This module reruns the scalar
recursion in exact Python-integer arithmetic on fixed-point numbers
x = X / 2^P with

    P = ceil(dps * log2(10)) + 32

fraction bits, so ``dps`` (the ``precision`` of the convergence harness)
sets the resolution 2^-P, about 10^-dps with 32 guard bits for the
roundings of the O(N) recurrences.  Every product is exact and every
quotient or rescale rounds once toward -infinity.

* The weights l_j of p(z)^alpha come from the power-of-a-series recurrence
  in integers: the p_m are scaled by their common denominator and alpha is
  the exact dyadic fraction of its float.
* The tempering e^(-sigma tau j) and the decay e^(-sigma n tau) are
  repeated fixed-point products of e^(-sigma tau).
* The step equation is divided by tau^(-alpha), so only mu = lam tau^alpha
  enters, and rho is factored out by linearity, so the marched v = w / rho
  is O(1) and the fixed-point scale fits every grid.
* The history of each step is one exact integer dot product.

mpmath supplies only the transcendental scalars p_0^alpha, e^(-sigma tau),
tau^alpha and the Mittag-Leffler reference value.  Only the scalar
single-term problem is provided here; production solves stay in float64.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

from .coefficients import bdf_polynomial, check_alpha, check_order
from .errors import ParameterDomainError
from .solver import correction_weights

#: Guard bits carried beyond the requested resolution.
_GUARD = 32


def fixed_bits(dps: int) -> int:
    """Fraction bits P of the fixed-point twin at ``dps`` digits."""
    return math.ceil(dps * math.log2(10)) + _GUARD


def _to_fixed(x, P: int) -> int:
    """floor(x * 2^P) for an mpf x computed to at least P bits."""
    return int(mp.floor(mp.ldexp(x, P)))


def scalar_weights_mp(k: int, alpha, J: int, bits: int | None = None) -> list:
    """Untempered weights l_0..l_J of p(z)^alpha, from the recurrence

        j c_0 l_j = sum_{m=1}^{min(j,k)} c_m ((alpha + 1) m - j) l_{j-m}

    on the integers c_m = p_m * lcm(denominators), with l_0 = p_0^alpha.
    With ``bits`` = P the weights come back as fixed-point integers
    floor(l_j 2^P); by default as mpf at the working precision.
    """
    check_order(k)
    check_alpha(alpha)
    P = mp.prec + _GUARD if bits is None else bits
    p = bdf_polynomial(k)
    den = math.lcm(*(pm.denominator for pm in p))
    c = [pm.numerator * (den // pm.denominator) for pm in p]
    a = Fraction(alpha)                # exact: a float is a dyadic rational
    up, ad = a.numerator + a.denominator, a.denominator
    with mp.workprec(P + _GUARD):
        l = [_to_fixed((mpf(p[0].numerator) / p[0].denominator) ** mpf(alpha), P)]
    for j in range(1, J + 1):
        acc = sum(c[m] * (up * m - ad * j) * l[j - m] for m in range(1, min(j, k) + 1))
        l.append(acc // (j * ad * c[0]))
    if bits is not None:
        return l
    return [mpf((x, -P)) for x in l]


def mittag_leffler_mp(alpha, z) -> mpf:
    """E_alpha(z) by direct series summation at the active precision."""
    a = mpf(alpha)
    zz = mpf(z)
    tol = mpf(10) ** (-(mp.dps + 10))
    total = mpf(1)
    m = 1
    while m <= 100000:
        t = zz ** m / mp.gamma(a * m + 1)
        total += t
        if abs(t) < tol * max(mpf(1), abs(total)) and m > 4:
            return total
        m += 1
    raise ParameterDomainError(
        f"series did not converge at alpha={alpha}, z={z} with dps={mp.dps}")


def _march_fixed(l: list, k: int, alpha: float, sigma: float, lam: float,
                 T: float, N: int, corrected: bool, P: int) -> int:
    """Fixed-point u^N / rho from fixed-point weights l_0..l_(>=N)."""
    with mp.workprec(P + _GUARD):
        tau = mpf(T) / N
        r = _to_fixed(mp.exp(-mpf(sigma) * tau), P)
        mu = _to_fixed(mpf(lam) * tau ** mpf(alpha), P)
    decay = [1 << P]                   # e^(-sigma n tau), n = 0..N
    for _ in range(N):
        decay.append(decay[-1] * r >> P)
    g = [lj * dj >> P for lj, dj in zip(l, decay)]
    d = decay[:]                       # d_n = e^(-sigma n tau) (1 + a_n)
    d[0] = 0
    if corrected:
        for n, a in zip(range(1, N + 1), correction_weights(k)):
            d[n] = d[n] * (a.numerator + a.denominator) // a.denominator
    shift = g[0] + mu
    v = [0] * (N + 1)
    for n in range(1, N + 1):
        hist = sum(map(int.__mul__, g[1:n + 1], reversed(v[:n]))) >> P
        v[n] = ((-(d[n] * mu >> P) - hist) << P) // shift
    return v[N] + decay[N]


def solve_scalar_mp(k: int, alpha: float, sigma: float, lam: float, rho: float,
                    T: float, N: int, corrected: bool = True,
                    dps: int = 30, *, weights: list | None = None) -> mpf:
    """Terminal value u^N of the scalar scheme at resolution 2^-fixed_bits(dps).

    ``weights`` may supply ``scalar_weights_mp(k, alpha, J, bits=fixed_bits(dps))``
    for any J >= N, to share one weight vector across a refinement path.
    """
    check_order(k)
    check_alpha(alpha)
    if N < 1:
        raise ParameterDomainError(f"N must be >= 1, got {N!r}")
    P = fixed_bits(dps)
    if weights is None:
        weights = scalar_weights_mp(k, alpha, N, bits=P)
    elif len(weights) < N + 1:
        raise ParameterDomainError(
            f"weights cover {len(weights) - 1} steps, need N = {N}")
    u = _march_fixed(weights, k, alpha, sigma, lam, T, N, corrected, P)
    with mp.workprec(P):
        return mpf((u, -P)) * mpf(rho)


def exact_terminal_mp(alpha: float, sigma: float, lam: float, rho: float,
                      T: float, dps: int = 30) -> mpf:
    """u(T) = e^(-sigma T) E_alpha(-lam T^alpha) rho at ``dps`` digits."""
    with mp.workdps(dps):
        tt = mpf(T)
        return (mp.exp(-mpf(sigma) * tt)
                * mittag_leffler_mp(alpha, -mpf(lam) * tt ** mpf(alpha)) * rho)


def terminal_error_mp(k: int, alpha: float, sigma: float, lam: float,
                      rho: float, T: float, N: int, corrected: bool = True,
                      dps: int = 30, *, weights: list | None = None,
                      exact=None) -> float:
    """|u^N - u(T)| with both sides evaluated at ``dps`` digits or finer.

    ``weights`` is passed to :func:`solve_scalar_mp`; ``exact`` may supply
    :func:`exact_terminal_mp` for the same arguments.
    """
    u_num = solve_scalar_mp(k, alpha, sigma, lam, rho, T, N, corrected, dps,
                            weights=weights)
    if exact is None:
        exact = exact_terminal_mp(alpha, sigma, lam, rho, T, dps)
    with mp.workprec(fixed_bits(dps)):
        return float(abs(u_num - exact))


def terminal_errors_mp(k: int, alpha: float, sigma: float, lam: float,
                       rho: float, T: float, N_list, corrected: bool = True,
                       dps: int = 30) -> list[float]:
    """Terminal errors along a refinement path.  The weights are built once
    at max(N_list) and the reference value once; nothing is kept across
    calls."""
    weights = scalar_weights_mp(k, alpha, max(N_list), bits=fixed_bits(dps))
    exact = exact_terminal_mp(alpha, sigma, lam, rho, T, dps)
    return [terminal_error_mp(k, alpha, sigma, lam, rho, T, N, corrected, dps,
                              weights=weights, exact=exact) for N in N_list]

"""Plain reference implementations that only the tests use: the dense band
matrix, the multiplier polynomial mu(zeta) and its roots, q evaluated on
the unit circle from its factored form, the argument bound sampled one
alpha at a time, the Mittag-Leffler integral by ``scipy.integrate.quad``,
and the terminal value of the fixed-point twin."""

import math

import numpy as np
from mpmath import mp, mpf
from scipy.linalg import toeplitz

from fracbdf import argument_sweep, multiplier_set, positivity_generating_function
from fracbdf.errors import InternalConsistencyError
from fracbdf.highprec import _check_scalar, _march_fixed, fixed_bits, scalar_weights_mp
from fracbdf.multipliers import _RECIPROCAL_FACTORS
from fracbdf.stability import _factored_angles, _residual_values


def mu_zeta_polynomial(k, sigma=0.0, tau=1.0):
    """Coefficients of mu(zeta) in ascending powers of zeta."""
    damp = math.exp(-sigma * tau)
    return np.array([1.0] + [-float(m) * damp ** j
                             for j, m in enumerate(multiplier_set(k).mu, start=1)])


def mu_roots(k, sigma=0.0, tau=1.0):
    """Complex roots of mu(zeta); all must lie outside the unit disk."""
    return np.roots(mu_zeta_polynomial(k, sigma, tau)[::-1])


def toeplitz_band(k, sigma, tau, N):
    """Lower-triangular band Toeplitz matrix L of the multiplier form.

    Entry (i, i-j) holds -mu_j e^(-sigma*j*tau) for j = 0..k with the
    convention mu_0 = -(1 - c_k), i.e. the diagonal carries 1 - c_k.
    (L + L^T)/2 is the plain dense reference for the banded kernel.
    """
    entries = positivity_generating_function(k, sigma, tau).coeffs
    col = np.zeros(N)
    col[:len(entries)] = entries[:N]
    return toeplitz(col, np.zeros(N))


def q_boundary_values(k, alpha, x, sigma=0.0, tau=1.0):
    """q evaluated on the unit circle via the factored magnitude/argument."""
    x = np.asarray(x, dtype=float)
    damp = math.exp(-sigma * tau)
    z = damp * np.exp(1j * x)
    theta1, theta2, recip = _factored_angles(k, x, damp)
    arg = alpha * theta1 + alpha * theta2 + sum(recip)
    mag = (np.abs(1.0 - z) * np.abs(_residual_values(k, z))) ** alpha
    for c, mult in _RECIPROCAL_FACTORS[k]:
        mag = mag / np.abs(1.0 - float(c) * z) ** mult
    return mag * np.exp(1j * arg)


ARGUMENT_PAIRS = tuple((k, st) for k in (3, 4, 5, 6) for st in (0.0, 0.05, 0.5))


def sampled_argument_bound(alphas=tuple(0.05 * i for i in range(1, 21)), pairs=ARGUMENT_PAIRS):
    """max |arg q| over sampled alphas, one 8192-point sweep each, as
    (worst, (k, alpha, sigma*tau)); by default the 20 alphas 0.05..1.00 at
    each (k, sigma*tau) of the argument-sweep check."""
    worst, worst_at = 0.0, None
    for k, st in pairs:
        for alpha in alphas:
            m = argument_sweep(k, alpha, sigma=st, tau=1.0, grid_size=8192).max_abs_arg
            if m > worst:
                worst, worst_at = m, (k, round(alpha, 2), st)
    return worst, worst_at


def integral_quad(alpha: float, z: float) -> float:
    """E_alpha(z) by the scaled integral of ``fracbdf.special``, integrated
    over [0, inf) by ``scipy.integrate.quad``: the path the package's own
    Gauss-Kronrod rule replaced."""
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


def solve_scalar_mp(k, alpha, sigma, lam, rho, T, N, corrected=True, dps=30):
    """Terminal value u^N of the scalar scheme at resolution 2^-fixed_bits(dps)."""
    _check_scalar(alpha, sigma, lam, rho, T, N, dps)
    P = fixed_bits(dps)
    v = _march_fixed(scalar_weights_mp(k, alpha, N, P), k, alpha, lam, T, N, corrected, P)
    with mp.workprec(P):
        return mpf((v, -P)) * (mp.exp(-mpf(sigma) * mpf(T)) * mpf(rho))

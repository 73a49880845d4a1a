"""The fixed-point twin against the plain mpf stepper it replaced."""

import itertools

import pytest
from mpmath import mp, mpf

from fracbdf import ParameterDomainError, bdf_polynomial, convergence_harness
from fracbdf.coefficients import check_alpha, check_order
from fracbdf.highprec import (fixed_bits, scalar_weights_mp, solve_scalar_mp,
                              terminal_error_mp, terminal_errors_mp)
from fracbdf.solver import correction_weights


def reference_weights_mp(k, alpha, J):
    """Untempered weights l_0..l_J via the generic power-of-a-series
    recurrence on the exact characteristic polynomial, in mpf arithmetic."""
    check_order(k)
    p = [mpf(c.numerator) / c.denominator for c in bdf_polynomial(k)]
    a = mpf(alpha)
    l = [p[0] ** a]
    for j in range(1, J + 1):
        acc = mpf(0)
        for m in range(1, min(j, k) + 1):
            acc += p[m] * ((a + 1) * m - j) * l[j - m]
        l.append(acc / (j * p[0]))
    return l


def reference_solve_mp(k, alpha, sigma, lam, rho, T, N, corrected=True, dps=30):
    """Terminal value u^N of the scalar scheme, run at ``dps`` digits."""
    check_order(k)
    check_alpha(alpha)
    if N < 1:
        raise ParameterDomainError(f"N must be >= 1, got {N!r}")
    with mp.workdps(dps):
        tau = mpf(T) / N
        l = reference_weights_mp(k, alpha, N)
        damp = mp.exp(-mpf(sigma) * tau)
        g = [l[j] * damp ** j for j in range(N + 1)]
        scale = tau ** (-mpf(alpha))
        shift = scale * g[0] + lam
        acorr = [mpf(a.numerator) / a.denominator
                 for a in correction_weights(k)] if corrected else []
        w = [mpf(0)] * (N + 1)
        for n in range(1, N + 1):
            hist = scale * mp.fdot(g[1:n + 1], w[n - 1::-1][:n])
            a_n = acorr[n - 1] if n - 1 < len(acorr) else mpf(0)
            rhs = -mp.exp(-mpf(sigma) * n * tau) * (1 + a_n) * lam * rho - hist
            w[n] = rhs / shift
        return w[N] + mp.exp(-mpf(sigma) * N * tau) * rho


@pytest.mark.parametrize("k", range(1, 7))
def test_fixed_point_twin_matches_mpf_reference(k):
    worst = 0.0
    for sigma, alpha, lam, rho, corrected in itertools.product(
            (0.0, 1.0), (0.3, 0.5, 0.8), (0.5, 50.0), (1.0, -2.5), (True, False)):
        got = solve_scalar_mp(k, alpha, sigma, lam, rho, 1.0, 64, corrected, dps=30)
        ref = reference_solve_mp(k, alpha, sigma, lam, rho, 1.0, 64, corrected, dps=30)
        with mp.workdps(40):
            worst = max(worst, float(abs(got - ref)))
    assert worst <= 1e-25


@pytest.mark.parametrize("k", (1, 4, 6))
def test_fixed_point_weights_match_mpf_reference(k):
    P = fixed_bits(30)
    fixed = scalar_weights_mp(k, 0.3, 200, bits=P)
    with mp.workdps(40):
        ref = reference_weights_mp(k, 0.3, 200)
        worst = max(abs(mpf((x, -P)) - r) for x, r in zip(fixed, ref))
    assert worst <= mpf(2) ** (-P + 16)


def test_shared_weights_and_exact_value_change_nothing():
    args = (5, 0.5, 1.0, 1.0, 1.0, 1.0)
    path = terminal_errors_mp(*args, (16, 32, 64), dps=30)
    assert path == [terminal_error_mp(*args, N, dps=30) for N in (16, 32, 64)]


def test_supplied_weights_must_cover_all_steps():
    w = scalar_weights_mp(3, 0.5, 8, bits=fixed_bits(30))
    with pytest.raises(ParameterDomainError):
        solve_scalar_mp(3, 0.5, 0.0, 1.0, 1.0, 1.0, 16, weights=w)


@pytest.mark.parametrize("precision", (0, -3, 15, 30.0, 20.5, "30", True))
def test_harness_rejects_bad_precision(precision):
    with pytest.raises(ParameterDomainError):
        convergence_harness(5, 0.5, 0.0, 1.0, (16, 32), precision=precision)


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_harness_rejects_non_finite_inputs(bad):
    for kwargs in ({"sigma": bad}, {"lam": bad}, {"T": bad}):
        args = {"k": 5, "alpha": 0.5, "sigma": 0.0, "lam": 1.0, "N_list": (16, 32),
                "T": 1.0, **kwargs}
        for precision in (None, 30):
            with pytest.raises(ParameterDomainError):
                convergence_harness(**args, precision=precision)

"""The fixed-point twin against the plain mpf stepper it replaced."""

import itertools

import pytest
from mpmath import mp, mpf

from fracbdf import ParameterDomainError, bdf_polynomial, convergence_harness
from fracbdf.coefficients import check_alpha, check_order
from fracbdf import highprec
from fracbdf.highprec import (_GUARD, _LEAF, _march_fixed, _to_fixed, fixed_bits,
                              scalar_weights_mp, solve_scalar_mp, terminal_error_mp,
                              terminal_errors_mp)
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


def reference_march_fixed(l, k, alpha, sigma, lam, T, N, corrected, P):
    """The step-by-step fixed-point march: each history is one exact
    integer dot product, O(N^2) products in all."""
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


_SMALL_N = (1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 100, 257)


@pytest.mark.parametrize("k", range(1, 7))
def test_divide_and_conquer_history_is_bitwise_exact(k):
    for dps in (16, 30, 50):
        P = fixed_bits(dps)
        l = scalar_weights_mp(k, 0.5, max(_SMALL_N), bits=P)
        for sigma, lam, corrected in itertools.product((0.0, 1.0, 3.0), (0.5, 50.0),
                                                       (True, False)):
            for N in _SMALL_N:
                args = (l, k, 0.5, sigma, lam, 1.0, N, corrected, P)
                assert _march_fixed(*args) == reference_march_fixed(*args), (dps, sigma,
                                                                             lam, corrected, N)


# The O(N^2) reference makes long marches slow, so each long case takes one
# (dps, sigma, lam, corrected) instead of crossing them.
_LONG = [(1, 513, 50, 3.0, 0.5, True), (2, 2048, 16, 1.0, 50.0, False),
         (3, 513, 30, 0.0, 50.0, False), (4, 2048, 50, 1.0, 0.5, True),
         (5, 513, 50, 3.0, 0.5, True), (5, 513, 16, 0.0, 0.5, True),
         (6, 2048, 16, 1.0, 50.0, False), (6, 2048, 30, 1.0, 1.0, True)]


@pytest.mark.parametrize("k, N, dps, sigma, lam, corrected", _LONG)
def test_divide_and_conquer_history_is_bitwise_exact_long(k, N, dps, sigma, lam, corrected):
    P = fixed_bits(dps)
    l = scalar_weights_mp(k, 0.3, N, bits=P)
    args = (l, k, 0.3, sigma, lam, 1.0, N, corrected, P)
    assert _march_fixed(*args) == reference_march_fixed(*args)


def test_kronecker_product_slots_handle_signs_and_zeros():
    a = [0, -1, 2 ** 200, -(2 ** 200) + 1, 0, 7]
    b = [-(2 ** 180), 3, 0, -5, 2 ** 179, 1, -1]
    full = [sum(a[i] * b[s - i] for i in range(len(a)) if 0 <= s - i < len(b))
            for s in range(len(a) + len(b) - 1)]
    assert highprec._product_slots(a, b, 0, len(full)) == full
    assert highprec._product_slots(a, b, 3, 8) == full[3:8]
    assert highprec._product_slots([0, 0], [0, 0, 0], 0, 4) == [0, 0, 0, 0]

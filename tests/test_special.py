import math
import random

import numpy as np
import pytest

from fracbdf import (FractionalOperatorSpec, ParameterDomainError, SingleTerm,
                     SubdiffusionProblem, TridiagonalLaplacian, exact_scalar_solution,
                     mittag_leffler, stability_experiment)
from fracbdf import special
from fracbdf.special import _integral, _series, _series_profile, _standard_normal


def test_value_at_zero():
    for alpha in (0.1, 0.5, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


def test_classical_exponential():
    for z in (-0.5, -2.0, -10.0):
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-14)


def test_half_order_against_erfc_identity():
    # E_{1/2}(-x) = exp(x^2) erfc(x)
    for x in (0.5, 1.0, 2.0):
        expected = math.exp(x * x) * math.erfc(x)
        assert mittag_leffler(0.5, -x) == pytest.approx(expected, rel=1e-12)


def test_reference_value_from_long_series():
    # oracle: 200-term series summed at 50 digits
    from mpmath import mp, mpf

    with mp.workdps(50):
        ref = float(mp.fsum(mpf(-1) ** m / mp.gamma(mpf("0.5") * m + 1)
                            for m in range(200)))
    assert ref == pytest.approx(0.427584, abs=5e-7)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("alpha", (0.5, 0.6, 0.75, 0.9))
@pytest.mark.parametrize("z", (-3.0, -5.0, -8.0))
def test_series_integral_overlap(alpha, z):
    s = _series(alpha, z)
    i = _integral(alpha, z)
    assert s is not None
    assert abs(s - i) <= 1e-10 * max(1.0, abs(s))


def test_route_selection_against_integral():
    # auto picks the series below the cutoff and the integral above;
    # both must agree near the switch point
    lo = mittag_leffler(0.6, -4.999)
    hi = mittag_leffler(0.6, -5.001)
    assert abs(lo - hi) < 1e-4
    assert mittag_leffler(0.6, -20.0) == pytest.approx(_integral(0.6, -20.0))


def test_series_cancellation_fallback():
    # small alpha at z = -5: the series needs ~98 digits of guard, so it
    # is not viable and the integral takes over
    n, peak = _series_profile(0.3, -5.0)
    assert peak > 60.0
    assert _series(0.3, -5.0) is None
    v = mittag_leffler(0.3, -5.0)
    assert 0.0 < v < 1.0
    assert v == _integral(0.3, -5.0)


def test_series_out_of_term_budget_falls_back_to_integral(monkeypatch):
    # the scan for E_0.5(-1) stops after 78 terms; with a budget of 10 it runs out
    assert _series(0.5, -1.0) is not None
    monkeypatch.setattr(special, "_TERM_BUDGET", 10)
    assert _series(0.5, -1.0) is None
    assert mittag_leffler(0.5, -1.0) == _integral(0.5, -1.0)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(0.42758357615580705, rel=1e-13)


def test_monotone_decreasing_on_negative_axis():
    vals = [mittag_leffler(0.7, z) for z in (-0.25, -1.0, -4.0, -16.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        mittag_leffler(0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(ParameterDomainError):
        mittag_leffler(1.5, -1.0)
    with pytest.raises(ParameterDomainError):
        mittag_leffler(0.5, math.nan)


@pytest.mark.parametrize("field", ("lam", "sigma", "rho", "t"))
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_exact_solution_rejects_non_finite_inputs(field, value):
    args = {"lam": 2.0, "alpha": 0.5, "sigma": 0.1, "rho": 1.0, "t": 1.0, field: value}
    with pytest.raises(ParameterDomainError, match=field):
        exact_scalar_solution(**args)


def test_exact_solution_checks_alpha_at_t0():
    with pytest.raises(ParameterDomainError):
        exact_scalar_solution(2.0, math.nan, 0.1, 1.0, 0.0)


_LARGE_Z_ALPHAS = (0.1, 0.3, 0.5, 0.8, 0.95)


def _reference_mp(alpha, x, dps):
    """E_alpha(-x) = sin(alpha pi)/(alpha pi x) int_0^inf exp(-v^(1/alpha))
    / ((v/x)^2 + 2 cos(alpha pi) v/x + 1) dv at ``dps`` digits, split
    around v = 1, where the integrand approaches a step as alpha -> 0."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        a, X = mpf(alpha), mpf(x)
        c = mp.cospi(a)
        val = mp.quad(lambda v: mp.exp(-v ** (1 / a)) / ((v / X) ** 2 + 2 * c * v / X + 1),
                      [0, 0.5, 0.9, 0.97, 1, 1.03, 1.1, 2, mp.inf])
        return float(mp.sinpi(a) / (a * mp.pi * X) * val)


@pytest.mark.parametrize("alpha", _LARGE_Z_ALPHAS)
@pytest.mark.parametrize("x", (800.0, 1600.0, 3200.0))
def test_integral_at_large_argument_against_mp_quadrature(alpha, x):
    ref = _reference_mp(alpha, x, 40)
    assert ref > 0.0
    assert abs(mittag_leffler(alpha, -x) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("alpha", _LARGE_Z_ALPHAS)
@pytest.mark.parametrize("x", (1e5, 1e50, 1e300))
def test_integral_at_huge_argument_against_asymptotic_series(alpha, x):
    # E_alpha(-x) ~ sum_m (-1)^(m+1) x^(-m) / Gamma(1 - alpha m); three terms
    # leave a relative remainder O(x^-3)
    from mpmath import mp, mpf

    with mp.workdps(40):
        a, X = mpf(alpha), mpf(x)
        ref = float(mp.fsum((-1) ** (m + 1) * X ** (-m) * mp.rgamma(1 - a * m)
                            for m in (1, 2, 3)))
    assert abs(mittag_leffler(alpha, -x) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("alpha", (0.005, 0.008, 0.01))
@pytest.mark.parametrize("x", (0.5, 1.0, 3.0, 10.0, 1e3, 1e5))
def test_small_alpha_against_mp_quadrature(alpha, x):
    # At alpha = 1e-6 the series used to stop at its term budget unsummed
    # (E(-1) came out -0.0446, not ~0.5), and for alpha < 0.01 the
    # quadrature raised OverflowError from v^(1/alpha).
    ref = _reference_mp(alpha, x, 30)
    assert abs(mittag_leffler(alpha, -x) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("alpha", (1e-6, 0.002, 0.00499))
def test_orders_below_the_floor_are_refused(alpha):
    with pytest.raises(ParameterDomainError, match="alpha >= 0.005"):
        mittag_leffler(alpha, -1.0)
    with pytest.raises(ParameterDomainError, match="alpha >= 0.005"):
        exact_scalar_solution(1.0, alpha, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("alpha", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
def test_series_band_against_50_digit_reference(alpha):
    # The float64 series used to sum peaks up to 10^3 and lost up to
    # 2.9e-11 relative there (E_0.8(-5) was off by 1.4e-11).
    from mpmath import mp

    for z in (-0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -5.0):
        with mp.workdps(50):
            ref = special.mittag_leffler_mp(alpha, z)
        assert abs(mittag_leffler(alpha, z) - ref) <= 1e-13 * ref


def test_unit_argument_stays_on_the_float_series():
    # E_alpha(-1) peaks below 10^0.06 for every order, so the convergence
    # references at lam * T^alpha = 1 keep the float64 sum
    for alpha in (0.005, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert _series_profile(alpha, -1.0)[1] <= 0.06
        assert mittag_leffler(alpha, -1.0) == _series(alpha, -1.0, extended=False)


# ---------------------------------------------------------------------------
# seeded Gaussian draws
# ---------------------------------------------------------------------------

def test_standard_normal_is_box_muller_on_the_stdlib_stream():
    # Python keeps the random() stream of a seeded generator fixed, so these
    # values hold on every Python and numpy version (to the last bits of
    # numpy's log1p and cos)
    pinned = [-0.6800423637575032, -0.11920514067955516, 0.013173835974033737,
              1.9274685737998292, -1.072851917775707, 0.8251126679217844]
    assert _standard_normal(777, 6) == pytest.approx(pinned, rel=1e-14, abs=0.0)
    draw = random.Random(777).random
    by_hand = []
    for _ in range(6):
        u1, u2 = draw(), draw()
        by_hand.append(math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2))
    assert _standard_normal(777, 6) == pytest.approx(by_hand, rel=1e-14, abs=0.0)


def test_standard_normal_shape_prefix_and_moments():
    z = _standard_normal(3, (4, 5))
    assert z.shape == (4, 5) and z.dtype == np.float64
    assert np.array_equal(z.ravel(), _standard_normal(3, 20))
    assert np.array_equal(z[:2].ravel(), _standard_normal(3, 10))    # draws are a prefix
    n = 10 ** 5
    z = _standard_normal(12345, n)
    # 5 sigma: the sample mean has sd 1/sqrt(n), the sample variance sqrt(2/n)
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_stability_experiment_records_follow_the_seed():
    problem = SubdiffusionProblem(TridiagonalLaplacian(8), np.ones(8), 1.0,
                                  FractionalOperatorSpec(SingleTerm(0.5)))
    first = stability_experiment(problem, 3, 16, perturbations=3, seed=5)
    assert stability_experiment(problem, 3, 16, perturbations=3, seed=5) == first
    other = stability_experiment(problem, 3, 16, perturbations=3, seed=6)
    assert other.ratios_sq != first.ratios_sq and other.ratios_lin != first.ratios_lin

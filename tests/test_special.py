import math

import pytest

from fracbdf import ParameterDomainError, exact_scalar_solution, mittag_leffler
from fracbdf.special import _integral, _series_profile


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
    s = mittag_leffler(alpha, z, method="series")
    i = mittag_leffler(alpha, z, method="integral")
    assert abs(s - i) <= 1e-10 * max(1.0, abs(s))


def test_route_selection_against_integral():
    # auto picks the series below the cutoff and the integral above;
    # both must agree near the switch point
    lo = mittag_leffler(0.6, -4.999)
    hi = mittag_leffler(0.6, -5.001)
    assert abs(lo - hi) < 1e-4
    assert mittag_leffler(0.6, -20.0) == pytest.approx(_integral(0.6, -20.0))


def test_series_cancellation_fallback():
    # small alpha at z = -5: the series needs ~98 digits of guard; auto
    # must fall back to the integral and still match a forced mp series
    n, peak = _series_profile(0.3, -5.0)
    assert peak > 60.0
    v = mittag_leffler(0.3, -5.0)
    assert 0.0 < v < 1.0
    with pytest.raises(ParameterDomainError):
        mittag_leffler(0.3, -5.0, method="series")


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
        mittag_leffler(0.5, -1.0, method="cheat")
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

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbdf import (CoefficientTable, FracParams, ParameterDomainError,
                     bdf_g_coefficients, bdf_l_coefficients, bdf_polynomial, series_oracle)
from fracbdf.coefficients import (_H_TERMS, _power_series, _residual_coefficients,
                                  _residual_power)
from fracbdf.highprec import fixed_bits, scalar_weights_mp

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def test_bdf_polynomial_exact():
    assert [float(c) for c in bdf_polynomial(1)] == [1.0, -1.0]
    assert [float(c) for c in bdf_polynomial(2)] == [1.5, -2.0, 0.5]
    p6 = bdf_polynomial(6)
    assert p6[0] == sum(Fraction(1, j) for j in range(1, 7))
    assert p6[1] == -6
    assert p6[6] == Fraction(1, 6)


@pytest.mark.parametrize("k", range(1, 7))
def test_leading_weight_is_harmonic_power(k):
    h_k = float(sum(Fraction(1, j) for j in range(1, k + 1)))
    l = bdf_l_coefficients(k, 0.37, 0)
    assert l[0] == pytest.approx(h_k ** 0.37, rel=1e-15)
    assert l[0] > 0.0


def test_classical_bdf1_weights():
    assert_allclose(bdf_l_coefficients(1, 1.0, 4), [1.0, -1.0, 0.0, 0.0, 0.0],
                    atol=1e-15)


def test_classical_bdf2_weights():
    assert_allclose(bdf_l_coefficients(2, 1.0, 4), [1.5, -2.0, 0.5, 0.0, 0.0],
                    atol=1e-14)


def test_bdf3_closed_form_start():
    l = bdf_l_coefficients(3, 0.5, 1)
    l0 = (11.0 / 6.0) ** 0.5
    assert l[0] == pytest.approx(l0, rel=1e-15)
    assert l[1] == pytest.approx(-l0 * (18.0 / 11.0) * 0.5, rel=1e-15)


def test_binomial_series_oracle():
    # (1 - z)^(1/2): coefficients 1, -1/2, -1/8
    assert_allclose(series_oracle(1, 0.5, 2), [1.0, -0.5, -0.125], rtol=1e-14)
    assert_allclose(series_oracle(2, 1.0, 2), [1.5, -2.0, 0.5], atol=1e-15)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_recurrence_matches_oracle(k, alpha):
    rec = bdf_l_coefficients(k, alpha, 256)
    ora = series_oracle(k, alpha, 256)
    diff = np.max(np.abs(rec - ora) / np.maximum(1.0, np.abs(ora)))
    assert diff <= 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_classical_limit_degree_k(k):
    l = bdf_l_coefficients(k, 1.0, k + 20)
    assert np.max(np.abs(l[k + 1:])) <= 1e-14


def test_bdf1_alternating_decreasing_magnitudes():
    l = bdf_l_coefficients(1, 0.5, 40)
    assert np.all(l[1:] < 0.0)          # -alpha, then products of positives
    assert np.all(np.diff(np.abs(l[1:])) < 0.0)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
def test_partial_sums_decay(k, alpha):
    # the series sums to 0; partial sums decay like J^(-alpha), so only
    # monotonicity over the last decade is asserted, not a fixed magnitude
    l = bdf_l_coefficients(k, alpha, 512)
    s = np.abs(np.cumsum(l))
    tail = s[460:]
    assert np.all(np.diff(tail) <= 1e-15)
    assert tail[-1] < s[100]


def test_tempered_weights_damping():
    params = FracParams(alpha=0.5, sigma=1.0, tau=0.1)
    table = bdf_g_coefficients(3, params, 32)
    assert_allclose(table.g, table.l * np.exp(-0.1 * np.arange(33)), rtol=1e-13)
    assert table.g[1] == pytest.approx(math.exp(-0.1) * table.l[1], rel=1e-14)
    assert np.all(np.abs(table.g[1:]) < np.abs(table.l[1:]))
    assert table.g[0] == table.l[0]


def test_untempered_table_equals_l():
    table = bdf_g_coefficients(2, FracParams(alpha=1.0), 4)
    assert_allclose(table.g, [1.5, -2.0, 0.5, 0.0, 0.0], atol=1e-14)
    assert np.array_equal(table.g, table.l)
    assert table.J == 4


def test_tables_are_read_only():
    table = bdf_g_coefficients(2, FracParams(alpha=0.5), 4)
    with pytest.raises(ValueError):
        table.l[0] = 0.0


@pytest.mark.parametrize("sigma", (0.0, 0.7))
def test_table_derives_g_on_first_read(sigma):
    assert [fd.name for fd in dataclasses.fields(CoefficientTable)] == ["k", "params", "l"]
    table = bdf_g_coefficients(6, FracParams(alpha=0.4, sigma=sigma, tau=0.01), 1000)
    assert "g" not in table.__dict__
    g = table.g
    assert g.tobytes() == (table.l * table.params.damping ** np.arange(1001)).tobytes()
    if sigma == 0.0:
        assert g.tobytes() == table.l.tobytes()
    assert table.g is g and not g.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.g = g


@pytest.mark.parametrize("bad", [0, 7, -1])
def test_invalid_order_rejected(bad):
    with pytest.raises(ParameterDomainError):
        bdf_l_coefficients(bad, 0.5, 4)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_invalid_alpha_rejected(bad):
    with pytest.raises(ParameterDomainError):
        bdf_l_coefficients(2, bad, 4)


def test_invalid_params_rejected():
    with pytest.raises(ParameterDomainError):
        FracParams(alpha=0.5, sigma=-1.0)
    with pytest.raises(ParameterDomainError):
        FracParams(alpha=0.5, tau=0.0)
    with pytest.raises(ParameterDomainError):
        bdf_l_coefficients(2, 0.5, -1)


# Hand-transcribed closed forms of the order-k recurrence; they feed the
# reference loop below.
# Leading coefficient of the BDF-k characteristic polynomial, i.e. the
# harmonic number H_k; l_0 = H_k^alpha.
_LEADING = {
    1: Fraction(1),
    2: Fraction(3, 2),
    3: Fraction(11, 6),
    4: Fraction(25, 12),
    5: Fraction(137, 60),
    6: Fraction(147, 60),
}

# Starting values l_1 .. l_{k-1} as polynomials in alpha (ascending powers,
# constant term zero) relative to l_0:  l_i = l_0 * sum_p c_p alpha^p.
_START = {
    1: (),
    2: ((Fraction(-4, 3),),),
    3: (
        (Fraction(-18, 11),),
        (Fraction(-63, 121), Fraction(162, 121)),
    ),
    4: (
        (Fraction(-48, 25),),
        (Fraction(-252, 625), Fraction(1152, 625)),
        (Fraction(-3664, 15625), Fraction(12096, 15625), Fraction(-18432, 15625)),
    ),
    5: (
        (Fraction(-300, 137),),
        (Fraction(-3900, 18769), Fraction(45000, 18769)),
        (Fraction(-423800, 2571353), Fraction(1170000, 2571353),
         Fraction(-4500000, 2571353)),
        (Fraction(-103893525, 352275361), Fraction(134745000, 352275361),
         Fraction(-175500000, 352275361), Fraction(337500000, 352275361)),
    ),
    6: (
        (Fraction(-360, 147),),
        (Fraction(150, 2401), Fraction(7200, 2401)),
        (Fraction(-42400, 352947), Fraction(-18000, 117649),
         Fraction(-288000, 117649)),
        (Fraction(-2603575, 5764801), Fraction(1707250, 5764801),
         Fraction(1080000, 5764801), Fraction(8640000, 5764801)),
        (Fraction(-94994224, 282475249), Fraction(310309000, 282475249),
         Fraction(-14730000, 40353607), Fraction(-43200000, 282475249),
         Fraction(-207360000, 282475249)),
    ),
}

# Recurrence factors f_1 .. f_k for j >= k:
#   l_j = sum_m f_m * s_m * (1 - m*(alpha+1)/j) * l_{j-m},   s_m = (-1)^(m+1).
_RECURRENCE = {
    1: (Fraction(1),),
    2: (Fraction(4, 3), Fraction(1, 3)),
    3: (Fraction(18, 11), Fraction(18, 22), Fraction(2, 11)),
    4: (Fraction(48, 25), Fraction(36, 25), Fraction(16, 25), Fraction(3, 25)),
    5: (Fraction(300, 137), Fraction(300, 137), Fraction(200, 137),
        Fraction(75, 137), Fraction(12, 137)),
    6: (Fraction(360, 147), Fraction(450, 147), Fraction(400, 147),
        Fraction(225, 147), Fraction(72, 147), Fraction(10, 147)),
}


def _reference_l_coefficients(k, alpha, J):
    """The scalar-indexed order-k recurrence with exact-rational starts, an
    independent reference for the factored kernel."""
    l0 = float(_LEADING[k]) ** alpha
    l = np.empty(J + 1)
    l[0] = l0
    for i, poly in enumerate(_START[k], start=1):
        if i > J:
            break
        acc = 0.0
        for c in reversed(poly):        # Horner in alpha, constant term 0
            acc = (acc + float(c)) * alpha
        l[i] = l0 * acc
    factors = [float(f) for f in _RECURRENCE[k]]
    ap1 = alpha + 1.0
    for j in range(k, J + 1):
        acc = 0.0
        sign = 1.0
        for m, f in enumerate(factors, start=1):
            acc += f * sign * (1.0 - m * ap1 / j) * l[j - m]
            sign = -sign
        l[j] = acc
    return l


@pytest.mark.parametrize("alpha", (0.1, 0.5, 0.93, 1.0))
@pytest.mark.parametrize("k", range(1, 7))
def test_recurrence_bitwise_equals_reference_loop(k, alpha):
    # agreement, not bitwise: the factored kernel rounds differently from
    # the k-term loop; bound in the max(1, |l|) measure of
    # check_coefficient_oracle (worst seen 5.3e-15, at k = 6, J = 513)
    for J in sorted({0, 1, k - 1, k, 513, 4097}):
        new = bdf_l_coefficients(k, alpha, J)
        ref = _reference_l_coefficients(k, alpha, J)
        assert new.shape == (J + 1,) and new.dtype == np.float64
        assert np.max(np.abs(new - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def _reference_series_oracle(k, alpha, J):
    """The numpy-indexed oracle loop, kept as the bitwise reference."""
    from fracbdf.coefficients import bdf_polynomial
    p = [float(c) for c in bdf_polynomial(k)]
    l = np.empty(J + 1)
    l[0] = p[0] ** alpha
    ap1 = alpha + 1.0
    for j in range(1, J + 1):
        acc = 0.0
        for m in range(1, min(j, k) + 1):
            acc += p[m] * (ap1 * m - j) * l[j - m]
        l[j] = acc / (j * p[0])
    return l


@pytest.mark.parametrize("alpha", (0.1, 0.3, 0.5, 0.93, 1.0))
@pytest.mark.parametrize("k", range(1, 7))
def test_series_oracle_bitwise_equals_reference_loop(k, alpha):
    for J in sorted({0, 1, k - 1, k, 512}):
        new = series_oracle(k, alpha, J)
        assert new.shape == (J + 1,) and new.dtype == np.float64
        assert new.tobytes() == _reference_series_oracle(k, alpha, J).tobytes()


def test_weights_match_40_digit_recurrence():
    # every entry to 1e-12 relative against the twin's power recurrence on
    # p in 40-digit fixed point (worst seen 1.9e-13, at k = 6)
    P = fixed_bits(40)
    for k in range(1, 7):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.93):
            ref = np.array([x / 2 ** P for x in scalar_weights_mp(k, alpha, 512, P)])
            l = bdf_l_coefficients(k, alpha, 512)
            assert np.max(np.abs(l - ref) / np.abs(ref)) <= 1e-12, (k, alpha)


@pytest.mark.parametrize("alpha", (0.005, 0.1, 0.5, 0.93, 1.0))
@pytest.mark.parametrize("k", range(1, 7))
def test_residual_power_tail_is_negligible(k, alpha):
    # the terms of h = R_k^alpha that the kernel drops
    h = _power_series(_residual_coefficients(k), alpha, 4 * _H_TERMS)
    assert np.max(np.abs(h[_H_TERMS:])) <= 1e-18 * h[0]


@pytest.mark.parametrize("alpha", (0.005, 0.5, 0.93, 1.0))
@pytest.mark.parametrize("k", range(1, 7))
def test_weights_are_bitwise_prefixes(k, alpha):
    # the convergence harness builds l once at the finest grid and slices it
    full = bdf_l_coefficients(k, alpha, 1024)
    for M in sorted({0, 1, k - 1, k, _H_TERMS - 2, _H_TERMS - 1, _H_TERMS,
                     _H_TERMS + 1, 513, 1023, 1024}):
        assert full[:M + 1].tobytes() == bdf_l_coefficients(k, alpha, M).tobytes()


@pytest.mark.parametrize("k", (1, 3, 6))
def test_cached_residual_power_is_bitwise_and_read_only(k):
    _residual_power.cache_clear()
    cold = bdf_l_coefficients(k, 0.37, 600)
    assert _residual_power.cache_info().misses == 1
    warm = bdf_l_coefficients(k, 0.37, 600)
    assert _residual_power.cache_info().hits == 1
    assert cold.tobytes() == warm.tobytes()
    h = _residual_power(k, 0.37)
    assert h.tobytes() == _power_series(_residual_coefficients(k), 0.37, _H_TERMS).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        h[0] = 0.0

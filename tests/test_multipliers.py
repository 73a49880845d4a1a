import functools
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbdf import (FracParams, InternalConsistencyError, ParameterDomainError,
                     bdf_g_coefficients, multiplier_set, q_coefficients, reciprocal_series)
from fracbdf.multipliers import (_MULTIPLIERS, _RECIPROCAL_FACTORS, MultiplierSet,
                                 _factor_cascade)
from references import mu_roots, mu_zeta_polynomial


def test_multiplier_tables_exact():
    assert multiplier_set(1).mu == ()
    assert multiplier_set(2).mu == ()
    assert multiplier_set(3).mu == (Fraction(1, 2),)
    assert multiplier_set(4).mu == (Fraction(1, 2),)
    assert multiplier_set(5).mu == (Fraction(1), Fraction(-1, 4))
    assert multiplier_set(6).mu == (Fraction(43, 30), Fraction(-2, 3), Fraction(1, 10))


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_mu_roots_outside_unit_disk(k, st):
    roots = mu_roots(k, sigma=st, tau=1.0)
    assert np.all(np.abs(roots) > 1.0)


def test_bdf6_roots_closed_form():
    roots = np.sort(np.abs(mu_roots(6)))
    assert_allclose(roots, [5.0 / 3.0, 2.0, 3.0], rtol=1e-12)


def test_reciprocal_closed_forms_at_reference_points():
    def c(k, m):
        return reciprocal_series(k, FracParams(alpha=0.5), m).c[m]
    assert c(6, 0) == 1.0
    assert c(6, 1) == float(Fraction(43, 30))
    assert c(5, 2) == float(Fraction(3, 4))
    assert c(3, 3) == float(Fraction(1, 8))


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.3))
def test_reciprocal_series_inverts_mu(k, st):
    params = FracParams(alpha=0.5, sigma=st, tau=1.0)
    series = reciprocal_series(k, params, 256)
    assert series.c[0] == 1.0
    mu_poly = mu_zeta_polynomial(k, sigma=st, tau=1.0)
    conv = np.convolve(series.c, mu_poly)[:257]
    expected = np.zeros(257)
    expected[0] = 1.0
    assert np.max(np.abs(conv - expected)) <= 1e-13


def test_q_first_coefficients():
    params = FracParams(alpha=0.5, sigma=0.4, tau=0.25)
    table = bdf_g_coefficients(3, params, 16)
    q = q_coefficients(table, multiplier_set(3), 16).q
    assert q[0] == table.g[0]
    assert q[1] == pytest.approx(table.g[1] + 0.5 * params.damping * table.g[0],
                                 rel=1e-14)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75))
def test_q_reconvolution_recovers_g(k, alpha):
    params = FracParams(alpha=alpha)
    table = bdf_g_coefficients(k, params, 512)
    q = q_coefficients(table, multiplier_set(k), 512).q
    mu_poly = mu_zeta_polynomial(k)
    recon = np.convolve(q, mu_poly)[:513]
    assert np.max(np.abs(recon - table.g) / max(1.0, np.abs(table.g).max())) <= 1e-12


def test_q_trivial_for_k1():
    # mu is empty for k = 1, 2: q is g itself, bit for bit, and read-only
    params = FracParams(alpha=0.5, sigma=0.3, tau=1.0)
    for k in (1, 2):
        table = bdf_g_coefficients(k, params, 32)
        q = q_coefficients(table, multiplier_set(k), 32).q
        assert q.tobytes() == table.g.tobytes()
        assert not q.flags.writeable


def test_q_order_mismatch_rejected():
    params = FracParams(alpha=0.5)
    table = bdf_g_coefficients(3, params, 8)
    with pytest.raises(ParameterDomainError):
        q_coefficients(table, multiplier_set(4), 8)
    # a tuple other than the tabulated one has no factors to check against
    with pytest.raises(ParameterDomainError, match=r"multiplier_set\(3\)"):
        q_coefficients(table, MultiplierSet(k=3, mu=(Fraction(1, 4),)), 8)


def test_q_length_mismatch_rejected():
    params = FracParams(alpha=0.5)
    table = bdf_g_coefficients(3, params, 8)
    with pytest.raises(ParameterDomainError):
        q_coefficients(table, multiplier_set(3), 9)


def test_reciprocal_series_decays_for_k6():
    # radius of convergence of 1/mu is 5/3, so c_m ~ const * (3/5)^m
    c = reciprocal_series(6, FracParams(alpha=0.5), 64).c
    assert abs(c[64]) < 100.0 * 0.6 ** 64


def _reference_closed_form(k, m):
    """The Fraction closed forms as first written, kept as the reference."""
    if k in (3, 4):
        return Fraction(1, 2) ** m
    if k == 5:
        return Fraction(m + 1, 2 ** m)
    num = 243 * Fraction(18) ** (m - 1) - 15 ** (m + 1) + 25 * Fraction(10) ** (m - 1)
    return num / Fraction(30) ** m


@functools.cache
def _closed_form_floats(k, J):
    return np.array([float(_reference_closed_form(k, m)) for m in range(J + 1)])


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_factor_product_matches_closed_forms(k, st):
    # the factor cascade on the unit impulse, the reference of the division
    # check, against the exact closed forms, tempered
    J = 4000
    damp = FracParams(alpha=0.5, sigma=st, tau=1.0).damping
    ref = _closed_form_floats(k, J) * damp ** np.arange(J + 1)
    impulse = np.zeros(J + 1)
    impulse[0] = 1.0
    err = np.abs(_factor_cascade(impulse, k, damp) - ref)
    assert np.all(err <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))


def _k6_divisions():
    """Both routes through the division check at k = 6: 1/mu and q = g/mu."""
    params = FracParams(alpha=0.5)
    table = bdf_g_coefficients(6, params, 64)
    return (lambda: reciprocal_series(6, params, 64),
            lambda: q_coefficients(table, multiplier_set(6), 64))


def test_multiplier_slip_raises(monkeypatch):
    divisions = _k6_divisions()
    monkeypatch.setitem(_MULTIPLIERS, 6, (Fraction(43, 30), Fraction(-2, 3), Fraction(1, 11)))
    for divide in divisions:
        with pytest.raises(InternalConsistencyError, match="k=6, m=3") as info:
            divide()
        assert "np.float64" not in str(info.value)


def test_factor_slip_raises(monkeypatch):
    # the factor table feeds the argument sweep too; the division check
    # guards it as well
    divisions = _k6_divisions()
    monkeypatch.setitem(_RECIPROCAL_FACTORS, 6,
                        ((Fraction(3, 5), 1), (Fraction(1, 2), 1), (Fraction(1, 4), 1)))
    for divide in divisions:
        with pytest.raises(InternalConsistencyError, match="k=6, m=1"):
            divide()


def _reference_reciprocal(k, damp, J):
    """The numpy-indexed division loop, kept as the bitwise reference."""
    mu_w = [float(m) * damp ** j for j, m in enumerate(multiplier_set(k).mu, start=1)]
    c = np.zeros(J + 1)
    c[0] = 1.0
    for m in range(1, J + 1):
        acc = 0.0
        for j, mw in enumerate(mu_w, start=1):
            if j > m:
                break
            acc += mw * c[m - j]
        c[m] = acc
    return c


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_reciprocal_series_bitwise_equals_reference_loop(k, st):
    params = FracParams(alpha=0.5, sigma=st, tau=1.0)
    for J in (0, 1, k, 512, 2000):
        c = reciprocal_series(k, params, J).c
        assert c.tobytes() == _reference_reciprocal(k, params.damping, J).tobytes()
        assert not c.flags.writeable


@pytest.mark.parametrize("J", ("3", None, 2.5, True, -1))
def test_q_bad_count_is_a_domain_error(J):
    table = bdf_g_coefficients(3, FracParams(alpha=0.5), 8)
    with pytest.raises(ParameterDomainError, match="J must be an integer"):
        q_coefficients(table, multiplier_set(3), J)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_q_matches_40_digit_division(k, st):
    # the same recurrence in 40-digit arithmetic on the same float g and
    # damping: the float division loses at most a few units of max|q|
    import mpmath
    J = 1000
    params = FracParams(alpha=0.63, sigma=st, tau=1.0)
    table = bdf_g_coefficients(k, params, J)
    q = q_coefficients(table, multiplier_set(k), J).q
    with mpmath.workdps(40):
        damp = mpmath.mpf(params.damping)
        mu_w = [mpmath.mpf(m.numerator) / m.denominator * damp ** j
                for j, m in enumerate(multiplier_set(k).mu, start=1)]
        ref = []
        for m, acc in enumerate(table.g.tolist()):
            acc = mpmath.mpf(acc)
            for j, mw in enumerate(mu_w[:m], start=1):
                acc += mw * ref[m - j]
            ref.append(acc)
        err = max(abs(float(a - b)) for a, b in zip(q.tolist(), ref))
    assert err <= 4 * np.finfo(float).eps * np.abs(q).max()

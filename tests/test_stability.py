import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbdf import (ENERGY_CONSTANTS, FracParams, ParameterDomainError,
                     TrigPolynomial, argument_sweep, bdf_g_coefficients,
                     bdf_polynomial, composite_angle, lower_bound_extrema,
                     multiplier_energy_check, multiplier_set,
                     positivity_generating_function, q_boundary_values,
                     q_coefficients, quadrature_positivity_check,
                     stability_report, toeplitz_band, toeplitz_eigencheck,
                     trig_max, trig_min)
from fracbdf.stability import (_RECIPROCAL_FACTORS, _factored_angles, _residual_values,
                               _sweep_angles)

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# structural identities behind the factored forms
# ---------------------------------------------------------------------------

# Hand-transcribed residual polynomials R_k (ascending powers) and band
# diagonals 1 - c_k, kept as the reference for the values derived from
# bdf_polynomial and ENERGY_CONSTANTS.
_RESIDUAL = {
    3: (Fraction(11, 6), Fraction(-7, 6), Fraction(1, 3)),
    4: (Fraction(25, 12), Fraction(-23, 12), Fraction(13, 12), Fraction(-1, 4)),
    5: (Fraction(137, 60), Fraction(-163, 60), Fraction(137, 60),
        Fraction(-63, 60), Fraction(1, 5)),
    6: (Fraction(147, 60), Fraction(-213, 60), Fraction(237, 60),
        Fraction(-163, 60), Fraction(62, 60), Fraction(-1, 6)),
}
_BAND_DIAGONAL = {3: Fraction(1, 2), 4: Fraction(1, 2),
                  5: Fraction(3, 4), 6: Fraction(23, 24)}


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_residual_factorization_is_exact(k):
    # (1 - z) * R_k(z) must equal the BDF characteristic polynomial
    res = _RESIDUAL[k]
    prod = [Fraction(0)] * (k + 1)
    for m, c in enumerate(res):
        prod[m] += c
        prod[m + 1] -= c
    assert prod == bdf_polynomial(k)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_derived_residual_and_band_diagonal_equal_tables(k):
    p = bdf_polynomial(k)
    assert [sum(p[:m + 1]) for m in range(k)] == list(_RESIDUAL[k])
    assert 1 - ENERGY_CONSTANTS[k] == _BAND_DIAGONAL[k]
    assert positivity_generating_function(k).coeffs[0] == float(_BAND_DIAGONAL[k])
    z = 0.9 * np.exp(1j * np.linspace(0.0, math.pi, 257))
    ref = np.full_like(z, float(_RESIDUAL[k][-1]))
    for c in reversed(_RESIDUAL[k][:-1]):
        ref = ref * z + float(c)
    assert _residual_values(k, z).tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_reciprocal_factors_multiply_to_mu(k):
    poly = [Fraction(1)]
    for c, mult in _RECIPROCAL_FACTORS[k]:
        for _ in range(mult):
            new = [Fraction(0)] * (len(poly) + 1)
            for i, a in enumerate(poly):
                new[i] += a
                new[i + 1] -= c * a
            poly = new
    expected = [Fraction(1)] + [-m for m in multiplier_set(k).mu]
    expected += [Fraction(0)] * (len(poly) - len(expected))
    assert poly == expected


def test_energy_constants_complement_diagonal():
    # the positivity polynomial splits as c_k + f(x); at x where cos(jx)=1
    # for all j the generating function vanishes for k=3,4,5
    for k in (3, 4, 5):
        f = positivity_generating_function(k)
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# positivity side
# ---------------------------------------------------------------------------

def test_generating_function_k3_matches_half_one_minus_cos():
    f = positivity_generating_function(3, sigma=0.0)
    x = np.linspace(0.0, math.pi, 101)
    assert_allclose(f(x), 0.5 * (1.0 - np.cos(x)), atol=1e-15)


def test_generating_function_k5_quadratic_lower_bound():
    for st in (0.0, 0.5):
        f = positivity_generating_function(5, sigma=st, tau=1.0)
        x = np.linspace(0.0, math.pi, 4096)
        bound = 0.5 * (1.0 - math.exp(-st) * np.cos(x)) ** 2
        assert np.min(f(x) - bound) >= -1e-12


def test_generating_function_k6_minimum_location():
    f = positivity_generating_function(6)
    x_min, f_min = trig_min(f, grid_size=8192, refine_tol=1e-9)
    assert f_min > 0.004785
    assert f_min < 0.0055
    assert abs(x_min - math.acos((20.0 - math.sqrt(94.0)) / 18.0)) <= 1e-6


def test_k6_band_monotone_in_squared_damping():
    # with xi = damp*cos(x) held fixed, the band polynomial is
    # nonincreasing in lam = damp^2
    def band(xi, lam):
        return (-0.4 * xi**3 + (4.0 / 3.0) * xi**2 - (43.0 / 30.0) * xi
                + 0.3 * lam * xi - (2.0 / 3.0) * lam + 23.0 / 24.0)

    xi = np.linspace(-1.0, 1.0, 2001)
    assert np.all(band(xi, math.exp(-1.0)) >= band(xi, 1.0) - 1e-12)
    # consequence: the actual minimum over x does not drop under tempering
    _, m0 = trig_min(positivity_generating_function(6, sigma=0.0))
    _, m5 = trig_min(positivity_generating_function(6, sigma=0.5))
    assert m5 >= m0 - 1e-12


def test_trig_min_constant_and_grid_guard():
    c = TrigPolynomial((0.75,))
    _, v = trig_min(c)
    assert v == 0.75
    with pytest.raises(ParameterDomainError):
        trig_min(c, grid_size=512)


def test_trig_extrema_k3():
    f = positivity_generating_function(3)
    x_min, f_min = trig_min(f)
    assert abs(x_min) <= 1e-6 and abs(f_min) <= 1e-15
    x_max, f_max = trig_max(f)
    assert x_max == pytest.approx(math.pi, abs=1e-6)
    assert f_max == pytest.approx(1.0, rel=1e-12)


def test_toeplitz_band_layout():
    L = toeplitz_band(6, 0.0, 1.0, 5)
    assert L[0, 0] == pytest.approx(23.0 / 24.0)
    assert L[1, 0] == pytest.approx(-43.0 / 30.0)
    assert L[2, 0] == pytest.approx(2.0 / 3.0)
    assert L[3, 0] == pytest.approx(-1.0 / 10.0)
    assert L[4, 0] == 0.0
    assert np.all(np.triu(L, 1) == 0.0)


def test_toeplitz_two_by_two_eigenvalues():
    chk = toeplitz_eigencheck(3, 0.0, 1.0, 2)
    assert chk.lambda_min == pytest.approx(0.25, rel=1e-14)
    assert chk.lambda_max == pytest.approx(0.75, rel=1e-14)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_toeplitz_sandwich_and_k6_definiteness(k, st):
    for N in (10, 50):
        chk = toeplitz_eigencheck(k, st, 1.0, N)
        assert chk.sandwiched
        assert chk.lambda_min >= -1e-12
        if k == 6:
            assert chk.positive_definite


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_multiplier_energy_inequality(k, st):
    chk = multiplier_energy_check(k, sigma=st, tau=1.0, N=50, trials=200, seed=k)
    assert chk.verdict
    assert chk.min_slack >= -1e-10
    assert chk.witness is None


def test_multiplier_energy_vector_states():
    chk = multiplier_energy_check(5, N=30, trials=100, seed=3, dim=4)
    assert chk.verdict


def test_energy_check_rejects_low_order():
    with pytest.raises(ParameterDomainError):
        multiplier_energy_check(2)


# ---------------------------------------------------------------------------
# A-stability side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_argument_vanishes_at_pi(k):
    sweep = argument_sweep(k, 0.7, grid_size=1024)
    assert sweep.grid[-1] == pytest.approx(math.pi)
    assert abs(sweep.arg_values[-1]) <= 1e-12


def test_limit_at_zero_k3():
    sweep = argument_sweep(3, 0.5, grid_size=8192)
    assert sweep.limit_at_zero == pytest.approx(-math.pi / 4.0)
    # near the left end the traced argument approaches the recorded limit
    assert sweep.arg_values[0] == pytest.approx(sweep.limit_at_zero, abs=1e-3)


def test_limit_at_zero_tempered_is_zero():
    sweep = argument_sweep(4, 0.5, sigma=0.5, grid_size=1024)
    assert sweep.limit_at_zero == 0.0
    assert sweep.arg_values[0] == pytest.approx(0.0, abs=1e-2)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("alpha", (0.2, 0.5, 0.8, 1.0))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_argument_bound_spot_grid(k, alpha, st):
    sweep = argument_sweep(k, alpha, sigma=st, tau=1.0, grid_size=2048)
    assert sweep.max_abs_arg <= HALF_PI + 1e-9


def test_argument_sweep_continuity():
    sweep = argument_sweep(6, 1.0, grid_size=8192)
    assert np.max(np.abs(np.diff(sweep.arg_values))) < 0.05


def test_sweep_component_count():
    assert len(argument_sweep(3, 0.5, grid_size=1024).reciprocal_angles) == 1
    assert len(argument_sweep(5, 0.5, grid_size=1024).reciprocal_angles) == 1
    assert len(argument_sweep(6, 0.5, grid_size=1024).reciprocal_angles) == 3


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.05, 0.5))
def test_shared_sweep_angles_equal_a_fresh_evaluation(k, st):
    x = np.linspace(math.pi / 1024, math.pi, 1024)
    theta1, theta2, recip = _factored_angles(k, x, math.exp(-st))
    for alpha in (0.3, 0.7, 0.3):
        sweep = argument_sweep(k, alpha, sigma=st, tau=1.0, grid_size=1024)
        assert np.array_equal(sweep.grid, x)
        assert np.array_equal(sweep.theta1, theta1)
        assert np.array_equal(sweep.theta2, theta2)
        assert len(sweep.reciprocal_angles) == len(recip)
        for got, want in zip(sweep.reciprocal_angles, recip):
            assert np.array_equal(got, want)
        arg = alpha * theta1 + alpha * theta2 + sum(recip)
        assert np.array_equal(sweep.arg_values, arg)
        for a in (sweep.grid, sweep.arg_values, sweep.theta1, sweep.theta2,
                  *sweep.reciprocal_angles):
            assert not a.flags.writeable


def test_sweep_angle_memo_stays_bounded():
    bound = _sweep_angles.cache_info().maxsize
    assert bound >= 3                  # the three sigma*tau of the sweep check
    for k in (3, 4, 5, 6):
        for st in np.linspace(0.0, 1.0, 7):
            argument_sweep(k, 0.5, sigma=float(st), grid_size=64)
    assert _sweep_angles.cache_info().currsize == bound


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ParameterDomainError):
        argument_sweep(2, 0.5)
    with pytest.raises(ParameterDomainError):
        argument_sweep(3, 0.0)
    with pytest.raises(ParameterDomainError):
        argument_sweep(3, 0.5, grid_size=8)


@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("alpha", (0.3, 0.8))
def test_factored_q_matches_direct_evaluation(k, alpha):
    # away from x = 0 the principal-branch direct evaluation is safe
    x = np.linspace(2.0, math.pi, 64)
    z = np.exp(1j * x)
    poly = [complex(c) for c in bdf_polynomial(k)]
    delta = np.zeros_like(z)
    for c in reversed(poly):
        delta = delta * z + c
    mu_poly = multiplier_set(k).zeta_polynomial()
    mu_val = np.zeros_like(z)
    for c in reversed(mu_poly):
        mu_val = mu_val * z + c
    direct = np.exp(alpha * np.log(delta)) / mu_val
    factored = q_boundary_values(k, alpha, x)
    assert np.max(np.abs(direct - factored)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_real_part_nonnegative_on_circle(k):
    x = np.linspace(1e-6, math.pi, 4096)
    q = q_boundary_values(k, 0.5, x)
    assert np.min(q.real) >= -1e-12


# ---------------------------------------------------------------------------
# reference extremum constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_lower_bound_extrema_all_satisfied(k):
    report = lower_bound_extrema(k)
    assert report.all_satisfied
    for record in report.records:
        assert record.location_error() <= 5e-4
    assert report.angle_at_zero == pytest.approx(-HALF_PI, abs=1e-9)
    assert report.angle_at_pi == pytest.approx(0.0, abs=1e-9)


def test_bdf3_cubic_minimum_value():
    report = lower_bound_extrema(3)
    rec = {r.name: r for r in report.records}["slope-numerator minimum (k=3)"]
    y_star = (131.0 - math.sqrt(1981.0)) / 132.0
    assert rec.y == pytest.approx(y_star, abs=1e-12)
    assert rec.value > 2.02
    assert rec.value == pytest.approx(2.0255439, rel=1e-6)


def test_bdf6_thin_margins():
    report = lower_bound_extrema(6)
    recs = {r.name: r for r in report.records}
    delta_rec = recs["reciprocal angle maximum (k=6)"]
    assert delta_rec.value < 1.5 < HALF_PI
    band_rec = recs["band-minimum cubic (k=6)"]
    assert band_rec.value > 0.004785
    assert band_rec.margin < 1e-4   # the printed bound is genuinely tight


def test_composite_angle_monotone_structure_k3():
    # for k=3 the composite angle increases from -pi/2 at 0 to 0 at pi
    x = np.linspace(0.0, math.pi, 2048)
    g = composite_angle(3, x)
    assert np.all(np.diff(g) > 0.0)
    assert np.min(g) >= -HALF_PI - 1e-12


@pytest.mark.parametrize("k", (4, 5, 6))
def test_composite_angle_above_minus_half_pi(k):
    x = np.linspace(1e-8, math.pi, 8192)
    g = composite_angle(k, x)
    assert np.min(g) >= -HALF_PI - 1e-9


# ---------------------------------------------------------------------------
# quadratic form and combined report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 6))
@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75))
def test_quadratic_form_nonnegative(k, alpha):
    # independent route to the argument bound: the convolution quadratic
    # form must be nonnegative whenever |arg q| <= pi/2
    params = FracParams(alpha=alpha)
    table = bdf_g_coefficients(k, params, 99)
    q = q_coefficients(table, multiplier_set(k), 99)
    chk = quadrature_positivity_check(q, N=100, trials=200, seed=11)
    assert chk.verdict
    assert chk.witness is None
    assert argument_sweep(k, alpha, grid_size=2048).max_abs_arg <= HALF_PI + 1e-9


def test_quadratic_form_single_step_is_q0():
    params = FracParams(alpha=0.5)
    table = bdf_g_coefficients(3, params, 4)
    q = q_coefficients(table, multiplier_set(3), 4)
    chk = quadrature_positivity_check(q, N=1, trials=50, seed=5)
    assert chk.min_value >= 0.0    # q_0 ||v||^2 with q_0 = g_0 > 0


def test_quadratic_form_length_guard():
    params = FracParams(alpha=0.5)
    table = bdf_g_coefficients(3, params, 4)
    q = q_coefficients(table, multiplier_set(3), 4)
    with pytest.raises(ParameterDomainError):
        quadrature_positivity_check(q, N=10, trials=5)


def test_stability_report_roundtrip():
    rep = stability_report(6, alpha=0.9, matrix_sizes=(10, 50), grid_size=2048)
    assert rep.verdict
    payload = rep.to_dict()
    assert payload["verdict"] == "PASS"
    assert payload["property_p"]["positivity_polynomial_min"] > 0.0
    assert payload["property_a"]["max_abs_arg"] <= HALF_PI + 1e-9
    assert float(ENERGY_CONSTANTS[6]) == pytest.approx(1.0 / 24.0)

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbdf import (DenseSPDOperator, FractionalOperatorSpec, ParameterDomainError,
                     ScalarOperator, SingleTerm, SubdiffusionProblem,
                     TridiagonalLaplacian, convergence_harness, correction_weights,
                     exact_scalar_solution, problem_from_dict, scalar_problem,
                     stability_experiment, stability_refinement, step_solve,
                     verification)


def test_correction_tables_exact():
    assert correction_weights(1) == ()
    assert correction_weights(2) == (Fraction(1, 2),)
    assert correction_weights(3) == (Fraction(11, 12), Fraction(-5, 12))
    assert correction_weights(4) == (Fraction(31, 24), Fraction(-7, 6), Fraction(3, 8))
    assert correction_weights(5) == (Fraction(1181, 720), Fraction(-177, 80),
                                     Fraction(341, 240), Fraction(-251, 720))
    assert correction_weights(6) == (Fraction(2837, 1440), Fraction(-2543, 720),
                                     Fraction(17, 5), Fraction(-1201, 720),
                                     Fraction(95, 288))


# ---------------------------------------------------------------------------
# spatial operators
# ---------------------------------------------------------------------------

def test_tridiagonal_eigenvalues_closed_form():
    A = TridiagonalLaplacian(size=17, length=1.0)
    M = np.diag(np.full(17, 2.0)) + np.diag(np.full(16, -1.0), 1) \
        + np.diag(np.full(16, -1.0), -1)
    M /= A.h ** 2
    assert_allclose(np.sort(A.eigenvalues()), np.linalg.eigvalsh(M), rtol=1e-12)


def test_tridiagonal_matvec_and_solve():
    A = TridiagonalLaplacian(size=12)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(12)
    M = np.diag(np.full(12, 2.0 / A.h ** 2)) \
        + np.diag(np.full(11, -1.0 / A.h ** 2), 1) \
        + np.diag(np.full(11, -1.0 / A.h ** 2), -1)
    assert_allclose(A.matvec(v), M @ v, rtol=1e-13)
    shift = 3.7
    x = A.shifted_solver(shift)(v)
    assert_allclose((M + shift * np.eye(12)) @ x, v, rtol=1e-12)
    assert_allclose(M @ A.solve(v), v, rtol=1e-11)


def test_dense_spd_validation():
    with pytest.raises(ParameterDomainError):
        DenseSPDOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))     # not symmetric
    with pytest.raises(ParameterDomainError):
        DenseSPDOperator(np.array([[1.0, 0.0], [0.0, -2.0]]))    # not PD
    A = DenseSPDOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rhs = np.array([1.0, 0.0])
    assert_allclose(A.matvec(A.solve(rhs)), rhs, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("make", [
    lambda: ScalarOperator(2.5),
    lambda: TridiagonalLaplacian(9),
    lambda: DenseSPDOperator(np.array([[3.0, 1.0, 0.0],
                                       [1.0, 2.0, 0.5],
                                       [0.0, 0.5, 1.5]])),
])
def test_norm_identities(make):
    A = make()
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(A.dim)
        assert A.energy_norm(v) ** 2 == pytest.approx(float(np.dot(v, A.matvec(v))),
                                                      rel=1e-12)
        # Cauchy-Schwarz through the square root of the operator
        assert A.dual_norm(v) * A.energy_norm(v) >= float(np.dot(v, v)) - 1e-12


# ---------------------------------------------------------------------------
# the scheme
# ---------------------------------------------------------------------------

def test_zero_datum_stays_zero():
    res = step_solve(scalar_problem(1.0, 0.5, rho=0.0), 3, 16)
    assert np.all(res.u == 0.0)


def test_classical_backward_euler_recursion():
    lam, tau_n = 2.0, 10
    res = step_solve(scalar_problem(lam, 1.0), 1, tau_n)
    tau = 1.0 / tau_n
    expected = [(1.0 / (1.0 + tau * lam)) ** n for n in range(tau_n + 1)]
    assert_allclose(res.u[:, 0], expected, rtol=1e-13)


def test_classical_bdf2_recursion_after_start():
    # at alpha = 1 the history telescopes to the classical 3-term recursion;
    # seed the reference with the scheme's own first step
    lam, N = 1.5, 12
    res = step_solve(scalar_problem(lam, 1.0), 2, N)
    tau = 1.0 / N
    u = [1.0, float(res.u[1, 0])]
    for _ in range(2, N + 1):
        u.append((2.0 * u[-1] - 0.5 * u[-2]) / (1.5 + tau * lam))
    assert_allclose(res.u[:, 0], u, rtol=1e-12)


def test_w_u_consistency_and_residuals():
    prob = scalar_problem(1.0, 0.4, sigma=0.7)
    res = step_solve(prob, 4, 32)
    decay = np.exp(-0.7 * res.times)
    assert np.max(np.abs(res.u[:, 0] - decay - res.w[:, 0])) <= 1e-13
    assert np.max(res.residuals) <= 1e-12


def test_direct_form_equivalence():
    # march u directly (history on u - decaying layer) and compare
    lam, alpha, sigma, N, k = 1.3, 0.6, 0.5, 24, 3
    prob = scalar_problem(lam, alpha, sigma=sigma)
    res = step_solve(prob, k, N)

    from fracbdf import discretize
    tau = 1.0 / N
    op = discretize(prob.time_op, k, tau, N)
    g = op.tables[0].g
    scale = op.scales[0]
    acorr = [float(a) for a in correction_weights(k)]
    u = [1.0]
    for n in range(1, N + 1):
        hist = scale * sum(g[j] * (u[n - j] - math.exp(-sigma * (n - j) * tau))
                           for j in range(1, n + 1))
        a_n = acorr[n - 1] if n <= k - 1 else 0.0
        rhs = -math.exp(-sigma * n * tau) * a_n * lam \
            + scale * g[0] * math.exp(-sigma * n * tau) - hist
        u.append(rhs / (scale * g[0] + lam))
    assert_allclose(res.u[:, 0], u, atol=1e-13)


def test_scheme_requires_enough_steps():
    with pytest.raises(ParameterDomainError):
        step_solve(scalar_problem(1.0, 0.5), 4, 3)


def test_supplied_operator_must_match():
    from fracbdf import discretize
    prob = scalar_problem(1.0, 0.5)
    op = discretize(prob.time_op, 3, 1.0 / 16, 16)
    step_solve(prob, 3, 16, op=op)
    with pytest.raises(ParameterDomainError):
        step_solve(prob, 3, 8, op=op)


def test_scalar_exact_solution_cases():
    assert exact_scalar_solution(1.0, 0.5, 0.0, 2.0, 0.0) == 2.0
    t = 0.7
    assert exact_scalar_solution(1.0, 1.0, 1.0, 1.0, t) == pytest.approx(
        math.exp(-2.0 * t), rel=1e-12)
    from fracbdf import mittag_leffler
    assert exact_scalar_solution(2.0, 0.5, 0.0, 1.0, t) == pytest.approx(
        mittag_leffler(0.5, -2.0 * t ** 0.5), rel=1e-12)


def test_terminal_approaches_exact():
    prob = scalar_problem(1.0, 0.5)
    exact = exact_scalar_solution(1.0, 0.5, 0.0, 1.0, 1.0)
    err = [abs(float(step_solve(prob, 1, N).terminal[0]) - exact)
           for N in (64, 128, 256)]
    assert err[0] > err[1] > err[2]
    assert math.log2(err[1] / err[2]) == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("k", (2, 3))
def test_convergence_orders_fast(k):
    rep = convergence_harness(k, 0.5, 0.0, 1.0, (32, 64, 128))
    assert rep.observed_order == pytest.approx(k, abs=0.35)
    rep_un = convergence_harness(k, 0.5, 0.0, 1.0, (32, 64, 128), corrected=False)
    assert rep_un.observed_order == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("k, sigma, corrected", [(1, 0.0, True), (3, 1.0, True),
                                                  (4, 0.5, False), (6, 2.0, True)])
def test_harness_weights_per_path_match_fresh_solves(k, sigma, corrected):
    # one weight build per refinement path gives the errors of one fresh
    # discretize per grid, bitwise
    N_list = (16, 40, 96)
    rep = convergence_harness(k, 0.4, sigma, 3.0, N_list, corrected=corrected, T=1.5)
    prob = scalar_problem(3.0, 0.4, sigma, T=1.5)
    exact = exact_scalar_solution(3.0, 0.4, sigma, 1.0, 1.5)
    assert rep.errors == tuple(
        abs(float(step_solve(prob, k, N, corrected=corrected).terminal[0]) - exact)
        for N in N_list)


def test_convergence_orders_are_pinned():
    # the 66 observed orders of the verify-paper check, stored from the
    # step-by-step twin history and per-grid weight builds
    with open(Path(__file__).parent / "data" / "convergence_orders.json") as fh:
        stored = json.load(fh)
    assert verification.check_convergence_orders().details["orders"] == stored


def test_k1_has_no_correction_to_toggle():
    on = convergence_harness(1, 0.5, 0.0, 1.0, (32, 64))
    off = convergence_harness(1, 0.5, 0.0, 1.0, (32, 64), corrected=False)
    assert on.errors == off.errors


def test_distributed_order_quadrature_refinement():
    # doubling the node count settles the terminal value (monitored decay,
    # no fixed constant asserted)
    from fracbdf import DistributedOrder, QuadratureRule
    sols = []
    for nodes in (4, 8, 16):
        spec = FractionalOperatorSpec(DistributedOrder(
            weight=lambda a: 1.0, quadrature=QuadratureRule.gauss_legendre(nodes)))
        prob = SubdiffusionProblem(A=ScalarOperator(1.0), rho=np.array([1.0]),
                                   T=1.0, time_op=spec)
        sols.append(float(step_solve(prob, 3, 32).terminal[0]))
    d_coarse = abs(sols[1] - sols[0])
    d_fine = abs(sols[2] - sols[1])
    assert d_fine < d_coarse


def test_convergence_harness_validation():
    with pytest.raises(ParameterDomainError):
        convergence_harness(2, 0.5, 0.0, 1.0, (64,))
    with pytest.raises(ParameterDomainError):
        convergence_harness(2, 0.5, 0.0, 1.0, (64, 64))


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------

def _tridiag_problem(size=16, alpha=0.5):
    A = TridiagonalLaplacian(size=size)
    rho = np.sin(math.pi * A.grid())
    return SubdiffusionProblem(A=A, rho=rho, T=1.0,
                               time_op=FractionalOperatorSpec(SingleTerm(alpha)))


def test_scheme_linearity_of_differences():
    prob = _tridiag_problem()
    rng = np.random.default_rng(9)
    eps0 = rng.standard_normal(prob.A.dim)
    base = step_solve(prob, 3, 12)
    pert = step_solve(dataclasses.replace(prob, rho=prob.rho + eps0), 3, 12)
    direct = step_solve(dataclasses.replace(prob, rho=eps0), 3, 12)
    assert np.max(np.abs((pert.u - base.u) - direct.u)) <= 1e-12 * np.abs(direct.u).max()


def test_stability_experiment_ratios():
    prob = _tridiag_problem()
    rec = stability_experiment(prob, 4, 16, perturbations=4, seed=2)
    assert len(rec.ratios_sq) == 4
    assert all(r > 0.0 for r in rec.ratios_sq)
    assert all(r > 0.0 for r in rec.ratios_lin)
    assert rec.max_sq < 50.0 and rec.max_lin < 50.0


def test_stability_refinement_bounded():
    prob = _tridiag_problem()
    rep = stability_refinement(prob, 6, (16, 32, 64), perturbations=3, seed=5)
    assert rep.bounded


def test_problem_validation():
    A = TridiagonalLaplacian(4)
    with pytest.raises(ParameterDomainError):
        SubdiffusionProblem(A=A, rho=np.zeros(3), T=1.0,
                            time_op=FractionalOperatorSpec(SingleTerm(0.5)))
    with pytest.raises(ParameterDomainError):
        SubdiffusionProblem(A=A, rho=np.zeros(4), T=0.0,
                            time_op=FractionalOperatorSpec(SingleTerm(0.5)))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_problem_from_dict_scalar():
    prob = problem_from_dict({
        "operator": {"variant": "single_term", "alpha": 0.5, "sigma": 1.0},
        "spatial": {"variant": "scalar", "value": 2.0},
        "rho": 1.5, "T": 2.0})
    assert prob.A.value == 2.0
    assert prob.sigma == 1.0
    assert prob.rho.tolist() == [1.5]


def test_problem_from_dict_sin_profile():
    prob = problem_from_dict({
        "operator": {"variant": "multi_term", "terms": [[1.0, 0.7], [0.5, 0.2]]},
        "spatial": {"variant": "tridiagonal", "size": 8, "length": 1.0},
        "rho": {"profile": "sin"}, "T": 1.0})
    assert prob.rho.shape == (8,)
    assert prob.rho[0] == pytest.approx(math.sin(math.pi / 9.0))


def test_problem_from_dict_dense():
    prob = problem_from_dict({
        "operator": {"variant": "single_term", "alpha": 0.5},
        "spatial": {"variant": "dense_spd", "matrix": [[2.0, 0.5], [0.5, 1.0]]},
        "rho": [1.0, -1.0], "T": 1.0})
    assert prob.A.dim == 2


def test_problem_from_dict_rejects_unknown_keys():
    with pytest.raises(ParameterDomainError):
        problem_from_dict({
            "operator": {"variant": "single_term", "alpha": 0.5},
            "spatial": {"variant": "scalar", "value": 1.0},
            "rho": 1.0, "T": 1.0, "extra": 1})
    with pytest.raises(ParameterDomainError):
        problem_from_dict({
            "operator": {"variant": "single_term", "alpha": 0.5},
            "spatial": {"variant": "scalar", "value": 1.0, "size": 4},
            "rho": 1.0, "T": 1.0})
    with pytest.raises(ParameterDomainError):
        problem_from_dict({"spatial": {"variant": "scalar", "value": 1.0},
                           "rho": 1.0, "T": 1.0})

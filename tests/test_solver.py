import dataclasses
import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracbdf import (DenseSPDOperator, FracParams, FractionalOperatorSpec,
                     ParameterDomainError, ScalarOperator, SingleTerm, SubdiffusionProblem,
                     TridiagonalLaplacian, argument_sweep, bdf_g_coefficients, bdf_polynomial,
                     convergence_harness, correction_weights, exact_scalar_solution,
                     multiplier_set, problem_from_dict, q_coefficients, reciprocal_series,
                     scalar_problem, stability_experiment, stability_refinement, step_solve,
                     verification)
from fracbdf.operators import DiscreteTimeOperator


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


def _in_powers_of_w(zeta_coeffs):
    """Coefficients, ascending, of sum_n c_n zeta^n rewritten in w = 1 - zeta."""
    out = [Fraction(0)] * len(zeta_coeffs)
    for n, c in enumerate(zeta_coeffs):
        for i in range(n + 1):
            out[i] += c * math.comb(n, i) * (-1) ** i
    return out


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _order_defect(k, a):
    """delta_k(zeta) * d_k(zeta) - 1 in powers of w = 1 - zeta, with
    d_k = zeta/(1 - zeta) + sum_n a_n zeta^n, n = 1..k-1."""
    delta = _in_powers_of_w(bdf_polynomial(k))            # delta_k(1) = 0: no w^0 term
    assert delta[0] == 0
    out = _poly_mul(delta[1:], [Fraction(1), Fraction(-1)])   # delta_k * zeta / w
    for n, an in enumerate(a, start=1):
        term = _poly_mul(delta, _in_powers_of_w([0] * n + [an]))
        out += [Fraction(0)] * (len(term) - len(out))
        for i, c in enumerate(term):
            out[i] += c
    out[0] -= 1
    return out


#: Leading coefficient of (1 - zeta)^k in delta_k * d_k - 1, k = 1..6.
_ORDER_REMAINDERS = (Fraction(-1), Fraction(-3, 4), Fraction(-5, 8), Fraction(-79, 144),
                     Fraction(-143, 288), Fraction(-3961, 8640))


@pytest.mark.parametrize("k", range(1, 7))
def test_corrections_follow_from_the_order_condition(k):
    # delta_k * d_k = 1 + O((1 - zeta)^k) (Jin, Li and Zhou, SIAM J. Sci.
    # Comput. 39, 2017) fixes a_1..a_(k-1): the w^1..w^(k-1) coefficients of
    # the defect are linear in them.  Solve that system exactly and compare
    # with the table, then check the defect and its leading remainder.
    unit = [tuple(Fraction(int(i == n)) for i in range(k - 1)) for n in range(k - 1)]
    free = _order_defect(k, [Fraction(0)] * (k - 1))
    rows = [[_order_defect(k, e)[i] - free[i] for e in unit] + [-free[i]]
            for i in range(1, k)]
    for col in range(k - 1):                       # Gauss-Jordan on rationals
        piv = next(r for r in range(col, k - 1) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k - 1):
            if r != col and rows[r][col] != 0:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    assert tuple(row[-1] for row in rows) == correction_weights(k)
    defect = _order_defect(k, correction_weights(k))
    assert defect[:k] == [0] * k
    assert defect[k] == _ORDER_REMAINDERS[k - 1]
    for n in range(k - 1):                         # any slip breaks the condition
        nudged = list(correction_weights(k))
        nudged[n] += Fraction(1, 1000)
        assert _order_defect(k, nudged)[:k] != [0] * k, n


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


def test_dense_spd_validation():
    with pytest.raises(ParameterDomainError):
        DenseSPDOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))     # not symmetric
    with pytest.raises(ParameterDomainError):
        DenseSPDOperator(np.array([[1.0, 0.0], [0.0, -2.0]]))    # not PD
    A = DenseSPDOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rhs = np.array([1.0, 0.0])
    assert_allclose(A.matvec(A.shifted_solver(0.0)(rhs)), rhs, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), (1.0 + 1.0j) * np.eye(3)],
                         ids=["empty", "complex"])
def test_dense_spd_refuses_empty_and_complex_matrices(matrix):
    with pytest.raises(ParameterDomainError):
        DenseSPDOperator(matrix)


def test_dense_spd_holds_a_private_read_only_matrix():
    """Editing the caller's array after construction reaches neither the
    operator's matrix nor its solves, and the held matrices refuse writes."""
    M = 2.0 * np.eye(4)
    A = DenseSPDOperator(M)
    M[0, 0] = 50.0
    assert A.matrix[0, 0] == 2.0
    spec = FractionalOperatorSpec(SingleTerm(0.5))
    res = step_solve(SubdiffusionProblem(A=A, rho=np.ones(4), T=1.0, time_op=spec), 3, 32)
    assert res.residuals.max() <= 1e-13
    for held in (A.matrix, ScalarOperator(2.0).matrix):
        with pytest.raises(ValueError):
            held[0, 0] = 3.0


def test_scalar_operator_is_the_one_by_one_dense_operator():
    """The scalar operator is a 1 x 1 DenseSPDOperator whose shifted solve
    is bitwise b / (shift + value), for 1-D and 2-D b and in place."""
    value, shift = 2.3, 0.7
    A = ScalarOperator(value)
    assert isinstance(A, DenseSPDOperator) and A.dim == 1
    solve = A.shifted_solver(shift)
    rng = np.random.default_rng(3)
    for b in (rng.standard_normal(1), rng.standard_normal((1, 257))):
        expected = b / (shift + value)
        assert solve(b).tobytes() == expected.tobytes()
        assert solve(b, out=b) is b
        assert b.tobytes() == expected.tobytes()


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


# ---------------------------------------------------------------------------
# the scheme
# ---------------------------------------------------------------------------

_SHARED_OPERATOR = DenseSPDOperator(2.0 * np.eye(2))


def _table():
    return bdf_g_coefficients(3, FracParams(0.5), 4)


def _problem():
    return SubdiffusionProblem(_SHARED_OPERATOR, [1.0, 2.0], 1.0,
                               FractionalOperatorSpec(SingleTerm(0.5)))


#: Two calls of each factory give equal-valued records with array fields.
_ARRAY_RECORDS = {
    "CoefficientTable": _table,
    "QTable": lambda: q_coefficients(_table(), multiplier_set(3), 4),
    "ReciprocalSeries": lambda: reciprocal_series(3, FracParams(0.5), 8),
    "SolveResult": lambda: step_solve(_problem(), 3, 8),
    "ArgumentSweep": lambda: argument_sweep(3, 0.5, grid_size=16),
    "SubdiffusionProblem": _problem,
    "DiscreteTimeOperator": lambda: DiscreteTimeOperator(3, 0.25, 0.0, (1.0,), (_table(),)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # == on two records with array fields is a bool, not numpy's
    # "truth value of an array is ambiguous" error
    a, b = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and (a == a) is True and (a != b) is True


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
    # w is derived from u on access: not a field, and read-only
    assert "w" not in {f.name for f in dataclasses.fields(res)}
    assert not res.w.flags.writeable
    with pytest.raises(AttributeError):
        res.w = res.u
    rho = np.linspace(1.0, 2.0, 6)
    spec = FractionalOperatorSpec(SingleTerm(0.4), 0.7)
    res = step_solve(SubdiffusionProblem(TridiagonalLaplacian(6), rho, 1.0, spec), 3, 32)
    assert np.array_equal(res.u[0], rho)
    assert np.max(np.abs(res.u - np.outer(np.exp(-0.7 * res.times), rho) - res.w)) <= 1e-13


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
    # factored weight kernel; the float64 k = 4 corrected errors at N = 512
    # sit near 1.7e-12, so the last digits of those orders are roundoff
    with open(Path(__file__).parent / "data" / "convergence_orders.json") as fh:
        stored = json.load(fh)
    assert verification.check_convergence_orders().details["orders"] == stored


def test_twin_march_leaves_no_cyclic_garbage():
    # each twin march frees its histories and packed weights on return, not
    # at the next cyclic collection
    convergence_harness(5, 0.5, 0.0, 1.0, (16, 32, 64), precision=30)
    gc.collect()
    gc.disable()
    try:
        convergence_harness(5, 0.5, 1.0, 1.0, (16, 32, 64), precision=30)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("sigma, lam", ((0.0, 1e10), (800.0, 1.0)))
def test_convergence_harness_refuses_the_roundoff_floor(sigma, lam):
    # u^N = e^(-sigma T) rho + w^N cancels to ~eps * e^(-sigma T) |rho|
    with pytest.raises(ParameterDomainError, match="roundoff floor"):
        convergence_harness(3, 0.5, sigma, lam, (64, 128))


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


_finite = st.floats(0.1, 4.0)


@st.composite
def problem_configs(draw):
    """A valid problem config; counts (size, nodes) stay at most 64."""
    spatial = draw(st.sampled_from(("scalar", "tridiagonal", "dense_spd")))
    if spatial == "scalar":
        space, dim = {"variant": "scalar", "value": draw(_finite)}, 1
    elif spatial == "tridiagonal":
        dim = draw(st.integers(1, 64))
        space = {"variant": "tridiagonal", "size": dim, "length": draw(_finite)}
    else:
        diag = draw(st.lists(_finite, min_size=1, max_size=4))
        dim = len(diag)
        space = {"variant": "dense_spd",
                 "matrix": [[d if i == j else 0.0 for j in range(dim)]
                            for i, d in enumerate(diag)]}
    if spatial == "tridiagonal" and draw(st.booleans()):
        rho = {"profile": "sin", "amplitude": draw(_finite)}
    else:
        rho = draw(st.lists(_finite, min_size=dim, max_size=dim))
    sigma = draw(st.floats(0.0, 2.0))
    terms = [[draw(_finite), a] for a in sorted(
        draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True)),
        reverse=True)]
    operator = draw(st.sampled_from((
        {"variant": "single_term", "alpha": draw(st.floats(0.05, 1.0)), "sigma": sigma},
        {"variant": "multi_term", "terms": terms, "sigma": sigma},
        {"variant": "distributed_order", "weight": "power",
         "weight_params": {"p": draw(_finite), "c": draw(_finite)},
         "nodes": draw(st.integers(1, 64)), "sigma": sigma},
        {"variant": "distributed_order", "weight": "dirac_comb",
         "weight_params": {"terms": terms}, "sigma": sigma},
    )))
    return {"operator": operator, "spatial": space, "rho": rho, "T": draw(_finite)}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _dict_paths(node, path=()):
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _dict_paths(value, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


#: Replacement leaves: each is valid JSON (nan and inf as json writes them).
_BAD_LEAVES = ("x", None, [1.0], True, False, math.nan, math.inf, -math.inf,
               10 ** 400, -10 ** 400)


@st.composite
def mutated_configs(draw):
    """A valid config with one leaf replaced, one key dropped or one added."""
    config = draw(problem_configs())
    kind = draw(st.sampled_from(("replace", "drop", "add")))
    if kind == "replace":
        *parent, last = draw(st.sampled_from(list(_leaf_paths(config))))
        _at(config, parent)[last] = draw(st.sampled_from(_BAD_LEAVES))
    else:
        target = _at(config, draw(st.sampled_from(list(_dict_paths(config)))))
        if kind == "drop":
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            target["unknown"] = 1.0
    return config


_VALID = {"operator": {"variant": "single_term", "alpha": 0.5, "sigma": 0.0},
          "spatial": {"variant": "tridiagonal", "size": 4, "length": 1.0},
          "rho": {"profile": "sin", "amplitude": 1.0}, "T": 1.0}


def _with(path, value):
    config = json.loads(json.dumps(_VALID))
    *parent, last = path
    _at(config, parent)[last] = value
    return config


@settings(max_examples=300, deadline=None)
@given(config=mutated_configs())
@example(config=_with(("T",), 10 ** 400))
@example(config=_with(("spatial", "length"), 10 ** 400))
@example(config=_with(("rho", "amplitude"), 10 ** 400))
@example(config=_with(("operator", "sigma"), 10 ** 400))
def test_problem_from_dict_returns_a_problem_or_parameter_domain_error(config):
    # the config goes through JSON, as the CLI reads it
    config = json.loads(json.dumps(config))
    try:
        problem = problem_from_dict(config)
    except ParameterDomainError as exc:
        assert "np.float64" not in str(exc)
        return
    assert isinstance(problem, SubdiffusionProblem)

"""Fast paths against the plain paths they replace, and the residual gate.

* the shared refinement path of the convergence check against independent
  runs (one plain step_solve per grid, and per-grid twin errors);
* the blocked residuals against the per-trial loop (kept here verbatim);
* the LDL^T tridiagonal solve against banded Cholesky;
* the residual bound, tripped by a corrupted march;
* input validation of the perturbation experiment;
* the inverse-iteration witness of a large failing band;
* the stiff-mode series route of the reciprocal basis against a 34-digit
  triangular solve and against Newton doubling;
* the factored march against the per-mode march (kept here verbatim).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cho_solve_banded, cholesky_banded

from fracbdf import (DenseSPDOperator, FractionalOperatorSpec, InternalConsistencyError,
                     MultiTerm, ParameterDomainError, ScalarOperator, SingleTerm,
                     SubdiffusionProblem, TridiagonalLaplacian, bdf_l_coefficients,
                     convergence_harness, discretize, multiplier_energy_check,
                     positivity_generating_function, scalar_problem, stability,
                     stability_experiment, stability_refinement, step_solve, solver)
from fracbdf.cli import main
from fracbdf.highprec import terminal_error_mp
from fracbdf.solver import _BLOCK, _path_reports, _untempered_march
from fracbdf.special import exact_scalar_solution


# ---------------------------------------------------------------------------
# shared refinement path
# ---------------------------------------------------------------------------

def reference_float_errors(k, alpha, sigma, lam, N_list, corrected, rho=1.0, T=1.0):
    """Terminal errors of one plain step_solve per grid."""
    problem = scalar_problem(lam, alpha, sigma, rho, T)
    exact = exact_scalar_solution(lam, alpha, sigma, rho, T)
    return [abs(float(step_solve(problem, k, N, corrected=corrected).terminal[0]) - exact)
            for N in N_list]


SIGMAS = (0.0, 0.5, 2.0)
VARIANTS = tuple((sigma, corrected) for corrected in (True, False) for sigma in SIGMAS)


@pytest.mark.parametrize("k", range(1, 7))
def test_shared_float_path_is_bitwise_independent_runs(k):
    N_list = (16, 32, 64)
    reports = _path_reports(k, 0.6, 1.7, N_list, VARIANTS)
    for (sigma, corrected), rep in zip(VARIANTS, reports):
        assert (rep.sigma, rep.corrected, rep.precision) == (sigma, corrected, None)
        assert list(rep.errors) == reference_float_errors(k, 0.6, sigma, 1.7, N_list,
                                                          corrected)
        alone = convergence_harness(k, 0.6, sigma, 1.7, N_list, corrected=corrected)
        assert alone == rep
        assert 0.0 < rep.max_residual < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_shared_twin_path_is_bitwise_independent_runs(k):
    N_list = (8, 16)
    reports = _path_reports(k, 0.6, 1.7, N_list, VARIANTS, precision=30)
    for (sigma, corrected), rep in zip(VARIANTS, reports):
        assert rep.precision == 30 and rep.max_residual is None
        assert list(rep.errors) == [terminal_error_mp(k, 0.6, sigma, 1.7, 1.0, 1.0, N,
                                                      corrected, 30) for N in N_list]
        assert convergence_harness(k, 0.6, sigma, 1.7, N_list, corrected=corrected,
                                   precision=30) == rep


def test_shared_path_validates_like_the_harness():
    with pytest.raises(ParameterDomainError):
        _path_reports(3, 0.5, 1.0, (8, 16), ((0.0, True), (-1.0, True)))
    for precision in (None, 30):                                # N < k
        with pytest.raises(ParameterDomainError, match="need N >= k"):
            _path_reports(3, 0.5, 1.0, (2, 4), ((0.0, True),), precision=precision)
    with pytest.raises(ParameterDomainError):
        _path_reports(3, 0.5, 1.0, (16, 8), ((0.0, True),))


# ---------------------------------------------------------------------------
# blocked residuals
# ---------------------------------------------------------------------------

def reference_residuals(A, S, w, d, Arho):
    """The per-datum residual kernel before blocking (w is (N+1, dim))."""
    M, dim = w.shape
    nfft = next_fast_len(2 * M - 1, real=True)
    S_hat = rfft(S, nfft)[:, None]
    hist = np.empty_like(w)
    cols = max(1, _BLOCK // nfft)
    for c in range(0, dim, cols):
        conv = irfft(rfft(w[:, c:c + cols], nfft, axis=0) * S_hat, nfft, axis=0)
        hist[:, c:c + cols] = conv[:M] - S[0] * w[:, c:c + cols]
    out = np.zeros(M)
    rows = max(1, _BLOCK // dim)
    for r in range(1, M, rows):
        wb = w[r:r + rows]
        rhs = -d[r:r + rows, None] * Arho - hist[r:r + rows]
        res = S[0] * wb + A.matvec(wb.T).T - rhs
        out[r:r + rows] = (np.linalg.norm(res, axis=1)
                           / np.maximum(np.linalg.norm(rhs, axis=1), 1e-300))
    return out


# With dim 64 the trials go in groups of up to 12 (N = 40), 3 (N = 169)
# and 1 (N = 300).
@pytest.mark.parametrize("N", (40, 169, 300))
@pytest.mark.parametrize("trials", (1, 3, 10))
def test_blocked_residuals_match_per_trial_loop(trials, N):
    A = TridiagonalLaplacian(64)
    k = 4
    spec = FractionalOperatorSpec(SingleTerm(0.5), sigma=0.3)
    S = solver.discretize(spec, k, 1.0 / N, N).untempered_weights
    corrections = [float(a) for a in solver.correction_weights(k)]
    rho = np.random.default_rng(trials).standard_normal((trials, A.dim))
    w, residuals = _untempered_march(A, S, rho, corrections)
    d = np.ones(N + 1)
    d[0] = 0.0
    d[1:k] += corrections
    Arho = A.matvec(rho.T).T
    ref = np.stack([reference_residuals(A, S, w[:, b], d, Arho[b]) for b in range(trials)],
                   axis=1)
    assert residuals.shape == (N + 1, trials)
    assert np.all(residuals[0] == 0.0) and np.all(residuals[1:] > 0.0)
    np.testing.assert_allclose(residuals, ref, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# LDL^T tridiagonal solve
# ---------------------------------------------------------------------------

def _cholesky_reference(A, shift, rhs):
    band = np.empty((2, A.size))
    band[0] = -1.0 / A.h ** 2
    band[1] = 2.0 / A.h ** 2 + shift
    return cho_solve_banded((cholesky_banded(band), False), rhs)


@pytest.mark.parametrize("nrhs", (None, 1, 37))
@pytest.mark.parametrize("size", (1, 2, 3, 64, 2048))
def test_ldlt_solver_matches_banded_cholesky(size, nrhs):
    A = TridiagonalLaplacian(size, length=1.3)
    shift = 17.0
    rng = np.random.default_rng(size)
    b = rng.standard_normal(size if nrhs is None else (size, nrhs))
    x = A.shifted_solver(shift)(b)
    assert x.shape == b.shape
    ref = _cholesky_reference(A, shift, b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    # normwise backward error |r| / (|A + shift I| |x| + |b|); at size 2048
    # |A| is 1e7 and |r| / |b| reaches ~1e-12 for Cholesky as well
    cols, rhs = x.reshape(size, -1), b.reshape(size, -1)
    res = shift * cols + A.matvec(cols) - rhs
    norm_A = 4.0 / A.h ** 2 + shift
    assert np.all(np.linalg.norm(res, axis=0)
                  <= 1e-13 * (norm_A * np.linalg.norm(cols, axis=0)
                              + np.linalg.norm(rhs, axis=0)))


def test_ldlt_solver_leaves_rhs_untouched():
    A = TridiagonalLaplacian(8)
    b = np.arange(16.0).reshape(8, 2)
    A.shifted_solver(1.0)(b)
    assert np.array_equal(b, np.arange(16.0).reshape(8, 2))


# ---------------------------------------------------------------------------
# residual gate
# ---------------------------------------------------------------------------

def _corrupt_march_rhs(monkeypatch, step, trial, component):
    """Make the march scale one entry of its physical right-hand sides by 1.01."""
    original = solver._march_rhs

    def corrupted(*args):
        out = original(*args)
        out[step, trial, component] *= 1.01
        return out

    monkeypatch.setattr(solver, "_march_rhs", corrupted)


def _laplacian_problem(dim=16):
    A = TridiagonalLaplacian(dim)
    return SubdiffusionProblem(A=A, rho=np.sin(math.pi * A.grid()), T=1.0,
                               time_op=FractionalOperatorSpec(SingleTerm(0.5)))


def test_residual_bound_is_documented():
    assert solver.RESIDUAL_BOUND == 1e-8
    assert "RESIDUAL_BOUND" in solver.__doc__


def test_corrupted_march_trips_the_residual_gate(monkeypatch):
    problem = _laplacian_problem()
    assert step_solve(problem, 3, 40).residuals.max() < solver.RESIDUAL_BOUND
    _corrupt_march_rhs(monkeypatch, step=7, trial=0, component=0)
    with pytest.raises(InternalConsistencyError, match=r"step 7 of trial 0"):
        step_solve(problem, 3, 40)


def test_corrupted_perturbation_march_names_the_trial(monkeypatch):
    problem = _laplacian_problem()
    _corrupt_march_rhs(monkeypatch, step=12, trial=2, component=3)
    with pytest.raises(InternalConsistencyError, match=r"step 12 of trial 2"):
        stability_experiment(problem, 4, 32, perturbations=4)


def _write_config(tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "single_term", "alpha": 0.5},
        "spatial": {"variant": "tridiagonal", "size": 16},
        "rho": {"profile": "sin"}, "T": 1.0}))
    return str(cfg)


def test_cli_reports_a_tripped_gate_as_json(monkeypatch, capsys, tmp_path):
    _corrupt_march_rhs(monkeypatch, step=5, trial=0, component=0)
    code = main(["solve", "--config", _write_config(tmp_path), "--k", "3", "--n", "20"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "error" and "step 5 of trial 0" in payload["error"]


def test_overflowing_weights_are_bad_input():
    # b * tau^(-alpha) = 1e308 * 8^0.5 overflows to inf
    problem = SubdiffusionProblem(A=ScalarOperator(1.0), rho=[1.0], T=1.0,
                                  time_op=FractionalOperatorSpec(MultiTerm(((1e308, 0.5),))))
    with pytest.raises(ParameterDomainError, match="must be finite"):
        step_solve(problem, 2, 8)
    with pytest.raises(ParameterDomainError, match="must be finite"):
        stability_experiment(problem, 2, 8, perturbations=2)


def test_perturbation_records_carry_max_residual():
    rep = stability_refinement(_laplacian_problem(), 5, (16, 32), perturbations=3)
    for record in rep.records:
        assert 0.0 < record.max_residual < 1e-12
    assert rep.max_residual == max(r.max_residual for r in rep.records)


# ---------------------------------------------------------------------------
# perturbation-experiment input validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", ({"perturbations": 0}, {"perturbations": -2},
                                    {"perturbations": 2.0}, {"perturbations": True},
                                    {"perturbations": None}, {"perturbations": "3"},
                                    {"seed": None}, {"seed": "1"},
                                    {"seed": -1}, {"seed": 1.5}, {"seed": True}))
def test_stability_experiment_rejects_bad_inputs(kwargs):
    with pytest.raises(ParameterDomainError):
        stability_experiment(_laplacian_problem(), 3, 16, **kwargs)


@pytest.mark.parametrize("N_list", ((64,), (64, 32), (32, 32), ()))
def test_stability_refinement_rejects_bad_paths(N_list):
    with pytest.raises(ParameterDomainError, match="strictly increasing"):
        stability_refinement(_laplacian_problem(), 3, N_list)


@pytest.mark.parametrize("extra", (("--trials", "0"), ("--trials", "-2"),
                                   ("--n-list", "64"), ("--n-list", "64,32")))
def test_cli_stability_rejects_bad_inputs(capsys, tmp_path, extra):
    code = main(["stability", "--config", _write_config(tmp_path), "--k", "3", *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "error" and "must be" in payload["error"]


def test_cli_stability_reports_max_residual(capsys, tmp_path):
    code = main(["stability", "--config", _write_config(tmp_path), "--k", "3",
                 "--trials", "2", "--n-list", "16,32"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["max_residual"]) == 2 and max(payload["max_residual"]) < 1e-12


# ---------------------------------------------------------------------------
# witness of a large failing band
# ---------------------------------------------------------------------------

def test_large_failing_band_witness_by_inverse_iteration(monkeypatch):
    monkeypatch.setitem(stability.ENERGY_CONSTANTS, 6, Fraction(9, 10))
    N = 4000
    t0 = time.perf_counter()
    chk = multiplier_energy_check(6, N=N)
    elapsed = time.perf_counter() - t0
    assert not chk.verdict and elapsed < 2.0
    w = chk.witness
    assert w.shape == (N,)
    # Rayleigh quotient of the symmetric band section, without an N x N matrix
    t = positivity_generating_function(6).coeffs
    Hw = t[0] * w
    for j, c in enumerate(t[1:], start=1):
        Hw[j:] += c / 2.0 * w[:-j]
        Hw[:-j] += c / 2.0 * w[j:]
    rayleigh = (w @ Hw) / (w @ w)
    assert abs(rayleigh - chk.min_slack / N) <= 1e-12


# ---------------------------------------------------------------------------
# twin packing
# ---------------------------------------------------------------------------

def test_memoized_kronecker_products_match_fresh_ones():
    from fracbdf.highprec import _product_slots
    rng = np.random.default_rng(5)
    g = [int(x) << 150 for x in rng.integers(-2 ** 40, 2 ** 40, 64)]
    memo = {}
    for length, scale in ((8, 1), (8, 2 ** 90), (16, 3), (8, 1), (32, -7)):
        a = [int(x) * scale for x in rng.integers(-2 ** 50, 2 ** 50, length)]
        b = g[1:2 * length]
        fresh = _product_slots(a, b, length - 1, 2 * length - 1)
        assert _product_slots(a, b, length - 1, 2 * length - 1, memo) == fresh
        assert fresh == [sum(a[i] * b[s - i] for i in range(len(a)) if 0 <= s - i < len(b))
                         for s in range(length - 1, 2 * length - 1)]
    assert sorted(memo) == [15, 31, 63]


@pytest.mark.parametrize("lam", (1.2e154, 1e200, 1e308))
def test_overflowing_operator_scale_is_bad_input(lam):
    # (S_0 + lam) * lam * rho overflows from lam ~ 1.34e154, and the squared
    # norms of the step right-hand sides (~lam * rho) a little below that
    with pytest.raises(ParameterDomainError, match="overflows|too large"):
        step_solve(scalar_problem(lam, 0.5), 3, 16)


# ---------------------------------------------------------------------------
# reciprocal series: the stiff-mode geometric series against Newton doubling
# ---------------------------------------------------------------------------

def _reciprocal_mp(S, shift):
    """Coefficients of 1/(S(z) + shift) by a 34-digit triangular solve."""
    from mpmath import mp, mpf

    with mp.workdps(34):
        Sm = [mpf(float(v)) for v in S]
        d = Sm[0] + mpf(float(shift))
        R = [1 / d]
        for n in range(1, len(S)):
            R.append(-mp.fdot(Sm[1:n + 1], R[::-1]) / d)
        return np.array([float(r) for r in R])


def _ratios(S, shifts):
    """x = S_0 ||s||_1 / (S_0 + shift) with S = S_0 (1 + s)."""
    return S[0] / (S[0] + shifts) * (np.abs(S[1:]).sum() / S[0])


_RECIPROCAL_SPECS = {
    "single": FractionalOperatorSpec(SingleTerm(0.6)),
    "two-term": FractionalOperatorSpec(MultiTerm(((1.0, 0.7), (0.5, 0.3)))),
}


@pytest.mark.parametrize("spec", sorted(_RECIPROCAL_SPECS))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_reciprocal_series_matches_mp_triangular_solve(k, spec):
    # shifts with x just inside and outside the series bound, and 10x and
    # 1e4x past it, ascending like eigenvalues
    M = 256
    S = discretize(_RECIPROCAL_SPECS[spec], k, 1.0 / (M - 1), M - 1).untempered_weights
    xs = solver._STIFF_RATIO * np.array([1.01, 0.99, 0.1, 1e-4])
    shifts = S[0] * (np.abs(S[1:]).sum() / S[0] / xs - 1.0)
    assert np.all(np.diff(shifts) > 0.0)
    stiff = _ratios(S, shifts) <= solver._STIFF_RATIO
    assert stiff.tolist() == [False, True, True, True]
    B, C = solver._reciprocal_basis(S, shifts)
    assert B.shape == (solver._STIFF_TERMS + 1, M) and C.shape == (len(B), len(shifts))
    for row, shift, is_stiff in zip(C.T @ B, shifts, stiff):
        ref = _reciprocal_mp(S, shift)
        assert np.max(np.abs(row - ref)) <= 1e-15 * abs(ref[0])
        if is_stiff:
            assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-10


def test_reciprocal_series_without_stiff_modes_is_newton():
    S = discretize(_RECIPROCAL_SPECS["single"], 4, 1.0 / 300, 300).untempered_weights
    shifts = np.linspace(0.1, 2.0, 7) * S[0]
    assert np.all(_ratios(S, shifts) > solver._STIFF_RATIO)
    newton = np.empty((len(shifts), len(S)))
    solver._newton_reciprocals(S, shifts, newton)
    B, C = solver._reciprocal_basis(S, shifts)
    assert np.array_equal(B, newton) and np.array_equal(C, np.eye(len(shifts)))
    assert np.array_equal(C.T @ B, newton)


# ---------------------------------------------------------------------------
# factored march: the reciprocal basis against the per-mode march
# ---------------------------------------------------------------------------

def reference_rhs(A, S, rho, corrections):
    """Physical right-hand sides of the per-mode march before factoring:
    a Newton reciprocal for every mode, the modal cumsum and one full
    from_modal of the (N+1, trials, dim) modal block (kept here verbatim)."""
    lam, to_modal, from_modal = A.eigensystem()
    R = np.empty((len(lam), len(S)))
    solver._newton_reciprocals(S, lam, R)
    coef = -(S[0] + lam) * to_modal(A.matvec(rho.T).T)
    modes, M = R.shape
    out = np.empty((M, *coef.shape))
    rows = max(1, _BLOCK // M)
    for b in range(0, modes, rows):
        Rb = R[b:b + rows]
        block = np.empty_like(Rb)
        block[:, 0] = 0.0
        np.cumsum(Rb[:, :-1], axis=1, out=block[:, 1:])
        for n, a in enumerate(corrections, start=1):
            block[:, n:] += a * Rb[:, :M - n]
        out[:, :, b:b + rows] = block.T[:, None, :] * coef[:, b:b + rows]
    return from_modal(out)


def _factored_rhs(A, S, rho, corrections):
    lam, to_modal, from_modal = A.eigensystem()
    coef = -(S[0] + lam) * to_modal(A.matvec(rho.T).T)
    return solver._march_rhs(S, lam, coef, from_modal, corrections)


def _dense_spd(dim):
    rng = np.random.default_rng(dim)
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return DenseSPDOperator((Q * np.geomspace(1.0, 1e5, dim)) @ Q.T)


#: (operator, alpha, number of mild modes) on a 256-step grid with k = 4:
#: the 64-point Laplacian at its three splits, and a dense SPD operator.
_FACTORED_CASES = {
    "all-mild": (lambda: TridiagonalLaplacian(64, length=4.0), 0.9, 64),
    "mixed": (lambda: TridiagonalLaplacian(64), 0.7, 17),
    "mostly-stiff": (lambda: TridiagonalLaplacian(64), 0.3, 3),
    "dense": (lambda: _dense_spd(48), 0.6, 30),
}


@pytest.mark.parametrize("trials", (1, 10))
@pytest.mark.parametrize("case", sorted(_FACTORED_CASES))
def test_factored_march_matches_per_mode_march(case, trials):
    make, alpha, n_mild = _FACTORED_CASES[case]
    A, N, k = make(), 256, 4
    S = discretize(FractionalOperatorSpec(SingleTerm(alpha), sigma=0.4), k, 1.0 / N,
                   N).untempered_weights
    lam = A.eigensystem()[0]
    assert np.sum(_ratios(S, lam) > solver._STIFF_RATIO) == n_mild
    assert len(solver._reciprocal_basis(S, lam)[0]) == n_mild + solver._STIFF_TERMS * (
        n_mild < A.dim)
    corrections = [float(a) for a in solver.correction_weights(k)]
    rho = np.random.default_rng(trials).standard_normal((trials, A.dim))
    ref = reference_rhs(A, S, rho, corrections)
    rhs = _factored_rhs(A, S, rho, corrections)
    assert rhs.shape == ref.shape == (N + 1, trials, A.dim)
    # at most 7.8e-16 of max|rhs| seen over these eight cases
    assert np.max(np.abs(rhs - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", (3, 6))
def test_dense_march_on_a_stiff_operator_keeps_small_residuals(k):
    # the shifted systems are solved from the eigensystem, and each step's
    # residual is taken against the matrix itself, at condition number 1e5
    A = _dense_spd(128)
    rho = np.random.default_rng(k).standard_normal(A.dim)
    spec = FractionalOperatorSpec(SingleTerm(0.6), sigma=0.4)
    result = step_solve(SubdiffusionProblem(A, rho, 1.0, spec), k, 1024)
    assert result.residuals.max() <= 1e-12


@pytest.mark.parametrize("trials", (1, 10))
def test_factored_scalar_march_is_bitwise_per_mode(trials):
    A, N, k = ScalarOperator(1.0), 300, 3
    S = discretize(FractionalOperatorSpec(SingleTerm(0.6), sigma=0.2), k, 1.0 / N,
                   N).untempered_weights
    assert len(solver._reciprocal_basis(S, A.eigensystem()[0])[0]) == 1
    corrections = [float(a) for a in solver.correction_weights(k)]
    rho = np.random.default_rng(trials).standard_normal((trials, 1))
    assert np.array_equal(_factored_rhs(A, S, rho, corrections),
                          reference_rhs(A, S, rho, corrections))


def test_march_maps_only_the_basis_rows_back(monkeypatch):
    # a dim-512 march maps K * trials modal rows back, not (N+1) * trials
    A, N, k, trials = TridiagonalLaplacian(512), 1024, 4, 3
    lam, to_modal, from_modal = A.eigensystem()
    rows = []

    def counting(x):
        rows.append(x.size // x.shape[-1])
        return from_modal(x)

    monkeypatch.setattr(A, "eigensystem", lambda: (lam, to_modal, counting))
    problem = SubdiffusionProblem(A=A, rho=np.sin(math.pi * A.grid()), T=1.0,
                                  time_op=FractionalOperatorSpec(SingleTerm(0.5)))
    S = discretize(problem.time_op, k, 1.0 / N, N).untempered_weights
    K = len(solver._reciprocal_basis(S, lam)[0])
    assert K < 64
    step_solve(problem, k, N)
    stability_experiment(problem, k, N, perturbations=trials)
    assert rows == [K, K * trials]


def test_large_sigma_problems_cover_both_routes():
    # the dim-64 problems of test_march.test_large_sigma_matches_reference
    # must split their modes between both routes, so that a change of the
    # route constants cannot leave one route untested there
    from test_march import TIME

    lam = TridiagonalLaplacian(64).eigenvalues()
    split = 0
    for spec in (TIME["single"], TIME["multi"]):
        for k in (1, 3, 5, 6):
            S = discretize(spec, k, 1.0 / 300, 300).untempered_weights
            stiff = _ratios(S, lam) <= solver._STIFF_RATIO
            split += bool(stiff.any() and not stiff.all())
    assert split


def test_stiff_convergence_path_matches_newton(monkeypatch):
    # lam = 1e4 is stiff on every grid; no shift passes a zero ratio bound,
    # so the patched run is Newton doubling throughout
    args = (3, 0.5, 1e4, (64, 128, 256, 512), ((0.0, True),))
    for N in args[3]:
        tau = 1.0 / N
        S = tau ** -0.5 * bdf_l_coefficients(3, 0.5, N)
        assert _ratios(S, np.array([1e4]))[0] <= solver._STIFF_RATIO
    report = _path_reports(*args)[0]
    monkeypatch.setattr(solver, "_STIFF_RATIO", 0.0)
    newton = _path_reports(*args)[0]
    assert report.orders == pytest.approx([3.0, 3.0, 3.0], abs=0.1)
    floor = 64 * np.finfo(float).eps
    assert np.max(np.abs(np.subtract(report.errors, newton.errors))) <= floor

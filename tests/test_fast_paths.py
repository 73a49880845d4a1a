"""Fast paths against the plain paths they replace, and the residual gate.

* the shared refinement path of the convergence check against independent
  runs (one plain step_solve per grid, and per-grid twin errors);
* the blocked residuals against the per-trial loop (kept here verbatim);
* the LDL^T tridiagonal solve against banded Cholesky;
* the residual bound, tripped by a corrupted march;
* input validation of the perturbation experiment;
* the inverse-iteration witness of a large failing band.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cho_solve_banded, cholesky_banded

from fracbdf import (FractionalOperatorSpec, InternalConsistencyError, MultiTerm,
                     ParameterDomainError, ScalarOperator, SingleTerm, SubdiffusionProblem,
                     TridiagonalLaplacian, convergence_harness, multiplier_energy_check,
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

def _corrupt_modal_march(monkeypatch, step, trial, mode):
    """Make the march scale one modal coefficient by 1.01."""
    original = solver._modal_march

    def corrupted(R, coef, corrections):
        out = original(R, coef, corrections)
        out[step, trial, mode] *= 1.01
        return out

    monkeypatch.setattr(solver, "_modal_march", corrupted)


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
    _corrupt_modal_march(monkeypatch, step=7, trial=0, mode=0)
    with pytest.raises(InternalConsistencyError, match=r"step 7 of trial 0"):
        step_solve(problem, 3, 40)


def test_corrupted_perturbation_march_names_the_trial(monkeypatch):
    problem = _laplacian_problem()
    _corrupt_modal_march(monkeypatch, step=12, trial=2, mode=3)
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
    _corrupt_modal_march(monkeypatch, step=5, trial=0, mode=0)
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
                                    {"amplitude": 0.0}, {"amplitude": -1.0},
                                    {"amplitude": math.nan}, {"amplitude": math.inf}))
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
    w = chk.witness[:, 0]
    assert chk.witness.shape == (N, 1)
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

"""The modal march against a plain per-step reference, plus properties."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbdf
from fracbdf import (DenseSPDOperator, DistributedOrder, FractionalOperatorSpec,
                     MultiTerm, QuadratureRule, ScalarOperator,
                     SingleTerm, SubdiffusionProblem, TridiagonalLaplacian,
                     apply_history, correction_weights, discretize, scalar_problem,
                     stability_experiment, step_solve)
from fracbdf.special import _standard_normal


def reference_march(problem, k, N, corrected=True):
    """The scheme step by step: history sum, then one shifted solve.

    Returns u (N+1, dim) and the per-step relative residuals.
    """
    tau = problem.T / N
    op = discretize(problem.time_op, k, tau, N)
    A = problem.A
    solve_shifted = A.shifted_solver(float(op.weights[0]))
    acorr = [float(a) for a in correction_weights(k)] if corrected else []
    Arho = A.matvec(problem.rho)
    decay = np.exp(-problem.sigma * tau * np.arange(N + 1))
    w = np.zeros((N + 1, A.dim))
    residuals = np.zeros(N + 1)
    for n in range(1, N + 1):
        a_n = acorr[n - 1] if n - 1 < len(acorr) else 0.0
        rhs = -decay[n] * (1.0 + a_n) * Arho - apply_history(op, w[:n], n)
        w[n] = solve_shifted(rhs)
        res = float(op.weights[0]) * w[n] + A.matvec(w[n]) - rhs
        residuals[n] = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300)
    return w + decay[:, None] * problem.rho, residuals


def _dense_matrix(dim):
    rng = np.random.default_rng(dim)
    B = rng.standard_normal((dim, dim))
    return B @ B.T / dim + np.eye(dim)


SPATIAL = {
    "scalar": lambda: ScalarOperator(2.3),
    "tridiagonal": lambda: TridiagonalLaplacian(9),
    "dense": lambda: DenseSPDOperator(_dense_matrix(6)),
}

TIME = {
    "single": FractionalOperatorSpec(SingleTerm(0.6), sigma=0.4),
    "multi": FractionalOperatorSpec(MultiTerm(((1.5, 0.8), (0.7, 0.45), (0.3, 0.1))),
                                    sigma=0.2),
    "distributed": FractionalOperatorSpec(DistributedOrder(
        weight=lambda a: 1.0 + a, quadrature=QuadratureRule.gauss_legendre(6)),
        sigma=0.7),
}


def _problem(spatial, time, rho=None):
    A = SPATIAL[spatial]()
    if rho is None:
        rho = np.cos(np.arange(1, A.dim + 1))
    return SubdiffusionProblem(A=A, rho=rho, T=1.3, time_op=TIME[time])


@pytest.mark.parametrize("corrected", (True, False))
@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("time", TIME)
@pytest.mark.parametrize("spatial", SPATIAL)
def test_march_matches_reference(spatial, time, k, corrected):
    prob = _problem(spatial, time)
    N = 40
    res = step_solve(prob, k, N, corrected=corrected)
    u_ref, residuals_ref = reference_march(prob, k, N, corrected=corrected)
    err = np.max(np.abs(res.u - u_ref)) / np.max(np.abs(u_ref))
    assert err <= 1e-12
    assert res.residuals[0] == 0.0
    assert np.max(res.residuals) <= 1e-12
    assert np.max(residuals_ref) <= 1e-12


def test_march_matches_reference_long_blocked():
    # N large enough that the modes are split over several blocks and the
    # Newton doubling ends on a length that is not a power of two
    prob = _problem("tridiagonal", "multi")
    res = step_solve(prob, 4, 3001)
    u_ref, _ = reference_march(prob, 4, 3001)
    assert np.max(np.abs(res.u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))


def test_datum_is_a_frozen_copy():
    rho = np.ones(9)
    prob = _problem("tridiagonal", "single", rho=rho)
    rho[:] = 5.0
    assert np.all(prob.rho == 1.0)
    with pytest.raises(ValueError):
        prob.rho[0] = 2.0
    before = prob.rho.copy()
    step_solve(prob, 4, 16)
    assert np.array_equal(prob.rho, before)


def test_dense_eigensystem_reconstructs_matrix():
    M = _dense_matrix(7)
    lam, to_modal, from_modal = DenseSPDOperator(M).eigensystem()
    np.testing.assert_allclose(from_modal(to_modal(np.eye(7)) * lam), M,
                               rtol=1e-12, atol=1e-12)


def test_tridiagonal_eigensystem_diagonalizes():
    A = TridiagonalLaplacian(11, length=2.0)
    lam, to_modal, from_modal = A.eigensystem()
    v = np.sin(np.arange(11.0) ** 2)
    np.testing.assert_allclose(from_modal(to_modal(v)), v, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(from_modal(lam * to_modal(v)), A.matvec(v),
                               rtol=1e-12, atol=1e-10)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_data = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=9, max_size=9)


@settings(max_examples=30, deadline=None)
@given(spatial=st.sampled_from(sorted(SPATIAL)), time=st.sampled_from(sorted(TIME)),
       k=st.integers(1, 6), a=_data, b=_data, c=st.floats(-3.0, 3.0))
def test_march_is_linear_in_datum(spatial, time, k, a, b, c):
    dim = SPATIAL[spatial]().dim
    ra, rb = np.array(a[:dim]), np.array(b[:dim])
    ua = step_solve(_problem(spatial, time, ra), k, 24).u
    ub = step_solve(_problem(spatial, time, rb), k, 24).u
    uab = step_solve(_problem(spatial, time, ra + c * rb), k, 24).u
    scale = max(np.max(np.abs(ua)) + abs(c) * np.max(np.abs(ub)), 1e-300)
    assert np.max(np.abs(uab - (ua + c * ub))) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(spatial=st.sampled_from(sorted(SPATIAL)), time=st.sampled_from(sorted(TIME)),
       k=st.integers(1, 6), N=st.integers(6, 64), corrected=st.booleans())
def test_zero_datum_gives_zero_trajectory(spatial, time, k, N, corrected):
    prob = _problem(spatial, time, rho=np.zeros(SPATIAL[spatial]().dim))
    res = step_solve(prob, k, N, corrected=corrected)
    assert np.all(res.u == 0.0)
    assert np.all(res.residuals == 0.0)
    assert math.isclose(res.times[-1], prob.T)


@pytest.mark.parametrize("k", (1, 3, 6))
@pytest.mark.parametrize("time", TIME)
@pytest.mark.parametrize("spatial", SPATIAL)
def test_batched_perturbations_match_single_solves(spatial, time, k):
    """The block march of stability_experiment against one step_solve per
    perturbation, each from its row of the seed's draws."""
    problem, N, trials = _problem(spatial, time), 20, 4
    rec = stability_experiment(problem, k, N, perturbations=trials, seed=11)
    A, tau = problem.A, problem.T / N
    for b, eps0 in enumerate(_standard_normal(11, (trials, A.dim))):
        res = step_solve(dataclasses.replace(problem, rho=eps0), k, N)
        norms = np.array([A.energy_norm(e) for e in res.u[1:]])
        e0 = A.energy_norm(eps0)
        assert rec.ratios_sq[b] == pytest.approx(np.sum(norms ** 2) / (N * e0 ** 2),
                                                 rel=1e-12, abs=0.0)
        assert rec.ratios_lin[b] == pytest.approx(tau * np.sum(norms) / (problem.T * e0),
                                                  rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# strong tempering: the march runs in the untempered frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corrected", (True, False))
@pytest.mark.parametrize("time", ("single", "multi"))
@pytest.mark.parametrize("k", (1, 3, 5, 6))
@pytest.mark.parametrize("sigma", (40.0, 200.0))
def test_large_sigma_matches_reference(sigma, k, time, corrected):
    """sigma*T up to 200: u^n spans 87 decades, and every step keeps its
    relative accuracy.

    Two data: the lowest Dirichlet mode, where each step's error is taken
    relative to |u^n|, and a datum with all modes, where u^n is ~1e-4 of
    e^(-sigma n tau) |rho| at late steps (u^n = e^(-sigma n tau) rho + w^n
    cancels, in the reference as well), so the error is taken relative to
    that size of the step's terms.
    """
    spec = dataclasses.replace(TIME[time], sigma=sigma)
    A = TridiagonalLaplacian(64)
    N = 300
    for rho, smooth in ((np.sin(math.pi * A.grid()), True),
                        (np.cos(np.arange(1, 65)), False)):
        prob = SubdiffusionProblem(A=A, rho=rho, T=1.0, time_op=spec)
        res = step_solve(prob, k, N, corrected=corrected)
        u_ref, residuals_ref = reference_march(prob, k, N, corrected=corrected)
        err = np.linalg.norm(res.u - u_ref, axis=1)
        if smooth:
            scale = np.linalg.norm(u_ref, axis=1)
        else:
            scale = np.exp(-sigma * res.times) * np.linalg.norm(rho)
        assert np.all(scale > 0.0)
        assert np.max(err / scale) <= 1e-11
        assert np.max(res.residuals) <= 1e-12
        assert np.max(residuals_ref) <= 1e-12


@pytest.mark.parametrize("corrected", (True, False))
@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("lam,alpha", ((0.5, 0.3), (2.3, 0.6), (50.0, 0.9)))
def test_tempering_equivariance(lam, alpha, k, corrected):
    """The scheme is exactly tempering-equivariant: the run with sigma is
    e^(-sigma n tau) times the run with sigma = 0, to rounding.

    The error of step n is taken relative to e^(-sigma n tau) |rho|, the
    size of the two terms of u^n = e^(-sigma n tau) rho + w^n: at lam = 50
    the scheme oscillates and u^n crosses zero, where the sum cancels.
    """
    N, rho = 64, 1.0
    base = step_solve(scalar_problem(lam, alpha, 0.0, rho), k, N,
                      corrected=corrected).u[:, 0]
    for sigma in (1.0, 7.5, 120.0):
        u = step_solve(scalar_problem(lam, alpha, sigma, rho), k, N,
                       corrected=corrected).u[:, 0]
        decay = np.exp(-sigma * np.arange(N + 1) / N)
        assert np.all(np.abs(u - decay * base) <= 1e-13 * decay * abs(rho))


def test_march_imports_no_optional_modules():
    """scipy is imported where it is used: importing the CLI and running
    ``coeffs`` and ``multipliers``, which neither march nor take an
    eigenvalue, load no scipy module.  A solve then needs neither
    scipy.integrate (Mittag-Leffler quadrature) nor mpmath (extended
    precision), and nothing imports scipy.signal."""
    code = ("import contextlib, io, sys, numpy as np\n"
            "from fracbdf.cli import main\n"
            "import fracbdf as f\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy_modules())\n"
            "for argv in (['coeffs', '--k', '3', '--alpha', '0.5', '--n', '8'],\n"
            "             ['multipliers', '--k', '3', '--alpha', '0.5', '--n', '8']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    print(scipy_modules())\n"
            "spec = f.FractionalOperatorSpec(f.SingleTerm(0.5), sigma=0.3)\n"
            "f.step_solve(f.SubdiffusionProblem(f.TridiagonalLaplacian(8), np.ones(8),"
            " 1.0, spec), 3, 16)\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.integrate', 'mpmath')"
            " if m in sys.modules))\n")
    src = str(Path(fracbdf.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines() == ["[]"] * 4


def test_march_loads_no_scipy_module():
    """The march is numpy alone: after solves on every operator class, the
    scalar, tridiagonal (one piece at dim 8, several at dim 300) and dense,
    and one perturbation experiment, no scipy module is loaded."""
    code = ("import sys, numpy as np\n"
            "import fracbdf as f\n"
            "spec = f.FractionalOperatorSpec(f.SingleTerm(0.5), sigma=0.3)\n"
            "M = np.diag(np.full(5, 3.0)) + np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)\n"
            "for A in (f.ScalarOperator(2.0), f.TridiagonalLaplacian(8),\n"
            "          f.TridiagonalLaplacian(300), f.DenseSPDOperator(M)):\n"
            "    f.step_solve(f.SubdiffusionProblem(A, np.ones(A.dim), 1.0, spec), 3, 16)\n"
            "f.stability_experiment(f.SubdiffusionProblem(f.TridiagonalLaplacian(64),\n"
            "                       np.ones(64), 1.0, spec), 3, 32, perturbations=4)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(fracbdf.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines() == ["[]"]

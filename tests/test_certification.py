"""Exact certification of the sandwich, energy and quadratic-form bounds.

The banded extreme-eigenvalue kernel is compared with dense eigvalsh of
the plain reference matrix, the exact minima with the seeded Gaussian
sampler they replace (kept here verbatim), and the witnesses with the
Rayleigh quotients they must attain.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fracbdf import (ENERGY_CONSTANTS, FracParams, ParameterDomainError,
                     argument_sweep, bdf_g_coefficients, multiplier_energy_check,
                     multiplier_set, positivity_generating_function, q_boundary_values,
                     q_coefficients, quadrature_positivity_check, stability_report,
                     toeplitz_band, toeplitz_eigencheck, verification)
from fracbdf.cli import main
from fracbdf.multipliers import QTable
from fracbdf import stability
from fracbdf.stability import _section_extremes, _symbol_extrema


# ---------------------------------------------------------------------------
# the seeded Gaussian samplers the exact checks replace
# ---------------------------------------------------------------------------

def _sampled_energy(k, sigma=0.0, tau=1.0, N=50, trials=1000, seed=0, dim=1):
    """Worst slack of the multiplier energy inequality over seeded samples."""
    rng = np.random.default_rng(seed)
    damp = math.exp(-sigma * tau)
    mu = multiplier_set(k).mu_float
    ck = float(ENERGY_CONSTANTS[k])
    W = rng.standard_normal((trials, N, dim))
    V = W.copy()
    for j, m in enumerate(mu, start=1):
        V[:, j:, :] -= m * damp ** j * W[:, :-j, :]
    lhs = np.einsum("tnd,tnd->t", W, V)
    rhs = ck * np.einsum("tnd,tnd->t", W, W)
    slack = lhs - rhs
    worst = int(np.argmin(slack))
    return float(slack[worst])


def _sampled_quadform(q, N, trials=1000, seed=0, dim=1):
    """Worst scaled value of the q quadratic form over seeded samples."""
    rng = np.random.default_rng(seed)
    qv = q.q[:N]
    Q = np.zeros((N, N))
    for j in range(N):
        idx = np.arange(j, N)
        Q[idx, idx - j] = qv[j]
    V = rng.standard_normal((trials, N, dim))
    QV = np.einsum("nm,tmd->tnd", Q, V)
    vals = np.einsum("tnd,tnd->t", QV, V)
    scale = float(np.abs(qv).sum()) * np.einsum("tnd,tnd->t", V, V)
    scaled = vals / np.maximum(scale, 1.0)
    worst = int(np.argmin(scaled))
    return float(scaled[worst])


def _q_table(k, N, alpha=0.5):
    table = bdf_g_coefficients(k, FracParams(alpha=alpha), N - 1)
    return q_coefficients(table, multiplier_set(k), N - 1)


def _lower_toeplitz(qv):
    N = len(qv)
    Q = np.zeros((N, N))
    for j in range(N):
        idx = np.arange(j, N)
        Q[idx, idx - j] = qv[j]
    return Q


# ---------------------------------------------------------------------------
# kernel against the dense reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 4, 5, 6))
@pytest.mark.parametrize("st", (0.0, 0.5))
def test_banded_extremes_match_dense_reference(k, st):
    for N in sorted({1, 2, k, k + 1, 10, 50, 200, 400}):
        L = toeplitz_band(k, st, 1.0, N)
        ev = np.linalg.eigvalsh((L + L.T) / 2.0)
        chk = toeplitz_eigencheck(k, st, 1.0, N)
        assert abs(chk.lambda_min - ev[0]) <= 1e-14, N
        assert abs(chk.lambda_max - ev[-1]) <= 1e-14, N


@pytest.mark.parametrize("k", (3, 6))
def test_dense_section_extremes_match_reference(k):
    for N in (1, 2, 5, 100):
        qv = _q_table(k, N).q
        Q = _lower_toeplitz(qv)
        ev = np.linalg.eigvalsh((Q + Q.T) / 2.0)
        lo, hi, vec = _section_extremes(qv, N)
        assert abs(lo - ev[0]) <= 1e-13 and abs(hi - ev[-1]) <= 1e-13
        assert vec is None


def test_symbol_extrema_computed_once_per_case():
    _symbol_extrema.cache_clear()
    res = verification.check_toeplitz_sandwich()
    assert res.passed and res.details["combinations"] == 32
    info = _symbol_extrema.cache_info()
    assert (info.misses, info.hits, info.currsize) == (8, 24, 8)
    assert min(res.details["margins"].values()) >= -1e-10


def test_large_banded_section_is_fast(capsys):
    # the dense path would hold a 4000 x 4000 matrix (128 MiB) per case
    t0 = time.perf_counter()
    code = main(["toeplitz", "--k", "6", "--N", "4000"])
    elapsed = time.perf_counter() - t0
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["verdict"] == "PASS"
    assert payload["positive_definite"]
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# exact minima against the sampled ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_exact_minima_below_sampled_battery_minima(k):
    for st in (0.0, 0.5):
        exact = multiplier_energy_check(k, sigma=st, tau=1.0, N=100)
        sampled = _sampled_energy(k, sigma=st, tau=1.0, N=100, trials=1000,
                                  seed=20240 + k)
        assert exact.verdict and exact.witness is None
        assert exact.min_slack <= sampled + 1e-12
    q = _q_table(k, 100)
    exact = quadrature_positivity_check(q, N=100)
    sampled = _sampled_quadform(q, N=100, trials=1000, seed=30240 + k)
    assert exact.verdict and exact.witness is None
    assert exact.min_scaled <= sampled + 1e-12


def test_energy_minimum_is_normalized_band_eigenvalue():
    for dim in (1, 4):
        chk = multiplier_energy_check(5, N=30, dim=dim)
        lam = toeplitz_eigencheck(5, 0.0, 1.0, 30).lambda_min
        assert chk.min_slack == pytest.approx(lam * 30 * dim, rel=1e-14)


def test_sampling_arguments_are_accepted_and_unused():
    a = multiplier_energy_check(4, N=40, trials=3, seed=1)
    b = multiplier_energy_check(4, N=40, trials=500, seed=2)
    assert a == b
    q = _q_table(4, 40)
    a = quadrature_positivity_check(q, N=40, trials=3, seed=1)
    b = quadrature_positivity_check(q, N=40, trials=500, seed=2)
    assert (a.min_value, a.min_scaled) == (b.min_value, b.min_scaled)


# ---------------------------------------------------------------------------
# planted indefinite forms and their witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", (1, 3))
def test_planted_indefinite_quadratic_form_has_witness(dim):
    N = 60
    good = _q_table(3, N)
    qv = good.q.copy()
    qv[0] = -qv[0]
    bad = QTable(k=3, params=good.params, q=qv)
    chk = quadrature_positivity_check(bad, N=N, dim=dim)
    assert not chk.verdict
    w = chk.witness
    assert w.shape == (N, dim) and np.all(w[:, 1:] == 0.0)
    lam = chk.min_value / (N * dim)
    assert chk.min_scaled == pytest.approx(lam / np.abs(qv).sum(), rel=1e-14)
    rayleigh = np.einsum("nd,nd->", _lower_toeplitz(qv) @ w, w) / np.sum(w * w)
    assert abs(rayleigh - lam) <= 1e-12


def test_planted_indefinite_energy_form_has_witness(monkeypatch):
    monkeypatch.setitem(stability.ENERGY_CONSTANTS, 6, Fraction(9, 10))
    N, dim = 40, 2
    chk = multiplier_energy_check(6, N=N, dim=dim)
    assert not chk.verdict
    w = chk.witness
    assert w.shape == (N, dim) and np.all(w[:, 1:] == 0.0)
    L = toeplitz_band(6, 0.0, 1.0, N)
    rayleigh = np.einsum("nd,nd->", L @ w, w) / np.sum(w * w)
    assert abs(rayleigh - chk.min_slack / (N * dim)) <= 1e-12


# ---------------------------------------------------------------------------
# input validation at the stability entry points
# ---------------------------------------------------------------------------

BAD_SIGMA_TAU = [(math.nan, 1.0), (-1.0, 1.0), (math.inf, 1.0),
                 (1.0, -2.0), (0.0, 0.0), (0.0, math.nan), (0.0, math.inf)]


@pytest.mark.parametrize("sigma,tau", BAD_SIGMA_TAU)
def test_stability_entry_points_reject_bad_sigma_tau(sigma, tau):
    calls = (
        lambda: toeplitz_eigencheck(3, sigma, tau, 10),
        lambda: toeplitz_band(3, sigma, tau, 10),
        lambda: positivity_generating_function(3, sigma, tau),
        lambda: argument_sweep(3, 0.5, sigma, tau, grid_size=64),
        lambda: q_boundary_values(3, 0.5, np.linspace(0.1, 3.0, 8), sigma, tau),
        lambda: stability_report(3, 0.5, sigma, tau, grid_size=1024, matrix_sizes=(10,)),
        lambda: multiplier_energy_check(3, sigma=sigma, tau=tau, N=10),
    )
    for call in calls:
        with pytest.raises(ParameterDomainError):
            call()


@pytest.mark.parametrize("kwargs", ({"N": 0}, {"N": -3}, {"dim": 0}))
def test_certification_checks_reject_empty_sequences(kwargs):
    with pytest.raises(ParameterDomainError):
        multiplier_energy_check(3, **{"N": 10, **kwargs})
    with pytest.raises(ParameterDomainError):
        quadrature_positivity_check(_q_table(3, 10), **{"N": 10, **kwargs})
    if "N" in kwargs:
        with pytest.raises(ParameterDomainError):
            toeplitz_eigencheck(3, 0.0, 1.0, kwargs["N"])


@pytest.mark.parametrize("argv", (
    ("toeplitz", "--k", "3", "--N", "10", "--sigma", "nan"),
    ("toeplitz", "--k", "3", "--N", "10", "--sigma", "-1"),
    ("toeplitz", "--k", "3", "--N", "10", "--tau", "-2", "--sigma", "1"),
    ("toeplitz", "--k", "3", "--N", "0"),
    ("check-astability", "--k", "3", "--alpha", "0.5", "--sigma", "nan"),
    ("check-positivity", "--k", "4", "--tau", "inf"),
))
def test_cli_rejects_bad_stability_inputs(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "error"
    assert "must be" in payload["error"]

"""End-to-end verification battery.

Each function runs one acceptance-grade check at its pinned tolerance and
returns a :class:`CheckResult`; :func:`run_all` composes them.  The checks
restate every reference constant literally (tables of rationals, extremum
bounds, root locations) rather than importing them from the modules under
test, so a transcription slip in either place surfaces as a failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coefficients import FracParams, bdf_g_coefficients, bdf_l_coefficients, series_oracle
from .errors import GridTooCoarseError
from .multipliers import multiplier_set, q_coefficients, reciprocal_series
from .operators import FractionalOperatorSpec, SingleTerm
from .solver import (SubdiffusionProblem, TridiagonalLaplacian, _path_reports,
                     correction_weights, stability_refinement)
from .stability import (argument_sweep, lower_bound_extrema, multiplier_energy_check,
                        positivity_generating_function, quadrature_positivity_check,
                        toeplitz_eigencheck, trig_min)

HALF_PI = math.pi / 2.0


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "elapsed_s": round(self.elapsed, 3), "details": self.details}


def _result(name: str, t0: float, passed: bool, **details) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed),
                       elapsed=time.perf_counter() - t0, details=details)


def check_coefficient_oracle() -> CheckResult:
    """Factored weights, (1 - z)^alpha convolved with R_k^alpha, match the
    power recurrence run on p itself.

    All k, alpha in {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}, J = 512, relative
    1e-12 in the max(1, |l|) measure; budget 1 s.
    """
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = None
    for k in range(1, 7):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            rec = bdf_l_coefficients(k, alpha, 512)
            ora = series_oracle(k, alpha, 512)
            diff = float(np.max(np.abs(rec - ora) / np.maximum(1.0, np.abs(ora))))
            if diff > worst:
                worst, worst_at = diff, (k, alpha)
    elapsed = time.perf_counter() - t0
    return _result("coefficient-oracle-equivalence", t0,
                   worst <= 1e-12 and elapsed < 1.0,
                   max_rel_diff=worst, worst_at=worst_at, tol=1e-12,
                   budget_s=1.0)


_EXPECTED_MULTIPLIERS = {
    1: (), 2: (),
    3: (Fraction(1, 2),),
    4: (Fraction(1, 2),),
    5: (Fraction(1), Fraction(-1, 4)),
    6: (Fraction(43, 30), Fraction(-2, 3), Fraction(1, 10)),
}
_EXPECTED_CORRECTIONS = {
    1: (),
    2: (Fraction(1, 2),),
    3: (Fraction(11, 12), Fraction(-5, 12)),
    4: (Fraction(31, 24), Fraction(-7, 6), Fraction(3, 8)),
    5: (Fraction(1181, 720), Fraction(-177, 80), Fraction(341, 240),
        Fraction(-251, 720)),
    6: (Fraction(2837, 1440), Fraction(-2543, 720), Fraction(17, 5),
        Fraction(-1201, 720), Fraction(95, 288)),
}


def check_table_exactness() -> CheckResult:
    """Multiplier and correction tables as exact rationals; power-series
    division vs the factor cascade of 1/mu at 1e-13 up to m = 512."""
    t0 = time.perf_counter()
    failures = []
    for k in range(1, 7):
        if multiplier_set(k).mu != _EXPECTED_MULTIPLIERS[k]:
            failures.append(f"multipliers k={k}")
        if correction_weights(k) != _EXPECTED_CORRECTIONS[k]:
            failures.append(f"corrections k={k}")
    for k in (3, 4, 5, 6):
        for sigma in (0.0, 0.5):
            try:
                # raises InternalConsistencyError on a factor-cascade mismatch
                reciprocal_series(k, FracParams(alpha=0.5, sigma=sigma, tau=1.0), 512)
            except Exception as exc:          # record, do not abort the battery
                failures.append(f"reciprocal k={k} sigma={sigma}: {exc}")
    return _result("table-exactness", t0, not failures,
                   failures=failures, reciprocal_tol=1e-13)


def check_positivity_constants() -> CheckResult:
    """Minima of the band generating functions, exact critical points in cos x.

    k=3,4: minimum 0 at x=0; k=5: minimum 0 plus the pointwise quadratic
    lower bound on a 4096 grid; k=6: minimum above 0.004785, located at
    arccos((20 - sqrt(94))/18) within 1e-6.
    """
    t0 = time.perf_counter()
    failures = []
    details: dict = {}
    for k in (3, 4):
        x_min, f_min = trig_min(positivity_generating_function(k))
        details[f"k{k}"] = {"x_min": x_min, "f_min": f_min}
        if abs(f_min) > 1e-12 or abs(x_min) > 1e-6:
            failures.append(f"k={k} minimum not 0 at 0: ({x_min}, {f_min})")
    f5 = positivity_generating_function(5)
    x_min, f_min = trig_min(f5)
    details["k5"] = {"x_min": x_min, "f_min": f_min}
    if abs(f_min) > 1e-12:
        failures.append(f"k=5 minimum not 0: {f_min}")
    xg = np.linspace(0.0, math.pi, 4096)
    gap = f5(xg) - 0.5 * (1.0 - np.cos(xg)) ** 2
    details["k5"]["pointwise_gap_min"] = float(gap.min())
    if gap.min() < -1e-12:
        failures.append(f"k=5 pointwise bound violated by {gap.min()}")
    f6 = positivity_generating_function(6)
    x_min, f_min = trig_min(f6)
    x_star = math.acos((20.0 - math.sqrt(94.0)) / 18.0)
    details["k6"] = {"x_min": x_min, "f_min": f_min, "x_star": x_star}
    if not f_min > 0.004785:
        failures.append(f"k=6 minimum {f_min} not above 0.004785")
    if abs(x_min - x_star) > 1e-6:
        failures.append(f"k=6 minimizer {x_min} vs {x_star} beyond 1e-6")
    return _result("positivity-constants", t0, not failures,
                   failures=failures, **details)


# (bound value, minimal accepted margin); the band-minimum bound 0.004785
# is a truncation of 0.0047854851..., so its genuine margin is ~4.9e-7.
_EXPECTED_BOUNDS = {
    "slope-numerator minimum (k=3)": (2.02, 1e-4),
    "interior angle minimum (k=4)": (-1.37, 1e-4),
    "interior angle minimum (k=5)": (-1.33, 1e-4),
    "interior angle minimum (k=6)": (-1.566, 1e-4),
    "reciprocal angle maximum (k=6)": (1.5, 1e-4),
    "band-minimum cubic (k=6)": (0.004785, 1e-7),
}


def check_argument_constants() -> CheckResult:
    """Extremum constants and root locations of the argument analysis.

    Bound values as listed in _EXPECTED_BOUNDS, root locations within
    5e-4 of their references, boundary angles -pi/2 and 0 within 1e-9;
    budget 5 s.
    """
    t0 = time.perf_counter()
    failures = []
    details: dict = {}
    seen_bounds = set()
    for k in (3, 4, 5, 6):
        report = lower_bound_extrema(k)
        details[f"k{k}"] = {
            "records": [
                {"name": r.name, "y": r.y, "x": r.x, "value": r.value,
                 "bound": r.bound, "margin": r.margin}
                for r in report.records],
            "angle_at_zero": report.angle_at_zero,
            "angle_at_pi": report.angle_at_pi,
        }
        for r in report.records:
            if not r.satisfied:
                failures.append(f"{r.name}: value {r.value} violates bound {r.bound}")
            if r.y_ref is not None and r.location_error() > 5e-4:
                failures.append(
                    f"{r.name}: location {r.y} vs reference {r.y_ref}")
            if r.name in _EXPECTED_BOUNDS:
                seen_bounds.add(r.name)
                bound, min_margin = _EXPECTED_BOUNDS[r.name]
                if r.bound != bound:
                    failures.append(f"{r.name}: bound {r.bound} != expected {bound}")
                if r.margin < min_margin:
                    failures.append(
                        f"{r.name}: margin {r.margin} below {min_margin}")
        if abs(report.angle_at_zero + HALF_PI) > 1e-9:
            failures.append(f"k={k}: angle at 0 is {report.angle_at_zero}")
        if abs(report.angle_at_pi) > 1e-9:
            failures.append(f"k={k}: angle at pi is {report.angle_at_pi}")
    missing = set(_EXPECTED_BOUNDS) - seen_bounds
    if missing:
        failures.append(f"bound records missing: {sorted(missing)}")
    elapsed = time.perf_counter() - t0
    return _result("argument-extremum-constants", t0,
                   not failures and elapsed < 5.0,
                   failures=failures, budget_s=5.0, **details)


def check_argument_sweep() -> CheckResult:
    """max |arg q| <= pi/2 + 1e-9 for every alpha in (0, 1], k = 3..6 and
    sigma*tau in {0, 0.05, 0.5}, on 8192-point grids; budget 30 s.

    arg q = alpha*(theta1 + theta2) + delta, delta the reciprocal-factor
    angles, is affine in alpha, so one alpha = 1 sweep per (k, sigma*tau)
    bounds every alpha by its max |arg| and by max |delta|, the limit
    alpha -> 0 (alpha 0.0 in ``worst_at``).  No alpha's argument jumps more
    between grid points than delta or the alpha = 1 argument, so a delta
    jump above pi/2 raises GridTooCoarseError, as the sweep does for its own.
    """
    t0 = time.perf_counter()
    worst, worst_at = 0.0, None
    for k in (3, 4, 5, 6):
        for st in (0.0, 0.05, 0.5):
            sweep = argument_sweep(k, 1.0, sigma=st, tau=1.0, grid_size=8192)
            delta = sum(sweep.reciprocal_angles)
            if np.max(np.abs(np.diff(delta))) > HALF_PI:
                raise GridTooCoarseError(f"reciprocal-angle jump > pi/2 (k={k}, sigma*tau={st})")
            for alpha, m in ((0.0, float(np.max(np.abs(delta)))), (1.0, sweep.max_abs_arg)):
                if m > worst:
                    worst, worst_at = m, (k, alpha, st)
    elapsed = time.perf_counter() - t0
    return _result("argument-sweep-bound", t0,
                   worst <= HALF_PI + 1e-9 and elapsed < 30.0,
                   max_abs_arg=worst, half_pi=HALF_PI, worst_at=worst_at,
                   tol=1e-9, budget_s=30.0)


def check_toeplitz_sandwich() -> CheckResult:
    """Eigenvalue sandwich for all (k, N, sigma*tau) combinations, plus
    positive definiteness of the k = 6 symmetrized matrix.  The details
    report each exact margin lambda_min - f_min."""
    t0 = time.perf_counter()
    failures = []
    margins = {}
    for k in (3, 4, 5, 6):
        for st in (0.0, 0.5):
            for N in (10, 50, 200, 400):
                try:
                    chk = toeplitz_eigencheck(k, sigma=st, tau=1.0, N=N, tol=1e-10)
                except Exception as exc:      # record, do not abort the battery
                    failures.append(f"k={k} st={st} N={N}: {exc}")
                    continue
                margins[f"k{k}_st{st}_N{N}"] = chk.lambda_min - chk.f_min
                if k == 6 and not chk.positive_definite:
                    failures.append(
                        f"k=6 st={st} N={N}: lambda_min {chk.lambda_min} <= 0")
    return _result("toeplitz-eigenvalue-sandwich", t0, not failures,
                   failures=failures, combinations=len(margins), tol=1e-10,
                   margins=margins)


def check_energy_inequalities() -> CheckResult:
    """Exact minima of both quadratic-form inequalities.

    Over all sequences of length N = 100: the multiplier energy slack
    (normalized to sum_n |w^n|^2 = N) and the q form scaled by
    sum_j |q_j|, each the smallest eigenvalue of its symmetric Toeplitz
    section; tolerance 1e-10; budget 10 s.
    """
    t0 = time.perf_counter()
    failures = []
    details: dict = {}
    for k in (3, 4, 5, 6):
        for st in (0.0, 0.5):
            chk = multiplier_energy_check(k, sigma=st, tau=1.0, N=100)
            details[f"energy_k{k}_st{st}"] = chk.min_slack
            if not chk.verdict:
                failures.append(f"energy k={k} st={st}: slack {chk.min_slack}")
    for k in (3, 4, 5, 6):
        params = FracParams(alpha=0.5, sigma=0.0, tau=1.0)
        table = bdf_g_coefficients(k, params, 99)
        q = q_coefficients(table, multiplier_set(k), 99)
        chk = quadrature_positivity_check(q, N=100)
        details[f"quadform_k{k}"] = chk.min_scaled
        if not chk.verdict:
            failures.append(f"quadratic form k={k}: scaled min {chk.min_scaled}")
    elapsed = time.perf_counter() - t0
    return _result("energy-inequalities", t0, not failures and elapsed < 10.0,
                   failures=failures, budget_s=10.0, **details)


def check_convergence_orders(n_list=(128, 256, 512)) -> CheckResult:
    """Observed orders of the scalar scheme against the closed form.

    Corrected runs must land within +-0.35 of k on the finest pair;
    uncorrected runs (k >= 2) must not exceed order 1.5.  Orders k >= 5
    are measured with the extended-precision twin because their errors
    fall below the float64 floor on these grids.

    All runs of one (k, alpha) path share what does not depend on sigma:
    the float64 runs share the l_j, each grid's reciprocal series and each
    (grid, corrected) march, and the twin runs share the weights, E_alpha
    and each (grid, corrected) march; every error is bitwise that of a
    separate :func:`~fracbdf.solver.convergence_harness` call.
    ``max_residual`` is the largest step residual of the float64 marches.
    """
    t0 = time.perf_counter()
    sigmas, alphas = (0.0, 1.0), (0.3, 0.5, 0.8)
    reports = {}
    for k in range(1, 7):
        for alpha in alphas:
            corrected = [(sigma, True) for sigma in sigmas]
            uncorrected = [(sigma, False) for sigma in sigmas] if k >= 2 else []
            # corrected k >= 5 needs the twin; all float64 runs share one path
            paths = ([(corrected, 30), (uncorrected, None)] if k >= 5
                     else [(corrected + uncorrected, None)])
            for variants, precision in paths:
                reps = _path_reports(k, alpha, 1.0, n_list, variants, precision=precision)
                reports.update(((k, alpha) + v, r) for v, r in zip(variants, reps))
    failures = []
    orders: dict = {}
    for k in range(1, 7):
        for sigma in sigmas:
            for alpha in alphas:
                rep = reports[k, alpha, sigma, True]
                orders[f"k{k}_a{alpha}_s{sigma}_corrected"] = rep.observed_order
                if abs(rep.observed_order - k) > 0.35:
                    failures.append(
                        f"corrected k={k} alpha={alpha} sigma={sigma}: "
                        f"order {rep.observed_order:.3f}")
                if k >= 2:
                    rep = reports[k, alpha, sigma, False]
                    orders[f"k{k}_a{alpha}_s{sigma}_uncorrected"] = rep.observed_order
                    if rep.observed_order > 1.5:
                        failures.append(
                            f"uncorrected k={k} alpha={alpha} sigma={sigma}: "
                            f"order {rep.observed_order:.3f}")
    max_residual = max(r.max_residual for r in reports.values() if r.precision is None)
    return _result("scalar-convergence-orders", t0, not failures,
                   failures=failures, tol=0.35, orders=orders,
                   max_residual=max_residual)


def check_perturbation_stability() -> CheckResult:
    """Bounded perturbation growth across refinement.

    k = 3..6 on the 64-point 1D Laplacian, alpha = 0.5, 10 seeded
    perturbations, N in {64, 128, 256, 512}; the finest-grid maximum of
    each ratio must stay within 2x its coarsest-grid value; budget 60 s.
    """
    t0 = time.perf_counter()
    failures = []
    details: dict = {}
    max_residual = 0.0
    A = TridiagonalLaplacian(size=64, length=1.0)
    rho = np.sin(math.pi * A.grid())
    problem = SubdiffusionProblem(
        A=A, rho=rho, T=1.0,
        time_op=FractionalOperatorSpec(SingleTerm(alpha=0.5), sigma=0.0))
    for k in (3, 4, 5, 6):
        rep = stability_refinement(problem, k, (64, 128, 256, 512),
                                   perturbations=10, seed=777)
        details[f"k{k}"] = {
            "max_sq": [r.max_sq for r in rep.records],
            "max_lin": [r.max_lin for r in rep.records],
        }
        max_residual = max(max_residual, rep.max_residual)
        if not rep.bounded:
            failures.append(
                f"k={k}: ratios grew beyond 2x across refinement "
                f"({details[f'k{k}']})")
    elapsed = time.perf_counter() - t0
    return _result("perturbation-stability", t0, not failures and elapsed < 60.0,
                   failures=failures, budget_s=60.0, max_residual=max_residual, **details)


ALL_CHECKS = (
    check_coefficient_oracle,
    check_table_exactness,
    check_positivity_constants,
    check_argument_constants,
    check_argument_sweep,
    check_toeplitz_sandwich,
    check_energy_inequalities,
    check_convergence_orders,
    check_perturbation_stability,
)


def run_all() -> list[CheckResult]:
    """Run the full battery in order, never aborting early."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:              # record, do not abort the battery
            results.append(CheckResult(name=fn.__name__, passed=False,
                                       elapsed=0.0,
                                       details={"exception": repr(exc)}))
    return results

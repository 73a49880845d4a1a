"""The three workloads of the fracbdf benchmark.

Each workload builds its inputs from a seed, then runs passes.  A pass is a
fixed list of operations, issued one after another by a single caller (a
closed loop).  Each operation is one call into a public function of the
package, timed alone.  Its output is reduced to a small summary after the
clock stops, and the workload's gate judges the summary.  An operation
fails if it raises or if its summary fails the gate.

* ``paper-battery`` runs ``fracbdf verify-paper`` in-process through the CLI
  entry point.  An operation is one of its checks, and it passes when the
  check passes.  The battery's inputs are fixed by the paper, so the seed
  changes nothing here.
* ``march`` runs single long ``step_solve`` calls over a fixed case grid.
  Each datum is a seeded sum of a few Laplacian eigenmodes, so the exact
  answer is known mode by mode.
* ``series-certify`` runs large-order series and certification kernels,
  with no time march.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from fracbdf import cli, coefficients, multipliers, operators, solver, special, stability
from fracbdf import verification
from fracbdf.operators import (DistributedOrder, FractionalOperatorSpec, MultiTerm,
                               QuadratureRule, SingleTerm)


@dataclass
class Op:
    """One timed call: its name, seconds, summary and gate verdict."""

    name: str
    seconds: float
    ok: bool
    summary: dict = field(default_factory=dict)


def _timed(name, call, summarize, gate, tracer):
    """Time ``call()`` alone, then summarize and gate its result."""
    try:
        with tracer.span(f"op:{name}"):
            t0 = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - t0
    except Exception as exc:               # a raising call is a failed operation
        return Op(name, float("nan"), False, {"exception": repr(exc)})
    summary = summarize(result)
    return Op(name, seconds, bool(gate(name, summary)), summary)


# ---------------------------------------------------------------------------
# paper-battery
# ---------------------------------------------------------------------------

class PaperBattery:
    """The full ``verify-paper`` battery through the CLI entry point."""

    name = "paper-battery"

    def __init__(self, seed: int):
        self.seed = seed
        self.corrupt = None         # (table, key, value) set by the self-test

    def warmup(self):
        # Pull in the lazily imported pieces (mpmath twin, quadrature) so
        # the first timed pass does not pay for them.
        solver.convergence_harness(5, 0.5, 0.0, 1.0, (8, 16), precision=30)
        special.mittag_leffler(0.5, -7.0)

    def run_pass(self, tracer) -> list[Op]:
        expected = [fn.__name__.removeprefix("check_") for fn in verification.ALL_CHECKS]
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            if self.corrupt is not None:
                table, key, value = self.corrupt
                saved = table[key]
                table[key] = value
                stack.callback(table.__setitem__, key, saved)
            stack.enter_context(contextlib.redirect_stdout(out))
            try:
                cli.main(["verify-paper"])
            except Exception as exc:       # the whole battery failed
                return [Op(n, float("nan"), False, {"exception": repr(exc)})
                        for n in expected]
        lines = out.getvalue().strip().splitlines()
        checks = json.loads(lines[-1])["checks"] if lines else []
        ops = [Op(c["name"], float(c["elapsed_s"]), bool(c["passed"]),
                  {} if c["passed"] else {"details": c["details"]})
               for c in checks]
        ops += [Op(n, float("nan"), False, {"missing": True})
                for n in expected[len(ops):]]
        return ops


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------

#: (case, spatial operator, dim, N, time operator, k).  Fixed grid; the seed
#: only draws orders, tempering, weights and the datum.
MARCH_CASES = (
    ("scalar", "scalar", 1, 8192, "single", 3),
    ("tri64", "tridiagonal", 64, 4096, "single", 4),
    ("tri512", "tridiagonal", 512, 1024, "single", 4),
    ("multi3", "tridiagonal", 64, 2048, "multi", 5),
    ("dist16", "tridiagonal", 64, 1024, "distributed", 4),
    ("dense128", "dense", 128, 1024, "single", 6),
    ("tri2048", "tridiagonal", 2048, 128, "single", 3),
)

#: Largest accepted max-norm error against the modal Mittag-Leffler closed
#: form, relative to the datum's max norm, by BDF order.  Each sits 20-25x
#: above the worst error seen over seeds 0..19 on the coarsest case of that
#: order (k = 3: tri2048, 1.2e-8; k = 4: tri512, 2.2e-12; k = 6: dense128,
#: 2.6e-13).
MARCH_ML_TOL = {3: 3e-7, 4: 5e-11, 6: 6e-12}

#: Largest accepted gap between a multi-term or distributed-order solve
#: and the sum of its per-mode scalar marches (same scheme, roundoff only).
MARCH_MODAL_RTOL = 1e-11

#: Largest accepted relative residual of any step's spatial solve.
MARCH_RESIDUAL_BOUND = 1e-10

_MODE_CHOICES = 6        # datum modes are drawn from the lowest six
_MODES_PER_DATUM = 3


@dataclass
class MarchCase:
    name: str
    k: int
    N: int
    problem: solver.SubdiffusionProblem
    modes: tuple                  # (amplitude, eigenvalue, eigenvector) per mode
    single: bool                  # True: checked against Mittag-Leffler


def _laplacian_modes(dim, rng):
    """A few seeded eigenpairs of the Dirichlet Laplacian on (0, 1)."""
    h = 1.0 / (dim + 1)
    x = h * np.arange(1, dim + 1)
    picks = rng.choice(np.arange(1, _MODE_CHOICES + 1), _MODES_PER_DATUM, replace=False)
    modes = []
    for i in sorted(int(p) for p in picks):
        lam = (4.0 / h ** 2) * math.sin(i * math.pi * h / 2.0) ** 2
        modes.append((float(rng.uniform(0.5, 1.5)), lam, np.sin(i * math.pi * x)))
    return modes


def _dense_laplacian(dim):
    h = 1.0 / (dim + 1)
    return (2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)) / h ** 2


def _time_operator(kind, rng):
    sigma = float(rng.uniform(0.0, 1.0))
    if kind == "single":
        return FractionalOperatorSpec(SingleTerm(alpha=float(rng.uniform(0.3, 0.9))), sigma)
    if kind == "multi":
        alphas = sorted(rng.uniform(0.1, 0.95, 3), reverse=True)
        terms = tuple((float(rng.uniform(0.5, 2.0)), float(a)) for a in alphas)
        return FractionalOperatorSpec(MultiTerm(terms=terms), sigma)
    weight = operators.WEIGHT_FUNCTIONS["power"](p=float(rng.uniform(0.0, 2.0)))
    return FractionalOperatorSpec(
        DistributedOrder(weight=weight, quadrature=QuadratureRule.gauss_legendre(16)), sigma)


def build_march_case(case, rng) -> MarchCase:
    name, spatial, dim, N, kind, k = case
    spec = _time_operator(kind, rng)
    if spatial == "scalar":
        lam = float(rng.uniform(1.0, 4.0))
        modes = ((float(rng.uniform(0.5, 1.5)), lam, np.ones(1)),)
        A = solver.ScalarOperator(lam)
    else:
        modes = tuple(_laplacian_modes(dim, rng))
        A = (solver.TridiagonalLaplacian(dim) if spatial == "tridiagonal"
             else solver.DenseSPDOperator(_dense_laplacian(dim)))
    rho = sum(c * phi for c, _, phi in modes)
    problem = solver.SubdiffusionProblem(A=A, rho=rho, T=1.0, time_op=spec)
    return MarchCase(name, k, N, problem, modes, kind == "single")


class March:
    """Single long ``step_solve`` calls over :data:`MARCH_CASES`."""

    name = "march"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cases = [build_march_case(c, rng) for c in MARCH_CASES]
        self._modal_refs: dict[str, list[float]] = {}

    def warmup(self):
        for case in self.cases:
            solver.step_solve(case.problem, case.k, case.k + 2)

    def modal_reference(self, case: MarchCase) -> list[float]:
        """Terminal coefficient of each datum mode, computed once.

        Single-term: e^(-sigma T) E_alpha(-lam T^alpha) times the amplitude.
        Otherwise: the scalar march of that mode with the same scheme.
        """
        if case.name not in self._modal_refs:
            p = case.problem
            if case.single:
                alpha = p.time_op.variant.alpha
                refs = [c * special.exact_scalar_solution(lam, alpha, p.sigma, 1.0, p.T)
                        for c, lam, _ in case.modes]
            else:
                refs = [float(solver.step_solve(
                    solver.SubdiffusionProblem(A=solver.ScalarOperator(lam), rho=[c],
                                               T=p.T, time_op=p.time_op),
                    case.k, case.N).terminal[0]) for c, lam, _ in case.modes]
            self._modal_refs[case.name] = refs
        return self._modal_refs[case.name]

    def gate(self, name, s) -> bool:
        case = next(c for c in self.cases if c.name == name)
        if not (s["finite"] and s["max_residual"] <= MARCH_RESIDUAL_BOUND):
            return False
        ref = sum(r * phi for r, (_, _, phi) in zip(self.modal_reference(case), case.modes))
        err = float(np.max(np.abs(s["terminal"] - ref)))
        scale = float(np.max(np.abs(case.problem.rho)))
        tol = MARCH_ML_TOL[case.k] if case.single else MARCH_MODAL_RTOL
        s["rel_err"] = err / scale
        return err <= tol * scale

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for case in self.cases:
            ops.append(_timed(
                case.name,
                lambda c=case: solver.step_solve(c.problem, c.k, c.N),
                lambda r: {"terminal": np.array(r.terminal),
                           "finite": bool(np.isfinite(r.u).all()),
                           "max_residual": float(r.residuals.max())},
                self.gate, tracer))
        return ops


# ---------------------------------------------------------------------------
# series-certify
# ---------------------------------------------------------------------------

#: Series length for the reciprocal and q series, and for the weight/oracle
#: comparison.
SERIES_J = 4000
ORACLE_J = 16384
SWEEP_GRID = 2 ** 16
TOEPLITZ_N = (100, 400)
TOEPLITZ_LARGE_N = (800, 1600)     # k = 6 only
ENERGY_N = 400
ENERGY_TRIALS = 1000


class SeriesCertify:
    """Series and certification kernels at large order; no time march."""

    name = "series-certify"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        # One drawn order per BDF order for the series, five for the sweeps.
        self.alpha = {k: float(rng.uniform(0.05, 1.0)) for k in range(1, 7)}
        self.sweep_alphas = tuple(sorted(float(a) for a in rng.uniform(0.05, 1.0, 4))) + (1.0,)
        self.energy_seed = int(rng.integers(0, 2 ** 31))
        # Gate references; the self-test corrupts one of them.
        self.refs = {"half_pi": math.pi / 2.0, "arg_tol": 1e-9,
                     "oracle_rtol": 1e-12, "slack_tol": 1e-10}
        self.ops = self._plan()

    def _plan(self):
        plan = []
        for k in (3, 4, 5, 6):
            for st in (0.0, 0.5):
                params = coefficients.FracParams(alpha=self.alpha[k], sigma=st, tau=1.0)
                plan.append((f"reciprocal_k{k}_st{st}",
                             lambda k=k, p=params: multipliers.reciprocal_series(k, p, SERIES_J),
                             lambda r: {"finite": bool(np.isfinite(r.c).all()),
                                        "c0": float(r.c[0])}))
                plan.append((f"q_k{k}_st{st}",
                             lambda k=k, p=params: multipliers.q_coefficients(
                                 coefficients.bdf_g_coefficients(k, p, SERIES_J),
                                 multipliers.multiplier_set(k), SERIES_J),
                             lambda r: {"finite": bool(np.isfinite(r.q).all())}))
        for k in range(1, 7):
            a = self.alpha[k]
            plan.append((f"oracle_k{k}",
                         lambda k=k, a=a: (coefficients.bdf_l_coefficients(k, a, ORACLE_J),
                                           coefficients.series_oracle(k, a, ORACLE_J)),
                         lambda r: {"max_rel_diff": float(np.max(
                             np.abs(r[0] - r[1]) / np.maximum(1.0, np.abs(r[1]))))}))
        for k in (3, 4, 5, 6):
            for st in (0.0, 0.5):
                for i, a in enumerate(self.sweep_alphas):
                    plan.append((f"sweep_k{k}_st{st}_a{i}",
                                 lambda k=k, a=a, st=st: stability.argument_sweep(
                                     k, a, sigma=st, tau=1.0, grid_size=SWEEP_GRID),
                                 lambda r: {"max_abs_arg": r.max_abs_arg}))
        for k in (3, 4, 5, 6):
            for st in (0.0, 0.5):
                sizes = TOEPLITZ_N + (TOEPLITZ_LARGE_N if k == 6 else ())
                for n in sizes:
                    plan.append((f"toeplitz_k{k}_st{st}_N{n}",
                                 lambda k=k, st=st, n=n: stability.toeplitz_eigencheck(
                                     k, sigma=st, tau=1.0, N=n, tol=1e-10),
                                 lambda r: {"sandwiched": r.sandwiched,
                                            "lambda_min": r.lambda_min, "k": r.k}))
        for k in (3, 4, 5, 6):
            plan.append((f"extrema_k{k}",
                         lambda k=k: stability.lower_bound_extrema(k),
                         lambda r: {"satisfied": r.all_satisfied}))
            for st in (0.0, 0.5):
                plan.append((f"energy_k{k}_st{st}",
                             lambda k=k, st=st: stability.multiplier_energy_check(
                                 k, sigma=st, tau=1.0, N=ENERGY_N, trials=ENERGY_TRIALS,
                                 seed=self.energy_seed + k),
                             lambda r: {"slack": r.min_slack}))
            params = coefficients.FracParams(alpha=self.alpha[k], sigma=0.0, tau=1.0)
            plan.append((f"quadform_k{k}",
                         lambda k=k, p=params: stability.quadrature_positivity_check(
                             multipliers.q_coefficients(
                                 coefficients.bdf_g_coefficients(k, p, ENERGY_N - 1),
                                 multipliers.multiplier_set(k), ENERGY_N - 1),
                             N=ENERGY_N, trials=ENERGY_TRIALS, seed=self.energy_seed - k),
                         lambda r: {"slack": r.min_scaled}))
        return plan

    def warmup(self):
        stability.argument_sweep(6, 0.5, grid_size=64)
        stability.toeplitz_eigencheck(6, 0.0, 1.0, 50)

    def gate(self, name, s) -> bool:
        r = self.refs
        kind = name.split("_", 1)[0]
        if kind == "reciprocal":
            return s["finite"] and s["c0"] == 1.0
        if kind == "q":
            return s["finite"]
        if kind == "oracle":
            return s["max_rel_diff"] <= r["oracle_rtol"]
        if kind == "sweep":
            return s["max_abs_arg"] <= r["half_pi"] + r["arg_tol"]
        if kind == "toeplitz":
            return s["sandwiched"] and (s["k"] != 6 or s["lambda_min"] > 0.0)
        if kind == "extrema":
            return s["satisfied"]
        return s["slack"] >= -r["slack_tol"]          # energy, quadform

    def run_pass(self, tracer) -> list[Op]:
        return [_timed(name, call, summarize, self.gate, tracer)
                for name, call, summarize in self.ops]


WORKLOADS = {w.name: w for w in (PaperBattery, March, SeriesCertify)}

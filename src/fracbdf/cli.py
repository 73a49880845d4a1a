"""Command-line front end.

Subcommands map one-to-one onto the library: weight tables, multiplier
series, the positivity and argument checks, Toeplitz eigenvalue sandwiches,
time-stepping runs, convergence and perturbation experiments, and the
composed ``verify-paper`` battery.  Series data goes out as CSV with a
versioned header comment; reports go out as JSON.  All numeric output uses
17 significant digits, and identical arguments (seed included) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verification
from .coefficients import FracParams, bdf_g_coefficients
from .errors import InternalConsistencyError, ParameterDomainError
from .multipliers import multiplier_set, q_coefficients, reciprocal_series
from .solver import (GROWTH_FACTOR, convergence_harness, problem_from_dict,
                     stability_refinement, step_solve)
from .stability import (ENERGY_CONSTANTS, argument_sweep, positivity_generating_function,
                        toeplitz_eigencheck, trig_min)

_CSV_SCHEMA = "fracbdf-csv-v1"
_JSON_SCHEMA = "fracbdf-report-v1"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _write_csv(path: str, kind: str, header: list[str], rows) -> None:
    out, close = _open_out(path)
    try:
        out.write(f"# {_CSV_SCHEMA} {kind}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")
    finally:
        if close:
            out.close()


def _write_json(path: str, payload: dict) -> None:
    out, close = _open_out(path)
    try:
        json.dump({"schema": _JSON_SCHEMA, **payload}, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()


def _int_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        values = []
    if not values:
        raise ParameterDomainError(f"expected comma-separated integers, got {text!r}")
    return values


def cmd_coeffs(args) -> int:
    params = FracParams(alpha=args.alpha, sigma=args.sigma, tau=args.tau)
    table = bdf_g_coefficients(args.k, params, args.n)
    if args.format == "json":
        _write_json(args.out, {
            "kind": "coeffs", "k": args.k, "alpha": args.alpha,
            "sigma": args.sigma, "tau": args.tau,
            "l": [float(v) for v in table.l], "g": [float(v) for v in table.g]})
    else:
        rows = ((j, table.l[j], table.g[j]) for j in range(args.n + 1))
        _write_csv(args.out, f"coeffs k={args.k} alpha={_fmt(args.alpha)} "
                             f"sigma={_fmt(args.sigma)} tau={_fmt(args.tau)}",
                   ["j", "l_j", "g_j"], rows)
    return 0


def cmd_multipliers(args) -> int:
    mults = multiplier_set(args.k)
    mu = mults.mu_float
    payload: dict = {"kind": "multipliers", "k": args.k,
                     "mu": [float(m) for m in mu]}
    columns = ["m", "mu_m"]
    series = {}
    if args.n is not None:
        params = FracParams(alpha=args.alpha if args.alpha is not None else 0.5,
                            sigma=args.sigma, tau=args.tau)
        c = reciprocal_series(args.k, params, args.n).c
        series["c_m"] = c
        payload["c"] = [float(v) for v in c]
        columns.append("c_m")
        if args.alpha is not None:
            table = bdf_g_coefficients(args.k, params, args.n)
            q = q_coefficients(table, mults, args.n).q
            series["q_m"] = q
            payload["q"] = [float(v) for v in q]
            payload["alpha"] = args.alpha
            columns.append("q_m")
    if args.format == "json":
        _write_json(args.out, payload)
        return 0
    n_rows = (args.n + 1) if args.n is not None else len(mu) + 1
    rows = []
    for m in range(n_rows):
        row: list = [m, _fmt(mu[m - 1]) if 1 <= m <= len(mu) else ""]
        for name in ("c_m", "q_m"):
            if name in series:
                row.append(series[name][m])
        rows.append(row)
    _write_csv(args.out, f"multipliers k={args.k}", columns, rows)
    return 0


_STABILITY_SCHEMA = "fracbdf-stability-report-v1"
_STABILITY_TOLERANCES = {"argument": 1e-9, "eigen_sandwich": 1e-10, "f_min_floor": 1e-12}


def _property_p(k: int, sigma: float, tau: float, sizes) -> dict:
    """Positivity side: the minimum of the band symbol and the eigenvalue
    sandwich at each N in ``sizes`` (a violation raises, exit 3).  It
    depends on (k, sigma, tau) only."""
    x_min, f_min = trig_min(positivity_generating_function(k, sigma, tau))
    ck = float(ENERGY_CONSTANTS[k])
    checks = [toeplitz_eigencheck(k, sigma, tau, N) for N in sizes]
    pd_ok = k != 6 or all(chk.positive_definite for chk in checks)
    passed = f_min >= -_STABILITY_TOLERANCES["f_min_floor"] and ck + f_min > 0.0 and pd_ok
    return {"f_min": f_min, "x_min": x_min, "positivity_polynomial_min": ck + f_min,
            "energy_constant": ck,
            "toeplitz": [{"N": chk.N, "lambda_min": chk.lambda_min,
                          "lambda_max": chk.lambda_max, "f_min": chk.f_min,
                          "f_max": chk.f_max} for chk in checks],
            "verdict": bool(passed)}


def cmd_check_positivity(args) -> int:
    prop = _property_p(args.k, args.sigma, args.tau, args.N)
    _write_json(args.out, {
        "schema": _STABILITY_SCHEMA, "k": args.k, "sigma": args.sigma, "tau": args.tau,
        "property_p": prop, "tolerances": _STABILITY_TOLERANCES,
        "verdict": "PASS" if prop["verdict"] else "FAIL", "kind": "check-positivity"})
    return 0 if prop["verdict"] else 1


def cmd_check_astability(args) -> int:
    prop = _property_p(args.k, args.sigma, args.tau, ())
    sweep = argument_sweep(args.k, args.alpha, args.sigma, args.tau, args.grid)
    passed = sweep.max_abs_arg <= math.pi / 2.0 + _STABILITY_TOLERANCES["argument"]
    _write_json(args.out, {
        "schema": _STABILITY_SCHEMA, "k": args.k, "alpha": args.alpha,
        "sigma": args.sigma, "tau": args.tau, "property_p": prop,
        "property_a": {
            "max_abs_arg": sweep.max_abs_arg,
            "max_arg": sweep.max_arg, "min_arg": sweep.min_arg,
            "extremum_x": float(sweep.grid[np.argmax(np.abs(sweep.arg_values))]),
            "limit_at_zero": sweep.limit_at_zero,
            "half_pi": math.pi / 2.0,
            "verdict": bool(passed)},
        "tolerances": _STABILITY_TOLERANCES,
        "verdict": "PASS" if passed else "FAIL", "kind": "check-astability"})
    if args.csv_out is not None:
        rows = zip(sweep.grid, sweep.arg_values, sweep.theta1, sweep.theta2,
                   sum(sweep.reciprocal_angles))
        _write_csv(args.csv_out,
                   f"astability k={args.k} alpha={_fmt(args.alpha)}",
                   ["x", "arg_q", "theta1", "theta2", "reciprocal_sum"], rows)
    return 0 if passed else 1


def cmd_toeplitz(args) -> int:
    # A sandwich violation raises InternalConsistencyError (exit 3), so a
    # returned check always passes.
    chk = toeplitz_eigencheck(args.k, args.sigma, args.tau, args.N)
    _write_json(args.out, {
        "kind": "toeplitz", "k": args.k, "N": args.N,
        "sigma": args.sigma, "tau": args.tau,
        "lambda_min": chk.lambda_min, "lambda_max": chk.lambda_max,
        "f_min": chk.f_min, "f_max": chk.f_max,
        "positive_definite": chk.positive_definite, "verdict": "PASS"})
    return 0


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_solve(args) -> int:
    problem = problem_from_dict(_load_config(args.config))
    result = step_solve(problem, args.k, args.n, corrected=not args.no_correction)
    if args.norms or problem.A.dim > args.component_limit:
        rows = ((n, result.times[n],
                 float(np.linalg.norm(result.u[n])),
                 problem.A.energy_norm(result.u[n]))
                for n in range(result.N + 1))
        header = ["n", "t", "norm_l2", "norm_energy"]
    else:
        header = ["n", "t"] + [f"u{i}" for i in range(problem.A.dim)]
        rows = ((n, result.times[n], *result.u[n]) for n in range(result.N + 1))
    _write_csv(args.out, f"solve k={args.k} n={args.n}", header, rows)
    return 0


def _precision(text: str | None) -> int | None:
    # Parsed here rather than by argparse so that a bad value gets the
    # exit-2 JSON error; convergence_harness enforces the range.
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ParameterDomainError(
            f"precision must be an integer number of digits, got {text!r}") from None


def cmd_converge(args) -> int:
    rep = convergence_harness(args.k, args.alpha, args.sigma, args.lam,
                              _int_list(args.n_list),
                              corrected=not args.uncorrected,
                              precision=_precision(args.precision))
    if args.format == "json":
        _write_json(args.out, {
            "kind": "converge", "k": args.k, "alpha": args.alpha,
            "sigma": args.sigma, "lambda": args.lam,
            "corrected": rep.corrected, "N": list(rep.N_list),
            "errors": list(rep.errors), "orders": list(rep.orders),
            "observed_order": rep.observed_order})
    else:
        rows = []
        for i, N in enumerate(rep.N_list):
            order = "" if i == 0 else _fmt(rep.orders[i - 1])
            rows.append([N, rep.errors[i], order])
        _write_csv(args.out, f"converge k={args.k} alpha={_fmt(args.alpha)}",
                   ["N", "error", "order"], rows)
    return 0


def cmd_stability(args) -> int:
    problem = problem_from_dict(_load_config(args.config))
    rep = stability_refinement(problem, args.k, _int_list(args.n_list),
                               perturbations=args.trials, seed=args.seed)
    _write_json(args.out, {
        "kind": "stability", "k": args.k, "seed": args.seed,
        "trials": args.trials, "N": [r.N for r in rep.records],
        "max_ratio_sq": [r.max_sq for r in rep.records],
        "max_ratio_lin": [r.max_lin for r in rep.records],
        "max_residual": [r.max_residual for r in rep.records],
        "growth_factor": GROWTH_FACTOR,
        "verdict": "PASS" if rep.bounded else "FAIL"})
    return 0 if rep.bounded else 1


def cmd_verify_paper(args) -> int:
    results = verification.run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} ({r.elapsed:.2f}s)"
        if not r.passed:
            line += f" :: {json.dumps(r.details, default=str)}"
        print(line)
    all_passed = all(r.passed for r in results)
    payload = {"kind": "verify-paper",
               "checks": [r.to_dict() for r in results],
               "verdict": "PASS" if all_passed else "FAIL"}
    if args.json is not None:
        _write_json(args.json, payload)
    else:
        print(json.dumps({"schema": _JSON_SCHEMA, **payload}, default=str))
    return 0 if all_passed else 1


def _add_common_frac(p, alpha_required: bool = True) -> None:
    if alpha_required:
        p.add_argument("--alpha", type=float, required=True,
                       help="fractional order in (0, 1]")
    else:
        p.add_argument("--alpha", type=float, default=None,
                       help="fractional order in (0, 1]")
    p.add_argument("--sigma", type=float, default=0.0, help="tempering rate >= 0")
    p.add_argument("--tau", type=float, default=1.0, help="step size > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbdf",
        description="Corrected BDF-k time stepping for tempered subdiffusion, "
                    "with a numerical stability verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit weight tables l_j, g_j")
    p.add_argument("--k", type=int, required=True)
    _add_common_frac(p)
    p.add_argument("--n", type=int, required=True, help="largest index J")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("multipliers", help="emit mu_j, c_m and (with --alpha) q_m")
    p.add_argument("--k", type=int, required=True)
    _add_common_frac(p, alpha_required=False)
    p.add_argument("--n", type=int, default=None, help="largest index for c/q")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_multipliers)

    p = sub.add_parser("check-positivity",
                       help="positivity report: band minima and eigenvalue sandwich")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0, help="tempering rate >= 0")
    p.add_argument("--tau", type=float, default=1.0, help="step size > 0")
    p.add_argument("--N", type=_int_list, default=[10, 50, 200, 400],
                   help="comma-separated matrix dimensions")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_check_positivity)

    p = sub.add_parser("check-astability",
                       help="argument sweep report for q on the unit circle")
    p.add_argument("--k", type=int, required=True)
    _add_common_frac(p)
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--csv-out", default=None,
                   help="also write per-grid-point angles as CSV")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_check_astability)

    p = sub.add_parser("toeplitz", help="eigenvalue sandwich for one matrix size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("solve", help="march one problem from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of time steps")
    p.add_argument("--no-correction", action="store_true")
    p.add_argument("--norms", action="store_true",
                   help="emit norm summaries instead of components")
    p.add_argument("--component-limit", type=int, default=16,
                   help="emit norms automatically above this dimension")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="observed-order study on the scalar model")
    p.add_argument("--k", type=int, required=True)
    _add_common_frac(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--n-list", default="32,64,128,256,512")
    p.add_argument("--uncorrected", action="store_true")
    p.add_argument("--precision", default=None,
                   help="digits (>= 16) resolved by the fixed-point extended-precision "
                        "twin; resolution 2^-P with P = ceil(digits*log2(10)) + 32")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("stability", help="perturbation-growth experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--n-list", default="64,128,256,512")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify-paper",
                       help="run the full verification battery; exit 0 iff all pass")
    p.add_argument("--json", default=None, help="write the summary JSON to a file")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def _error(exc: Exception, code: int) -> int:
    print(json.dumps({"schema": _JSON_SCHEMA, "error": str(exc), "kind": "error"}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 on a failed verdict, 2 on
    bad input and 3 when a computation fails its own consistency check (a
    step residual above the bound, disagreeing redundant paths); the last
    two print a JSON error object to stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _error(exc, 2)
    except InternalConsistencyError as exc:
        return _error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())

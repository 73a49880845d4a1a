"""Run one workload of the fracbdf benchmark and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload march --seed 3 --seconds 56 --trace 0
    python3 bench/run.py --selftest

One process runs one workload as a closed loop: a single caller issues
each operation after the previous one returns.  BLAS is pinned to one
thread before numpy loads.  The run

1. times set-up (importing ``fracbdf`` and building the inputs from the
   seed) in ``SETUP_REPEATS`` fresh child processes, one at a time;
2. sets up itself and makes one small warm-up call per code path;
3. runs whole passes for at most ``--seconds`` (at least one pass);
4. gates every operation, and prints a summary, a provenance record and,
   as the last line, one JSON object with the metrics named in
   ``BENCHMARK.json``: the end-to-end ones with ``--trace 0`` and the
   per-layer ones with ``--trace 1``.

A traced run first runs untraced passes for half of ``--seconds``, then
exactly one traced pass, so its computed counts repeat exactly.  It
writes the spans to ``.bench_out/``.  ``--selftest`` shows each
workload's gate is live: a clean reduced pass passes, and the same outputs
fail once one reference value is corrupted.
"""

from __future__ import annotations

import os

PINNED_BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_BLAS_THREADS)

import argparse  # noqa: E402  (thread pinning must precede any numpy import)
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paper-battery", "march", "series-certify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def _import_workloads():
    """Import the package from this checkout's sources, via the workloads."""
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _build(workload, seed):
    """Import the package and build one workload's inputs."""
    return _import_workloads().WORKLOADS[workload](seed)


def _setup_probe(args) -> int:
    t0 = time.perf_counter()
    _build(args.workload, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else float("nan")


def _mean_pass(passes):
    """Wall time of the timed section divided by its passes.  With the few
    passes a run holds, this spread less from run to run than the median
    pass did (see NOTES.md)."""
    return statistics.fmean(w for w, _ in passes)


def _provenance(seed, trace):
    import mpmath
    import numpy
    import scipy

    def blas_version():
        try:
            return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "openblas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas_threads": PINNED_BLAS_THREADS,
        "commit": _git_commit(), "seed": seed, "trace": trace,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_untraced(wl, seconds, null):
    """Whole passes while the next one, as long as the last, fits in
    ``seconds``; at least one."""
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start + passes[-1][0] <= seconds:
        t0 = time.perf_counter()
        ops = wl.run_pass(null)
        passes.append((time.perf_counter() - t0, ops))
    return passes


def _layer_metrics(tracer, names):
    """Every per-layer metric in ``names`` from one traced pass."""
    totals = tracer.layer_totals()
    spans_ = tracer.spans
    for name, total, _, parent in tracer.durations():
        if name == "solver.step_solve" and parent >= 0 and spans_[parent][0].startswith("op:"):
            totals[f"solver.step_solve.{spans_[parent][0][3:]}.s"] += total
    layers = {n.rsplit(".", 1)[0] for n in names}
    unknown = sorted(n for n in totals if n.rsplit(".", 1)[0] not in layers
                     and not n.startswith("op:"))
    if unknown:
        print(f"warning: traced quantities missing from BENCHMARK.json: {unknown}",
              file=sys.stderr)
    return {n: totals.get(n, 0) for n in names}


def _summarize(passes):
    """Per-operation median seconds, attempted and failed counts."""
    per_op: dict[str, list[float]] = {}
    attempted = failed = 0
    for _, ops in passes:
        for op in ops:
            per_op.setdefault(op.name, []).append(op.seconds)
            attempted += 1
            failed += not op.ok
    return {n: _median(v) for n, v in per_op.items()}, attempted, failed


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_samples = [_child_setup_seconds(args) for _ in range(SETUP_REPEATS)]
    wl = _build(args.workload, args.seed)
    import spans
    null = spans.NullTracer()
    wl.warmup()
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        passes = _run_untraced(wl, args.seconds / 2.0, null)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            t0 = time.perf_counter()
            ops = wl.run_pass(tracer)
            traced_wall = time.perf_counter() - t0
        untraced_wall = _mean_pass(passes)
        passes.append((traced_wall, ops))
        names = [m["name"] for m in spec["per_layer"]]
        values = _layer_metrics(tracer, names)
        values.update({"bench.traced_wall_s": traced_wall,
                       "bench.untraced_wall_s": untraced_wall,
                       "bench.trace_overhead_s": traced_wall - untraced_wall,
                       "bench.span_cost_s": len(tracer.spans) * spans.span_cost(),
                       "bench.spans": len(tracer.spans)})
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.write(OUT_DIR / f"spans-{args.workload}.json")
    else:
        passes = _run_untraced(wl, args.seconds, null)
        values = {"setup_s": _median(setup_samples),
                  "wall_s": _mean_pass(passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    op_medians, attempted, failed = _summarize(passes)
    for name, sec in op_medians.items():
        print(f"op {name}: {sec:.6f} s median")
    bad = [op for _, ops in passes for op in ops if not op.ok]
    for op in bad[:10]:
        print(f"FAILED {op.name}: {json.dumps(op.summary, default=str)[:400]}")
    print(f"passes: {len(passes)} of {[round(w, 4) for w, _ in passes]} s; "
          f"setup samples: {[round(s, 4) for s in setup_samples]} s")
    print(f"fail_frac: {failed / attempted:.6g} ({failed}/{attempted} operations)")
    provenance = _provenance(args.seed, args.trace)
    print("provenance: " + json.dumps(provenance))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}
    record = dict(result, workload=args.workload, provenance=provenance,
                  fail_frac=failed / attempted, op_median_s=op_medians,
                  pass_wall_s=[w for w, _ in passes], setup_samples_s=setup_samples)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


def selftest() -> int:
    """Show every gate passes clean outputs and fails a corrupted reference."""
    from fractions import Fraction

    workloads = _import_workloads()
    import spans
    from fracbdf import verification
    null = spans.NullTracer()
    report = {}

    def fail_frac(ops):
        return sum(not op.ok for op in ops) / len(ops)

    battery = workloads.PaperBattery(0)
    saved = verification.ALL_CHECKS
    verification.ALL_CHECKS = (verification.check_table_exactness,
                               verification.check_positivity_constants)
    try:
        clean = fail_frac(battery.run_pass(null))
        battery.corrupt = (verification._EXPECTED_CORRECTIONS, 3,
                           (Fraction(11, 12), Fraction(-5, 13)))
        report["paper-battery"] = (clean, fail_frac(battery.run_pass(null)))
    finally:
        verification.ALL_CHECKS = saved

    march = workloads.March(0)
    march.cases = [c for c in march.cases if c.name in ("scalar", "dist16")]
    ops = march.run_pass(null)
    clean = fail_frac(ops)
    march._modal_refs["scalar"][0] *= 1.0 + 1e-3
    for op in ops:
        op.ok = march.gate(op.name, op.summary)
    report["march"] = (clean, fail_frac(ops))

    series = workloads.SeriesCertify(0)
    series.ops = [op for op in series.ops if op[0].startswith(("sweep_k6", "oracle"))]
    ops = series.run_pass(null)
    clean = fail_frac(ops)
    series.refs["half_pi"] = 1.0
    for op in ops:
        op.ok = series.gate(op.name, op.summary)
    report["series-certify"] = (clean, fail_frac(ops))

    live = True
    for name, (clean, corrupted) in report.items():
        ok = clean == 0.0 and corrupted > 0.0
        live &= ok
        print(f"{name}: fail_frac clean {clean:.3g}, corrupted {corrupted:.3g} "
              f"-> {'gate live' if ok else 'GATE BROKEN'}")
    return 0 if live else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fracbdf" / "__init__.py").is_file():
        print(f"error: no fracbdf sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if args.selftest:
        return selftest()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

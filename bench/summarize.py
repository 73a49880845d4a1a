"""Fold the run records in ``.bench_out/`` into one baseline document.

Usage, from the repository root, after running ``bench/run.py`` on every
workload for the seeds in question::

    python3 bench/summarize.py --set F 61-70 --set G 71-80 --trace-seed 1 > bench/baseline.json

For each set, each workload in ``BENCHMARK.json`` and each end-to-end
metric the document gives the median, the quartiles and their spread as
``statistics.quantiles(v, n=4)`` gives them.  It also gives each
operation's median over the runs, every per-layer metric of the traced run
with ``--trace-seed``, and the provenance of the first record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(workload, seed, trace):
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--set", nargs=2, action="append", metavar=("NAME", "SEEDS"),
                   required=True, help="a named set of seeds, e.g. F 61-70")
    p.add_argument("--trace-seed", type=int, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {"schema": "fracbdf-bench-baseline-v1", "sets": {}, "op_median_s": {},
           "per_layer": {}}
    ops: dict[str, dict[str, list[float]]] = {}
    for name, seeds in args.set:
        seeds = _seeds(seeds)
        entry = {"seeds": [seeds[0], seeds[-1]]}
        for w in workloads:
            records = [_load(w, s, 0) for s in seeds]
            doc.setdefault("provenance", records[0]["provenance"])
            metrics = {m: _stats([r["metrics"][m]["value"] for r in records])
                       for m in records[0]["metrics"]}
            metrics["fail_frac"] = sum(r["failed"] for r in records) / sum(
                r["attempted"] for r in records)
            entry[w] = metrics
            for r in records:
                for op, sec in r["op_median_s"].items():
                    ops.setdefault(w, {}).setdefault(op, []).append(sec)
        doc["sets"][name] = entry
    doc["op_median_s"] = {w: {op: statistics.median(v) for op, v in per.items()}
                          for w, per in ops.items()}
    for w in workloads:
        traced = _load(w, args.trace_seed, 1)
        doc["per_layer"][w] = {m: v["value"] for m, v in traced["metrics"].items()}
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

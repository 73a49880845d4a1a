"""In-memory span tracer for the fracbdf benchmark.

The tracer instruments the package from outside: :func:`instrument`
rebinds each traced public function in every ``fracbdf`` module that holds
it, wraps the per-step solve closure returned by the spatial operators'
``shifted_solver``, and wraps the ``verify-paper`` checks.  Everything is
restored when the context exits, so an untraced pass afterwards runs the
original code.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  One process runs one caller, so spans
nest strictly and a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _history_counts(result, op, history, n):
    # One multiply-add per (table, lagged state, component); the bytes are
    # what the kernel touches by array size (history slab and weight slice
    # per table, plus the output), not a cache measurement.
    dim = max(result.size, 1)
    tables = len(op.tables)
    return {"flops": 2 * n * dim * tables,
            "bytes": 8 * (tables * (n * dim + n) + dim)}


def _step_counts(result, problem, k, N, corrected=True, op=None):
    return {"steps": N, "max_residual": float(result.residuals.max())}


def _discretize_counts(result, spec, k, tau, N):
    return {"tables": len(result.tables)}


def _weights_counts(result, k, params, J):
    return {"weights": J + 1}


def _terms_counts(result, k, params, J):
    return {"terms": J + 1}


def _sweep_counts(result, *args, **kwargs):
    return {"points": len(result.grid)}


def _eigen_counts(result, *args, **kwargs):
    return {"rows": result.N}


#: Traced public functions: (module, function, extra quantities).  Every
#: one reports ``calls``, ``s`` (inclusive seconds) and ``self_s``.
TARGETS = (
    ("operators", "apply_history", _history_counts),
    ("operators", "discretize", _discretize_counts),
    ("coefficients", "bdf_g_coefficients", _weights_counts),
    ("solver", "step_solve", _step_counts),
    ("multipliers", "reciprocal_series", _terms_counts),
    ("multipliers", "q_coefficients", None),
    ("highprec", "terminal_error_mp", None),
    ("highprec", "scalar_weights_mp", None),
    ("special", "mittag_leffler", None),
    ("stability", "argument_sweep", _sweep_counts),
    ("stability", "toeplitz_eigencheck", _eigen_counts),
    ("stability", "trig_min", None),
    ("stability", "multiplier_energy_check", None),
    ("stability", "quadrature_positivity_check", None),
    ("stability", "lower_bound_extrema", None),
)

#: Closure returned by ``shifted_solver``: one call is one spatial solve.
SPATIAL_SOLVE = "solver.spatial_solve"
SPATIAL_CLASSES = ("ScalarOperator", "TridiagonalLaplacian", "DenseSPDOperator")

#: Quantities combined by maximum rather than by sum.
_MAXIMA = {"max_residual"}


class Tracer:
    """Collects spans and per-span counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                for q, v in count(result, *args, **kwargs).items():
                    key = f"{name}.{q}"
                    counts[key] = max(counts[key], v) if q in _MAXIMA else counts[key] + v
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Open a span around a block of the benchmark's own code."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def durations(self):
        """Per span: (name, inclusive seconds, self seconds, parent index)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, t1 - t0, t1 - t0 - child[i], parent)
                for i, (name, t0, t1, parent) in enumerate(self.spans)]

    def layer_totals(self):
        """``<layer>.calls``, ``.s`` and ``.self_s`` summed per span name."""
        out: dict[str, float] = defaultdict(int)
        for name, total, own, _ in self.durations():
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += total
            out[f"{name}.self_s"] += own
        out.update(self.counts)
        return out

    def write(self, path):
        """Write every span, times relative to the first span's start."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(t0 - t_ref, 7), round(t1 - t_ref, 7), p]
                for n, t0, t1, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a wrapped no-op beside a bare one."""
    def noop():
        return None

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    wrapped = Tracer().wrap("noop", noop)
    return min(per_call(wrapped) - per_call(noop) for _ in range(5))


class NullTracer:
    """Stand-in used on untraced passes: spans cost nothing."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


@contextlib.contextmanager
def instrument(tracer):
    """Rebind the traced functions to ``tracer`` wrappers; restore on exit."""
    import fracbdf.highprec  # noqa: F401  (lazily imported by the package)
    from fracbdf import solver, verification

    saved = []

    def rebind(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "fracbdf" or n.startswith("fracbdf."))]
    try:
        for mod_name, fn_name, count in TARGETS:
            orig = getattr(sys.modules[f"fracbdf.{mod_name}"], fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        rebind(mod, attr, wrapped)
        for cls_name in SPATIAL_CLASSES:
            cls = getattr(solver, cls_name)
            rebind(cls, "shifted_solver", _traced_factory(tracer, cls.shifted_solver))
        rebind(verification, "ALL_CHECKS", tuple(
            tracer.wrap(f"verification.{fn.__name__.removeprefix('check_')}", fn)
            for fn in verification.ALL_CHECKS))
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def _traced_factory(tracer, factory):
    @functools.wraps(factory)
    def shifted_solver(self, shift):
        return tracer.wrap(SPATIAL_SOLVE, factory(self, shift))
    return shifted_solver

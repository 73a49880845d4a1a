"""Discrete time-fractional operators as superpositions of weight tables.

The continuous operator is a nonnegative superposition of tempered
fractional derivatives over orders alpha in (0, 1): a single order, a
finite positive combination, or a weighted integral discretized by
quadrature.  Each participating order alpha_i contributes the convolution

    (b_i / tau^alpha_i) * sum_j g_j^(i) w^(n-j),

so the assembled operator is a list of (scale, table) pairs sharing one
tempering rate sigma and one step size tau.  Their sum is one convolution
with the combined weights  S_j = sum_i (b_i / tau^alpha_i) g_j^(i), exposed
as ``weights``.  Since g_j = e^(-sigma*j*tau) l_j for every table,
S_j = e^(-sigma*j*tau) S^_j with the untempered weights S^ built from the
l_j, exposed as ``untempered_weights``.  A table holds only the l_j and
forms its g_j when first read, so the time march, which reads only
``untempered_weights``, builds no g at all.  The j = 0 term multiplies the
unknown w^n in the implicit solve; the lagged part is evaluated by
:func:`apply_history`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .coefficients import CoefficientTable, FracParams, bdf_g_coefficients, check_order
from .errors import ParameterDomainError, check_count, parses_config


@dataclass(frozen=True)
class SingleTerm:
    """One fractional order; alpha = 1 admitted as the classical limit."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterDomainError(
                f"single-term order must lie in (0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class MultiTerm:
    """Positive combination sum_i b_i * D^(alpha_i) with decreasing orders."""

    terms: tuple[tuple[float, float], ...]   # (b_i, alpha_i)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ParameterDomainError("multi-term operator needs at least one term")
        prev = 1.0
        for b, alpha in self.terms:
            if not 0.0 < b < math.inf:
                raise ParameterDomainError(f"term weights must be finite and > 0, got {b!r}")
            if not 0.0 < alpha < 1.0:
                raise ParameterDomainError(
                    f"multi-term orders must lie in (0, 1), got {alpha!r}")
            if alpha >= prev:
                raise ParameterDomainError(
                    "multi-term orders must be strictly decreasing")
            prev = alpha


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals over the order variable on (0, 1)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        # Python floats: numpy scalars would print as np.float64(...) in messages.
        object.__setattr__(self, "nodes", tuple(map(float, self.nodes)))
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise ParameterDomainError("quadrature needs matching, nonempty nodes/weights")
        for a in self.nodes:
            if not 0.0 < a < 1.0:
                raise ParameterDomainError(
                    f"quadrature nodes must lie strictly inside (0, 1), got {a!r}")

    @staticmethod
    def gauss_legendre(n: int = 16) -> "QuadratureRule":
        """Gauss-Legendre rule mapped to (0, 1); interior nodes avoid the
        degenerate endpoints alpha = 0 (identity) and alpha = 1 (classical)."""
        n = check_count(n, "nodes", 1)
        xs, ws = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(nodes=(xs + 1.0) / 2.0, weights=ws / 2.0)


@dataclass(frozen=True)
class DistributedOrder:
    """Integral over orders with a nonnegative weight function."""

    weight: Callable[[float], float]
    quadrature: QuadratureRule


@dataclass(frozen=True)
class FractionalOperatorSpec:
    """A variant (single/multi/distributed) plus the shared tempering rate."""

    variant: SingleTerm | MultiTerm | DistributedOrder
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ParameterDomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")


def _constant_weight(c=1.0):
    c = float(c)
    return lambda alpha: c


def _power_weight(p=1.0, c=1.0):
    p, c = float(p), float(c)
    return lambda alpha: c * alpha ** p


#: Named weight functions for distributed-order problems.  Each entry maps
#: keyword parameters to a callable alpha -> weight.  The Dirac comb is not
#: listed here: a point-mass weight has no density, so configs request it
#: by name and it is realized exactly as the equivalent multi-term variant.
WEIGHT_FUNCTIONS: dict[str, Callable[..., Callable[[float], float]]] = {
    "constant": _constant_weight,
    "power": _power_weight,
}


@dataclass(frozen=True, eq=False)
class DiscreteTimeOperator:
    """Assembled discrete operator: sum_i scale_i * (g^(i) convolution)."""

    k: int
    tau: float
    sigma: float
    scales: tuple[float, ...]
    tables: tuple[CoefficientTable, ...]

    @cached_property
    def weights(self) -> np.ndarray:
        """Combined weights S_j = sum_i scale_i * g_j^(i), j = 0..J (read-only)."""
        S = sum(s * t.g for s, t in zip(self.scales, self.tables))
        S.setflags(write=False)
        return S

    @cached_property
    def untempered_weights(self) -> np.ndarray:
        """Combined untempered weights S^_j = sum_i scale_i * l_j^(i), so that
        S_j = e^(-sigma*j*tau) S^_j; S^_0 equals S_0 bitwise (read-only)."""
        S = sum(s * t.l for s, t in zip(self.scales, self.tables))
        S.setflags(write=False)
        return S


def _order_pairs(spec: FractionalOperatorSpec) -> list[tuple[float, float]]:
    """(b_i, alpha_i) of every order that takes part in ``spec``."""
    v = spec.variant
    if isinstance(v, SingleTerm):
        return [(1.0, v.alpha)]
    if isinstance(v, MultiTerm):
        return [(b, alpha) for b, alpha in v.terms]
    if isinstance(v, DistributedOrder):
        pairs = []
        for a, wq in zip(v.quadrature.nodes, v.quadrature.weights):
            mu = float(v.weight(a))
            if not 0.0 <= mu < math.inf:
                raise ParameterDomainError(
                    f"distributed-order weight must be finite and >= 0, "
                    f"got {mu!r} at alpha={a!r}")
            if wq * mu != 0.0:
                pairs.append((wq * mu, a))
        if not pairs:
            raise ParameterDomainError("distributed-order weight vanishes at all nodes")
        return pairs
    raise ParameterDomainError(f"unknown operator variant: {v!r}")


def discretize(spec: FractionalOperatorSpec, k: int, tau: float,
               N: int) -> DiscreteTimeOperator:
    """Assemble weight tables covering j = 0..N for every participating order."""
    check_order(k)
    if tau <= 0.0:
        raise ParameterDomainError(f"tau must be > 0, got {tau!r}")
    N = check_count(N, "N", 1)
    scales = []
    tables = []
    for b, alpha in _order_pairs(spec):
        params = FracParams(alpha=alpha, sigma=spec.sigma, tau=tau)
        scales.append(b * tau ** (-alpha))
        tables.append(bdf_g_coefficients(k, params, N))
    return DiscreteTimeOperator(k=k, tau=tau, sigma=spec.sigma,
                                scales=tuple(scales), tables=tuple(tables))


def apply_history(op: DiscreteTimeOperator, history, n: int):
    """Lagged part sum_{j=1}^{n} S_j w^(n-j) of the combined convolution.

    ``history`` holds w^0 .. w^(n-1) (oldest first); the j = 0 term is
    excluded since it belongs to the implicit solve.  Accepts scalar or
    vector states; returns the same shape as one state.
    """
    W = np.asarray(history, dtype=float)
    if W.shape[0] != n:
        raise ParameterDomainError(
            f"history must hold exactly n={n} states, got {W.shape[0]}")
    return op.weights[1:n + 1] @ W[::-1]


@parses_config
def operator_spec_from_dict(d: dict) -> FractionalOperatorSpec:
    """Build an operator spec from a parsed config mapping.

    Recognized layouts (unknown keys rejected)::

        {"variant": "single_term", "alpha": 0.5, "sigma": 0.0}
        {"variant": "multi_term", "terms": [[2.0, 0.8], [1.0, 0.3]], "sigma": 0.0}
        {"variant": "distributed_order", "weight": "constant",
         "weight_params": {"c": 1.0}, "nodes": 16, "sigma": 0.0}
        {"variant": "distributed_order", "weight": "dirac_comb",
         "weight_params": {"terms": [[2.0, 0.8], [1.0, 0.3]]}, "sigma": 0.0}

    A ``dirac_comb`` weight is realized exactly as the equivalent
    multi-term operator.
    """
    if not isinstance(d, dict) or "variant" not in d:
        raise ParameterDomainError("operator config must be a mapping with a 'variant' key")
    variant = d["variant"]
    sigma = float(d.get("sigma", 0.0))
    allowed = {
        "single_term": {"variant", "sigma", "alpha"},
        "multi_term": {"variant", "sigma", "terms"},
        "distributed_order": {"variant", "sigma", "weight", "weight_params", "nodes"},
    }
    if variant not in allowed:
        raise ParameterDomainError(f"unknown operator variant {variant!r}")
    unknown = set(d) - allowed[variant]
    if unknown:
        raise ParameterDomainError(f"unknown operator config keys: {sorted(unknown)}")
    if variant == "single_term":
        return FractionalOperatorSpec(SingleTerm(alpha=float(d["alpha"])), sigma=sigma)
    if variant == "multi_term":
        terms = tuple((float(b), float(a)) for b, a in d["terms"])
        return FractionalOperatorSpec(MultiTerm(terms=terms), sigma=sigma)
    name = d.get("weight", "constant")
    params = dict(d.get("weight_params", {}))
    if name == "dirac_comb":
        if set(params) - {"terms"} or "nodes" in d:
            raise ParameterDomainError(
                "a dirac_comb weight takes only the weight_params key 'terms' and no 'nodes'")
        terms = tuple((float(b), float(a)) for b, a in params.get("terms", ()))
        return FractionalOperatorSpec(MultiTerm(terms=terms), sigma=sigma)
    if name not in WEIGHT_FUNCTIONS:
        raise ParameterDomainError(
            f"unknown weight function {name!r}; known: "
            f"{sorted(WEIGHT_FUNCTIONS) + ['dirac_comb']}")
    weight = WEIGHT_FUNCTIONS[name](**params)
    rule = QuadratureRule.gauss_legendre(d.get("nodes", 16))
    return FractionalOperatorSpec(DistributedOrder(weight=weight, quadrature=rule),
                                  sigma=sigma)

"""Multiplier tuples and the composite convolution weights q_j.

For k >= 3 the BDF-k scheme is not A-stable, and the energy argument tests
the scheme against  v^n = w^n - sum_j mu_j e^(-sigma*j*tau) w^(n-j)  with a
fixed k-tuple (mu_1, ..., mu_k).  Writing

    mu(zeta) = 1 - mu_1 e^(-sigma*tau) zeta - ... - mu_k (e^(-sigma*tau) zeta)^k,

the composite series  q(zeta) = g(zeta)/mu(zeta)  has coefficients

    q_j = sum_{m=0}^{j} c_m g_{j-m},

where c_m are the power-series coefficients of 1/mu(zeta) (tempering
included).  The c_m are generated by formal power-series division, which
works for any multiplier tuple.  mu also splits into linear factors,

    mu(zeta) = prod_i (1 - c_i e^(-sigma*tau) zeta)^(m_i),

with c = 1/2 for k = 3, 4, c = 1/2 twice for k = 5 and c = 3/5, 1/2, 1/3
for k = 6 (:data:`_RECIPROCAL_FACTORS`).  So 1/mu is also the product of
the geometric series  sum_m (c_i e^(-sigma*tau))^m zeta^m.  That factor
product serves as a built-in consistency check of the division; it also
guards the factor table, which the argument sweep of
:mod:`fracbdf.stability` reads.

Orders 1 and 2 are A-stable as they stand; their multiplier tuple is empty
and 1/mu(zeta) == 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import CoefficientTable, FracParams, check_order
from .errors import InternalConsistencyError, ParameterDomainError, check_count

_MULTIPLIERS = {
    1: (),
    2: (),
    3: (Fraction(1, 2),),
    4: (Fraction(1, 2),),
    5: (Fraction(1), Fraction(-1, 4)),
    6: (Fraction(43, 30), Fraction(-2, 3), Fraction(1, 10)),
}

# Linear factors (c, multiplicity) with prod (1 - c*z)^mult == mu(z).
_RECIPROCAL_FACTORS = {
    1: (),
    2: (),
    3: ((Fraction(1, 2), 1),),
    4: ((Fraction(1, 2), 1),),
    5: ((Fraction(1, 2), 2),),
    6: ((Fraction(3, 5), 1), (Fraction(1, 2), 1), (Fraction(1, 3), 1)),
}

_DIVISION_CHECK_RTOL = 1e-13


@dataclass(frozen=True)
class MultiplierSet:
    """Multiplier tuple (mu_1, ..., mu_k), stored as exact rationals."""

    k: int
    mu: tuple[Fraction, ...]

    @property
    def mu_float(self) -> tuple[float, ...]:
        return tuple(float(m) for m in self.mu)


def multiplier_set(k: int) -> MultiplierSet:
    """The multiplier tuple for order k (empty for k = 1, 2)."""
    check_order(k)
    return MultiplierSet(k=k, mu=_MULTIPLIERS[k])


def _tempered_multipliers(k: int, damp: float) -> list[float]:
    """mu_j e^(-sigma*j*tau) for j = 1..k, with damp = e^(-sigma*tau)."""
    return [float(m) * damp ** j for j, m in enumerate(_MULTIPLIERS[k], start=1)]


def _factor_series(k: int, damp: float, J: int) -> np.ndarray:
    """c_0..c_J of 1/mu as the product of its factors' geometric series:
    one ``np.convolve`` with sum_m (c*damp)^m z^m per factor and
    multiplicity, cut to J + 1 terms."""
    powers = np.arange(J + 1)
    out = np.zeros(J + 1)
    out[0] = 1.0
    for c, mult in _RECIPROCAL_FACTORS[k]:
        for _ in range(mult):
            out = np.convolve(out, (float(c) * damp) ** powers)[:J + 1]
    return out


@dataclass(frozen=True)
class ReciprocalSeries:
    """Tempered power-series coefficients c_0..c_J of 1/mu(zeta)."""

    k: int
    params: FracParams
    c: np.ndarray


def reciprocal_series(k: int, params: FracParams, J: int) -> ReciprocalSeries:
    """Expand 1/mu(zeta) to order J by formal power-series division.

    The result is cross-checked entry by entry against the factor product
    (:func:`_factor_series`); disagreement beyond 1e-13 relative raises
    :class:`InternalConsistencyError`, since both sides come from
    hard-coded tables (the multipliers and their factors) that cannot
    legitimately drift apart.
    """
    check_order(k)
    J = check_count(J, "J", 0)
    damp = params.damping
    mu_w = _tempered_multipliers(k, damp)
    c = [1.0]
    for m in range(1, J + 1):
        acc = 0.0
        for j, mw in enumerate(mu_w, start=1):
            if j > m:
                break
            acc += mw * c[m - j]
        c.append(acc)
    c = np.array(c)
    ref = _factor_series(k, damp, J)
    ok = np.abs(c - ref) <= _DIVISION_CHECK_RTOL * np.maximum(1.0, np.abs(ref))
    if not ok.all():                    # a NaN fails too
        m = int(np.argmin(ok))
        raise InternalConsistencyError(
            f"reciprocal series mismatch at k={k}, m={m}: "
            f"division {float(c[m])!r} vs factor product {float(ref[m])!r}")
    c.setflags(write=False)
    return ReciprocalSeries(k=k, params=params, c=c)


@dataclass(frozen=True)
class QTable:
    """Composite convolution weights q_0..q_J of g(zeta)/mu(zeta)."""

    k: int
    params: FracParams
    q: np.ndarray

    @property
    def J(self) -> int:
        return len(self.q) - 1


def q_coefficients(table: CoefficientTable, mults: MultiplierSet, J: int) -> QTable:
    """Convolve the tempered reciprocal series with the g-weights."""
    if mults.k != table.k:
        raise ParameterDomainError(
            f"order mismatch: table has k={table.k}, multipliers have k={mults.k}")
    if table.J < J:
        raise ParameterDomainError(
            f"coefficient table covers j <= {table.J}, need j <= {J}")
    c = reciprocal_series(table.k, table.params, J).c
    q = np.convolve(c, table.g[:J + 1])[:J + 1]
    q.setflags(write=False)
    return QTable(k=table.k, params=table.params, q=q)

"""Multiplier tuples and the composite convolution weights q_j.

For k >= 3 the BDF-k scheme is not A-stable, and the energy argument tests
the scheme against  v^n = w^n - sum_j mu_j e^(-sigma*j*tau) w^(n-j)  with a
fixed k-tuple (mu_1, ..., mu_k).  Writing

    mu(zeta) = 1 - mu_1 e^(-sigma*tau) zeta - ... - mu_k (e^(-sigma*tau) zeta)^k,

the composite series  q(zeta) = g(zeta)/mu(zeta)  has coefficients

    q_j = sum_{m=0}^{j} c_m g_{j-m},

where c_m are the power-series coefficients of 1/mu(zeta) (tempering
included).  The c_m are generated by formal power-series division, which
works for any multiplier tuple; closed forms are known per order and serve
as a built-in consistency check:

    k = 3, 4 :  c_m = (1/2)^m                      * e^(-sigma*m*tau)
    k = 5    :  c_m = (m+1)/2^m                    * e^(-sigma*m*tau)
    k = 6    :  c_m = (243*18^(m-1) - 15^(m+1) + 25*10^(m-1)) / 30^m
                                                   * e^(-sigma*m*tau)

Orders 1 and 2 are A-stable as they stand; their multiplier tuple is empty
and 1/mu(zeta) == 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import CoefficientTable, FracParams, check_order
from .errors import InternalConsistencyError, ParameterDomainError

_MULTIPLIERS = {
    1: (),
    2: (),
    3: (Fraction(1, 2),),
    4: (Fraction(1, 2),),
    5: (Fraction(1), Fraction(-1, 4)),
    6: (Fraction(43, 30), Fraction(-2, 3), Fraction(1, 10)),
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


def _closed_form_ratio(k: int, m: int) -> tuple[int, int]:
    """Untempered reciprocal coefficient c_m for k in {3,...,6} as an
    integer numerator and denominator (not reduced)."""
    if k in (3, 4):
        return 1, 2 ** m
    if k == 5:
        return m + 1, 2 ** m
    if k == 6:
        if m == 0:
            return 1, 1
        return 243 * 18 ** (m - 1) - 15 ** (m + 1) + 25 * 10 ** (m - 1), 30 ** m
    raise ParameterDomainError(f"no closed-form reciprocal for k={k}")


@dataclass(frozen=True)
class ReciprocalSeries:
    """Tempered power-series coefficients c_0..c_J of 1/mu(zeta)."""

    k: int
    params: FracParams
    c: np.ndarray


def reciprocal_series(k: int, params: FracParams, J: int) -> ReciprocalSeries:
    """Expand 1/mu(zeta) to order J by formal power-series division.

    For k >= 3 the result is cross-checked entry by entry against the
    closed forms; disagreement beyond 1e-13 relative raises
    :class:`InternalConsistencyError` since both sides are hard-coded
    constants that cannot legitimately drift apart.
    """
    check_order(k)
    if J < 0:
        raise ParameterDomainError(f"J must be >= 0, got {J!r}")
    mults = multiplier_set(k)
    damp = params.damping
    mu_w = [float(m) * damp ** j for j, m in enumerate(mults.mu, start=1)]
    c = [1.0]
    for m in range(1, J + 1):
        acc = 0.0
        for j, mw in enumerate(mu_w, start=1):
            if j > m:
                break
            acc += mw * c[m - j]
        c.append(acc)
    if mults.mu:
        for m in range(J + 1):
            num, den = _closed_form_ratio(k, m)
            ref = num / den * damp ** m         # int / int is correctly rounded
            if abs(c[m] - ref) > _DIVISION_CHECK_RTOL * max(1.0, abs(ref)):
                raise InternalConsistencyError(
                    f"reciprocal series mismatch at k={k}, m={m}: "
                    f"division {c[m]!r} vs closed form {ref!r}")
    c = np.array(c)
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

"""Multiplier tuples and the composite convolution weights q_j.

For k >= 3 the BDF-k scheme is not A-stable, and the energy argument tests
the scheme against  v^n = w^n - sum_j mu_j e^(-sigma*j*tau) w^(n-j)  with a
fixed k-tuple (mu_1, ..., mu_k).  Writing

    mu(zeta) = 1 - mu_1 e^(-sigma*tau) zeta - ... - mu_k (e^(-sigma*tau) zeta)^k,

a series x(zeta) divided by mu(zeta) has the coefficients of the recurrence

    y_m = x_m + sum_{j=1}^{min(m, k)} mu_j e^(-sigma*j*tau) y_(m-j),

O(k) operations a term for any multiplier tuple.  On the unit impulse it
gives the coefficients c_m of 1/mu(zeta); on the g-weights, the composite
series q(zeta) = g(zeta)/mu(zeta).  mu also splits into linear factors,

    mu(zeta) = prod_i (1 - c_i e^(-sigma*tau) zeta)^(m_i),

with c = 1/2 for k = 3, 4, c = 1/2 twice for k = 5 and c = 3/5, 1/2, 1/3
for k = 6 (:data:`_RECIPROCAL_FACTORS`), so the division is also a cascade
of first-order ones, y_m = x_m + c_i e^(-sigma*tau) y_(m-1).  That factor
cascade checks both c and q; it also guards the factor table, which the
argument sweep of :mod:`fracbdf.stability` reads.

Orders 1 and 2 are A-stable as they stand; their multiplier tuple is empty,
1/mu(zeta) == 1 and q == g.
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


def _factor_cascade(x: np.ndarray, k: int, damp: float) -> np.ndarray:
    """x/mu as a cascade of first-order divisions y_m = x_m + c*damp*y_(m-1),
    one per factor of mu and multiplicity."""
    y = x.tolist()
    for c, mult in _RECIPROCAL_FACTORS[k]:
        r = float(c) * damp
        for _ in range(mult):
            for m in range(1, len(y)):
                y[m] += r * y[m - 1]
    return np.array(y)


def _divide_by_mu(x: np.ndarray, k: int, damp: float) -> np.ndarray:
    """x/mu by the recurrence y_m = x_m + sum_j mu_j damp^j y_(m-j), read-only.

    Checked entry by entry against the factor cascade; disagreement beyond
    1e-13 relative raises :class:`InternalConsistencyError`, since both sides
    come from hard-coded tables that cannot legitimately drift apart."""
    taps = list(enumerate(_tempered_multipliers(k, damp), start=1))
    y = []
    for m, acc in enumerate(x.tolist()):
        for j, mw in taps[:m]:
            acc += mw * y[m - j]
        y.append(acc)
    y = np.array(y)
    ref = _factor_cascade(x, k, damp)
    ok = np.abs(y - ref) <= _DIVISION_CHECK_RTOL * np.maximum(1.0, np.abs(ref))
    if not ok.all():                    # a NaN fails too
        m = int(np.argmin(ok))
        raise InternalConsistencyError(
            f"division by mu mismatch at k={k}, m={m}: "
            f"recurrence {float(y[m])!r} vs factor cascade {float(ref[m])!r}")
    y.setflags(write=False)
    return y


@dataclass(frozen=True, eq=False)
class ReciprocalSeries:
    """Tempered power-series coefficients c_0..c_J of 1/mu(zeta)."""

    k: int
    params: FracParams
    c: np.ndarray


def reciprocal_series(k: int, params: FracParams, J: int) -> ReciprocalSeries:
    """Expand 1/mu(zeta) to order J: the division of the unit impulse by mu,
    checked against the factor cascade (:func:`_divide_by_mu`)."""
    check_order(k)
    J = check_count(J, "J", 0)
    impulse = np.zeros(J + 1)
    impulse[0] = 1.0
    return ReciprocalSeries(k=k, params=params, c=_divide_by_mu(impulse, k, params.damping))


@dataclass(frozen=True, eq=False)
class QTable:
    """Composite convolution weights q_0..q_J of g(zeta)/mu(zeta)."""

    k: int
    params: FracParams
    q: np.ndarray

    @property
    def J(self) -> int:
        return len(self.q) - 1


def q_coefficients(table: CoefficientTable, mults: MultiplierSet, J: int) -> QTable:
    """Divide the g-weights by the tempered mu, checked against the factor
    cascade (:func:`_divide_by_mu`).  The factors exist only for the tabulated
    tuples, so ``mults`` must be ``multiplier_set(table.k)``: any other tuple
    raises ParameterDomainError."""
    J = check_count(J, "J", 0)
    if mults.k != table.k:
        raise ParameterDomainError(
            f"order mismatch: table has k={table.k}, multipliers have k={mults.k}")
    if tuple(mults.mu) != _MULTIPLIERS[mults.k]:
        raise ParameterDomainError(
            f"q is tabulated only for the multipliers of multiplier_set({mults.k}), "
            f"got mu={tuple(str(m) for m in mults.mu)}")
    if table.J < J:
        raise ParameterDomainError(
            f"coefficient table covers j <= {table.J}, need j <= {J}")
    q = _divide_by_mu(table.g[:J + 1], table.k, table.params.damping)
    return QTable(k=table.k, params=table.params, q=q)

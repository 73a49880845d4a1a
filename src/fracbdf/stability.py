"""Numerical certification of the positivity and A-stability properties.

Two quantitative properties underpin the energy analysis of the multiplier
scheme:

* Positivity (P).  The trigonometric polynomial
  1 - sum_j mu_j e^(-sigma*j*tau) cos(jx)  must be strictly positive.  It
  splits as  c_k + f(x)  where f is the generating function of the
  symmetrized band Toeplitz matrix built from the multipliers and c_k is
  the energy constant (1/2, 1/2, 1/4, 1/24 for k = 3..6).  The
  Grenander-Szego theorem sandwiches the Toeplitz eigenvalues between the
  extrema of f, so a nonnegative f certifies the quadratic-form lower
  bound  sum_n <w^n, w^n - sum_j mu_j e^(-sigma*j*tau) w^(n-j)>
  >= c_k sum_n ||w^n||^2.

* A-stability (A).  The composite series q(zeta) = g(zeta)/mu(zeta) must
  satisfy |arg q| <= pi/2 on the unit circle, equivalently Re q >= 0,
  which in turn makes the convolution quadratic form
  sum_n (sum_j q_j v^(n-j), v^n) nonnegative.  The argument is computed
  from the factored form

      q = (1 - z)^alpha * R_k(z)^alpha / prod_i (1 - c_i z)^(m_i),
      z = e^(-sigma*tau) e^(ix),

  as  alpha*theta_1 + alpha*theta_2 + (reciprocal-factor angles), which is
  continuous on (0, pi] and avoids principal-branch ambiguity.  The linear
  factors (c_i, m_i) of mu come from the factor table of
  :mod:`fracbdf.multipliers`, where every reciprocal series checks them
  against mu itself.

Everything here is checked two ways where possible: closed-form extremum
locations against exact critical points in y = cos x (companion-matrix
roots of f'(y), Newton-polished), Toeplitz eigenvalues against the
generating-function sandwich, and the argument bound against the exact
minimum of the convolution quadratic form.

The quadratic forms are certified exactly, not sampled: the minimum of
sum_n <w^n, sum_j t_j w^(n-j)> over unit-norm sequences of length N is the
smallest eigenvalue of the symmetric Toeplitz section (t_0, t_1/2, ...).
One kernel, :func:`_section_extremes`, serves the eigenvalue sandwich, the
energy inequality and the q quadratic form.  It splits the centrosymmetric
section into two half-size symmetric blocks for numpy's ``eigvalsh``; only
multiplier bands longer than ``_DENSE_MAX_N`` use ``scipy.linalg``, in band
storage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import _residual_coefficients, check_alpha, check_order, check_sigma_tau
from .errors import (GridTooCoarseError, InternalConsistencyError, ParameterDomainError,
                     check_count, check_tolerance)
from .multipliers import _RECIPROCAL_FACTORS, QTable, _tempered_multipliers
from .special import _standard_normal

#: Energy constants c_k of the multiplier lower bound.
ENERGY_CONSTANTS = {3: Fraction(1, 2), 4: Fraction(1, 2),
                    5: Fraction(1, 4), 6: Fraction(1, 24)}


def _check_multiplier_order(k: int) -> int:
    check_order(k)
    if k < 3:
        raise ParameterDomainError(
            f"multiplier-based stability analysis applies to k in (3..6), got {k}")
    return k


# ---------------------------------------------------------------------------
# Positivity side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPolynomial:
    """Even trigonometric polynomial t_0 + sum_j t_j cos(jx)."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.coeffs[0])
        for j, t in enumerate(self.coeffs[1:], start=1):
            out += t * np.cos(j * x)
        return out


def positivity_generating_function(k: int, sigma: float = 0.0,
                                   tau: float = 1.0) -> TrigPolynomial:
    """Generating function of the symmetrized multiplier band matrix.

    f(x) = d_k - sum_j mu_j e^(-sigma*j*tau) cos(jx) with the per-order
    diagonal d_k = 1 - c_k.
    """
    _check_multiplier_order(k)
    check_sigma_tau(sigma, tau)
    coeffs = [float(1 - ENERGY_CONSTANTS[k])]
    coeffs += [-m for m in _tempered_multipliers(k, math.exp(-sigma * tau))]
    return TrigPolynomial(tuple(coeffs))


def _newton_polish(coeffs_desc, x0: float) -> float:
    p = np.asarray(coeffs_desc, dtype=float)
    dp = np.polyder(p)
    x = float(x0)
    for _ in range(4):
        d = np.polyval(dp, x)
        if d == 0.0:
            break
        x -= np.polyval(p, x) / d
    return x


def _real_roots_in(coeffs_desc, lo: float, hi: float) -> list[float]:
    """Real roots inside (lo, hi): companion-matrix eigenvalues with
    |imaginary part| < 1e-8, polished."""
    roots = np.roots(np.asarray(coeffs_desc, dtype=float))
    out = []
    for r in roots:
        if abs(r.imag) < 1e-8 and lo < r.real < hi:
            out.append(_newton_polish(coeffs_desc, r.real))
    return sorted(out)


def _extremum_candidates(p_desc) -> list[float]:
    """Where a polynomial can take its extrema on [-1, 1]: both ends and the
    real critical points inside (:func:`_real_roots_in`)."""
    dp = np.polyder(np.asarray(p_desc, dtype=float))
    return [-1.0, *_real_roots_in(dp, -1.0, 1.0), 1.0]


def _cheb2poly(c) -> np.ndarray:
    """Power-series coefficients, low degree first, of the Chebyshev series
    c: the loop of numpy's ``cheb2poly`` with its operations in its order,
    so bitwise its result, without loading ``numpy.polynomial``.  Trailing
    zeros of c are dropped first, as there; no later leading term vanishes."""
    c = np.array(c, dtype=float, ndmin=1)
    c = c[:max(np.flatnonzero(c), default=0) + 1]
    if len(c) < 3:
        return c
    c0, c1 = c[-2:-1], c[-1:]
    for i in range(len(c) - 1, 1, -1):       # i is the degree of c1
        tmp, c0 = c0, -c1
        c0[0] += c[i - 2]
        c1 = np.concatenate(([c1[0] * 0], c1)) * 2
        c1[:len(tmp)] += tmp
    c1 = np.concatenate(([c1[0] * 0], c1))
    c1[:len(c0)] += c0
    return c1


def _trig_candidates(f: TrigPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Points x in [0, pi] where f can take its extrema, and f there.

    cos(jx) = T_j(cos x), so f is the Chebyshev series sum_j t_j T_j(y) in
    y = cos x; its extrema lie at y = +-1 or at real roots of f'(y).  The
    values come from the cos form of f itself.
    """
    p = _cheb2poly(f.coeffs)[::-1]
    x = np.arccos(np.clip(_extremum_candidates(p), -1.0, 1.0))
    return x, f(x)


def trig_min(f: TrigPolynomial) -> tuple[float, float]:
    """Global minimum (x, f(x)) of an even trig polynomial over [0, pi]."""
    x, v = _trig_candidates(f)
    i = int(np.argmin(v))
    return float(x[i]), float(v[i])


#: Largest N at which a multiplier band is solved through the dense halves
#: of :func:`_centro_halves` (numpy alone) rather than in band storage.  At
#: N = 512 the two halves hold 1 MiB and take ~10 ms (~5 ms banded, one BLAS
#: thread on a 2-core Xeon VM); above it their O(N^3) cost falls further
#: behind the O(N^2) band reduction of ``eigvals_banded``, which keeps
#: ``fracbdf toeplitz --k 6 --N 4000`` under a second and its failing
#: witness (:func:`_band_witness`) under two.
_DENSE_MAX_N = 512


def _centro_halves(col: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and skew halves of the symmetric Toeplitz section of
    order N with first column ``col`` (zero beyond its length): the blocks
    acting on its symmetric and skew-symmetric eigenvectors.

    A symmetric Toeplitz matrix is centrosymmetric, so the orthogonal
    Q = [[I, 0, I], [0, sqrt2, 0], [J, 0, -J]] / sqrt2 (no middle row for
    even N; J the exchange) splits it into these two blocks (Cantoni and
    Butler, Linear Algebra Appl. 13, 1976).  With m = N // 2 and i, j < m
    they are c_|i-j| +- c_(N-1-i-j); for odd N the symmetric half has the
    border sqrt2 * c_(m-i) and the corner c_0.
    """
    c = np.zeros(N)
    c[:len(col)] = col
    m = N // 2
    i = np.arange(m)
    near = c[np.abs(i[:, None] - i)]
    far = c[N - 1 - i[:, None] - i]
    sym, skew = near + far, near - far
    if N % 2:
        border = math.sqrt(2.0) * c[m - i]
        sym = np.block([[sym, border[:, None]], [border, c[:1]]])
    return sym, skew


def _section_extremes(t, N: int, witness_below: float = -math.inf):
    """(lambda_min, lambda_max, v) of the form sum_n <w^n, sum_j t_j w^(n-j)>
    on length-N sequences, i.e. of the symmetric Toeplitz section with first
    column (t_0, t_1/2, ..., t_(N-1)/2); v is the unit lambda_min
    eigenvector if lambda_min < ``witness_below``, else None.

    Every q section, and every multiplier band (bandwidth <= 3) of order
    N <= ``_DENSE_MAX_N``, is solved by numpy on the two centrosymmetric
    halves of :func:`_centro_halves`: the extremes are those over both
    halves, and the witness is the ``eigh`` vector of the half holding
    lambda_min, lifted back by Q.  Longer bands stay in band storage with
    ``scipy.linalg.eigvals_banded`` and no N x N matrix, the witness by
    inverse iteration (:func:`_band_witness`).
    """
    t = np.asarray(t, dtype=float)[:N]
    col = np.concatenate((t[:1], t[1:] / 2.0))
    bw = len(col) - 1
    if bw <= 3 and N > _DENSE_MAX_N:
        from scipy.linalg import eigvals_banded

        band = np.zeros((bw + 1, N))
        for j, c in enumerate(col):
            band[bw - j, j:] = c
        lo = eigvals_banded(band, select="i", select_range=(0, 0))[0]
        hi = eigvals_banded(band, select="i", select_range=(N - 1, N - 1))[0]
        vec = _band_witness(band, lo, max(abs(lo), abs(hi))) if lo < witness_below else None
        return float(lo), float(hi), vec
    m = N // 2
    sym, skew = _centro_halves(col, N)
    ev_sym = np.linalg.eigvalsh(sym)
    ev_skew = np.linalg.eigvalsh(skew) if m else ev_sym
    lo, hi = min(ev_sym[0], ev_skew[0]), max(ev_sym[-1], ev_skew[-1])
    vec = None
    if lo < witness_below:
        symmetric = ev_sym[0] <= ev_skew[0]
        y = np.linalg.eigh(sym if symmetric else skew)[1][:, 0]
        vec = np.zeros(N)
        vec[:m] = y[:m] / math.sqrt(2.0)
        vec[N - m:] = (1.0 if symmetric else -1.0) * vec[:m][::-1]
        if symmetric and N % 2:
            vec[m] = y[m]
    return float(lo), float(hi), vec


#: Most inverse-iteration solves for one witness; a handful suffice unless
#: lambda_min is nearly degenerate, when any vector of the cluster will do.
_WITNESS_SOLVES = 50


def _band_witness(band: np.ndarray, lo: float, norm: float) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue ``lo`` < 0 of the
    symmetric matrix in upper band storage ``band``, whose 2-norm is ``norm``.

    Inverse iteration: the matrix shifted to lo - delta, delta = 1e-12 norm
    (far above the error of lo, so the shifted matrix is definite), is
    factored once by banded Cholesky, and each solve multiplies every other
    eigencomponent by at most delta / (its gap + delta) relative to lo's.
    O(N) per solve; no N x N matrix is formed.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded

    shifted = band.copy()
    shifted[-1] -= lo - 1e-12 * norm
    fac = (cholesky_banded(shifted), False)
    v = _standard_normal(0, band.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(_WITNESS_SOLVES):
        x = cho_solve_banded(fac, v)
        x /= np.linalg.norm(x)
        step = np.linalg.norm(x - math.copysign(1.0, x @ v) * v)
        v = x
        if step <= 1e-10:
            break
    return v


@functools.lru_cache(maxsize=8)      # the sandwich check's 4 orders x 2 sigma*tau
def _symbol_extrema(k: int, sigma: float, tau: float) -> tuple[float, float]:
    _, v = _trig_candidates(positivity_generating_function(k, sigma, tau))
    return float(v.min()), float(v.max())


@dataclass(frozen=True)
class ToeplitzEigenCheck:
    """Eigenvalue sandwich record for one symmetrized band matrix."""

    k: int
    sigma: float
    tau: float
    N: int
    lambda_min: float
    lambda_max: float
    f_min: float
    f_max: float
    tol: float

    @property
    def sandwiched(self) -> bool:
        return (self.f_min - self.tol <= self.lambda_min
                and self.lambda_max <= self.f_max + self.tol)

    @property
    def positive_definite(self) -> bool:
        return self.lambda_min > 0.0


def toeplitz_eigencheck(k: int, sigma: float, tau: float, N: int,
                        tol: float = 1e-10) -> ToeplitzEigenCheck:
    """Verify f_min <= lambda_min <= lambda_max <= f_max for the
    symmetrized band matrix of dimension N: two dense half-size blocks for
    N <= ``_DENSE_MAX_N``, band storage with no N x N matrix above it.

    A violation beyond ``tol`` (a finite real >= 0) raises
    InternalConsistencyError: the sandwich is a theorem for these matrices
    (for N <= k it follows by Cauchy interlacing with a larger section), so
    failure means a bug.
    """
    band = positivity_generating_function(k, sigma, tau).coeffs
    N = check_count(N, "N", 1)
    tol = check_tolerance(tol, "tol")
    lam_min, lam_max, _ = _section_extremes(band, N)
    f_min, f_max = _symbol_extrema(k, sigma, tau)
    result = ToeplitzEigenCheck(k=k, sigma=sigma, tau=tau, N=N,
                                lambda_min=lam_min, lambda_max=lam_max,
                                f_min=f_min, f_max=f_max, tol=tol)
    if not result.sandwiched:
        raise InternalConsistencyError(
            f"eigenvalue sandwich violated for k={k}, N={N}: "
            f"[{result.lambda_min}, {result.lambda_max}] vs "
            f"[{f_min}, {f_max}] (tol {tol})")
    return result


@dataclass(frozen=True)
class EnergyCheck:
    """Exact minimum of the multiplier energy inequality's slack."""

    k: int
    min_slack: float
    tol: float
    witness: np.ndarray | None

    @property
    def verdict(self) -> bool:
        return self.min_slack >= -self.tol


def multiplier_energy_check(k: int, sigma: float = 0.0, tau: float = 1.0,
                            N: int = 50, trials: int = 1000, seed: int = 0,
                            tol: float = 1e-10) -> EnergyCheck:
    """Exact minimum of sum_n <w^n, w^n - sum_j mu_j e^(-sigma*j*tau) w^(n-j)>
    minus c_k sum_n |w^n|^2 over all w^1..w^N with sum_n |w^n|^2 = N:
    lambda_min * N of the symmetrized band.  The states may lie in any
    Hilbert space; the minimum is the same in every dimension.

    A negative minimum beyond ``tol`` (a finite real >= 0) would contradict
    the Toeplitz analysis; the lambda_min eigenvector is then the witness.
    ``trials`` and ``seed`` are accepted and unused.
    """
    band = positivity_generating_function(k, sigma, tau).coeffs
    N = check_count(N, "N", 1)
    tol = check_tolerance(tol, "tol")
    lam_min, _, vec = _section_extremes(band, N, witness_below=-tol / N)
    return EnergyCheck(k=k, min_slack=lam_min * N, tol=tol, witness=vec)


@dataclass(frozen=True)
class QuadraticFormCheck:
    """Exact minimum of the convolution quadratic form."""

    k: int
    min_value: float
    min_scaled: float
    tol: float
    witness: np.ndarray | None

    @property
    def verdict(self) -> bool:
        return self.min_scaled >= -self.tol


def quadrature_positivity_check(q: QTable, N: int, trials: int = 1000,
                                seed: int = 0, tol: float = 1e-10) -> QuadraticFormCheck:
    """Exact minimum of sum_n (sum_{j<n} q_j v^(n-j), v^n) over all
    v^1..v^N, in any Hilbert space, checked nonnegative up to the
    tolerance ``tol`` (a finite real >= 0) scaled by sum_j |q_j|.

    ``min_value`` is lambda_min * N (sum_n |v^n|^2 = N) and ``min_scaled``
    is lambda_min / sum_j |q_j|; on failure the lambda_min eigenvector is
    the witness.  This is the discrete consequence of |arg q| <= pi/2 that
    the solver's energy estimate rests on.  ``trials`` and ``seed`` are
    accepted and unused.
    """
    N = check_count(N, "N", 1)
    tol = check_tolerance(tol, "tol")
    if q.J < N - 1:
        raise ParameterDomainError(f"q covers j <= {q.J}, need j <= {N - 1}")
    scale = float(np.abs(q.q[:N]).sum())
    lam_min, _, vec = _section_extremes(q.q, N, witness_below=-tol * scale)
    return QuadraticFormCheck(k=q.k, min_value=lam_min * N,
                              min_scaled=lam_min / scale if scale else 0.0,
                              tol=tol, witness=vec)


# ---------------------------------------------------------------------------
# A-stability side: factored argument of q on the unit circle
# ---------------------------------------------------------------------------

def _residual_values(k: int, z: np.ndarray) -> np.ndarray:
    """R_k(z), by Horner's rule on :func:`_residual_coefficients`."""
    coeffs = _residual_coefficients(k)
    out = np.full_like(z, coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        out = out * z + c
    return out


def _factored_angles(k: int, x: np.ndarray, damp: float):
    """Component angles of the factored q at z = damp * e^(ix).

    Returns (theta1, theta2, recip) where theta1 = arg(1 - z), theta2 is
    the continuous argument of the residual polynomial, and recip holds
    one angle array per distinct reciprocal linear factor (multiplicity
    folded in).  At damp == 1, theta1 uses the closed form (x - pi)/2,
    which extends continuously to x = 0 where arg(1 - z) is undefined.
    """
    x = np.asarray(x, dtype=float)
    z = damp * np.exp(1j * x)
    if damp == 1.0:
        theta1 = (x - math.pi) / 2.0
    else:
        theta1 = np.angle(1.0 - z)
    theta2 = np.unwrap(np.angle(_residual_values(k, z)))
    recip = tuple(-mult * np.angle(1.0 - float(c) * z)
                  for c, mult in _RECIPROCAL_FACTORS[k])
    return theta1, theta2, recip


@functools.lru_cache(maxsize=1)
def _sweep_angles(k: int, damp: float, grid_size: int):
    """Grid x of :func:`argument_sweep` and its factored angles at
    z = damp * e^(ix), as read-only arrays (x, theta1, theta2, recip).

    None of them depends on alpha, so one evaluation serves every alpha
    at the same (k, sigma*tau, grid_size).  One entry, at most six
    grid-sized arrays, is kept: callers that sweep several alphas, such as
    the series-certify workload of ``bench/workloads.py`` (five at each
    (k, sigma*tau)), run them all at one (k, sigma*tau) before moving on.
    """
    x = np.linspace(math.pi / grid_size, math.pi, grid_size)
    theta1, theta2, recip = _factored_angles(k, x, damp)
    for a in (x, theta1, theta2) + recip:
        a.setflags(write=False)
    return x, theta1, theta2, recip


@dataclass(frozen=True, eq=False)
class ArgumentSweep:
    """Argument of q(e^(ix)) traced over a grid in (0, pi]."""

    k: int
    alpha: float
    sigma: float
    tau: float
    grid: np.ndarray
    arg_values: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    reciprocal_angles: tuple[np.ndarray, ...]
    max_arg: float
    min_arg: float
    limit_at_zero: float

    @property
    def max_abs_arg(self) -> float:
        return max(abs(self.max_arg), abs(self.min_arg))


def argument_sweep(k: int, alpha: float, sigma: float = 0.0, tau: float = 1.0,
                   grid_size: int = 8192) -> ArgumentSweep:
    """Trace arg q(e^(ix)) over x in (0, pi] via the factored decomposition.

    x = 0 is excluded: at sigma = 0 the series g vanishes at zeta = 1 and
    the argument is undefined there; the one-sided limit -alpha*pi/2 is
    recorded separately.  Any residual jump above pi/2 between adjacent
    grid points raises GridTooCoarseError.

    The grid and the component angles do not depend on alpha; they are
    computed once per (k, sigma*tau, grid_size) and shared, read-only,
    by the sweeps of every alpha (:func:`_sweep_angles`).
    """
    _check_multiplier_order(k)
    check_alpha(alpha)
    check_sigma_tau(sigma, tau)
    grid_size = check_count(grid_size, "grid_size", 16)
    x, theta1, theta2, recip = _sweep_angles(k, math.exp(-sigma * tau), grid_size)
    arg = alpha * theta1 + alpha * theta2 + sum(recip)
    jump = float(np.max(np.abs(np.diff(arg))))
    if jump > math.pi / 2.0:
        raise GridTooCoarseError(
            f"argument jump {jump:.3f} > pi/2 between grid points "
            f"(k={k}, alpha={alpha}, grid_size={grid_size})")
    limit = -alpha * math.pi / 2.0 if sigma * tau == 0.0 else 0.0
    arg.setflags(write=False)
    return ArgumentSweep(k=k, alpha=alpha, sigma=sigma, tau=tau, grid=x,
                         arg_values=arg, theta1=theta1, theta2=theta2,
                         reciprocal_angles=recip,
                         max_arg=float(arg.max()), min_arg=float(arg.min()),
                         limit_at_zero=limit)


# ---------------------------------------------------------------------------
# Reference extremum constants of the argument bound analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremumRecord:
    """One verified constant: an extremum value against its bound."""

    name: str
    y: float | None
    x: float | None
    value: float
    bound: float
    kind: str                    # "above" / "below": one-sided bound; "root": |value| <= bound
    y_ref: float | None = None
    x_ref: float | None = None

    @property
    def satisfied(self) -> bool:
        if self.kind == "above":
            return self.value > self.bound
        if self.kind == "below":
            return self.value < self.bound
        return abs(self.value) <= self.bound

    @property
    def margin(self) -> float:
        if self.kind == "above":
            return self.value - self.bound
        if self.kind == "below":
            return self.bound - self.value
        return self.bound - abs(self.value)

    def location_error(self) -> float:
        if self.y_ref is None or self.y is None:
            return 0.0
        return abs(self.y - self.y_ref)


@dataclass(frozen=True)
class ExtremaReport:
    """All verified constants for one order, plus boundary angle values."""

    k: int
    records: tuple[ExtremumRecord, ...]
    angle_at_zero: float
    angle_at_pi: float

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)


# Derivative numerators h(y), y = cos x, of the untempered composite angle
# sum; their roots in (-1, 1) locate the interior critical points.
_SLOPE_NUMERATOR = {
    3: (-88, 262, -230, 65),
    4: (450, -1601, 1949, -862, 82),
    5: (-9864, 42348, -66272, 43988, -8407, -1343),
    6: (793800, -6314580, 20885463, -37146627, 38067828,
        -21920022, 5908998, -72525, -199635),
}

# Reference root locations (y, x) and the interior-minimum bounds.
_SLOPE_ROOT_REFS = {
    4: ((0.1288, 1.4416), (0.76042, 0.7068)),
    5: ((-0.0996, 1.6705), (0.6531, 0.8591)),
    6: ((-0.1391, 1.7103), (0.5015, 1.0455)),
}
_INTERIOR_MIN_BOUND = {4: -1.37, 5: -1.33, 6: -1.566}

# k = 6 reciprocal-angle slope numerator and its reference root, bounding
# delta(x) = theta3 + theta4 + theta5 away from pi/2.
_RECIP_SLOPE_NUMERATOR = (135, -429, 420, -120)
_RECIP_SLOPE_ROOT_REF = (0.5041, 1.0425)
_RECIP_MAX_BOUND = 1.5

# k = 6 band-minimum cubic in xi = cos x and its closed-form minimizer.
_BAND_MIN_CUBIC = (Fraction(-2, 5), Fraction(4, 3), Fraction(-17, 15), Fraction(7, 24))
_BAND_MIN_BOUND = 0.004785

# k = 3 slope-numerator cubic minimum: positive slope certificate.
_SLOPE_MIN_BOUND_K3 = 2.02


def composite_angle(k: int, x) -> np.ndarray:
    """Untempered composite angle theta1 + theta2 + reciprocal angles.

    This is the alpha -> 1 worst case of arg q at sigma = 0, defined (by
    continuous extension) on the closed interval [0, pi].
    """
    _check_multiplier_order(k)
    theta1, theta2, recip = _factored_angles(k, np.atleast_1d(x), 1.0)
    return theta1 + theta2 + sum(recip)


def lower_bound_extrema(k: int) -> ExtremaReport:
    """Locate and verify every reference extremum constant for order k.

    Covers, per order: the slope-numerator roots in (-1, 1) with their
    x-locations, the interior minimum of the composite angle against its
    bound, the k = 6 reciprocal-angle maximum against 1.5, and the k = 6
    band-minimum cubic against 0.004785 at its closed-form minimizer.
    """
    _check_multiplier_order(k)
    records: list[ExtremumRecord] = []

    if k == 3:
        # Interior critical point of the slope-numerator cubic, closed form.
        y_star = (131.0 - math.sqrt(1981.0)) / 132.0
        h = _SLOPE_NUMERATOR[3]
        roots = _real_roots_in(np.polyder(np.asarray(h, dtype=float)), -1.0, 1.0)
        y_num = roots[0] if roots else y_star
        if abs(y_num - y_star) > 1e-10:
            raise InternalConsistencyError(
                f"closed-form critical point {y_star} vs numeric {y_num}")
        records.append(ExtremumRecord(
            name="slope-numerator minimum (k=3)",
            y=y_star, x=math.acos(y_star),
            value=float(np.polyval(np.asarray(h, dtype=float), y_star)),
            bound=_SLOPE_MIN_BOUND_K3, kind="above", y_ref=0.65524))
    else:
        h = np.asarray(_SLOPE_NUMERATOR[k], dtype=float)
        roots = _real_roots_in(h, -1.0, 1.0)
        refs = _SLOPE_ROOT_REFS[k]
        if len(roots) != len(refs):
            raise InternalConsistencyError(
                f"expected {len(refs)} slope roots in (-1,1) for k={k}, "
                f"found {len(roots)}")
        for (y_ref, x_ref), y in zip(refs, roots):
            records.append(ExtremumRecord(
                name=f"slope-numerator root near y={y_ref} (k={k})",
                y=y, x=math.acos(y), value=float(np.polyval(h, y)),
                bound=1e-6, kind="root", y_ref=y_ref, x_ref=x_ref))
        # The smaller root (larger x) is the interior minimum of the angle sum.
        y1 = roots[0]
        x1 = math.acos(y1)
        g_min = float(composite_angle(k, x1)[0])
        records.append(ExtremumRecord(
            name=f"interior angle minimum (k={k})",
            y=y1, x=x1, value=g_min,
            bound=_INTERIOR_MIN_BOUND[k], kind="above",
            y_ref=refs[0][0], x_ref=refs[0][1]))

    if k == 6:
        rroots = _real_roots_in(_RECIP_SLOPE_NUMERATOR, -1.0, 1.0)
        if len(rroots) != 1:
            raise InternalConsistencyError(
                f"expected 1 reciprocal-slope root in (-1,1), found {len(rroots)}")
        y1 = rroots[0]
        x1 = math.acos(y1)
        records.append(ExtremumRecord(
            name="reciprocal angle maximum (k=6)",
            y=y1, x=x1, value=float(sum(_factored_angles(6, np.array([x1]), 1.0)[2])[0]),
            bound=_RECIP_MAX_BOUND, kind="below",
            y_ref=_RECIP_SLOPE_ROOT_REF[0], x_ref=_RECIP_SLOPE_ROOT_REF[1]))

        xi_star = (20.0 - math.sqrt(94.0)) / 18.0
        cubic = np.asarray([float(c) for c in _BAND_MIN_CUBIC])
        candidates = [xi_star] + _extremum_candidates(cubic)
        values = [float(np.polyval(cubic, c)) for c in candidates]
        if min(values) < float(np.polyval(cubic, xi_star)) - 1e-12:
            raise InternalConsistencyError(
                "band-minimum cubic not minimized at its closed-form point")
        records.append(ExtremumRecord(
            name="band-minimum cubic (k=6)",
            y=xi_star, x=math.acos(xi_star),
            value=float(np.polyval(cubic, xi_star)),
            bound=_BAND_MIN_BOUND, kind="above"))

    g0 = float(composite_angle(k, 0.0)[0])
    gpi = float(composite_angle(k, math.pi)[0])
    return ExtremaReport(k=k, records=tuple(records),
                         angle_at_zero=g0, angle_at_pi=gpi)

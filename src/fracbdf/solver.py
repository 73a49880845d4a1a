"""Corrected k-step time stepping for the tempered subdiffusion model.

The scheme marches  w^n = u^n - e^(-sigma*n*tau) rho  (so w^0 = 0) through

    P_tau w^n + A w^n = -e^(-sigma*n*tau) (1 + a_n) A rho,

where P_tau is the assembled discrete time operator and the starting
corrections a_1..a_{k-1} repair the order loss caused by the weak
singularity of the solution at t = 0 (a_n = 0 for n >= k, and identically
when corrections are disabled).

With the combined weights S_j of P_tau, step n solves the SPD system

    (S_0 I + A) w^n = rhs^n = f^n - sum_{j>=1} S_j w^(n-j),
    f^n = -d_n A rho,   d_n = e^(-sigma*n*tau) (1 + a_n),   d_0 = 0,

so the whole march is one lower-triangular block Toeplitz system in time.
Every table of P_tau shares sigma and tau, so S_j = e^(-sigma*j*tau) S^_j
with the untempered weights S^ (the operator's ``untempered_weights``),
and d_n = e^(-sigma*n*tau) d^_n with d^_n = 1 + a_n.
Dividing step n by e^(-sigma*n*tau) gives the same system in S^ and d^,
so w^n = e^(-sigma*n*tau) w^^n: the march solves for w^ and applies the
tempering once, at the end.  In that frame every step has the same scale;
marching the tempered system directly leaves late steps with roundoff on
the scale of the early ones, which has no correct digits once sigma*T is
large.  S^_0 = S_0, so the shifted systems are the same.

Every spatial operator here is SPD with a cheap eigensystem
A = V diag(lam) V^T, exposed by its ``eigensystem()`` method as
(lam, to_modal, from_modal).  In the modal basis the system splits into
scalar power-series divisions  w^_i(z) = f^_i(z) / (S^(z) + lam_i),  the
modal form of the fast Toeplitz solve of Hairer, Lubich and Schlichte
(SIAM J. Sci. Stat. Comput. 1985).  :func:`step_solve` computes each
reciprocal 1/(S^ + lam_i) by Newton doubling with FFT products; each
doubling round batches as many modes per FFT call as fit in one block, so
the short early rounds cost few calls.  The datum d^(z) = z/(1-z) +
sum_n a_n z^n needs no FFT: its product with a reciprocal is a cumulative
sum along time plus k-1 shifted adds.  The modal right-hand sides
rhs_i = (S_0 + lam_i) w^_i are mapped back with one ``from_modal``, and
every w^n comes from one block solve with (S_0 I + A).  That solve is
backward stable; mapping w itself back would leave transform roundoff that
A amplifies by its largest eigenvalue (relative residuals near 1e-10 at
dim 2048).  The per-step residuals are then evaluated for all steps at
once, in the untempered frame, from a physical-space FFT convolution of S^
with w^; they never touch the eigensystem, so they check the modal solve
independently.  Scaling row n by e^(sigma*n*tau) leaves its relative
residual unchanged, so these are the residuals of the tempered system too.
The series d^ / (S^ + lam_i) do not depend on rho, so the same kernel
marches a (trials x dim) block of data at once; :func:`stability_experiment`
uses that for its perturbations and :func:`step_solve` is its one-datum
case.

Spatial operators: a positive scalar (identity basis), the 1D Dirichlet
Laplacian on a uniform interior grid (orthonormal DST-I basis; banded
Cholesky solves), or a general dense SPD matrix (``eigh`` basis; Cholesky
solves).  All of them expose the energy norm |A^(1/2) v| and its dual,
which the stability experiments use, and ``shifted_solver`` for one step's
system (S_0 I + A) x = b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np
from scipy.fft import dst, irfft, next_fast_len, rfft
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky_banded

from .coefficients import (FracParams, bdf_l_coefficients, check_alpha, check_order,
                           tempered_table)
from .errors import ParameterDomainError, config_int, parses_config
from .operators import (DiscreteTimeOperator, FractionalOperatorSpec, SingleTerm,
                        check_operator, discretize, operator_spec_from_dict)
from .special import exact_scalar_solution

#: Starting corrections a_1..a_{k-1}, exact rationals.
_CORRECTIONS = {
    1: (),
    2: (Fraction(1, 2),),
    3: (Fraction(11, 12), Fraction(-5, 12)),
    4: (Fraction(31, 24), Fraction(-7, 6), Fraction(3, 8)),
    5: (Fraction(1181, 720), Fraction(-177, 80), Fraction(341, 240),
        Fraction(-251, 720)),
    6: (Fraction(2837, 1440), Fraction(-2543, 720), Fraction(17, 5),
        Fraction(-1201, 720), Fraction(95, 288)),
}


def correction_weights(k: int) -> tuple[Fraction, ...]:
    """Starting corrections a_1..a_{k-1} for order k (empty for k = 1)."""
    check_order(k)
    return _CORRECTIONS[k]


# ---------------------------------------------------------------------------
# Spatial operators
# ---------------------------------------------------------------------------

def _identity(x):
    return x


def _dst_ortho(x):
    return dst(x, type=1, norm="ortho", axis=-1)


class ScalarOperator:
    """A = lam > 0 acting on one degree of freedom."""

    def __init__(self, value: float):
        if not 0.0 < value < math.inf:
            raise ParameterDomainError(f"scalar operator must be finite and > 0, got {value!r}")
        self.value = float(value)

    @property
    def dim(self) -> int:
        return 1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.value * np.asarray(v, dtype=float)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.asarray(rhs, dtype=float) / self.value

    def shifted_solver(self, shift: float):
        denom = shift + self.value
        return lambda rhs: np.asarray(rhs, dtype=float) / denom

    def eigensystem(self):
        """(lam, to_modal, from_modal); the basis is the identity."""
        return np.array([self.value]), _identity, _identity

    def energy_norm(self, v) -> float:
        return math.sqrt(self.value) * float(np.linalg.norm(v))

    def dual_norm(self, v) -> float:
        return float(np.linalg.norm(v)) / math.sqrt(self.value)


class TridiagonalLaplacian:
    """Second-order 1D Dirichlet Laplacian on (0, L): stencil (-1, 2, -1)/h^2.

    Interior points only; h = L/(size+1).  Eigenvalues are known in closed
    form, (4/h^2) sin^2(i*pi*h/(2L)), with the sine modes sin(i*pi*x/L) as
    eigenvectors, so the orthonormal DST-I is its modal transform.
    """

    def __init__(self, size: int, length: float = 1.0):
        if size < 1:
            raise ParameterDomainError(f"size must be >= 1, got {size!r}")
        if not 0.0 < length < math.inf:
            raise ParameterDomainError(f"length must be finite and > 0, got {length!r}")
        self.size = int(size)
        self.length = float(length)
        self.h = self.length / (self.size + 1)
        self._main = 2.0 / self.h ** 2
        self._off = -1.0 / self.h ** 2

    @property
    def dim(self) -> int:
        return self.size

    def grid(self) -> np.ndarray:
        """Interior grid points h, 2h, ..., size*h."""
        return self.h * np.arange(1, self.size + 1)

    def eigenvalues(self) -> np.ndarray:
        i = np.arange(1, self.size + 1)
        return (4.0 / self.h ** 2) * np.sin(i * math.pi * self.h / (2.0 * self.length)) ** 2

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = self._main * v
        out[1:] += self._off * v[:-1]
        out[:-1] += self._off * v[1:]
        return out

    def shifted_solver(self, shift: float):
        # Banded Cholesky of (main + shift, off) in upper storage, factored once.
        band = np.empty((2, self.size))
        band[0] = self._off
        band[1] = self._main + shift
        fac = (cholesky_banded(band), False)
        return lambda rhs: cho_solve_banded(fac, np.asarray(rhs, dtype=float))

    def eigensystem(self):
        """(lam, to_modal, from_modal) in the orthonormal DST-I basis, which
        is its own inverse.  The transforms act on the last axis."""
        return self.eigenvalues(), _dst_ortho, _dst_ortho

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.shifted_solver(0.0)(rhs)

    def energy_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.matvec(v))), 0.0))

    def dual_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.solve(v))), 0.0))


class DenseSPDOperator:
    """A general symmetric positive definite matrix.

    Its eigensystem is computed once (it also serves as the definiteness
    check); shifted systems are solved by Cholesky.
    """

    def __init__(self, matrix: np.ndarray):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ParameterDomainError("matrix must be square")
        if not np.all(np.isfinite(A)):
            raise ParameterDomainError("matrix entries must be finite")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise ParameterDomainError("matrix must be symmetric")
        lam, V = np.linalg.eigh(A)
        if lam[0] <= 0.0:
            raise ParameterDomainError("matrix must be positive definite")
        self.matrix = A
        self._lam, self._V = lam, V

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        V = self._V
        return V @ ((V.T @ np.asarray(rhs, dtype=float)) / self._lam)

    def shifted_solver(self, shift: float):
        fac = cho_factor(self.matrix + shift * np.eye(self.dim))
        return lambda rhs: cho_solve(fac, np.asarray(rhs, dtype=float))

    def eigensystem(self):
        """(lam, to_modal, from_modal) in the ``eigh`` basis; the transforms
        act on the last axis (rows are states)."""
        V = self._V
        return self._lam, (lambda x: x @ V), (lambda x: x @ V.T)

    def energy_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.matvec(v))), 0.0))

    def dual_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.solve(v))), 0.0))


# ---------------------------------------------------------------------------
# Problem and scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubdiffusionProblem:
    """Spatial operator, initial datum, horizon and time-operator spec."""

    A: object
    rho: np.ndarray
    T: float
    time_op: FractionalOperatorSpec

    def __post_init__(self) -> None:
        # A private read-only copy: later edits of the caller's array cannot
        # reach the problem, and no solve can write into the datum.
        rho = np.array(self.rho, dtype=float, ndmin=1)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        if not 0.0 < self.T < math.inf:
            raise ParameterDomainError(f"T must be finite and > 0, got {self.T!r}")
        if rho.shape != (self.A.dim,):
            raise ParameterDomainError(
                f"rho has shape {rho.shape}, operator dimension is {self.A.dim}")
        if not np.all(np.isfinite(rho)):
            raise ParameterDomainError("rho entries must be finite")

    @property
    def sigma(self) -> float:
        return self.time_op.sigma


def scalar_problem(lam: float, alpha: float, sigma: float = 0.0,
                   rho: float = 1.0, T: float = 1.0) -> SubdiffusionProblem:
    """Convenience constructor for the scalar single-term model."""
    return SubdiffusionProblem(A=ScalarOperator(lam), rho=np.array([rho]),
                               T=T, time_op=FractionalOperatorSpec(
                                   SingleTerm(alpha=alpha), sigma=sigma))


@dataclass(frozen=True)
class SolveResult:
    """Trajectory and per-step linear-solve residuals of one march."""

    times: np.ndarray
    u: np.ndarray              # (N+1, dim); row 0 is rho
    w: np.ndarray              # u minus the decaying initial layer
    residuals: np.ndarray      # relative residual per step (0 at n = 0)
    k: int
    tau: float
    corrected: bool
    sigma: float

    @property
    def N(self) -> int:
        return len(self.times) - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.u[-1]


#: Element budget of one block: rows x FFT length per transform call, rows x
#: columns per elementwise pass; bounds the work arrays at a few hundred KiB.
_BLOCK = 2 ** 15


def step_solve(problem: SubdiffusionProblem, k: int, N: int,
               corrected: bool = True,
               op: DiscreteTimeOperator | None = None) -> SolveResult:
    """March the corrected scheme over N uniform steps.

    Solves all N steps at once by modal series division and one block
    solve (module docstring), then evaluates every step's residual.  An
    already assembled ``op`` may be passed to amortize weight generation
    across repeated solves with identical (k, tau, spec); it must match k,
    tau, sigma and the problem's orders and scales b_i * tau^(-alpha_i),
    and cover at least N steps (:func:`~fracbdf.operators.check_operator`).
    """
    tau, decay, w, residuals = _march(problem, k, N, problem.rho[None], corrected, op)
    w, residuals = w[:, 0], residuals[:, 0]
    u = decay[:, None] * problem.rho
    u += w
    times = tau * np.arange(N + 1)
    for arr in (times, u, w, residuals):
        arr.setflags(write=False)
    return SolveResult(times=times, u=u, w=w, residuals=residuals, k=k,
                       tau=tau, corrected=corrected, sigma=problem.sigma)


def _march(problem: SubdiffusionProblem, k: int, N: int, rho: np.ndarray,
           corrected: bool, op: DiscreteTimeOperator | None):
    """March the data rho[b] (rows of a trials x dim block) of ``problem``.

    Returns (tau, decay, w, residuals) with w of shape (N+1, trials, dim)
    and residuals of shape (N+1, trials).  The march runs in the untempered
    frame (module docstring) and applies the tempering e^(-sigma*n*tau) to
    w once, at the end.  The modal series d / (S + lam_i) do not depend on
    the datum, so they are computed once for the block.
    """
    check_order(k)
    if N < k:
        raise ParameterDomainError(f"need N >= k = {k}, got N = {N}")
    tau = problem.T / N
    if op is None:
        op = discretize(problem.time_op, k, tau, N)
    else:
        check_operator(op, problem.time_op, k, tau, N)
    S = op.untempered_weights[:N + 1]
    if S[0] <= 0.0:
        raise ParameterDomainError(f"zero weight must be > 0, got {S[0]!r}")
    A = problem.A
    corrections = [float(a) for a in correction_weights(k)] if corrected else []
    d = np.ones(N + 1)
    d[0] = 0.0
    d[1:1 + len(corrections)] += corrections
    Arho = A.matvec(rho.T).T
    lam, to_modal, from_modal = A.eigensystem()
    rhs = from_modal(_modal_march(S, lam, -(S[0] + lam) * to_modal(Arho), corrections))
    M, trials, dim = rhs.shape
    w = A.shifted_solver(S[0])(rhs.reshape(M * trials, dim).T).T.reshape(M, trials, dim)
    del rhs                    # at most two (N+1) x trials x dim arrays live at once
    # One datum at a time, so the history buffer stays (N+1) x dim.
    residuals = np.stack([_residuals(A, S, w[:, b], d, Arho[b]) for b in range(trials)],
                         axis=1)
    decay = np.exp(-problem.sigma * tau * np.arange(N + 1))
    w *= decay[:, None, None]
    return tau, decay, w, residuals


def _reciprocal_series(S: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Coefficients 0..len(S)-1 of 1/(S(z) + shift), one row per shift.

    Newton doubling: if R is exact to m terms and (S + shift) R = 1 + z^m E,
    then R - z^m R E is exact to 2m terms.  Both products run as FFT
    products of length 2m; the first is a middle product, whose wrapped-around
    part lands only on the m low coefficients that are not used.  Each
    round transforms as many shifts per call as fit in ``_BLOCK``, so the
    short early rounds take many rows per FFT call.
    """
    M = len(S)
    R = np.empty((len(shifts), M))
    R[:, 0] = 1.0 / (S[0] + shifts)
    m = 1
    while m < M:
        m2 = min(2 * m, M)
        nfft = next_fast_len(m2, real=True)
        S_hat = rfft(S[:m2], nfft)
        rows = max(1, _BLOCK // nfft)
        for b in range(0, len(shifts), rows):
            # Adding the shift to every bin adds it to the z^0 coefficient.
            P_hat = S_hat + shifts[b:b + rows, None]
            R_hat = rfft(R[b:b + rows, :m], nfft, axis=1)
            E = irfft(P_hat * R_hat, nfft, axis=1)[:, m:m2]
            R[b:b + rows, m:m2] = -irfft(R_hat * rfft(E, nfft, axis=1), nfft,
                                         axis=1)[:, :m2 - m]
        m = m2
    return R


def _modal_march(S: np.ndarray, lam: np.ndarray, coef: np.ndarray,
                 corrections: list[float]) -> np.ndarray:
    """Modal trajectories: out[:, b, i] = coef[b, i] * (d / (S + lam_i)) to
    N+1 terms, for a (trials, dim) block of coefficients, with the datum
    d(z) = z/(1 - z) + sum_n a_n z^n, a_n = corrections[n-1].

    The product with z/(1 - z) is a cumulative sum shifted by one step, so
    the datum costs one cumsum plus one shifted add per correction.
    """
    M = len(S)
    R = _reciprocal_series(S, lam)
    out = np.empty((M, *coef.shape))
    rows = max(1, _BLOCK // M)
    for b in range(0, len(lam), rows):
        Rb = R[b:b + rows]
        block = np.empty_like(Rb)
        block[:, 0] = 0.0
        np.cumsum(Rb[:, :-1], axis=1, out=block[:, 1:])
        for n, a in enumerate(corrections, start=1):
            block[:, n:] += a * Rb[:, :M - n]
        out[:, :, b:b + rows] = block.T[:, None, :] * coef[:, b:b + rows]
    return out


def _residuals(A, S: np.ndarray, w: np.ndarray, d: np.ndarray,
               Arho: np.ndarray) -> np.ndarray:
    """|(S_0 I + A) w^n - rhs^n| / |rhs^n| for every step, with
    rhs^n = -d_n A rho - sum_{j>=1} S_j w^(n-j) (0 at n = 0).

    The history of all steps comes from one FFT convolution of S with w
    along time, in column blocks; the rest is evaluated in row blocks.
    """
    M, dim = w.shape
    nfft = next_fast_len(2 * M - 1, real=True)
    S_hat = rfft(S, nfft)[:, None]
    hist = np.empty_like(w)
    cols = max(1, _BLOCK // nfft)
    for c in range(0, dim, cols):
        conv = irfft(rfft(w[:, c:c + cols], nfft, axis=0) * S_hat, nfft, axis=0)
        hist[:, c:c + cols] = conv[:M] - S[0] * w[:, c:c + cols]
    out = np.zeros(M)
    rows = max(1, _BLOCK // dim)
    for r in range(1, M, rows):
        wb = w[r:r + rows]
        rhs = -d[r:r + rows, None] * Arho - hist[r:r + rows]
        res = S[0] * wb + A.matvec(wb.T).T - rhs
        out[r:r + rows] = (np.linalg.norm(res, axis=1)
                           / np.maximum(np.linalg.norm(rhs, axis=1), 1e-300))
    return out


@parses_config
def spatial_from_dict(d: dict):
    """Build a spatial operator from a parsed config mapping.

    Recognized layouts (unknown keys rejected)::

        {"variant": "scalar", "value": 1.0}
        {"variant": "tridiagonal", "size": 64, "length": 1.0}
        {"variant": "dense_spd", "matrix": [[...], ...]}
    """
    if not isinstance(d, dict) or "variant" not in d:
        raise ParameterDomainError("spatial config must be a mapping with a 'variant' key")
    variant = d["variant"]
    allowed = {"scalar": {"variant", "value"},
               "tridiagonal": {"variant", "size", "length"},
               "dense_spd": {"variant", "matrix"}}
    if variant not in allowed:
        raise ParameterDomainError(f"unknown spatial variant {variant!r}")
    unknown = set(d) - allowed[variant]
    if unknown:
        raise ParameterDomainError(f"unknown spatial config keys: {sorted(unknown)}")
    if variant == "scalar":
        return ScalarOperator(float(d["value"]))
    if variant == "tridiagonal":
        return TridiagonalLaplacian(config_int(d["size"], "size"),
                                    float(d.get("length", 1.0)))
    return DenseSPDOperator(np.asarray(d["matrix"], dtype=float))


def _rho_from_config(value, A) -> np.ndarray:
    """Initial datum: a number, a list, or {"profile": "sin", "amplitude": a}
    (the lowest Dirichlet mode on a tridiagonal grid)."""
    if isinstance(value, dict):
        unknown = set(value) - {"profile", "amplitude"}
        if unknown:
            raise ParameterDomainError(f"unknown rho keys: {sorted(unknown)}")
        if value.get("profile") != "sin":
            raise ParameterDomainError(f"unknown rho profile {value.get('profile')!r}")
        if not isinstance(A, TridiagonalLaplacian):
            raise ParameterDomainError("the 'sin' profile needs a tridiagonal operator")
        amp = float(value.get("amplitude", 1.0))
        return amp * np.sin(math.pi * A.grid() / A.length)
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return arr


@parses_config
def problem_from_dict(d: dict) -> SubdiffusionProblem:
    """Build a full problem from a parsed config mapping.

    Expected keys: ``operator`` (see operator_spec_from_dict), ``spatial``
    (see spatial_from_dict), ``rho`` and ``T``.  Unknown keys rejected.
    """
    if not isinstance(d, dict):
        raise ParameterDomainError("problem config must be a mapping")
    unknown = set(d) - {"operator", "spatial", "rho", "T"}
    if unknown:
        raise ParameterDomainError(f"unknown problem config keys: {sorted(unknown)}")
    for key in ("operator", "spatial", "rho", "T"):
        if key not in d:
            raise ParameterDomainError(f"problem config is missing {key!r}")
    A = spatial_from_dict(d["spatial"])
    return SubdiffusionProblem(A=A, rho=_rho_from_config(d["rho"], A),
                               T=float(d["T"]),
                               time_op=operator_spec_from_dict(d["operator"]))


# ---------------------------------------------------------------------------
# Convergence measurement against the scalar closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Terminal errors and successive observed orders on a refinement path."""

    k: int
    alpha: float
    sigma: float
    lam: float
    corrected: bool
    N_list: tuple[int, ...]
    errors: tuple[float, ...]
    orders: tuple[float, ...]
    precision: int | None

    @property
    def observed_order(self) -> float:
        """Order estimate from the two finest grids."""
        return self.orders[-1]


def convergence_harness(k: int, alpha: float, sigma: float, lam: float,
                        N_list, corrected: bool = True, rho: float = 1.0,
                        T: float = 1.0,
                        precision: int | None = None) -> ConvergenceReport:
    """Measure terminal errors of the scalar scheme along a refinement path.

    ``precision`` selects the arithmetic: None runs the production float64
    stepper; an integer >= 16 runs the fixed-point twin of
    :mod:`fracbdf.highprec` at a resolution of 2^-P, P = ceil(precision *
    log2(10)) + 32 (needed to observe orders k >= 5, whose errors drop
    below the float64 floor on fine grids).
    """
    check_order(k)
    check_alpha(alpha)
    if precision is not None and (not isinstance(precision, Integral) or precision < 16):
        raise ParameterDomainError(
            f"precision must be an integer number of digits >= 16, got {precision!r}")
    problem = scalar_problem(lam, alpha, sigma, rho, T)   # validates the inputs
    N_list = tuple(int(n) for n in N_list)
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ParameterDomainError("N_list must be strictly increasing, length >= 2")
    if precision is None:
        # The l_j do not depend on N: one build at the finest grid, whose
        # prefixes equal the per-N builds bitwise, tempered and scaled per N.
        exact = exact_scalar_solution(lam, alpha, sigma, rho, T)
        l = bdf_l_coefficients(k, alpha, N_list[-1])
        errors = []
        for N in N_list:
            tau = problem.T / N
            table = tempered_table(k, FracParams(alpha, problem.sigma, tau), l[:N + 1])
            op = DiscreteTimeOperator(k=k, tau=tau, sigma=problem.sigma,
                                      scales=(tau ** (-alpha),), tables=(table,))
            u = step_solve(problem, k, N, corrected=corrected, op=op).terminal[0]
            errors.append(abs(float(u) - exact))
    else:
        from .highprec import terminal_errors_mp
        errors = terminal_errors_mp(k, alpha, sigma, lam, rho, T, N_list,
                                    corrected=corrected, dps=int(precision))
    orders = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 0.0 and e1 > 0.0:
            orders.append(math.log2(e0 / e1))
        else:
            orders.append(math.inf)
    return ConvergenceReport(k=k, alpha=alpha, sigma=sigma, lam=lam,
                             corrected=corrected, N_list=N_list,
                             errors=tuple(errors), orders=tuple(orders),
                             precision=precision)


# ---------------------------------------------------------------------------
# Perturbation stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationRecord:
    """Energy-norm growth ratios of perturbed runs at one grid size."""

    k: int
    N: int
    ratios_sq: tuple[float, ...]      # (1/N) sum_n ||eps^n||^2 / ||eps^0||^2
    ratios_lin: tuple[float, ...]     # tau sum_n ||eps^n|| / (T ||eps^0||)

    @property
    def max_sq(self) -> float:
        return max(self.ratios_sq)

    @property
    def max_lin(self) -> float:
        return max(self.ratios_lin)


def stability_experiment(problem: SubdiffusionProblem, k: int, N: int,
                         perturbations: int = 10, seed: int = 0,
                         amplitude: float = 1.0) -> PerturbationRecord:
    """Perturbed solves, returning bounded-growth ratios.

    Each perturbation draws a Gaussian eps^0 and measures, in the energy
    norm, the difference between the runs from rho + eps^0 and from rho.
    The scheme is linear in rho, so that difference is the run from eps^0
    itself.  All perturbations are marched as one (perturbations x dim)
    block through the kernel of :func:`step_solve`, which evaluates every
    run's residuals as well.
    """
    rng = np.random.default_rng(seed)
    A = problem.A
    eps0 = amplitude * rng.standard_normal((perturbations, A.dim))
    tau, decay, w, _ = _march(problem, k, N, eps0, True, None)
    # Energy norms |A^(1/2) eps^n_b| of every trajectory, in row blocks so
    # that no second full-size array is live beside w.
    w, decay = w[1:], decay[1:]
    norms = np.empty((N, perturbations))
    rows = max(1, _BLOCK // (perturbations * A.dim))
    for r in range(0, N, rows):
        eps = (decay[r:r + rows, None, None] * eps0 + w[r:r + rows]).reshape(-1, A.dim)
        sq = np.einsum("ij,ij->i", eps, A.matvec(eps.T).T)
        norms[r:r + rows] = np.sqrt(np.maximum(sq, 0.0)).reshape(-1, perturbations)
    e0 = np.array([A.energy_norm(e) for e in eps0])
    ratios_sq = np.sum(norms ** 2, axis=0) / (N * e0 ** 2)
    ratios_lin = tau * np.sum(norms, axis=0) / (problem.T * e0)
    return PerturbationRecord(k=k, N=N, ratios_sq=tuple(map(float, ratios_sq)),
                              ratios_lin=tuple(map(float, ratios_lin)))


@dataclass(frozen=True)
class RefinementStabilityReport:
    """Perturbation ratios across a refinement path, with a bounded verdict."""

    k: int
    records: tuple[PerturbationRecord, ...]
    growth_factor: float

    @property
    def bounded(self) -> bool:
        first, last = self.records[0], self.records[-1]
        return (last.max_sq <= self.growth_factor * first.max_sq
                and last.max_lin <= self.growth_factor * first.max_lin)


def stability_refinement(problem: SubdiffusionProblem, k: int, N_list,
                         perturbations: int = 10, seed: int = 0,
                         growth_factor: float = 2.0) -> RefinementStabilityReport:
    """Repeat the perturbation experiment on successively finer grids.

    The same seed is used at every grid size so the drawn perturbations
    match across the refinement and the ratios are directly comparable.
    """
    records = tuple(stability_experiment(problem, k, N, perturbations, seed)
                    for N in N_list)
    return RefinementStabilityReport(k=k, records=records,
                                     growth_factor=growth_factor)

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
(SIAM J. Sci. Stat. Comput. 1985).  :func:`step_solve` factors the
reciprocals as 1/(S^ + lam_i) = sum_r C[r, i] B_r over K basis series.
With S^ = S_0 (1 + s), s_0 = 0, a stiff mode, x_i = S_0 ||s||_1 /
(S_0 + lam_i) <= 1/16, takes the geometric series in beta_i s,
beta_i = S_0/(S_0 + lam_i), cut after 15 terms (l1 tail <= x^15/(1 - x)
<= 9.3e-19 of 1/(S_0 + lam_i)): the stiff modes share the rows s^t of B,
and C holds their series coefficients.  Against a 34-digit triangular
solve (up to 1025 coefficients, k = 1..6) these are within 2e-16 of the
leading coefficient and 5e-12 of each coefficient; Newton doubling, whose
error is eps times the leading coefficient, is off by 3e-11 to 2e-6 in the
small tail coefficients.  Each other (mild) mode has its own row of B by
Newton doubling with FFT products, batched per round into as few FFT calls
as fit in one block, and a unit column of C.  So K is the number of mild
modes, plus 15 if any mode is stiff: far below dim on a fine grid.  The
datum d^(z) = z/(1-z) + sum_n a_n z^n needs no FFT: its product with a row
of B is a cumulative sum along time plus k-1 shifted adds, none of which
reads B_N, so B holds N coefficients.  Only the K modal rows
C[r] (S_0 + lam) (A rho) are mapped back, by one ``from_modal``, to G_r,
and rhs^n = sum_r G_r (d^ B_r)_n.  The spatial solve is linear, so one
solve with (S_0 I + A) of the K columns G_r and one matrix product with the
K series d^ B_r give every w^n.  That solve of physical right-hand sides is
backward stable; mapping w itself back would leave transform roundoff that
A amplifies by its largest eigenvalue (relative residuals near 1e-10 at
dim 2048).  The per-step residuals are then evaluated for all steps at
once, in the untempered frame, from a physical-space FFT convolution of S^
with w^; they never touch the eigensystem, so they check the modal solve
independently.

w^ lives in a C-ordered (dim, trials, N+1) array, whose rows are
contiguous in time: the matrix product H^T (d^ B) writes it once, after B
is freed, and the residual transforms run along its rows.  Callers see the
transposed (N+1, trials, dim) view.  One formula, :func:`_with_layer`,
forms u^n = e^(-sigma*n*tau) w^^n + e^(-sigma*n*tau) rho wherever u is read;
:func:`step_solve` applies it in that same buffer, so a solve holds one
trajectory, and its result keeps u alone and derives w from it on access.
Scaling row n by e^(sigma*n*tau) leaves its relative residual unchanged,
so these are the residuals of the tempered system too.  The basis does
not depend on rho, so the same kernel marches a (trials x dim) block of
data at once; :func:`stability_experiment` uses that for its perturbations
and :func:`step_solve` is its one-datum case.

Every relative residual must stay below :data:`RESIDUAL_BOUND`; a step
above it raises :class:`~fracbdf.errors.InternalConsistencyError`, naming
the step and the trial.

Spatial operators: a general dense SPD matrix (``eigh`` basis, which also
solves its shifted systems), a positive scalar (the 1 x 1 dense matrix,
with the exact basis [[1]]), or the 1D Dirichlet Laplacian on a uniform
interior grid (orthonormal DST-I basis, by a real FFT of the odd extension),
whose shifted systems are solved by LDL^T, with the rows cut into pieces of
at least 64 that run in lockstep and are joined by one small interface
system (the partition method, :meth:`TridiagonalLaplacian.shifted_solver`).
That solve stays backward stable: every piece is a principal submatrix of
the SPD shifted operator, so its LDL^T needs no pivoting, and the shifted
Laplacian is diagonally dominant, the case in which the partition method
is stable (Polizzi and Sameh, Parallel Computing 32, 2006); its normwise
backward error is within 2x that of LAPACK ``dpttrs``
(tests/test_spatial_numpy.py).  The march runs on numpy alone and loads no
scipy module.  All operators expose the energy norm |A^(1/2) v|, which the
stability experiments use, and ``shifted_solver`` for one step's system
(S_0 I + A) x = b, which the march solves once, on its K basis columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import check_alpha, check_order
from .errors import InternalConsistencyError, ParameterDomainError, check_count, parses_config
from .operators import FractionalOperatorSpec, SingleTerm, discretize, operator_spec_from_dict
from .special import _standard_normal, exact_scalar_solution

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

@functools.lru_cache(maxsize=None)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, which numpy's FFT factors into
    radix-2, -3 and -5 passes (``scipy.fft.next_fast_len(n, real=True)``)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _dst_ortho(x):
    """Orthonormal DST-I along the last axis: the odd extension
    (0, x, 0, -reversed x) of a real x of length n has the purely imaginary
    DFT -i sqrt(2(n+1)) DST-I(x)."""
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    return -np.fft.rfft(ext, norm="ortho").imag[..., 1:n + 1]


class TridiagonalLaplacian:
    """Second-order 1D Dirichlet Laplacian on (0, L): stencil (-1, 2, -1)/h^2.

    Interior points only; h = L/(size+1).  Eigenvalues are known in closed
    form, (4/h^2) sin^2(i*pi*h/(2L)), with the sine modes sin(i*pi*x/L) as
    eigenvectors, so the orthonormal DST-I is its modal transform.
    """

    def __init__(self, size: int, length: float = 1.0):
        self.size = check_count(size, "size", 1)
        if not 0.0 < length < math.inf:
            raise ParameterDomainError(f"length must be finite and > 0, got {length!r}")
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
        return self._matvec_rows(np.asarray(v, dtype=float), 0, self.size)

    def _matvec_rows(self, v: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of A v."""
        out = self._main * v[lo:hi]
        out[max(0, 1 - lo):] += self._off * v[max(0, lo - 1):hi - 1]
        out[:min(hi, self.size - 1) - lo] += self._off * v[lo + 1:hi + 1]
        return out

    def shifted_solver(self, shift: float):
        """Solve (A + shift I) x = b for b of shape (size,) or (size, cols).

        The rows are cut into P = min(size // 64, 32) pieces (at least one)
        of m = ceil(size / P) rows; padding rows that continue the stencil
        fill the last piece.  Every piece is then the same matrix, with one
        LDL^T (dpttrf's recurrence, in Python floats), and the pieces are
        solved in lockstep, on b extended by zero padding rows: each row
        operation covers every piece and every column.  With one piece this
        is dpttrs.  Otherwise the couplings across the cuts between pieces,
        and the one that the padding adds, are moved to the right-hand side,
        as in the partition (SPIKE) method of Polizzi and Sameh (Parallel
        Computing 32, 2006).  The values at the 2C rows next to the C cuts
        solve a 2C x 2C interface system, whose coefficients are entries of
        the piece's inverse; with them known, one lockstep solve gives x
        (and zero padding rows).  A b without size rows raises ValueError.
        """
        n, main, off = self.size, self._main + shift, self._off
        if not shift + self.eigenvalues()[0] > 0.0:
            raise np.linalg.LinAlgError(f"shifted operator is not positive definite "
                                        f"(shift {shift!r})")
        P = min(max(1, n // 64), 32)
        m = -(-n // P)
        d, l = [main], []
        for _ in range(m - 1):
            l.append(off / d[-1])
            d.append(main - l[-1] * off)

        def pieces(X):                          # X (m, P, cols), in place
            tmp = np.empty_like(X[0])
            for i in range(1, m):
                np.subtract(X[i], np.multiply(X[i - 1], l[i - 1], out=tmp), out=X[i])
            X[-1] /= d[-1]
            for i in range(m - 2, -1, -1):
                X[i] /= d[i]
                np.subtract(X[i], np.multiply(X[i + 1], l[i], out=tmp), out=X[i])

        # cut c couples rows c - 1 and c by o: the true coupling between
        # pieces, and minus it where the padding starts
        cuts = [(c, off) for c in range(m, P * m, m)] + [(n, -off)] * (n < P * m)
        if cuts:
            c, o = np.array(cuts).T
            at = np.stack((c - 1, c), axis=1).ravel().astype(int)      # rows next to the cuts
            enter = np.stack((c, c - 1), axis=1).ravel().astype(int)   # where x_at enters
            o = np.repeat(o, 2)[:, None]
            G = np.linalg.inv(main * np.eye(m) + off * (np.eye(m, k=1) + np.eye(m, k=-1)))
            # x_at = (G b)_at - sum_j G[at, enter_j] o_j x_at[j], G block diagonal
            Z = np.eye(len(at)) + np.where(at[:, None] // m == enter // m,
                                           G[np.ix_(at % m, enter % m)] * o.T, 0.0)
            locs = sorted(set(at % m))
            G = G[locs]
            rows = (at // m, [locs.index(q) for q in at % m])

        def solve(rhs):
            rhs = np.asarray(rhs, dtype=float)
            if rhs.shape[:1] != (n,):
                raise ValueError(f"rhs must have {n} rows, got shape {rhs.shape}")
            b = rhs.reshape(n, -1)
            x = np.zeros((P * m, b.shape[1]))
            x[:n] = b
            X = x.reshape(P, m, -1)
            if cuts:
                x[enter] -= o * np.linalg.solve(Z, (G @ X)[rows])
            pieces(X.transpose(1, 0, 2))
            return x[:n].reshape(rhs.shape)
        return solve

    def eigensystem(self):
        """(lam, to_modal, from_modal) in the orthonormal DST-I basis, which
        is its own inverse.  The transforms act on the last axis."""
        return self.eigenvalues(), _dst_ortho, _dst_ortho

    def energy_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.matvec(v))), 0.0))


class DenseSPDOperator:
    """A general symmetric positive definite matrix, held as a private
    read-only copy.  Its eigensystem A = V diag(lam) V^T is computed once (it
    also serves as the definiteness check), held read-only as well, and every
    shifted system is solved from it."""

    def __init__(self, matrix: np.ndarray):
        if np.iscomplexobj(matrix):
            raise ParameterDomainError("matrix entries must be real")
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or not 0 < A.shape[0] == A.shape[1]:
            raise ParameterDomainError("matrix must be square and non-empty")
        if not np.all(np.isfinite(A)):
            raise ParameterDomainError("matrix entries must be finite")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise ParameterDomainError("matrix must be symmetric")
        lam, V = np.linalg.eigh(A)
        if lam[0] <= 0.0:
            raise ParameterDomainError("matrix must be positive definite")
        for held in (A, lam, V):
            held.setflags(write=False)
        self.matrix = A
        self._lam, self._V = lam, V

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def _matvec_rows(self, v: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of A v."""
        return self.matrix[lo:hi] @ v

    def shifted_solver(self, shift: float):
        """x = V ((V^T b) / (shift + lam)), the quotient taken in place, solves
        (A + shift I) x = b for b of shape (dim,) or (dim, cols)."""
        denom = shift + self._lam
        if not denom[0] > 0.0:
            raise np.linalg.LinAlgError(f"shifted operator is not positive definite "
                                        f"(shift {shift!r})")

        def solve(rhs):
            y = self._V.T @ np.ascontiguousarray(rhs, dtype=float)
            np.divide(y.T, denom, out=y.T)
            return self._V @ y
        return solve

    def eigensystem(self):
        """(lam, to_modal, from_modal) in the ``eigh`` basis; the transforms
        act on the last axis (rows are states)."""
        V = self._V
        return self._lam, (lambda x: x @ V), (lambda x: x @ V.T)

    def energy_norm(self, v) -> float:
        return math.sqrt(max(float(np.dot(v, self.matvec(v))), 0.0))


class ScalarOperator(DenseSPDOperator):
    """A = lam > 0 on one degree of freedom: the 1 x 1 dense operator.  Its
    eigensystem lam = [value], V = [[1]] is exact, so it is set without
    ``eigh``, and the shifted solve is bitwise b / (shift + value)."""

    def __init__(self, value: float):
        if not 0.0 < value < math.inf:
            raise ParameterDomainError(f"scalar operator must be finite and > 0, got {value!r}")
        self.value = float(value)
        self.matrix = np.array([[self.value]])
        self._lam, self._V = np.array([self.value]), np.ones((1, 1))
        for held in (self.matrix, self._lam, self._V):
            held.setflags(write=False)

    def energy_norm(self, v) -> float:
        return math.sqrt(self.value) * float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Problem and scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Trajectory and per-step linear-solve residuals of one march.

    It holds one trajectory, u; ``w`` is computed from it on access."""

    times: np.ndarray
    u: np.ndarray              # (N+1, dim); row 0 is rho
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

    @property
    def w(self) -> np.ndarray:
        """u minus the decaying initial layer, e^(-sigma*t_n) rho, as a new
        read-only array of u's shape."""
        decay = np.exp(-self.sigma * self.tau * np.arange(self.N + 1))
        w = self.u - decay[:, None] * self.u[0]
        w.setflags(write=False)
        return w


#: Element budget of one block: rows x FFT length per transform call, rows x
#: columns per elementwise pass; bounds the work arrays at a few hundred KiB.
_BLOCK = 2 ** 15

#: Largest accepted relative residual of any step's system.  The march is
#: backward stable: the largest residuals seen are 3.2e-11 at dim 2048 (the
#: benchmark's tri2048 case, seeds 0-299) and 4.8e-14 in the verify-paper
#: battery, so a step above this bound means the march itself went wrong;
#: it raises InternalConsistencyError.
RESIDUAL_BOUND = 1e-8


def step_solve(problem: SubdiffusionProblem, k: int, N: int,
               corrected: bool = True) -> SolveResult:
    """March the corrected scheme over N uniform steps.

    Solves all N steps at once by modal series division and one spatial
    solve of the K basis rows (module docstring), then every residual.
    """
    tau, decay, w, residuals = _march(problem, k, N, problem.rho[None], corrected)
    residuals = residuals[:, 0]
    u = w[:, 0].T                       # (dim, N+1), contiguous in time
    rows = max(1, _BLOCK // (N + 1))
    for c in range(0, len(u), rows):
        _with_layer(u[c:c + rows], decay, problem.rho[c:c + rows, None], out=u[c:c + rows])
    u = u.T
    times = tau * np.arange(N + 1)
    for arr in (times, u, residuals):
        arr.setflags(write=False)
    return SolveResult(times=times, u=u, residuals=residuals, k=k,
                       tau=tau, corrected=corrected, sigma=problem.sigma)


def _corrections(k: int, corrected: bool) -> list[float]:
    return [float(a) for a in correction_weights(k)] if corrected else []


def _march(problem: SubdiffusionProblem, k: int, N: int, rho: np.ndarray,
           corrected: bool):
    """March the data rho[b] (rows of a trials x dim block) of ``problem``.

    Returns (tau, decay, w^, residuals): decay[n] = e^(-sigma*n*tau), the
    untempered w^ of shape (N+1, trials, dim) and residuals (N+1, trials).
    """
    check_order(k)
    N = check_count(N, "N", k)
    tau = problem.T / N
    S = discretize(problem.time_op, k, tau, N).untempered_weights
    w, residuals = _untempered_march(problem.A, S, rho, _corrections(k, corrected))
    return tau, np.exp(-problem.sigma * tau * np.arange(N + 1)), w, residuals


def _with_layer(w, decay, rho, out=None):
    """u = w^ decay + decay rho, for broadcastable blocks of the untempered
    w^, the factors decay = e^(-sigma*n*tau) and the datum rho."""
    u = np.multiply(w, decay, out=out)
    u += decay * rho
    return u


def _untempered_march(A, S: np.ndarray, rho: np.ndarray, corrections: list[float],
                      basis: tuple | None = None):
    """The untempered march of the data rows rho (trials x dim) with weights
    S = S^ and datum d^(z) = z/(1 - z) + sum_n a_n z^n, a_n = corrections[n-1].

    Returns w^ of shape (N+1, trials, dim), the transposed view of a
    time-contiguous array (module docstring), and its relative residuals,
    shape (N+1, trials).  With (G, dB) of :func:`_march_factors`, w^ =
    H^T dB for H = (S_0 I + A)^(-1) G, one spatial solve; G, H and dB
    are freed before the residuals.  The reciprocal basis (of S^_0..S^_(N-1)
    and lam) depends on neither the data nor the corrections: a caller
    marching several data with the same S^ and operator may pass it as
    ``basis``.  Weights with S^_0 <= 0 or a non-finite entry (a scale
    b_i * tau^(-alpha_i) that overflows) raise ParameterDomainError, and so
    do data whose modal coefficients (S^_0 + lam_i) (A rho)_i overflow (a
    scalar lam beyond ~1e154 with rho = 1); a residual above
    :data:`RESIDUAL_BOUND` raises InternalConsistencyError.
    """
    if not (S[0] > 0.0 and np.isfinite(S).all()):
        raise ParameterDomainError(
            f"weights must be finite with S_0 > 0, got S_0 = {float(S[0])!r}")
    d = np.ones(len(S))
    d[0] = 0.0
    d[1:1 + len(corrections)] += corrections
    Arho = A.matvec(rho.T).T
    lam, to_modal, from_modal = A.eigensystem()
    modal = to_modal(Arho)
    # Python floats: the sum overflows to inf without a warning.
    if not np.abs(modal).max() <= np.finfo(float).max / (float(S[0]) + float(lam.max())):
        raise ParameterDomainError(
            f"(S_0 + lam) * A rho overflows float64: S_0 = {float(S[0])!r}, "
            f"largest eigenvalue {float(lam.max())!r}")
    G, dB = _march_factors(S, lam, -(S[0] + lam) * modal, from_modal, corrections, basis)
    H = A.shifted_solver(S[0])(G.reshape(len(G), -1))
    w = (H.reshape(-1, len(dB)) @ dB).reshape(*G.shape[:2], -1)
    del G, H, dB
    residuals = _residuals(A, S, w, d, Arho)
    n, b = np.unravel_index(np.argmax(residuals), residuals.shape)
    if not residuals[n, b] <= RESIDUAL_BOUND:
        raise InternalConsistencyError(
            f"relative residual {residuals[n, b]:.3e} at step {n} of trial {b} "
            f"exceeds {RESIDUAL_BOUND:g}")
    return w.T, residuals


def _march_factors(S: np.ndarray, lam: np.ndarray, coef: np.ndarray, from_modal,
                   corrections: list[float], basis: tuple | None = None):
    """Factors (G, dB) of the physical right-hand sides rhs^n_b =
    sum_r G[:, b, r] dB[r, n], the from_modal of coef[b, i] [d/(S + lam_i)]_n
    for a (trials, dim) block coef and d(z) = z/(1 - z) + sum_n a_n z^n.

    With (B, C) = :func:`_reciprocal_basis`, d/(S + lam_i) = sum_r C[r, i] d B_r,
    so G_r = from_modal(C[r] coef), held C-ordered as (dim, trials, K) for one
    spatial solve of its K * trials columns, and dB = d B, shape (K, N+1): a
    cumsum shifted by one step plus one shifted add per correction a_n =
    corrections[n-1].  None of them reads B_N, so B is built from
    S_0..S_(N-1); unless passed in as ``basis``, it is freed on return.
    """
    B, C = _reciprocal_basis(S[:-1], lam) if basis is None else basis
    K, M = len(B), len(S)
    G = np.ascontiguousarray(from_modal(C[:, None, :] * coef).T)
    dB = np.zeros((K, M))
    np.cumsum(B, axis=1, out=dB[:, 1:])
    for n, a in enumerate(corrections, start=1):
        dB[:, n:] += a * B[:, :M - n]
    return G, dB


#: Shifts with x = S_0 ||s||_1 / (S_0 + shift) <= _STIFF_RATIO take the
#: geometric series of :func:`_reciprocal_basis`, cut after _STIFF_TERMS
#: terms: its l1 tail is at most x^15/(1 - x) <= 9.3e-19 of 1/(S_0 + shift).
_STIFF_RATIO = 1.0 / 16.0
_STIFF_TERMS = 15


def _reciprocal_basis(S: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, C), shapes (K, len(S)) and (K, len(shifts)), with coefficients
    0..len(S)-1 of 1/(S(z) + shift_i) equal to sum_r C[r, i] B_r.

    Write S = S_0 (1 + s) with s_0 = 0 and beta = S_0/(S_0 + shift).  A stiff
    shift, x = beta ||s||_1 <= :data:`_STIFF_RATIO`, takes the geometric
    series 1/(S + shift) = sum_t (-beta)^t s^t / (S_0 + shift), cut at
    :data:`_STIFF_TERMS` terms: the stiff shifts share the powers s^t as
    rows of B, and their columns of C hold the series coefficients.  Every
    other (mild) shift has a row of B by Newton doubling
    (:func:`_newton_reciprocals`) and a unit column of C.
    """
    M, S0 = len(S), float(S[0])
    s = S / S0
    s[0] = 0.0
    beta = S0 / (S0 + shifts)
    stiff = beta * np.abs(s).sum() <= _STIFF_RATIO
    mild = np.flatnonzero(~stiff)
    terms = _STIFF_TERMS if stiff.any() else 0
    B = np.zeros((terms + len(mild), M))
    C = np.zeros((len(B), len(shifts)))
    if terms:
        B[0, 0] = 1.0
        B[1] = s
        nfft = _next_fast_len(2 * M - 1)
        s_hat = np.fft.rfft(s, nfft)
        for t in range(2, terms):          # s^t has t leading zeros, set exactly
            B[t] = np.fft.irfft(np.fft.rfft(B[t - 1], nfft) * s_hat, nfft)[:M]
            B[t, :t] = 0.0
        C[0] = stiff / (S0 + shifts)         # zero in the mild columns
        C[1:terms] = -beta
        np.cumprod(C[:terms], axis=0, out=C[:terms])
    if len(mild):
        _newton_reciprocals(S, shifts[mild], B[terms:])
        C[terms + np.arange(len(mild)), mild] = 1.0
    return B, C


def _newton_reciprocals(S: np.ndarray, shifts: np.ndarray, R: np.ndarray) -> None:
    """Write coefficients 0..len(S)-1 of 1/(S(z) + shift) into the rows of R,
    one per shift, by Newton doubling.

    If R is exact to m terms and (S + shift) R = 1 + z^m E, then R - z^m R E
    is exact to 2m terms.  Both products run as FFT products of length 2m;
    the first is a middle product, whose wrapped-around part lands only on
    the m low coefficients that are not used.  Each round transforms as
    many shifts per call as fit in ``_BLOCK``, so the short early rounds
    take many rows per FFT call.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    M = len(S)
    R[:, 0] = 1.0 / (S[0] + shifts)
    m = 1
    while m < M:
        m2 = min(2 * m, M)
        nfft = _next_fast_len(m2)
        S_hat = rfft(S[:m2], nfft)
        rows = max(1, _BLOCK // nfft)
        for b in range(0, len(shifts), rows):
            # Adding the shift to every bin adds it to the z^0 coefficient.
            P_hat = S_hat + shifts[b:b + rows, None]
            R_hat = rfft(R[b:b + rows, :m], nfft)
            E = irfft(P_hat * R_hat, nfft)[:, m:m2]
            R[b:b + rows, m:m2] = -irfft(R_hat * rfft(E, nfft), nfft)[:, :m2 - m]
        m = m2


def _residuals(A, S: np.ndarray, w: np.ndarray, d: np.ndarray,
               Arho: np.ndarray) -> np.ndarray:
    """|(S_0 I + A) w^n_b - rhs^n_b| / |rhs^n_b| for every step n and datum b,
    with rhs^n_b = -d_n A rho_b - sum_{j>=1} S_j w^(n-j)_b (0 at n = 0);
    w has shape (dim, trials, N+1), rows contiguous in time, and the result
    (N+1, trials).

    Everything runs in blocks of components, whose rows are contiguous: the
    histories are FFT convolutions of S with the rows, the operator supplies
    its rows of A w, and the squared norms of residual and right-hand side
    are summed over the blocks.  The cyclic convolutions of length >= 2N
    wrap only S_N w^N, onto step 0, whose residual is not taken.  No work
    array holds more than about max(trials x 2N, _BLOCK) elements.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    dim, trials, M = w.shape
    nfft = _next_fast_len(2 * M - 2)
    S_hat = rfft(S, nfft)
    flat = w.reshape(dim, -1)
    Arho = Arho.T[:, :, None]
    num, den = np.zeros((trials, M)), np.zeros((trials, M))
    comps = max(1, _BLOCK // (trials * nfft))
    for c in range(0, dim, comps):
        blk = w[c:c + comps]
        rhs = S[0] * blk
        rhs -= irfft(rfft(blk, nfft) * S_hat, nfft)[..., :M]      # minus the history
        rhs -= d * Arho[c:c + comps]
        res = S[0] * blk
        res += A._matvec_rows(flat, c, c + len(blk)).reshape(blk.shape)
        res -= rhs
        with np.errstate(over="ignore"):     # squares of entries beyond ~1e154
            num += np.einsum("ibn,ibn->bn", res, res)
            den += np.einsum("ibn,ibn->bn", rhs, rhs)
    if not np.isfinite(den).all():
        raise ParameterDomainError("data too large: a step's right-hand side "
                                   "has no finite float64 norm")
    out = np.sqrt(num) / np.maximum(np.sqrt(den), 1e-300)
    out[:, 0] = 0.0
    return out.T


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
        return TridiagonalLaplacian(d["size"], float(d.get("length", 1.0)))
    return DenseSPDOperator(d["matrix"])


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
    return np.atleast_1d(np.asarray(value, dtype=float))


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
    """Terminal errors and successive observed orders on a refinement path.

    ``max_residual`` is the largest relative step residual of the float64
    marches (None for the extended-precision twin)."""

    k: int
    alpha: float
    sigma: float
    lam: float
    corrected: bool
    N_list: tuple[int, ...]
    errors: tuple[float, ...]
    orders: tuple[float, ...]
    precision: int | None
    max_residual: float | None = None

    @property
    def observed_order(self) -> float:
        """Order estimate from the two finest grids."""
        return self.orders[-1]


def _refinement_path(N_list) -> tuple[int, ...]:
    N_list = tuple(check_count(n, "N", 1) for n in N_list)
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ParameterDomainError("N_list must be strictly increasing, length >= 2")
    return N_list


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
    return _path_reports(k, alpha, lam, N_list, ((sigma, corrected),), rho, T,
                         precision)[0]


#: Errors of the float64 path at or below this many ulps of e^(-sigma*T)*|rho|
#: are roundoff in u = e^(-sigma*T)*rho + w^N, not discretization error.
_ROUNDOFF_ULPS = 64


def _path_reports(k: int, alpha: float, lam: float, N_list, variants,
                  rho: float = 1.0, T: float = 1.0,
                  precision: int | None = None) -> list[ConvergenceReport]:
    """One :class:`ConvergenceReport` per (sigma, corrected) in ``variants``,
    all on the refinement path (k, alpha, lam, N_list).

    The variants share everything that does not depend on sigma: in the
    untempered frame S^ = tau^(-alpha) l, the reciprocal 1/(S^ + lam), the
    spatial solve and the residuals are sigma-free, and sigma enters only
    through the factor e^(-sigma*N*tau) of the terminal value.  So the
    float64 path builds each grid's S^ and reciprocal basis once, and each
    (grid, corrected) march once; every terminal value is formed by
    :func:`_with_layer`, so each error is bitwise that of a separate
    :func:`convergence_harness` call.  The twin likewise builds its weights
    and E_alpha once per path and marches each (grid, corrected) once.

    A float64 error at or below the cancellation floor of u^N
    (:data:`_ROUNDOFF_ULPS` ulps of e^(-sigma*T)*|rho|) raises
    ParameterDomainError: its orders would be noise.
    """
    check_order(k)
    check_alpha(alpha)
    if precision is not None:
        check_count(precision, "precision (digits)", 16)
    # validates lam, rho, T and every sigma
    problems = [scalar_problem(lam, alpha, sigma, rho, T) for sigma, _ in variants]
    N_list = _refinement_path(N_list)
    if N_list[0] < k:
        raise ParameterDomainError(f"need N >= k = {k}, got N = {N_list[0]}")
    max_residual = None
    if precision is None:
        exact = {sigma: exact_scalar_solution(lam, alpha, sigma, rho, T)
                 for sigma in {p.sigma for p in problems}}
        A = problems[0].A
        rho_b = problems[0].rho[None]
        errors = [[] for _ in variants]
        max_residual = {c: 0.0 for _, c in variants}
        for N in N_list:
            tau = problems[0].T / N
            S = discretize(problems[0].time_op, k, tau, N).untempered_weights
            basis = _reciprocal_basis(S[:-1], A.eigensystem()[0])
            for corrected in max_residual:
                w, residuals = _untempered_march(A, S, rho_b, _corrections(k, corrected),
                                                 basis)
                max_residual[corrected] = max(max_residual[corrected], float(residuals.max()))
                for i, (p, (_, c)) in enumerate(zip(problems, variants)):
                    if c == corrected:
                        decay = np.exp(-p.sigma * tau * np.arange(N + 1))[N]
                        error = abs(float(_with_layer(w[N, 0, 0], decay, p.rho[0]))
                                    - exact[p.sigma])
                        floor = _ROUNDOFF_ULPS * np.finfo(float).eps * decay * abs(rho)
                        if not error > floor:
                            raise ParameterDomainError(
                                f"error {error:.3g} at N = {N} is at the roundoff floor "
                                f"{floor:.3g} = {_ROUNDOFF_ULPS}*eps*e^(-sigma*T)*|rho| of "
                                f"u^N; its orders would be noise")
                        errors[i].append(error)
    else:
        from .highprec import _path_errors_mp
        errors = _path_errors_mp(k, alpha, lam, rho, T, N_list, variants, int(precision))
    reports = []
    for (sigma, corrected), errs in zip(variants, errors):
        orders = [math.log2(e0 / e1) if e0 > 0.0 and e1 > 0.0 else math.inf
                  for e0, e1 in zip(errs, errs[1:])]
        reports.append(ConvergenceReport(
            k=k, alpha=alpha, sigma=sigma, lam=lam, corrected=corrected,
            N_list=N_list, errors=tuple(errs), orders=tuple(orders),
            precision=precision,
            max_residual=None if max_residual is None else max_residual[corrected]))
    return reports


# ---------------------------------------------------------------------------
# Perturbation stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationRecord:
    """Energy-norm growth ratios of perturbed runs at one grid size, and the
    largest relative step residual of their march."""

    k: int
    N: int
    ratios_sq: tuple[float, ...]      # (1/N) sum_n ||eps^n||^2 / ||eps^0||^2
    ratios_lin: tuple[float, ...]     # tau sum_n ||eps^n|| / (T ||eps^0||)
    max_residual: float

    @property
    def max_sq(self) -> float:
        return max(self.ratios_sq)

    @property
    def max_lin(self) -> float:
        return max(self.ratios_lin)


def stability_experiment(problem: SubdiffusionProblem, k: int, N: int,
                         perturbations: int = 10, seed: int = 0) -> PerturbationRecord:
    """Perturbed solves, returning bounded-growth ratios.

    Each perturbation draws a standard Gaussian eps^0 and measures, in the
    energy norm, the difference between the runs from rho + eps^0 and from
    rho.  The scheme is linear in rho, so that difference is the run from
    eps^0 itself, and the ratios, normalised by |eps^0|, do not depend on
    its scale.  All perturbations are marched as one (perturbations x dim)
    block through the kernel of :func:`step_solve`, which evaluates and
    gates every run's residuals as well; the largest is kept in the record.
    ``perturbations`` must be an integer >= 1 and ``seed`` an integer >= 0.

    eps^0 holds the first perturbations x dim draws of
    :func:`~fracbdf.special._standard_normal` for ``seed``: Box-Muller on
    Python's seeded ``random()`` stream, which stays the same across Python
    and numpy versions.  Earlier versions drew from
    ``numpy.random.default_rng(seed)``, so their ratios for a seed differ.
    """
    perturbations = check_count(perturbations, "perturbations", 1)
    seed = check_count(seed, "seed", 0)
    A = problem.A
    eps0 = _standard_normal(seed, (perturbations, A.dim))
    tau, decay, w, residuals = _march(problem, k, N, eps0, True)
    # Energy norms |A^(1/2) eps^n_b| of every trajectory, in row blocks so
    # that no second full-size array is live beside w.
    w, decay = w[1:], decay[1:, None, None]
    norms = np.empty((N, perturbations))
    rows = max(1, _BLOCK // (perturbations * A.dim))
    for r in range(0, N, rows):
        eps = _with_layer(w[r:r + rows], decay[r:r + rows], eps0).reshape(-1, A.dim)
        sq = np.einsum("ij,ij->i", eps, A.matvec(eps.T).T)
        norms[r:r + rows] = np.sqrt(np.maximum(sq, 0.0)).reshape(-1, perturbations)
    e0 = np.array([A.energy_norm(e) for e in eps0])
    ratios_sq = np.sum(norms ** 2, axis=0) / (N * e0 ** 2)
    ratios_lin = tau * np.sum(norms, axis=0) / (problem.T * e0)
    return PerturbationRecord(k=k, N=N, ratios_sq=tuple(map(float, ratios_sq)),
                              ratios_lin=tuple(map(float, ratios_lin)),
                              max_residual=float(residuals.max()))


#: Largest accepted growth of the maximum ratios from the coarsest grid of a
#: refinement path to its finest.
GROWTH_FACTOR = 2.0


@dataclass(frozen=True)
class RefinementStabilityReport:
    """Perturbation ratios across a refinement path, with a bounded verdict."""

    k: int
    records: tuple[PerturbationRecord, ...]

    @property
    def bounded(self) -> bool:
        first, last = self.records[0], self.records[-1]
        return (last.max_sq <= GROWTH_FACTOR * first.max_sq
                and last.max_lin <= GROWTH_FACTOR * first.max_lin)

    @property
    def max_residual(self) -> float:
        return max(r.max_residual for r in self.records)


def stability_refinement(problem: SubdiffusionProblem, k: int, N_list,
                         perturbations: int = 10, seed: int = 0) -> RefinementStabilityReport:
    """Repeat the perturbation experiment on successively finer grids.

    The same seed is used at every grid size so the drawn perturbations
    match across the refinement and the ratios are directly comparable.
    ``N_list`` must be strictly increasing with at least two sizes, so that
    the verdict compares a coarsest and a finest grid, against
    :data:`GROWTH_FACTOR`.
    """
    records = tuple(stability_experiment(problem, k, N, perturbations, seed)
                    for N in _refinement_path(N_list))
    return RefinementStabilityReport(k=k, records=records)

"""The numpy spatial kernels of the march against the scipy routines they
replace: the partitioned tridiagonal solve against LAPACK ``dpttrs``, the
DST-I against ``scipy.fft.dst``, ``_next_fast_len`` against
``scipy.fft.next_fast_len`` and the dense solve from the eigensystem
against Cholesky.  The solve into ``out=``, which the march makes in its
right-hand-side buffer, against the plain solve, and the memory that
buffer saves."""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dst, next_fast_len
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpttrf, dpttrs

from fracbdf import (DenseSPDOperator, FractionalOperatorSpec, ScalarOperator, SingleTerm,
                     SubdiffusionProblem, TridiagonalLaplacian, step_solve)
from fracbdf.solver import _dst_ortho, _next_fast_len


def _backward_errors(x, b, matvec, norm_A):
    """Normwise backward error |b - M x| / (|M| |x| + |b|) of each column,
    in blocks of columns to keep the work arrays small."""
    out = []
    for c in range(0, x.shape[1], 512):
        xc, bc = x[:, c:c + 512], b[:, c:c + 512]
        out.append(np.linalg.norm(matvec(xc) - bc, axis=0)
                   / (norm_A * np.linalg.norm(xc, axis=0) + np.linalg.norm(bc, axis=0)))
    return np.concatenate(out)


@pytest.mark.parametrize("cols", (1, 5, 4097))
@pytest.mark.parametrize("shift", (0.0, 1.0, 1e6))
@pytest.mark.parametrize("size", (1, 2, 3, 63, 64, 127, 128, 509, 512, 2039, 2048))
def test_tridiagonal_solve_matches_dpttrs(size, shift, cols):
    A = TridiagonalLaplacian(size)
    main, off = 2.0 / A.h ** 2 + shift, -1.0 / A.h ** 2
    b = np.random.default_rng(size + cols).standard_normal((size, cols))
    x = A.shifted_solver(shift)(b)
    if size == 1:                     # no off-diagonal: the LAPACK wrappers refuse it
        ref = b / main
    else:
        d, e, info = dpttrf(np.full(size, main), np.full(size - 1, off))
        assert info == 0
        ref = dpttrs(d, e, b)[0]
    assert x.shape == b.shape
    if size < 128:                    # one piece: dpttrf/dpttrs's own arithmetic
        assert np.array_equal(x, ref)
    else:
        def matvec(v):
            return shift * v + A.matvec(v)

        norm_A = 4.0 / A.h ** 2 + shift
        ours = _backward_errors(x, b, matvec, norm_A).max()
        lapack = _backward_errors(ref, b, matvec, norm_A).max()
        assert ours <= 1e-13 and ours <= 2.0 * lapack


def test_tridiagonal_solve_refuses_an_indefinite_shift():
    A = TridiagonalLaplacian(300)
    A.shifted_solver(-0.99 * A.eigenvalues()[0])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        A.shifted_solver(-1.01 * A.eigenvalues()[0])


def test_dense_solve_refuses_an_indefinite_shift():
    A = _operator("dense", 64)
    lam_min = A.eigensystem()[0][0]
    A.shifted_solver(-0.99 * lam_min)
    for shift in (-lam_min, -1.01 * lam_min):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            A.shifted_solver(shift)


@pytest.mark.parametrize("n", (1, 2, 3, 9, 64, 511, 512, 2039, 2048))
def test_dst_matches_scipy_and_inverts_itself(n):
    x = np.random.default_rng(n).standard_normal((3, n))
    y = _dst_ortho(x)
    ref = dst(x, type=1, norm="ortho", axis=-1)
    assert np.all(np.linalg.norm(y - ref, axis=1) <= 1e-15 * np.linalg.norm(ref, axis=1))
    assert np.all(np.linalg.norm(_dst_ortho(y) - x, axis=1)
                  <= 1e-15 * np.linalg.norm(x, axis=1))
    assert np.array_equal(_dst_ortho(x[1]), y[1])          # one vector, any leading shape


def test_next_fast_len_matches_scipy():
    assert all(_next_fast_len(n) == next_fast_len(n, real=True) for n in range(1, 20001))


@pytest.mark.parametrize("shift", (0.0, 1.0, 1e6))
@pytest.mark.parametrize("dim", (1, 2, 17, 128))
def test_dense_solve_matches_cholesky(dim, shift):
    rng = np.random.default_rng(dim)
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    A = DenseSPDOperator((Q * np.geomspace(1.0, 1e5, dim)) @ Q.T)
    b = rng.standard_normal((dim, 1025))
    x = A.shifted_solver(shift)(b)
    M = A.matrix + shift * np.eye(dim)
    ref = cho_solve(cho_factor(M), b)
    norm_M = np.linalg.norm(M, 2)
    assert _backward_errors(x, b, lambda v: M @ v, norm_M).max() <= 1e-13
    assert _backward_errors(ref, b, lambda v: M @ v, norm_M).max() <= 1e-13
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


@functools.lru_cache(maxsize=None)
def _operator(kind, dim):
    if kind == "scalar":
        return ScalarOperator(2.5)
    if kind == "tridiagonal":
        return TridiagonalLaplacian(dim)
    return DenseSPDOperator(np.diag(np.full(dim, 3.0)) + np.diag(np.ones(dim - 1), 1)
                            + np.diag(np.ones(dim - 1), -1))


DIMS = (1, 2, 63, 64, 127, 128, 509, 512, 2048)
#: The dense operator stops at 512: its eigh set-up at 2048 takes seconds.
OUT_CASES = ([("scalar", 1)] + [("tridiagonal", d) for d in DIMS]
             + [("dense", d) for d in DIMS if d <= 512])


@pytest.mark.parametrize("cols", (1, 5, 4097))
@pytest.mark.parametrize("kind, dim", OUT_CASES)
def test_solve_into_out_is_bitwise_the_plain_solve(kind, dim, cols):
    solve = _operator(kind, dim).shifted_solver(0.5)
    b = np.random.default_rng(dim + cols).standard_normal((dim, cols))
    b0 = b.copy()
    x = solve(b)
    assert x.shape == b.shape and b.tobytes() == b0.tobytes()      # b is left alone
    in_place = b.copy()
    assert solve(in_place, out=in_place) is in_place
    assert in_place.tobytes() == x.tobytes()
    out = np.full_like(b, np.nan)
    assert solve(b, out=out) is out
    assert out.tobytes() == x.tobytes() and b.tobytes() == b0.tobytes()
    vec = b[:, 0].copy()                                           # one right-hand side
    assert solve(vec, out=vec) is vec and vec.tobytes() == solve(b[:, 0]).tobytes()


def test_tridiagonal_solve_refuses_an_out_it_cannot_fill():
    A = TridiagonalLaplacian(300)
    solve, b = A.shifted_solver(1.0), np.ones((300, 4))
    for out in (np.empty((4, 300)).T, np.empty((300, 5)), np.empty((300, 4), dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            solve(b, out=out)


@pytest.mark.parametrize("dim, N", [(512, 1024), (2039, 512)])
def test_march_solves_in_its_right_hand_side_buffer(dim, N):
    """A step_solve holds one trajectory, the (N+1) x dim float64 array of
    its right-hand sides, which it solves in place and turns into u in place:
    the multi-piece tridiagonal solve sweeps its whole pieces in that buffer
    (dim 2039 adds a padded last piece, the only one it copies).  Its traced
    peak is at most 1.3 trajectories and its result holds at most 1.05
    (2.11 and 2.00 with an (m, P, cols) sweep buffer and u stored beside w)."""
    A = TridiagonalLaplacian(dim)
    problem = SubdiffusionProblem(A, np.sin(np.pi * A.grid()), 1.0,
                                  FractionalOperatorSpec(SingleTerm(0.5)))
    step_solve(problem, 4, N)                   # fill the weight and FFT-length caches
    tracemalloc.start()
    try:
        result = step_solve(problem, 4, N)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    trajectory = (N + 1) * dim * 8
    assert peak <= 1.3 * trajectory
    assert held <= 1.05 * trajectory
    assert result.u.shape == (N + 1, dim)

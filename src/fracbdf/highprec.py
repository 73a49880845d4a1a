"""Fixed-point extended-precision twin of the scalar time stepper.

Measuring the observed convergence order of the high-order schemes needs
error resolution far below the double-precision roundoff floor: at k = 6
and N = 512 the true terminal error sits near 1e-16 while the float64
history recursion bottoms out around 1e-14.  This module reruns the scalar
recursion in exact Python-integer arithmetic on fixed-point numbers
x = X / 2^P with

    P = ceil(dps * log2(10)) + 32

fraction bits, so ``dps`` (the ``precision`` of the convergence harness)
sets the resolution 2^-P, about 10^-dps with 32 guard bits for the
roundings of the O(N) recurrences.  Every product is exact and every
quotient or rescale rounds once toward -infinity.

* The weights l_j of p(z)^alpha come from the power-of-a-series recurrence
  in integers: the p_m are scaled by their common denominator and alpha is
  the exact dyadic fraction of its float.
* Tempering is taken out as in the float64 path: e^(sigma t) u solves the
  untempered problem, so the march uses the weights l_j themselves and no
  sigma, and sigma enters once, as the factor e^(-sigma T) of the terminal
  value.  One march serves every sigma.
* The step equation is divided by tau^(-alpha), so only mu = lam tau^alpha
  enters, and rho is factored out by linearity, so the marched
  v = e^(sigma t) u / rho - 1 is O(1) and the fixed-point scale fits every
  grid.
* The histories H_n = sum_{j>=1} l_j v_(n-j) are formed by divide and
  conquer over the steps, the form of the fast Toeplitz solve of Hairer,
  Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 1985): solve the left
  half of a block of steps, add its contribution to the histories of the
  right half, then solve the right half.  Blocks of at most ``_LEAF``
  steps sum their own terms directly.  The contribution of a left half is
  one big-integer product by Kronecker substitution: the half's v and the
  weights are packed into signed W-bit slots of two integers, with W
  taken at each node from the bit lengths of the actual operands so that
  no slot can overflow; each weight prefix is packed once per march and
  slot width.  Every H_n is therefore the same exact integer as
  a step-by-step dot product gives, and every v_n is bitwise the same.
  With CPython's Karatsuba multiplication M(N) the march costs
  O(M(N) log N) instead of the N^2/2 products of the step-by-step sums.

mpmath supplies only the transcendental scalars p_0^alpha, tau^alpha,
e^(-sigma T) and the Mittag-Leffler reference value.  Only the scalar
single-term problem is provided here; production solves stay in float64.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from mpmath import mp, mpf

from .coefficients import _miller, bdf_polynomial, check_alpha, check_order
from .errors import check_count
from .solver import correction_weights, scalar_problem
from .special import mittag_leffler_mp

#: Guard bits carried beyond the requested resolution.
_GUARD = 32

#: Largest block of steps whose histories are summed term by term.
_LEAF = 16


def fixed_bits(dps: int) -> int:
    """Fraction bits P of the fixed-point twin at ``dps`` digits."""
    return math.ceil(dps * math.log2(10)) + _GUARD


def _to_fixed(x, P: int) -> int:
    """floor(x * 2^P) for an mpf x computed to at least P bits."""
    return int(mp.floor(mp.ldexp(x, P)))


def scalar_weights_mp(k: int, alpha, J: int, bits: int) -> list:
    """Fixed-point weights floor(l_j 2^bits), j = 0..J, of p(z)^alpha, from
    the power recurrence of the float weights (:func:`~fracbdf.coefficients._miller`)

        j c_0 l_j = sum_{m=1}^{min(j,k)} c_m ((alpha + 1) m - j) l_{j-m}

    in integers: c_m = p_m * lcm(denominators), alpha + 1 = up/ad exactly,
    l_0 = p_0^alpha, and each quotient rounded toward -infinity.
    """
    check_order(k)
    check_alpha(alpha)
    p = bdf_polynomial(k)
    den = math.lcm(*(pm.denominator for pm in p))
    c = [pm.numerator * (den // pm.denominator) for pm in p]
    a = Fraction(alpha)                # exact: a float is a dyadic rational
    up, ad = a.numerator + a.denominator, a.denominator
    with mp.workprec(bits + _GUARD):
        l0 = _to_fixed((mpf(p[0].numerator) / p[0].denominator) ** mpf(alpha), bits)
    return _miller(c, l0, up, ad, J + 1, operator.floordiv)


def _biases(n: int, B: int) -> int:
    """sum_{i<n} 2^(8 B - 1) 2^(8 B i): the bias of n packed B-byte slots."""
    return int.from_bytes((bytes(B - 1) + b"\x80") * n, "little")


def _pack(xs: list, B: int) -> int:
    """sum_i xs[i] 2^(8 B i) for integers |xs[i]| < 2^(8 B - 1): each slot
    holds the bytes of xs[i] + 2^(8 B - 1), and the biases are subtracted
    as one packed integer."""
    half = 1 << (8 * B - 1)
    raw = b"".join([(x + half).to_bytes(B, "little") for x in xs])
    return int.from_bytes(raw, "little") - _biases(len(xs), B)


def _product_slots(a: list, b: list, first: int, stop: int, memo: dict | None = None) -> list:
    """Coefficients first..stop-1 of the polynomial product of a and b.

    Kronecker substitution: both factors are packed into W-bit slots and
    multiplied as two integers.  W is a multiple of 8 with 2^(W-1) above
    every |coefficient| <= len * max|a| * max|b|, so the slots of the
    product do not overlap once each is offset by 2^(W-1), and they are
    read back as byte slices.  ``memo`` (a dict) keeps the bit length and
    the packings of b by len(b) for later calls, which is valid when every
    b of one length is the same list, as the prefixes of one weight vector
    are.
    """
    if memo is None:
        memo = {}
    if len(b) not in memo:
        memo[len(b)] = (max(map(abs, b)).bit_length(), {})
    b_bits, packed = memo[len(b)]
    bits = max(map(abs, a)).bit_length() + b_bits + max(len(a), len(b)).bit_length() + 2
    B = -(-bits // 8)
    if B not in packed:
        packed[B] = _pack(b, B)
    slots = len(a) + len(b) - 1
    raw = (_pack(a, B) * packed[B] + _biases(slots, B)).to_bytes(slots * B, "little")
    half = 1 << (8 * B - 1)
    return [int.from_bytes(raw[s * B:(s + 1) * B], "little") - half
            for s in range(first, stop)]


def _march_fixed(l: list, k: int, alpha: float, lam: float, T: float, N: int,
                 corrected: bool, P: int) -> int:
    """Fixed-point e^(sigma T) u^N / rho, the same for every sigma, from
    fixed-point weights l_0..l_(>=N)."""
    with mp.workprec(P + _GUARD):
        mu = _to_fixed(mpf(lam) * (mpf(T) / N) ** mpf(alpha), P)
    d = [0] + [1 << P] * N             # d_n = 1 + a_n
    if corrected:
        for n, a in zip(range(1, N + 1), correction_weights(k)):
            d[n] = d[n] * (a.numerator + a.denominator) // a.denominator
    shift = l[0] + mu
    v = [0] * (N + 1)
    H = [0] * (N + 1)                  # histories, accumulated block by block
    memo = {}                          # packings of the prefixes l[1:m]

    def solve_block(lo: int, hi: int) -> None:
        """v[lo:hi], given H[lo:hi] with every term from v[:lo] added."""
        if hi - lo <= _LEAF:
            for n in range(lo, hi):
                hist = H[n] + sum(map(int.__mul__, l[1:n - lo + 1], reversed(v[lo:n])))
                v[n] = ((-(d[n] * mu >> P) - (hist >> P)) << P) // shift
            return
        mid = (lo + hi) // 2
        solve_block(lo, mid)
        # H[n] += sum_{m=lo}^{mid-1} l_(n-m) v_m for n in [mid, hi): slots
        # mid-lo-1 .. hi-lo-2 of the product of v[lo:mid] and l[1:hi-lo].
        for n, h in zip(range(mid, hi), _product_slots(v[lo:mid], l[1:hi - lo],
                                                       mid - lo - 1, hi - lo - 1, memo)):
            H[n] += h
        solve_block(mid, hi)

    solve_block(1, N + 1)
    # the closure refers to itself; clearing its cell frees v, H and memo on
    # return instead of at the next cyclic garbage collection
    del solve_block
    return v[N] + (1 << P)


def _check_scalar(alpha: float, sigma: float, lam: float, rho: float, T: float, N: int,
                  dps: int) -> None:
    """Reject what :func:`~fracbdf.solver.scalar_problem` rejects, an N that
    is not an integer >= 1 and a dps that is not an integer >= 16, the
    floor of ``convergence_harness``'s ``precision``."""
    scalar_problem(lam, alpha, sigma, rho, T)
    check_count(N, "N", 1)
    check_count(dps, "dps", 16)


def terminal_error_mp(k: int, alpha: float, sigma: float, lam: float,
                      rho: float, T: float, N: int, corrected: bool = True,
                      dps: int = 30) -> float:
    """|u^N - u(T)| with both sides evaluated at ``dps`` digits or finer."""
    _check_scalar(alpha, sigma, lam, rho, T, N, dps)
    return _path_errors_mp(k, alpha, lam, rho, T, (N,), ((sigma, corrected),), dps)[0][0]


def _path_errors_mp(k: int, alpha: float, lam: float, rho: float, T: float,
                    N_list, variants, dps: int) -> list[list[float]]:
    """Terminal errors along one refinement path for every (sigma,
    corrected) in ``variants``.  The weights l_j and E_alpha(-lam T^alpha)
    are built once and each (N, corrected) is marched once: every sigma's
    u^N is e^(-sigma T) rho times the same sigma-free terminal value."""
    P = fixed_bits(dps)
    l = scalar_weights_mp(k, alpha, max(N_list), P)
    with mp.workdps(dps):
        tt = mpf(T)
        E = mittag_leffler_mp(alpha, -mpf(lam) * tt ** mpf(alpha))
        exact = [mp.exp(-mpf(sigma) * tt) * E * rho for sigma, _ in variants]
    errors = [[] for _ in variants]
    for N in N_list:
        for corrected in dict.fromkeys(c for _, c in variants):
            v = _march_fixed(l, k, alpha, lam, T, N, corrected, P)
            with mp.workprec(P):
                for (sigma, c), ref, errs in zip(variants, exact, errors):
                    if c == corrected:
                        u = mpf((v, -P)) * (mp.exp(-mpf(sigma) * tt) * mpf(rho))
                        errs.append(float(abs(u - ref)))
    return errors

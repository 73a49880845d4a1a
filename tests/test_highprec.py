import math

import pytest
from mpmath import mp

from fracbdf import bdf_l_coefficients, mittag_leffler, scalar_problem, step_solve
from fracbdf.highprec import fixed_bits, mittag_leffler_mp, scalar_weights_mp, terminal_error_mp
from references import solve_scalar_mp


def test_mp_weights_match_float_path():
    P = fixed_bits(30)
    lmp = [x / 2 ** P for x in scalar_weights_mp(4, 0.5, 64, P)]
    lf = bdf_l_coefficients(4, 0.5, 64)
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(lmp, lf))
    assert worst <= 1e-13


def test_mp_mittag_leffler_matches_float():
    with mp.workdps(30):
        v = float(mittag_leffler_mp(0.5, -1.0))
    assert v == pytest.approx(mittag_leffler(0.5, -1.0), rel=1e-13)


@pytest.mark.parametrize("x", (10, 50))
def test_mp_mittag_leffler_beyond_the_series(x):
    # E_1/2(-x) = exp(x^2) erfc(x); at dps 30 the series peaks at 10^43
    # (x = 10) and beyond 10^1000 (x = 50), so the value is the integral's
    with mp.workdps(30):
        v = mittag_leffler_mp(0.5, -x)
    with mp.workdps(40):
        ref = mp.exp(mp.mpf(x) ** 2) * mp.erfc(x)
        assert abs(v - ref) <= mp.mpf(10) ** -28 * ref


def test_mp_solver_matches_float_solver():
    res = step_solve(scalar_problem(1.0, 0.5, sigma=0.5), 3, 32)
    u_mp = solve_scalar_mp(3, 0.5, 0.5, 1.0, 1.0, 1.0, 32, dps=30)
    assert float(u_mp) == pytest.approx(float(res.terminal[0]), abs=1e-13)


def test_mp_terminal_error_shows_third_order():
    e1 = terminal_error_mp(3, 0.5, 0.0, 1.0, 1.0, 1.0, 32, dps=25)
    e2 = terminal_error_mp(3, 0.5, 0.0, 1.0, 1.0, 1.0, 64, dps=25)
    assert math.log2(e1 / e2) == pytest.approx(3.0, abs=0.2)

"""The Gauss-Kronrod Mittag-Leffler integral against the scipy.integrate.quad
path it replaced and against mpmath near alpha = 1, its panel limit, and the
modules an evaluation loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracbdf
from fracbdf import mittag_leffler, special
from fracbdf.errors import InternalConsistencyError
from fracbdf.special import _integral

from references import integral_quad


@pytest.mark.parametrize("alpha", (0.005, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97,
                                   0.99, 0.999))
@pytest.mark.parametrize("x", (0.01, 0.5, 1.0, 3.0, 5.5, 8.0, 20.0, 100.0, 1e3, 1e5,
                               1e10, 1e300))
def test_integral_agrees_with_quad(alpha, x):
    ref = integral_quad(alpha, -x)
    assert ref > 0.0
    assert abs(_integral(alpha, -x) - ref) <= 1e-11 * ref


@pytest.mark.parametrize("alpha, x", [(a, x) for a in (0.9999, 0.99999) for x in (6.0, 12.0, 30.0, 1e3)]
                         + [(0.999999, x) for x in (12.0, 30.0, 1e3)])
def test_integral_near_unit_order_against_mp_quadrature(alpha, x):
    # As alpha -> 1 the denominator's minimum sin^2(alpha pi) sits at
    # v = x |cos(alpha pi)|; expanded as (v/x)^2 + 2 cos(alpha pi) v/x + 1 it
    # cancelled there, and quad raised or was off by up to 2.6e-6.
    ref = _integral_mp40(alpha, x)
    assert abs(mittag_leffler(alpha, -x) - ref) <= 1e-12 * ref


def _integral_mp40(alpha, x):
    """E_alpha(-x) from the same integral by a 40-digit ``mp.quad`` with
    edges around the near-pole."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        a, X = mpf(alpha), mpf(x)
        c = mp.cospi(a)
        pole = -c * X
        edges = sorted({mpf(0), mpf(1)} | {pole * f for f in (0.9, 0.999, 1, 1.001, 1.1)})
        val = mp.quad(lambda v: mp.exp(-v ** (1 / a)) / ((v / X) ** 2 + 2 * c * v / X + 1),
                      edges + [mp.inf])
        return float(mp.sinpi(a) / (a * mp.pi * X) * val)


@pytest.mark.parametrize("alpha, x", [(0.999998, 5.01), (0.999998, 6.0), (0.999998, 7.0),
                                      (0.999999, 6.0)])
def test_integral_of_thousands_meets_its_relative_tolerance(alpha, x):
    # The integral is ~e^(-x) x / (1 - alpha), ~1e3-1e4 here.  Its error
    # estimate met 1e-12 of it, yet an absolute cap of 1e-9 refused it.
    ref = _integral_mp40(alpha, x)
    assert abs(mittag_leffler(alpha, -x) - ref) <= 1e-12 * ref


def test_panel_limit_raises(monkeypatch):
    monkeypatch.setattr(special, "_PANEL_LIMIT", 1)
    with pytest.raises(InternalConsistencyError, match="panels"):
        _integral(0.5, -7.0)


def test_mittag_leffler_loads_no_quadrature_modules():
    """The integral route and the closed-form solution need neither
    scipy.integrate (nor the scipy.optimize, scipy.sparse it pulls in) nor
    mpmath."""
    code = ("import sys\n"
            "from fracbdf import exact_scalar_solution, mittag_leffler\n"
            "mittag_leffler(0.5, -7.0)\n"
            "mittag_leffler(0.8, -355.0)\n"
            "exact_scalar_solution(355.0, 0.8, 0.3, 1.0, 1.0)\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse',"
            " 'mpmath') if m in sys.modules))\n")
    src = str(Path(fracbdf.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines() == ["[]"]

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracbdf import (DistributedOrder, FracParams, FractionalOperatorSpec,
                     MultiTerm, ParameterDomainError, QuadratureRule, ScalarOperator,
                     SingleTerm, SubdiffusionProblem, TridiagonalLaplacian, apply_history,
                     bdf_g_coefficients, discretize, operator_spec_from_dict, solver,
                     step_solve)


def test_single_term_validation():
    SingleTerm(alpha=1.0)
    with pytest.raises(ParameterDomainError):
        SingleTerm(alpha=0.0)
    with pytest.raises(ParameterDomainError):
        SingleTerm(alpha=1.2)


def test_multi_term_validation():
    MultiTerm(terms=((2.0, 0.8), (1.0, 0.3)))
    with pytest.raises(ParameterDomainError):
        MultiTerm(terms=())
    with pytest.raises(ParameterDomainError):
        MultiTerm(terms=((1.0, 0.3), (1.0, 0.8)))      # increasing orders
    with pytest.raises(ParameterDomainError):
        MultiTerm(terms=((-1.0, 0.5),))
    with pytest.raises(ParameterDomainError):
        MultiTerm(terms=((1.0, 1.0),))


def test_quadrature_rule():
    rule = QuadratureRule.gauss_legendre(16)
    assert len(rule.nodes) == 16
    assert all(0.0 < a < 1.0 for a in rule.nodes)
    assert sum(rule.weights) == pytest.approx(1.0, rel=1e-14)
    assert all(type(a) is float for a in rule.nodes + rule.weights)
    with pytest.raises(ParameterDomainError):
        QuadratureRule(nodes=[0.0, 0.5], weights=[0.5, 0.5])
    with pytest.raises(ParameterDomainError):
        QuadratureRule(nodes=[0.5], weights=[])


def test_spec_sigma_validation():
    with pytest.raises(ParameterDomainError):
        FractionalOperatorSpec(SingleTerm(0.5), sigma=-0.1)


def test_discretize_single_term_scaling():
    tau = 0.1
    spec = FractionalOperatorSpec(SingleTerm(alpha=0.5), sigma=0.0)
    op = discretize(spec, 3, tau, 8)
    assert op.scales == (tau ** -0.5,)
    table = bdf_g_coefficients(3, FracParams(alpha=0.5, tau=tau), 8)
    assert float(op.weights[0]) == pytest.approx(tau ** -0.5 * table.g[0], rel=1e-15)


def test_discretize_multi_term_zero_weight():
    tau = 0.2
    spec = FractionalOperatorSpec(MultiTerm(terms=((2.0, 0.8), (1.0, 0.3))))
    op = discretize(spec, 2, tau, 8)
    g08 = bdf_g_coefficients(2, FracParams(alpha=0.8, tau=tau), 8).g[0]
    g03 = bdf_g_coefficients(2, FracParams(alpha=0.3, tau=tau), 8).g[0]
    assert float(op.weights[0]) == pytest.approx(
        2.0 * tau ** -0.8 * g08 + tau ** -0.3 * g03, rel=1e-14)


_NO_G_SPECS = (
    FractionalOperatorSpec(SingleTerm(alpha=0.5), sigma=0.0),
    FractionalOperatorSpec(MultiTerm(terms=((2.0, 0.8), (1.0, 0.3))), sigma=0.4),
    FractionalOperatorSpec(DistributedOrder(weight=lambda a: 1.0,
                                            quadrature=QuadratureRule.gauss_legendre(4)),
                           sigma=1.0),
)


@pytest.mark.parametrize("spec", _NO_G_SPECS, ids=("single", "multi", "distributed"))
def test_march_builds_no_tempered_table(spec, monkeypatch):
    # the march reads only the untempered weights, so no table forms its g
    ops = []

    def recording(*args):
        ops.append(discretize(*args))
        return ops[-1]

    monkeypatch.setattr(solver, "discretize", recording)
    step_solve(SubdiffusionProblem(A=TridiagonalLaplacian(8), rho=np.ones(8), T=1.0,
                                   time_op=spec), 4, 100)
    assert len(ops) == 1
    for op in ops + [discretize(spec, 4, 0.01, 100)]:
        assert op.untempered_weights.shape == (101,)
        assert all("g" not in t.__dict__ for t in op.tables)


def test_history_empty_and_first_step():
    spec = FractionalOperatorSpec(SingleTerm(alpha=0.5))
    op = discretize(spec, 2, 0.1, 8)
    assert apply_history(op, np.zeros((1, 3)), 1) == pytest.approx(np.zeros(3))
    out = apply_history(op, np.zeros((0,)), 0)
    assert float(out) == 0.0


def test_history_classical_backward_euler():
    tau = 0.25
    spec = FractionalOperatorSpec(SingleTerm(alpha=1.0))
    op = discretize(spec, 1, tau, 4)
    hist = apply_history(op, np.array([0.0, 3.0]), 2)
    assert float(hist) == pytest.approx(-3.0 / tau, rel=1e-14)


def test_history_superposition_linearity():
    tau = 0.1
    rng = np.random.default_rng(42)
    W = rng.standard_normal((6, 4))
    multi = discretize(FractionalOperatorSpec(MultiTerm(((2.0, 0.8), (1.0, 0.3)))),
                       3, tau, 6)
    # scaled single-term pieces: b_i folded in through one-node quadrature
    part1 = discretize(FractionalOperatorSpec(DistributedOrder(
        weight=lambda a: 2.0, quadrature=QuadratureRule(nodes=(0.8,), weights=(1.0,)))),
        3, tau, 6)
    part2 = discretize(FractionalOperatorSpec(SingleTerm(alpha=0.3)), 3, tau, 6)
    combined = apply_history(multi, W, 6)
    split = apply_history(part1, W, 6) + apply_history(part2, W, 6)
    assert_allclose(combined, split, rtol=1e-13)


def test_dirac_comb_equivalence():
    tau = 0.05
    terms = ((2.0, 0.8), (1.0, 0.3))
    multi = discretize(FractionalOperatorSpec(MultiTerm(terms)), 4, tau, 8)
    comb = discretize(FractionalOperatorSpec(DistributedOrder(
        weight=lambda a: 1.0,
        quadrature=QuadratureRule(nodes=(0.8, 0.3), weights=(2.0, 1.0)))),
        4, tau, 8)
    rng = np.random.default_rng(7)
    W = rng.standard_normal((8, 2))
    assert float(multi.weights[0]) == float(comb.weights[0])
    assert_allclose(apply_history(multi, W, 8), apply_history(comb, W, 8),
                    rtol=0.0, atol=0.0)


def test_history_length_guard():
    op = discretize(FractionalOperatorSpec(SingleTerm(0.5)), 2, 0.1, 8)
    with pytest.raises(ParameterDomainError):
        apply_history(op, np.zeros((3, 2)), 4)


def test_negative_weight_rejected():
    spec = FractionalOperatorSpec(DistributedOrder(
        weight=lambda a: a - 0.5, quadrature=QuadratureRule.gauss_legendre(8)))
    with pytest.raises(ParameterDomainError):
        discretize(spec, 2, 0.1, 4)


def test_spec_from_dict_variants():
    s = operator_spec_from_dict({"variant": "single_term", "alpha": 0.5, "sigma": 0.25})
    assert isinstance(s.variant, SingleTerm) and s.sigma == 0.25
    s = operator_spec_from_dict({"variant": "multi_term",
                                 "terms": [[2.0, 0.8], [1.0, 0.3]]})
    assert isinstance(s.variant, MultiTerm)
    s = operator_spec_from_dict({"variant": "distributed_order",
                                 "weight": "constant", "nodes": 8})
    assert isinstance(s.variant, DistributedOrder)
    assert len(s.variant.quadrature.nodes) == 8
    s = operator_spec_from_dict({"variant": "distributed_order",
                                 "weight": "power", "weight_params": {"p": 2.0}})
    assert s.variant.weight(0.5) == pytest.approx(0.25)
    s = operator_spec_from_dict({"variant": "distributed_order",
                                 "weight": "dirac_comb",
                                 "weight_params": {"terms": [[2.0, 0.8], [1.0, 0.3]]}})
    assert isinstance(s.variant, MultiTerm)


def test_spec_from_dict_rejects_unknown():
    with pytest.raises(ParameterDomainError):
        operator_spec_from_dict({"variant": "single_term", "alpha": 0.5, "beta": 1})
    with pytest.raises(ParameterDomainError):
        operator_spec_from_dict({"variant": "mystery"})
    with pytest.raises(ParameterDomainError):
        operator_spec_from_dict({"variant": "distributed_order", "weight": "nope"})
    with pytest.raises(ParameterDomainError):
        operator_spec_from_dict({"alpha": 0.5})


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
def test_non_finite_parameters_rejected(bad):
    spec = FractionalOperatorSpec(SingleTerm(0.5))
    for build in (lambda: FracParams(alpha=0.5, sigma=bad),
                  lambda: FracParams(alpha=0.5, tau=bad),
                  lambda: FractionalOperatorSpec(SingleTerm(0.5), sigma=bad),
                  lambda: operator_spec_from_dict(
                      {"variant": "single_term", "alpha": 0.5, "sigma": bad}),
                  lambda: ScalarOperator(bad),
                  lambda: SubdiffusionProblem(A=ScalarOperator(1.0), rho=[1.0],
                                              T=bad, time_op=spec)):
        with pytest.raises(ParameterDomainError):
            build()

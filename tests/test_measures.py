import warnings

import numpy as np
import pytest

from conftest import random_valid_pickands
from helpers import ALOG_PARAMS, alog_value, mpmath_alog_tau2, run_python
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    FullModelParam,
    GenericPickands,
    PickandsPoly,
    SymmetricMixed,
    approx_error_bound,
    basis_eval,
    bernstein_approx,
    comonotone,
    independence,
    model_pickands,
    submodel_tau_range,
    tau_measures,
    theta_to_pickands,
)


def test_tau_trivial_endpoints():
    rep = tau_measures(independence())
    assert rep.tau1 == pytest.approx(0.0, abs=1e-12)
    assert rep.tau2 == pytest.approx(0.0, abs=1e-14)
    rep = tau_measures(comonotone())
    assert rep.tau1 == pytest.approx(1.0, abs=1e-12)
    assert rep.tau2 == pytest.approx(1.0, abs=1e-14)


ALOG_PSI_PAIRS = [(0.1, 0.5), (0.9, 0.6), (0.3, 0.3), (1.0, 0.7), (0.5, 1.0)]


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_tau2_of_alog_matches_mpmath(alpha):
    # from a near-kink at small alpha to an infinite A'' at both ends for alpha > 1/2
    for psi1, psi2 in ALOG_PSI_PAIRS:
        rep = tau_measures(model_pickands(AsymmetricLogistic(alpha, psi1, psi2)))
        assert type(rep.tau2) is float
        assert rep.tau2 == pytest.approx(mpmath_alog_tau2(alpha, psi1, psi2), abs=1e-12)


@pytest.mark.xfail(strict=True, raises=(ValueError, RuntimeWarning),
                   reason="the alog kernel leaves the float range for small alpha: "
                          "0.2**(1/alpha) underflows to 0 at alpha = 0.002, and "
                          "g**(alpha - 2) overflows at alpha = 0.005")
@pytest.mark.parametrize("alpha, psi1, psi2", [(0.002, 0.9, 0.2), (0.005, 0.1, 0.5)])
def test_tau2_of_alog_at_tiny_alpha(alpha, psi1, psi2):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = tau_measures(model_pickands(AsymmetricLogistic(alpha, psi1, psi2)))
    assert rep.tau2 == pytest.approx(mpmath_alog_tau2(alpha, psi1, psi2), abs=1e-12)


def test_tau2_of_b4v_matches_range_formula():
    B4V = PickandsPoly(BernsteinPoly([1.0, 0.75, 0.5, 0.75, 1.0]))
    rep = tau_measures(B4V)
    assert rep.tau2 == pytest.approx(0.8, abs=1e-14)
    assert rep.tau1 == pytest.approx(0.625, abs=1e-14)


def test_submodel_tau_range_examples():
    assert submodel_tau_range(4, 2) == pytest.approx(0.8, abs=1e-15)
    # 1 - C(3,2)/8
    assert submodel_tau_range(4, 1) == pytest.approx(0.625, abs=1e-14)
    assert submodel_tau_range(1, 2) == 0.0
    with pytest.raises(ValueError):
        submodel_tau_range(0, 2)
    with pytest.raises(ValueError):
        submodel_tau_range(4, 3)


def test_tau_range_endpoints_realized_by_bmv(rng):
    from pickpoly import elevate_degree

    for m in (1, 2, 3, 7, 12, 25):
        B = bernstein_approx(lambda t: np.maximum(t, 1 - t), m)
        BmV = PickandsPoly(elevate_degree(B, max(2, B.degree)))
        rep = tau_measures(BmV)
        assert rep.tau2 == pytest.approx(submodel_tau_range(m, 2), abs=1e-14)
        assert rep.tau1 == pytest.approx(submodel_tau_range(m, 1), abs=1e-14)


def test_tau_ordering_and_bounds(rng):
    for m in (1, 3, 6):
        for A in random_valid_pickands(rng, m, 8):
            rep = tau_measures(A)
            assert -1e-12 <= rep.tau1 <= rep.tau2 + 1e-12 <= 1.0 + 2e-12


def test_tau_monotone_reversal():
    # mix model: larger psi gives pointwise smaller A, so larger taus
    lo = tau_measures(PickandsPoly(BernsteinPoly([1.0, 1.0 - 0.25, 1.0])))  # psi = 0.5
    hi = tau_measures(PickandsPoly(BernsteinPoly([1.0, 1.0 - 0.45, 1.0])))  # psi = 0.9
    assert hi.tau1 > lo.tau1 and hi.tau2 > lo.tau2


def test_tau_generic_quadrature_agrees_with_polynomial_route():
    poly = theta_to_pickands(FullModelParam(2, [0.9, -0.3, 0.7]))
    generic = GenericPickands(poly.kernel)
    p_rep = tau_measures(poly)
    g_rep = tau_measures(generic)
    assert g_rep.tau1 == pytest.approx(p_rep.tau1, abs=1e-12)
    assert g_rep.tau2 == pytest.approx(p_rep.tau2, abs=1e-12)


def test_range_convergence_rate():
    prev = 0.0
    for m in range(1, 41):
        endpoint = submodel_tau_range(m, 2)
        assert endpoint >= prev - 1e-15
        assert 1.0 / (m + 1) - 1e-12 <= 1.0 - endpoint <= 1.0 / m + 1e-12
        prev = endpoint


def test_approx_error_bound_at_half_for_v():
    b = approx_error_bound(comonotone(), 4, 0.5)
    assert b.error == pytest.approx(3.0 / 16.0, abs=1e-14)
    assert b.v_bound == pytest.approx(3.0 / 16.0, abs=1e-14)
    assert b.error <= b.bound + 1e-12
    for m in (2, 3, 8, 15):
        bm = approx_error_bound(comonotone(), m, 0.5)
        assert bm.error == pytest.approx(bm.v_bound, abs=1e-12)


def test_approx_error_bound_endpoints_zero():
    for t in (0.0, 1.0):
        b = approx_error_bound(comonotone(), 7, t)
        assert b.error == pytest.approx(0.0, abs=1e-14)
        assert b.bound == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t", [float("nan"), -0.1, 1.5, float("inf")])
def test_approx_error_bound_rejects_t_outside_unit_interval(t):
    # the check names t, not the x of the evaluation underneath
    with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\], got "):
        approx_error_bound(comonotone(), 4, t)


@pytest.mark.parametrize("t", ["0.5", True, np.array([0.5]), None, [0.5]])
def test_approx_error_bound_rejects_non_real_t(t):
    # a string used to raise a TypeError, an array an ambiguous truth value,
    # and True gave the bound at t = 1
    with pytest.raises(ValueError, match=r"^t must be a number, got "):
        approx_error_bound(comonotone(), 4, t)


def test_v_bound_only_for_the_comonotone_callable():
    # V is known by comonotone()'s own callable: another callable with V's
    # values, or any other model, gets no v_bound
    assert approx_error_bound(comonotone(), 8, 0.5).v_bound is not None
    lookalike = GenericPickands(lambda t: comonotone().fn(t))
    mix = model_pickands(SymmetricMixed(0.5))
    for A in (lookalike, mix, independence()):
        assert approx_error_bound(A, 8, 0.5).v_bound is None


def test_approx_error_bound_alog():
    alpha, psi1, psi2 = ALOG_PARAMS
    A = GenericPickands(lambda t: (alog_value(t, alpha, psi1, psi2), np.zeros_like(t), np.zeros_like(t)))
    b = approx_error_bound(A, 10, 0.3)
    assert -1e-12 <= b.error <= b.bound + 1e-12
    assert b.v_bound is None


def test_bound_holds_across_abscissae(rng):
    ts = np.linspace(0.0, 1.0, 51)
    for m_model in (1, 4):
        for A in random_valid_pickands(rng, m_model, 3):
            for m in (2, 8, 32):
                for t in ts:
                    b = approx_error_bound(A, m, float(t))
                    assert -1e-12 <= b.error <= b.bound + 1e-12


def test_rate_check_v_at_half():
    ratios = []
    for m in (16, 64, 256, 1024):
        b = approx_error_bound(comonotone(), m, 0.5)
        ratios.append(b.error * np.sqrt(m))
    assert all(0.35 < r < 0.42 for r in ratios)
    # monotone approach to sqrt(1/(2 pi)) ~ 0.39894
    assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    assert abs(ratios[-1] - np.sqrt(1.0 / (2.0 * np.pi))) < 2e-4


def test_scipy_paths_work_in_a_fresh_interpreter():
    # quadrature and the binomial basis, which once imported scipy, give the
    # same values in a fresh interpreter as here
    code = """
import pickpoly as pp
model = pp.model_pickands(pp.AsymmetricLogistic(0.5, 0.1, 0.5))
r = pp.tau_measures(model)
print(repr(r.tau1), repr(r.tau2), repr(pp.basis_eval(3, 10, 0.3)), repr(pp.submodel_tau_range(5, 1)))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    r = tau_measures(model_pickands(AsymmetricLogistic(0.5, 0.1, 0.5)))
    assert proc.stdout.split() == [repr(r.tau1), repr(r.tau2), repr(basis_eval(3, 10, 0.3)),
                                   repr(submodel_tau_range(5, 1))]

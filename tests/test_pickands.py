import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from conftest import random_valid_pickands
from helpers import (
    POLFULL_H,
    POLFULL_POWER,
    exact_minimum,
    exact_nonnegative,
    fd_mixed_partial,
    quad_a_from_h,
    rational_root_polys,
)
from pickpoly import (
    BernsteinPoly,
    CertificateInconclusiveError,
    FullModelParam,
    GenericPickands,
    NotSpectralDensityError,
    PickandsPoly,
    PowerPoly,
    a_from_h,
    bernstein_approx,
    bernstein_to_power,
    certify_nonnegative,
    comonotone,
    copula_cdf,
    copula_density,
    endpoint_functionals,
    evaluate,
    h_from_a,
    independence,
    power_to_bernstein,
    sample_feasible,
    spectral_measure,
    theta_to_pickands,
    validate_pickands,
    vee,
)
from pickpoly import pickands as pickands_module
from pickpoly.bernstein import derivative_coeffs

COUNTEREXAMPLE = PowerPoly([1.0, 0.0, 0.0, -1.0, 1.0])  # 1 - t^3 + t^4


def test_validate_rejects_counterexample_with_interior_witness():
    report = validate_pickands(power_to_bernstein(COUNTEREXAMPLE))
    assert not report["valid"]
    rules = {v["rule"] for v in report["violations"]}
    assert rules == {"convexity"}
    witness = report["violations"][0]["witness"]
    assert 0.0 < witness < 0.5
    # A''(t) = 12 t (t - 1/2) is indeed negative there
    assert 12 * witness * (witness - 0.5) < -1e-6


def test_validate_accepts_gap_quartic():
    assert validate_pickands(BernsteinPoly([1.0, 0.75, 1.0, 0.75, 1.0]))["valid"]


def test_validate_rejects_endpoint_derivative_violation():
    report = validate_pickands(BernsteinPoly([1.0, 0.4, 1.0]))
    assert not report["valid"]
    assert {"rule": "endpoint_derivative", "witness": 1} in report["violations"]


def test_validate_low_degrees_only_constant_one():
    assert validate_pickands(BernsteinPoly([1.0, 1.0]))["valid"]
    assert not validate_pickands(BernsteinPoly([1.0, 0.9]))["valid"]
    assert validate_pickands(BernsteinPoly([1.0]))["valid"]


def test_validate_degree3_matches_four_linear_inequalities(rng):
    # the degree-3 space is cut out by c(1)^c(2) >= 2/3 and
    # {2c(1)-c(2)} v {2c(2)-c(1)} <= 1
    for _ in range(1000):
        c1, c2 = rng.uniform(0.5, 1.15, size=2)
        expected = (min(c1, c2) >= 2.0 / 3.0) and (max(2 * c1 - c2, 2 * c2 - c1) <= 1.0)
        got = validate_pickands(BernsteinPoly([1.0, c1, c2, 1.0]))["valid"]
        assert got == expected, (c1, c2)


def test_certify_examples():
    ok = certify_nonnegative(BernsteinPoly([1.0, -0.5, 1.0]))
    assert ok.nonneg
    bad = certify_nonnegative(BernsteinPoly([1.0, -1.5, 1.0]))
    assert not bad.nonneg
    assert bad.witness == pytest.approx(0.5, abs=0.05)
    trivial = certify_nonnegative(BernsteinPoly([0.2, 0.0, 3.0]))
    assert trivial.nonneg and trivial.subdivisions == 0


@settings(max_examples=100, deadline=None)
@given(rational_root_polys())
def test_certify_agrees_with_exact_root_isolation(coeffs):
    assert not -1e-12 <= exact_minimum(coeffs) < 0.0  # the case is outside the tolerance band
    P = BernsteinPoly([float(c) for c in coeffs])
    report = certify_nonnegative(P)
    assert report.nonneg == exact_nonnegative(coeffs)
    if not report.nonneg:
        assert evaluate(P, report.witness) < -1e-12


def test_certify_inconclusive_only_without_witness(monkeypatch):
    # with the depth cap lowered to 3, the double root of (t - 7/10)^2 stays undecided
    monkeypatch.setattr(pickands_module, "_CERTIFY_DEPTH", 3)
    with pytest.raises(CertificateInconclusiveError):
        certify_nonnegative(power_to_bernstein(PowerPoly([0.49, -1.4, 1.0])))
    # (t - 7/10)^2 ((t - 1/4)^2 - 1/100): the walk meets the undecided double
    # root first, then the negative dip around 1/4, which decides the sign
    dip = np.polynomial.polynomial.polymul([0.49, -1.4, 1.0], [0.0525, -0.5, 1.0])
    report = certify_nonnegative(power_to_bernstein(PowerPoly(dip)))
    assert not report.nonneg and 0.15 < report.witness < 0.35


def test_certify_matches_quadratic_closed_form(rng):
    # degree-2 h >= 0 on [0,1] iff c0 ^ c2 >= 0 and c1 >= -sqrt(c0 c2)
    checked = 0
    while checked < 1000:
        c0, c1, c2 = rng.uniform(-2.0, 2.0, size=3)
        if min(c0, c2) >= 0:
            margin = c1 + np.sqrt(c0 * c2)
            expected = margin >= 0
        else:
            margin, expected = min(c0, c2), False
        if abs(margin) < 1e-6:
            continue  # stay off the tolerance boundary
        assert certify_nonnegative(BernsteinPoly([c0, c1, c2])).nonneg == expected
        checked += 1


def test_certify_touching_zero_inside():
    # (1 - 2t)^2 has Bernstein coefficients [1, -1, 1] and a zero at 1/2
    report = certify_nonnegative(BernsteinPoly([1.0, -1.0, 1.0]))
    assert report.nonneg


def test_a_from_h_reproduces_quartic():
    A = a_from_h(BernsteinPoly(POLFULL_H))
    assert A.degree == 4
    assert np.allclose(bernstein_to_power(A).coeffs, POLFULL_POWER, atol=1e-12)


def test_a_from_h_trivia():
    assert np.all(a_from_h(BernsteinPoly([0.0, 0.0])).coeffs == 1.0)
    # constant h = 2 integrates to A = 1 - t(1-t)
    A = a_from_h(BernsteinPoly([2.0]))
    assert np.allclose(A.coeffs, [1.0, 0.5, 1.0], atol=1e-15)


def test_h_from_a_examples():
    A = power_to_bernstein(PowerPoly(POLFULL_POWER))
    assert np.allclose(h_from_a(A).coeffs, POLFULL_H, atol=1e-12)
    assert np.all(h_from_a(BernsteinPoly([1.0, 1.0, 1.0])).coeffs == 0.0)
    mix = power_to_bernstein(PowerPoly([1.0, -0.9, 0.9]))
    assert np.allclose(h_from_a(mix).coeffs, [1.8], atol=1e-14)
    with pytest.raises(ValueError):
        h_from_a(BernsteinPoly([1.0, 1.0]))


def test_round_trip_identity_on_unit_endpoint_polynomials(rng):
    for _ in range(50):
        deg = int(rng.integers(2, 11))
        c = rng.normal(size=deg + 1)
        c[0] = c[-1] = 1.0
        A = BernsteinPoly(c)
        back = a_from_h(h_from_a(A))
        assert np.max(np.abs(back.coeffs - c)) < 1e-12


def test_representation_identity_against_quadrature(rng):
    # a_from_h must agree with adaptive quadrature of the min-kernel integral
    ts = np.linspace(0.0, 1.0, 21)
    count = 0
    for m in (1, 2, 3, 5, 8):
        for A in random_valid_pickands(rng, m, 8):
            h = h_from_a(A.poly)
            Afh = a_from_h(h)
            for t in ts:
                assert evaluate(Afh, t) == pytest.approx(quad_a_from_h(h, t), abs=1e-9)
            count += 1
    assert count == 40


def test_spectral_measure_quartic():
    sd = spectral_measure(BernsteinPoly(POLFULL_H))
    assert sd.left_deriv == pytest.approx(83.0 / 180.0, abs=1e-15)
    assert sd.right_deriv == pytest.approx(29.0 / 180.0, abs=1e-15)
    assert sd.mass0 == pytest.approx(97.0 / 180.0, abs=1e-15)
    assert sd.mass1 == pytest.approx(151.0 / 180.0, abs=1e-15)


def test_spectral_measure_trivia():
    sd = spectral_measure(BernsteinPoly([0.0, 0.0, 0.0]))
    assert sd.mass0 == 1.0 and sd.mass1 == 1.0
    sd2 = spectral_measure(BernsteinPoly([2.0]))
    assert sd2.mass0 == pytest.approx(0.0, abs=1e-15)
    assert sd2.mass1 == pytest.approx(0.0, abs=1e-15)


def test_spectral_measure_rejects():
    with pytest.raises(NotSpectralDensityError) as exc:
        spectral_measure(BernsteinPoly([5.0]))
    assert exc.value.value == pytest.approx(2.5)
    with pytest.raises(ValueError):
        spectral_measure(BernsteinPoly([1.0, -3.0, 1.0]))


def test_spectral_mass_balance_against_quadrature(rng):
    for m in (0, 2, 4, 7):
        for A in random_valid_pickands(rng, m, 5):
            h = h_from_a(A.poly)
            sd = spectral_measure(h)
            int_w, _ = integrate.quad(lambda w: w * evaluate(h, w), 0.0, 1.0, epsabs=1e-12)
            int_1mw, _ = integrate.quad(lambda w: (1 - w) * evaluate(h, w), 0.0, 1.0, epsabs=1e-12)
            assert sd.mass1 + int_w == pytest.approx(1.0, abs=1e-10)
            assert sd.mass0 + int_1mw == pytest.approx(1.0, abs=1e-10)


def test_endpoint_functionals_match_derivatives(rng):
    for m in (1, 3, 6):
        for A in random_valid_pickands(rng, m, 4):
            q0, q1 = endpoint_functionals(h_from_a(A.poly))
            d0, d1 = A.kernel(np.array([0.0, 1.0]))[1]
            assert q0 == pytest.approx(-d0, abs=1e-11)
            assert q1 == pytest.approx(d1, abs=1e-11)


def test_copula_cdf_examples():
    assert copula_cdf(independence(), 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)
    assert copula_cdf(comonotone(), 0.3, 0.7) == pytest.approx(0.3, abs=1e-12)
    mixA = PickandsPoly(power_to_bernstein(PowerPoly([1.0, -0.9, 0.9])))
    assert copula_cdf(mixA, 0.5, 0.5) == pytest.approx(0.5 ** (2 * 0.775), abs=1e-14)


def test_copula_cdf_margins_and_edges():
    A = PickandsPoly(a_from_h(BernsteinPoly(POLFULL_H)))
    us = np.linspace(0.05, 1.0, 9)
    assert np.allclose(copula_cdf(A, us, 1.0), us, atol=1e-14)
    assert np.allclose(copula_cdf(A, 1.0, us), us, atol=1e-14)
    assert copula_cdf(A, 0.0, 0.5) == 0.0
    assert copula_cdf(A, 1.0, 1.0) == 1.0
    with pytest.raises(ValueError, match=r"^u must be a real number or an array of them in \[0, 1\], got -0\.1$"):
        copula_cdf(A, -0.1, 0.5)
    with pytest.raises(ValueError, match=r"^v must be a real number or an array of them in \[0, 1\], got 1\.1$"):
        copula_cdf(A, 0.5, 1.1)
    with pytest.raises(ValueError, match=r"^v must be a real number or an array of them in \[0, 1\], got nan$"):
        copula_density(A, 0.5, np.nan)


def test_copula_density_independence_and_boundary():
    assert copula_density(independence(), 0.3, 0.8) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        copula_density(independence(), 0.0, 0.5)
    with pytest.raises(ValueError):
        copula_density(independence(), 0.5, 1.0)


def test_copula_density_matches_finite_difference():
    A = PickandsPoly(a_from_h(BernsteinPoly(POLFULL_H)))
    val = copula_density(A, 0.5, 0.5)
    assert val == pytest.approx(fd_mixed_partial(A, 0.5, 0.5), rel=1e-4)
    grid = np.linspace(0.02, 0.98, 21)
    for u in grid:
        dens = copula_density(A, np.full_like(grid, u), grid)
        assert np.min(dens) >= -1e-10
        fd = np.array([fd_mixed_partial(A, u, v) for v in grid])
        assert np.allclose(dens, fd, rtol=1e-4, atol=1e-7)
    # a 2-d grid gives the pointwise values in its own shape
    uu, vv = np.meshgrid(grid[:5], grid)
    dens = copula_density(A, uu, vv)
    assert dens.shape == uu.shape
    pointwise = [[copula_density(A, u, v) for u, v in zip(ru, rv)] for ru, rv in zip(uu, vv)]
    assert np.allclose(dens, pointwise, rtol=1e-14, atol=0.0)


def test_copula_density_integrates_to_one():
    mixA = PickandsPoly(power_to_bernstein(PowerPoly([1.0, -0.9, 0.9])))
    total, err = integrate.dblquad(
        lambda v, u: copula_density(mixA, u, v), 0.0, 1.0, 0.0, 1.0,
        epsabs=1e-9, epsrel=1e-9,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_jensen_lower_bound(rng):
    for m_model in (1, 3, 6):
        for A in random_valid_pickands(rng, m_model, 5):
            ts = np.linspace(0.0, 1.0, 41)
            for m in (1, 2, 5, 13, 30):
                B = bernstein_approx(A.value, m)
                assert np.min(evaluate(B, ts) - A.value(ts)) >= -1e-12


def test_pickands_poly_snapping_and_rejection():
    snapped = PickandsPoly(BernsteinPoly([1.0 + 1e-10, 0.8, 1.0 - 1e-10]))
    assert snapped.poly.coeffs[0] == 1.0 and snapped.poly.coeffs[-1] == 1.0
    # an endpoint further than 1e-9 from 1 stays as given and fails validate_pickands
    with pytest.raises(ValueError, match="'endpoint_value', 'witness': 0}]$"):
        PickandsPoly(BernsteinPoly([1.0 + 1e-8, 0.8, 1.0]))
    with pytest.raises(ValueError, match="'endpoint_value', 'witness': 2}"):
        PickandsPoly(BernsteinPoly([1.0, 0.8, 0.5]))
    with pytest.raises(ValueError):
        PickandsPoly(BernsteinPoly([1.0, 0.4, 1.0]))
    with pytest.raises(ValueError):
        PickandsPoly(BernsteinPoly([1.0, 1.0]))


def test_generic_pickands_validates_boundary_conditions():
    with pytest.raises(ValueError, match="must equal 1"):
        GenericPickands(lambda t: (np.full_like(t, 0.9), np.zeros_like(t), np.zeros_like(t)))
    with pytest.raises(ValueError, match="V <= A <= 1"):
        # below the comonotone bound
        GenericPickands(lambda t: (1.0 - t * (1 - t) * 2.5, np.zeros_like(t), np.zeros_like(t)))


def test_generic_pickands_rejects_non_vectorized_callables():
    zero = lambda t: np.zeros_like(t)
    with pytest.raises(ValueError, match="shape"):
        GenericPickands(lambda t: (1.0, zero(t), zero(t)))
    with pytest.raises(ValueError, match="shape"):
        GenericPickands(lambda t: (np.ones_like(t), 0.0, zero(t)))
    # right shape on the construction grid only
    A = GenericPickands(lambda t: (np.ones(1001), np.zeros(1001), np.zeros(1001)))
    with pytest.raises(ValueError, match="shape"):
        A.kernel(np.array([0.25, 0.5]))


def test_poly_kernel_matches_derivative_polynomials(rng):
    # the former route: de Casteljau on the coefficients of A' and A''.
    # Both routes round at O(eps) per level of a triangle whose entries are
    # at most max|c|, scaled by deg (A') and deg (deg - 1) (A'').
    eps = np.finfo(float).eps
    t = np.concatenate([[0.0, 1.0], rng.random(200)])
    for m in (0, 1, 2, 4, 8, 16, 30):
        for theta in sample_feasible(m, rng, 4):
            A = theta_to_pickands(FullModelParam(m, theta))
            n, c = A.poly.degree, np.abs(A.poly.coeffs).max()
            a, d1, d2 = A.kernel(t)
            ref1 = evaluate(derivative_coeffs(A.poly), t)
            ref2 = evaluate(h_from_a(A.poly), t)
            assert np.array_equal(a, evaluate(A.poly, t))
            assert np.max(np.abs(d1 - ref1)) <= 16 * eps * n * c
            assert np.max(np.abs(d2 - ref2)) <= 16 * eps * n * (n - 1) * c


def test_vee():
    assert vee(0.5) == 0.5
    assert vee(0.0) == 1.0
    assert np.allclose(vee(np.array([0.25, 0.75])), [0.75, 0.75])

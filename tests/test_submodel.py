import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ALOG_PARAMS,
    POLFULL_H,
    alog_value,
    double_root_polys,
    exact_elevation_clears,
    exact_lorentz_degree,
    exact_roots_inside,
    rational_root_polys,
)
from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    PiecewiseLinearPickands,
    SubmodelParam,
    a_from_h,
    bernstein_approx,
    endpoint_functionals,
    h_from_a,
    in_submodel_a,
    in_submodel_h,
    elevate_degree,
    lorentz_degree,
    sample_feasible,
    theta_to_h,
    validate_pickands,
)
from pickpoly import submodel as submodel_module
from pickpoly.bernstein import _ELEVATION_BLOCK, global_minimum


def h_alpha_beta(alpha: float, beta: float) -> BernsteinPoly:
    return BernsteinPoly([2 * alpha * ((1 + beta) - 6 * beta * k * (2 - k) / 2) for k in range(3)])


def test_in_submodel_h_examples():
    report = in_submodel_h(POLFULL_H)
    assert not report["member"]
    assert {"rule": "negative_coefficient", "witness": 1} in report["violations"]
    assert in_submodel_h(np.zeros(6))["member"]
    assert in_submodel_h([2.0])["member"]  # boundary of the m = 0 polytope
    assert not in_submodel_h([2.0 + 1e-6])["member"]


def test_in_submodel_a_examples():
    assert not in_submodel_a(BernsteinPoly([1.0, 0.75, 1.0, 0.75, 1.0]))
    assert in_submodel_a(BernsteinPoly([1.0, 0.75, 0.5, 0.75, 1.0]))
    with pytest.raises(ValueError):
        in_submodel_a(BernsteinPoly([1.0]))


def test_bernstein_approx_of_pickands_is_in_submodel():
    alpha, psi1, psi2 = ALOG_PARAMS
    for m in (2, 4, 7, 12):
        B = bernstein_approx(lambda t: alog_value(t, alpha, psi1, psi2), m)
        assert in_submodel_a(B)


def test_lorentz_degree_examples():
    assert lorentz_degree(BernsteinPoly(POLFULL_H)) == 6
    assert lorentz_degree(h_alpha_beta(1.0, 2.0)) == "infinite"
    assert lorentz_degree(h_alpha_beta(0.25, 2.0)) == "infinite"
    # all coefficients already nonnegative: degree returned immediately
    assert lorentz_degree(BernsteinPoly([0.0, 0.3, 1.0])) == 2


def test_lorentz_degree_errors():
    with pytest.raises(ValueError):
        lorentz_degree(BernsteinPoly([1.0, -3.0, 1.0]))
    with pytest.raises(ValueError):
        lorentz_degree(BernsteinPoly(POLFULL_H), cap=1)


def test_lorentz_degree_cap():
    # beta = 1.99 needs degree beyond a small cap
    assert lorentz_degree(h_alpha_beta(1.0, 1.99), cap=40) == "exceeds cap"


@pytest.mark.parametrize("alpha", [0.25, 1.0])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_lorentz_degree_matches_exact_rational_oracle(alpha, beta):
    # independent oracle: exact rational degree elevation of the same
    # coefficients until all are >= 0
    exact = exact_lorentz_degree(
        [2 * Fraction(alpha) * ((1 + Fraction(beta)) - 6 * Fraction(beta) * Fraction(k * (2 - k), 2))
         for k in range(3)]
    )
    assert lorentz_degree(h_alpha_beta(alpha, beta)) == exact


@pytest.mark.parametrize("beta", [-1.0, -0.5])
def test_lorentz_degree_two_for_negative_beta(beta):
    assert lorentz_degree(h_alpha_beta(1.0, beta)) == 2
    assert lorentz_degree(h_alpha_beta(0.25, beta)) == 2


def test_lorentz_infinite_iff_interior_zero(rng):
    # touching interior zeros: h = (P(t))^2 with a root of P inside (0,1)
    for root in (1.0 / 3.0, 0.21, 0.5, 0.86):
        theta = np.array([-root, 1.0 - root, 0.0])  # P(t) = t - root, Q = 0
        h = theta_to_h(FullModelParam(2, theta))
        assert lorentz_degree(h) == "infinite"
    # random feasible h with comfortably positive minimum: always finite
    checked = 0
    for m in (1, 2, 3, 4):
        for theta in rng.normal(size=(40, m + 1)) * 0.4:
            h = theta_to_h(FullModelParam(m, theta))
            vals = h(np.linspace(0.0, 1.0, 501))
            if vals.min() < 1e-3:
                continue
            result = lorentz_degree(h)
            assert isinstance(result, int)
            checked += 1
    assert checked >= 60


# h of theta polynomial 53 of the benchmark's certify workload at seed 5001
# (degree 20): strictly positive, with exact minimum 1.03e-13 on [0, 1]
# (sympy, critical points of the exact rational polynomial), which the float
# minimum alone counted as a zero
POLY53_H = [float.fromhex(x) for x in (
    "0x1.1912c7926c055p+1", "0x1.f487410f2a9ecp+1", "0x1.85ac40e46a564p+2",
    "0x1.a4dbe3ec39ebep+2", "0x1.25d67fe7bb16cp+1", "-0x1.b0761f64012c8p+1",
    "0x1.15fa41f7f7fc0p+0", "0x1.8a03612d6e8d4p+1", "-0x1.199b05d70c2cap+2",
    "0x1.5ea2f2044c6a2p+0", "0x1.99acd83cdbae8p+1", "-0x1.b8258db24feb6p+2",
    "0x1.9b6aa55c59feep+2", "-0x1.c9dac3bf8662cp+2", "0x1.85f67486be76cp+3",
    "-0x1.3bf926abb18a1p+2", "0x1.b81f47a69d31ep+3", "-0x1.8b25e0fecb638p+2",
    "-0x1.bb33a157c87aap-1", "0x1.3b286dceb830ap+0", "0x1.2f21d960cd0c4p-1")]


def test_lorentz_tiny_positive_minimum_is_not_a_zero():
    h = BernsteinPoly(POLY53_H)
    assert 0.0 < global_minimum(h)[1] <= 1e-12 * 13.75  # inside the float band
    assert lorentz_degree(h) == "exceeds cap"


def test_lorentz_theta_model_matches_exact_elevation():
    # for each degree 4..30, the first h of each Lorentz class among 16
    # feasible theta: a finite answer L must clear exactly at L and fail at
    # L - 1, "exceeds cap" must fail exactly at the cap
    rng = np.random.default_rng(20261018)
    classes = {"finite": 0, "exceeds cap": 0}
    for m in range(4, 31):
        seen = set()
        for theta in sample_feasible(m, rng, 16):
            h = theta_to_h(FullModelParam(m, theta))
            result = lorentz_degree(h)
            kind = "finite" if isinstance(result, int) else result
            if kind in seen:
                continue
            seen.add(kind)
            classes[kind] += 1
            if kind == "finite":
                assert exact_elevation_clears(h.coeffs, result)
                assert result == m or not exact_elevation_clears(h.coeffs, result - 1)
            else:
                assert kind == "exceeds cap"
                assert not exact_elevation_clears(h.coeffs, 512)
    assert classes == {"finite": 27, "exceeds cap": 27}


@settings(max_examples=100, deadline=None)
@given(double_root_polys(),
       st.sampled_from([0.0, 2.0**-45, 1e-13, 5e-13, 0.99e-12, 1.01e-12, 2e-12, 1e-11]),
       st.sampled_from([1.0, -1.0]))
def test_interior_zero_floor_walk_agrees_with_exact_roots(coeffs, s, sign):
    # h = (t - r)^2 g + s scale, with s on both sides of the walk's floor
    # 1e-12 * scale: h touches zero exactly when h - 2^-50 scale (its float
    # coefficients read as rationals) has a root inside (0, 1)
    c = np.array([float(x) for x in coeffs])
    scale = max(1.0, float(np.max(np.abs(c))))
    c = c + sign * s * scale
    scale = max(1.0, float(np.max(np.abs(c))))
    touch = Fraction(2.0**-50) * Fraction(scale)
    expected = exact_roots_inside([Fraction(x) - touch for x in c]) > 0
    assert submodel_module._has_interior_zero(BernsteinPoly(c)) == expected
    if sign > 0:
        assert expected == (s == 0.0)
        assert (lorentz_degree(BernsteinPoly(c)) == "infinite") == expected


def test_lorentz_large_cap_memory_does_not_grow_with_cap():
    # the elevation probe runs over row blocks, so a cap of 10^6 (degree-20
    # rows: 168 MB unblocked) stays within a few blocks of memory
    cases = [(BernsteinPoly(POLFULL_H), 6), (h_alpha_beta(1.0, 1.999999), "exceeds cap"),
             (BernsteinPoly(POLY53_H), "exceeds cap")]
    for h, expected in cases:
        tracemalloc.start()
        try:
            result = lorentz_degree(h, cap=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak <= 16 * 8 * _ELEVATION_BLOCK


def test_lorentz_touching_zero_decided_exactly():
    # (t - 1/4)^2 has dyadic Bernstein coefficients [1/16, -3/16, 9/16], so
    # the floats hold it exactly; lifting it by 2^-40 (inside the float band
    # 1e-12, above the exact touching tolerance 2^-50) makes it positive
    c = np.array([1.0 / 16.0, -3.0 / 16.0, 9.0 / 16.0])
    assert lorentz_degree(BernsteinPoly(c)) == "infinite"
    assert lorentz_degree(BernsteinPoly(c + 2.0**-53)) == "infinite"
    assert lorentz_degree(BernsteinPoly(c + 2.0**-40)) == "exceeds cap"


@settings(max_examples=100, deadline=None)
@given(rational_root_polys())
def test_exact_root_inside_agrees_with_sympy(coeffs):
    # scale the exact coefficients to integers, so the floats hold them exactly
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    assume(max(abs(x) for x in ints) < 2**53 and ints[0] != 0 and ints[-1] != 0)
    c = np.array(ints, dtype=float)
    assert submodel_module._exact_root_inside(c) == (exact_roots_inside(ints) > 0)


def test_endpoint_zero_does_not_count_as_interior():
    # h = t * (t - 1/2)^2 + small: positive inside, zero only at t = 0
    # Bernstein degree-3 coefficients of t^3 - t^2 + 0.26 t
    from pickpoly import PowerPoly, power_to_bernstein

    h = power_to_bernstein(PowerPoly([0.0, 0.26, -1.0, 1.0]))
    assert h.coeffs.min() < 0  # a negative coefficient, so elevation is exercised
    result = lorentz_degree(h)
    assert isinstance(result, int)


def test_nesting_examples():
    # one elevation step keeps a member in the polytope (validated on construction)
    grown = SubmodelParam(1, elevate_degree(BernsteinPoly([2.0]), 1).coeffs)
    assert np.allclose(grown.c, [2.0, 2.0])
    mix = SubmodelParam(1, elevate_degree(BernsteinPoly([1.8]), 1).coeffs)
    assert np.allclose(mix.c, [1.8, 1.8])


def test_nesting_random_members(rng):
    for m in (0, 1, 3, 6):
        count = 0
        while count < 125:
            c = rng.uniform(0.0, 1.0, size=m + 1)
            report = in_submodel_h(c)
            if not report["member"]:
                continue
            grown = SubmodelParam(m + 1, elevate_degree(BernsteinPoly(c), m + 1).coeffs)
            assert in_submodel_h(grown.c)["member"]
            count += 1


def test_membership_equivalence_a_vs_h(rng):
    for m2 in (3, 4, 6):
        for _ in range(200):
            c = rng.uniform(0.7, 1.3, size=m2 + 1)
            c[0] = c[-1] = 1.0
            A = BernsteinPoly(c)
            assert in_submodel_a(A) == in_submodel_h(h_from_a(A).coeffs)["member"]
    # at the slack boundary: a member h with one cap or one coefficient moved
    # to 5e-12 or 5e-11 either side of its threshold (1 + 1e-12 or -1e-12);
    # coefficients decreasing (increasing) make the left (right) cap the larger
    for m in (1, 2, 4):
        for rule in ("left", "right", "coefficient"):
            for offset in (-5e-11, -5e-12, 5e-12, 5e-11):
                c = np.sort(rng.uniform(0.0, 1.0, size=m + 1))[::-1 if rule == "left" else 1].copy()
                q = endpoint_functionals(BernsteinPoly(c))
                if rule == "coefficient":
                    c = 0.9 * c / max(q)
                    c[m // 2] = -1e-12 + offset
                else:
                    c = c * (1.0 + 1e-12 + offset) / q[rule == "right"]
                member = offset < 0 if rule != "coefficient" else offset > 0
                assert in_submodel_h(c)["member"] == member
                A = a_from_h(BernsteinPoly(c))
                assert in_submodel_a(A) == in_submodel_h(h_from_a(A).coeffs)["member"] == member


def test_polytope_members_are_valid_pickands(rng):
    for m in (0, 2, 5):
        count = 0
        while count < 40:
            c = rng.uniform(0.0, 0.8, size=m + 1)
            if not in_submodel_h(c)["member"]:
                continue
            from pickpoly import a_from_h

            A = a_from_h(BernsteinPoly(c))
            assert validate_pickands(A)["valid"]
            count += 1


def test_submodel_param_validation():
    with pytest.raises(ValueError):
        SubmodelParam(2, [0.1, -0.5, 0.1])
    with pytest.raises(ValueError):
        SubmodelParam(0, [2.5])
    with pytest.raises(ValueError):
        SubmodelParam(2, [0.1, 0.1])


def test_piecewise_linear_pickands_validation():
    knots = np.linspace(0.0, 1.0, 5)
    PiecewiseLinearPickands(knots, [1.0, 0.75, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearPickands(knots, [1.0, 0.75, 1.0, 0.75, 1.0])  # slopes not monotone
    with pytest.raises(ValueError):
        PiecewiseLinearPickands(knots, [1.0, 0.7, 0.5, 0.75, 1.0])  # first slope < -1
    with pytest.raises(ValueError):
        PiecewiseLinearPickands(knots, [0.9, 0.75, 0.5, 0.75, 1.0])  # endpoint != 1
    pl = PiecewiseLinearPickands(knots, [1.0, 0.8, 0.6, 0.8, 1.0])
    assert pl.value(0.125) == pytest.approx(0.9)

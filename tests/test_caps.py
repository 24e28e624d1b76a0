"""The two endpoint-derivative caps, int (1-w) h <= 1 and int w h <= 1.

Every public check of them (on A, h, the polytope coefficients c and theta)
decides them alike: within 1 + 1e-12, next to coefficients of h that may dip
to -1e-12. The oracle here reads exact rationals of the float coefficients
each check is given, with the thresholds perfbench/oracles.py states.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    NotSpectralDensityError,
    PickandsPoly,
    a_from_h,
    certify_nonnegative,
    endpoint_functionals,
    feasibility,
    in_submodel_a,
    in_submodel_h,
    spectral_measure,
    theta_to_h,
    validate_pickands,
)

COEF = -Fraction(1, 10**12)  # a coefficient of h is nonnegative down to this
CAP = 1 + Fraction(1, 10**12)  # an endpoint-derivative functional is <= 1 up to this
MARGIN = Fraction(1, 10**14)  # the least distance of a drawn value from its threshold


def exact_caps(c: list[Fraction]) -> tuple[Fraction, Fraction]:
    # int (1-w) h and int w h: int b_{k,m} = 1/(m+1), int w b_{k,m} = (k+1)/((m+1)(m+2))
    m = len(c) - 1
    q1 = sum(Fraction(k + 1, m + 2) * ck for k, ck in enumerate(c)) / (m + 1)
    return sum(c) / (m + 1) - q1, q1


def exact_h_of_a(a) -> list[Fraction]:
    # A'' in Bernstein form: d(d-1) times the second differences of A's coefficients
    a = [Fraction(float(x)) for x in a]
    d = len(a) - 1
    return [d * (d - 1) * (a[k] - 2 * a[k + 1] + a[k + 2]) for k in range(d - 1)]


def _product(a: list, b: list) -> list[Fraction]:
    # b_{i,p} b_{j,q} = C(p,i) C(q,j) / C(p+q,i+j) b_{i+j,p+q}
    p, q = len(a) - 1, len(b) - 1
    out = [Fraction(0)] * (p + q + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(comb(p, i) * comb(q, j), comb(p + q, i + j)) * x * y
    return out


def exact_h_of_theta(theta) -> list[Fraction]:
    # P^2 + t(1-t) Q^2 (m even) or t P^2 + (1-t) Q^2 (m odd); h itself at m = 0
    th = [Fraction(float(x)) for x in theta]
    m = len(th) - 1
    if m == 0:
        return th
    p, q = th[:m // 2 + 1], th[m // 2 + 1:]
    pp, qq = _product(p, p), _product(q, q)
    if m % 2 == 0:
        return [x + y for x, y in zip(pp, _product([0, Fraction(1, 2), 0], qq))]
    return [x + y for x, y in zip(_product([0, 1], pp), _product([1, 0], qq))]


def clear(c: list[Fraction]) -> bool:
    # every coefficient and both caps at least MARGIN from their thresholds
    return (all(abs(x - COEF) >= MARGIN for x in c)
            and all(abs(q - CAP) >= MARGIN for q in exact_caps(c)))


def in_polytope(c: list[Fraction]) -> bool:
    return min(c) >= COEF and max(exact_caps(c)) <= CAP


def _offset():
    # a signed distance from a threshold, log-uniform in [1e-14, 1e-11]
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-14.0, -11.0)).map(lambda s: s[0] * 10.0 ** s[1])


@st.composite
def near_threshold_h(draw):
    # coefficients of h in [0, 1], scaled inside both caps, then one rule put
    # near its threshold: a cap (by scaling) or one coefficient (by setting it)
    m = draw(st.integers(0, 10))
    c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m + 1, max_size=m + 1)))
    q = endpoint_functionals(BernsteinPoly(c))
    assume(max(q) > 0.0)
    rule, offset = draw(st.sampled_from(["left", "right", "coefficient"])), draw(_offset())
    if rule == "coefficient":
        c = c * draw(st.floats(0.1, 1.0)) / max(q)
        c[draw(st.integers(0, m))] = -1e-12 + offset
    else:
        c = c * (1.0 + 1e-12 + offset) / q[rule == "right"]
    return c


@settings(max_examples=300, deadline=None)
@given(near_threshold_h())
def test_every_cap_check_agrees_with_the_exact_oracle(c):
    h = BernsteinPoly(c)
    exact = [Fraction(float(x)) for x in c]
    A = a_from_h(h)
    exact_a = exact_h_of_a(A.coeffs)
    assume(clear(exact) and clear(exact_a))

    assert in_submodel_h(c)["member"] == in_polytope(exact)
    assert in_submodel_a(A) == in_polytope(exact_a)

    m2 = A.degree
    witnesses = {k for k, q in zip((1, m2 - 1), exact_caps(exact_a)) if q > CAP}
    found = {v["witness"] for v in validate_pickands(A)["violations"] if v["rule"] == "endpoint_derivative"}
    assert found == witnesses

    if certify_nonnegative(h).nonneg:
        over = max(exact_caps(exact)) > CAP
        if over:
            with pytest.raises(NotSpectralDensityError):
                spectral_measure(h)
        else:
            spectral_measure(h)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1), _offset())
def test_feasibility_agrees_with_the_exact_oracle(m, seed, offset):
    # random theta scaled so that its larger cap sits near 1 + 1e-12
    theta = np.random.default_rng(seed).normal(size=m + 1)
    if m == 0:
        theta = np.abs(theta)
    theta = theta * np.sqrt((1.0 + 1e-12 + offset) / max(endpoint_functionals(theta_to_h(FullModelParam(m, theta)))))
    exact = exact_h_of_theta(theta)
    caps = exact_caps(exact)
    assume(all(abs(q - CAP) >= MARGIN for q in caps))
    assert feasibility(FullModelParam(m, theta)).feasible == (max(caps) <= CAP)


# Inputs at the edge of a rule, on which the public checks must give one answer.

def test_validate_and_spectral_measure_agree_just_past_both_caps():
    h = BernsteinPoly(np.full(7, 2.0 * (1.0 + 2e-12)))  # m = 6, both caps at 1 + 2e-12
    report = validate_pickands(a_from_h(h))
    assert not report["valid"]
    assert report["violations"] == [{"rule": "endpoint_derivative", "witness": 1},
                                    {"rule": "endpoint_derivative", "witness": 7}]
    with pytest.raises(NotSpectralDensityError):
        spectral_measure(h)


def test_in_submodel_a_and_validate_agree_just_past_both_caps():
    A = a_from_h(BernsteinPoly(np.full(5, 2.0 * (1.0 + 5e-11))))  # m = 4, both caps at 1 + 5e-11
    assert not validate_pickands(A)["valid"]
    assert not in_submodel_a(A)


def test_in_submodel_a_and_in_submodel_h_agree_on_a_coefficient_below_the_slack():
    h = [0.5, 0.3, -1e-11, 0.3, 0.5]
    assert in_submodel_h(h)["violations"] == [{"rule": "negative_coefficient", "witness": 2}]
    assert not in_submodel_a(a_from_h(BernsteinPoly(h)))


@pytest.mark.parametrize("offset", [-5e-10, 5e-10, -2e-9, 2e-9])
def test_endpoints_within_their_tolerance_are_read_as_one_by_every_check_of_a(offset):
    # both caps exactly 1 (m = 2, h = 2), then A(0) moved by offset: within
    # 1e-9 every check reads A(0) as 1, further off every check rejects A
    c = a_from_h(BernsteinPoly([2.0, 2.0, 2.0])).coeffs.copy()
    c[0] += offset
    A = BernsteinPoly(c)
    inside = abs(offset) <= 1e-9
    report = validate_pickands(A)
    assert report["valid"] == inside
    assert ({"rule": "endpoint_value", "witness": 0} in report["violations"]) != inside
    assert in_submodel_a(A) == inside
    if inside:
        assert PickandsPoly(A).poly.coeffs[0] == 1.0
    else:
        with pytest.raises(ValueError, match="endpoint_value"):
            PickandsPoly(A)

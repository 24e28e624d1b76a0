"""Properties of the two parameter spaces, drawn by hypothesis.

Every feasible theta of Theta_m and every point of the polytope C_m^+ gives
a Pickands function, and ``h_from_a(a_from_h(h))`` returns h up to the
rounding of A's coefficients, which ``h_from_a`` multiplies by
d(d - 1), d = m + 2 = deg A.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    a_from_h,
    h_from_a,
    sample_feasible,
    theta_to_h,
    theta_to_pickands,
    validate_pickands,
)
from pickpoly.inference import _polytope_starts
from pickpoly.pickands import _cap_weights

DEGREES = st.integers(1, 12)
SEEDS = st.integers(0, 2**32 - 1)


def _assert_pickands_and_round_trip(h: np.ndarray, A: BernsteinPoly) -> None:
    verdict = validate_pickands(A)
    assert verdict["valid"], verdict["violations"]
    d = A.degree
    bound = d * (d - 1) * np.finfo(float).eps * max(1.0, np.abs(h).max())
    assert np.abs(h_from_a(A).coeffs - h).max() <= bound


@settings(max_examples=150, deadline=None)
@given(m=DEGREES, seed=SEEDS)
def test_feasible_theta_gives_a_pickands_function(m, seed):
    for theta in sample_feasible(m, np.random.default_rng(seed), 4):
        param = FullModelParam(m, theta)
        A = theta_to_pickands(param).poly
        assert np.array_equal(A.coeffs, a_from_h(theta_to_h(param)).coeffs)
        _assert_pickands_and_round_trip(theta_to_h(param).coeffs, A)


@settings(max_examples=150, deadline=None)
@given(m=DEGREES, seed=SEEDS)
def test_polytope_point_gives_a_pickands_function(m, seed):
    W = _cap_weights(m) / (m + 1)
    for c in _polytope_starts(m, np.random.default_rng(seed), 4, W):
        _assert_pickands_and_round_trip(c, a_from_h(BernsteinPoly(c)))

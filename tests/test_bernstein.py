import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from helpers import (
    ALOG_PARAMS,
    POLFULL_H,
    POLFULL_POWER,
    alog_value,
    assert_correctly_rounded,
    exact_basis,
    exact_elevation,
    exact_minimum,
    iterated_elevation,
    loop_branch_and_bound,
    rational_root_polys,
)
from pickpoly import (
    BernsteinPoly,
    PowerPoly,
    basis_eval,
    bernstein_approx,
    bernstein_to_power,
    elevate_degree,
    evaluate,
    global_minimum,
    poly_from_json,
    poly_to_json,
    power_to_bernstein,
)
from pickpoly.bernstein import (
    _bernstein_to_power_matrix,
    _branch_and_bound,
    _power_to_bernstein_matrix,
    _real_array,
    _split_matrix,
    derivative_coeffs,
)
from pickpoly.full_model import _sampling_box, coefficient_tensor, form_matrices
from pickpoly.measures import _gauss_legendre
from pickpoly.pickands import _CERTIFY_DEPTH, _SLACK, a_from_h_matrix, certify_nonnegative, h_from_a


def test_basis_eval_examples():
    assert basis_eval(0, 2, 0.0) == 1.0
    assert basis_eval(1, 2, 0.5) == pytest.approx(0.5, abs=1e-15)
    # direct binomial-pmf arithmetic: C(4,2) * 0.3^2 * 0.7^2
    assert basis_eval(2, 4, 0.3) == pytest.approx(0.2646, abs=1e-14)


def test_basis_eval_domain_errors():
    with pytest.raises(ValueError, match=r"^k must be in 0\.\.2, got 3$"):
        basis_eval(3, 2, 0.5)
    # a bool is no basis index, though True == 1
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        basis_eval(True, 2, 0.5)
    with pytest.raises(ValueError, match=r"^k must be in 0\.\.2, got -1$"):
        basis_eval(-1, 2, 0.5)
    with pytest.raises(ValueError, match=r"^x must be a real number or an array of them in \[0, 1\], got 1\.5$"):
        basis_eval(0, 2, 1.5)
    for k in (1.5, 1.0, "1", None):  # the index must be an integer, not merely integral
        with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
            basis_eval(k, 2, 0.3)


def test_partition_of_unity():
    xs = np.linspace(0.0, 1.0, 101)
    for m in range(0, 21):
        total = sum(basis_eval(k, m, xs) for k in range(m + 1))
        assert total.shape == xs.shape
        assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 7, 30, 100, 1000, 4095])
def test_basis_eval_against_exact_binomials(m):
    # within 1e-12 relative of the exact rational wherever that is a normal
    # float, and exact at the endpoints
    for x in (0.0, 0.3, 1.0 / 3.0, 0.5, 0.97, 1.0):
        for k in {0, 1, m // 3, m // 2, round(m * x), m - 1, m} & set(range(m + 1)):
            exact, got = exact_basis(k, m, x), basis_eval(k, m, x)
            if x in (0.0, 1.0):
                assert got == exact
            elif exact > 1e-290:
                assert abs(got - float(exact)) <= 1e-12 * float(exact), (k, m, x)
            else:
                assert got < 1e-280
    xs = np.array([0.0, 0.25, 0.6, 1.0])
    k = np.int64(m // 2)
    assert np.array_equal(basis_eval(k, m, xs), [basis_eval(k, m, float(x)) for x in xs])


def test_evaluate_examples():
    assert evaluate(BernsteinPoly([1.0, 1.0, 1.0]), 0.37) == pytest.approx(1.0, abs=1e-15)
    A = power_to_bernstein(PowerPoly(POLFULL_POWER))
    assert evaluate(A, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(BernsteinPoly([2.0, -1.0 / 3.0, 0.2]), 1.0) == pytest.approx(0.2, abs=1e-15)


def test_evaluate_matches_power_evaluation(rng):
    for _ in range(20):
        deg = int(rng.integers(0, 9))
        a = rng.normal(size=deg + 1)
        P = PowerPoly(a)
        B = power_to_bernstein(P, deg)
        xs = rng.uniform(0.0, 1.0, size=33)
        assert np.allclose(evaluate(B, xs), P(xs), atol=1e-12)


def test_evaluate_rejects_outside_domain():
    with pytest.raises(ValueError):
        evaluate(BernsteinPoly([0.0, 1.0]), 1.2)


@pytest.mark.parametrize("x", ["0.5", True, np.False_, ["0.5"], [True, False], np.array([True]), None,
                               [True, 0.5], (0.5, np.True_), [[0.25], [False]], [[0.25, 0.5], [0.5]]])
def test_abscissae_must_be_real_numbers(x):
    # np.asarray(x, dtype=float) reads numeric strings and bools: evaluate
    # gave 0.75 at "0.5", basis_eval(0, 2, True) gave 0.0 and
    # PowerPoly([1, 2])("0.5") gave 2.0; numpy infers one dtype for a whole
    # list, so evaluate gave [1.0, 0.75] at [True, 0.5]
    h = BernsteinPoly([1.0, 0.5, 1.0])
    for call in (lambda: evaluate(h, x), lambda: basis_eval(0, 2, x),
                 lambda: PowerPoly([1.0, 2.0])(x)):
        with pytest.raises(ValueError, match=r"^x(\[[0-9, ]+\] must be a number"
                                             r"| must be a real number or an array of them( in \[0, 1\])?), got "):
            call()


def test_abscissa_lists_of_reals_evaluate_as_arrays():
    h = BernsteinPoly([1.0, 0.5, 1.0])
    for x in ([0, 0.25, 1], (np.float64(0.5), 1), [[0.1, 0.2], [0.3, np.float32(0.4)]]):
        assert np.array_equal(evaluate(h, x), evaluate(h, np.asarray(x, dtype=float)))


def test_power_poly_has_no_domain_limit():
    P = PowerPoly([1.0, 2.0])
    assert P(3) == 7.0 and P(np.int64(-1)) == -1.0
    assert np.array_equal(P([-1.5, 0.5, 10]), [-2.0, 2.0, 21.0])


def test_abscissae_float_array_is_not_copied():
    x = np.linspace(0.0, 1.0, 5)
    assert _real_array("x", x, interval="[0, 1]") is x


def test_derivative_examples():
    assert derivative_coeffs(BernsteinPoly([5.0])).coeffs.tolist() == [0.0]
    # A of the mixed model psi = 9/10: A = 1 - 0.9 t + 0.9 t^2
    dA = derivative_coeffs(BernsteinPoly([1.0, 0.55, 1.0]))
    assert np.allclose(dA.coeffs, [-0.9, 0.9], atol=1e-15)


def test_second_derivative_examples():
    h = h_from_a(BernsteinPoly([1.0, 0.75, 1.0, 0.75, 1.0]))
    assert np.allclose(h.coeffs, [6.0, -6.0, 6.0], atol=1e-12)
    A = power_to_bernstein(PowerPoly(POLFULL_POWER))
    assert np.allclose(h_from_a(A).coeffs, POLFULL_H, atol=1e-12)


def test_second_application_after_elevation_matches_h():
    # elevate the quartic to degree 6, differentiate twice: the result is the
    # degree-4 representation of the same h
    A6 = elevate_degree(power_to_bernstein(PowerPoly(POLFULL_POWER)), 6)
    h4 = derivative_coeffs(derivative_coeffs(A6))
    expected = elevate_degree(BernsteinPoly(POLFULL_H), 4)
    assert np.allclose(h4.coeffs, expected.coeffs, atol=1e-12)


def test_derivative_finite_difference_consistency(rng):
    xs = np.linspace(0.01, 0.99, 37)
    for _ in range(10):
        deg = int(rng.integers(1, 11))
        P = BernsteinPoly(rng.normal(size=deg + 1))
        dP = derivative_coeffs(P)
        fd = (evaluate(P, xs + 1e-6) - evaluate(P, xs - 1e-6)) / 2e-6
        assert np.max(np.abs(evaluate(dP, xs) - fd)) < 1e-6


def test_elevation_examples():
    assert np.all(elevate_degree(BernsteinPoly([3.5]), 4).coeffs == 3.5)
    assert np.allclose(elevate_degree(BernsteinPoly([0.0, 1.0]), 2).coeffs, [0.0, 0.5, 1.0], atol=1e-16)


@pytest.mark.parametrize("alpha", [0.25, 1.0])
@pytest.mark.parametrize("beta", [-1.0, 0.5, 1.5])
def test_elevation_matches_closed_form_coefficients(alpha, beta):
    # c(k, m; h_{alpha,beta}) = 2 alpha {(1+beta) - 6 beta k(m-k) / (m(m-1))}
    base = BernsteinPoly([2 * alpha * ((1 + beta) - 6 * beta * k * (2 - k) / 2) for k in range(3)])
    for m in (3, 5, 8, 13):
        lifted = elevate_degree(base, m)
        k = np.arange(m + 1)
        closed = 2 * alpha * ((1 + beta) - 6 * beta * k * (m - k) / (m * (m - 1)))
        assert np.allclose(lifted.coeffs, closed, atol=1e-12)


def test_elevation_preserves_values(rng):
    xs = rng.uniform(0.0, 1.0, size=65)
    for _ in range(10):
        deg = int(rng.integers(0, 8))
        P = BernsteinPoly(rng.normal(size=deg + 1))
        Q = elevate_degree(P, deg + int(rng.integers(1, 31)))
        ref = evaluate(P, xs)
        assert np.max(np.abs(evaluate(Q, xs) - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("m", range(31))
def test_elevation_matches_exact_rationals(m):
    # every degree-M coefficient within 8(m+1) ulp of max|c| of the exact
    # rational elevation of the same float coefficients
    rng = np.random.default_rng(m)
    c = rng.normal(size=m + 1) * 10.0 ** int(rng.integers(-3, 4))
    tol = Fraction(8 * (m + 1) * float(np.finfo(float).eps) * float(np.max(np.abs(c))))
    for M in sorted({m, m + 1, 2 * m - 1, 64, 200, 512, 600}):
        if M < m:
            continue
        got = elevate_degree(BernsteinPoly(c), M).coeffs
        exact = exact_elevation(c, M)
        assert max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact)) <= tol


@pytest.mark.parametrize("M", [1101, 1500, 2200])
def test_elevation_matches_iterated_oracle_at_high_degree(M):
    # from m = 1100, a weight chain started at W[j,0] = C(M-j, m) / C(M, m)
    # underflows for M = 1500 and 2200 (1/C(1500, 400) ~ 1e-380), so a range
    # limit in the direct map shows here as wrong coefficients
    m = 1100
    c = np.random.default_rng(m).normal(size=m + 1)
    got = elevate_degree(BernsteinPoly(c), M).coeffs
    ref = iterated_elevation(c, M)
    assert np.max(np.abs(got - ref)) <= 8 * (m + 1) * np.finfo(float).eps * np.max(np.abs(c))


def test_elevation_below_degree_is_error():
    with pytest.raises(ValueError):
        elevate_degree(BernsteinPoly([0.0, 1.0, 0.0]), 1)


def test_bernstein_approx_examples():
    B = bernstein_approx(lambda t: np.maximum(t, 1 - t), 4)
    assert np.allclose(B.coeffs, [1.0, 0.75, 0.5, 0.75, 1.0], atol=1e-16)
    assert np.all(bernstein_approx(lambda t: np.ones_like(t), 7).coeffs == 1.0)
    alpha, psi1, psi2 = ALOG_PARAMS
    B5 = bernstein_approx(lambda t: alog_value(t, alpha, psi1, psi2), 5)
    assert np.allclose(B5.coeffs, alog_value(np.arange(6) / 5, alpha, psi1, psi2), atol=1e-15)


def test_bernstein_approx_interpolates_endpoints(rng):
    f = lambda t: np.cos(3 * t) + t
    for m in (1, 2, 9):
        B = bernstein_approx(f, m)
        assert evaluate(B, 0.0) == pytest.approx(f(0.0), abs=1e-15)
        assert evaluate(B, 1.0) == pytest.approx(f(1.0), abs=1e-15)


def test_bernstein_approx_rejects_non_vectorized_function():
    with pytest.raises(ValueError, match="shape"):
        bernstein_approx(lambda t: 1.0, 4)


def test_bernstein_approx_rejects_nonfinite():
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        bernstein_approx(lambda t: np.where(t > 0, 1.0 / np.maximum(t, 1e-300), np.inf), 4)


def test_approx_operator_preserves_convexity():
    for f in (np.exp, lambda t: (t - 0.3) ** 2, lambda t: np.abs(t - 0.3)):
        for m in (2, 5, 12, 19):
            d2 = h_from_a(bernstein_approx(f, m))
            assert np.min(d2.coeffs) >= -1e-12


def test_power_bernstein_conversions():
    assert np.all(power_to_bernstein(PowerPoly([1.0]), 5).coeffs == 1.0)
    assert np.allclose(bernstein_to_power(BernsteinPoly([0.0, 0.5, 1.0])).coeffs,
                       [0.0, 1.0, 0.0], atol=1e-15)
    P = PowerPoly(POLFULL_POWER)
    B = power_to_bernstein(P, 4)
    ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(evaluate(B, ts), P(ts), atol=1e-14)
    with pytest.raises(ValueError):
        power_to_bernstein(P, 3)


def test_power_bernstein_roundtrip(rng):
    for _ in range(20):
        deg = int(rng.integers(0, 11))
        a = rng.normal(size=deg + 1)
        a[-1] = a[-1] if a[-1] != 0 else 1.0
        back = bernstein_to_power(power_to_bernstein(PowerPoly(a), deg))
        assert np.allclose(back.coeffs, a, rtol=1e-12, atol=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is plain double on this platform")
def test_basis_changes_keep_digits_through_cancellation(rng):
    # degree-32 Pickands polynomials: the power coefficients reach 1e8-1e9
    # and come from alternating sums about 2^32 times larger; summed in
    # extended precision they are within a few ulp of the largest one
    from conftest import random_valid_pickands

    for A in random_valid_pickands(rng, 30, 20):
        c, m = A.poly.coeffs, A.poly.degree
        power = bernstein_to_power(A.poly).coeffs
        exact = [math.comb(m, j) * sum((-1) ** (j - k) * math.comb(j, k) * Fraction(c[k])
                                       for k in range(j + 1)) for j in range(m + 1)]
        scale = float(np.max(np.abs(power)))
        assert max(abs(Fraction(a) - e) for a, e in zip(power, exact)) <= 1e-12 * scale
        back = power_to_bernstein(PowerPoly(power), m).coeffs
        assert np.max(np.abs(back - c)) <= 1e-13 * scale


def test_basis_integral_identity_prop21():
    # int_0^t b_{k,m} = (1/(m+1)) sum_{j>k} b_{j,m+1}(t), checked against quadrature
    for m, k, t in [(3, 1, 0.4), (6, 0, 0.9), (6, 6, 0.35), (9, 4, 0.62)]:
        quad, _ = integrate.quad(lambda w: basis_eval(k, m, w), 0.0, t, epsabs=1e-12)
        closed = sum(basis_eval(j, m + 1, t) for j in range(k + 1, m + 2)) / (m + 1)
        assert closed == pytest.approx(quad, abs=1e-10)
        comp, _ = integrate.quad(lambda w: basis_eval(k, m, w), t, 1.0, epsabs=1e-12)
        assert 1.0 / (m + 1) - closed == pytest.approx(comp, abs=1e-10)


def test_basis_product_integral_identity_prop22():
    # int_0^t b_{i,m} b_{j,n} = C(m,i)C(n,j)/C(m+n,i+j) * (1/(m+n+1)) * P_t(S_{m+n+1} > i+j)
    for m, i, n, j, t in [(3, 2, 2, 1, 0.3), (4, 0, 4, 4, 0.8), (5, 3, 3, 1, 0.5)]:
        quad, _ = integrate.quad(lambda w: basis_eval(i, m, w) * basis_eval(j, n, w),
                                 0.0, t, epsabs=1e-12)
        coef = math.comb(m, i) * math.comb(n, j) / math.comb(m + n, i + j)
        tail = sum(basis_eval(k, m + n + 1, t) for k in range(i + j + 1, m + n + 2))
        assert coef * tail / (m + n + 1) == pytest.approx(quad, abs=1e-10)
        quad_hi, _ = integrate.quad(lambda w: basis_eval(i, m, w) * basis_eval(j, n, w),
                                    t, 1.0, epsabs=1e-12)
        head = sum(basis_eval(k, m + n + 1, t) for k in range(0, i + j + 1))
        assert coef * head / (m + n + 1) == pytest.approx(quad_hi, abs=1e-10)


def test_global_minimum_quadratics():
    t, v = global_minimum(BernsteinPoly([1.0, -1.5, 1.0]))
    assert t == pytest.approx(0.5, abs=1e-8)
    assert v == pytest.approx(-0.25, abs=1e-10)
    t, v = global_minimum(BernsteinPoly([0.0, 1.0]))
    assert (t, v) == (0.0, 0.0)
    _, v = global_minimum(BernsteinPoly([4.0]))
    assert v == 4.0


@settings(max_examples=100, deadline=None)
@given(rational_root_polys())
def test_global_minimum_agrees_with_exact_critical_points(coeffs):
    P = BernsteinPoly([float(c) for c in coeffs])
    t, v = global_minimum(P)
    assert v == pytest.approx(exact_minimum(coeffs), abs=1e-9)
    assert evaluate(P, t) == pytest.approx(v, abs=1e-12)


def test_poly_json_roundtrip():
    B = BernsteinPoly([1.0, 0.5, 1.0])
    obj = poly_to_json(B)
    assert obj == {"basis": "bernstein", "degree": 2, "coeffs": [1.0, 0.5, 1.0]}
    back = poly_from_json(obj)
    assert isinstance(back, BernsteinPoly) and np.all(back.coeffs == B.coeffs)
    P = poly_from_json({"basis": "power", "degree": 1, "coeffs": [0.0, 1.0]})
    assert isinstance(P, PowerPoly)
    with pytest.raises(ValueError):
        poly_from_json({"basis": "power", "degree": 2, "coeffs": [0.0, 1.0]})
    with pytest.raises(ValueError):
        poly_from_json({"basis": "chebyshev", "degree": 1, "coeffs": [0.0, 1.0]})


def _exact_rows(d: int) -> dict:
    """Rows of each cached degree-d map, with its entries as exact rationals by the textbook formulas."""
    zero = Fraction(0)
    return {
        "L": (lambda r: _split_matrix(d)[r],
              lambda r, k: Fraction(math.comb(r, k), 2**r) if k <= r else zero),
        # right half of the de Casteljau split: C(d-r, k-r) / 2^(d-r)
        "R": (lambda r: _split_matrix(d)[d + 1 + r],
              lambda r, k: Fraction(math.comb(d - r, k - r), 2 ** (d - r)) if k >= r else zero),
        "T": (lambda k: _power_to_bernstein_matrix(d)[k],
              lambda k, j: Fraction(math.comb(k, j), math.comb(d, j)) if j <= k else zero),
        "U": (lambda j: _bernstein_to_power_matrix(d)[j],
              lambda j, k: Fraction((-1) ** (j - k) * math.comb(d, j) * math.comb(j, k))
              if k <= j else zero),
    }


def _assert_rows_rounded(d: int, rows) -> None:
    for name, (row, exact) in _exact_rows(d).items():
        for i in rows:
            assert row(i).shape == (d + 1,), name
            for j in range(d + 1):
                assert_correctly_rounded(float(row(i)[j]), exact(i, j))


def test_cached_matrices_match_exact_rationals():
    for d in range(1, 61):
        _assert_rows_rounded(d, range(d + 1))
    assert _split_matrix(60).shape == (122, 61)


def test_cached_matrices_match_exact_rationals_past_float_exponent_range():
    # at d = 1100, 2^d and C(d, d/2) overflow a float and many weights underflow
    d = 1100
    _assert_rows_rounded(d, (0, 1, 2, 367, 550, 551, 733, 1099, 1100))
    assert np.isinf(_bernstein_to_power_matrix(d)).any()


def test_cached_matrices_are_read_only():
    for M in (_split_matrix(3), _power_to_bernstein_matrix(3), _bernstein_to_power_matrix(3)):
        with pytest.raises(ValueError):
            M[0] = 2.0


_walk_coeffs = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=31)


@settings(max_examples=300, deadline=None)
@given(_walk_coeffs)
def test_walk_matches_loop_oracle(coeffs):
    c = np.array(coeffs)
    P = BernsteinPoly(c)
    # global minimum: the same least value up to rounding, at an abscissa attaining it
    t_old, v_old, _, _ = loop_branch_and_bound(c, None, 34)
    t, v = global_minimum(P)
    assert v == pytest.approx(v_old, abs=1e-12)
    assert evaluate(P, t) <= v_old + 1e-12
    # certificate: the same verdict wherever rounding cannot decide it, with a
    # witness where the polynomial is negative
    assume(abs(v_old + _SLACK) > 1e-9)
    _, cv_old, _, _ = loop_branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)
    w, cv, _, _ = _branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)
    assert (cv < -_SLACK) == (cv_old < -_SLACK)
    if cv < -_SLACK:
        assert evaluate(P, w) < 0.0


@settings(max_examples=50, deadline=None)
@given(rational_root_polys())
def test_walk_matches_loop_oracle_at_touching_zeros(coeffs):
    c = np.array([float(x) for x in coeffs])
    report = certify_nonnegative(BernsteinPoly(c))
    _, v_old, _, undecided = loop_branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)
    assume(not undecided)
    assert report.nonneg == (v_old >= -_SLACK)


@settings(max_examples=200, deadline=None)
@given(_walk_coeffs, st.floats(1e-9, 0.1))
def test_certified_walk_takes_the_loop_oracles_splits(coeffs, margin):
    # lifted so that its least value is margin > 0: the coefficients may
    # still dip below the floor, so the certificate has to split; on an
    # accepted input no value is read below the floor, the oracle's probe
    # included, and both walks drop and halve the same subintervals
    c = np.array(coeffs)
    c = c - loop_branch_and_bound(c, None, 34)[1] + margin
    _, v, splits, undecided = _branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)
    assume(v >= -_SLACK and not undecided)
    assert splits == loop_branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)[2]


def test_certificate_at_degree_1100():
    # (t - 0.3)^2 + shift: the elevated coefficients dip below zero near
    # t = 0.3 either way; the positive one is certified after splits, the
    # negative one is caught at the first split midpoint below the floor
    def quadratic(shift):
        return elevate_degree(power_to_bernstein(PowerPoly([0.09 + shift, -0.6, 1.0])), 1100)

    P, Q = quadratic(1e-5), quadratic(-1e-5)
    assert P.coeffs.min() < 0.0 and Q.coeffs.min() < 0.0
    report = certify_nonnegative(P)
    assert report.nonneg and report.subdivisions > 0
    report = certify_nonnegative(Q)
    assert not report.nonneg and abs(report.witness - 0.3) < math.sqrt(1e-5)


def test_certificate_memory_at_degree_600():
    d = 600
    P = elevate_degree(power_to_bernstein(PowerPoly([0.09 + 1e-5, -0.6, 1.0])), d)
    _split_matrix.cache_clear()
    tracemalloc.start()
    try:
        assert certify_nonnegative(P).nonneg
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the split matrix, 16 (d+1)^2 bytes, plus at most 1 MiB for the walk
    assert peak < 16 * (d + 1) ** 2 + 2**20


@pytest.mark.parametrize("cache", [
    _power_to_bernstein_matrix, _bernstein_to_power_matrix, _split_matrix, a_from_h_matrix,
    coefficient_tensor, form_matrices, _sampling_box,
], ids=lambda f: f.__name__)
def test_degree_caches_are_bounded_and_read_only(cache):
    # each per-degree cache keeps at most 8 degrees, and what it hands out
    # cannot be changed by a caller
    for degree in range(1, 10):
        value = cache(degree)
        for arr in value if isinstance(value, tuple) else (value,):
            assert not arr.flags.writeable
    assert cache.cache_info().maxsize == 8
    assert cache.cache_info().currsize <= 8


def test_gauss_legendre_rule_is_read_only():
    assert not any(arr.flags.writeable for arr in _gauss_legendre())

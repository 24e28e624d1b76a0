import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    POLFULL_H,
    HypergeoSpec,
    hypergeo_coefficient_tensor,
    hypergeo_pmf,
    lukacs_quadratic_theta,
    sample_feasible_forty_batches,
)
from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    InfeasibleThetaError,
    bernstein_to_power,
    certify_nonnegative,
    evaluate,
    feasibility,
    sample_feasible,
    theta_to_h,
    theta_to_pickands,
    validate_pickands,
)
from pickpoly import full_model
from pickpoly.full_model import _theta_objective, _theta_rows, coefficient_tensor, form_matrices
from pickpoly.pickands import _cap_weights


def test_hypergeo_pmf_examples():
    assert hypergeo_pmf(HypergeoSpec(1, 1, 2), 0) == pytest.approx(0.5, abs=1e-15)
    # C(2,1) C(2,1) / C(4,2)
    assert hypergeo_pmf(HypergeoSpec(2, 2, 4), 1) == pytest.approx(4.0 / 6.0, abs=1e-14)
    assert hypergeo_pmf(HypergeoSpec(0, 0, 0), 0) == 1.0
    assert hypergeo_pmf(HypergeoSpec(2, 2, 4), 5) == 0.0


def test_hypergeo_pmf_sums_to_one():
    for spec in (HypergeoSpec(3, 4, 9), HypergeoSpec(5, 2, 7), HypergeoSpec(4, 4, 4)):
        total = sum(hypergeo_pmf(spec, k) for k in spec.support())
        assert total == pytest.approx(1.0, abs=1e-13)


def test_hypergeo_spec_domain_errors():
    with pytest.raises(ValueError):
        HypergeoSpec(3, 1, 2)
    with pytest.raises(ValueError):
        HypergeoSpec(1, 3, 2)


def test_coefficient_tensor_matches_hypergeometric_oracle():
    # product-rule tensor against the support-by-support hypergeometric build
    for m in range(1, 41):
        assert np.max(np.abs(coefficient_tensor(m) - hypergeo_coefficient_tensor(m))) <= 1e-13


class _RowStack(np.ndarray):
    """A stack of rows whose every matmul must keep the rows apart.

    A stack-derived operand of fewer than 3 dimensions puts the rows in the
    product's core, where GEMM may round a row by the rows around it; a
    batched operand gives each row its own product. Results stay _RowStacks.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            shapes = [x.shape for x in inputs if isinstance(x, _RowStack)]
            assert all(len(shape) >= 3 for shape in shapes), f"stacked product of {shapes}"
        out = getattr(ufunc, method)(*(x.view(np.ndarray) if isinstance(x, _RowStack) else x
                                       for x in inputs), **kwargs)
        return out.view(_RowStack) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("m", range(1, 13))
def test_h_rows_give_every_row_its_bits_alone(m, rng):
    # the one theta product of the full model's search, projection and
    # theta_to_h gives each row of a stack of 1..64 rows, wherever it sits,
    # exactly the h and T[k] theta rows it gets alone. BLAS may round a
    # stacked product of these shapes as it rounds one row, which hides it
    # from the bit check, so the products are also checked to run row by row
    stack = sample_feasible(m, rng, 64)
    _theta_rows(stack.view(_RowStack))
    objective = _theta_objective(lambda h, tags: (h.sum(axis=1), h), _cap_weights(m) / (m + 1))
    objective(stack.view(_RowStack), np.zeros(64, int))
    h_alone, T_alone = (np.concatenate(x) for x in zip(*(_theta_rows(th[None]) for th in stack)))
    assert np.array_equal(h_alone, [theta_to_h(FullModelParam(m, th)).coeffs for th in stack])
    for rows in range(1, 65):
        for part in (slice(None, rows), slice(-rows, None)):
            h, Tth = _theta_rows(stack[part])
            assert np.array_equal(h, h_alone[part]) and np.array_equal(Tth, T_alone[part]), rows


@pytest.mark.parametrize("m", range(1, 13))
def test_theta_objective_caps_are_the_ellipsoid_forms(m, rng):
    # the caps W h and their gradients 2 W T[k] theta, which the search reads
    # with the objective, are theta' Q_j theta and 2 Q_j theta, both inside
    # Theta_m and outside it
    Q = np.stack(form_matrices(m))
    objective = _theta_objective(lambda h, tags: (h.sum(axis=1), h), _cap_weights(m) / (m + 1))
    inside = sample_feasible(m, rng, 128)
    forms = np.einsum("ri,jik,rk->rj", inside, Q, inside)
    outside = 1.5 * inside / np.sqrt(forms.max(axis=1))[:, None]
    for theta in (inside, outside):
        _, _, caps, cap_grads = objective(theta, np.zeros(len(theta), int))
        forms = np.einsum("ri,jik,rk->rj", theta, Q, theta)
        grads = 2.0 * np.einsum("jik,rk->rji", Q, theta)
        assert np.all(np.abs(caps - forms) <= 1e-14 * forms)
        assert np.all(np.abs(cap_grads - grads) <= 1e-14 * np.abs(grads).max(axis=2, keepdims=True))
    assert np.all(caps.max(axis=1) > 2.0)


def test_theta_to_h_small_cases():
    h1 = theta_to_h(FullModelParam(1, [0.7, -0.4]))
    assert np.allclose(h1.coeffs, [(-0.4) ** 2, 0.7**2], atol=1e-15)
    h2 = theta_to_h(FullModelParam(2, [0.3, -0.8, 0.5]))
    assert h2.coeffs[0] == pytest.approx(0.3**2, abs=1e-15)
    assert h2.coeffs[-1] == pytest.approx(0.8**2, abs=1e-15)
    for m in range(0, 7):
        assert np.all(theta_to_h(FullModelParam(m, np.zeros(m + 1))).coeffs == 0.0)


def test_theta_length_validated():
    with pytest.raises(ValueError):
        FullModelParam(3, [1.0, 2.0])


def test_pointwise_equivalence_with_lukacs_form(rng):
    # the hypergeometric coefficient formulas must reproduce
    # P^2 + t(1-t) Q^2 (m even) / t P^2 + (1-t) Q^2 (m odd) pointwise
    ts = np.linspace(0.0, 1.0, 33)
    total = 0
    for m in range(1, 10):
        for theta in rng.normal(size=(56, m + 1)) * 0.6:
            param = FullModelParam(m, theta)
            half = m // 2 + 1
            P = BernsteinPoly(theta[:half])
            Q = BernsteinPoly(theta[half:])
            pv, qv = evaluate(P, ts), evaluate(Q, ts)
            direct = pv**2 + ts * (1 - ts) * qv**2 if m % 2 == 0 else ts * pv**2 + (1 - ts) * qv**2
            assert np.max(np.abs(evaluate(theta_to_h(param), ts) - direct)) < 1e-10
            total += 1
    assert total >= 500


def test_theta_to_h_always_certifiably_nonnegative(rng):
    for m in (1, 2, 5, 8):
        for theta in sample_feasible(m, rng, 25):
            assert certify_nonnegative(theta_to_h(FullModelParam(m, theta))).nonneg


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 8, 20, 300])
def test_sample_feasible_keeps_box_rejection_draws_up_to_m5(m, count):
    # at m <= 5 the first box-rejection batch accepts far more than count / 40
    # points, so the draws are those of the former 40-batch sampler
    seed = 100 * m + count
    new = sample_feasible(m, np.random.default_rng(seed), count)
    old = sample_feasible_forty_batches(m, np.random.default_rng(seed), count)
    assert np.array_equal(new, old)


@pytest.mark.parametrize("m", [8, 10, 20, 30])
def test_sample_feasible_high_degree_draws_lie_in_theta_m(m, rng):
    thetas = sample_feasible(m, rng, 64)
    assert thetas.shape == (64, m + 1) and np.all(np.isfinite(thetas))
    assert len({th.tobytes() for th in thetas}) == 64
    for th in thetas:
        assert feasibility(FullModelParam(m, th)).feasible


def test_sign_flip_symmetry(rng):
    for m in (2, 3, 6, 7):
        theta = rng.normal(size=m + 1)
        half = m // 2 + 1
        base = theta_to_h(FullModelParam(m, theta)).coeffs
        for flip_p, flip_q in [(-1, 1), (1, -1), (-1, -1)]:
            flipped = np.concatenate([flip_p * theta[:half], flip_q * theta[half:]])
            assert np.allclose(theta_to_h(FullModelParam(m, flipped)).coeffs, base, atol=1e-14)


def test_quadratic_scaling(rng):
    for m in (1, 4, 9):
        theta = rng.normal(size=m + 1)
        base = theta_to_h(FullModelParam(m, theta)).coeffs
        for lam in (0.5, 2.0, -3.0):
            scaled = theta_to_h(FullModelParam(m, lam * theta)).coeffs
            assert np.allclose(scaled, lam**2 * base, rtol=1e-12, atol=1e-14)


def test_feasibility_examples():
    at_zero = feasibility(FullModelParam(3, np.zeros(4)))
    assert at_zero.feasible and at_zero.q0 == 0.0 and at_zero.q1 == 0.0
    boundary = feasibility(FullModelParam(0, [2.0]))
    assert boundary.feasible
    assert boundary.q0 == pytest.approx(1.0, abs=1e-15)
    assert boundary.q1 == pytest.approx(1.0, abs=1e-15)
    assert not feasibility(FullModelParam(0, [2.5])).feasible
    assert not feasibility(FullModelParam(0, [-0.1])).feasible


def test_feasibility_positive_definite(rng):
    # the functionals are positive away from zero
    for m in (1, 3, 6):
        for _ in range(20):
            theta = rng.normal(size=m + 1)
            feas = feasibility(FullModelParam(m, theta))
            assert feas.q0 > 0.0 and feas.q1 > 0.0


def test_theta_to_pickands_examples():
    A = theta_to_pickands(FullModelParam(2, np.zeros(3)))
    assert np.all(A.poly.coeffs == 1.0)
    A0 = theta_to_pickands(FullModelParam(0, [2.0]))
    assert np.allclose(A0.poly.coeffs, [1.0, 0.5, 1.0], atol=1e-15)
    with pytest.raises(InfeasibleThetaError) as exc:
        theta_to_pickands(FullModelParam(0, [2.5]))
    assert exc.value.q0 == pytest.approx(1.25)


def test_theta_to_pickands_always_valid(rng):
    for m in range(0, 10):
        for theta in sample_feasible(m, rng, 12):
            A = theta_to_pickands(FullModelParam(m, theta))
            assert validate_pickands(A.poly)["valid"]


def test_infeasible_thetas_rejected(rng):
    for m in range(1, 10):
        for theta in rng.normal(size=(12, m + 1)):
            feas = feasibility(FullModelParam(m, theta))
            q = max(feas.q0, feas.q1)
            if q < 1e-9:
                continue
            bad = theta * 1.01 / np.sqrt(q)
            assert not feasibility(FullModelParam(m, bad)).feasible


def test_lukacs_oracle_reproduces_positive_quadratics(rng):
    done = 0
    while done < 500:
        c, b, a = rng.uniform(-3.0, 3.0, size=3)
        h = np.polynomial.polynomial.polyval(np.linspace(0, 1, 2001), [c, b, a])
        if h.min() < 1e-3:
            continue
        theta = lukacs_quadratic_theta([c, b, a])
        reproduced = theta_to_h(FullModelParam(2, theta))
        target = np.polynomial.polynomial.polyval(np.linspace(0, 1, 9), [c, b, a])
        assert np.allclose(evaluate(reproduced, np.linspace(0, 1, 9)), target, atol=1e-8)
        done += 1


def test_quartic_h_is_reachable():
    # h of the quartic model in power form: 2 - (14/3) t + (43/15) t^2 > 0
    theta = lukacs_quadratic_theta([2.0, -14.0 / 3.0, 43.0 / 15.0])
    param = FullModelParam(2, theta)
    assert np.allclose(theta_to_h(param).coeffs, POLFULL_H, atol=1e-10)
    A = theta_to_pickands(param)
    power = bernstein_to_power(A.poly)
    assert power.coeffs[1] == pytest.approx(-83.0 / 180.0, abs=1e-10)


def test_param_json_roundtrip():
    p = FullModelParam(2, [0.5, -0.25, 1.5])
    assert p.to_json() == {"m": 2, "theta": [0.5, -0.25, 1.5]}
    assert FullModelParam(**p.to_json()).theta.tolist() == p.theta.tolist()


def _scipy_square_tensor(d: int) -> np.ndarray:
    # the product-rule weights from scipy's floating-point binomials
    from scipy.special import binom

    i, j = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="ij")
    S = np.zeros((2 * d + 1, d + 1, d + 1))
    S[i + j, i, j] = binom(d, i) * binom(d, j) / binom(2 * d, i + j)
    return S


def test_coefficient_tensor_bit_identical_to_scipy_binomials(monkeypatch):
    exact = [coefficient_tensor.__wrapped__(m) for m in range(1, 34)]
    monkeypatch.setattr(full_model, "_square_tensor", _scipy_square_tensor)
    for m, T in enumerate(exact, start=1):
        assert np.array_equal(T, coefficient_tensor.__wrapped__(m)), m


def test_square_tensor_correctly_rounded():
    # every weight C(d,i) C(d,j) / C(2d,i+j) is the float nearest the exact
    # ratio, on both sides of C(2d, d) = 2^53, through m = 60
    for d in range(31):
        S = full_model._square_tensor(d)
        for i in range(d + 1):
            for j in range(d + 1):
                exact = Fraction(math.comb(d, i) * math.comb(d, j), math.comb(2 * d, i + j))
                entry = S[i + j, i, j]
                assert abs(Fraction(entry) - exact) <= Fraction(math.ulp(entry)) / 2, (d, i, j)
        assert np.count_nonzero(S) == (d + 1) ** 2

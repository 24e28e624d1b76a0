"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criterion 4's closed-form assertions at
beta in {1, 1.5, 1.9} are strict xfails: the closed form disagrees with the
definitional minimal degree there (see the Lorentz-degree tests for the
exact-arithmetic cross-check), so those cases fail by design and are
reported as XFAIL rather than silently weakened.
"""

import math
import time

import numpy as np
import pytest

from helpers import ALOG_PARAMS, MIX_PSI, POLFULL_H, POLFULL_POWER, exact_basis
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    FullModelParam,
    OptimConfig,
    PickandsPoly,
    PolynomialModel,
    PowerPoly,
    StudyConfig,
    SymmetricMixed,
    a_from_h,
    bernstein_approx,
    bernstein_to_power,
    copula_cdf,
    elevate_degree,
    evaluate,
    feasibility,
    h_from_a,
    in_submodel_a,
    in_submodel_h,
    lorentz_degree,
    model_pickands,
    power_to_bernstein,
    run_study,
    sample_copula,
    sample_feasible,
    submodel_tau_range,
    tau_measures,
    theta_to_pickands,
    validate_pickands,
    vee,
)

SEED = 20260810


def report(cid: str, passed: bool, detail: str = ""):
    print(f"[acceptance] criterion {cid}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {cid} failed: {detail}"


def _best_time(fn, repeats: int = 5) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_characterization_round_trip():
    h = BernsteinPoly(POLFULL_H)

    def round_trip():
        A = a_from_h(h)
        return bernstein_to_power(A), h_from_a(A)

    power, back = round_trip()
    elapsed = _best_time(round_trip)
    ok = (
        np.max(np.abs(power.coeffs - POLFULL_POWER)) <= 1e-12
        and np.max(np.abs(back.coeffs - h.coeffs)) <= 1e-12
        and elapsed < 1e-3
    )
    report("1", ok, f"(coeff err {np.max(np.abs(power.coeffs - POLFULL_POWER)):.2e}, {elapsed*1e6:.0f} us)")


def test_criterion_2_counterexample_detection():
    # a2 = 0, a3 = -1, a4 = 1 satisfies all four power-basis conditions of the
    # earlier (insufficient) characterization ...
    a = {2: 0.0, 3: -1.0, 4: 1.0}
    km_conditions = (
        a[2] >= 0
        and sum(a.values()) >= 0
        and 0 <= sum((k - 1) * v for k, v in a.items()) <= 1
        and sum(k * (k - 1) * v for k, v in a.items()) >= 0
    )
    P = power_to_bernstein(PowerPoly([1.0, 0.0, 0.0, -1.0, 1.0]))
    result = validate_pickands(P)
    elapsed = _best_time(lambda: validate_pickands(P))
    witness = result["violations"][0]["witness"] if result["violations"] else None
    ok = (
        km_conditions
        and not result["valid"]
        and result["violations"][0]["rule"] == "convexity"
        and witness is not None
        and 0.0 < witness < 0.5
        and elapsed < 1e-3
    )
    report("2", ok, f"(witness {witness}, {elapsed*1e6:.0f} us)")


def test_criterion_3_gap_exhibits():
    quartic = BernsteinPoly([1.0, 0.75, 1.0, 0.75, 1.0])
    h = BernsteinPoly(POLFULL_H)
    in_a4 = validate_pickands(quartic)["valid"]
    in_a4_plus = in_submodel_a(quartic)
    degree = lorentz_degree(h)
    deg5 = in_submodel_h(elevate_degree(h, 5).coeffs)["member"]
    deg6 = in_submodel_h(elevate_degree(h, 6).coeffs)["member"]
    ok = in_a4 and not in_a4_plus and degree == 6 and not deg5 and deg6
    report("3", ok, f"(lorentz {degree}, member at 5/6: {deg5}/{deg6})")


def _h_alpha_beta(alpha: float, beta: float) -> BernsteinPoly:
    return BernsteinPoly([2 * alpha * ((1 + beta) - 6 * beta * k * (2 - k) / 2) for k in range(3)])


def test_criterion_4_lorentz_closed_form_consistent_cases():
    t0 = time.perf_counter()
    ok = True
    for alpha in (0.25, 1.0):
        for beta in (0.1, 0.5):
            expected = 2 * math.ceil((1 + beta) / (2 - beta))
            ok &= lorentz_degree(_h_alpha_beta(alpha, beta)) == expected
        for beta in (-1.0, -0.5):
            ok &= lorentz_degree(_h_alpha_beta(alpha, beta)) == 2
        ok &= lorentz_degree(_h_alpha_beta(alpha, 2.0)) == "infinite"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("4 (consistent cases)", ok, f"({elapsed:.3f} s)")


@pytest.mark.parametrize("alpha", [0.25, 1.0])
@pytest.mark.parametrize("beta", [1.0, 1.5, 1.9])
@pytest.mark.xfail(
    strict=True,
    reason="stated closed form 2*ceil((1+beta)/(2-beta)) is exact only over even "
    "degrees; at these beta the odd degree below it already has nonnegative "
    "coefficients (exact rational arithmetic confirms), so the definitional "
    "minimal degree is one less",
)
def test_criterion_4_lorentz_closed_form_boundary_betas(alpha, beta):
    expected = 2 * math.ceil((1 + beta) / (2 - beta))
    got = lorentz_degree(_h_alpha_beta(alpha, beta))
    report(f"4 (beta={beta}, alpha={alpha})", got == expected, f"(got {got}, closed form {expected})")


def test_criterion_5_dependence_measure_range():
    ok = True
    worst = 0.0
    for m in range(1, 31):
        half = m // 2
        closed = half / (half + 0.5)
        worst = max(worst, abs(submodel_tau_range(m, 2) - closed))
        ok &= abs(submodel_tau_range(m, 2) - closed) <= 1e-14
        B = bernstein_approx(vee, m)
        tau2 = 4.0 * (1.0 - float(np.mean(B.coeffs)))  # the coefficient-mean integral
        ok &= abs(tau2 - closed) <= 1e-14
        A = PickandsPoly(elevate_degree(B, max(2, B.degree)))
        ok &= abs(tau_measures(A).tau2 - closed) <= 1e-14
    report("5", ok, f"(max dev {worst:.2e})")


def test_criterion_6_approximation_bounds(rng):
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 101)
    models = []
    for m_model in range(0, 7):
        for theta in sample_feasible(m_model, rng, 15)[: 15 if m_model < 6 else 10]:
            models.append(theta_to_pickands(FullModelParam(m_model, theta)))
    models = models[:100]
    assert len(models) == 100
    ok = True
    for m in (2, 8, 32):
        bound = np.array(
            [2 * t * (1 - t) * float(exact_basis(math.floor(m * t), m - 1, t)) for t in ts]
        )
        for A in models:
            err = evaluate(bernstein_approx(A.value, m), ts) - A.value(ts)
            ok &= bool(np.min(err) >= -1e-12 and np.max(err - bound) <= 1e-12)
        # refined comonotone bound attained at t = 1/2
        errV = evaluate(bernstein_approx(vee, m), 0.5) - 0.5
        v_bound = (1 - vee(0.5)) * float(exact_basis(m // 2, m - 1, 0.5))
        ok &= abs(errV - v_bound) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report("6", ok, f"({elapsed:.2f} s, 100 models x 3 orders x 101 abscissae)")


def test_criterion_7_full_model_soundness(rng):
    t0 = time.perf_counter()
    ok = True
    feasible_count = 0
    infeasible_count = 0
    for m in range(0, 10):
        thetas = sample_feasible(m, rng, 100)
        for theta in thetas:
            A = theta_to_pickands(FullModelParam(m, theta))
            ok &= validate_pickands(A.poly)["valid"]
            feasible_count += 1
        if m == 0:
            bad = rng.uniform(2.0 + 1e-6, 5.0, size=(100, 1))
        else:
            raw = rng.normal(size=(100, m + 1))
            qs = np.array([max(feasibility(FullModelParam(m, th)).q0,
                               feasibility(FullModelParam(m, th)).q1) for th in raw])
            bad = raw * (1.01 / np.sqrt(qs))[:, None]
        for theta in bad:
            ok &= not feasibility(FullModelParam(m, theta)).feasible
            infeasible_count += 1
    elapsed = time.perf_counter() - t0
    ok &= feasible_count == 1000 and infeasible_count == 1000
    ok &= elapsed < 10.0
    report("7", ok, f"({elapsed:.2f} s, 1000 feasible + 1000 infeasible)")


def test_criterion_8_appendix_formula_equivalence(rng):
    from pickpoly import theta_to_h

    ts = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    count = 0
    for m in range(1, 10):
        for theta in rng.normal(size=(56, m + 1)):
            half = m // 2 + 1
            pv = evaluate(BernsteinPoly(theta[:half]), ts)
            qv = evaluate(BernsteinPoly(theta[half:]), ts)
            direct = pv**2 + ts * (1 - ts) * qv**2 if m % 2 == 0 else ts * pv**2 + (1 - ts) * qv**2
            dev = np.max(np.abs(evaluate(theta_to_h(FullModelParam(m, theta)), ts) - direct))
            worst = max(worst, dev)
            count += 1
    ok = count >= 500 and worst <= 1e-10
    report("8", ok, f"({count} thetas, worst dev {worst:.2e})")


def test_criterion_9_sampler_validity():
    t0 = time.perf_counter()
    grid = np.arange(1, 10) / 10.0
    models = [
        AsymmetricLogistic(*ALOG_PARAMS),
        SymmetricMixed(MIX_PSI),
        PolynomialModel(PickandsPoly(a_from_h(BernsteinPoly(POLFULL_H)))),
    ]
    ok = True
    worst = 0.0
    for i, model in enumerate(models):
        s = sample_copula(model, 100_000, SEED + i)
        A = model_pickands(model)
        for x in grid:
            le_x = s.u <= x
            emp = np.array([np.mean(le_x & (s.v <= y)) for y in grid])
            dev = np.max(np.abs(emp - copula_cdf(A, np.full(9, x), grid)))
            worst = max(worst, dev)
    ok &= worst <= 0.01
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report("9", ok, f"({elapsed:.1f} s, sup dev {worst:.4f})")


STUDY_CONFIG = StudyConfig(
    model=SymmetricMixed(MIX_PSI),
    n=100,
    replicates=200,
    m=5,
    estimators=("full", "sub", "cfg"),
    seed=SEED,
    grid=101,
    optim=OptimConfig(starts=8, seed=0, maxfev=300),
)


@pytest.fixture(scope="module")
def study_pooled():
    return run_study(STUDY_CONFIG, threads=2)


@pytest.fixture(scope="module")
def study_serial():
    return run_study(STUDY_CONFIG, threads=1)


def test_criterion_10_desk_scale_study(study_pooled):
    r = study_pooled
    ok = True
    detail = []
    for est in ("full", "sub", "cfg"):
        ok &= r.excluded[est] == 0  # a valid Pickands function on every replicate
        gm = float(np.mean(r.mse[est]))
        detail.append(f"{est}:{gm:.2e}")
        ok &= gm <= 5e-3
    ok &= float(np.mean(r.mse["sub"])) <= float(np.mean(r.mse["cfg"]))
    # qualitative: squared bias stays below variance on the central region
    central = (r.abscissae >= 0.2) & (r.abscissae <= 0.8)
    for est in ("full", "sub", "cfg"):
        ok &= bool(np.all(r.bias_sq[est][central] <= r.variance[est][central]))
    ok &= r.runtime_seconds < 600.0
    report("10", ok, f"(grid-mean mse {', '.join(detail)}; {r.runtime_seconds:.0f} s)")


def test_criterion_11_determinism_across_thread_counts(study_pooled, study_serial):
    ok = study_pooled.payload() == study_serial.payload()
    report("11", ok, "(worker pools of 2 vs 1 give bit-identical reports)")

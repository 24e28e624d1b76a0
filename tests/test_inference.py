from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MIX_PSI,
    POLFULL_H,
    cfg_grid_pass,
    fd_mixed_partial,
    gcm_bruteforce,
    lower_hull_exact,
    run_python,
    slsqp_multistart_loglik,
)
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    FullModelParam,
    GenericPickands,
    OptimConfig,
    PickandsPoly,
    PiecewiseLinearPickands,
    PolynomialModel,
    SampleSet,
    SymmetricMixed,
    a_from_h,
    comonotone,
    copula_density,
    endpoint_functionals,
    feasibility,
    fit_cfg,
    fit_full,
    fit_sub,
    in_submodel_h,
    log_likelihood,
    model_pickands,
    sample_copula,
    sample_feasible,
    theta_to_h,
    theta_to_pickands,
    validate_pickands,
    vee,
)
from pickpoly.bernstein import eval_with_derivatives
from pickpoly import inference
from pickpoly.inference import (
    _LogLik,
    _loglik_terms,
    _midranks,
    _mles,
    _pseudo_angles,
    greatest_convex_minorant,
)

MIX_MODEL = SymmetricMixed(MIX_PSI)
MIX_A = PickandsPoly(BernsteinPoly([1.0, 1.0 - MIX_PSI / 2.0, 1.0]))
ONE = PickandsPoly(BernsteinPoly([1.0, 1.0, 1.0]))


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet([0.5, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        SampleSet([0.5], [0.5, 0.6])
    s = SampleSet([0.2, 0.9], [0.4, 0.5])
    assert s.n == 2 and s.u.tolist() == [0.2, 0.9] and s.v.tolist() == [0.4, 0.5]


def test_sample_set_rank_transform():
    s = SampleSet.from_arrays([0.9, 0.1, 0.5, 0.5], [0.2, 0.4, 0.6, 0.8], ranks=True)
    # midranks over n+1 = 5: ties at 0.5 get rank 2.5
    assert np.allclose(sorted(s.u), [1 / 5, 2.5 / 5, 2.5 / 5, 4 / 5])
    assert np.allclose(sorted(s.v), [1 / 5, 2 / 5, 3 / 5, 4 / 5])


@pytest.mark.parametrize("ranks", ["no", "false", 0, 1, None, np.True_])
def test_rank_transform_takes_only_a_bool(ranks):
    # a truthy string used to replace the margins by midranks silently
    with pytest.raises(ValueError, match="^ranks must be a bool, got "):
        SampleSet.from_arrays([0.2, 0.3], [0.4, 0.5], ranks=ranks)


def test_midranks_bit_identical_to_scipy_rankdata(rng):
    from scipy.stats import rankdata

    for n in (1, 2, 7, 100, 1001):
        for levels in (1, 3, n):
            # draws from a few levels tie often; from n levels, seldom
            x = rng.integers(0, levels, size=n) / levels + 0.5 / levels
            assert np.array_equal(_midranks(x), rankdata(x, method="average"))
            u, v = rng.permutation(x), x
            s = SampleSet.from_arrays(u, v, ranks=True)
            assert np.array_equal(s.u, rankdata(u, method="average") / (n + 1))
            assert np.array_equal(s.v, rankdata(v, method="average") / (n + 1))


def test_rank_transform_rejects_nan():
    with pytest.raises(ValueError, match=r"^u must be a 1-d array of at least 1 real numbers in \(0, 1\), got nan$"):
        SampleSet.from_arrays([0.2, np.nan, 0.4], [0.1, 0.2, 0.3], ranks=True)


def test_loglik_independence_is_zero():
    data = sample_copula(MIX_MODEL, 50, 7)
    assert log_likelihood(ONE, data) == 0.0


def test_loglik_permutation_invariant():
    data = sample_copula(MIX_MODEL, 64, 11)
    perm = np.random.default_rng(1).permutation(64)
    shuffled = SampleSet(data.u[perm], data.v[perm])
    assert log_likelihood(MIX_A, shuffled) == pytest.approx(log_likelihood(MIX_A, data), abs=1e-10)


def test_loglik_single_pair_matches_fd_density():
    data = SampleSet([0.5], [0.5])
    expected = np.log(fd_mixed_partial(MIX_A, 0.5, 0.5))
    assert log_likelihood(MIX_A, data) == pytest.approx(expected, rel=1e-4)


def test_loglik_generic_equals_polynomial_route():
    data = sample_copula(MIX_MODEL, 40, 3)
    psi = MIX_PSI
    generic = GenericPickands(lambda t: (1.0 - psi * t + psi * t * t, psi * (2.0 * t - 1.0),
                                         np.full_like(t, 2.0 * psi)))
    assert log_likelihood(generic, data) == pytest.approx(log_likelihood(MIX_A, data), abs=1e-10)


def test_density_and_loglik_reject_piecewise_linear_estimate():
    data = sample_copula(MIX_MODEL, 60, 4)
    est = fit_cfg(data).estimate
    assert isinstance(est, PiecewiseLinearPickands)
    with pytest.raises(TypeError, match="PiecewiseLinearPickands"):
        log_likelihood(est, data)
    with pytest.raises(TypeError, match="PiecewiseLinearPickands"):
        copula_density(est, 0.3, 0.6)


@pytest.mark.parametrize("t", ["0.5", True, [0.5, True], None])
def test_pickands_values_take_real_points_only(t):
    # the piecewise-linear and generic value methods read "0.5" and True as
    # numbers: a CFG estimate gave 0.835 at "0.5", comonotone() 1.0 at True
    estimate = fit_cfg(sample_copula(MIX_MODEL, 60, 4)).estimate
    for A in (estimate, comonotone(), model_pickands(MIX_MODEL)):
        with pytest.raises(ValueError, match=r"^t(\[1\] must be a number"
                                             r"| must be a real number or an array of them in \[0, 1\]), got "):
            A.value(t)


def test_pickands_values_check_the_unit_interval():
    estimate = fit_cfg(sample_copula(MIX_MODEL, 60, 4)).estimate
    for A in (estimate, comonotone(), model_pickands(MIX_MODEL)):
        assert A.value(0) == A.value(1) == 1.0
        assert np.array_equal(A.value([0.25, 0.5]), A.value(np.array([0.25, 0.5])))
        for t in (-0.1, 1.5, [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"^t must be a real number or an array of them in \[0, 1\], got "):
                A.value(t)


def test_loglik_sentinel_on_nonpositive_density():
    # a concave coefficient vector is not a Pickands function; the density
    # formula goes nonpositive and the sentinel must fire
    from pickpoly.inference import _loglik_terms

    t = np.array([0.3, 0.5])
    s = np.array([-0.01, -0.02])  # pairs near (1,1), where concavity bites
    concave = np.array([1.0, 1.4, 1.0])
    assert _loglik_terms(eval_with_derivatives(concave, t), t, s) == float("-inf")


def test_gcm_examples():
    convex = np.array([1.0, 0.6, 0.4, 0.45, 0.8])
    assert np.allclose(greatest_convex_minorant(convex), convex, atol=1e-14)
    vals = greatest_convex_minorant(np.array([1.0, 0.75, 1.0, 0.75, 1.0]))
    assert np.allclose(vals, [1.0, 0.75, 0.75, 0.75, 1.0], atol=1e-14)


def test_gcm_against_bruteforce(rng):
    x = np.linspace(0.0, 1.0, 25)
    for _ in range(25):
        f = rng.uniform(0.0, 1.0, size=25)
        assert np.allclose(greatest_convex_minorant(f, x), gcm_bruteforce(x, f), atol=1e-10)


def test_gcm_idempotent_and_dominated(rng):
    for _ in range(10):
        f = rng.normal(size=101)
        g = greatest_convex_minorant(f)
        assert np.all(g <= f + 1e-12)
        assert np.allclose(greatest_convex_minorant(g), g, atol=1e-11)
        slopes = np.diff(g) / np.diff(np.linspace(0, 1, 101))
        assert np.all(np.diff(slopes) >= -1e-8)


def test_gcm_matches_exact_lower_hull(rng):
    # random values; values on a coarse lattice, so with repeats and exact
    # collinear runs; a V and a constant on integer knots, where collinearity
    # is exact in floats too
    cases = []
    for n in (2, 3, 7, 40, 101):
        cases += [(None, rng.normal(size=n)),
                  (None, np.round(rng.uniform(size=n), 1)),
                  (np.arange(n, dtype=float), np.round(2.0 * rng.normal(size=n))),
                  (np.arange(n, dtype=float), np.abs(np.arange(n) - n // 3).astype(float)),
                  (None, np.full(n, 0.7))]
    for knots, values in cases:
        x = np.linspace(0.0, 1.0, values.size) if knots is None else knots
        exact = lower_hull_exact(x, values)
        got = greatest_convex_minorant(values, knots)
        assert np.allclose(got, exact, rtol=0.0, atol=1e-12 * max(1.0, np.abs(values).max())), \
            (knots, values, got, exact)


def test_fit_full_m0_is_1d_search():
    data = sample_copula(MIX_MODEL, 300, 5)
    res = fit_full(data, 0, OptimConfig(starts=6, seed=2, maxfev=200))
    assert res.param.m == 0
    assert 0.0 <= res.param.theta[0] <= 2.0
    assert res.loglik >= -1e-9
    # true h for the mixed model is the constant 2 psi = 1.8
    assert res.param.theta[0] == pytest.approx(2 * MIX_PSI, abs=0.45)


def test_fits_on_independence_data_stay_flat():
    rng_data = sample_copula(SymmetricMixed(0.0), 500, 77)
    from pickpoly import tau_measures

    for fit in (fit_full, fit_sub):
        res = fit(rng_data, 2, OptimConfig(starts=6, seed=3, maxfev=250))
        assert res.loglik >= -1e-9
        assert tau_measures(res.estimate).tau2 <= 0.15
        assert validate_pickands(res.estimate.poly)["valid"]


def test_fit_full_and_sub_recover_mix_model():
    data = sample_copula(MIX_MODEL, 1000, 42)
    tg = np.linspace(0.0, 1.0, 101)
    truth = model_pickands(MIX_MODEL).value(tg)
    config = OptimConfig(starts=10, seed=4, maxfev=400)
    for fit in (fit_full, fit_sub):
        res = fit(data, 5, config)
        assert validate_pickands(res.estimate.poly)["valid"]
        assert np.max(np.abs(res.estimate.value(tg) - truth)) <= 0.05


def test_fit_cfg_recovers_mix_model():
    data = sample_copula(MIX_MODEL, 1000, 42)
    res = fit_cfg(data)
    tg = res.estimate.knots
    truth = model_pickands(MIX_MODEL).value(tg)
    assert np.max(np.abs(res.estimate.values - truth)) <= 0.07
    # Pickands conditions on the grid by construction
    assert res.estimate.values[0] == pytest.approx(1.0, abs=1e-10)
    assert res.estimate.values[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(res.estimate.values >= vee(tg) - 1e-10)
    assert np.all(res.estimate.values <= 1.0 + 1e-10)


def test_fit_cfg_validation_and_types():
    data = sample_copula(MIX_MODEL, 50, 8)
    res = fit_cfg(data, grid=201)
    assert isinstance(res.estimate, PiecewiseLinearPickands)
    assert res.param is None and np.isnan(res.loglik)
    with pytest.raises(ValueError):
        fit_cfg(SampleSet([0.4], [0.3]))
    with pytest.raises(ValueError):
        fit_cfg(SampleSet([0.4, 0.4], [0.3, 0.3]))


@st.composite
def _cfg_samples(draw):
    # n pairs whose u (v) take `ties_u` (`ties_v`) distinct values, spread
    # uniformly or over many orders of magnitude of -log u
    n = draw(st.integers(2, 300))
    ties_u, ties_v = draw(st.integers(1, n)), draw(st.integers(1, n))
    wide = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def margin(k):
        pool = (np.exp(-np.exp(rng.uniform(-30.0, 5.0, k))) if wide
                else rng.uniform(1e-6, 1.0 - 1e-6, k))
        return rng.choice(np.clip(pool, 1e-300, 1.0 - 2**-53), n)

    u, v = margin(ties_u), margin(ties_v)
    assume(np.ptp(u) > 0.0 or np.ptp(v) > 0.0)
    return u, v


@settings(max_examples=100, deadline=None)
@given(_cfg_samples(), st.sampled_from([2, 11, 1001]))
def test_fit_cfg_matches_grid_pass_oracle(sample, grid):
    # the sorted sweep against the direct n-by-grid pass with exact sums
    u, v = sample
    values = fit_cfg(SampleSet(u, v), grid).estimate.values
    assert values[0] == 1.0 and values[-1] == 1.0
    assert np.max(np.abs(values - cfg_grid_pass(u, v, grid))) <= 1e-14


def test_fit_sub_on_quartic_data_projects_into_polytope():
    # the quartic model's h has a negative coefficient, outside the polytope;
    # the submodel fit must still return nonnegative coefficients
    model = PolynomialModel(PickandsPoly(a_from_h(BernsteinPoly(POLFULL_H))))
    data = sample_copula(model, 150, 9)
    res = fit_sub(data, 4, OptimConfig(starts=6, seed=5, maxfev=250))
    assert np.all(res.param.c >= 0.0)
    assert validate_pickands(res.estimate.poly)["valid"]


def test_full_model_dominates_submodel_loglik():
    # A_m+2^+ subset A_m+2, so the full-model optimum cannot fall below the
    # submodel optimum beyond optimizer tolerance (1e-6 n); an assertion
    # failure here means a multistart failure, not a model property failure
    for model, seed in ((MIX_MODEL, 10), (SymmetricMixed(0.5), 11)):
        data = sample_copula(model, 300, seed)
        config = OptimConfig(starts=12, seed=6, maxfev=400)
        full = fit_full(data, 3, config)
        sub = fit_sub(data, 3, config)
        assert full.loglik >= sub.loglik - 1e-6 * data.n, (full.loglik, sub.loglik)


def test_fit_full_canonical_sign():
    data = sample_copula(MIX_MODEL, 200, 12)
    res = fit_full(data, 3, OptimConfig(starts=6, seed=7, maxfev=250))
    theta = res.param.theta
    half = 3 // 2 + 1
    for block in (theta[:half], theta[half:]):
        nz = block[block != 0.0]
        if nz.size:
            assert nz[0] > 0.0


def test_fit_warns_when_sample_too_small():
    data = sample_copula(MIX_MODEL, 5, 13)
    with pytest.warns(UserWarning):
        fit_full(data, 4, OptimConfig(starts=2, seed=8, maxfev=60))


@pytest.mark.parametrize("field, value", [
    ("starts", 0), ("starts", -1), ("starts", "3"), ("starts", 2.0), ("starts", True),
    ("seed", 1.5), ("seed", -1), ("seed", "0"),
    ("maxfev", 0), ("maxfev", 10.0), ("maxfev", None),
])
def test_optim_config_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        OptimConfig(**{field: value})


def test_optim_config_accepts_integers():
    config = OptimConfig(starts=np.int64(3), seed=2**63, maxfev=np.int64(7))
    assert config.starts == 3 and config.maxfev == 7 and OptimConfig(maxfev=1).maxfev == 1


@pytest.mark.parametrize("fit", [fit_full, fit_sub])
def test_fit_rejects_negative_m(fit):
    data = sample_copula(MIX_MODEL, 20, 3)
    with pytest.raises(ValueError, match="m must be >= 0"):
        fit(data, -1, OptimConfig(starts=2))


def test_fit_deterministic_given_seed():
    data = sample_copula(MIX_MODEL, 120, 21)
    config = OptimConfig(starts=4, seed=9, maxfev=150)
    a = fit_sub(data, 3, config)
    b = fit_sub(data, 3, config)
    assert a.loglik == b.loglik
    assert np.all(a.param.c == b.param.c)


# --- the shared likelihood engine behind fit_full and fit_sub -------------

ENGINE_DEGREES = (0, 1, 2, 5, 10)


def _polytope_points(m, rng, count):
    # nonnegative coefficients scaled strictly inside both caps; the caps are
    # read off the public endpoint functionals, not the fitter's weights
    out = []
    for _ in range(count):
        c = rng.exponential(size=m + 1)
        q = max(endpoint_functionals(BernsteinPoly(c)))
        out.append(c * rng.uniform(0.1, 0.95) / q)
        assert in_submodel_h(out[-1])["member"]
    return out


def _engine_points(m, rng):
    # spectral coefficient vectors h of feasible thetas and of polytope points
    thetas = sample_feasible(m, rng, 4)
    hs = [theta_to_h(FullModelParam(m, th)).coeffs for th in thetas]
    return thetas, hs + _polytope_points(m, rng, 4)


def _central_diff(f, x, step=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def _on_first(x):
    # the dataset tags of a stack whose rows all belong to the group's first dataset
    return np.zeros(len(x), int)


@pytest.mark.parametrize("m", ENGINE_DEGREES)
def test_engine_value_matches_decasteljau_loglik(m, rng):
    data = sample_copula(SymmetricMixed(0.7), 150, 30 + m)
    engine = _LogLik([data], m)
    _, hs = _engine_points(m, rng)
    values = -engine.objective(np.array(hs), _on_first(hs))[0]
    for h, value in zip(hs, values):
        expected = log_likelihood(PickandsPoly(a_from_h(BernsteinPoly(h))), data)
        assert np.isfinite(expected)
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _central_diff(f, x, step=1e-6):
    # derivative of f along each coordinate at every row of x: (rows, p, *f's trailing shape)
    out = []
    for i in range(x.shape[1]):
        e = np.zeros_like(x)
        e[:, i] = step
        out.append((f(x + e) - f(x - e)) / (2.0 * step))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("m", ENGINE_DEGREES)
def test_engine_gradients_match_central_differences(m, rng):
    data = sample_copula(AsymmetricLogistic(0.5, 0.9, 0.6), 120, 40 + m)
    engine = _LogLik([data], m)
    thetas, hs = _engine_points(m, rng)
    hs = np.array(hs)
    fd = _central_diff(lambda x: engine.objective(x, _on_first(x))[0], hs)
    assert np.allclose(engine.objective(hs, _on_first(hs))[1], fd, rtol=1e-5, atol=1e-5 * data.n)
    if m == 0:
        return
    thetas = 0.9 * thetas
    fd = _central_diff(lambda x: engine.theta_objective(x, _on_first(x))[0], thetas)
    assert np.allclose(engine.theta_objective(thetas, _on_first(thetas))[1], fd,
                       rtol=1e-5, atol=1e-5 * data.n)


@pytest.mark.parametrize("m", ENGINE_DEGREES)
def test_engine_hessian_matches_central_differences(m, rng):
    data = sample_copula(AsymmetricLogistic(0.5, 0.9, 0.6), 120, 50 + m)
    engine = _LogLik([data], m)
    hs = np.array(_engine_points(m, rng)[1])
    hess = engine.hessian(hs, _on_first(hs))
    assert hess.shape == (hs.shape[0], m + 1, m + 1)
    assert np.allclose(hess, hess.transpose(0, 2, 1), rtol=0.0, atol=1e-12 * np.abs(hess).max())
    fd = _central_diff(lambda x: engine.objective(x, _on_first(x))[1], hs)
    assert np.allclose(hess, fd, rtol=1e-5, atol=1e-5 * data.n)


def test_engine_objective_finite_where_density_breaks_down(rng):
    data = sample_copula(MIX_MODEL, 60, 14)
    engine = _LogLik([data], 2)
    # far outside the caps the Pickands function dips below max(t, 1-t)
    bad = np.full(3, 40.0)
    t, s = _pseudo_angles(data)
    bad_kernel = eval_with_derivatives(a_from_h(BernsteinPoly(bad)).coeffs, t)
    assert _loglik_terms(bad_kernel, t, s) == float("-inf")
    good = np.array(_polytope_points(2, rng, 2))
    value, grad = engine.objective(np.vstack([good[0], bad, good[1]]), _on_first(range(3)))
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))
    assert value[1] > 1e6 and np.all(grad[1] == 0.0)
    # the other rows are exactly what they are on their own
    alone_value, alone_grad = engine.objective(good, _on_first(good))
    assert np.array_equal(value[[0, 2]], alone_value) and np.array_equal(grad[[0, 2]], alone_grad)


def _fit_bits(fit):
    return (fit.loglik, fit.param.to_json(), fit.estimate.poly.coeffs.tolist(), fit.converged,
            fit.starts_used)


@pytest.mark.parametrize("m", [0, 5])
def test_grouped_fit_does_not_depend_on_its_group(m, monkeypatch):
    # a dataset's fit is bit for bit the same alone (fit_full / fit_sub, a
    # group of one), in a group of 8 and at the mirrored place of the
    # reversed group. BLAS runs a one-row product as GEMV and a stacked one
    # as GEMM, which round differently, so the searches alone must include
    # a call on one row, as a search ending with a single active start makes
    rows = []
    real = inference.minimize

    def recording(fun, x0, **options):
        def counted(x, tags):
            rows.append(x.shape[0])
            return fun(x, tags)
        return real(counted, x0, **options)

    monkeypatch.setattr(inference, "minimize", recording)
    data = [sample_copula(AsymmetricLogistic(0.5, 0.9, 0.6), 80, 700 + i) for i in range(8)]
    config = OptimConfig(starts=6, maxfev=200)
    seeds = [3 * i + 1 for i in range(8)]
    for fit, full in ((fit_full, True), (fit_sub, False)):
        del rows[:]
        alone = [_fit_bits(fit(d, m, replace(config, seed=seed))) for d, seed in zip(data, seeds)]
        assert 1 in rows
        group = [_fit_bits(f) for f in _mles(_LogLik(data, m), config, seeds, full)]
        reverse = _mles(_LogLik(data[::-1], m), config, seeds[::-1], full)[::-1]
        reverse = [_fit_bits(f) for f in reverse]
        assert group == alone
        assert reverse == alone


def test_fit_loglik_is_loglik_of_estimate():
    data = sample_copula(AsymmetricLogistic(0.5, 0.9, 0.6), 150, 15)
    for m in (0, 3, 6):
        for fit in (fit_full, fit_sub):
            res = fit(data, m, OptimConfig(starts=5, seed=1, maxfev=200))
            assert res.loglik == log_likelihood(res.estimate, data)
            assert validate_pickands(res.estimate.poly)["valid"]
            # the estimate, built from the scored h row, is that of its param
            if fit is fit_full:
                assert feasibility(res.param).feasible
                expected = theta_to_pickands(res.param)
            else:
                expected = PickandsPoly(a_from_h(BernsteinPoly(res.param.c)))
            assert np.array_equal(res.estimate.poly.coeffs, expected.poly.coeffs)


def _check_against_oracle(data, m, config):
    # each MLE reaches the best of one SLSQP search per start (beyond 1e-6 n),
    # the full model nests the submodel, neither falls below independence,
    # and each reported loglik is that of its estimate
    n = data.n
    fits = {"full": fit_full(data, m, config), "sub": fit_sub(data, m, config)}
    for model, res in fits.items():
        oracle = slsqp_multistart_loglik(data, m, config, model)
        assert res.loglik >= oracle - 1e-6 * n, (model, n, m, res.loglik, oracle)
        assert res.loglik >= 0.0
        assert res.loglik == log_likelihood(res.estimate, data)
    assert fits["full"].loglik >= fits["sub"].loglik - 1e-6 * n, (n, m, fits)


@pytest.mark.parametrize("model", [SymmetricMixed(0.9), AsymmetricLogistic(0.5, 0.9, 0.6)],
                         ids=["mix", "alog"])
def test_full_model_nests_submodel_at_criterion_10_settings(model):
    # Theta_m contains the polytope, so a maximizer over Theta_m cannot fall
    # below the submodel maximizer at equal m (beyond 1e-6 n), and neither
    # falls below the independence point or the SLSQP oracle
    config = OptimConfig(starts=8, seed=0, maxfev=300)
    for n, m in ((100, 5), (200, 8), (200, 10)):
        for seed in range(200, 204):
            _check_against_oracle(sample_copula(model, n, seed), m, config)


@pytest.mark.parametrize("n", [100, 1000])
def test_fits_reach_slsqp_oracle_under_strong_dependence(n):
    # alog(0.3, 1, 1) puts most spectral mass near 1/2, where the density is
    # steep; this is where per-start SLSQP searches failed most often
    model = AsymmetricLogistic(0.3, 1.0, 1.0)
    for m in (3, 5, 10):
        for seed in (0, 1):
            _check_against_oracle(sample_copula(model, n, 500 + seed), m,
                                  OptimConfig(starts=8, seed=seed, maxfev=300))


def test_fits_reach_slsqp_oracle_at_degree_zero():
    for seed in range(3):
        _check_against_oracle(sample_copula(MIX_MODEL, 150, 60 + seed), 0,
                              OptimConfig(starts=5, seed=seed, maxfev=200))


@pytest.mark.parametrize("fit", [fit_full, fit_sub])
def test_fit_m0_reaches_the_exact_constant_maximizer(fit):
    # at m = 0 the loglik is a function of the one number h on [0, 2]
    # (Theta_0 and the degree-0 polytope); a fine grid brackets its maximum,
    # which both fits must reach
    data = sample_copula(MIX_MODEL, 200, 9)
    res = fit(data, 0, OptimConfig(starts=3, seed=4))
    grid = np.linspace(0.0, 2.0, 2001)
    best = max(log_likelihood(PickandsPoly(a_from_h(BernsteinPoly([h]))), data) for h in grid)
    assert res.loglik >= best - 1e-9


def test_rebound_minimize_sees_every_local_search():
    # every local search passes through inference.minimize, looked up at
    # call time, so a wrapper put in its place (as a tracer does) sees each
    # search once; fits and a pooled study load no scipy.optimize (a fresh
    # interpreter, so modules the test suite loaded do not count)
    code = """
import sys
import pickpoly as pp
from pickpoly import inference
real = inference.minimize
calls = []

def counting(*args, **kwargs):
    calls.append(kwargs["method"].__name__)
    return real(*args, **kwargs)

inference.minimize = counting
data = pp.sample_copula(pp.SymmetricMixed(0.9), 80, 3)
config = pp.OptimConfig(starts=4, seed=1)
for m in (1, 4):
    pp.fit_full(data, m, config)
pp.fit_sub(data, 4, config)
pp.run_study(pp.StudyConfig(model=pp.SymmetricMixed(0.9), n=40, replicates=9, m=2,
                            estimators=("full", "sub"), optim=pp.OptimConfig(starts=4)),
             threads=2)
assert inference.minimize is counting
assert not [k for k in sys.modules if k.startswith("scipy.optimize")], "scipy.optimize loaded"
print(calls.count("_sqp"), calls.count("_barrier_stage"), len(calls))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "7", "9"]

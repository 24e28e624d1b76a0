import json
import os
import re
import signal
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import sympy
from scipy import stats

from helpers import (
    ALOG_PARAMS,
    MIX_PSI,
    POLFULL_H,
    alog_value,
    bisection_conditional,
    conditional_cdf,
    run_python,
)
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    FullModelParam,
    OptimConfig,
    PickandsPoly,
    PolynomialModel,
    SampleSet,
    StudyConfig,
    StudyError,
    SymmetricMixed,
    a_from_h,
    approx_error_bound,
    copula_cdf,
    copula_density,
    fit_cfg,
    fit_full,
    fit_sub,
    model_from_json,
    model_pickands,
    model_to_json,
    run_study,
    sample_copula,
    sample_feasible,
    split_seed,
    theta_to_pickands,
)
from pickpoly import simulation as simulation_module
from pickpoly.cli import main as cli_main

ALOG_MODEL = AsymmetricLogistic(*ALOG_PARAMS)
MIX_MODEL = SymmetricMixed(MIX_PSI)
POLY_MODEL = PolynomialModel(PickandsPoly(a_from_h(BernsteinPoly(POLFULL_H))))


def test_model_pickands_examples():
    grid = np.linspace(0.0, 1.0, 101)
    degenerate = model_pickands(AsymmetricLogistic(1.0, 1.0, 1.0))
    assert np.allclose(degenerate.value(grid), 1.0, atol=1e-15)
    A = model_pickands(ALOG_MODEL)
    assert A.value(1.0) == pytest.approx(1.0, abs=1e-14)
    assert A.value(0.0) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(A.value(grid), alog_value(grid, *ALOG_PARAMS), atol=1e-13)
    assert model_pickands(MIX_MODEL).value(0.5) == pytest.approx(0.775, abs=1e-15)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        AsymmetricLogistic(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        AsymmetricLogistic(0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        SymmetricMixed(1.5)
    with pytest.raises(ValueError, match="^psi must lie in"):
        SymmetricMixed(float("nan"))
    with pytest.raises(ValueError, match="^alpha must lie in"):
        AsymmetricLogistic(float("inf"), 0.5, 0.5)


@pytest.mark.parametrize("make, field, value", [
    (SymmetricMixed, "psi", "0.5"),
    (SymmetricMixed, "psi", True),
    (SymmetricMixed, "psi", None),
    (lambda v: AsymmetricLogistic(v, 0.5, 0.5), "alpha", np.True_),
    (lambda v: AsymmetricLogistic(0.5, v, 0.5), "psi1", [0.5]),
    (lambda v: AsymmetricLogistic(0.5, 0.5, v), "psi2", 10**400),
])
def test_model_parameters_must_be_numbers(make, field, value):
    # a string used to raise a TypeError, and a bool to pass as 0 or 1
    with pytest.raises(ValueError, match=f"^'{field}' must be a number, got "):
        make(value)


@pytest.mark.parametrize("pickands", ["x", None, BernsteinPoly(POLFULL_H), model_pickands(MIX_MODEL)])
def test_polynomial_model_takes_a_pickands_poly_only(pickands):
    # any object was taken, and sampling from a string raised AttributeError
    with pytest.raises(ValueError, match="^pickands must be a PickandsPoly, got "):
        PolynomialModel(pickands)


def test_model_parameters_are_stored_as_floats():
    alog = AsymmetricLogistic(1, np.float32(0.5), np.int64(1))
    assert [type(x) for x in (alog.alpha, alog.psi1, alog.psi2)] == [float] * 3
    assert (alog.alpha, alog.psi1, alog.psi2) == (1.0, 0.5, 1.0)
    assert type(SymmetricMixed(0).psi) is float


def test_alog_derivatives_match_finite_differences():
    A = model_pickands(ALOG_MODEL)
    ts = np.linspace(0.05, 0.95, 31)
    h = 1e-6
    fd1 = (A.value(ts + h) - A.value(ts - h)) / (2 * h)
    fd2 = (A.value(ts + h) - 2 * A.value(ts) + A.value(ts - h)) / h**2
    _, d1, d2 = A.kernel(ts)
    assert np.max(np.abs(d1 - fd1)) < 1e-6
    assert np.max(np.abs(d2 - fd2)) < 2e-3


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_alog_kernel_matches_sympy_derivatives(alpha):
    psi1, psi2 = 0.9, 0.6
    t = sympy.Symbol("t")
    a, p1, p2 = (sympy.Rational(x) for x in (alpha, psi1, psi2))
    expr = (1 - p1) * t + (1 - p2) * (1 - t) + ((p1 * t) ** (1 / a) + (p2 * (1 - t)) ** (1 / a)) ** a
    ts = np.array([float(sympy.Rational(k, n))
                   for k, n in ((1, 100), (1, 7), (1, 3), (1, 2), (3, 5), (9, 10), (99, 100))])
    _, d1, d2 = model_pickands(AsymmetricLogistic(alpha, psi1, psi2)).kernel(ts)
    for got, order in ((d1, 1), (d2, 2)):
        deriv = sympy.diff(expr, t, order)
        # evaluated at each float abscissa exactly, to 30 digits
        want = np.array([float(deriv.evalf(30, subs={t: sympy.Rational(x)})) for x in ts])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("alpha", [0.7, 0.9])
def test_alog_with_alpha_above_half_emits_no_warning(alpha):
    # t**(1/alpha - 2) divides by zero at t in {0, 1}, where only A is read
    model = AsymmetricLogistic(alpha, 0.4, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = model_pickands(model)
        assert A.value(np.linspace(0.0, 1.0, 11))[[0, -1]].tolist() == [1.0, 1.0]
        assert A.value(0.0) == A.value(1.0) == 1.0
        copula_cdf(A, np.array([0.3, 1.0, 0.5, 1.0]), np.array([1.0, 0.4, 0.5, 1.0]))
        approx_error_bound(A, 10, 0.3)
        sample_copula(model, 200, 5)


def test_split_seed_deterministic_and_distinct():
    assert split_seed(7, 3, 1) == split_seed(7, 3, 1)
    seeds = {split_seed(7, r, s) for r in range(50) for s in range(3)}
    assert len(seeds) == 150


def test_sampler_independence_model():
    s = sample_copula(SymmetricMixed(0.0), 40000, 123)
    corr = np.corrcoef(s.u, s.v)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(s.n)


def test_sampler_uniform_margins_ks():
    s = sample_copula(MIX_MODEL, 100_000, 321)
    for x in (s.u, s.v):
        stat = stats.kstest(x, "uniform").statistic
        assert stat <= 1.63 / np.sqrt(s.n)  # 1% critical value


def test_sampler_hits_copula_at_center():
    s = sample_copula(MIX_MODEL, 100_000, 55)
    A = model_pickands(MIX_MODEL)
    emp = np.mean((s.u <= 0.5) & (s.v <= 0.5))
    truth = copula_cdf(A, 0.5, 0.5)
    se = np.sqrt(truth * (1 - truth) / s.n)
    assert abs(emp - truth) <= 3 * se


def test_conditional_cdf_monotone_in_v():
    A = model_pickands(POLY_MODEL)
    vs = np.linspace(1e-6, 1 - 1e-6, 300)
    for u in (0.2, 0.5, 0.8):
        s = np.log(u) + np.log(vs)
        t = np.log(vs) / s
        a, d1, _ = A.kernel(t)
        cond = np.exp(s * a - np.log(u)) * (a - t * d1)
        assert np.all(np.diff(cond) > -1e-12)
        assert cond[0] < 1e-3 and cond[-1] > 1 - 1e-3


def test_sampler_deterministic():
    a = sample_copula(ALOG_MODEL, 100, 9)
    b = sample_copula(ALOG_MODEL, 100, 9)
    assert np.all(a.u == b.u) and np.all(a.v == b.v)


# the sampler's models plus its hardest cases: a near-comonotone logistic
# (alpha = 0.1, psi = 1), independence (psi = 0) and a degree-6 polynomial
SOLVER_MODELS = {
    "alog": ALOG_MODEL,
    "alog-steep": AsymmetricLogistic(0.1, 1.0, 1.0),
    "mix": MIX_MODEL,
    "mix-independent": SymmetricMixed(0.0),
    "poly6": PolynomialModel(theta_to_pickands(
        FullModelParam(4, sample_feasible(4, np.random.default_rng(6), 1)[0]))),
}


def _solve(model, u, w):
    # the solver on all of u, w at once (sample_copula solves in blocks)
    return simulation_module._solve_conditional(model_pickands(model).kernel, u, w)


def _drawn_uw(n, seed):
    # the (u, w) that sample_copula draws from this seed
    rng = np.random.default_rng(seed)
    return np.clip(rng.random(n), 1e-16, 1.0 - 1e-16), rng.random(n)


@pytest.mark.parametrize("name", SOLVER_MODELS)
def test_sampler_matches_bisection_oracle(name):
    model = SOLVER_MODELS[name]
    s = sample_copula(model, 4000, 17)
    u, w = _drawn_uw(4000, 17)
    assert np.array_equal(s.u, u)
    oracle = bisection_conditional(model_pickands(model), u, w)
    assert np.max(np.abs(s.v - oracle) / oracle) <= 1e-10


EXTREME_U = np.array([1e-16, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 1e-16])
EXTREME_W = np.array([1e-15, 1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-9, 1.0 - 1e-15])


@pytest.mark.parametrize("name", SOLVER_MODELS)
def test_solver_at_clipped_u_and_extreme_w(name):
    # where the conditional cdf is nearly flat (density c), F's rounding
    # (a few eps) leaves v undetermined by about eps / c: both solvers may
    # then stop anywhere in that range
    model = SOLVER_MODELS[name]
    A = model_pickands(model)
    u, w = (g.ravel() for g in np.meshgrid(EXTREME_U, EXTREME_W))
    v = _solve(model, u, w)
    oracle = bisection_conditional(A, u, w)
    assert np.all((v >= 1e-14) & (v <= 1.0 - 1e-14))
    flat = 64.0 * np.finfo(float).eps / np.minimum(copula_density(A, u, v), copula_density(A, u, oracle))
    assert np.all(np.abs(v - oracle) <= 1e-10 * oracle + flat)


@pytest.mark.parametrize("name", SOLVER_MODELS)
def test_solver_residual_within_a_few_ulp(name):
    # |F(v) - w| is no more than moving v by a few ulp changes F (slope
    # c(u, v)) plus a few ulp of F's own rounding, which grows with the
    # exponent log u + log v of the copula
    model = SOLVER_MODELS[name]
    A = model_pickands(model)
    u, w = _drawn_uw(4000, 23)
    v = _solve(model, u, w)
    resid = np.abs(conditional_cdf(A, u, v) - w)
    eps = np.finfo(float).eps
    rounding = eps * (1.0 + np.abs(np.log(u)) + np.abs(np.log(v)))
    assert np.all(resid <= 8.0 * (copula_density(A, u, v) * np.spacing(v) + rounding))


@pytest.mark.parametrize("name", SOLVER_MODELS)
def test_solver_step_counts(monkeypatch, name):
    # every step evaluates the kernel once on the active elements, so the
    # evaluated widths count the steps (the former bisection took 80, and
    # accepting Newton points only inside the open bracket about 55 on
    # many elements)
    widths = []
    pickands = simulation_module.model_pickands

    class Counting:
        def __init__(self, model):
            self.inner = pickands(model)

        def kernel(self, t):
            widths.append(t.size)
            return self.inner.kernel(t)

    monkeypatch.setattr(simulation_module, "model_pickands", Counting)
    n = 4000
    sample_copula(SOLVER_MODELS[name], n, 29)
    assert sum(widths) / n <= 10.0
    assert len(widths) <= 30


def test_sample_copula_values_independent_of_blocking():
    # each v depends only on its own (u, w): the blocked sample, one solve of
    # all pairs and a solve of every 7th pair alone agree bit for bit
    n = simulation_module._BLOCK + 100
    model = SOLVER_MODELS["poly6"]
    s = sample_copula(model, n, 31)
    u, w = _drawn_uw(n, 31)
    assert np.array_equal(s.v, _solve(model, u, w))
    assert np.array_equal(s.v[::7], _solve(model, u[::7], w[::7]))


@pytest.mark.parametrize("n, seed, match", [
    (0, 1, "n must be"), (-3, 1, "n must be"), (2.5, 1, "n must be"), (True, 1, "n must be"),
    (10, -1, "seed must be"), (10, 1.5, "seed must be"),
])
def test_sample_copula_rejects_bad_n_and_seed(n, seed, match):
    with pytest.raises(ValueError, match=match):
        sample_copula(MIX_MODEL, n, seed)


TINY_OPTIM = OptimConfig(starts=3, seed=0, maxfev=120)


def test_run_study_single_replicate_decomposition():
    config = StudyConfig(model=MIX_MODEL, n=60, replicates=1, m=2,
                         estimators=("sub", "cfg"), seed=5, grid=21, optim=TINY_OPTIM)
    report = run_study(config, threads=1)
    for est in ("sub", "cfg"):
        assert np.allclose(report.variance[est], 0.0, atol=1e-20)
        assert np.allclose(report.mse[est], report.bias_sq[est], atol=1e-16)


def test_run_study_mse_decomposition_identity():
    config = StudyConfig(model=MIX_MODEL, n=50, replicates=8, m=2,
                         estimators=("full", "sub", "cfg"), seed=6, grid=21, optim=TINY_OPTIM)
    report = run_study(config, threads=1)
    for est in config.estimators:
        assert np.max(np.abs(report.mse[est] - report.variance[est] - report.bias_sq[est])) < 1e-10
        assert report.excluded[est] == 0
        assert report.logliks[est].shape == (8,)
    assert np.isnan(report.logliks["cfg"]).all()


def test_run_study_bit_identical_across_worker_counts():
    # 9 replicates are two groups, so threads=2 runs on the pool
    config = StudyConfig(model=MIX_MODEL, n=40, replicates=9, m=2,
                         estimators=("sub", "cfg"), seed=7, grid=21, optim=TINY_OPTIM)
    serial = run_study(config, threads=1)
    simulation_module._drop_pool()
    pooled = run_study(config, threads=2)
    assert len(_worker_pids()) == 2
    assert serial.payload() == pooled.payload()


def test_run_study_respects_env_thread_cap(monkeypatch):
    # two groups would fork two workers; PICKPOLY_THREADS=1 keeps the study
    # in this process
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=9, m=0,
                         estimators=("cfg",), seed=8, grid=11)
    simulation_module._drop_pool()
    report = run_study(config)
    assert simulation_module._pool is None
    assert report.excluded["cfg"] == 0
    assert report.payload() == run_study(config, threads=2).payload()


def test_default_worker_count_is_the_cpu_set(monkeypatch):
    # os.cpu_count() counts CPUs the process may not run on: under
    # taskset -c 0 it read 2 on a 2-CPU host
    monkeypatch.delenv("PICKPOLY_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert simulation_module._resolve_threads(None) == 1
    monkeypatch.setenv("PICKPOLY_THREADS", "3")
    assert simulation_module._resolve_threads(None) == 3
    assert simulation_module._resolve_threads(2) == 2


def test_run_study_rejects_non_integer_thread_env(monkeypatch):
    # the variable, like the threads argument, must be an integer >= 1
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0,
                         estimators=("cfg",), seed=8, grid=11)
    for env in ("two", "2.5", "0", "-3"):
        monkeypatch.setenv("PICKPOLY_THREADS", env)
        with pytest.raises(ValueError, match=f"PICKPOLY_THREADS must be an integer >= 1, got '{env}'"):
            run_study(config)


@pytest.mark.parametrize("threads, message", [
    (2.5, "threads must be an integer, got 2.5"),
    ("2", "threads must be an integer, got '2'"),
    (True, "threads must be an integer, got True"),
    (-3, "threads must be >= 1, got -3"),
    (0, "threads must be >= 1, got 0"),
], ids=["2.5", "2", "True", "-3", "0"])
def test_run_study_rejects_bad_threads(threads, message):
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0,
                         estimators=("cfg",), seed=8, grid=11)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_study(config, threads=threads)


POOL_CONFIG = StudyConfig(model=MIX_MODEL, n=40, replicates=16, m=2,
                          estimators=("sub", "cfg"), seed=15, grid=11, optim=TINY_OPTIM)


def _worker_pids() -> list[int]:
    return sorted(simulation_module._pool._processes)


def test_run_study_reuses_its_workers():
    first = run_study(POOL_CONFIG, threads=2)
    pids = _worker_pids()
    second = run_study(POOL_CONFIG, threads=2)
    assert _worker_pids() == pids and len(pids) == 2
    serial = run_study(POOL_CONFIG, threads=1)
    dumps = [json.dumps(r.payload()) for r in (first, second, serial)]
    assert dumps[0] == dumps[1] == dumps[2]


def test_run_study_replaces_a_killed_worker():
    before = run_study(POOL_CONFIG, threads=2)
    pids = _worker_pids()
    os.kill(pids[0], signal.SIGKILL)
    after = run_study(POOL_CONFIG, threads=2)
    assert after.payload() == before.payload()
    assert not set(_worker_pids()) & set(pids)


def test_run_study_sizes_its_pool_by_groups_and_threads():
    # a one-group study runs in this process; a pool starts one worker per
    # group, up to threads; a later call keeps it if it has a worker for
    # each of its groups and no more than threads
    one_group = replace(POOL_CONFIG, replicates=8)
    three_groups = replace(POOL_CONFIG, replicates=24)
    simulation_module._drop_pool()
    run_study(one_group, threads=4)
    assert simulation_module._pool is None
    run_study(POOL_CONFIG, threads=3)
    pids = _worker_pids()
    assert len(pids) == 2
    run_study(POOL_CONFIG, threads=4)
    run_study(one_group, threads=2)  # in this process: the pool is untouched
    assert _worker_pids() == pids
    run_study(three_groups, threads=3)
    assert len(_worker_pids()) == 3 and _gone(pids)
    pids = _worker_pids()
    run_study(POOL_CONFIG, threads=3)  # two groups keep a pool of three workers
    assert _worker_pids() == pids
    run_study(POOL_CONFIG, threads=2)
    assert len(_worker_pids()) == 2 and _gone(pids)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _gone(pids: list[int]) -> bool:
    # True once none of these processes exists, polled for up to 10 s
    for _ in range(100):
        if not any(map(_alive, pids)):
            return True
        time.sleep(0.1)
    return False


POOL_SCRIPT = """
import json, os, sys
from pickpoly import OptimConfig, StudyConfig, SymmetricMixed, run_study, simulation

config = StudyConfig(model=SymmetricMixed(0.9), n=40, replicates=16, m=2,
                     estimators=("sub", "cfg"), seed=15, grid=11,
                     optim=OptimConfig(starts=3, maxfev=120))
out = {"payload": run_study(config, threads=2).payload(),
       "pids": sorted(simulation._pool._processes)}
if sys.argv[1:] == ["fork"]:
    child = os.fork()
    if child == 0:
        print(json.dumps({"payload": run_study(config, threads=2).payload(),
                          "pids": sorted(simulation._pool._processes)}))
        sys.exit(0)
    _, status = os.waitpid(child, 0)
    out["child_status"] = status
    out["again"] = run_study(config, threads=2).payload()
    out["pids_after"] = sorted(simulation._pool._processes)
print(json.dumps(out))
"""


def test_pool_workers_end_with_their_process():
    proc = run_python("-c", POOL_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["pids"]) == 2 and _gone(out["pids"])
    assert out["payload"] == json.loads(json.dumps(run_study(POOL_CONFIG, threads=1).payload()))


def test_forked_process_runs_its_own_pooled_study():
    # the child forgets its parent's pool and starts its own; the parent's
    # pool goes on serving the parent
    proc = run_python("-c", POOL_SCRIPT, "fork")
    assert proc.returncode == 0, proc.stderr
    child, out = map(json.loads, proc.stdout.strip().splitlines())
    assert out["child_status"] == 0
    assert child["payload"] == out["payload"] == out["again"]
    assert out["pids_after"] == out["pids"] and not set(child["pids"]) & set(out["pids"])
    assert _gone(out["pids"] + child["pids"])


# three blocks, the last of one pair
SIMULATE_N = 2 * simulation_module._BLOCK + 1


def _simulate(tmp_path, model, n: int = SIMULATE_N) -> bytes:
    # the bytes of pickpoly simulate at seed 5, run in this process
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    out = tmp_path / "sample.csv"
    argv = ["simulate", "--model", str(path), "--n", str(n), "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("model", [ALOG_MODEL, MIX_MODEL, POLY_MODEL], ids=["alog", "mix", "poly"])
def test_simulate_csv_same_bytes_for_any_worker_count(tmp_path, monkeypatch, model):
    simulation_module._drop_pool()
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    serial = _simulate(tmp_path, model)
    monkeypatch.setenv("PICKPOLY_THREADS", "2")
    _simulate(tmp_path, model, simulation_module._BLOCK)
    assert simulation_module._pool is None  # one block never forks
    pooled = _simulate(tmp_path, model)
    assert simulation_module._pool is not None and pooled == serial
    # the rows give sample_copula's u and v back exactly
    sample = sample_copula(model, SIMULATE_N, 5)
    lines = serial.decode().splitlines()
    assert lines[0] == "u,v" and len(lines) == SIMULATE_N + 1
    uv = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(uv[:, 0], sample.u) and np.array_equal(uv[:, 1], sample.v)


def test_simulate_replaces_a_killed_worker(tmp_path, monkeypatch):
    monkeypatch.setenv("PICKPOLY_THREADS", "2")
    before = _simulate(tmp_path, MIX_MODEL)
    pids = _worker_pids()
    os.kill(pids[0], signal.SIGKILL)
    assert _simulate(tmp_path, MIX_MODEL) == before
    assert not set(_worker_pids()) & set(pids)


# _csv_rows, but the first call on the block whose first u is _DYING["u0"]
# leaves the file _DYING["mark"] and, after a pause in which the block
# before it is written, kills its own worker
_DYING: dict = {}
_csv_rows = simulation_module._csv_rows


def _csv_rows_dying_once(task):
    if task[1][0] == _DYING["u0"] and not os.path.exists(_DYING["mark"]):
        open(_DYING["mark"], "w").close()
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    return _csv_rows(task)


def test_simulate_resumes_after_a_block_kills_its_worker(tmp_path, monkeypatch):
    # the pool is replaced and the blocks not yet written run again: no row
    # is duplicated or missing
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    serial = _simulate(tmp_path, ALOG_MODEL)
    u = simulation_module._draw_uw(SIMULATE_N, 5)[0]
    monkeypatch.setitem(_DYING, "u0", u[simulation_module._BLOCK])
    monkeypatch.setitem(_DYING, "mark", str(tmp_path / "died"))
    monkeypatch.setattr(simulation_module, "_csv_rows", _csv_rows_dying_once)
    monkeypatch.setenv("PICKPOLY_THREADS", "2")
    simulation_module._drop_pool()  # workers forked from here on run the patched task
    try:
        pooled = _simulate(tmp_path, ALOG_MODEL)
    finally:
        simulation_module._drop_pool()
    assert (tmp_path / "died").exists()
    assert pooled == serial


def test_study_config_rejects_negative_m():
    with pytest.raises(ValueError, match="m must be >= 0"):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=-1, estimators=("cfg",))


@pytest.mark.parametrize("field, value", [
    ("replicates", 2.0), ("n", 100.5), ("n", np.float64(30.0)), ("m", True), ("m", 2.0),
    ("grid", 11.0), ("replicates", "2"), ("seed", 1.5),
])
def test_study_config_rejects_non_integer_sizes(field, value):
    sizes = {"n": 30, "replicates": 2, "m": 0, "seed": 0, "grid": 11, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        StudyConfig(model=MIX_MODEL, estimators=("cfg",), **sizes)


@pytest.mark.parametrize("seed", [5, 1])
def test_study_config_rejects_optim_seed(seed):
    # each replicate's optimizer seeds are split from the study's seed, so an
    # optim seed would be read by nothing
    with pytest.raises(ValueError, match=rf"^optim\.seed must be 0, got {seed}: "):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, optim=OptimConfig(seed=seed))
    assert StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0,
                       optim=OptimConfig(starts=3, seed=0)).optim.starts == 3


@pytest.mark.parametrize("estimators", [("full", "full"), ("sub", "cfg", "sub"), "full", ()])
def test_study_config_rejects_bad_estimators(estimators):
    with pytest.raises(ValueError, match="^estimators must be distinct names"):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=estimators)


@pytest.mark.parametrize("ranks", ["false", "true", 0, 1, None, np.True_])
def test_study_config_rejects_non_bool_ranks(ranks):
    # a truthy string used to run a rank study silently
    with pytest.raises(ValueError, match="^ranks must be a bool, got "):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=("cfg",), ranks=ranks)


@pytest.mark.parametrize("optim", [{"starts": 2}, 5, "default", (2, 0, None)])
def test_study_config_rejects_non_optimconfig_optim(optim):
    # a dict used to fail every replicate inside the study as a StudyError
    with pytest.raises(ValueError, match="^optim must be None or an OptimConfig, got "):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=("cfg",), optim=optim)


@pytest.mark.parametrize("estimators", [5, None, [["full"]], ("full", 1), {"full"}, b"cfg"])
def test_study_config_rejects_non_string_estimators(estimators):
    # these used to raise a TypeError, or pass as a set
    with pytest.raises(ValueError, match="^estimators must be a list or tuple of strings, got "):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=estimators)


def test_study_config_accepts_a_list_of_estimators():
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=["cfg"],
                         optim=OptimConfig(starts=2), ranks=True)
    assert config.estimators == ("cfg",)
    assert run_study(config, threads=1).excluded == {"cfg": 0}


@pytest.mark.parametrize("model", [None, {"model": "mix", "psi": 0.9}, model_pickands(MIX_MODEL)])
def test_study_config_rejects_a_model_that_is_not_a_reference_model(model):
    with pytest.raises(ValueError, match="^model must be a reference model, got "):
        StudyConfig(model=model, n=30, replicates=2, m=0, estimators=("cfg",))


def test_study_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
        StudyConfig(model=MIX_MODEL, n=30, replicates=2, m=0, estimators=("cfg",), seed=-1)


def test_study_config_accepts_numpy_integers():
    config = StudyConfig(model=MIX_MODEL, n=np.int64(30), replicates=np.int32(2), m=np.int64(0),
                         estimators=("cfg",), seed=np.uint32(4), grid=np.int64(11))
    assert run_study(config, threads=1).excluded["cfg"] == 0


def test_run_study_failure_policy(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(simulation_module, "fit_cfg", boom)
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=3, m=0,
                         estimators=("cfg",), seed=9, grid=11)
    with pytest.raises(StudyError):
        run_study(config, threads=1)


@pytest.mark.parametrize("m", [0, 5])
def test_study_logliks_equal_public_fits(m):
    # run_study fits replicates in groups of 8 (11 leaves a partial last
    # group); each replicate's logliks equal fit_full / fit_sub on its own
    # sample and seeds bit for bit, on either worker count
    config = StudyConfig(model=MIX_MODEL, n=60, replicates=11, m=m, estimators=("full", "sub"),
                         seed=12, grid=11, optim=OptimConfig(starts=4, maxfev=150))
    expected: dict[str, list[float]] = {"full": [], "sub": []}
    for rep in range(config.replicates):
        sample = sample_copula(config.model, config.n, split_seed(config.seed, rep, 0))
        for est, fit, key in (("full", fit_full, 1), ("sub", fit_sub, 2)):
            optim = replace(config.optim, seed=split_seed(config.seed, rep, key))
            expected[est].append(fit(sample, m, optim).loglik)
    for threads in (1, 2):
        report = run_study(config, threads=threads)
        assert {est: report.logliks[est].tolist() for est in expected} == expected


def test_study_cfg_curve_is_fit_cfg_on_the_study_grid():
    # each replicate's CFG curve is fit_cfg on the study's own grid, read
    # there, bit for bit
    config = StudyConfig(model=MIX_MODEL, n=60, replicates=3, m=0, estimators=("cfg",),
                         seed=14, grid=11)
    reps = list(range(config.replicates))
    tgrid = np.linspace(0.0, 1.0, config.grid)
    for rep, record in zip(reps, simulation_module._study_group((config, reps))):
        sample = sample_copula(config.model, config.n, split_seed(config.seed, rep, 0))
        expected = fit_cfg(sample, config.grid).estimate.value(tgrid)
        assert np.array_equal(record["cfg"]["curve"], expected)


@pytest.mark.parametrize("ranks", [False, True])
@pytest.mark.parametrize("name", ["alog", "mix", "poly6"])
def test_group_samples_equal_sample_copula(name, ranks):
    # a study group solves its replicates' pairs together (here 3 x 3000,
    # across a solver block boundary); each sample is the replicate's own
    # sample_copula draw, on midranks when ranks is set, bit for bit
    config = StudyConfig(model=SOLVER_MODELS[name], n=3000, replicates=5, m=0,
                         estimators=("cfg",), seed=23, ranks=ranks)
    reps = [0, 2, 4]
    samples = simulation_module._group_samples(config, reps)
    assert len(samples) == len(reps)
    for rep, sample in zip(reps, samples):
        alone = sample_copula(config.model, config.n, split_seed(config.seed, rep, 0))
        if ranks:
            alone = SampleSet.from_arrays(alone.u, alone.v, ranks=True)
        assert np.array_equal(sample.u, alone.u) and np.array_equal(sample.v, alone.v)


def test_study_records_a_failed_fit_against_its_replicate_only(monkeypatch):
    # one replicate's grouped fit raises: the study records the error against
    # that replicate alone and every other replicate comes out unchanged
    config = StudyConfig(model=MIX_MODEL, n=30, replicates=100, m=1, estimators=("full", "cfg"),
                         seed=13, grid=11, optim=OptimConfig(starts=2, maxfev=40))
    clean = run_study(config, threads=1)
    bad_seed = split_seed(config.seed, 42, 1)
    real = simulation_module._mles

    def failing(loglik, optim, seeds, full):
        if full and bad_seed in seeds:
            raise RuntimeError("forced failure")
        return real(loglik, optim, seeds, full)

    monkeypatch.setattr(simulation_module, "_mles", failing)
    report = run_study(config, threads=1)
    assert report.failures == {"full": [(42, "RuntimeError: forced failure")], "cfg": []}
    assert report.excluded == {"full": 1, "cfg": 0}
    full, clean_full = report.logliks["full"], clean.logliks["full"]
    assert np.isnan(full[42])
    assert np.array_equal(np.delete(full, 42), np.delete(clean_full, 42))
    assert report.payload()["mse"]["cfg"] == clean.payload()["mse"]["cfg"]


def test_run_study_ranks_flag():
    config = StudyConfig(model=MIX_MODEL, n=50, replicates=2, m=0,
                         estimators=("cfg",), seed=10, grid=11, ranks=True)
    report = run_study(config, threads=1)
    assert report.excluded["cfg"] == 0


def test_model_json_roundtrip():
    for model in (ALOG_MODEL, MIX_MODEL, POLY_MODEL):
        back = model_from_json(model_to_json(model))
        assert type(back) is type(model)
    assert model_from_json(model_to_json(MIX_MODEL)).psi == MIX_PSI
    with pytest.raises(ValueError):
        model_from_json({"model": "gaussian"})


def test_model_to_json_schema():
    assert model_to_json(AsymmetricLogistic(0.5, 0.9, 0.6)) == {
        "model": "alog", "alpha": 0.5, "psi1": 0.9, "psi2": 0.6}
    assert list(model_to_json(ALOG_MODEL)) == ["model", "alpha", "psi1", "psi2"]
    assert model_to_json(SymmetricMixed(0.9)) == {"model": "mix", "psi": 0.9}
    assert model_to_json(POLY_MODEL) == {
        "model": "poly", "pickands": {"basis": "bernstein", "degree": 4,
                                      "coeffs": POLY_MODEL.pickands.poly.coeffs.tolist()}}
    with pytest.raises(TypeError, match="unknown reference model"):
        model_to_json(MIX_MODEL.psi)


@pytest.mark.parametrize("obj, message", [
    ({"model": "alog", "alpha": 0.5, "psi1": 0.9},
     "alog model JSON is missing the required keys ['psi2']"),
    ({"model": "poly"}, "poly model JSON is missing the required keys ['pickands']"),
    ({"model": "mix", "psi": "0.5"}, "'psi' must be a number, got '0.5'"),
    ({"model": ["mix"], "psi": 0.5}, "model JSON: unknown model kind ['mix']"),
])
def test_model_from_json_names_the_key(obj, message):
    with pytest.raises(ValueError) as exc:
        model_from_json(obj)
    assert str(exc.value) == message


@pytest.mark.slow
def test_submodel_beats_full_model_at_small_n_then_gap_shrinks():
    # qualitative replication: with m = 5 fixed, the submodel MLE has smaller
    # MSE when n is small relative to m; by n = 1000 the two curves approach
    # each other (and may cross). Needs a thorough multistart: a weak search
    # under-fits the full model and masks its extra variance.
    optim = OptimConfig(starts=12, seed=0, maxfev=500)
    gaps = {}
    for n in (30, 1000):
        config = StudyConfig(model=ALOG_MODEL, n=n, replicates=30, m=5,
                             estimators=("full", "sub"), seed=11, grid=21, optim=optim)
        report = run_study(config, threads=1)
        gaps[n] = float(np.mean(report.mse["full"] - report.mse["sub"]))
    assert gaps[30] > 0.0
    assert abs(gaps[1000]) <= gaps[30] / 2.0

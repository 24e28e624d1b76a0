"""Copula sampling and the Monte Carlo mean-squared-error study harness.

Sampling uses the conditional distribution method: u and w are independent
uniforms and v solves dC/du(u, v) = w, found by Newton's method safeguarded
by bisection: the analytic partial dC/du = (C/u){A(t) - t A'(t)} gives the
residual and the closed-form copula density its slope, with A, A' and A''
from one kernel pass per step. Studies draw replicates with
counter-derived seeds so results are bit-identical no matter how many worker
processes execute them. The same kept worker pool solves and formats the
``pickpoly simulate`` CSV in blocks of 8192 pairs; each v depends only on its
own (u, w), so the CSV bytes do not depend on the worker count either.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from typing import Union

import numpy as np

from .bernstein import (
    PowerPoly,
    _check_int,
    _check_keys,
    _real_float,
    poly_from_json,
    poly_to_json,
    power_to_bernstein,
)
from .inference import (
    FitResult,
    OptimConfig,
    SampleSet,
    _LogLik,
    _mles,
    fit_cfg,
)
from .pickands import GenericPickands, PickandsPoly, _density_brace, independence


class StudyError(RuntimeError):
    """Raised when more than 1% of a study's replicates fail."""


def _store_floats(model) -> None:
    # each field of model as a float, by the rule of _real_float
    for f in fields(model):
        object.__setattr__(model, f.name, _real_float(repr(f.name), getattr(model, f.name)))


@dataclass(frozen=True)
class AsymmetricLogistic:
    """A(t) = (1-psi1) t + (1-psi2)(1-t) + [(psi1 t)^(1/a) + {psi2 (1-t)}^(1/a)]^a.

    alpha in (0, 1] and psi1, psi2 in [0, 1] are real numbers, stored as floats.
    """

    alpha: float
    psi1: float
    psi2: float

    def __post_init__(self):
        _store_floats(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not (0.0 <= self.psi1 <= 1.0 and 0.0 <= self.psi2 <= 1.0):
            raise ValueError("psi1, psi2 must lie in [0, 1]")


@dataclass(frozen=True)
class SymmetricMixed:
    """A(t) = 1 - psi t + psi t^2 for a real psi in [0, 1], stored as a float."""

    psi: float

    def __post_init__(self):
        _store_floats(self)
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError("psi must lie in [0, 1]")


@dataclass(frozen=True)
class PolynomialModel:
    """True Pickands function given directly as a validated polynomial."""

    pickands: PickandsPoly

    def __post_init__(self):
        if not isinstance(self.pickands, PickandsPoly):
            raise ValueError(f"pickands must be a PickandsPoly, got {type(self.pickands).__name__}")


ReferenceModel = Union[AsymmetricLogistic, SymmetricMixed, PolynomialModel]


def model_pickands(model: ReferenceModel) -> PickandsPoly | GenericPickands:
    """The model's Pickands function, with ``value`` and ``kernel`` (A, A', A'').

    A PolynomialModel gives its own PickandsPoly; the other models give a
    GenericPickands of one closed-form function returning (A, A', A'').
    """
    if isinstance(model, SymmetricMixed):
        psi = model.psi

        def mix(t):
            return 1.0 - psi * t + psi * t * t, psi * (2.0 * t - 1.0), np.full_like(t, 2.0 * psi)

        return GenericPickands(mix)
    if isinstance(model, PolynomialModel):
        return model.pickands
    if isinstance(model, AsymmetricLogistic):
        alpha, psi1, psi2 = model.alpha, model.psi1, model.psi2
        if alpha == 1.0 or psi1 == 0.0 or psi2 == 0.0:
            return independence()  # the bracket collapses to a linear term: A == 1
        r = 1.0 / alpha
        c1, c2 = psi1**r, psi2**r

        def alog(t):
            # for alpha > 1/2, t**(r - 2) divides by zero at t in {0, 1}:
            # A'' is infinite there and is only read on (0, 1)
            with np.errstate(divide="ignore"):
                g = c1 * t**r + c2 * (1.0 - t) ** r
                dg = r * (c1 * t ** (r - 1.0) - c2 * (1.0 - t) ** (r - 1.0))
                d2g = r * (r - 1.0) * (c1 * t ** (r - 2.0) + c2 * (1.0 - t) ** (r - 2.0))
                return ((1.0 - psi1) * t + (1.0 - psi2) * (1.0 - t) + g**alpha,
                        (psi2 - psi1) + alpha * g ** (alpha - 1.0) * dg,
                        alpha * (alpha - 1.0) * g ** (alpha - 2.0) * dg**2
                        + alpha * g ** (alpha - 1.0) * d2g)

        return GenericPickands(alog)
    raise TypeError(f"unknown reference model {model!r}")


def split_seed(master: int, *key: int) -> int:
    """Derive an independent 64-bit child seed from (master, key...), integers >= 0."""
    key = tuple(_check_int(f"key[{i}]", k) for i, k in enumerate(key))
    ss = np.random.SeedSequence(entropy=_check_int("master", master), spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# the model JSON kinds and the classes that check and hold their parameters
_MODEL_KINDS = {"alog": AsymmetricLogistic, "mix": SymmetricMixed, "poly": PolynomialModel}


def model_to_json(model: ReferenceModel) -> dict:
    """Serialize a reference model to the CLI's model JSON schema."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unknown reference model {model!r}")
    if kind == "poly":
        return {"model": kind, "pickands": poly_to_json(model.pickands.poly)}
    return {"model": kind, **asdict(model)}


def model_from_json(obj: dict) -> ReferenceModel:
    """Parse the model JSON schema (alog | mix | poly): keys checked here, values by the model."""
    if not isinstance(obj, dict):
        raise ValueError(f"model JSON must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("model")
    cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"model JSON: unknown model kind {kind!r}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, ["model", *names], f"{kind} model JSON", required=names)
    if cls is PolynomialModel:
        poly = poly_from_json(obj["pickands"])
        if isinstance(poly, PowerPoly):
            poly = power_to_bernstein(poly)
        return PolynomialModel(PickandsPoly(poly))
    return cls(**{name: obj[name] for name in names})


# the search bracket for v; the Newton step, relative to min(v, 1 - v) (the
# scale on which dC/du varies, as t depends on log v), after which one more
# step finishes an element; a cap no element reaches in practice (bisection
# alone collapses the bracket in about 100 steps); and the block size
_V_LO, _V_HI = 1e-14, 1.0 - 1e-14
_STEP_RTOL = 1e-8
_MAX_STEPS = 128
_BLOCK = 8192


def sample_copula(model: ReferenceModel, n: int, seed: int) -> SampleSet:
    """Draw n pairs with uniform margins and copula C_A by conditional inversion.

    u and w are independent uniforms (u clipped to [1e-16, 1 - 1e-16]) and
    v solves dC/du(u, v) = w (see ``_solve_conditional``). Deterministic
    given the seed.

    Raises
    ------
    ValueError
        If n is not an integer >= 1 or seed not an integer >= 0.
    """
    n, seed = _check_int("n", n, 1), _check_int("seed", seed)
    return _draw_samples(model, n, [seed])[0]


def _draw_samples(model: ReferenceModel, n: int, seeds) -> list[SampleSet]:
    """``sample_copula(model, n, seed)`` for every seed, with one solve of all pairs.

    Each sample's u and w come from its own seed's generator; one
    ``_solved_samples`` call over the joined pairs gives every v, which
    depends only on its own (u, w).
    """
    u, w = (np.concatenate(x) for x in zip(*(_draw_uw(n, seed) for seed in seeds)))
    return _solved_samples(model, u, w, n)


def _solved_samples(model: ReferenceModel, u: np.ndarray, w: np.ndarray, n: int) -> list[SampleSet]:
    # the pairs (u, solved v) as SampleSets of n pairs each, which check
    # every pair; v is solved in blocks, which bound the iteration's temporaries
    kernel = model_pickands(model).kernel
    v = np.empty(u.size)
    for i in range(0, u.size, _BLOCK):
        v[i:i + _BLOCK] = _solve_conditional(kernel, u[i:i + _BLOCK], w[i:i + _BLOCK])
    return [SampleSet(u[i:i + n], v[i:i + n]) for i in range(0, u.size, n)]


def _draw_uw(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # the sampler's u (clipped to [1e-16, 1 - 1e-16]) and w, from the seed's generator
    rng = np.random.default_rng(seed)
    return np.clip(rng.random(n), 1e-16, 1.0 - 1e-16), rng.random(n)


def _sample_csv(model: ReferenceModel, n: int, seed: int):
    """``sample_copula(model, n, seed)`` as CSV text: the ``u,v`` header, then each block's rows.

    n, seed and the model are checked here, before any text is yielded; each
    block of ``_BLOCK`` pairs is solved and formatted by ``_csv_rows``, on
    the kept worker pool when there are several blocks and more than one
    worker. Each v depends only on its own (u, w), so the text is the same
    for any worker count.
    """
    n, seed = _check_int("n", n, 1), _check_int("seed", seed)
    model_pickands(model)  # a bad model fails here, before any block runs
    u, w = _draw_uw(n, seed)
    tasks = [(model, u[i:i + _BLOCK], w[i:i + _BLOCK]) for i in range(0, n, _BLOCK)]
    return itertools.chain(["u,v\n"], _pool_map(_csv_rows, tasks, _resolve_threads(None)))


def _csv_rows(task: tuple[ReferenceModel, np.ndarray, np.ndarray]) -> str:
    # one block's "u,v" rows, each float by repr
    model, u, w = task
    [sample] = _solved_samples(model, u, w, u.size)
    return "".join([f"{a!r},{b!r}\n" for a, b in zip(sample.u.tolist(), sample.v.tolist())])


def _solve_conditional(kernel, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The v in [1e-14, 1 - 1e-14] with F(v) = dC/du(u, v) - w = 0, elementwise.

    Newton's method safeguarded by bisection (rtsafe), started at v = w:
    the slope F' is the copula density, every evaluation of F narrows a
    bracket on the root, and a Newton point is taken only inside the closed
    bracket and when its step is at most half the step before last;
    otherwise the bracket is bisected. ``kernel`` gives A, A' and A'' in one
    pass. An element stops one step after its Newton step falls below
    1e-8 min(v, 1 - v), or when its bracket narrows to 4 ulp, and then
    leaves the active set, so each v depends only on its own (u, w).
    """
    n = u.size
    v = np.empty(n)
    # state of the active elements, compacted as elements finish
    idx = np.arange(n)
    logu = np.log(u)
    lo = np.full(n, _V_LO)
    hi = np.full(n, _V_HI)
    x = np.clip(w, _V_LO, _V_HI)  # the root under independence, C = uv
    dx = dx_old = np.full(n, _V_HI - _V_LO)
    near = np.zeros(n, dtype=bool)
    # a zero or non-finite slope gives a non-finite Newton point, which the
    # bracket test rejects in favour of bisection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            logx = np.log(x)
            s = logu + logx
            t = logx / s
            a, d1, d2 = kernel(t)
            e = np.exp(s * a - logu)  # C / u
            right = a - t * d1
            f = e * right - w
            slope = (e / x) * _density_brace(a, d1, d2, t, s)
            above = f >= 0.0
            hi = np.where(above, x, hi)
            lo = np.where(above, lo, x)
            step = f / slope
            newton = x - step
            ok = (newton >= lo) & (newton <= hi) & (2.0 * np.abs(step) <= np.abs(dx_old))
            x_new = np.where(ok, newton, 0.5 * (lo + hi))
            dx_old, dx = dx, x_new - x
            done = (ok & near) | (hi - lo <= 4.0 * np.spacing(hi))
            near = ok & (np.abs(step) < _STEP_RTOL * np.minimum(x, 1.0 - x))
            x = x_new
            if done.any():
                v[idx[done]] = x[done]
                keep = ~done
                if not keep.any():
                    return v
                idx, logu, w, lo, hi, x, dx, dx_old, near = (
                    arr[keep] for arr in (idx, logu, w, lo, hi, x, dx, dx_old, near))
    v[idx] = x
    return v


@dataclass(frozen=True)
class StudyConfig:
    """One Monte Carlo experiment: model, sizes, estimators, seed, grid.

    A ``model`` that is not a reference model, an ``n``, ``replicates``,
    ``m``, ``seed`` or ``grid`` that is not an integer, or is below 2, 1, 0,
    0 or 2 respectively, raises a ValueError naming the field, as do
    ``estimators`` that are not a list or tuple of distinct names from
    full/sub/cfg (stored as a tuple), an ``optim`` that is neither None nor
    an OptimConfig, and a ``ranks`` that is not a bool. ``optim`` gives the
    multistart's ``starts`` and ``maxfev``. Each replicate's optimizer seeds
    are split from the study's ``seed``, so an ``optim`` whose ``seed`` is
    not the default 0 raises a ValueError naming ``optim.seed``.
    """

    model: ReferenceModel
    n: int
    replicates: int
    m: int
    estimators: tuple[str, ...] = ("full", "sub", "cfg")
    seed: int = 0
    grid: int = 101
    optim: OptimConfig | None = None
    ranks: bool = False  # fit on midrank pseudo-observations instead of true margins

    def __post_init__(self):
        if not isinstance(self.model, ReferenceModel):
            raise ValueError(f"model must be a reference model, got {self.model!r}")
        for name, low in (("n", 2), ("replicates", 1), ("m", 0), ("seed", 0), ("grid", 2)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        est = self.estimators
        if not isinstance(est, (str, list, tuple)) or not all(isinstance(e, str) for e in est):
            raise ValueError(f"estimators must be a list or tuple of strings, got {est!r}")
        if (isinstance(est, str) or not est or set(est) - {"full", "sub", "cfg"}
                or len(set(est)) != len(est)):
            raise ValueError(f"estimators must be distinct names from full/sub/cfg, got {est!r}")
        object.__setattr__(self, "estimators", tuple(est))
        if self.optim is not None and not isinstance(self.optim, OptimConfig):
            raise ValueError(f"optim must be None or an OptimConfig, got {self.optim!r}")
        if self.optim is not None and self.optim.seed != OptimConfig.seed:
            raise ValueError(f"optim.seed must be {OptimConfig.seed}, got {self.optim.seed!r}: each "
                             "replicate's optimizer seeds are split from the study's 'seed'")
        if not isinstance(self.ranks, bool):
            raise ValueError(f"ranks must be a bool, got {self.ranks!r}")


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Per-estimator mse/variance/bias^2 curves plus replicate diagnostics.

    mse = variance + bias^2 holds per grid point over the included
    replicates. runtime_seconds is wall time and is excluded from payload()
    so that reports from equal configurations compare bit-identical.
    """

    abscissae: np.ndarray
    truth: np.ndarray
    mse: dict[str, np.ndarray]
    variance: dict[str, np.ndarray]
    bias_sq: dict[str, np.ndarray]
    logliks: dict[str, np.ndarray]
    excluded: dict[str, int]
    failures: dict[str, list[tuple[int, str]]]
    runtime_seconds: float

    def payload(self) -> dict:
        """Deterministic content (no wall time), as plain JSON-able data.

        NaN logliks (the CFG estimator has no likelihood) become None so the
        payload is valid JSON and compares equal across identical runs.
        """
        return {
            "abscissae": self.abscissae.tolist(),
            "truth": self.truth.tolist(),
            "mse": {k: v.tolist() for k, v in self.mse.items()},
            "variance": {k: v.tolist() for k, v in self.variance.items()},
            "bias_sq": {k: v.tolist() for k, v in self.bias_sq.items()},
            "logliks": {k: [None if np.isnan(x) else float(x) for x in v]
                        for k, v in self.logliks.items()},
            "excluded": dict(self.excluded),
            "failures": {k: list(map(list, v)) for k, v in self.failures.items()},
        }


# replicates are fitted in groups of this many, one batched search per group
# and estimator; the groups depend on nothing but the replicate count
_GROUP = 8


def _fits(est: str, samples: list[SampleSet], config: StudyConfig,
          reps: list[int]) -> list[FitResult]:
    # one fit of each replicate's sample, each from the replicate's own seed
    if est == "cfg":
        return [fit_cfg(sample, config.grid) for sample in samples]
    base = config.optim if config.optim is not None else OptimConfig()
    full = est == "full"
    seeds = [split_seed(config.seed, rep, 1 if full else 2) for rep in reps]
    return _mles(_LogLik(samples, config.m), base, seeds, full)


def _fit_records(est: str, samples: list[SampleSet], config: StudyConfig,
                 reps: list[int]) -> list[dict]:
    # a group whose fit raises is refitted one replicate at a time: a fit is
    # the same in any group, so the others come out unchanged and the error
    # is recorded against its own replicate, never silently dropped
    tgrid = np.linspace(0.0, 1.0, config.grid)
    try:
        return [{"curve": np.asarray(f.estimate.value(tgrid)), "loglik": f.loglik, "error": None}
                for f in _fits(est, samples, config, reps)]
    except Exception as exc:
        if len(reps) > 1:
            return [record for sample, rep in zip(samples, reps)
                    for record in _fit_records(est, [sample], config, [rep])]
        return [{"curve": None, "loglik": float("nan"), "error": f"{type(exc).__name__}: {exc}"}]


def _group_samples(config: StudyConfig, reps: list[int]) -> list[SampleSet]:
    # each replicate's sample_copula draw, on midranks when config.ranks
    samples = _draw_samples(config.model, config.n, [split_seed(config.seed, rep, 0) for rep in reps])
    if config.ranks:
        samples = [SampleSet.from_arrays(s.u, s.v, ranks=True) for s in samples]
    return samples


def _study_group(args: tuple[StudyConfig, list[int]]) -> list[dict]:
    config, reps = args
    samples = _group_samples(config, reps)
    out: list[dict] = [{} for _ in reps]
    for est in config.estimators:
        for record, result in zip(out, _fit_records(est, samples, config, reps)):
            record[est] = result
    return out


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return _check_int("threads", threads, 1)
    env = os.environ.get("PICKPOLY_THREADS", "").strip()
    if not env:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"PICKPOLY_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


# the worker pool kept across run_study and simulate calls, and its worker
# count; a forked child starts without it, as the workers are its parent's
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _forget_pool() -> None:
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _kept_pool(threads: int, tasks: int) -> ProcessPoolExecutor:
    # the kept pool if it has workers for every task but no more than
    # threads, else a new one with min(threads, tasks): forked pools start
    # all their workers at once, so a pool sized by threads alone would fork
    # one per core for a two-task call
    global _pool, _pool_workers
    workers = min(threads, tasks)
    if not workers <= _pool_workers <= threads:
        _drop_pool()
    if _pool is None:
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def _pool_map(fn, tasks: list, threads: int):
    # fn over tasks, yielding results in order: in this process with one
    # worker or one task, else on the kept pool. A pool whose worker died is
    # replaced once, and the work resumes at the first result not yet yielded
    if threads <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    done = 0
    try:
        for result in _kept_pool(threads, len(tasks)).map(fn, tasks):
            yield result
            done += 1
    except BrokenProcessPool:
        _drop_pool()
        yield from _kept_pool(threads, len(tasks) - done).map(fn, tasks[done:])


def run_study(config: StudyConfig, threads: int | None = None) -> StudyReport:
    """Run the Monte Carlo study; deterministic given (config, seed).

    Replicates draw their sample and optimizer seeds from (seed, replicate)
    so any execution order gives the same report. Each MLE fits the
    replicates in fixed groups of 8, one batched search per group; every
    fit equals that of ``fit_full`` / ``fit_sub`` on the replicate's sample
    and seed bit for bit, and the group's samples come from one sampler
    solve, each equal to its ``sample_copula`` draw. Failed replicates are
    excluded per estimator with a count; more than 1% failures raise
    StudyError.

    ``threads`` (None or an integer >= 1) is the worker count; None reads
    the ``PICKPOLY_THREADS`` environment variable, else the CPU count. With
    one worker, or one group, the study runs in this process. Otherwise
    worker processes take whole groups: the first such call starts one per
    group, up to the worker count, and later calls in this process reuse
    them until it exits or a call needs more workers than they are or
    allows fewer. ``pickpoly simulate`` shares the same pool once n exceeds
    8192 pairs, and its bytes do not depend on the worker count. A pool
    whose worker died is replaced once, and the work resumes at the first
    group not yet returned.
    """
    t0 = time.perf_counter()
    tasks = [(config, list(range(g, min(g + _GROUP, config.replicates))))
             for g in range(0, config.replicates, _GROUP)]
    results = [record for group in _pool_map(_study_group, tasks, _resolve_threads(threads))
               for record in group]

    tgrid = np.linspace(0.0, 1.0, config.grid)
    truth = model_pickands(config.model).value(tgrid)
    mse: dict[str, np.ndarray] = {}
    variance: dict[str, np.ndarray] = {}
    bias_sq: dict[str, np.ndarray] = {}
    logliks: dict[str, np.ndarray] = {}
    excluded: dict[str, int] = {}
    failures: dict[str, list[tuple[int, str]]] = {}
    for est in config.estimators:
        fails = [(r, results[r][est]["error"]) for r in range(config.replicates)
                 if results[r][est]["error"] is not None]
        if len(fails) > 0.01 * config.replicates:
            raise StudyError(f"estimator {est}: {len(fails)} of {config.replicates} replicates failed: {fails[:3]}")
        curves = np.stack([results[r][est]["curve"] for r in range(config.replicates)
                           if results[r][est]["error"] is None])
        mean_curve = curves.mean(axis=0)
        mse[est] = ((curves - truth) ** 2).mean(axis=0)
        variance[est] = ((curves - mean_curve) ** 2).mean(axis=0)
        bias_sq[est] = (mean_curve - truth) ** 2
        logliks[est] = np.array([results[r][est]["loglik"] for r in range(config.replicates)])
        excluded[est] = len(fails)
        failures[est] = fails
    return StudyReport(
        abscissae=tgrid,
        truth=truth,
        mse=mse,
        variance=variance,
        bias_sq=bias_sq,
        logliks=logliks,
        excluded=excluded,
        failures=failures,
        runtime_seconds=time.perf_counter() - t0,
    )

"""Likelihood evaluation and the three Pickands-function estimators.

Estimators, all returning genuine Pickands functions by construction:

* ``fit_full``  — maximum likelihood over the ellipsoid-intersection
  parameter space Theta_m of all polynomial Pickands functions,
* ``fit_sub``   — maximum likelihood over the polytope of Bernstein
  coefficient vectors of the approximation submodel,
* ``fit_cfg``   — the rank-based CFG estimator with optimal endpoint
  correction, clamped to [V, 1] and convexified by its greatest convex
  minorant on a grid.

Both MLEs share one likelihood engine: for fixed data the log-likelihood is
a smooth function of the spectral coefficients h with a closed-form
gradient, evaluated through a design matrix built once per (data, m). The
problems are nonconcave, so each driver runs SLSQP with exact constraint
Jacobians from many feasible random starts, pulls every final point
radially back into the parameter space and keeps the best; the
independence parameter (loglik exactly 0) is always a fallback candidate.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import minimize
from scipy.stats import rankdata

from .bernstein import BernsteinPoly, eval_with_derivatives
from .full_model import (
    FullModelParam,
    coefficient_tensor,
    form_matrices,
    sample_feasible,
    theta_to_h,
    theta_to_pickands,
)
from .pickands import (
    PickandsPoly,
    a_from_h,
    a_from_h_matrix,
    copula_density,
    vee,
)
from .submodel import PiecewiseLinearPickands, SubmodelParam

LOGLIK_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SampleSet:
    """n pairs (u, v), each strictly inside (0, 1)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or u.shape != v.shape or u.size < 1:
            raise ValueError("u and v must be equal-length 1-d arrays with n >= 1")
        for name, x in (("u", u), ("v", v)):
            if np.any(x <= 0.0) or np.any(x >= 1.0) or not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        u, v = u.copy(), v.copy()
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size

    @staticmethod
    def from_arrays(u, v, ranks: bool = False) -> "SampleSet":
        """Build a sample, optionally replacing margins by midranks/(n+1)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if ranks:
            n = u.size
            u = rankdata(u, method="average") / (n + 1)
            v = rankdata(v, method="average") / (n + 1)
        return SampleSet(u, v)


@dataclass(frozen=True)
class OptimConfig:
    """Knobs for the multi-start search (deterministic given seed).

    ``starts`` random feasible starting points, drawn from ``seed``; each
    local SLSQP search stops after at most ``maxfev`` iterations (None keeps
    SLSQP's default of 100). A non-integer field, ``starts`` or ``maxfev``
    below 1, or a negative ``seed`` raises a ValueError naming the field.
    """

    starts: int = 20
    seed: int = 0
    maxfev: int | None = None

    def __post_init__(self):
        if not _is_int(self.starts) or self.starts < 1:
            raise ValueError(f"starts must be an integer >= 1, got {self.starts!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.maxfev is not None and (not _is_int(self.maxfev) or self.maxfev < 1):
            raise ValueError(f"maxfev must be None or an integer >= 1, got {self.maxfev!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class FitResult:
    estimate: Union[PickandsPoly, PiecewiseLinearPickands]
    loglik: float
    param: Union[FullModelParam, SubmodelParam, None]
    starts_used: int
    converged: bool


def _pseudo_angles(data: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    # s = log(uv) < 0 and t = log(v)/s for every pair
    s = np.log(data.u) + np.log(data.v)
    t = np.log(data.v) / s
    return t, s


def _loglik_terms(acoeffs: np.ndarray, t: np.ndarray, s: np.ndarray) -> float:
    # sum of log copula densities; -inf when a density is nonpositive
    val, d1, d2 = eval_with_derivatives(acoeffs, t)
    brace = (val + (1.0 - t) * d1) * (val - t * d1) - t * (1.0 - t) * d2 / s
    if np.any(brace <= 0.0):
        return LOGLIK_NEG_INF
    return float(np.sum(s * (val - 1.0)) + np.sum(np.log(brace)))


def log_likelihood(A, data: SampleSet) -> float:
    """Sum of log copula densities of the data under A.

    A may be a PickandsPoly (fast coefficient path) or a GenericPickands.
    Returns -inf when the density is nonpositive at some observation.
    """
    if isinstance(A, PickandsPoly):
        t, s = _pseudo_angles(data)
        return _loglik_terms(A.poly.coeffs, t, s)
    dens = copula_density(A, data.u, data.v)
    dens = np.atleast_1d(dens)
    if np.any(dens <= 0.0):
        return LOGLIK_NEG_INF
    return float(np.sum(np.log(dens)))


_UNDEFINED_OBJ = 1e12
# SLSQP stops once the objective (in nats) settles to this; two searches that
# reach the same optimum then agree to ~1e-13 rather than ~1e-8
_FTOL = 1e-10


class _LogLik:
    """Log-likelihood of A_h and its gradient in h, for fixed data and degree m.

    A is an affine image of the spectral coefficients h, so at fixed
    pseudo-angles the two factors of the density brace and A'' are affine in
    h as well. One stacked (3n x (m+1)) design matrix, built once, maps h to
    them; a value-and-gradient call is then one matvec, one transposed
    matvec and a few length-n vector operations.
    """

    def __init__(self, data: SampleSet, m: int):
        t, s = _pseudo_angles(data)
        K = a_from_h_matrix(m) / (m + 1)
        # column j: A - 1, A' and A'' at every t for the unit coefficient e_j
        val, d1, d2 = (np.column_stack(cols) for cols in
                       zip(*(eval_with_derivatives(-K[:, j], t) for j in range(m + 1))))
        self.n = t.size
        self.T = coefficient_tensor(m) if m >= 1 else None
        self.design = np.vstack([val + (1.0 - t)[:, None] * d1, val - t[:, None] * d1, d2])
        self.curv = -t * (1.0 - t) / s
        self.lin = s @ val

    def objective(self, h: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative loglik and its gradient in h.

        Where a density is nonpositive (SLSQP may try points slightly outside
        the caps) the value is a large finite constant, so its line search
        backs off instead of failing on inf or NaN.
        """
        n = self.n
        z = self.design @ h
        f1 = 1.0 + z[:n]
        f2 = 1.0 + z[n:2 * n]
        brace = f1 * f2 + self.curv * z[2 * n:]
        if brace.min() <= 0.0:
            return _UNDEFINED_OBJ, np.zeros_like(h)
        inv = 1.0 / brace
        weights = np.concatenate([f2 * inv, f1 * inv, self.curv * inv])
        return -float(self.lin @ h + np.log(brace).sum()), -(self.lin + weights @ self.design)

    def theta_objective(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """The objective through h_k = theta' T[k] theta (m >= 1).

        dh_k/dtheta = 2 T[k] theta, so the gradient is 2 (sum_k g_k T[k]) theta.
        """
        Tth = self.T @ theta
        f, g = self.objective(Tth @ theta)
        return f, 2.0 * (g @ Tth)


def _multistart(data: SampleSet, objective, starts: np.ndarray, config: OptimConfig,
                candidate, **problem):
    """SLSQP from each start; the best projected candidate by its loglik.

    ``candidate(x)`` pulls a search's final point back inside the parameter
    space and returns (param, h). Candidates are scored by the de Casteljau
    log-likelihood of a_from_h(h), the arithmetic of ``log_likelihood``, so
    the reported value is exactly that of the estimate built from the
    winner. The independence point (loglik exactly 0) is the baseline, so
    the winner never falls below it; ties keep the earlier candidate.
    Returns (param or None, loglik, success).
    """
    t, s = _pseudo_angles(data)
    options = {"ftol": _FTOL}
    if config.maxfev is not None:
        options["maxiter"] = config.maxfev
    best, best_ll, best_ok = None, 0.0, True
    for x0 in starts:
        res = minimize(objective, x0, jac=True, method="SLSQP", options=options, **problem)
        if not np.all(np.isfinite(res.x)):
            continue
        param, h = candidate(res.x)
        ll = _loglik_terms(a_from_h(h).coeffs, t, s)
        if ll > best_ll:
            best, best_ll, best_ok = param, ll, bool(res.success)
    return best, best_ll, best_ok


def _check_degree(n: int, m: int):
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n < m + 3:
        warnings.warn(f"sample size n = {n} below m + 3 = {m + 3}; fit may be unstable",
                      UserWarning, stacklevel=3)


def fit_full(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over Theta_m (all polynomial Pickands functions, degree m + 2)."""
    _check_degree(data.n, m)
    loglik = _LogLik(data, m)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    starts = sample_feasible(m, rng, config.starts)
    if m == 0:
        # theta is h itself; the caps reduce to theta <= 2
        objective, problem = loglik.objective, {"bounds": [(0.0, 2.0)]}
    else:
        Q = np.stack(form_matrices(m))
        objective = loglik.theta_objective
        problem = {"constraints": {"type": "ineq",
                                   "fun": lambda th: 1.0 - (Q @ th) @ th,
                                   "jac": lambda th: -2.0 * (Q @ th)}}

    def candidate(theta: np.ndarray):
        if m == 0:
            theta = np.clip(theta, 0.0, 2.0)
        else:
            q0, q1 = (Q @ theta) @ theta
            theta = _canonical_sign(theta / np.sqrt(max(1.0, q0, q1)), m)
        param = FullModelParam(m, theta)
        return param, theta_to_h(param)

    param, ll, ok = _multistart(data, objective, starts, config, candidate, **problem)
    if param is None:
        param = FullModelParam(m, np.zeros(m + 1))
    return FitResult(theta_to_pickands(param), ll, param, config.starts, ok)


def _canonical_sign(theta: np.ndarray, m: int) -> np.ndarray:
    # (P, Q) and their sign flips give the same h; report the representative
    # whose first nonzero entry per block is positive
    theta = theta.copy()
    if m == 0:
        return theta
    split = m // 2 + 1
    for block in (slice(0, split), slice(split, m + 1)):
        seg = theta[block]
        nz = np.nonzero(seg)[0]
        if nz.size and seg[nz[0]] < 0:
            theta[block] = -seg
    return theta


def _cap_weights(m: int) -> np.ndarray:
    # rows w0, w1 with int (1-w) h = w0 . c and int w h = w1 . c
    y = (np.arange(m + 1) + 1.0) / (m + 2)
    return np.stack([1.0 - y, y]) / (m + 1)


def fit_sub(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over the polytope C_m^+ (Bernstein approximation submodel)."""
    _check_degree(data.n, m)
    loglik = _LogLik(data, m)
    W = _cap_weights(m)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(1,)))
    starts = _polytope_starts(m, rng, config.starts, W)

    def candidate(c: np.ndarray):
        c = np.maximum(c, 0.0)
        param = SubmodelParam(m, c / max(1.0, *(W @ c)))
        return param, BernsteinPoly(param.c)

    param, ll, ok = _multistart(
        data, loglik.objective, starts, config, candidate,
        bounds=[(0.0, None)] * (m + 1),
        constraints={"type": "ineq", "fun": lambda c: 1.0 - W @ c, "jac": lambda c: -W})
    if param is None:
        param = SubmodelParam(m, np.zeros(m + 1))
    estimate = PickandsPoly(a_from_h(BernsteinPoly(param.c)))
    return FitResult(estimate, ll, param, config.starts, ok)


def _polytope_starts(m: int, rng: np.random.Generator, count: int, W: np.ndarray) -> np.ndarray:
    # Dirichlet-style: random nonnegative direction, scaled to the boundary
    # of the two caps, then pulled inside radially
    g = rng.exponential(size=(count, m + 1))
    d = g / g.sum(axis=1, keepdims=True)
    lam = 1.0 / (d @ W.T).max(axis=1)
    radial = rng.uniform(size=count) ** (1.0 / (m + 1))
    return d * (lam * radial)[:, None]


def greatest_convex_minorant(values, knots=None) -> np.ndarray:
    """Greatest convex function below the given grid values, on the grid.

    Lower convex hull by the monotone-chain sweep; idempotent, equal to the
    input when the input is already convex.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)):
        raise ValueError("values must be a finite 1-d array with >= 2 points")
    x = np.linspace(0.0, 1.0, v.size) if knots is None else np.asarray(knots, dtype=float)
    hx: list[float] = []
    hy: list[float] = []
    for xi, yi in zip(x, v):
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (xi - hx[-2]) >= (yi - hy[-2]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(xi)
        hy.append(yi)
    return np.interp(x, hx, hy)


def fit_cfg(data: SampleSet, grid: int = 1001) -> FitResult:
    """CFG estimator with optimal endpoint correction, repaired into a
    genuine Pickands function.

    Steps: log A_cfg(t) = -euler_gamma - mean_i log xi_i(t) with
    xi_i(t) = min{(-log u_i)/(1-t), (-log v_i)/t}; endpoint correction
    log A(t) -= (1-t) log A(0) + t log A(1); clamp into [V, 1]; greatest
    convex minorant on the grid. The result satisfies all Pickands
    conditions on the grid.
    """
    if data.n < 2:
        raise ValueError("CFG estimator needs n >= 2")
    if np.ptp(data.u) == 0.0 and np.ptp(data.v) == 0.0:
        raise ValueError("degenerate sample: all pairs identical")
    tgrid = np.linspace(0.0, 1.0, grid)
    log_lu = np.log(-np.log(data.u))
    log_lv = np.log(-np.log(data.v))
    with np.errstate(divide="ignore"):
        log_1mt = np.log1p(-tgrid)
        log_t = np.log(tgrid)
    # log xi_i(t): minimum taken in logs so the endpoints come out exact;
    # chunked over the grid to keep the n-by-grid intermediate small
    mean_logxi = np.empty(grid)
    chunk = max(1, int(2e7) // data.n)
    for j in range(0, grid, chunk):
        sl = slice(j, j + chunk)
        mean_logxi[sl] = np.minimum(
            log_lu[:, None] - log_1mt[None, sl],
            log_lv[:, None] - log_t[None, sl],
        ).mean(axis=0)
    log_a = -np.euler_gamma - mean_logxi
    log_a = log_a - (1.0 - tgrid) * log_a[0] - tgrid * log_a[-1]
    clamped = np.minimum(1.0, np.maximum(np.exp(log_a), vee(tgrid)))
    gcm = greatest_convex_minorant(clamped, tgrid)
    estimate = PiecewiseLinearPickands(tgrid, gcm)
    return FitResult(estimate, float("nan"), None, 0, True)

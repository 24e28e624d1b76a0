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
a smooth function of the spectral coefficients h with a closed-form gradient
and Hessian, evaluated through a design matrix built once per (data, m) for
a whole stack of points at a time. The problems are nonconcave, so each
fitter searches from many feasible random starts and keeps the best; all
starts advance together in one batched local search: a damped-BFGS SQP over
Theta_m, which reads the two caps and their gradients with the objective
(from one T[k] theta product per row) and solves its QP over the linearised
caps in closed form, and a primal-dual interior point with the exact Hessian
over the polytope, each local search one call of ``minimize``. One driver,
``_mles``, serves both MLEs: only the starts, the search and the parameter
type depend on the model, and at m = 0, where Theta_0 = [0, 2] is the
degree-0 polytope, both run the interior point. One search can carry the
starts of a whole group of datasets (``fit_full`` and ``fit_sub`` are a
group of one, ``run_study`` fits groups of 8). A start's values are not what
it gets alone, as BLAS rounds a one-row product (GEMV) and a stacked one
(GEMM) differently, but each dataset's products run on its own sub-stack,
which holds the same rows in every call whether the dataset is searched
alone or in a group; so a dataset's fit does not depend on its group. All
final points are pulled radially back into the parameter space and ranked by
the engine in one call; each dataset's winner becomes its estimate, whose
reported loglik is ``log_likelihood`` of that estimate, and a fit reporting
no more than 0 falls back to the independence parameter (loglik exactly 0).
Everything is deterministic given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bernstein import BernsteinPoly, _by_row, _check_int, _check_type, _frozen, _real_array, eval_with_derivatives
from .full_model import FullModelParam, _canonical_sign, _theta_objective, _theta_rows, sample_feasible
from .pickands import (
    _DENSITY,
    PickandsPoly,
    PiecewiseLinearPickands,
    _cap_weights,
    _density_brace,
    a_from_h,
    a_from_h_matrix,
    vee,
)
from .submodel import SubmodelParam

LOGLIK_NEG_INF = float("-inf")


def minimize(fun, x0, method, **options):
    """One local search: ``method(fun, x0, **options)``.

    The one place every local search of both MLEs passes; the fitters look
    it up at call time, so a caller may rebind ``inference.minimize``, e.g.
    to time each search.
    """
    return method(fun, x0, **options)


@dataclass(frozen=True)
class SampleSet:
    """n pairs (u, v), each strictly inside (0, 1)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _real_array("u", self.u, min_size=1, interval="(0, 1)")
        v = _real_array("v", self.v, size=u.size, size_name="len(u)", interval="(0, 1)")
        object.__setattr__(self, "u", _frozen(u.copy()))
        object.__setattr__(self, "v", _frozen(v.copy()))

    @property
    def n(self) -> int:
        return self.u.size

    @staticmethod
    def from_arrays(u, v, ranks: bool = False) -> "SampleSet":
        """Build a sample, optionally (``ranks`` a bool) replacing margins by midranks/(n+1)."""
        u, v = _real_array("u", u), _real_array("v", v)
        if _check_type("ranks", ranks, bool):
            n = u.size
            u = _midranks(u) / (n + 1)
            v = _midranks(v) / (n + 1)
        return SampleSet(u, v)


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x with ties given their mean rank (NaN stays NaN).

    A tie group ending at rank e with c members has mean rank e - (c-1)/2,
    a half-integer computed exactly.
    """
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return np.where(np.isnan(x), np.nan, (ends - (counts - 1) / 2.0)[group.reshape(x.shape)])


@dataclass(frozen=True)
class OptimConfig:
    """Knobs for the multi-start search (deterministic given seed).

    ``starts`` random feasible starting points, drawn from ``seed``, all
    searched together; each start stops after at most ``maxfev`` iterations
    of the search. A non-integer field, ``starts`` or ``maxfev`` below 1,
    or a negative ``seed`` raises a ValueError naming the field.
    """

    starts: int = 20
    seed: int = 0
    maxfev: int = 100

    def __post_init__(self):
        for name, low in (("starts", 1), ("seed", 0), ("maxfev", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))


@dataclass(frozen=True)
class FitResult:
    """One estimate with its loglik and parameter (None for CFG).

    ``loglik`` is ``log_likelihood(estimate, data)``, at least 0 (NaN for CFG).
    ``starts_used`` is ``config.starts`` (0 for CFG); ``converged`` is the winning
    start's stopping flag alone (True for CFG and the independence fallback).
    A full-model start that stops at a KKT point whose caps exceed 1 by at
    most ``_FTOL`` (1e-10) counts as converged.
    """

    estimate: PickandsPoly | PiecewiseLinearPickands
    loglik: float
    param: FullModelParam | SubmodelParam | None
    starts_used: int
    converged: bool


def _pseudo_angles(data: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    # s = log(uv) < 0 and t = log(v)/s for every pair
    s = np.log(data.u) + np.log(data.v)
    t = np.log(data.v) / s
    return t, s


def _loglik_terms(values, t: np.ndarray, s: np.ndarray) -> float:
    # sum of log copula densities from values = (A, A', A'') at the
    # pseudo-angles; -inf when a density is nonpositive
    val, d1, d2 = values
    brace = _density_brace(val, d1, d2, t, s)
    if np.any(brace <= 0.0):
        return LOGLIK_NEG_INF
    return float(np.sum(s * (val - 1.0)) + np.sum(np.log(brace)))


def log_likelihood(A, data: SampleSet) -> float:
    """Sum of log copula densities of the data under A.

    A is a PickandsPoly or a GenericPickands, read through one
    ``A.kernel`` call at the data's pseudo-angles, and data a SampleSet.
    Returns -inf when the density is nonpositive at some observation. A
    PiecewiseLinearPickands (the CFG estimate, whose A'' is a measure) has
    no density and raises a ValueError naming A.
    """
    t, s = _pseudo_angles(_check_type("data", data, SampleSet))
    return _loglik_terms(_check_type("A", A, *_DENSITY).kernel(t), t, s)


_UNDEFINED_OBJ = 1e12
# a search stops once its objective (in nats) settles to this and a step or
# KKT test agrees; two searches that reach the same optimum then agree to
# ~1e-13 rather than ~1e-8
_FTOL = 1e-10


class _LogLik:
    """Log-likelihoods of A_h with gradients and Hessians in h, for a group of datasets at degree m.

    The engine knows only the spectral coefficients h; the full model's theta
    reaches it through ``full_model._theta_objective``. A is affine in h, and
    at fixed pseudo-angles (t_i, s_i) so are the brace's two factors, the
    curvature term -t(1-t)A''/s and the linear term sum_i s_i (A(t_i) - 1):
    one ((3n + 1) x (m+1)) design matrix per dataset, built once, maps h to
    them (the linear term last); the datasets share one size n. Every method
    takes a (rows x (m+1)) stack of points and each row's dataset tag (an
    index into the group), ascending, so a whole group's multistarts cost a
    few matrix products and elementwise passes over (rows x n) arrays. Each
    dataset's products run on its own rows, so its results do not depend on
    the other datasets' rows; they do depend on its own other rows, as BLAS
    rounds a one-row product (GEMV) and a stack (GEMM) differently. The
    engine ranks final points; a fit reports ``log_likelihood`` on ``group``.
    """

    def __init__(self, group: list[SampleSet], m: int):
        n, m = group[0].n, _check_int("m", m)
        if n < m + 3:
            warnings.warn(f"sample size n = {n} below m + 3 = {m + 3}; fit may be unstable",
                          UserWarning, stacklevel=3)
        self.group, self.n, self.m, p = tuple(group), n, m, m + 1
        t, s = (np.array(x) for x in zip(*map(_pseudo_angles, group)))
        # row j: the coefficients of A - 1 for the unit spectral coefficients e_j;
        # column j of val, d1, d2: A - 1, A' and A'' at every t for e_j
        unit = -(a_from_h_matrix(m) / (m + 1)).T
        val, d1, d2 = (np.ascontiguousarray(x.reshape(p, len(group), n).transpose(1, 2, 0))
                       for x in eval_with_derivatives(unit, t.ravel()))
        tc, sc = t[:, :, None], s[:, :, None]
        self.design = np.concatenate([val + (1.0 - tc) * d1, val - tc * d1,
                                      -tc * (1.0 - tc) / sc * d2, s[:, None, :] @ val], axis=1)
        self.design_t = np.ascontiguousarray(self.design.transpose(0, 2, 1))
        self._outer = None

    @staticmethod
    def _products(x, tags, tables):
        # x @ tables[d] on each dataset d's own rows
        if tags[0] == tags[-1]:  # the tags ascend, so this is one run
            return x @ tables[tags[0]]
        out = np.empty((x.shape[0], tables.shape[-1]))
        cuts = np.searchsorted(tags, np.arange(len(tables) + 1))
        for d, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            out[a:b] = x[a:b] @ tables[d]
        return out

    def _factors(self, h, tags):
        # the brace's factors, the brace and the linear term of every row
        n = self.n
        z = self._products(h, tags, self.design_t)
        f1 = 1.0 + z[:, :n]
        f2 = 1.0 + z[:, n:2 * n]
        return f1, f2, f1 * f2 + z[:, 2 * n:3 * n], z[:, 3 * n]

    def objective(self, h: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Negative loglik of every row of h and its gradient in h.

        Where a density is nonpositive (a search may try points slightly
        outside the caps) the row's value is a large finite constant and its
        gradient zero, so a line search backs off instead of failing on inf
        or NaN; the other rows are unaffected.
        """
        f1, f2, brace, lin = self._factors(h, tags)
        bad = brace.min(axis=1) <= 0.0
        if bad.any():
            brace[bad] = 1.0
        inv = 1.0 / brace
        value = -(lin + np.log(brace).sum(axis=1))
        weights = np.concatenate([f2 * inv, f1 * inv, inv, np.ones((h.shape[0], 1))], axis=1)
        grad = -self._products(weights, tags, self.design)
        if bad.any():
            value[bad] = _UNDEFINED_OBJ
            grad[bad] = 0.0
        return value, grad

    def hessian(self, h: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Hessian in h of the negative loglik at every row of h, (rows x p x p).

        With a_i, b_i, c_i the brace and curvature design rows of
        observation i and g_i = f2 a_i + f1 b_i + c_i, it is
        sum_i g_i g_i' / brace_i^2 - (a_i b_i' + b_i a_i') / brace_i: six
        weighted sums of per-observation outer products, which a table built
        once per (dataset, m) turns into one matrix product.
        """
        n, p = self.n, h.shape[1]
        if self._outer is None:
            a, b, c = self.design[:, :n], self.design[:, n:2 * n], self.design[:, 2 * n:3 * n]

            def sym(x, y):
                xy = (x[..., :, None] * y[..., None, :]).reshape(-1, n, p * p)
                yx = (y[..., :, None] * x[..., None, :]).reshape(-1, n, p * p)
                return xy if x is y else xy + yx

            self._outer = np.concatenate([sym(a, a), sym(b, b), sym(c, c),
                                          sym(a, b), sym(a, c), sym(b, c)], axis=1)
        f1, f2, brace, _ = self._factors(h, tags)
        inv = 1.0 / brace
        inv2 = inv * inv
        weights = np.concatenate([f2 * f2 * inv2, f1 * f1 * inv2, inv2,
                                  f1 * f2 * inv2 - inv, f2 * inv2, f1 * inv2], axis=1)
        return self._products(weights, tags, self._outer).reshape(-1, p, p)


# A search trusts the likelihood formula only this far beyond the caps of
# Theta_m (in the caps W h); further out A_theta is no Pickands function and
# the formula is unbounded below.
_CAP_SLACK = 0.1


def _sqp(fun, x0, *, tags, maxiter):
    """Damped-BFGS SQP over Theta_m = {theta : q_j(theta) <= 1, j = 0, 1}.

    One local search: ``fun(x, tags)`` maps a (starts x p) stack and each
    row's dataset tag to values, gradients, the two caps q (starts x 2) and
    their gradients (starts x 2 x p), ``x0`` is the stack of starts and
    ``tags`` their tags. All starts advance together, each on its own. Each
    iteration solves the QP over the two linearised caps in closed form,
    trying the active sets {}, {0}, {1} and {0, 1} with the inverse BFGS
    matrix, then backtracks on the l1 merit function f + rho . max(0, q - 1).
    The update is Powell-damped, with y the change of the Lagrangian's
    gradient, g + lambda . dq, along the step and B s = alpha (A' lambda - g)
    from the QP's own optimality conditions, so only the inverse is kept. A
    start stops at a KKT point (the QP predicts a decrease below _FTOL and no
    cap exceeds 1 by more than _FTOL), when f moves by less than _FTOL and
    the step is tiny or the predicted decrease small, when its line search
    fails from the identity matrix, or after ``maxiter`` iterations. Returns
    the final stack as ``x``, per-start ``converged`` flags, and ``fun`` the
    best final value. Only the QP multipliers' quotients are computed under
    ``np.errstate``, and the BFGS quotients only where they are used; a
    warning that ``fun`` raises at an iterate or a trial point reaches the
    caller.
    """
    X = x0.copy()
    count, p = X.shape
    F, G, Q, DQ = fun(X, tags)
    nfev = 1
    eye = np.eye(p)
    Hinv = np.tile(eye, (count, 1, 1))
    reset = np.ones(count, bool)  # Hinv is the identity
    rho = np.zeros((count, 2))
    nit = np.zeros(count, int)
    active = np.ones(count, bool)
    ok = np.zeros(count, bool)
    while active.any():
        act = active.nonzero()[0]
        x, f, g, q, dq, Hi, rows = X[act], F[act], G[act], Q[act], DQ[act], Hinv[act], tags[act]
        c = 1.0 - q
        # columns g, a_0, a_1 (a_j = -dq_j, the gradient of c_j) through Hinv
        GA = np.concatenate([g[:, None, :], -dq], axis=1)
        HGA = Hi @ GA.transpose(0, 2, 1)
        N = GA @ HGA
        e0, e1 = N[:, 1, 0] - c[:, 0], N[:, 2, 0] - c[:, 1]
        m00, m01, m11 = N[:, 1, 1], N[:, 1, 2], N[:, 2, 2]
        # multipliers of the active sets {}, {0}, {1}, {0, 1}: the first
        # whose step keeps both linearised caps and whose multipliers are >= 0.
        # Parallel cap gradients (at m = 1, once P or Q is 0) make det 0, so
        # these quotients are formed silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            l0, l1 = e0 / m00, e1 / m11
            det = m00 * m11 - m01 * m01
            free = (e0 <= 0.0) & (e1 <= 0.0)
            only0 = ~free & (l0 >= 0.0) & (l0 * m01 >= e1)
            only1 = ~free & ~only0 & (l1 >= 0.0) & (l1 * m01 >= e0)
            both0 = np.fmax((m11 * e0 - m01 * e1) / det, 0.0)
            both1 = np.fmax((m00 * e1 - m01 * e0) / det, 0.0)
        lam = np.empty((act.size, 3))
        lam[:, 0] = -1.0
        lam[:, 1] = np.where(only0, l0, np.where(free | only1, 0.0, both0))
        lam[:, 2] = np.where(only1, l1, np.where(free | only0, 0.0, both1))
        d = (HGA @ lam[:, :, None])[:, :, 0]
        gd = (N[:, 0, :] * lam).sum(axis=1)
        lam = lam[:, 1:]
        rh = np.maximum(lam, 0.5 * (rho[act] + lam))
        rho[act] = rh
        penalty = (rh * np.maximum(-c, 0.0)).sum(axis=1)
        phi = f + penalty
        slope = gd - penalty
        pred = np.abs(gd) + np.abs(lam * c).sum(axis=1)
        kkt = (pred < _FTOL) & (q.max(axis=1) <= 1.0 + _FTOL)
        # backtracking by safeguarded quadratic interpolation
        alpha = np.ones(act.size)
        trying = ~kkt
        xn, fn, gn, qn, dqn = x.copy(), f.copy(), g.copy(), q.copy(), dq.copy()
        for _ in range(10):
            idx = trying.nonzero()[0]
            if idx.size == 0:
                break
            a = alpha[idx]
            xt = x[idx] + a[:, None] * d[idx]
            ft, gt, qt, dqt = fun(xt, rows[idx])
            nfev += 1
            excess = (rh[idx] * np.maximum(qt - 1.0, 0.0)).sum(axis=1) + ft - phi[idx]
            good = (excess <= 0.1 * a * slope[idx]) & (qt.max(axis=1) <= 1.0 + _CAP_SLACK)
            hit = idx[good]
            xn[hit], fn[hit], gn[hit] = xt[good], ft[good], gt[good]
            qn[hit], dqn[hit] = qt[good], dqt[good]
            trying[hit] = False
            if hit.size < idx.size:
                miss, a = idx[~good], a[~good]
                guess = -slope[miss] * a * a / (2.0 * (excess[~good] - a * slope[miss]))
                alpha[miss] = np.clip(guess, 0.1 * a, 0.5 * a)
        s = xn - x
        # damped BFGS update of the inverse Hessian of the Lagrangian
        y = gn - g + (lam[:, None, :] @ (dqn - dq))[:, 0, :]
        Bs = alpha[:, None] * ((lam[:, None, :] @ GA[:, 1:, :])[:, 0, :] - g)
        sBs = (s * Bs).sum(axis=1)
        sy = (s * y).sum(axis=1)
        # each quotient is formed only where it is used: a zero step gives 0/0 and 1/0
        damp = np.divide(0.8 * sBs, sBs - sy, out=np.ones(act.size), where=sy < 0.2 * sBs)
        y = damp[:, None] * y + (1.0 - damp)[:, None] * Bs
        sy = (s * y).sum(axis=1)
        update = (sy > 0.0) & ~trying & ~kkt
        r = np.divide(1.0, sy, out=np.zeros(act.size), where=update)
        Hy = (Hi @ y[:, :, None])[:, :, 0]
        sHy = s[:, :, None] * Hy[:, None, :]
        ss = s[:, :, None] * s[:, None, :]
        Hi += ((r + r * r * (y * Hy).sum(axis=1))[:, None, None] * ss
               - r[:, None, None] * (sHy + sHy.transpose(0, 2, 1)))
        # a failed line search restarts from the identity; failing there ends the start
        stuck = trying & reset[act]
        if trying.any():
            Hi[trying] = eye
        reset[act] = trying | (reset[act] & ~update)
        settled = ((np.abs(fn - f) < _FTOL) & ~trying & (qn.max(axis=1) <= 1.0 + _FTOL)
                   & (((s * s).sum(axis=1) < 1e-16) | (pred < 1e-6)))
        X[act], F[act], G[act], Q[act], DQ[act], Hinv[act] = xn, fn, gn, qn, dqn, Hi
        nit[act] += 1
        ok[act] = kkt | settled
        active[act] = ~(ok[act] | stuck) & (nit[act] < maxiter)
    return SimpleNamespace(x=X, fun=float(F.min()), nfev=nfev, success=bool(ok.all()), converged=ok)


# Interior point: barrier parameters run mu <- max(_MU_MIN, min(0.2 mu, mu^1.5))
# from 0.1 (the IPOPT monotone rule); a subproblem is solved once its barrier
# KKT error is below _KAPPA mu. At _MU_MIN the last subproblem's duality gap,
# (m + 3) mu, is near _FTOL, while the slacks of active bounds, about mu / z,
# stay far above the rounding error of 1 - W c.
_MU_MIN = 1e-12
_KAPPA = 10.0


def _interior_point(loglik: _LogLik, starts: np.ndarray, tags: np.ndarray, W: np.ndarray,
                    maxiter: int):
    """Primal-dual interior point over the polytope {c >= 0, W c <= 1}, all starts at once.

    A sequence of barrier subproblems min f - mu sum log(slacks) at falling
    mu (Fiacco-McCormick; Nocedal & Wright 2006, ch. 19), each solved by one
    ``minimize`` call to ``_barrier_stage`` warm-started from the previous
    stage's primal and dual points; ``tags`` are the starts' dataset tags.
    ``maxiter`` caps each start's Newton iterations over all stages. Returns
    every start's final point and whether it met the last subproblem's
    stopping test.
    """
    C = starts
    duals = (1.0 / C, 1.0 / (1.0 - _by_row(C, W.T)))  # on the central path of mu = 1
    spent = np.zeros(C.shape[0], int)
    mu = 0.1
    while True:
        res = minimize(loglik.objective, C, method=_barrier_stage, tags=tags,
                       hess=loglik.hessian, constraints=W, mu=mu, duals=duals, spent=spent,
                       maxiter=maxiter)
        C, duals, spent = res.x, res.duals, res.spent
        if mu == _MU_MIN or np.all(spent >= maxiter):
            return C, res.converged & (mu == _MU_MIN)
        mu = max(_MU_MIN, min(0.2 * mu, mu ** 1.5))


def _barrier_stage(fun, x0, *, tags, hess, constraints, mu, duals, spent, maxiter):
    """Primal-dual Newton iterations on one barrier subproblem, every start at once.

    One local search: ``fun(x, tags)`` maps a (starts x p) stack and each
    row's dataset tag to values and gradients, ``hess(x, tags)`` to the
    exact Hessians, ``x0`` is the stack of strictly interior points,
    ``tags`` their tags, ``constraints`` the (2 x p) cap weights W,
    ``duals`` the multipliers of c >= 0 and of the caps, and ``spent`` the
    iterations each start has used. The Newton matrix
    H + diag(z/c) + W' diag(z_w/s_w) W is shifted by its least eigenvalue
    where that is not positive (the likelihood is not concave in h) and
    solved by LU, which stays accurate as slacks shrink; each step keeps 1%
    of the distance to every bound (fraction to the boundary) and backtracks
    on the barrier function. A start leaves the stage once its barrier KKT
    error is below _KAPPA mu; in the last stage (mu = _MU_MIN) once the
    duality gap and the change of f are below _FTOL and the dual residual
    or the step is small. Returns the points, ``duals``, ``spent`` and
    per-start ``converged`` flags. No arithmetic is silenced: the step to a
    bound is divided only along decreasing entries, and a warning that
    ``fun`` or ``hess`` raises reaches the caller.
    """
    W = constraints
    p = W.shape[1]

    def reach(v, dv):
        # the step along dv that takes some entry of each (positive) row of v to 0
        return np.divide(-v, dv, out=np.full(v.shape, np.inf), where=dv < 0.0).min(axis=1)

    C = x0.copy()
    Zc, Zw = duals[0].copy(), duals[1].copy()
    spent = spent.copy()
    F, G = fun(C, tags)
    nfev = 1
    eye = np.eye(p)
    last = mu == _MU_MIN
    ok = np.zeros(C.shape[0], bool)
    active = spent < maxiter
    while active.any():
        act = active.nonzero()[0]
        c, f, g, zc, zw, rows = C[act], F[act], G[act], Zc[act], Zw[act], tags[act]
        s = 1.0 - _by_row(c, W.T)
        if not last:
            dual = (np.abs(g - zc + _by_row(zw, W)).max(axis=1)
                    / np.maximum(1.0, np.abs(g).max(axis=1)))
            comp = np.maximum(np.abs(c * zc - mu).max(axis=1), np.abs(s * zw - mu).max(axis=1))
            done = np.maximum(dual, comp) <= _KAPPA * mu
            ok[act[done]] = True
            active[act[done]] = False
            if done.all():
                break
            keep = ~done
            act, c, f, g, zc, zw, s, rows = (v[keep] for v in (act, c, f, g, zc, zw, s, rows))
        H = hess(c, rows)
        K = H + (zc / c)[:, :, None] * eye + (W.T * (zw / s)[:, None, :]) @ W
        rhs = mu / c - _by_row(mu / s, W) - g
        least = np.linalg.eigvalsh(K)[:, 0]
        shift = np.where(least > 0.0, 0.0, 1e-8 * np.abs(H).max(axis=(1, 2)) - least)
        dc = np.linalg.solve(K + shift[:, None, None] * eye, rhs[:, :, None])[:, :, 0]
        ds = -_by_row(dc, W.T)
        dzc = mu / c - zc - zc / c * dc
        dzw = mu / s - zw - zw / s * ds
        tau = max(0.99, 1.0 - mu)
        alpha = np.minimum(1.0, tau * np.minimum(reach(c, dc), reach(s, ds)))
        alpha_d = np.minimum(1.0, tau * np.minimum(reach(zc, dzc), reach(zw, dzw)))
        phi = f - mu * (np.log(c).sum(axis=1) + np.log(s).sum(axis=1))
        slope = -(rhs * dc).sum(axis=1)
        trying = np.ones(act.size, bool)
        cn, fn, gn = c.copy(), f.copy(), g.copy()
        for _ in range(20):
            idx = trying.nonzero()[0]
            if idx.size == 0:
                break
            ct = c[idx] + alpha[idx, None] * dc[idx]
            st = 1.0 - _by_row(ct, W.T)
            ft, gt = fun(ct, rows[idx])
            nfev += 1
            phit = ft - mu * (np.log(ct).sum(axis=1) + np.log(st).sum(axis=1))
            # sufficient decrease, up to the rounding noise of phi
            bound = phi[idx] + 1e-4 * alpha[idx] * slope[idx] + 1e-14 * np.abs(phi[idx])
            good = (phit <= bound) & (ct.min(axis=1) > 0.0) & (st.min(axis=1) > 0.0)
            hit = idx[good]
            cn[hit], fn[hit], gn[hit] = ct[good], ft[good], gt[good]
            trying[hit] = False
            alpha[idx[~good]] *= 0.5
        zc = zc + alpha_d[:, None] * dzc
        zw = zw + alpha_d[:, None] * dzw
        C[act], F[act], G[act], Zc[act], Zw[act] = cn, fn, gn, zc, zw
        spent[act] += 1
        stop = trying.copy()  # no acceptable step: the stage ends for this start
        if last:
            sn = 1.0 - _by_row(cn, W.T)
            gap = (cn * zc).sum(axis=1) + (sn * zw).sum(axis=1)
            dual = np.abs(gn - zc + _by_row(zw, W)).max(axis=1)
            settled = ((gap < _FTOL) & (np.abs(fn - f) < _FTOL)
                       & ((dual < 1e-6 * np.maximum(1.0, np.abs(gn).max(axis=1)))
                          | (np.abs(cn - c).max(axis=1) < 1e-6)))
            ok[act] = settled
            stop |= settled
        active[act] = ~stop & (spent[act] < maxiter)
    return SimpleNamespace(x=C, fun=float(F.min()), nfev=nfev, success=bool(ok.all()),
                           converged=ok, duals=(Zc, Zw), spent=spent)


def _multistart(loglik: _LogLik, points: np.ndarray, converged: np.ndarray, tags: np.ndarray,
                project) -> list[tuple]:
    """Each dataset's best projected final search point, ranked on the engine.

    The ranking step of ``_mles``, the one driver of both MLEs.
    ``project(X)`` pulls a stack of final points back inside the parameter
    space and returns the projected stack and its spectral coefficients h,
    one row per point. The finite rows are scored in one
    ``loglik.objective`` call, and each dataset's winner is the row of
    highest engine loglik among its own; ties keep the earlier row. A
    dataset with no finite row, or none whose loglik is above 0, gets the
    independence point (zeros). Returns (projected point, its h row,
    converged) per dataset.
    """
    finite = np.all(np.isfinite(points), axis=1)
    x, h = project(points[finite])
    rows, ok = tags[finite], converged[finite]
    lls = -loglik.objective(h, rows)[0] if rows.size else np.empty(0)
    zero = np.zeros(loglik.m + 1)
    out = []
    for d in range(len(loglik.group)):
        mine = np.flatnonzero((rows == d) & (lls > 0.0))
        i = mine[np.argmax(lls[mine])] if mine.size else None
        out.append((zero, zero, True) if i is None else (x[i], h[i], bool(ok[i])))
    return out


def _mles(loglik: _LogLik, config: OptimConfig, seeds, full: bool) -> list[FitResult]:
    """``fit_full`` (``full``) or ``fit_sub`` on each dataset of the group, in one search.

    Dataset i draws its ``config.starts`` starts from seeds[i]. The model
    sets only the starts and their spawn key, the search and the parameter
    type: Theta_0 = [0, 2] is the degree-0 polytope, so at m = 0 the full
    model too runs the interior point, whose radial projection is then the
    clip to [0, 2]. Each estimate is built from the h row ``_multistart``
    ranks first and reports ``log_likelihood(estimate, data)``; one not
    above 0 gives way to the independence point (zeros, loglik exactly 0).
    """
    m = loglik.m
    W = _cap_weights(m) / (m + 1)  # int (1-w) h = W[0] . c, int w h = W[1] . c
    spawn = 0 if full else 1
    rngs = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(spawn,)))
            for seed in seeds)
    starts = np.vstack([sample_feasible(m, rng, config.starts) if full
                        else _polytope_starts(m, rng, config.starts, W) for rng in rngs])
    tags = np.repeat(np.arange(len(seeds)), config.starts)
    if full and m > 0:
        res = minimize(_theta_objective(loglik.objective, W), starts, method=_sqp, tags=tags,
                       maxiter=config.maxfev)
        points, converged = res.x, res.converged

        def project(theta: np.ndarray):
            theta = _canonical_sign(theta / np.sqrt(_cap_scale(W, _theta_rows(theta)[0]))[:, None], m)
            return theta, _theta_rows(theta)[0]
    else:
        points, converged = _interior_point(loglik, starts, tags, W, config.maxfev)

        def project(c: np.ndarray):
            c = np.maximum(c, 0.0)
            c = c / _cap_scale(W, c)[:, None]
            return c, c

    fits = []
    for data, (x, h, ok) in zip(loglik.group, _multistart(loglik, points, converged, tags, project)):
        estimate = PickandsPoly(a_from_h(BernsteinPoly(h)))
        ll = log_likelihood(estimate, data)
        if not ll > 0.0:
            x = np.zeros(m + 1)
            estimate, ll, ok = PickandsPoly(a_from_h(BernsteinPoly(x))), 0.0, True
        param = FullModelParam(m, x) if full else SubmodelParam(m, x)
        fits.append(FitResult(estimate, ll, param, config.starts, ok))
    return fits


def _cap_scale(W: np.ndarray, h: np.ndarray) -> np.ndarray:
    # each row's larger cap W h, at least 1; each row's product alone
    return np.fmax(1.0, _by_row(h, W.T).max(axis=1))


def fit_full(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over Theta_m (polynomial Pickands functions of degree m + 2), m an integer >= 0."""
    config = _check_type("config", config, OptimConfig)
    return _mles(_LogLik([_check_type("data", data, SampleSet)], m), config, [config.seed], True)[0]


def fit_sub(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over the polytope C_m^+ (the Bernstein submodel), m an integer >= 0."""
    config = _check_type("config", config, OptimConfig)
    return _mles(_LogLik([_check_type("data", data, SampleSet)], m), config, [config.seed], False)[0]


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
    input when the input is already convex. The knots must increase strictly.
    """
    v = _real_array("values", values, min_size=2, finite=True)
    x = np.linspace(0.0, 1.0, v.size) if knots is None else _real_array(
        "knots", knots, size=v.size, size_name="len(values)", finite=True)
    if np.any(np.diff(x) <= 0.0):
        raise ValueError(f"knots must increase strictly, got {np.array2string(x, threshold=10)}")
    hx: list[float] = []
    hy: list[float] = []
    # Python floats: the same IEEE arithmetic as numpy scalars, at half the cost
    for xi, yi in zip(x.tolist(), v.tolist()):
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
    conditions on the grid. A ``grid`` that is not an integer >= 2 raises a
    ValueError naming it.

    The means take O((n + grid) log n): in logs, pair i takes its v branch
    log(-log v_i) - log t exactly where log t - log(1-t) exceeds
    d_i = log(-log v_i) - log(-log u_i), so one sort of the d_i, prefix
    sums of both branches and one ``searchsorted`` of the grid give every
    mean, with no n-by-grid array. The sums run in extended precision
    (np.longdouble), so each mean is rounded about once.
    """
    grid = _check_int("grid", grid, 2)
    if _check_type("data", data, SampleSet).n < 2:
        raise ValueError("CFG estimator needs n >= 2")
    if np.ptp(data.u) == 0.0 and np.ptp(data.v) == 0.0:
        raise ValueError("degenerate sample: all pairs identical")
    n = data.n
    tgrid = np.linspace(0.0, 1.0, grid)
    log_lu = np.log(-np.log(data.u))
    log_lv = np.log(-np.log(data.v))
    d = log_lv - log_lu
    order = np.argsort(d, kind="stable")
    # the first k pairs in that order take the v branch: v_sum[k] sums their
    # log(-log v), u_sum[k] the other pairs' log(-log u)
    zero = np.zeros(1, np.longdouble)
    v_sum = np.concatenate([zero, np.cumsum(log_lv[order], dtype=np.longdouble)])
    u_sum = np.concatenate([np.cumsum(log_lu[order][::-1], dtype=np.longdouble)[::-1], zero])
    with np.errstate(divide="ignore"):
        log_1mt = np.log1p(-tgrid)
        log_t = np.log(tgrid)
    k = np.searchsorted(d[order], log_t - log_1mt)
    # at t = 0 (t = 1) the v (u) branch has no members; masked, as 0 * inf is NaN
    with np.errstate(invalid="ignore"):
        v_part = np.where(k > 0, v_sum[k] - k * log_t.astype(np.longdouble), 0.0)
        u_part = np.where(k < n, u_sum[k] - (n - k) * log_1mt.astype(np.longdouble), 0.0)
    log_a = -np.euler_gamma - ((v_part + u_part) / n).astype(float)
    log_a = log_a - (1.0 - tgrid) * log_a[0] - tgrid * log_a[-1]
    clamped = np.minimum(1.0, np.maximum(np.exp(log_a), vee(tgrid)))
    gcm = greatest_convex_minorant(clamped, tgrid)
    estimate = PiecewiseLinearPickands(tgrid, gcm)
    return FitResult(estimate, float("nan"), None, 0, True)

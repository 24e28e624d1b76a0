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
gradient and Hessian, evaluated through a design matrix built once per
(data, m) for a whole stack of points at a time. The problems are
nonconcave, so each fitter searches from many feasible random starts and
keeps the best; all starts advance together in one batched local search: a
damped-BFGS SQP over Theta_m whose QP over the two linearised caps is solved
in closed form, and a primal-dual interior point with the exact Hessian over
the polytope, each local search one call of ``minimize``. One driver,
``_mles``, serves both MLEs: only the starts, the search and the parameter
type depend on the model, and at m = 0, where Theta_0 = [0, 2] is the
degree-0 polytope, both run the interior point. One search can carry the
starts of a whole group of datasets (``fit_full`` and ``fit_sub`` are a
group of one, ``run_study`` fits groups of 8). A start's values are not
what it gets alone, as BLAS rounds a one-row product (GEMV) and a stacked
one (GEMM) differently, but each dataset's products run on its own
sub-stack, which holds the same rows in every call whether the dataset is
searched alone or in a group; so a dataset's fit does not depend on its
group. All final points are pulled radially back into the parameter space
and scored as one stack, and each estimate is built from its winner's
scored h row; the independence parameter (loglik exactly 0) is always a
fallback candidate. Everything is deterministic given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bernstein import BernsteinPoly, _check_int, _check_type, _frozen, _real_array, eval_with_derivatives
from .full_model import (
    FullModelParam,
    coefficient_tensor,
    form_matrices,
    sample_feasible,
)
from .pickands import (
    _DENSITY,
    PickandsPoly,
    PiecewiseLinearPickands,
    _a_coeffs,
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


def _loglik_terms(values, t: np.ndarray, s: np.ndarray):
    # sum of log copula densities from values = (A, A', A'') at the
    # pseudo-angles; -inf when a density is nonpositive. A float for one
    # (A, A', A'') triple, one loglik per row for stacks of them.
    val, d1, d2 = values
    brace = _density_brace(val, d1, d2, t, s)
    bad = np.any(brace <= 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.sum(s * (val - 1.0), axis=-1) + np.sum(np.log(brace), axis=-1)
    ll = np.where(bad, LOGLIK_NEG_INF, ll)
    return float(ll) if ll.ndim == 0 else ll


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

    A is an affine image of the spectral coefficients h, so at fixed
    pseudo-angles the two factors of the density brace and A'' are affine in
    h as well. One stacked (3n x (m+1)) design matrix per dataset, built
    once, maps h to them; the datasets share one size n. Every method takes
    a (rows x (m+1)) stack of points and each row's dataset tag (an index
    into the group), ascending, so the multistarts of a whole
    group are evaluated by a few matrix products and elementwise passes over
    (rows x n) arrays. Each dataset's products run on its own rows, so a
    dataset's results do not depend on the other datasets' rows. A row's
    results do depend on the other rows of its dataset: BLAS runs a one-row
    product as GEMV and a stack as GEMM, which round differently.
    """

    def __init__(self, group: list[SampleSet], m: int):
        n, m = group[0].n, _check_int("m", m)
        if n < m + 3:
            warnings.warn(f"sample size n = {n} below m + 3 = {m + 3}; fit may be unstable",
                          UserWarning, stacklevel=3)
        self.n, self.m, p = n, m, m + 1
        self.t, self.s = (np.array(x) for x in zip(*map(_pseudo_angles, group)))
        # row j: the coefficients of A - 1 for the unit spectral coefficients e_j;
        # column j of val, d1, d2: A - 1, A' and A'' at every t for e_j
        unit = -(a_from_h_matrix(m) / (m + 1)).T
        val, d1, d2 = (np.ascontiguousarray(x.reshape(p, len(group), n).transpose(1, 2, 0))
                       for x in eval_with_derivatives(unit, self.t.ravel()))
        t = self.t[:, :, None]
        self.design = np.concatenate([val + (1.0 - t) * d1, val - t * d1, d2], axis=1)
        self.design_t = np.ascontiguousarray(self.design.transpose(0, 2, 1))
        self.curv = -self.t * (1.0 - self.t) / self.s
        self.lin = np.array([s @ v for s, v in zip(self.s, val)])[:, :, None]
        # T[k] flattened into columns k*p + i, so theta @ T holds every T[k] theta
        T = coefficient_tensor(m).reshape(p * p, p).T if m >= 1 else None
        self.T = None if T is None else np.broadcast_to(T, (len(group),) + T.shape)
        self._outer = None

    @staticmethod
    def _segments(tags):
        # (dataset, rows) for each run of one tag
        if tags[0] == tags[-1]:  # the tags ascend, so this is one run
            return [(int(tags[0]), slice(None))]
        cuts = [0, *(np.flatnonzero(tags[1:] != tags[:-1]) + 1).tolist(), tags.size]
        return [(int(tags[a]), slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]

    @staticmethod
    def _per_row(arr, tags):
        # each row's entry of a per-dataset array (one shared entry for one dataset)
        return arr[0] if len(arr) == 1 else arr[tags]

    @staticmethod
    def _products(x, segments, tables):
        # x @ tables[d] on each dataset d's own rows
        if len(segments) == 1:
            return x @ tables[segments[0][0]]
        out = np.empty((x.shape[0], tables.shape[-1]))
        for d, rows in segments:
            out[rows] = x[rows] @ tables[d]
        return out

    def _factors(self, h, tags, segments):
        n = self.n
        z = self._products(h, segments, self.design_t)
        curv = self._per_row(self.curv, tags)
        f1 = 1.0 + z[:, :n]
        f2 = 1.0 + z[:, n:2 * n]
        return f1, f2, f1 * f2 + curv * z[:, 2 * n:], curv

    def objective(self, h: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Negative loglik of every row of h and its gradient in h.

        Where a density is nonpositive (a search may try points slightly
        outside the caps) the row's value is a large finite constant and its
        gradient zero, so a line search backs off instead of failing on inf
        or NaN; the other rows are unaffected.
        """
        return self._objective(h, tags, self._segments(tags))

    def _objective(self, h, tags, segments):
        f1, f2, brace, curv = self._factors(h, tags, segments)
        bad = brace.min(axis=1) <= 0.0
        if bad.any():
            brace[bad] = 1.0
        inv = 1.0 / brace
        value = -(self._products(h, segments, self.lin)[:, 0] + np.log(brace).sum(axis=1))
        weights = np.concatenate([f2 * inv, f1 * inv, curv * inv], axis=1)
        grad = -(self._per_row(self.lin, tags)[..., 0]
                 + self._products(weights, segments, self.design))
        if bad.any():
            value[bad] = _UNDEFINED_OBJ
            grad[bad] = 0.0
        return value, grad

    def hessian(self, h: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Hessian in h of the negative loglik at every row of h, (rows x p x p).

        With a_i, b_i, c_i the three design rows of observation i and
        g_i = f2 a_i + f1 b_i + curv c_i, it is
        sum_i g_i g_i' / brace_i^2 - (a_i b_i' + b_i a_i') / brace_i: six
        weighted sums of per-observation outer products, which a table built
        once per (dataset, m) turns into one matrix product.
        """
        n, p = self.n, h.shape[1]
        if self._outer is None:
            a, b, c = self.design[:, :n], self.design[:, n:2 * n], self.design[:, 2 * n:]

            def sym(x, y):
                xy = (x[..., :, None] * y[..., None, :]).reshape(-1, n, p * p)
                yx = (y[..., :, None] * x[..., None, :]).reshape(-1, n, p * p)
                return xy if x is y else xy + yx

            self._outer = np.concatenate([sym(a, a), sym(b, b), sym(c, c),
                                          sym(a, b), sym(a, c), sym(b, c)], axis=1)
        segments = self._segments(tags)
        f1, f2, brace, curv = self._factors(h, tags, segments)
        inv = 1.0 / brace
        inv2 = inv * inv
        cw = curv * inv2
        weights = np.concatenate([f2 * f2 * inv2, f1 * f1 * inv2, curv * cw,
                                  f1 * f2 * inv2 - inv, f2 * cw, f1 * cw], axis=1)
        return self._products(weights, segments, self._outer).reshape(-1, p, p)

    def theta_objective(self, theta: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The objective through h_k = theta' T[k] theta (m >= 1), row by row.

        dh_k/dtheta = 2 T[k] theta, so the gradient is 2 (sum_k g_k T[k]) theta.
        """
        p = theta.shape[1]
        segments = self._segments(tags)
        Tth = self._products(theta, segments, self.T).reshape(-1, p, p)
        f, g = self._objective((Tth @ theta[:, :, None])[:, :, 0], tags, segments)
        return f, 2.0 * (g[:, None, :] @ Tth)[:, 0, :]


def _by_row(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    # x @ M one row at a time: BLAS runs a one-row product as GEMV and a
    # stack as GEMM, which round differently, so a stacked product would make
    # a row's value depend on how many rows share the stack
    return (x[:, None, :] @ M)[:, 0, :]


# A search trusts the likelihood formula only this far beyond the caps of
# Theta_m (in q = theta' Q theta); further out A_theta is no Pickands function
# and the formula is unbounded below.
_CAP_SLACK = 0.1


def _sqp(fun, x0, *, tags, constraints, maxiter):
    """Damped-BFGS SQP over Theta_m = {theta : theta' Q_j theta <= 1, j = 0, 1}.

    One local search: ``fun(x, tags)`` maps a (starts x p) stack and each
    row's dataset tag to values and gradients, ``x0`` is the stack of
    starts, ``tags`` their tags and ``constraints`` the stacked forms
    (Q0, Q1). All starts advance together, each on its own. Each iteration
    solves the QP over the two linearised caps in closed form, trying the
    active sets
    {}, {0}, {1} and {0, 1} with the inverse BFGS matrix, then backtracks
    on the l1 merit function f + rho . max(0, q - 1). The update is
    Powell-damped, using B s = alpha (A' lambda - g) from the QP's own
    optimality conditions, so only the inverse is kept. A start stops at a
    KKT point (the QP predicts a decrease below _FTOL), when f moves by
    less than _FTOL and the step is tiny or the predicted decrease small,
    when its line search fails from the identity matrix, or after
    ``maxiter`` iterations. Returns the final stack as ``x``, per-start
    ``converged`` flags, and ``fun`` the best final value.
    """
    Q = constraints
    p = Q.shape[-1]
    Qcat = np.concatenate([Q[0], Q[1]], axis=1)

    def caps(x):
        # (x' Q_j)_j and the forms x' Q_j x, for every row
        QX = _by_row(x, Qcat).reshape(-1, 2, p)
        return QX, (QX @ x[:, :, None])[:, :, 0]

    X = x0.copy()
    count = X.shape[0]
    F, G = fun(X, tags)
    nfev = 1
    eye = np.eye(p)
    Hinv = np.tile(eye, (count, 1, 1))
    reset = np.ones(count, bool)  # Hinv is the identity
    rho = np.zeros((count, 2))
    nit = np.zeros(count, int)
    active = np.ones(count, bool)
    ok = np.zeros(count, bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.any():
            act = active.nonzero()[0]
            x, f, g, Hi, rows = X[act], F[act], G[act], Hinv[act], tags[act]
            QX, q = caps(x)
            c = 1.0 - q
            # columns g, a_0, a_1 (a_j = -2 Q_j x, the gradient of c_j) through Hinv
            GA = np.concatenate([g[:, None, :], -2.0 * QX], axis=1)
            HGA = Hi @ GA.transpose(0, 2, 1)
            N = GA @ HGA
            e0, e1 = N[:, 1, 0] - c[:, 0], N[:, 2, 0] - c[:, 1]
            m00, m01, m11 = N[:, 1, 1], N[:, 1, 2], N[:, 2, 2]
            # multipliers of the active sets {}, {0}, {1}, {0, 1}: the first
            # whose step keeps both linearised caps and whose multipliers are >= 0
            l0, l1 = e0 / m00, e1 / m11
            det = m00 * m11 - m01 * m01
            free = (e0 <= 0.0) & (e1 <= 0.0)
            only0 = ~free & (l0 >= 0.0) & (l0 * m01 >= e1)
            only1 = ~free & ~only0 & (l1 >= 0.0) & (l1 * m01 >= e0)
            lam = np.empty((act.size, 3))
            lam[:, 0] = -1.0
            both0 = np.fmax((m11 * e0 - m01 * e1) / det, 0.0)
            both1 = np.fmax((m00 * e1 - m01 * e0) / det, 0.0)
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
            kkt = (pred < _FTOL) & (penalty == 0.0)
            # backtracking by safeguarded quadratic interpolation
            alpha = np.ones(act.size)
            trying = ~kkt
            xn, fn, gn, qn = x.copy(), f.copy(), g.copy(), q.copy()
            for _ in range(10):
                idx = trying.nonzero()[0]
                if idx.size == 0:
                    break
                a = alpha[idx]
                xt = x[idx] + a[:, None] * d[idx]
                qt = caps(xt)[1]
                ft, gt = fun(xt, rows[idx])
                nfev += 1
                excess = (rh[idx] * np.maximum(qt - 1.0, 0.0)).sum(axis=1) + ft - phi[idx]
                good = (excess <= 0.1 * a * slope[idx]) & (qt.max(axis=1) <= 1.0 + _CAP_SLACK)
                hit = idx[good]
                xn[hit], fn[hit], gn[hit], qn[hit] = xt[good], ft[good], gt[good], qt[good]
                trying[hit] = False
                if hit.size < idx.size:
                    miss, a = idx[~good], a[~good]
                    guess = -slope[miss] * a * a / (2.0 * (excess[~good] - a * slope[miss]))
                    alpha[miss] = np.clip(guess, 0.1 * a, 0.5 * a)
            s = xn - x
            # damped BFGS update of the inverse Hessian of the Lagrangian
            y = gn - g + 2.0 * (lam[:, None, :] @ caps(s)[0])[:, 0, :]
            Bs = alpha[:, None] * ((lam[:, None, :] @ GA[:, 1:, :])[:, 0, :] - g)
            sBs = (s * Bs).sum(axis=1)
            sy = (s * y).sum(axis=1)
            damp = np.where(sy < 0.2 * sBs, 0.8 * sBs / (sBs - sy), 1.0)
            y = damp[:, None] * y + (1.0 - damp)[:, None] * Bs
            sy = (s * y).sum(axis=1)
            update = (sy > 0.0) & ~trying & ~kkt
            r = np.where(update, 1.0 / sy, 0.0)
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
            X[act], F[act], G[act], Hinv[act] = xn, fn, gn, Hi
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
    per-start ``converged`` flags.
    """
    W = constraints
    p = W.shape[1]

    def reach(v, dv):
        # the step along dv that takes some entry of each (positive) row of v to 0
        return np.where(dv < 0.0, -v / dv, np.inf).min(axis=1)

    C = x0.copy()
    Zc, Zw = duals[0].copy(), duals[1].copy()
    spent = spent.copy()
    F, G = fun(C, tags)
    nfev = 1
    eye = np.eye(p)
    last = mu == _MU_MIN
    ok = np.zeros(C.shape[0], bool)
    active = spent < maxiter
    with np.errstate(divide="ignore", invalid="ignore"):
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
    """Each dataset's best projected final search point, by its loglik.

    The scoring step of ``_mles``, the one driver of both MLEs.
    ``project(X)`` pulls a stack of final points back inside the parameter
    space and returns the projected stack and its spectral coefficients h,
    one row per point. Every row is scored in one pass by the de Casteljau
    log-likelihood of a_from_h(h) at its own dataset's pseudo-angles, row
    by row the arithmetic of ``log_likelihood``, so the reported value is
    exactly that of the estimate ``_mles`` builds from the winner's h row.
    The independence point (zeros, loglik exactly 0) is the baseline, so
    the winner never falls below it; ties keep the earlier point. Returns
    (projected point, its h row, loglik, converged) per dataset.
    """
    finite = np.all(np.isfinite(points), axis=1)
    x, h = project(points[finite])
    rows, ok = tags[finite], converged[finite]
    t, s = loglik.t[rows], loglik.s[rows]
    lls = _loglik_terms(eval_with_derivatives(_a_coeffs(h), t), t, s)
    score = np.where(lls > 0.0, lls, -np.inf)
    zero = np.zeros(loglik.m + 1)
    out = []
    for d in range(len(loglik.t)):
        mine = np.flatnonzero(rows == d)
        i = mine[np.argmax(score[mine])] if mine.size else None
        if i is None or score[i] == -np.inf:
            out.append((zero, zero, 0.0, True))
        else:
            out.append((x[i], h[i], float(lls[i]), bool(ok[i])))
    return out


def _mles(loglik: _LogLik, config: OptimConfig, seeds, full: bool) -> list[FitResult]:
    """``fit_full`` (``full``) or ``fit_sub`` on each dataset of the group, in one search.

    Dataset i draws its ``config.starts`` starts from seeds[i]. The model
    sets only the starts and their spawn key, the search and the parameter
    type: Theta_0 = [0, 2] is the degree-0 polytope, so at m = 0 the full
    model too runs the interior point, whose radial projection is then the
    clip to [0, 2]. Both estimates are built from the h row ``_multistart``
    scored.
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
        Q = np.stack(form_matrices(m))
        res = minimize(loglik.theta_objective, starts, method=_sqp, tags=tags, constraints=Q,
                       maxiter=config.maxfev)
        points, converged = res.x, res.converged

        def project(theta: np.ndarray):
            # the caps theta' Q_j theta and theta_to_h, each row's products alone
            q = ((Q[None] @ theta[:, None, :, None])[..., 0] @ theta[:, :, None])[:, :, 0]
            scale = np.sqrt(np.fmax(1.0, np.fmax(q[:, 0], q[:, 1])))
            theta = _canonical_sign(theta / scale[:, None], m)
            return theta, np.einsum("kij,ri,rj->rk", coefficient_tensor(m), theta, theta)
    else:
        points, converged = _interior_point(loglik, starts, tags, W, config.maxfev)

        def project(c: np.ndarray):
            c = np.maximum(c, 0.0)
            # the caps W c, each row's product alone
            caps = (W[None] @ c[:, :, None])[:, :, 0]
            c = c / np.fmax(1.0, np.fmax(caps[:, 0], caps[:, 1]))[:, None]
            return c, c

    fits = []
    for x, h, ll, ok in _multistart(loglik, points, converged, tags, project):
        param = FullModelParam(m, x) if full else SubmodelParam(m, x)
        estimate = PickandsPoly(a_from_h(BernsteinPoly(h)))
        fits.append(FitResult(estimate, ll, param, config.starts, ok))
    return fits


def fit_full(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over Theta_m (polynomial Pickands functions of degree m + 2), m an integer >= 0."""
    config = _check_type("config", config, OptimConfig)
    return _mles(_LogLik([_check_type("data", data, SampleSet)], m), config, [config.seed], True)[0]


def fit_sub(data: SampleSet, m: int, config: OptimConfig = OptimConfig()) -> FitResult:
    """Constrained MLE over the polytope C_m^+ (the Bernstein submodel), m an integer >= 0."""
    config = _check_type("config", config, OptimConfig)
    return _mles(_LogLik([_check_type("data", data, SampleSet)], m), config, [config.seed], False)[0]


def _canonical_sign(theta: np.ndarray, m: int) -> np.ndarray:
    # (P, Q) and their sign flips give the same h; report the representative
    # whose first nonzero entry per block is positive, for every row (m >= 1)
    theta = theta.copy()
    split = m // 2 + 1
    for block in (slice(0, split), slice(split, m + 1)):
        seg = theta[:, block]
        first = seg[np.arange(seg.shape[0]), np.argmax(seg != 0.0, axis=1)]
        seg[first < 0.0] *= -1.0
    return theta


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

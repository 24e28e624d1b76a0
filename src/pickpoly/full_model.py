"""Theta parameterization of all polynomial Pickands functions of degree m + 2.

Nonnegative polynomials on [0,1] factor as h = P^2 + t(1-t) Q^2 (even degree)
or h = t P^2 + (1-t) Q^2 (odd degree). Concatenating the Bernstein
coefficients of P and Q gives a parameter theta in R^(m+1); by the Bernstein
product rule the Bernstein coefficients of h_theta are weighted sums of
products of theta entries, so each coefficient is a positive semidefinite
quadratic form in theta. The admissible set Theta_m is the intersection of the two ellipsoids
where the endpoint-derivative functionals int (1-w) h and int w h stay <= 1.
Degree 0 is parameterized directly by the constant value of h on [0,2].

Every use of h_theta reads one product per theta row, T[k] theta: h, the
caps W h and their gradients 2 W T[k] theta all come from it, so the full
model's search reads its caps with the objective. The ellipsoid forms of
``form_matrices`` serve sampling (and the tests' independent oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import _MATRIX_CACHE, BernsteinPoly, _by_row, _check_int, _check_type, _frozen, _real_array
from .pickands import _SLACK, PickandsPoly, _cap_weights, _caps, a_from_h


class InfeasibleThetaError(ValueError):
    """theta outside Theta_m; carries the offending functionals (q0, q1)."""

    def __init__(self, q0: float, q1: float):
        self.q0 = q0
        self.q1 = q1
        super().__init__(f"theta infeasible: int (1-w) h = {q0!r}, int w h = {q1!r}")


@dataclass(frozen=True)
class FullModelParam:
    """Parameter vector theta of length m + 1.

    For m >= 1 the first floor(m/2) + 1 entries are the Bernstein
    coefficients of P, the rest those of Q. For m = 0 the single entry is the
    constant value of h itself, admissible on [0, 2]. An m that is not an
    integer >= 0 raises a ValueError naming it.
    """

    m: int
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _check_int("m", self.m))
        th = _real_array("theta", self.theta, size=self.m + 1, size_name="m + 1", finite=True)
        object.__setattr__(self, "theta", _frozen(th.copy()))

    def to_json(self) -> dict:
        return {"m": self.m, "theta": [float(x) for x in self.theta]}


def _square_tensor(d: int) -> np.ndarray:
    # product rule b_{i,d} b_{j,d} = C(d,i) C(d,j) / C(2d,i+j) b_{i+j,2d}:
    # c(k, 2d; P^2) = p^T S[k] p. Each weight is an exact ratio of integers
    # rounded once, by Python's correctly rounded int / int.
    row = [math.comb(d, i) for i in range(d + 1)]
    wide = [math.comb(2 * d, k) for k in range(2 * d + 1)]
    i, j = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="ij")
    S = np.zeros((2 * d + 1, d + 1, d + 1))
    S[i + j, i, j] = [[ri * rj / wide[a + b] for b, rj in enumerate(row)]
                      for a, ri in enumerate(row)]
    return S


def _blocks(m: int) -> tuple[slice, slice]:
    # theta's P and Q entries: the first m // 2 + 1 are P's Bernstein coefficients
    return slice(0, m // 2 + 1), slice(m // 2 + 1, m + 1)


@lru_cache(maxsize=_MATRIX_CACHE)
def coefficient_tensor(m: int) -> np.ndarray:
    """Symmetric tensor T with c(k, m; h_theta) = theta^T T[k] theta.

    Built from the Bernstein product rule for P^2 and Q^2 and the exact
    weights of multiplying a degree-n polynomial by t, 1-t or t(1-t):
    coefficient k of the product is k/(n+1), (n+1-k)/(n+1) or
    k(n+2-k)/((n+1)(n+2)) times coefficient k-1, k or k-1 of the factor.
    Entries pairing a P with a Q coefficient are zero. Needs m >= 1, which
    every caller has checked (Theta_0 holds h itself).
    """
    T = np.zeros((m + 1, m + 1, m + 1))
    k = np.arange(m + 1)[:, None, None]
    p, q = _blocks(m)
    if m % 2 == 0:
        # P^2 + t(1-t) Q^2 with deg P = m/2, deg Q^2 = m - 2
        T[:, p, p] = _square_tensor(m // 2)
        T[1:m, q, q] = (k * (m - k) / (m * (m - 1)))[1:m] * _square_tensor(m // 2 - 1)
    else:
        # t P^2 + (1-t) Q^2 with deg P^2 = deg Q^2 = m - 1
        S = _square_tensor((m - 1) // 2)
        T[1:, p, p] = (k / m)[1:] * S
        T[:m, q, q] = ((m - k) / m)[:m] * S
    return _frozen(T)


@lru_cache(maxsize=_MATRIX_CACHE)
def form_matrices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q0, Q1) with int (1-w) h_theta = theta^T Q0 theta, int w h_theta = theta^T Q1 theta."""
    T = coefficient_tensor(m)
    return tuple(_frozen(np.tensordot(w, T, axes=(0, 0)) / (m + 1)) for w in _cap_weights(m))


def _theta_rows(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (h, Tth) of every row of a (rows x (m+1)) stack, m >= 1: row k of Tth[r]
    # is T[k] theta_r and h_r = Tth[r] theta_r. Each row is its own product
    # (T[k] flattened into columns k*p + i), so a row's bits do not depend
    # on the stack.
    p = theta.shape[1]
    Tth = _by_row(theta, coefficient_tensor(p - 1).reshape(p * p, p).T).reshape(-1, p, p)
    return (Tth @ theta[:, :, None])[:, :, 0], Tth


def _theta_objective(objective, W: np.ndarray):
    """The h-objective ``objective(h, tags)`` as one in theta (m >= 1), with the caps.

    Returns ``(f, g, caps, cap_grads)`` for every row, all from the row's one
    T[k] theta product: h_k = theta' T[k] theta and dh_k/dtheta = 2 T[k] theta,
    so the gradient is 2 (sum_k g_k T[k]) theta, the caps are W h (``W`` the
    (2 x (m+1)) cap weights) and their gradients 2 W T[k] theta.
    """
    def theta_objective(theta: np.ndarray, tags: np.ndarray):
        h, Tth = _theta_rows(theta)
        f, g = objective(h, tags)
        return f, 2.0 * (g[:, None, :] @ Tth)[:, 0, :], _by_row(h, W.T), 2.0 * (W @ Tth)
    return theta_objective


def _canonical_sign(theta: np.ndarray, m: int) -> np.ndarray:
    # (P, Q) and their sign flips give the same h; report the representative
    # whose first nonzero entry per block is positive, for every row (m >= 1)
    theta = theta.copy()
    for block in _blocks(m):
        seg = theta[:, block]
        first = seg[np.arange(seg.shape[0]), np.argmax(seg != 0.0, axis=1)]
        seg[first < 0.0] *= -1.0
    return theta


def theta_to_h(param: FullModelParam) -> BernsteinPoly:
    """Spectral-density polynomial h_theta of degree m (nonnegative by construction)."""
    if _check_type("param", param, FullModelParam).m == 0:
        return BernsteinPoly(param.theta)
    return BernsteinPoly(_theta_rows(param.theta[None])[0][0])


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    q0: float
    q1: float


def feasibility(param: FullModelParam) -> Feasibility:
    """Membership of theta in Theta_m = E0 cap E1 (boundary points included).

    q0 = int (1-w) h_theta and q1 = int w h_theta must both stay <= 1. For
    m = 0 the parameter is the value of h itself, so theta >= 0 is required
    as well (Theta_0 = [0, 2]).
    """
    (q0, q1), over = _caps(theta_to_h(param).coeffs)
    ok = not over and (param.m > 0 or param.theta[0] >= -_SLACK)
    return Feasibility(bool(ok), q0, q1)


def theta_to_pickands(param: FullModelParam) -> PickandsPoly:
    """Pickands polynomial A_theta of degree m + 2 for feasible theta.

    Raises
    ------
    InfeasibleThetaError
        If theta lies outside Theta_m; the error carries (q0, q1).
    """
    feas = feasibility(param)
    if not feas.feasible:
        raise InfeasibleThetaError(feas.q0, feas.q1)
    return PickandsPoly(a_from_h(theta_to_h(param)))


@lru_cache(maxsize=_MATRIX_CACHE)
def _sampling_box(m: int) -> np.ndarray:
    # Tightest axis-aligned box containing E0 cap E1: along axis i each
    # ellipsoid alone reaches sqrt((Q^-1)_ii), and the intersection at most
    # the smaller of the two.
    Q0, Q1 = form_matrices(m)
    ext0 = np.sqrt(np.diag(np.linalg.inv(Q0)))
    ext1 = np.sqrt(np.diag(np.linalg.inv(Q1)))
    return _frozen(np.minimum(ext0, ext1))


def sample_feasible(m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` random points spread over Theta_m; rows are draws.

    Rejection sampling from the tightest box around E0 cap E1 (exactly
    uniform) while the acceptance rate supports it: up to 40 batches, but
    only one when the first batch accepts fewer than count / 40 points. In
    higher dimensions (m >= 8), where box rejection collapses, the rest come
    from the star-shaped scheme: Gaussian direction xi, scaled to the
    boundary radius 1/sqrt(max(q0(xi), q1(xi))) and pulled inside by
    U^(1/(m+1)). The fallback covers the whole body including the boundary
    region, though not with exactly uniform measure. Deterministic given
    the generator state. An m or count that is not an integer >= 0, or an
    rng that is not a numpy Generator, raises a ValueError naming it.
    """
    m, count = _check_int("m", m), _check_int("count", count)
    rng = _check_type("rng", rng, np.random.Generator)
    if m == 0:
        return rng.uniform(0.0, 2.0, size=(count, 1))
    Q0, Q1 = form_matrices(m)
    box = _sampling_box(m)
    out = []
    have = 0
    for batch in range(40):
        cand = rng.uniform(-1.0, 1.0, size=(max(8 * count, 2048), m + 1)) * box
        q0 = ((cand @ Q0) * cand).sum(axis=1)
        q1 = ((cand @ Q1) * cand).sum(axis=1)
        keep = cand[(q0 <= 1.0) & (q1 <= 1.0)]
        out.append(keep)
        have += keep.shape[0]
        if have >= count:
            return np.concatenate(out)[:count]
        if batch == 0 and 40 * have < count:
            break
    xi = rng.normal(size=(count - have, m + 1))
    q0 = np.einsum("ri,ij,rj->r", xi, Q0, xi)
    q1 = np.einsum("ri,ij,rj->r", xi, Q1, xi)
    radius = 1.0 / np.sqrt(np.maximum(q0, q1))
    radial = rng.uniform(size=count - have) ** (1.0 / (m + 1))
    out.append(xi * (radius * radial)[:, None])
    return np.concatenate(out)[:count]

"""The Bernstein-approximation submodel and its polytope parameter space.

Bernstein approximations of Pickands functions are exactly the polynomials
whose second derivative h has nonnegative Bernstein coefficients on top of
the two endpoint-derivative caps, so the parameter space of h is a polytope.
The submodel is nested across degrees via single-step degree elevation, and a
polynomial h >= 0 joins it at some degree if and only if h is constant or has
no zero inside (0,1); the smallest such degree is the Lorentz degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinPoly, _elevate_once, global_minimum
from .pickands import certify_nonnegative, endpoint_functionals

COEF_TOL = 1e-12


@dataclass(frozen=True)
class SubmodelParam:
    """Bernstein coefficients of h in the polytope C_m^+ (validated)."""

    m: int
    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 1 or c.size != self.m + 1:
            raise ValueError(f"c must have length m + 1 = {self.m + 1}")
        report = in_submodel_h(c)
        if not report["member"]:
            raise ValueError(f"coefficients outside the polytope: {report['violations']}")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    def to_json(self) -> dict:
        return {"m": self.m, "c": [float(x) for x in self.c]}

    @staticmethod
    def from_json(obj: dict) -> "SubmodelParam":
        return SubmodelParam(int(obj["m"]), obj["c"])


@dataclass(frozen=True)
class PiecewiseLinearPickands:
    """Piecewise-linear Pickands function through (knots, values).

    Validates the grid Pickands conditions at construction: endpoint values
    1, slopes nondecreasing, first slope >= -1 and last slope <= 1. Used both
    for the A* characterization of submodel membership and as the CFG
    estimator's return type.
    """

    knots: np.ndarray
    values: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape or k.size < 2:
            raise ValueError("knots and values must be equal-length 1-d arrays (>= 2 points)")
        if np.any(np.diff(k) <= 0) or k[0] != 0.0 or k[-1] != 1.0:
            raise ValueError("knots must increase strictly from 0 to 1")
        if abs(v[0] - 1.0) > self.tol or abs(v[-1] - 1.0) > self.tol:
            raise ValueError("endpoint values must equal 1")
        slopes = np.diff(v) / np.diff(k)
        if slopes[0] < -1.0 - self.tol or slopes[-1] > 1.0 + self.tol:
            raise ValueError("endpoint slopes must lie in [-1, 1]")
        if np.any(np.diff(slopes) < -self.tol):
            raise ValueError("slopes must be nondecreasing (convexity)")
        kk, vv = k.copy(), v.copy()
        kk.flags.writeable = False
        vv.flags.writeable = False
        object.__setattr__(self, "knots", kk)
        object.__setattr__(self, "values", vv)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots, self.values)
        return float(out) if out.ndim == 0 else out


def in_submodel_h(c) -> dict:
    """Membership of a coefficient vector in the polytope C_m^+.

    Member iff every coefficient is >= 0 and both endpoint-derivative sums
    are <= 1, all with 1e-12 slack; violations name the failing constraint.
    """
    c = np.asarray(c, dtype=float)
    violations: list[dict] = []
    for k in np.nonzero(c < -COEF_TOL)[0]:
        violations.append({"rule": "negative_coefficient", "witness": int(k)})
    q0, q1 = endpoint_functionals(BernsteinPoly(c))
    if q0 > 1.0 + COEF_TOL:
        violations.append({"rule": "boundary_sum_left", "witness": q0})
    if q1 > 1.0 + COEF_TOL:
        violations.append({"rule": "boundary_sum_right", "witness": q1})
    return {"member": not violations, "violations": violations}


def in_submodel_a(A: BernsteinPoly) -> bool:
    """Whether A is the Bernstein approximation of some Pickands function.

    Equivalent to the piecewise-linear interpolant A* of the coefficients
    being a Pickands function.
    """
    m = A.degree
    if m < 1:
        raise ValueError("in_submodel_a needs degree >= 1")
    try:
        PiecewiseLinearPickands(np.arange(m + 1) / m, A.coeffs)
    except ValueError:
        return False
    return True


def _deflate_left(c: np.ndarray) -> np.ndarray:
    # h = t * g with g_k = c_{k+1} * m / (k+1); valid when c[0] == 0.
    m = c.size - 1
    return c[1:] * (m / np.arange(1.0, m + 1))


def _deflate_right(c: np.ndarray) -> np.ndarray:
    # h = (1-t) * g with g_k = c_k * m / (m-k); valid when c[m] == 0.
    m = c.size - 1
    return c[:-1] * (m / (m - np.arange(0.0, m)))


def _has_interior_zero(h: BernsteinPoly) -> bool:
    """Certificate-based detection of a zero of h inside (0, 1).

    Endpoint zeros are deflated exactly first, then the branch-and-bound
    minimum decides: a minimum <= 1e-12 * scale counts as a zero; anything
    larger is treated as strictly positive (ambiguous tiny minima are left to
    the degree-elevation cap, never over-claimed as zeros).
    """
    c = np.asarray(h.coeffs, dtype=float)
    scale = max(1.0, float(np.max(np.abs(c))))
    while c.size > 1 and abs(c[0]) <= 1e-13 * scale:
        c = _deflate_left(c)
    while c.size > 1 and abs(c[-1]) <= 1e-13 * scale:
        c = _deflate_right(c)
    if c.size == 1:
        return False
    g = BernsteinPoly(c)
    gscale = max(1.0, float(np.max(np.abs(c))))
    _, vmin = global_minimum(g)
    return vmin <= 1e-12 * gscale


def lorentz_degree(h: BernsteinPoly, cap: int = 512) -> int | str:
    """Smallest degree M at which all Bernstein coefficients of h are >= 0.

    Elevates one degree at a time (the minimal M is wanted). Returns
    "infinite" without iterating when h has a zero inside (0,1) — then no
    elevation ever clears the coefficients — and "exceeds cap" when the cap
    is reached first.

    Raises
    ------
    ValueError
        If h is negative somewhere on [0,1] or cap < deg(h).
    """
    if cap < h.degree:
        raise ValueError("cap must be >= deg(h)")
    report = certify_nonnegative(h)
    if not report.nonneg:
        raise ValueError(f"h is negative near t = {report.witness}")
    c = np.asarray(h.coeffs, dtype=float)
    if np.min(c) >= -COEF_TOL:
        return h.degree
    if _has_interior_zero(h):
        return "infinite"
    for M in range(h.degree + 1, cap + 1):
        c = _elevate_once(c)
        if np.min(c) >= -COEF_TOL:
            return M
    return "exceeds cap"

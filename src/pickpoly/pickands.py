"""Pickands dependence functions and their spectral densities.

A Pickands function A on [0,1] is convex with max(t, 1-t) <= A(t) <= 1 and
characterizes a bivariate extreme-value copula through

    C_A(u, v) = exp{ log(uv) * A(log v / log uv) }.

For polynomials with absolutely continuous derivative the whole object is
determined by the nonnegative polynomial h = A'' together with the two
endpoint-derivative functionals int (1-w) h and int w h (both <= 1); the atom
masses of the spectral measure at 0 and 1 are one minus those functionals.
This module implements the validation of polynomial Pickands functions, a
certified nonnegativity decision procedure, the coefficient maps h <-> A,
spectral-measure reconstruction, and copula cdf/density evaluation.

Every Pickands type has ``value(t)``. PickandsPoly and GenericPickands also
have ``kernel(t)``, (A, A', A'') at an array t in one call: all that the
copula density, the likelihood and the sampler read, and which the third
type, PiecewiseLinearPickands, lacks. A GenericPickands is built from one
callable that returns that triple.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import (
    _MATRIX_CACHE,
    BernsteinPoly,
    _branch_and_bound,
    _check_type,
    _frozen,
    _real_array,
    eval_with_derivatives,
    evaluate,
)

# The slack of every constraint check: a coefficient or value of h = A'' may dip
# to -_SLACK (in in_submodel_a, or by h_from_a's rounding bound), an endpoint-derivative
# functional of h may reach 1 + _SLACK (decided by _caps alone, on the h of A for A's
# checks), and A may leave [V, 1] by _SLACK. It bounds the Pickands polynomials, Theta_m and the polytope.
_SLACK = 1e-12


class CertificateInconclusiveError(RuntimeError):
    """Subdivision certificate hit max depth without deciding the sign."""


class NotSpectralDensityError(ValueError):
    """Nonnegative polynomial whose endpoint-derivative functional exceeds 1."""

    def __init__(self, which: str, value: float):
        self.which = which
        self.value = value
        super().__init__(f"endpoint-derivative condition violated: {which} = {value!r} > 1")


def vee(t):
    """Comonotone lower bound V(t) = max(1 - t, t), t real numbers in [0, 1]."""
    t = _real_array("t", t, interval="[0, 1]")
    out = np.maximum(1.0 - t, t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NonnegReport:
    nonneg: bool
    witness: float | None
    subdivisions: int


# the certificate gives up on subintervals narrower than 2**-60
_CERTIFY_DEPTH = 60
_ENDPOINT_TOL = 1e-9  # endpoint coefficients this close to 1 count as 1


def certify_nonnegative(P: BernsteinPoly) -> NonnegReport:
    """Decide sign of P on [0,1] by de Casteljau subdivision.

    Returns nonneg=True only when every leaf interval carries coefficients
    >= -1e-12 (a certificate), and nonneg=False with an abscissa where
    P < -1e-12. If a subinterval is still undecided at depth 60 (a zero of
    even multiplicity sitting at the tolerance boundary) and no such
    abscissa turns up, it raises CertificateInconclusiveError rather than
    guessing.
    """
    c = _check_type("P", P, BernsteinPoly).coeffs
    t, v, splits, undecided = _branch_and_bound(c, -_SLACK, _CERTIFY_DEPTH)
    if v < -_SLACK:
        return NonnegReport(False, t, splits)
    if undecided:
        raise CertificateInconclusiveError(
            f"sign of polynomial undecided at subdivision depth {_CERTIFY_DEPTH}")
    return NonnegReport(True, None, splits)


def _snapped(c: np.ndarray) -> np.ndarray:
    # a copy of A's coefficients, each endpoint within 1e-9 of 1 read as exactly 1
    c = c.copy()
    for k in (0, -1):
        if abs(c[k] - 1.0) <= _ENDPOINT_TOL:
            c[k] = 1.0
    return c


def validate_pickands(P: BernsteinPoly) -> dict:
    """Classify a Bernstein polynomial as Pickands function or not.

    Checks the endpoint values A(0) = A(1) = 1 (to 1e-9, then read as 1),
    then on h = A'' the caps int (1-w) h = -A'(0) <= 1 and int w h = A'(1)
    <= 1 (witnesses 1 and m2 - 1) and convexity through a certified sign
    decision. Never raises: every input is classified, and failed rules
    come with a witness (coefficient index or abscissa).
    """
    c = _snapped(_check_type("P", P, BernsteinPoly).coeffs)
    m2 = P.degree
    violations = [{"rule": "endpoint_value", "witness": k} for k in sorted({0, m2}) if c[k] != 1.0]
    if m2 < 2:
        return {"valid": not violations, "violations": violations}
    h = h_from_a(BernsteinPoly(c))
    violations += [{"rule": "endpoint_derivative", "witness": k}
                   for k in sorted({(1, m2 - 1)[j] for j in _caps(h.coeffs)[1]})]
    try:
        report = certify_nonnegative(h)
        if not report.nonneg:
            violations.append({"rule": "convexity", "witness": report.witness})
    except CertificateInconclusiveError:
        violations.append({"rule": "convexity_inconclusive", "witness": None})
    return {"valid": not violations, "violations": violations}


@dataclass(frozen=True)
class PickandsPoly:
    """Validated polynomial Pickands function of degree m + 2.

    Construction snaps the endpoint coefficients within 1e-9 of 1 to exactly
    1 (downstream formulas assume exact endpoint values) and rejects
    anything ``validate_pickands`` does not pass, an endpoint further off
    as an ``endpoint_value`` violation.
    """

    poly: BernsteinPoly

    def __post_init__(self):
        c = _check_type("poly", self.poly, BernsteinPoly).coeffs
        if c.size < 3:
            raise ValueError("PickandsPoly needs degree >= 2; A == 1 is degree-2 [1,1,1]")
        snapped = BernsteinPoly(_snapped(c))
        report = validate_pickands(snapped)
        if not report["valid"]:
            raise ValueError(f"not a Pickands function: {report['violations']}")
        object.__setattr__(self, "poly", snapped)

    def value(self, t):
        return evaluate(self.poly, _real_array("t", t, interval="[0, 1]"))

    def kernel(self, t: np.ndarray):
        """(A, A', A'') at a 1-d array t in [0, 1] (unchecked), in one de Casteljau pass."""
        return eval_with_derivatives(self.poly.coeffs, t)


@dataclass(frozen=True)
class GenericPickands:
    """Pickands function given by one callable fn(t) -> (A, A', A''), its one field.

    Used for non-polynomial models (e.g. the asymmetric logistic family).
    fn maps an array of t to a tuple or list of three arrays of its shape
    (else a ValueError naming ``fn(t)``). Construction checks A(0) = A(1) = 1
    and V <= A <= 1 on a 1001-point grid to 1e-12; derivatives are only
    required on (0, 1). The function is known by its callable alone, so
    ``comonotone()`` (the module's V callable) is V whatever another fn gives.
    """

    fn: Callable

    def __post_init__(self):
        _check_type("fn", self.fn, Callable)
        grid = np.linspace(0.0, 1.0, 1001)
        vals = self.kernel(grid)[0]
        if abs(vals[0] - 1.0) > _SLACK or abs(vals[-1] - 1.0) > _SLACK:
            raise ValueError("A(0) and A(1) must equal 1")
        if np.any(vals > 1.0 + _SLACK) or np.any(vals < vee(grid) - _SLACK):
            bad = grid[int(np.argmax(np.maximum(vals - 1.0, vee(grid) - vals)))]
            raise ValueError(f"boundary conditions V <= A <= 1 violated near t = {bad}")

    def value(self, t):
        t = _real_array("t", t, interval="[0, 1]")
        out = self.kernel(t.ravel())[0]
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def kernel(self, t: np.ndarray):
        """(A, A', A'') at a 1-d array t in [0, 1] (unchecked): one call of fn."""
        out = _check_type("fn(t)", self.fn(t), tuple, list)
        if len(out) != 3:
            raise ValueError(f"fn(t) must be the 3 arrays (A, A', A''), got {len(out)} entries")
        return tuple(_real_array("fn(t)", x, size=t.size, size_name="len(t)") for x in out)


_GRID_TOL = 1e-10  # slack of PiecewiseLinearPickands' endpoint, slope and convexity checks


@dataclass(frozen=True)
class PiecewiseLinearPickands:
    """Piecewise-linear Pickands function through (knots, values).

    Validates the grid Pickands conditions at construction: endpoint values
    1, slopes nondecreasing, first slope >= -1 and last slope <= 1, each to
    1e-10. The CFG estimator's return type. Its A'' is a measure, so it has
    no ``kernel``.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = _real_array("knots", self.knots, min_size=2, finite=True)
        v = _real_array("values", self.values, size=k.size, size_name="len(knots)", finite=True)
        if np.any(np.diff(k) <= 0) or k[0] != 0.0 or k[-1] != 1.0:
            raise ValueError("knots must increase strictly from 0 to 1")
        if abs(v[0] - 1.0) > _GRID_TOL or abs(v[-1] - 1.0) > _GRID_TOL:
            raise ValueError("endpoint values must equal 1")
        slopes = np.diff(v) / np.diff(k)
        if slopes[0] < -1.0 - _GRID_TOL or slopes[-1] > 1.0 + _GRID_TOL:
            raise ValueError("endpoint slopes must lie in [-1, 1]")
        if np.any(np.diff(slopes) < -_GRID_TOL):
            raise ValueError("slopes must be nondecreasing (convexity)")
        object.__setattr__(self, "knots", _frozen(k.copy()))
        object.__setattr__(self, "values", _frozen(v.copy()))

    def value(self, t):
        t = _real_array("t", t, interval="[0, 1]")
        out = np.interp(t, self.knots, self.values)
        return float(out) if out.ndim == 0 else out


# the Pickands types, and those with a density (a ``kernel``)
_PICKANDS = (PickandsPoly, GenericPickands, PiecewiseLinearPickands)
_DENSITY = (PickandsPoly, GenericPickands)


def _comonotone(t):
    return vee(t), np.where(t < 0.5, -1.0, 1.0), np.zeros_like(t)


def comonotone() -> GenericPickands:
    """The comonotone Pickands function A = V (copula min(u, v))."""
    return GenericPickands(_comonotone)


def independence() -> PickandsPoly:
    """The independence Pickands function A == 1 (copula u*v), the degree-2 [1, 1, 1]."""
    return PickandsPoly(BernsteinPoly([1.0, 1.0, 1.0]))


@lru_cache(maxsize=_MATRIX_CACHE)
def _cap_weights(m: int) -> np.ndarray:
    # rows 1 - y and y, y_k = (k+1)/(m+2): int (1-w) h and int w h are their
    # dot products with h's m + 1 Bernstein coefficients, over m + 1
    y = (np.arange(m + 1) + 1.0) / (m + 2)
    return _frozen(np.stack([1.0 - y, y]))


@lru_cache(maxsize=_MATRIX_CACHE)
def a_from_h_matrix(m: int) -> np.ndarray:
    """Kernel matrix K with A-coeffs = 1 - (K @ h-coeffs) / (m + 1).

    K[k, j] = min{(1 - k/(m+2)) y_j, (k/(m+2)) (1 - y_j)}, y_j = (j+1)/(m+2),
    k = 0..m+2, j = 0..m.
    """
    k = np.arange(m + 3)[:, None] / (m + 2)
    w0, w1 = _cap_weights(m)
    return _frozen(np.minimum((1.0 - k) * w1, k * w0))


def a_from_h(h: BernsteinPoly) -> BernsteinPoly:
    """Map a spectral-density polynomial h (degree m) to A (degree m + 2).

    Coefficientwise realization of A(t) = 1 - int min{(1-t)w, t(1-w)} h(w) dw;
    the first and last output coefficients are exactly 1.
    """
    c = _check_type("h", h, BernsteinPoly).coeffs
    m = c.size - 1
    a = 1.0 - (a_from_h_matrix(m) @ c[:, None])[:, 0] / (m + 1)
    a[[0, -1]] = 1.0
    return BernsteinPoly(a)


def h_from_a(A: BernsteinPoly) -> BernsteinPoly:
    """Inverse map: h = A'' in Bernstein form, degree m = deg(A) - 2.

    c(k, m; A'') = (m+2)(m+1) times the second difference of A's
    coefficients. Round trip a_from_h(h_from_a(A)) reproduces A exactly
    whenever A(0) = A(1) = 1.
    """
    d = _check_type("A", A, BernsteinPoly).degree
    if d < 2:
        raise ValueError("h_from_a needs degree >= 2")
    return BernsteinPoly(d * (d - 1) * np.diff(A.coeffs, n=2))


def _caps(c: np.ndarray) -> tuple[tuple[float, float], list[int]]:
    # (int (1-w) h, int w h) of the h with Bernstein coefficients c, and the caps
    # q <= 1 + _SLACK they break (0 left, 1 right): the one cap decision for A, h, c and theta
    m = c.size - 1
    w0, w1 = _cap_weights(m)
    q = (float(np.dot(w0, c) / (m + 1)), float(np.dot(w1, c) / (m + 1)))
    return q, [j for j in (0, 1) if q[j] > 1.0 + _SLACK]


def endpoint_functionals(h: BernsteinPoly) -> tuple[float, float]:
    """(int (1-w) h, int w h), that is -A'(0) and A'(1) of the associated
    Pickands function, via the exact Bernstein coefficient sums."""
    return _caps(_check_type("h", h, BernsteinPoly).coeffs)[0]


@dataclass(frozen=True)
class SpectralDensity:
    """Spectral measure h0*delta_0 + h(w) dw + h1*delta_1 of a Pickands polynomial."""

    h: BernsteinPoly
    left_deriv: float   # -A'(0) = int (1-w) h
    right_deriv: float  # A'(1) = int w h
    mass0: float        # H({0}) = 1 - int (1-w) h
    mass1: float        # H({1}) = 1 - int w h


def spectral_measure(h: BernsteinPoly) -> SpectralDensity:
    """Build the spectral measure of a nonnegative polynomial density h.

    Raises
    ------
    ValueError
        If h is negative somewhere on [0,1].
    NotSpectralDensityError
        If an endpoint-derivative functional exceeds 1 (beyond 1e-12).
    """
    report = certify_nonnegative(_check_type("h", h, BernsteinPoly))
    if not report.nonneg:
        raise ValueError(f"h is negative near t = {report.witness}")
    (q0, q1), over = _caps(h.coeffs)
    if over:
        raise NotSpectralDensityError(("int (1-w) h", "int w h")[over[0]], (q0, q1)[over[0]])
    return SpectralDensity(
        h=h,
        left_deriv=q0,
        right_deriv=q1,
        mass0=min(max(1.0 - q0, 0.0), 1.0),
        mass1=min(max(1.0 - q1, 0.0), 1.0),
    )


def _broadcast(ua: np.ndarray, va: np.ndarray):
    # the checked u and v broadcast together, at least 1-d, and whether both are scalars
    try:
        return (*np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va)), ua.ndim == 0 and va.ndim == 0)
    except ValueError:
        raise ValueError(f"v must broadcast with u, got shapes {ua.shape} and {va.shape}") from None


def copula_cdf(A, u, v):
    """Extreme-value copula C_A(u, v) = exp{log(uv) A(log v / log uv)}.

    A is any Pickands type. u, v are scalars or arrays in [0,1] that
    broadcast together; zero arguments return 0 (continuous extension), and
    the removable singularity at u = v = 1 uses t = 1/2 (any t gives it).
    """
    value = _check_type("A", A, *_PICKANDS).value
    ua, va, scalar = _broadcast(_real_array("u", u, interval="[0, 1]"),
                                _real_array("v", v, interval="[0, 1]"))
    out = np.zeros(ua.shape)
    zero = (ua == 0.0) | (va == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(ua) + np.log(va)
        t = np.where(s < 0.0, np.log(va) / np.where(s < 0.0, s, -1.0), 0.5)
    live = ~zero
    out[live & (s == 0.0)] = 1.0
    inner = live & (s < 0.0)
    if np.any(inner):
        out[inner] = np.exp(s[inner] * value(t[inner]))
    return float(out[0]) if scalar else out


def _density_brace(a, d1, d2, t, s):
    # {A + (1-t) A'}{A - t A'} - t(1-t) A''/s: the copula density over
    # exp{s (A - 1)}, shared by the density, the likelihood and the sampler
    return (a + (1.0 - t) * d1) * (a - t * d1) - t * (1.0 - t) * d2 / s


def copula_density(A, u, v):
    """Copula density d2 C_A / du dv on the open square.

    With s = log(uv) and t = log v / s the closed form is

        c(u, v) = exp{s (A - 1)} [ {A + (1-t) A'} {A - t A'} - t(1-t) A'' / s ]

    from one ``A.kernel`` call.

    Raises
    ------
    ValueError
        If A is not a PickandsPoly or GenericPickands (a
        PiecewiseLinearPickands, whose A'' is a measure, has no density), or
        u or v sits on the boundary {0, 1} or the two do not broadcast.
    """
    ua = _real_array("u", u, interval="[0, 1]")
    va = _real_array("v", v, interval="[0, 1]")
    if np.any(ua <= 0.0) or np.any(ua >= 1.0) or np.any(va <= 0.0) or np.any(va >= 1.0):
        raise ValueError("density requires u, v strictly inside (0, 1)")
    ua, va, scalar = _broadcast(ua, va)
    s = (np.log(ua) + np.log(va)).ravel()
    t = np.log(va).ravel() / s
    a, d1, d2 = _check_type("A", A, *_DENSITY).kernel(t)
    out = np.exp(s * (a - 1.0)) * _density_brace(a, d1, d2, t, s)
    return float(out[0]) if scalar else out.reshape(ua.shape)

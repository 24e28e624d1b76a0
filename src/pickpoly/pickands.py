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
copula density, the likelihood and the sampler read. A GenericPickands is
built from one callable that returns that triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bernstein import (
    _MATRIX_CACHE,
    BernsteinPoly,
    _branch_and_bound,
    _check_unit_interval,
    _frozen,
    eval_with_derivatives,
    evaluate,
)

# The slack of every constraint check: a coefficient or value of h = A'' may
# dip to -_SLACK, an endpoint-derivative functional may reach 1 + _SLACK, and
# A may leave [V, 1] or A'(0), A'(1) their bounds by _SLACK. It bounds both
# parameter spaces, Theta_m and the Bernstein polytope.
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
    """Comonotone lower bound V(t) = max(1 - t, t)."""
    t = np.asarray(t, dtype=float)
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
    t, v, splits, undecided = _branch_and_bound(P.coeffs, -_SLACK, _CERTIFY_DEPTH)
    if v < -_SLACK:
        return NonnegReport(False, t, splits)
    if undecided:
        raise CertificateInconclusiveError(
            f"sign of polynomial undecided at subdivision depth {_CERTIFY_DEPTH}")
    return NonnegReport(True, None, splits)


def validate_pickands(P: BernsteinPoly) -> dict:
    """Classify a Bernstein polynomial as Pickands function or not.

    Checks the endpoint conditions on the first/last two coefficients and
    convexity through a certified sign decision on A''. Never raises: every
    input is classified, and failed rules come with a witness (coefficient
    index or abscissa).
    """
    c = P.coeffs
    m2 = P.degree
    violations: list[dict] = []
    for k in sorted({0, m2}):
        if abs(c[k] - 1.0) > _ENDPOINT_TOL:
            violations.append({"rule": "endpoint_value", "witness": k})
    if m2 < 2:
        return {"valid": not violations, "violations": violations}
    floor = (m2 - 1) / m2  # (m+1)/(m+2) with representation degree m2 = m+2
    if c[1] < floor - _SLACK:
        violations.append({"rule": "endpoint_derivative", "witness": 1})
    if m2 - 1 != 1 and c[m2 - 1] < floor - _SLACK:
        violations.append({"rule": "endpoint_derivative", "witness": m2 - 1})
    try:
        report = certify_nonnegative(h_from_a(P))
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
        c = self.poly.coeffs.copy()
        if c.size < 3:
            raise ValueError("PickandsPoly needs degree >= 2; A == 1 is degree-2 [1,1,1]")
        for k in (0, c.size - 1):
            if abs(c[k] - 1.0) <= _ENDPOINT_TOL:
                c[k] = 1.0
        snapped = BernsteinPoly(c)
        report = validate_pickands(snapped)
        if not report["valid"]:
            raise ValueError(f"not a Pickands function: {report['violations']}")
        object.__setattr__(self, "poly", snapped)

    @property
    def m(self) -> int:
        return self.poly.degree - 2

    def value(self, t):
        return evaluate(self.poly, t)

    def kernel(self, t: np.ndarray):
        """(A, A', A'') at a 1-d array t in [0, 1] (unchecked), in one de Casteljau pass."""
        return eval_with_derivatives(self.poly.coeffs, t)


@dataclass(frozen=True)
class GenericPickands:
    """Pickands function given by one callable fn(t) -> (A, A', A''), its one field.

    Used for non-polynomial models (e.g. the asymmetric logistic family).
    fn maps an array of t to three arrays of its shape (else a ValueError).
    Construction checks A(0) = A(1) = 1 and V <= A <= 1 on a 1001-point
    grid to 1e-12. Derivatives are only required on (0, 1). The function
    is known by its callable alone: ``comonotone()`` is V because its fn
    is the module's V callable, whatever values another fn gives.
    """

    fn: Callable

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, 1001)
        vals = self.kernel(grid)[0]
        if abs(vals[0] - 1.0) > _SLACK or abs(vals[-1] - 1.0) > _SLACK:
            raise ValueError("A(0) and A(1) must equal 1")
        if np.any(vals > 1.0 + _SLACK) or np.any(vals < vee(grid) - _SLACK):
            bad = grid[int(np.argmax(np.maximum(vals - 1.0, vee(grid) - vals)))]
            raise ValueError(f"boundary conditions V <= A <= 1 violated near t = {bad}")

    def value(self, t):
        t = _check_unit_interval(t, "t")
        out = self.kernel(np.atleast_1d(t))[0]
        return float(out[0]) if t.ndim == 0 else out

    def kernel(self, t: np.ndarray):
        """(A, A', A'') at an array t: one call of fn."""
        a, d1, d2 = (np.asarray(x, dtype=float) for x in self.fn(t))
        if not a.shape == d1.shape == d2.shape == t.shape:
            raise ValueError(f"Pickands callable gave shapes {a.shape}, {d1.shape}, {d2.shape} "
                             f"for t of shape {t.shape}")
        return a, d1, d2


def _comonotone(t):
    return vee(t), np.where(t < 0.5, -1.0, 1.0), np.zeros_like(t)


def comonotone() -> GenericPickands:
    """The comonotone Pickands function A = V (copula min(u, v))."""
    return GenericPickands(_comonotone)


def _independence(t):
    return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


def independence() -> GenericPickands:
    """The independence Pickands function A == 1 (copula u*v)."""
    return GenericPickands(_independence)


@lru_cache(maxsize=_MATRIX_CACHE)
def a_from_h_matrix(m: int) -> np.ndarray:
    """Kernel matrix K with A-coeffs = 1 - (K @ h-coeffs) / (m + 1).

    K[k, j] = min{(1 - k/(m+2)) (j+1)/(m+2), (k/(m+2)) (1 - (j+1)/(m+2))},
    k = 0..m+2, j = 0..m.
    """
    k = np.arange(m + 3)[:, None] / (m + 2)
    y = (np.arange(m + 1)[None, :] + 1.0) / (m + 2)
    return _frozen(np.minimum((1.0 - k) * y, k * (1.0 - y)))


def a_from_h(h: BernsteinPoly) -> BernsteinPoly:
    """Map a spectral-density polynomial h (degree m) to A (degree m + 2).

    Coefficientwise realization of A(t) = 1 - int min{(1-t)w, t(1-w)} h(w) dw;
    the first and last output coefficients are exactly 1.
    """
    return BernsteinPoly(_a_coeffs(h.coeffs))


def _a_coeffs(h: np.ndarray) -> np.ndarray:
    # a_from_h's coefficients for one coefficient vector h or a stack of rows;
    # K @ h[..., None] takes each row's product alone, so a row of a stack
    # gets the bits it gets alone
    m = h.shape[-1] - 1
    a = 1.0 - (a_from_h_matrix(m) @ h[..., None])[..., 0] / (m + 1)
    a[..., [0, -1]] = 1.0
    return a


def h_from_a(A: BernsteinPoly) -> BernsteinPoly:
    """Inverse map: h = A'' in Bernstein form, degree m = deg(A) - 2.

    c(k, m; A'') = (m+2)(m+1) times the second difference of A's
    coefficients. Round trip a_from_h(h_from_a(A)) reproduces A exactly
    whenever A(0) = A(1) = 1.
    """
    d = A.degree
    if d < 2:
        raise ValueError("h_from_a needs degree >= 2")
    return BernsteinPoly(d * (d - 1) * np.diff(A.coeffs, n=2))


def endpoint_functionals(h: BernsteinPoly) -> tuple[float, float]:
    """(int (1-w) h, int w h) via the exact Bernstein coefficient sums.

    These equal -A'(0) and A'(1) of the associated Pickands function.
    """
    m = h.degree
    y = (np.arange(m + 1) + 1.0) / (m + 2)
    q0 = float(np.dot(1.0 - y, h.coeffs) / (m + 1))
    q1 = float(np.dot(y, h.coeffs) / (m + 1))
    return q0, q1


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
    report = certify_nonnegative(h)
    if not report.nonneg:
        raise ValueError(f"h is negative near t = {report.witness}")
    q0, q1 = endpoint_functionals(h)
    if q0 > 1.0 + _SLACK:
        raise NotSpectralDensityError("int (1-w) h", q0)
    if q1 > 1.0 + _SLACK:
        raise NotSpectralDensityError("int w h", q1)
    return SpectralDensity(
        h=h,
        left_deriv=q0,
        right_deriv=q1,
        mass0=min(max(1.0 - q0, 0.0), 1.0),
        mass1=min(max(1.0 - q1, 0.0), 1.0),
    )


def copula_cdf(A, u, v):
    """Extreme-value copula C_A(u, v) = exp{log(uv) A(log v / log uv)}.

    A is a PickandsPoly or GenericPickands. u, v may be scalars or arrays in
    [0,1]; zero arguments return 0 (continuous extension), and the removable
    singularity at u = v = 1 uses t = 1/2 (the value does not depend on it).
    """
    ua = _check_unit_interval(u, "u")
    va = _check_unit_interval(v, "v")
    scalar = ua.ndim == 0 and va.ndim == 0
    ua, va = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    out = np.zeros(ua.shape)
    zero = (ua == 0.0) | (va == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(ua) + np.log(va)
        t = np.where(s < 0.0, np.log(va) / np.where(s < 0.0, s, -1.0), 0.5)
    live = ~zero
    out[live & (s == 0.0)] = 1.0
    inner = live & (s < 0.0)
    if np.any(inner):
        out[inner] = np.exp(s[inner] * A.value(t[inner]))
    return float(out[0]) if scalar else out


def _kernel(A, t: np.ndarray):
    # (A, A', A'') at t; a value-only type, whose A'' is a measure, has no density
    if not hasattr(A, "kernel"):
        raise TypeError(f"{type(A).__name__} has no kernel (A, A', A''), so no copula density")
    return A.kernel(t)


def _density_brace(a, d1, d2, t, s):
    # {A + (1-t) A'}{A - t A'} - t(1-t) A''/s: the copula density over
    # exp{s (A - 1)}, shared by the density, the likelihood and the sampler
    return (a + (1.0 - t) * d1) * (a - t * d1) - t * (1.0 - t) * d2 / s


def copula_density(A, u, v):
    """Copula density d2 C_A / du dv on the open square.

    With s = log(uv) and t = log v / s the closed form is

        c(u, v) = exp{s (A - 1)} [ {A + (1-t) A'} {A - t A'} - t(1-t) A'' / s ]

    from one ``A.kernel`` call (A a PickandsPoly or GenericPickands).

    Raises
    ------
    ValueError
        If u or v sits on the boundary {0, 1}.
    TypeError
        If A has no ``kernel``, as a PiecewiseLinearPickands.
    """
    ua = _check_unit_interval(u, "u")
    va = _check_unit_interval(v, "v")
    if np.any(ua <= 0.0) or np.any(ua >= 1.0) or np.any(va <= 0.0) or np.any(va >= 1.0):
        raise ValueError("density requires u, v strictly inside (0, 1)")
    scalar = ua.ndim == 0 and va.ndim == 0
    ua, va = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    s = (np.log(ua) + np.log(va)).ravel()
    t = np.log(va).ravel() / s
    a, d1, d2 = _kernel(A, t)
    out = np.exp(s * (a - 1.0)) * _density_brace(a, d1, d2, t, s)
    return float(out[0]) if scalar else out.reshape(ua.shape)

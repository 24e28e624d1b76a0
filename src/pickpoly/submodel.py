"""The Bernstein-approximation submodel and its polytope parameter space.

Bernstein approximations of Pickands functions are exactly the polynomials
whose second derivative h has nonnegative Bernstein coefficients on top of
the two endpoint-derivative caps, so the parameter space of h is a polytope.
The submodel is nested across degrees via degree elevation, and a
polynomial h >= 0 joins it at some degree if and only if h is constant or has
no zero inside (0,1); the smallest such degree is the Lorentz degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernstein import (
    BernsteinPoly,
    _branch_and_bound,
    _check_int,
    _check_type,
    _elevated_blocks,
    _frozen,
    _real_array,
)
from .pickands import (_CERTIFY_DEPTH, _SLACK, _caps, _snapped, certify_nonnegative,
                       h_from_a)


@dataclass(frozen=True)
class SubmodelParam:
    """Bernstein coefficients of h in the polytope C_m^+ (validated; m an integer >= 0)."""

    m: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _check_int("m", self.m))
        c = _real_array("c", self.c, size=self.m + 1, size_name="m + 1", finite=True)
        report = in_submodel_h(c)
        if not report["member"]:
            raise ValueError(f"coefficients outside the polytope: {report['violations']}")
        object.__setattr__(self, "c", _frozen(c.copy()))

    def to_json(self) -> dict:
        return {"m": self.m, "c": [float(x) for x in self.c]}


def in_submodel_h(c) -> dict:
    """Membership of a coefficient vector in the polytope C_m^+.

    Member iff every coefficient is >= 0 and both endpoint-derivative sums
    are <= 1, all with 1e-12 slack; violations name the failing constraint.
    """
    c = _real_array("c", c, min_size=1, finite=True)
    violations = [{"rule": "negative_coefficient", "witness": int(k)} for k in np.nonzero(c < -_SLACK)[0]]
    q, over = _caps(c)
    violations += [{"rule": ("boundary_sum_left", "boundary_sum_right")[j], "witness": q[j]} for j in over]
    return {"member": not violations, "violations": violations}


def in_submodel_a(A: BernsteinPoly) -> bool:
    """Whether A is the Bernstein approximation of some Pickands function.

    The paper's criterion, that the piecewise-linear interpolant A* of the
    coefficients is a Pickands function, decided through h = A'': A*'s
    slope changes are positive multiples of h's coefficients and its end
    slopes are -int (1-w) h and int w h, so A is in when its endpoint values
    are 1 (to 1e-9, as in ``validate_pickands``) and ``in_submodel_h(h_from_a(A))``.
    """
    m = _check_type("A", A, BernsteinPoly).degree
    if m < 1:
        raise ValueError("in_submodel_a needs degree >= 1")
    c = _snapped(A.coeffs)
    return bool(c[0] == c[-1] == 1.0) and (
        m == 1 or in_submodel_h(h_from_a(BernsteinPoly(c)).coeffs)["member"])


def _deflate_left(c: np.ndarray) -> np.ndarray:
    # h = t * g with g_k = c_{k+1} * m / (k+1); valid when c[0] == 0.
    m = c.size - 1
    return c[1:] * (m / np.arange(1.0, m + 1))


def _deflate_right(c: np.ndarray) -> np.ndarray:
    # h = (1-t) * g with g_k = c_k * m / (m-k); valid when c[m] == 0.
    m = c.size - 1
    return c[:-1] * (m / (m - np.arange(0.0, m)))


def _exact_power_coeffs(c: np.ndarray, shift: float) -> list[int]:
    # integer power coefficients (ascending) of a positive multiple of the
    # polynomial with Bernstein coefficients c - shift, read exactly:
    # a_j = C(m,j) sum_{k<=j} (-1)^(j-k) C(j,k) c_k
    fr = [Fraction(float(x)) - Fraction(shift) for x in c]
    den = math.lcm(*(f.denominator for f in fr))
    ci = [int(f * den) for f in fr]
    m = len(ci) - 1
    return _trim([math.comb(m, j) * sum((-1) ** (j - k) * math.comb(j, k) * ci[k] for k in range(j + 1))
                  for j in range(m + 1)])


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: list[int]) -> list[int]:
    return [j * a for j, a in enumerate(p)][1:]


def _remainder(a: list[int], b: list[int]) -> list[int]:
    # a positive multiple of the remainder of a divided by b, made primitive
    # (integer coefficients, ascending; b nonzero)
    a = list(a)
    lb, sb = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        q, shift = sb * a[-1], len(a) - len(b)
        a = [lb * x for x in a]
        for i, bi in enumerate(b):
            a[shift + i] -= q * bi
        a.pop()
        _trim(a)
    g = math.gcd(*a) if a else 1
    return [x // g for x in a]


def _sign_changes(values: list[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _exact_root_inside(c: np.ndarray, shift: float = 0.0) -> bool:
    """Whether the polynomial with Bernstein coefficients c - shift, read as
    exact rationals, has a root inside (0, 1).

    Sturm's theorem on the sequence p, p', -rem, ... (a Euclid remainder
    sequence, so it ends in gcd(p, p')) counts the distinct roots in (0, 1]
    as the drop in sign changes from 0 to 1; a root at 1 is then taken off.
    """
    p = _exact_power_coeffs(c, shift)
    seq = [p, _derivative(p)]
    while len(seq[-1]) > 1:
        r = _remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-x for x in r])
    at_one = [sum(q) for q in seq]
    return _sign_changes([q[0] for q in seq]) - _sign_changes(at_one) - (at_one[0] == 0) > 0


# an h that the float minimum cannot separate from zero counts as touching
# zero when its exact minimum inside (0, 1) is at most this fraction of its
# largest coefficient: a few ulp, the resolution of the float coefficients
_TOUCH_RTOL = 2.0**-50


def _has_interior_zero(h: BernsteinPoly) -> bool:
    """Certificate-based detection of a zero of h inside (0, 1).

    Endpoint zeros are deflated exactly first. Then the subdivision walk
    runs with the floor 1e-12 * scale: when it drops every subinterval
    there, every Bernstein coefficient bound, and so h, stays above the
    floor and h has no zero. When it finds a value below the floor, or ends
    undecided, the floats cannot decide, so the coefficients are read as
    exact rationals: h touches zero when h - 2^-50 * scale (every Bernstein
    coefficient lowered by that much) has a root inside (0, 1), that is,
    when the exact minimum of h there is at most 2^-50 * scale. A tiny but
    resolvable positive minimum is thus never claimed as a zero.
    """
    c = h.coeffs
    scale = max(1.0, float(np.max(np.abs(c))))
    while c.size > 1 and abs(c[0]) <= 1e-13 * scale:
        c = _deflate_left(c)
    while c.size > 1 and abs(c[-1]) <= 1e-13 * scale:
        c = _deflate_right(c)
    if c.size == 1:
        return False
    gscale = max(1.0, float(np.max(np.abs(c))))
    floor = _SLACK * gscale
    _, vmin, _, undecided = _branch_and_bound(c, floor, _CERTIFY_DEPTH)
    if vmin >= floor and not undecided:
        return False
    return _exact_root_inside(c, _TOUCH_RTOL * gscale)


def _elevation_clears(c: np.ndarray, M: int) -> bool:
    # every degree-M coefficient >= -1e-12; stops at the first block that fails
    return all(np.min(block) >= -_SLACK for block in _elevated_blocks(c, M))


def lorentz_degree(h: BernsteinPoly, cap: int = 512) -> int | str:
    """Smallest degree M at which all Bernstein coefficients of h are >= 0.

    Returns "infinite" when h has a zero inside (0,1), since then no
    elevation ever clears the coefficients. Elevation averages coefficients,
    so the least one never decreases with M and passing the -1e-12 test is
    monotone in M: one direct elevation to the cap answers "exceeds cap",
    and otherwise M is found by galloping up from deg(h) and bisecting, each
    probe one direct degree-M elevation.

    Raises
    ------
    ValueError
        If cap is not an integer >= deg(h), or h is negative somewhere on [0,1].
    """
    cap = _check_int("cap", cap, _check_type("h", h, BernsteinPoly).degree)
    report = certify_nonnegative(h)
    if not report.nonneg:
        raise ValueError(f"h is negative near t = {report.witness}")
    c = h.coeffs
    if np.min(c) >= -_SLACK:
        return h.degree
    if _has_interior_zero(h):
        return "infinite"
    if not _elevation_clears(c, cap):
        return "exceeds cap"
    # fails at lo, clears at hi; probe lo + step, doubling the step after
    # each failure, until a probe clears, then halve [lo, hi]
    lo, hi, step = h.degree, cap, 1
    while hi - lo > 1:
        mid = min(lo + step, (lo + hi) // 2)
        if _elevation_clears(c, mid):
            hi = mid
        else:
            lo, step = mid, 2 * step
    return hi

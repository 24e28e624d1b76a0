"""Shared constants and independent oracles for the test suite.

Everything here is deliberately implemented by a different route than the
library code it checks (quadrature, finite differences, brute force,
rational arithmetic), so oracle and implementation cannot share a bug.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import sympy
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import minimize
from scipy.special import gammaln

import pickpoly
from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    PickandsPoly,
    a_from_h,
    copula_cdf,
    endpoint_functionals,
    evaluate,
    log_likelihood,
    sample_feasible,
    theta_to_pickands,
)
from pickpoly.full_model import _sampling_box, _theta_objective, form_matrices
from pickpoly.inference import (
    _FTOL,
    _LogLik,
    _polytope_starts,
    greatest_convex_minorant,
)
from pickpoly.pickands import _cap_weights

# The quartic model: A = 1 - (83/180)t + t^2 - (7/9)t^3 + (43/180)t^4,
# whose second derivative has Bernstein coefficients [2, -1/3, 1/5].
POLFULL_H = np.array([2.0, -1.0 / 3.0, 0.2])
POLFULL_POWER = np.array([1.0, -83.0 / 180.0, 1.0, -7.0 / 9.0, 43.0 / 180.0])

ALOG_PARAMS = (0.5, 0.1, 0.5)  # (alpha, psi1, psi2) used in the simulation study
MIX_PSI = 0.9


def alog_value(t, alpha, psi1, psi2):
    """Asymmetric logistic A(t), written independently of the library."""
    t = np.asarray(t, dtype=float)
    inner = (psi1 * t) ** (1.0 / alpha) + (psi2 * (1.0 - t)) ** (1.0 / alpha)
    return (1.0 - psi1) * t + (1.0 - psi2) * (1.0 - t) + inner**alpha


def exact_basis(k: int, m: int, x: float) -> Fraction:
    """b_{k,m}(x) = C(m,k) x^k (1-x)^(m-k) in rational arithmetic, x read exactly.

    An index outside 0..m gives 0, as a binomial pmf does.
    """
    if not 0 <= k <= m:
        return Fraction(0)
    x = Fraction(x)
    return math.comb(m, k) * x**k * (1 - x) ** (m - k)


def mpmath_alog_tau2(alpha: float, psi1: float, psi2: float) -> float:
    """tau2 = 4{1 - int_0^1 A} of the asymmetric logistic by 30-digit tanh-sinh quadrature.

    The integral is split at t = psi2 / (psi1 + psi2), where the two bracket
    terms are equal and A bends most sharply for small alpha.
    """
    with mpmath.workdps(30):
        a, p1, p2 = mpmath.mpf(alpha), mpmath.mpf(psi1), mpmath.mpf(psi2)

        def A(t):
            return (1 - p1) * t + (1 - p2) * (1 - t) + ((p1 * t) ** (1 / a) + (p2 * (1 - t)) ** (1 / a)) ** a

        return float(4 * (1 - mpmath.quad(A, [0, p2 / (p1 + p2), 1])))


def mpmath_alog_kernel(alpha: float, psi1: float, psi2: float, t: float) -> tuple[float, float, float]:
    """The asymmetric logistic's (A, A', A'') at a float t in (0, 1), to 50 digits.

    With r = 1/alpha, a = (psi1 t)^r, b = {psi2 (1-t)}^r and g = a + b:
    A' = psi2 - psi1 + g^(alpha-1) (a/t - b/(1-t)) is the chain rule with
    alpha r = 1, and A'' = (r-1) g^(alpha-2) a b / {t (1-t)}^2 is the chain
    rule alpha g^(alpha-2) {g g'' - (1-alpha) g'^2} with the bracket summed
    by hand. mpmath's exponent range holds every term, and no sum cancels
    more than A' itself.
    """
    with mpmath.workdps(50):
        al, p1, p2, x = (mpmath.mpf(v) for v in (alpha, psi1, psi2, t))
        r, s = 1 / al, 1 - x
        a, b = (p1 * x) ** r, (p2 * s) ** r
        g = a + b
        return (float((1 - p1) * x + (1 - p2) * s + g**al),
                float(p2 - p1 + g ** (al - 1) * (a / x - b / s)),
                float((r - 1) * g ** (al - 2) * a * b / (x * s) ** 2))


def derivative_coeffs(P: BernsteinPoly) -> BernsteinPoly:
    """Coefficients of P': c(k, m-1; P') = m * (c(k+1) - c(k)).

    A degree-0 input returns the zero polynomial of degree 0. Evaluated by
    ``evaluate``, it is a route to A' apart from the library's one-pass kernel.
    """
    m = P.degree
    if m == 0:
        return BernsteinPoly(np.zeros(1))
    return BernsteinPoly(m * np.diff(P.coeffs))


def quad_a_from_h(h: BernsteinPoly, t: float) -> float:
    """A(t) = 1 - int_0^1 min{(1-t)w, t(1-w)} h(w) dw by adaptive quadrature.

    The kernel's kink sits at w = t, so the integral is split there.
    """
    left, _ = integrate.quad(lambda w: (1.0 - t) * w * evaluate(h, w), 0.0, t,
                             epsabs=1e-11, limit=200)
    right, _ = integrate.quad(lambda w: t * (1.0 - w) * evaluate(h, w), t, 1.0,
                              epsabs=1e-11, limit=200)
    return 1.0 - left - right


def fd_mixed_partial(A, u: float, v: float, step: float = 1e-4) -> float:
    """Second-order finite-difference mixed partial of the copula cdf."""
    return (
        copula_cdf(A, u + step, v + step)
        - copula_cdf(A, u + step, v - step)
        - copula_cdf(A, u - step, v + step)
        + copula_cdf(A, u - step, v - step)
    ) / (4.0 * step * step)


def lukacs_quadratic_theta(power_coeffs) -> np.ndarray:
    """Brute-force Lukacs decomposition of a positive quadratic on [0,1].

    For h = c + b t + a t^2 with h > 0 on [0,1], solves
    h = (p0 + p1 t)^2 + t(1-t) q^2 by matching coefficients; both branches of
    the quadratic for p1 are tried and the one with q^2 >= 0 wins. Returns
    theta = (P(0), P(1), q) — the m = 2 parameter vector.
    """
    c, b, a = (float(x) for x in power_coeffs)
    if c <= 0 or a + b + c <= 0:
        raise ValueError("expected h(0) > 0 and h(1) > 0")
    p0 = np.sqrt(c)
    best = None
    for sign in (+1.0, -1.0):
        p1 = -p0 + sign * np.sqrt(a + b + c)
        q_sq = b - 2.0 * p0 * p1
        if q_sq >= -1e-12:
            resid = abs(a - (p1 * p1 - max(q_sq, 0.0)))
            if best is None or resid < best[0]:
                best = (resid, p1, max(q_sq, 0.0))
    if best is None:
        raise ValueError("no Lukacs decomposition found")
    _, p1, q_sq = best
    return np.array([p0, p0 + p1, np.sqrt(q_sq)])


def exact_lorentz_degree(coeffs_rational, cap: int = 300):
    """Lorentz degree by exact rational degree elevation (oracle)."""
    c = [Fraction(x) for x in coeffs_rational]
    m = len(c) - 1
    for M in range(m, cap + 1):
        if all(x >= 0 for x in c):
            return M
        nxt = [c[0]]
        deg = len(c) - 1
        for j in range(1, deg + 1):
            w = Fraction(j, deg + 1)
            nxt.append(w * c[j - 1] + (1 - w) * c[j])
        nxt.append(c[-1])
        c = nxt
    return None


def iterated_elevation(coeffs, target: int) -> np.ndarray:
    """Degree elevation by the single-step averaging identity, repeated (oracle).

    c(j, m+1) = (j/(m+1)) c(j-1, m) + (1 - j/(m+1)) c(j, m), applied
    target - m times: the library's former route, which shares no weight
    with the direct degree-m -> target map.
    """
    c = np.asarray(coeffs, dtype=float)
    for _ in range(target - (c.size - 1)):
        j = np.arange(1, c.size) / c.size
        c = np.concatenate([c[:1], j * c[:-1] + (1.0 - j) * c[1:], c[-1:]])
    return c


def _elevated_numerators(coeffs, target: int) -> tuple[list[int], int]:
    # c_j(M) = sum_k c_k C(m,k) C(M-m, j-k) / C(M, j); with the exact
    # rationals c_k = num_k / den this returns (s, den), c_j(M) = s_j / (den C(M, j))
    fr = [Fraction(x) for x in coeffs]
    den = math.lcm(*(f.denominator for f in fr))
    m = len(fr) - 1
    w = [int(f * den) * math.comb(m, k) for k, f in enumerate(fr)]
    row = [math.comb(target - m, i) for i in range(target - m + 1)]
    return [sum(w[k] * row[j - k] for k in range(max(0, j - target + m), min(m, j) + 1))
            for j in range(target + 1)], den


def exact_elevation(coeffs, target: int) -> list[Fraction]:
    """Degree-``target`` Bernstein coefficients of exact rational (or float) ``coeffs``."""
    s, den = _elevated_numerators(coeffs, target)
    return [Fraction(sj, den * math.comb(target, j)) for j, sj in enumerate(s)]


def exact_elevation_clears(coeffs, target: int) -> bool:
    """Whether every exact degree-``target`` coefficient is >= -1e-12.

    One integer comparison per coefficient: s_j 10^12 >= -den C(target, j).
    """
    s, den = _elevated_numerators(coeffs, target)
    return all(sj * 10**12 >= -den * math.comb(target, j) for j, sj in enumerate(s))


def gcm_bruteforce(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Greatest convex minorant on a grid via supporting lines, O(n^3)."""
    n = x.size
    out = np.full(n, -np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            slope = (f[j] - f[i]) / (x[j] - x[i])
            line = f[i] + slope * (x - x[i])
            if np.all(line <= f + 1e-12):
                out = np.maximum(out, line)
    return out


def lower_hull_exact(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Greatest convex minorant at the knots, in exact rationals, O(n^2).

    Gift wrapping: from each vertex of the lower hull the next one is the
    farthest knot of least chord slope, so exact collinear runs and repeated
    values are settled by exact comparisons. Between two vertices the hull is
    their chord, evaluated exactly and rounded once to float.
    """
    xs = [Fraction(float(v)) for v in x]
    fs = [Fraction(float(v)) for v in f]
    n = len(xs)
    out = [0.0] * n
    i = 0
    out[0] = float(fs[0])
    while i < n - 1:
        slopes = [(fs[j] - fs[i]) / (xs[j] - xs[i]) for j in range(i + 1, n)]
        least = min(slopes)
        k = i + 1 + max(j for j, sl in enumerate(slopes) if sl == least)
        for j in range(i + 1, k + 1):
            out[j] = float(fs[i] + least * (xs[j] - xs[i]))
        i = k
    return np.array(out)


def cfg_grid_pass(u: np.ndarray, v: np.ndarray, grid: int) -> np.ndarray:
    """The CFG estimate's grid values by the direct n-by-grid pass.

    min{log(-log u_i) - log(1-t), log(-log v_i) - log t} for every pair and
    grid point, averaged over the pairs by an exact sum (``math.fsum``) per
    grid point, then the endpoint correction, the clamp into [V, 1] and the
    greatest convex minorant, as ``fit_cfg`` documents them.
    """
    tgrid = np.linspace(0.0, 1.0, grid)
    log_lu = np.log(-np.log(u))
    log_lv = np.log(-np.log(v))
    with np.errstate(divide="ignore"):
        log_1mt = np.log1p(-tgrid)
        log_t = np.log(tgrid)
    logxi = np.minimum(log_lu[:, None] - log_1mt[None, :], log_lv[:, None] - log_t[None, :])
    mean_logxi = np.array([math.fsum(col) for col in logxi.T]) / u.size
    log_a = -np.euler_gamma - mean_logxi
    log_a = log_a - (1.0 - tgrid) * log_a[0] - tgrid * log_a[-1]
    clamped = np.minimum(1.0, np.maximum(np.exp(log_a), np.maximum(1.0 - tgrid, tgrid)))
    return greatest_convex_minorant(clamped, tgrid)


@dataclass(frozen=True)
class HypergeoSpec:
    """Hypergeometric(n, M, N): k successes drawing n from M marked of N."""

    n: int
    M: int
    N: int

    def __post_init__(self):
        if not (0 <= self.n <= self.N and 0 <= self.M <= self.N):
            raise ValueError(f"invalid hypergeometric spec {self}")

    def support(self) -> range:
        return range(max(0, self.n + self.M - self.N), min(self.n, self.M) + 1)


def hypergeo_pmf(spec: HypergeoSpec, k: int) -> float:
    """P(Y = k) = C(M,k) C(N-M,n-k) / C(N,n) via log-gamma; 0 off support."""
    if k not in spec.support():
        return 0.0
    n, M, N = spec.n, spec.M, spec.N

    def logc(a, b):
        return gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)

    return float(np.exp(logc(M, k) + logc(N - M, n - k) - logc(N, n)))


def hypergeo_coefficient_tensor(m: int) -> np.ndarray:
    """Coefficient tensor of h_theta from hypergeometric expectations (oracle).

    c(k, m; P^2) = E[p_Y p_{k-Y}] with Y ~ Hypergeometric(k, deg P, m), and
    likewise for the Q part of P^2 + t(1-t) Q^2 (m even) or
    t P^2 + (1-t) Q^2 (m odd), one support point at a time.
    """
    T = np.zeros((m + 1, m + 1, m + 1))
    if m % 2 == 0:
        dp = m // 2          # degree of P; Q has degree dp - 1
        qoff = dp + 1
        for k in range(m + 1):
            sp = HypergeoSpec(k, dp, m)
            for y in sp.support():
                if 0 <= k - y <= dp:
                    T[k, y, k - y] += hypergeo_pmf(sp, y)
            if 1 <= k <= m - 1:
                w = k * (m - k) / (m * (m - 1))
                sq = HypergeoSpec(k - 1, dp - 1, m - 2)
                for y in sq.support():
                    if 0 <= k - y - 1 <= dp - 1:
                        T[k, qoff + y, qoff + k - y - 1] += w * hypergeo_pmf(sq, y)
    else:
        d = (m - 1) // 2     # degree of both P and Q
        qoff = d + 1
        for k in range(m + 1):
            if k >= 1:
                sp = HypergeoSpec(k - 1, d, m - 1)
                for y in sp.support():
                    if 0 <= k - 1 - y <= d:
                        T[k, y, k - 1 - y] += (k / m) * hypergeo_pmf(sp, y)
            if k <= m - 1:
                sq = HypergeoSpec(k, d, m - 1)
                for y in sq.support():
                    if 0 <= k - y <= d:
                        T[k, qoff + y, qoff + k - y] += ((m - k) / m) * hypergeo_pmf(sq, y)
    return 0.5 * (T + np.transpose(T, (0, 2, 1)))


_T = sympy.Symbol("t")


def _bernstein_expr(coeffs):
    m = len(coeffs) - 1
    return sum(sympy.Rational(c) * math.comb(m, k) * _T**k * (1 - _T) ** (m - k)
               for k, c in enumerate(coeffs))


def _bernstein_from_poly(poly: sympy.Poly, m: int) -> list[Fraction]:
    # exact basis change c_k = sum_{j<=k} C(k,j)/C(m,j) a_j
    a = [Fraction(int(x.p), int(x.q)) for x in reversed(poly.all_coeffs())]
    a += [Fraction(0)] * (m + 1 - len(a))
    return [sum(Fraction(math.comb(k, j), math.comb(m, j)) * a[j] for j in range(k + 1))
            for k in range(m + 1)]


def _root_and_cofactor(draw):
    # a rational point r = a/b of (0, 1) and g with positive rational
    # Bernstein coefficients (so g >= 1/16 on [0,1])
    b = draw(st.integers(2, 64))
    r = sympy.Rational(draw(st.integers(1, b - 1)), b)
    g = _bernstein_expr([Fraction(n, 16)
                         for n in draw(st.lists(st.integers(1, 64), min_size=1, max_size=5))])
    return r, g


@st.composite
def double_root_polys(draw):
    """Exact Bernstein coefficients of (t - r)^2 g, whose minimum 0 on [0,1]
    sits at the rational point r of (0, 1)."""
    r, g = _root_and_cofactor(draw)
    poly = sympy.Poly(sympy.expand((_T - r) ** 2 * g), _T)
    return _bernstein_from_poly(poly, poly.degree())


@st.composite
def rational_root_polys(draw):
    """Exact Bernstein coefficients of (t - r)^2 g + s or (t - r) g.

    r = a/b is a rational point of (0, 1), g has positive rational Bernstein
    coefficients (so g >= 1/16 on [0,1]) and the shift s is 0 or +-delta
    with delta >= 1e-9. The minimum on [0,1] is then exactly 0, at least
    delta, at most -delta, or (simple root) at most -1/(64*16): never in
    [-1e-12, 0), where the certificate's -1e-12 floor may disagree with the
    exact sign.
    """
    r, g = _root_and_cofactor(draw)
    if draw(st.booleans()):
        delta = sympy.Rational(1, 10 ** draw(st.integers(2, 9))) * draw(st.sampled_from([-1, 0, 1]))
        expr = (_T - r) ** 2 * g + delta
    else:
        expr = (_T - r) * g
    poly = sympy.Poly(sympy.expand(expr), _T)
    return _bernstein_from_poly(poly, poly.degree())


def _loop_split(c: np.ndarray):
    """Halves of c at x = 1/2, one de Casteljau averaging level at a time."""
    n = c.size
    left, right = np.empty(n), np.empty(n)
    left[0], right[-1] = c[0], c[-1]
    for r in range(1, n):
        c = 0.5 * (c[:-1] + c[1:])
        left[r], right[n - 1 - r] = c[0], c[-1]
    return left, right


def _loop_value(c: np.ndarray, x: float) -> float:
    """Value at x by the full de Casteljau triangle, one level at a time."""
    while c.size > 1:
        c = c[:-1] + x * (c[1:] - c[:-1])
    return float(c[0])


def loop_branch_and_bound(coeffs, floor, max_depth: int):
    """The subdivision walk with per-level loops for the split, plus a probe (oracle).

    Same drop and floor rule as ``pickpoly.bernstein._branch_and_bound``,
    which does each split as one product with a cached matrix, and the same
    (abscissa, value, splits, undecided) return. It also probes each kept
    subinterval at the abscissa k/d of its least coefficient, by a full de
    Casteljau triangle, a value the library walk does not read. So it may
    stop sooner on a negative input, with its witness at k/d rather than at
    a split midpoint, and its minimum search may lower its incumbent sooner;
    but on an input it certifies, no probe is below the floor and it takes
    the same splits.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    deg = coeffs.size - 1
    best_t, best_v = (0.0, coeffs[0]) if coeffs[0] <= coeffs[-1] else (1.0, coeffs[-1])
    splits, undecided = 0, False
    stack = [(0.0, 1.0, coeffs, 0)]
    while stack and (floor is None or best_v >= floor):
        a, b, c, depth = stack.pop()
        bound = best_v if floor is None else floor
        k = int(np.argmin(c))
        if c[k] >= bound:
            continue
        v = _loop_value(c, k / deg)
        if v < best_v:
            best_t, best_v = a + (b - a) * k / deg, v
        if floor is not None and v < floor:
            break
        if depth >= max_depth:
            undecided = True
            continue
        left, right = _loop_split(c)
        splits += 1
        mid = 0.5 * (a + b)
        if left[-1] < best_v:
            best_t, best_v = mid, left[-1]
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))
    return best_t, float(best_v), splits, undecided


def assert_correctly_rounded(entry: float, exact: Fraction) -> None:
    """entry is exact to within one ulp; +-inf only where exact rounds past the float range."""
    if math.isinf(entry):
        # the largest float is 2^1024 - 2^971; from the halfway point on, values round to inf
        assert abs(exact) >= 2**1024 - 2**970 and (entry > 0) == (exact > 0), (entry, exact)
    else:
        assert abs(Fraction(entry) - exact) <= Fraction(math.ulp(entry)), (entry, exact)


def exact_nonnegative(coeffs) -> bool:
    """Whether the polynomial with rational Bernstein coefficients is >= 0 on [0,1].

    Exact: it changes sign inside (0,1) iff a factor of odd multiplicity in
    its square-free decomposition has a root there (Sturm root counting);
    otherwise its sign on [0,1] is that at any rational non-root.
    """
    poly = sympy.Poly(_bernstein_expr(coeffs), _T)
    if poly.is_zero:
        return True
    for factor, mult in poly.sqf_list()[1]:
        if mult % 2 == 1:
            inside = factor.count_roots(0, 1) - (factor.eval(0) == 0) - (factor.eval(1) == 0)
            if inside > 0:
                return False
    q = next(sympy.Rational(1, n) for n in range(2, poly.degree() + 3)
             if poly.eval(sympy.Rational(1, n)) != 0)
    return bool(poly.eval(q) > 0)


def exact_minimum(coeffs) -> float:
    """Minimum on [0,1] over the endpoints and the real critical points inside."""
    poly = sympy.Poly(_bernstein_expr(coeffs), _T)
    values = [poly.eval(0), poly.eval(1)]
    if poly.degree() >= 2:
        values += [poly.as_expr().subs(_T, x).evalf(40)
                   for x in sympy.real_roots(poly.diff(_T)) if 0 < x < 1]
    return float(min(values))


def bisection_conditional(A, u, w) -> np.ndarray:
    """v with dC/du(u, v) = w by 80 bisection steps on (1e-14, 1 - 1e-14) (oracle).

    The sampler's former root finder: the analytic partial
    dC/du = (C/u){A(t) - t A'(t)} and nothing else, so it shares no slope,
    step rule or stopping test with the Newton iteration it checks.
    """
    logu = np.log(u)
    lo = np.full(u.shape, 1e-14)
    hi = np.full(u.shape, 1.0 - 1e-14)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        logm = np.log(mid)
        s = logu + logm
        t = logm / s
        a, d1, _ = A.kernel(t)
        cond = np.exp(s * a - logu) * (a - t * d1)
        go_left = cond >= w
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
    return 0.5 * (lo + hi)


def conditional_cdf(A, u, v):
    """dC/du(u, v) = (C/u){A(t) - t A'(t)} with t = log v / log uv."""
    logu, logv = np.log(u), np.log(v)
    s = logu + logv
    t = logv / s
    a, d1, _ = A.kernel(t)
    return np.exp(s * a - logu) * (a - t * d1)


def exact_roots_inside(coeffs) -> int:
    """Number of distinct roots in the open interval (0, 1) of the polynomial
    with rational Bernstein coefficients ``coeffs`` (sympy root counting on
    its square-free part)."""
    poly = sympy.Poly(_bernstein_expr(coeffs), _T)
    if poly.degree() < 1:
        return 0
    part = poly.sqf_part()
    return part.count_roots(0, 1) - (part.eval(0) == 0) - (part.eval(1) == 0)


def slsqp_multistart_loglik(data, m: int, config, model: str) -> float:
    """Best loglik of one SLSQP search per start, the oracle for fit_full / fit_sub.

    The library's former multistart: the same starts as ``fit_full``
    (``model="full"``) or ``fit_sub`` (``"sub"``), each searched on its own by
    scipy's SLSQP with exact constraint Jacobians, each final point pulled
    radially back into the parameter space and scored by the public
    ``log_likelihood``; the independence point (loglik 0) is the floor. It
    shares the likelihood engine's value and gradient with the library, but
    not its optimizer or stopping rules.
    """
    engine = _LogLik([data], m)
    options = {"ftol": _FTOL, "maxiter": config.maxfev}
    spawn = 0 if model == "full" else 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(spawn,)))
    if model == "full" and m > 0:
        Q = np.stack(form_matrices(m))
        starts = sample_feasible(m, rng, config.starts)
        fun = _row_objective(_theta_objective(engine.objective, _cap_weights(m) / (m + 1)))
        problem = {"constraints": {"type": "ineq", "fun": lambda th: 1.0 - (Q @ th) @ th,
                                   "jac": lambda th: -2.0 * (Q @ th)}}
    else:
        W = _cap_weights(m) / (m + 1)
        starts = (sample_feasible(0, rng, config.starts) if model == "full"
                  else _polytope_starts(m, rng, config.starts, W))
        fun = _row_objective(engine.objective)
        problem = {"bounds": [(0.0, None)] * (m + 1),
                   "constraints": {"type": "ineq", "fun": lambda c: 1.0 - W @ c, "jac": lambda c: -W}}
    best = 0.0
    for x0 in starts:
        x = minimize(fun, x0, jac=True, method="SLSQP", options=options, **problem).x
        if not np.all(np.isfinite(x)):
            continue
        if model == "full" and m > 0:
            x = x / np.sqrt(max(1.0, *((Q @ x) @ x)))
            estimate = theta_to_pickands(FullModelParam(m, x))
        else:
            h = BernsteinPoly(np.maximum(x, 0.0))
            h = BernsteinPoly(h.coeffs / max(1.0, *endpoint_functionals(h)))
            estimate = PickandsPoly(a_from_h(h))
        best = max(best, log_likelihood(estimate, data))
    return best


def _row_objective(batched):
    # the engine evaluates stacks of points; SLSQP asks for one at a time and
    # keeps its own constraints, so only the value and gradient are read
    def fun(x):
        f, g = batched(x[None, :], np.zeros(1, int))[:2]
        return float(f[0]), g[0]
    return fun


def sample_feasible_forty_batches(m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """The former ``sample_feasible``: always up to 40 box-rejection batches.

    Kept as the reference for the draws at m <= 5, where the first batch
    accepts enough that the library never stops box rejection early.
    """
    if m == 0:
        return rng.uniform(0.0, 2.0, size=(count, 1))
    Q0, Q1 = form_matrices(m)
    box = _sampling_box(m)
    out, have = [], 0
    for _ in range(40):
        cand = rng.uniform(-1.0, 1.0, size=(max(8 * count, 2048), m + 1)) * box
        q0 = np.einsum("ri,ij,rj->r", cand, Q0, cand)
        q1 = np.einsum("ri,ij,rj->r", cand, Q1, cand)
        keep = cand[(q0 <= 1.0) & (q1 <= 1.0)]
        if keep.size:
            out.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(out)[:count]
    xi = rng.normal(size=(count - have, m + 1))
    q0 = np.einsum("ri,ij,rj->r", xi, Q0, xi)
    q1 = np.einsum("ri,ij,rj->r", xi, Q1, xi)
    radius = 1.0 / np.sqrt(np.maximum(q0, q1))
    radial = rng.uniform(size=count - have) ** (1.0 / (m + 1))
    out.append(xi * (radius * radial)[:, None])
    return np.concatenate(out)[:count]


def warning_after_first(fn):
    """fn, taking log 0 on every call after its first, and the sizes of its calls' first arguments."""
    calls = []

    def warning(x, *rest):
        if calls:
            np.log(np.zeros(1))
        calls.append(len(x))
        return fn(x, *rest)
    return warning, calls


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python args...`` in a fresh interpreter that imports this pickpoly.

    Modules the test suite has loaded do not count there, and neither does
    pytest's capture of warnings: stdout and stderr are the process's own.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pickpoly.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)

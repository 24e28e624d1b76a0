"""Bernstein-basis polynomial algebra on the unit interval.

Everything downstream (dependence functions, spectral densities, the two
parametric models) stores polynomials in the Bernstein basis

    b_{k,m}(x) = C(m,k) x^k (1-x)^(m-k),   k = 0..m,

because the constraints of interest act directly on the coefficients.
Evaluation uses the de Casteljau convex-combination scheme and degree
elevation one direct map built from exact binomial ratio chains. The basis
changes and the subdivision walk's split are fixed linear maps of the
coefficients, one matrix per degree: each entry is an exact rational
rounded once to the nearest float, and each matrix is built on first use
and kept in a small cache. The basis changes sum in extended precision. No
least-squares fitting anywhere.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


def basis_eval(k: int, m: int, x):
    """Evaluate the basis polynomial b_{k,m}(x) = C(m,k) x^k (1-x)^(m-k).

    x may be a scalar or an array. C(m,k) is the exact integer, taken through
    its logarithm, so large m neither overflows nor underflows early; x = 0
    and x = 1 are exact.

    Raises
    ------
    ValueError
        If m is not an integer >= 0, k not an integer in 0..m, or x not
        real numbers in [0,1].
    """
    m = _check_int("m", m)
    k = _check_int("k", k, 0, m)
    xa = _real_array("x", x, interval="[0, 1]")
    with np.errstate(divide="ignore"):  # log 0 = -inf, read only under a nonzero power
        s = (math.log(math.comb(m, k)) + (k * np.log(xa) if k else np.zeros_like(xa))
             + ((m - k) * np.log1p(-xa) if k < m else 0.0))
    out = np.exp(s)
    return float(out) if out.ndim == 0 else out


# The checks of outside input shared by every module: JSON objects, integers,
# real numbers and arrays of them, each rejected with a ValueError that names
# it. Integers are checked outside any lru_cache, whose hit takes True for 1.

def _check_keys(obj, known, where: str, required=()) -> None:
    """A ValueError naming the keys unless obj is a dict with all required keys, none unknown."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; expected a subset of {sorted(known)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{where} is missing the required keys {missing}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(name: str, value, low: int = 0, high: int | None = None) -> int:
    # value as an int; a ValueError names it unless it is an int or a numpy
    # integer (no bool, integral float or string) >= low, and <= high if given
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real_float(name: str, x) -> float:
    # x as a float; a ValueError names it if it is a bool, a string or
    # another non-real, or an int past the float range
    if _is_real(x):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {x!r}")


def _real_array(name: str, x, size: int | None = None, size_name: str = "",
                min_size: int | None = None, finite: bool = False,
                interval: str | None = None) -> np.ndarray:
    """x as a float array of real numbers (no bool, string or other object).

    ``size`` (``size_name`` in messages) or ``min_size`` asks for a 1-d array
    of exactly or at least that many entries, ``finite`` for finite entries,
    ``interval`` "[0, 1]" or "(0, 1)" for entries inside it; else a ValueError
    "<name> must be ..., got ...". A list's entries are judged one by one by
    _real_float, which names the first it rejects (numpy infers one dtype for
    a list, and dtype=float takes bools and numeric strings); an ndarray by
    its dtype and two reductions. A float64 array comes back as is.
    """
    xa = obj = None
    try:
        if isinstance(x, (list, tuple)):
            obj = np.array(x, dtype=object)
            if all(_is_real(e) for e in obj.flat):
                xa = obj.astype(float)
        else:
            xa = np.asarray(x)
            xa = np.asarray(xa, dtype=float) if xa.dtype.kind in "iuf" else None
    except (ValueError, TypeError, OverflowError):  # ragged nesting, or an int past the float range
        pass
    if xa is None:
        for i, e in np.ndenumerate(obj if obj is not None else ()):
            _real_float(f"{name}{list(i)}", e)
        got = f"an array of dtype {x.dtype}" if isinstance(x, np.ndarray) else reprlib.repr(x)
    elif (size is not None or min_size is not None) and (
            xa.ndim != 1 or (xa.size != size if size is not None else xa.size < min_size)):
        got = f"shape {xa.shape}"
    elif (finite or interval) and xa.size:
        lo, hi = xa.min(), xa.max()  # nan if any entry is
        low_ok, high_ok = {"(0, 1)": (lo > 0.0, hi < 1.0), "[0, 1]": (lo >= 0.0, hi <= 1.0),
                           None: (lo > -math.inf, hi < math.inf)}[interval]
        if low_ok and high_ok:
            return xa
        got = repr(float(hi if low_ok else lo))
    else:
        return xa
    real = f"{'finite ' if finite and not interval else ''}real number"
    count = f"{size_name} = {size}" if size is not None else f"at least {min_size}"
    rule = (f"a {real} or an array of them" if size is None and min_size is None
            else f"a 1-d array of {count} {real}s")
    raise ValueError(f"{name} must be {rule}{' in ' + interval if interval else ''}, got {got}")


def _frozen(a: np.ndarray) -> np.ndarray:
    # a, made read-only: the one way an array is frozen, for caches and fields
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BernsteinPoly:
    """Polynomial on [0,1] stored by its Bernstein coefficients.

    ``coeffs[k]`` is the coefficient of b_{k, degree}; the degree is the
    representation degree (len(coeffs) - 1), which may exceed the natural
    degree after elevation.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _real_array("coeffs", self.coeffs, min_size=1, finite=True)
        object.__setattr__(self, "coeffs", _frozen(c.copy()))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return evaluate(self, x)


@dataclass(frozen=True)
class PowerPoly:
    """Polynomial stored in the power basis; ``coeffs[k]`` multiplies t**k."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _real_array("coeffs", self.coeffs, min_size=1, finite=True)
        object.__setattr__(self, "coeffs", _frozen(c.copy()))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def natural_degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        x = _real_array("x", x)  # any real x: the power basis has no domain limit
        out = np.zeros_like(x)
        for c in self.coeffs[::-1]:
            out = out * x + c
        return float(out) if out.ndim == 0 else out


def evaluate(P: BernsteinPoly, x):
    """Evaluate P at x in [0,1] by repeated linear interpolation (de Casteljau).

    Accepts a scalar or an array of abscissae. The convex-combination scheme
    keeps evaluation stable when coefficients sit near feasibility boundaries.
    """
    xa = _real_array("x", x, interval="[0, 1]")
    val = eval_with_derivatives(P.coeffs, xa.ravel())[0]
    return float(val[0]) if xa.ndim == 0 else val.reshape(xa.shape)


def eval_with_derivatives(coeffs: np.ndarray, x: np.ndarray):
    """Value, first and second derivative at x from one de Casteljau triangle.

    Internal fast path (no domain checks): x must be a 1-d ndarray in [0,1].
    ``coeffs`` is one coefficient vector, giving three arrays shaped like x,
    or a (rows x (m+1)) stack of them, giving three (rows x x.size) arrays
    whose row r is, bit for bit, what coefficient row r gives alone; with
    a stack, x may also be (rows x k), one row of abscissae per coefficient
    row.
    """
    m = coeffs.shape[-1] - 1
    # the triangle's level axis first: (m+1, [rows,] x.size)
    c = coeffs.T[..., None]
    shape = np.broadcast_shapes(c.shape[1:], x.shape)
    if m == 0:
        z = np.zeros(shape)
        return np.full(shape, c[0]), z, z
    if m == 1:
        z = np.zeros(shape)
        return c[0] + x * (c[1] - c[0]), np.full(shape, c[1] - c[0]), z
    # each level of the triangle overwrites rows 0..r-1 of b through one
    # scratch block, so wide x allocates two blocks per call rather than
    # three per level; the arithmetic, and so every value, is unchanged
    b = np.broadcast_to(c, (m + 1,) + shape).copy()
    step = np.empty((m,) + shape)
    for r in range(m, 1, -1):
        if r == 2:
            d2 = m * (m - 1) * (b[2] - 2.0 * b[1] + b[0])
        np.subtract(b[1:r + 1], b[:r], out=step[:r])
        step[:r] *= x
        b[:r] += step[:r]
    d1 = m * (b[1] - b[0])
    val = b[0] + x * (b[1] - b[0])
    return val, d1, d2


def derivative_coeffs(P: BernsteinPoly) -> BernsteinPoly:
    """Coefficients of P': c(k, m-1; P') = m * (c(k+1) - c(k)).

    A degree-0 input returns the zero polynomial of degree 0.
    """
    m = P.degree
    if m == 0:
        return BernsteinPoly(np.zeros(1))
    return BernsteinPoly(m * np.diff(P.coeffs))


# the degree-elevation map is built and applied in blocks of rows holding
# at most this many entries, so memory does not grow with the target degree
_ELEVATION_BLOCK = 2**16


def _elevation_rows(m: int, M: int, j: np.ndarray) -> np.ndarray:
    """Rows j of the degree-m -> M elevation map W, c(M) = W c(m).

    W[j,k] = C(j,k) C(M-j,m-k) / C(M,m) is a hypergeometric pmf in k, so
    each row is a ratio chain W[j,k+1] / W[j,k] = (j-k)(m-k) / ((k+1)(M-j-m+k+1))
    with exact integer factors. The chain starts at 1 at the row's mode
    floor((m+1)(j+1)/(M+2)) and walks out both ways, where the ratios are
    below 1, so nothing overflows and only entries far below the mode's
    underflow; dividing by the row sum (1 for the pmf) normalizes it.
    Entries outside the support come out exactly 0.
    """
    j = j[:, None]
    k = np.arange(m)
    mode = (m + 1) * (j + 1) // (M + 2)
    num = ((j - k) * (m - k)).astype(float)
    den = ((k + 1) * (M - j - m + k + 1)).astype(float)
    above = k >= mode
    # rightward ratios from the mode, leftward inverse ratios up to it; the
    # divisor is >= 1 on both sides, and a nonpositive factor marks the end
    # of the support
    step = np.maximum(np.where(above, num, den), 0.0) / np.where(above, den, num)
    w = np.ones((j.shape[0], m + 1))
    w[:, 1:] = np.cumprod(np.where(above, step, 1.0), axis=1)
    w[:, :-1] *= np.cumprod(np.where(above, 1.0, step)[:, ::-1], axis=1)[:, ::-1]
    return w / w.sum(axis=1, keepdims=True)


def _elevated_blocks(c: np.ndarray, M: int):
    """Yield the degree-M Bernstein coefficients of c, one row block at a time."""
    m = c.size - 1
    rows = max(1, _ELEVATION_BLOCK // (m + 1))
    for start in range(0, M + 1, rows):
        yield _elevation_rows(m, M, np.arange(start, min(start + rows, M + 1))) @ c


def elevate_degree(P: BernsteinPoly, target: int) -> BernsteinPoly:
    """Re-express P in the Bernstein basis of a higher degree.

    One direct degree-m -> target map, c_j = sum_k C(j,k) C(target-j, m-k)
    / C(target, m) c_k, with each weight within a few ulp of its exact
    value; values on [0,1] are unchanged.

    Raises
    ------
    ValueError
        If target is not an integer >= P.degree.
    """
    target = _check_int("target", target, P.degree)
    return BernsteinPoly(np.concatenate(list(_elevated_blocks(P.coeffs, target))))


def bernstein_approx(f: Callable[[np.ndarray], np.ndarray], m: int) -> BernsteinPoly:
    """Bernstein approximation of order m: coefficients are f(k/m).

    f maps the array of the m + 1 grid points to an array of its shape.

    Raises
    ------
    ValueError
        If m is not an integer >= 1, or f(grid) is not m + 1 finite real
        numbers.
    """
    m = _check_int("m", m, 1)
    grid = np.arange(m + 1) / m
    return BernsteinPoly(_real_array("f(grid)", f(grid), size=m + 1, size_name="m + 1", finite=True))


# every per-degree table (the basis changes, the walk's split, and those of
# pickands and full_model) is kept for this many recent degrees each; a
# degree-d basis change takes (d+1)^2 long doubles (16 bytes each on x86-64),
# a split matrix 16(d+1)^2 bytes and a coefficient tensor 8(d+1)^3 bytes
_MATRIX_CACHE = 8


def _rounded(num: int, den: int = 1) -> float:
    """The exact rational num/den (den > 0) rounded to the nearest float.

    Python's int / int is correctly rounded, subnormals included; a quotient
    beyond the float range becomes +-inf.
    """
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _extended(M: np.ndarray) -> np.ndarray:
    """M as a read-only np.longdouble array; its float64 entries are held exactly.

    The basis-change sums alternate in sign and cancel nearly all of their
    terms' magnitude. A float64 BLAS product sums the terms of each SIMD
    lane, all of one sign, apart, and had 3 to 7 times the error of an
    ordered loop. numpy sums a long double product in order, without BLAS,
    in the platform's extended precision where it has one (a 64-bit
    significand on x86-64), and each result is rounded to float64 once.
    """
    return _frozen(M.astype(np.longdouble))


def _pascal_rows(m: int):
    """Yield the rows [C(r, 0), ..., C(r, r)] for r = 0..m as exact integers."""
    row = [1]
    yield row
    for r in range(1, m + 1):
        row = [1] + [row[k - 1] + row[k] for k in range(1, r)] + [1]
        yield row


@lru_cache(maxsize=_MATRIX_CACHE)
def _power_to_bernstein_matrix(m: int) -> np.ndarray:
    """T with T[k, j] = C(k, j) / C(m, j) for j <= k: c = T @ a."""
    T = np.zeros((m + 1, m + 1))
    top = [math.comb(m, j) for j in range(m + 1)]
    for k, row in enumerate(_pascal_rows(m)):
        T[k, :k + 1] = [_rounded(x, y) for x, y in zip(row, top)]
    return _extended(T)


@lru_cache(maxsize=_MATRIX_CACHE)
def _bernstein_to_power_matrix(m: int) -> np.ndarray:
    """U with U[j, k] = (-1)^(j-k) C(m, j) C(j, k) for k <= j: a = U @ c."""
    U = np.zeros((m + 1, m + 1))
    for j, row in enumerate(_pascal_rows(m)):
        cmj = math.comb(m, j)
        U[j, :j + 1] = [_rounded(cmj * x if (j - k) % 2 == 0 else -cmj * x)
                        for k, x in enumerate(row)]
    return _extended(U)


def power_to_bernstein(P: PowerPoly, m: int | None = None) -> BernsteinPoly:
    """Basis change from power to Bernstein coefficients.

    c(k, m) = sum_{j<=k} [C(k,j)/C(m,j)] a_j: one product with the cached
    degree-m matrix of these weights, each the exact ratio of integer
    binomials rounded once to float64, summed in extended precision
    (``_extended``). m defaults to the natural degree.

    Raises
    ------
    ValueError
        If m is neither None nor an integer >= the natural degree of P.
    """
    nat = P.natural_degree()
    m = nat if m is None else _check_int("m", m, nat)
    a = P.coeffs[:m + 1]  # entries past m are zero, as m >= the natural degree
    with np.errstate(over="ignore", invalid="ignore"):  # BernsteinPoly rejects non-finite
        c = (_power_to_bernstein_matrix(m)[:, :a.size] @ a).astype(float)
    return BernsteinPoly(c)


def bernstein_to_power(P: BernsteinPoly) -> PowerPoly:
    """Basis change from Bernstein to power coefficients.

    a_j = C(m,j) * sum_{k<=j} (-1)^(j-k) C(j,k) c_k: one product with the
    cached degree-m matrix of the integer weights (-1)^(j-k) C(m,j) C(j,k),
    each rounded once to float64, summed in extended precision
    (``_extended``). From degree 653 on, the largest weights pass the float
    range, the result is not finite, and PowerPoly raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # PowerPoly rejects non-finite
        a = (_bernstein_to_power_matrix(P.degree) @ P.coeffs).astype(float)
    return PowerPoly(a)


@lru_cache(maxsize=_MATRIX_CACHE)
def _split_matrix(d: int) -> np.ndarray:
    """The de Casteljau split at x = 1/2 as one (2(d+1), d+1) matrix [L; R].

    L @ c and R @ c are the degree-d Bernstein coefficients of the halves on
    [0, 1/2] and [1/2, 1]. L[r, k] = C(r, k) / 2^r is the left edge of the
    de Casteljau triangle, and R its reflection, R[r, k] = L[d-r, d-k].
    Each row is symmetric, C(r, k) = C(r, r-k), so only its first half is
    rounded. Up to row 1000 an entry is float(C(r, k)), correctly rounded,
    scaled by 2^-r, which is exact while the result stays normal (it is at
    least 2^-1000); later rows, whose entries can be subnormal, use int / int.
    """
    n = d + 1
    S = np.zeros((2 * n, n))
    for r, row in enumerate(_pascal_rows(d)):
        half = row[:r // 2 + 1]
        if r <= 1000:
            half = [math.ldexp(float(x), -r) for x in half]
        else:
            half = [_rounded(x, 1 << r) for x in half]
        S[r, :len(half)] = half
        S[r, r - len(half) + 1:r + 1] = half[::-1]
    S[n:] = S[d::-1, ::-1]
    return _frozen(S)


# subintervals at depth 34 are 2**-34 < 1e-10 wide: the minimum's abscissa
# is localized to 1e-10
_MINIMUM_DEPTH = 34


def _branch_and_bound(coeffs: np.ndarray, floor: float | None, max_depth: int):
    """Search the polynomial with Bernstein coefficients ``coeffs`` for low values on [0,1].

    The least coefficient on a subinterval bounds the polynomial below there,
    so a subinterval is dropped once that bound reaches the floor: the fixed
    ``floor`` when one is given, else the least value found so far. Every
    other subinterval is halved, both halves from one product [L; R] @ c with
    the cached degree-d split matrix (``_split_matrix``). The only values the
    walk reads are the two end coefficients of ``coeffs`` and each split's
    midpoint value, the left half's last coefficient; with a floor it stops
    at the first of them below it. Subintervals that reach ``max_depth``
    still undropped are not split further.

    Returns (abscissa, value, splits, undecided): the least value found and
    where, the number of splits, and whether a subinterval hit max_depth.
    """
    deg = coeffs.size - 1
    best_t, best_v = (0.0, coeffs[0]) if coeffs[0] <= coeffs[-1] else (1.0, coeffs[-1])
    splits, undecided = 0, False
    stack = [(0.0, 1.0, coeffs, 0)]
    while stack and (floor is None or best_v >= floor):
        a, b, c, depth = stack.pop()
        if c.min() >= (best_v if floor is None else floor):
            continue
        if depth >= max_depth:
            undecided = True
            continue
        halves = _split_matrix(deg) @ c
        left, right = halves[:deg + 1], halves[deg + 1:]
        splits += 1
        mid = 0.5 * (a + b)
        if left[-1] < best_v:
            best_t, best_v = mid, left[-1]
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))
    return best_t, float(best_v), splits, undecided


def global_minimum(P: BernsteinPoly):
    """Locate the global minimum of P on [0,1] by Bernstein branch-and-bound.

    Returns (abscissa, value) with the abscissa localized to 1e-10.
    """
    t, v, _, _ = _branch_and_bound(P.coeffs, None, _MINIMUM_DEPTH)
    return t, v


# Repo-wide polynomial JSON schema: {"basis": "bernstein"|"power",
#                                    "degree": m, "coeffs": [...]}

def poly_to_json(P: BernsteinPoly | PowerPoly) -> dict:
    basis = "bernstein" if isinstance(P, BernsteinPoly) else "power"
    return {"basis": basis, "degree": P.degree, "coeffs": [float(c) for c in P.coeffs]}


_POLY_KEYS = ("basis", "degree", "coeffs")


def poly_from_json(obj: dict) -> BernsteinPoly | PowerPoly:
    """Parse the repo-wide polynomial schema: exactly its three keys, degree consistent."""
    _check_keys(obj, _POLY_KEYS, "polynomial JSON", required=_POLY_KEYS)
    basis, degree, coeffs = (obj[k] for k in _POLY_KEYS)
    degree = _check_int("polynomial JSON: 'degree'", degree)
    coeffs = _real_array("coeffs", coeffs, size=degree + 1, size_name="degree + 1", finite=True)
    if basis == "bernstein":
        return BernsteinPoly(coeffs)
    if basis == "power":
        return PowerPoly(coeffs)
    raise ValueError(f"polynomial JSON: unknown basis {basis!r}")

"""Exact-arithmetic labels for the certify workload, independent of pickpoly.

Everything here works on ``fractions.Fraction`` values of the float
coefficients the program is given (``Fraction(float)`` is exact), so a label
describes the very input under test and never comes from the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

import numpy as np

# pickpoly accepts a coefficient as nonnegative at -1e-12, and a functional
# as <= 1 at 1 + 1e-12; the labels use the same thresholds, exactly.
COEF_TOL = Fraction(1, 10**12)


def exact(coeffs) -> list[Fraction]:
    return [Fraction(float(c)) for c in coeffs]


def bernstein_value(c: list[Fraction], t: Fraction) -> Fraction:
    """sum_k c_k C(m,k) t^k (1-t)^(m-k), exactly."""
    m = len(c) - 1
    return sum(ck * comb(m, k) * t**k * (1 - t) ** (m - k) for k, ck in enumerate(c))


def functionals(c: list[Fraction]) -> tuple[Fraction, Fraction]:
    """(int (1-w) h, int w h) from the Bernstein coefficients of h, exactly."""
    m = len(c) - 1
    q0 = sum((1 - Fraction(k + 1, m + 2)) * ck for k, ck in enumerate(c)) / (m + 1)
    q1 = sum(Fraction(k + 1, m + 2) * ck for k, ck in enumerate(c)) / (m + 1)
    return q0, q1


def in_polytope(c: list[Fraction]) -> bool:
    q0, q1 = functionals(c)
    return min(c) >= -COEF_TOL and q0 <= 1 + COEF_TOL and q1 <= 1 + COEF_TOL


def _binomial_row(n: int) -> list[int]:
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


def _elevated_ok(num: list[int], den: int, M: int) -> bool:
    # c_j(M) = sum_k c_k C(m,k) C(M-m, j-k) / C(M, j); with c_k = num_k / den
    # the test c_j(M) >= -1e-12 becomes one integer comparison per j.
    m = len(num) - 1
    w = [nk * ck for nk, ck in zip(num, _binomial_row(m))]
    row, full = _binomial_row(M - m), _binomial_row(M)
    for j in range(M + 1):
        s = sum(w[k] * row[j - k] for k in range(max(0, j - M + m), min(m, j) + 1))
        if s * 10**12 < -den * full[j]:
            return False
    return True


def float_degrees(rows, cap: int = 512) -> np.ndarray:
    """Float elevation of each row: first degree <= cap with coefficients >= -1e-12, else -1.

    Not a label; it only says where the exact tests start, and which
    Lorentz class a polynomial is likely in.
    """
    x = np.array(rows, dtype=float, ndmin=2)
    out = np.full(x.shape[0], -1)
    for M in range(x.shape[1] - 1, cap + 1):
        out[(out < 0) & (x.min(axis=1) >= -1e-12)] = M
        if M == cap or np.all(out >= 0):
            break
        j = np.arange(1, M + 1) / (M + 1)
        x = np.concatenate([x[:, :1], j * x[:, :-1] + (1.0 - j) * x[:, 1:], x[:, -1:]], axis=1)
    return out


def lorentz_degree(c: list[Fraction], cap: int = 512, guess: int | None = None):
    """Smallest M <= cap at which every degree-M coefficient is >= -1e-12.

    Elevation averages coefficients, so once they clear the threshold at M
    they clear it at every higher degree. That monotonicity means the answer
    is certified by two exact tests, a pass at M and a fail at M - 1; a float
    guess (from ``float_degrees`` unless given; -1 for none) only picks where
    to test first. Returns "exceeds cap" past the
    cap. The caller labels an h with an interior zero "infinite" by
    construction.
    """
    den = lcm(*(ck.denominator for ck in c))
    num = [int(ck * den) for ck in c]
    m = len(c) - 1
    if _elevated_ok(num, den, m):
        return m
    if guess is None:
        guess = int(float_degrees([float(ck) for ck in c], cap)[0])
    g = min(max(guess if guess >= 0 else cap, m + 1), cap)
    if _elevated_ok(num, den, g):
        if not _elevated_ok(num, den, g - 1):
            return g
        lo, hi = m, g - 1  # lo fails, hi passes
    else:
        if g == cap or not _elevated_ok(num, den, cap):
            return "exceeds cap"
        lo, hi = g, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _elevated_ok(num, den, mid):
            hi = mid
        else:
            lo = mid
    return hi


def tau(a: list[Fraction]) -> tuple[Fraction, Fraction]:
    """(tau1, tau2) = (2{1 - A(1/2)}, 4{1 - int A}) from A's coefficients, exactly."""
    tau1 = 2 * (1 - bernstein_value(a, Fraction(1, 2)))
    tau2 = 4 * (1 - sum(a) / len(a))
    return tau1, tau2


def lorentz_h(alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """h = 2 alpha {(1 + beta) - 6 beta t(1-t)} as degree-2 Bernstein coefficients.

    Its minimum 2 alpha (1 - beta/2) sits at t = 1/2, so beta = 2 gives an
    interior double zero (Lorentz degree "infinite") and beta < 2 a positive h.
    """
    return [2 * alpha * (1 + beta), 2 * alpha * (1 - 2 * beta), 2 * alpha * (1 + beta)]

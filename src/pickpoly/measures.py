"""Dependence measures and Bernstein approximation error bounds.

tau1(A) = 2{1 - A(1/2)} and tau2(A) = 4{1 - int_0^1 A} both vanish at
independence and reach 1 at comonotonicity. Over the submodel of degree m
their ranges are [0, tau_i{B_m(V,.)}], and the approximation error of the
Bernstein operator is controlled by a binomial pmf factor of order
m^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import _check_int, _frozen, _real_float, basis_eval, bernstein_approx, evaluate
from .pickands import GenericPickands, PickandsPoly, _comonotone, vee


@dataclass(frozen=True)
class DependenceReport:
    """Pair (tau1, tau2) with 0 <= tau1 <= tau2 <= 1."""

    tau1: float
    tau2: float

    def __post_init__(self):
        if not (-1e-9 <= self.tau1 <= self.tau2 + 1e-9 <= 1.0 + 2e-9):
            raise ValueError(f"dependence measures out of order: {self}")

    def to_json(self) -> dict:
        return {"tau1": self.tau1, "tau2": self.tau2}


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # the 10-point rule on [0, 1], built on first use: numpy.polynomial loads lazily
    x, w = np.polynomial.legendre.leggauss(10)
    return _frozen((x + 1.0) / 2.0), _frozen(w / 2.0)


def _integral(A: GenericPickands) -> float:
    """int_0^1 A by adaptive 10-point Gauss-Legendre: a panel closes once its halves
    agree with it to 1e-12 per unit width, and each round evaluates the halves of
    every open panel in one ``A.value`` call. A NaN closes its panel; the report rejects it.
    """
    x, w = _gauss_legendre()
    lo, width, est, total = np.zeros(1), 1.0, A.value(x)[None] @ w, 0.0
    while lo.size:
        width /= 2.0
        lo = np.stack([lo, lo + width], axis=1).ravel()
        halves = width * (A.value((lo[:, None] + width * x).ravel()).reshape(lo.size, -1) @ w)
        pairs = halves.reshape(-1, 2).sum(axis=1)
        split = np.abs(pairs - est) > 2e-12 * width
        total += pairs[~split].sum()
        lo, est = lo[np.repeat(split, 2)], halves[np.repeat(split, 2)]
    return float(total)


def tau_measures(A: PickandsPoly | GenericPickands) -> DependenceReport:
    """Compute (tau1, tau2) for a valid Pickands function.

    For polynomials the integral in tau2 is the coefficient mean (each basis
    polynomial integrates to 1/(degree+1)); for generic functions it is an
    adaptive Gauss-Legendre rule accurate to about 1e-12 (``_integral``).
    """
    tau1 = 2.0 * (1.0 - A.value(0.5))
    integral = float(np.mean(A.poly.coeffs)) if isinstance(A, PickandsPoly) else _integral(A)
    tau2 = 4.0 * (1.0 - integral)
    return DependenceReport(max(tau1, 0.0), max(tau2, 0.0))


def submodel_tau_range(m: int, which: int) -> float:
    """Upper endpoint of tau_which over the degree-m submodel.

    tau2 endpoint: floor(m/2) / (floor(m/2) + 1/2).
    tau1 endpoint: 1 - binomial pmf at floor(m/2) with m-1 trials; the pmf's
    success probability is taken as 1/2 since tau1 evaluates A at 1/2. An m
    that is not an integer >= 1, or a which not in 1..2, raises a ValueError
    naming it.
    """
    m, which = _check_int("m", m, 1), _check_int("which", which, 1, 2)
    half = m // 2
    return half / (half + 0.5) if which == 2 else 1.0 - basis_eval(half, m - 1, 0.5)


@dataclass(frozen=True)
class ApproxBound:
    error: float
    bound: float
    v_bound: float | None = None


def approx_error_bound(A: PickandsPoly | GenericPickands, m: int, t: float) -> ApproxBound:
    """Bernstein approximation error B_m(A,t) - A(t) and its pmf bound.

    A is any Pickands type; only its ``value`` is read. The error is
    nonnegative (Jensen) and bounded by 2t(1-t) P_t(S_{m-1} = min(floor(mt), m - 1)).
    For the comonotone V, the GenericPickands of ``comonotone()`` (known by
    its callable), the finer bound {1 - V(t)} P_t(S_{m-1} = floor(m/2)) is
    also reported, and ``v_bound`` is None for every other A; both bounds
    are attained at t = 1/2. An m that is not an integer >= 1, or a t that
    is not a real number in [0, 1], raises a ValueError naming it.
    """
    m, t = _check_int("m", m, 1), _real_float("t", t)
    if not 0.0 <= t <= 1.0:  # NaN fails too
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    B = bernstein_approx(A.value, m)
    error = float(evaluate(B, t) - A.value(t))
    bound = 2.0 * t * (1.0 - t) * basis_eval(min(math.floor(m * t), m - 1), m - 1, t)
    v_bound = None
    if isinstance(A, GenericPickands) and A.fn is _comonotone:
        v_bound = (1.0 - vee(t)) * basis_eval(m // 2, m - 1, t)
    return ApproxBound(error, bound, v_bound)

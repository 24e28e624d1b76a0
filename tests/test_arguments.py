"""One integer rule for the Python API.

Every public integer argument (a degree, count, index or seed) is an int or
a numpy integer, never a bool, a float or a string, and within its bound.
Anything else raises a ValueError that names the argument.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pickpoly import (
    BernsteinPoly,
    FullModelParam,
    OptimConfig,
    PowerPoly,
    StudyConfig,
    SubmodelParam,
    SymmetricMixed,
    approx_error_bound,
    basis_eval,
    bernstein_approx,
    comonotone,
    elevate_degree,
    fit_cfg,
    fit_full,
    fit_sub,
    lorentz_degree,
    poly_from_json,
    power_to_bernstein,
    run_study,
    sample_copula,
    sample_feasible,
    split_seed,
    submodel_tau_range,
)

MIX = SymmetricMixed(0.9)
DATA = sample_copula(MIX, 20, 1)
CHEAP = OptimConfig(starts=1, maxfev=3)
STUDY = dict(model=MIX, n=20, replicates=1, m=0, estimators=("cfg",), seed=0, grid=5)
P2 = BernsteinPoly([1.0, 0.5, 2.0])
H_CAP = BernsteinPoly([1.0, -0.6, 1.0])  # Lorentz degree 5: caps 2..4 fall short


def _rng():
    return np.random.default_rng(0)


def _study(field, value):
    return StudyConfig(**{**STUDY, field: value})


# (the argument, the name its errors carry, the call with value in that
# argument and every other argument valid and cheap, whether None is valid)
CASES = {
    "basis_eval.k": ("k", lambda v: basis_eval(v, 4, 0.5), False),
    "basis_eval.m": ("m", lambda v: basis_eval(0, v, 0.5), False),
    "elevate_degree.target": ("target", lambda v: elevate_degree(P2, v), False),
    "bernstein_approx.m": ("m", lambda v: bernstein_approx(np.sqrt, v), False),
    "power_to_bernstein.m": ("m", lambda v: power_to_bernstein(PowerPoly([1.0, -0.5, 0.5]), v), True),
    "poly_from_json.degree": ("degree", lambda v: poly_from_json(
        {"basis": "bernstein", "degree": v, "coeffs": [1.0, 0.5, 2.0]}), False),
    "FullModelParam.m": ("m", lambda v: FullModelParam(v, [0.1, 0.2, 0.3]), False),
    "sample_feasible.m": ("m", lambda v: sample_feasible(v, _rng(), 2), False),
    "sample_feasible.count": ("count", lambda v: sample_feasible(3, _rng(), v), False),
    "SubmodelParam.m": ("m", lambda v: SubmodelParam(v, [0.1, 0.1, 0.1]), False),
    "lorentz_degree.cap": ("cap", lambda v: lorentz_degree(H_CAP, v), False),
    "submodel_tau_range.m": ("m", lambda v: submodel_tau_range(v, 1), False),
    "submodel_tau_range.which": ("which", lambda v: submodel_tau_range(4, v), False),
    "approx_error_bound.m": ("m", lambda v: approx_error_bound(comonotone(), v, 0.5), False),
    "OptimConfig.starts": ("starts", lambda v: OptimConfig(starts=v), False),
    "OptimConfig.seed": ("seed", lambda v: OptimConfig(seed=v), False),
    "OptimConfig.maxfev": ("maxfev", lambda v: OptimConfig(maxfev=v), False),
    "fit_full.m": ("m", lambda v: fit_full(DATA, v, CHEAP), False),
    "fit_sub.m": ("m", lambda v: fit_sub(DATA, v, CHEAP), False),
    "fit_cfg.grid": ("grid", lambda v: fit_cfg(DATA, v), False),
    "sample_copula.n": ("n", lambda v: sample_copula(MIX, v, 1), False),
    "sample_copula.seed": ("seed", lambda v: sample_copula(MIX, 5, v), False),
    "StudyConfig.n": ("n", lambda v: _study("n", v), False),
    "StudyConfig.replicates": ("replicates", lambda v: _study("replicates", v), False),
    "StudyConfig.m": ("m", lambda v: _study("m", v), False),
    "StudyConfig.seed": ("seed", lambda v: _study("seed", v), False),
    "StudyConfig.grid": ("grid", lambda v: _study("grid", v), False),
    "run_study.threads": ("threads", lambda v: run_study(StudyConfig(**STUDY), threads=v), True),
    "split_seed.master": ("master", lambda v: split_seed(v, 1), False),
    "split_seed.key": ("key", lambda v: split_seed(1, v), False),
}

# valid integers stay small, as a large degree or count is valid and only
# makes the call slow; negative ones may be of any size
SMALL = st.integers(-3, 8)
VALUES = (
    SMALL | st.integers(max_value=-1)
    | st.builds(lambda i, t: t(i), st.integers(0, 8),
                st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]))
    | st.builds(np.int32, SMALL)
    | st.floats(-3.0, 8.0) | st.sampled_from([2.0, float("nan"), float("inf"), np.float64(3.0)])
    | st.booleans() | st.sampled_from([np.True_, np.False_])
    | st.none() | st.text(max_size=3) | st.sampled_from(["2", "4"])
)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), value=VALUES)
@example(case="basis_eval.m", value=True)
@example(case="submodel_tau_range.which", value=2.0)
@example(case="submodel_tau_range.m", value=True)
@example(case="elevate_degree.target", value=2.5)
@example(case="approx_error_bound.m", value=2.5)
@example(case="sample_feasible.count", value=-1)
@example(case="FullModelParam.m", value=-1)
@example(case="fit_full.m", value=True)
@example(case="split_seed.key", value=True)
@example(case="split_seed.master", value=-1)
def test_any_value_in_one_integer_argument_runs_or_names_it(case, value):
    name, call, none_ok = CASES[case]
    try:
        call(value)
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), (case, value, str(exc))
    else:
        # a call returns only for an integer, or a None where None is the default
        assert _is_integer(value) or (value is None and none_ok), (case, value)

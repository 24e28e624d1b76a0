"""One integer rule, one real-array rule and one type rule for the Python API.

Every public integer argument (a degree, count, index or seed) is an int or
a numpy integer, never a bool, a float or a string, and within its bound.
Every public array argument (coefficients, parameters, abscissae, data) is
a real number or an array of them, never a bool, a string or another
object, of the shape it needs, finite or inside [0, 1] or (0, 1) where it
must be. Every other public argument (a polynomial, a Pickands function, a
sample, a configuration, a parameter, a model, a generator, a callable, a
flag or a JSON object) is an instance of the types it takes. Anything else
raises a ValueError that names the argument, and every parameter of the
public API is in exactly one of the three tables.
"""

import inspect
import math
import re
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pickpoly
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    FullModelParam,
    GenericPickands,
    OptimConfig,
    PickandsPoly,
    PiecewiseLinearPickands,
    PolynomialModel,
    PowerPoly,
    SampleSet,
    StudyConfig,
    SubmodelParam,
    SymmetricMixed,
    a_from_h,
    approx_error_bound,
    basis_eval,
    bernstein_approx,
    bernstein_to_power,
    certify_nonnegative,
    comonotone,
    copula_cdf,
    copula_density,
    elevate_degree,
    endpoint_functionals,
    evaluate,
    feasibility,
    fit_cfg,
    fit_full,
    fit_sub,
    global_minimum,
    h_from_a,
    in_submodel_a,
    in_submodel_h,
    log_likelihood,
    lorentz_degree,
    model_from_json,
    model_pickands,
    model_to_json,
    poly_from_json,
    poly_to_json,
    power_to_bernstein,
    run_study,
    sample_copula,
    sample_feasible,
    spectral_measure,
    split_seed,
    submodel_tau_range,
    tau_measures,
    theta_to_h,
    theta_to_pickands,
    validate_pickands,
    vee,
)
from pickpoly.inference import greatest_convex_minorant

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


A2 = PickandsPoly(BernsteinPoly([1.0, 0.75, 1.0]))
PWL = PiecewiseLinearPickands([0.0, 0.5, 1.0], [1.0, 0.75, 1.0])

# (the argument, the name its errors start with, the call with value in that
# argument and every other argument valid, the number of dimensions it must
# have (None: any), and the rule its entries obey: None (any real),
# "finite", "[0, 1]" or "(0, 1)"). The callables' outputs are named as their
# errors name them; a single real number (t, the model parameters) may have
# a range of its own, whose message is a domain rule's.
ARRAY_CASES = {
    "BernsteinPoly.coeffs": ("coeffs", BernsteinPoly, 1, "finite"),
    "PowerPoly.coeffs": ("coeffs", PowerPoly, 1, "finite"),
    "poly_from_json.coeffs": ("coeffs", lambda v: poly_from_json(
        {"basis": "bernstein", "degree": 2, "coeffs": v}), 1, "finite"),
    "PowerPoly.x": ("x", PowerPoly([1.0, 2.0]), None, None),
    "evaluate.x": ("x", lambda v: evaluate(P2, v), None, "[0, 1]"),
    "basis_eval.x": ("x", lambda v: basis_eval(1, 2, v), None, "[0, 1]"),
    "bernstein_approx.f(grid)": ("f(grid)", lambda v: bernstein_approx(lambda g: v, 2), 1, "finite"),
    "GenericPickands.fn(t)": ("fn(t)", lambda v: GenericPickands(
        lambda t: (v, np.zeros_like(t), np.zeros_like(t))), 1, None),
    "FullModelParam.theta": ("theta", lambda v: FullModelParam(2, v), 1, "finite"),
    "SubmodelParam.c": ("c", lambda v: SubmodelParam(2, v), 1, "finite"),
    "in_submodel_h.c": ("c", in_submodel_h, 1, "finite"),
    "PiecewiseLinearPickands.knots": ("knots", lambda v: PiecewiseLinearPickands(
        v, [1.0, 0.75, 1.0]), 1, "finite"),
    "PiecewiseLinearPickands.values": ("values", lambda v: PiecewiseLinearPickands(
        [0.0, 0.5, 1.0], v), 1, "finite"),
    "PiecewiseLinearPickands.value": ("t", PWL.value, None, "[0, 1]"),
    "GenericPickands.value": ("t", comonotone().value, None, "[0, 1]"),
    "PickandsPoly.value": ("t", A2.value, None, "[0, 1]"),
    "vee.t": ("t", vee, None, "[0, 1]"),
    "copula_cdf.u": ("u", lambda v: copula_cdf(A2, v, 0.5), None, "[0, 1]"),
    "copula_cdf.v": ("v", lambda v: copula_cdf(A2, 0.5, v), None, "[0, 1]"),
    "copula_density.u": ("u", lambda v: copula_density(A2, v, 0.5), None, "[0, 1]"),
    "copula_density.v": ("v", lambda v: copula_density(A2, 0.5, v), None, "[0, 1]"),
    "SampleSet.u": ("u", lambda v: SampleSet(v, [0.5, 0.25]), 1, "(0, 1)"),
    "SampleSet.v": ("v", lambda v: SampleSet([0.5, 0.25], v), 1, "(0, 1)"),
    "SampleSet.from_arrays.u": ("u", lambda v: SampleSet.from_arrays(v, [0.5, 0.25]), 1, "(0, 1)"),
    "SampleSet.from_arrays.v": ("v", lambda v: SampleSet.from_arrays([0.5, 0.25], v), 1, "(0, 1)"),
    # on ranks, any real u gives ranks inside (0, 1), and nan stays nan
    "SampleSet.from_arrays.u.ranks": ("u", lambda v: SampleSet.from_arrays(
        v, [0.5, 0.25], ranks=True), 1, None),
    "greatest_convex_minorant.values": ("values", greatest_convex_minorant, 1, "finite"),
    "greatest_convex_minorant.knots": ("knots", lambda v: greatest_convex_minorant(
        [1.0, 0.5, 1.0], v), 1, "finite"),
    "approx_error_bound.t": ("t", lambda v: approx_error_bound(comonotone(), 3, v), 0, None),
    "AsymmetricLogistic.alpha": ("'alpha'", lambda v: AsymmetricLogistic(v, 0.5, 0.5), 0, None),
    "AsymmetricLogistic.psi1": ("'psi1'", lambda v: AsymmetricLogistic(0.5, v, 0.5), 0, None),
    "AsymmetricLogistic.psi2": ("'psi2'", lambda v: AsymmetricLogistic(0.5, 0.5, v), 0, None),
    "SymmetricMixed.psi": ("'psi'", SymmetricMixed, 0, None),
}
NONE_OK = {"greatest_convex_minorant.knots"}  # the default

REALS = (st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf])
         | st.integers(-2, 2) | st.sampled_from([np.float64(0.25), np.float32(0.5), np.int64(1)]))
NON_REALS = st.booleans() | st.sampled_from([np.True_, None]) | st.text(max_size=3) | st.just("0.5")
ENTRIES = st.lists(REALS, max_size=4)
ARRAY_VALUES = (
    REALS | NON_REALS | ENTRIES | st.lists(REALS | NON_REALS, max_size=4)  # wrong lengths too
    | st.lists(st.lists(REALS, min_size=2, max_size=2), min_size=1, max_size=3)  # 2-d
    | st.lists(st.lists(REALS, max_size=2), min_size=2, max_size=2)  # 2-d or ragged
    | ENTRIES.map(tuple) | ENTRIES.map(np.array)
    | ENTRIES.map(lambda e: np.array(e, dtype=object))
    | st.lists(st.booleans(), max_size=3).map(np.array)
    | st.lists(st.sampled_from(["0.5", "1"]), max_size=3).map(np.array)
    | ENTRIES.map(lambda e: np.array(e).reshape(1, -1))
)


def _obeys(value, ndim, rule) -> bool:
    # value is a real number, a list or tuple of them that numpy lays out as
    # a regular array, or an integer or float ndarray; of ndim dimensions if
    # it must be, with entries that obey the rule
    if isinstance(value, np.ndarray) and value.dtype.kind not in "iuf":
        return False
    entries = np.array(value, dtype=object)  # a ragged list holds lists
    if not all(isinstance(e, (int, float, np.integer, np.floating)) and not isinstance(e, bool)
               for e in entries.flat) or (ndim is not None and entries.ndim != ndim):
        return False
    x = entries.astype(float)
    if rule == "finite":
        return bool(np.all(np.isfinite(x)))
    if rule == "[0, 1]":
        return bool(np.all((x >= 0.0) & (x <= 1.0)))
    if rule == "(0, 1)":
        return bool(np.all((x > 0.0) & (x < 1.0)))
    return True


@settings(max_examples=800, deadline=None)
@given(case=st.sampled_from(sorted(ARRAY_CASES)), value=ARRAY_VALUES)
@example(case="PiecewiseLinearPickands.values", value=[1.0, math.nan, 1.0])
@example(case="vee.t", value=-1.0)
@example(case="FullModelParam.theta", value=["0.5", True, 0.1])
@example(case="SubmodelParam.c", value=[0.1, True, "0.2"])
@example(case="SampleSet.u", value=["0.5", 0.2])
@example(case="in_submodel_h.c", value=["0.1", True, 0.2])
@example(case="bernstein_approx.f(grid)", value=np.array(["0.5", "1", "0.5"]))
@example(case="BernsteinPoly.coeffs", value=np.array([True, False]))
@example(case="basis_eval.x", value=np.array([0.5], dtype=object))
def test_any_value_in_one_array_argument_runs_or_names_it(case, value):
    name, call, ndim, rule = ARRAY_CASES[case]
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # a real x may be inf
            call(value)
    except ValueError as exc:
        # the array rule names the argument, or one entry of it; only a
        # value it passes meets a domain rule (knot order, the polytope,
        # the endpoint values and slopes, the open square of the density)
        if not re.match(rf"{re.escape(name)}(\[[0-9, ]+\])? must be ", str(exc)):
            assert _obeys(value, ndim, rule), (case, value, str(exc))
    else:
        assert _obeys(value, ndim, rule) or (value is None and case in NONE_OK), (case, value)


@pytest.mark.parametrize("name, call", [
    # accepted: values nan gave value(0.25) = nan, V(-1) = 2 and V("0.3") = 0.7
    pytest.param("values", lambda: PiecewiseLinearPickands([0, 0.5, 1], [1, math.nan, 1]), id="pwl-nan"),
    pytest.param("t", lambda: vee(-1.0), id="vee-negative"),
    pytest.param("t", lambda: vee("0.3"), id="vee-string"),
    pytest.param("t", lambda: vee(math.nan), id="vee-nan"),
    pytest.param("theta", lambda: FullModelParam(1, ["0.5", True]), id="theta-string-bool"),
    pytest.param("c", lambda: SubmodelParam(2, [0.1, True, "0.2"]), id="c-bool-string"),
    pytest.param("u", lambda: SampleSet(["0.5", 0.2], [0.4, 0.3]), id="u-string"),
    pytest.param("c", lambda: in_submodel_h(["0.1", True, 0.2]), id="in-submodel-string-bool"),
    pytest.param("f(grid)", lambda: bernstein_approx(lambda g: np.full(g.shape, "0.5"), 2),
                 id="bernstein-approx-strings"),
    pytest.param("fn(t)", lambda: GenericPickands(
        lambda t: (np.full(t.shape, "1"), np.zeros_like(t), np.zeros_like(t))), id="generic-strings"),
    # rejected, but by a message about "coefficients" that did not name c
    pytest.param("c", lambda: SubmodelParam(2, [0.1, math.nan, 0.2]), id="c-nan"),
    # rejected, but by numpy's "shape mismatch", which named neither argument
    pytest.param("v", lambda: copula_cdf(A2, [0.2, 0.3], [0.4, 0.5, 0.6]), id="cdf-broadcast"),
    pytest.param("v", lambda: copula_density(A2, [0.2, 0.3], [0.4, 0.5, 0.6]), id="density-broadcast"),
])
def test_array_rule_names_the_argument(name, call):
    rule = "be |broadcast with u, got shapes "
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}(\[[0-9, ]+\])? must ({rule})"):
        call()


MODELS = (AsymmetricLogistic, SymmetricMixed, PolynomialModel)
DENSITY = (PickandsPoly, GenericPickands)
PICKANDS = DENSITY + (PiecewiseLinearPickands,)

# (the argument, the name its errors carry, the call with value in that
# argument and every other argument valid and cheap, the types it takes)
OBJECT_CASES = {
    # polynomials
    "evaluate.P": ("P", lambda v: evaluate(v, 0.5), (BernsteinPoly,)),
    "elevate_degree.P": ("P", lambda v: elevate_degree(v, 4), (BernsteinPoly,)),
    "power_to_bernstein.P": ("P", power_to_bernstein, (PowerPoly,)),
    "bernstein_to_power.P": ("P", bernstein_to_power, (BernsteinPoly,)),
    "global_minimum.P": ("P", global_minimum, (BernsteinPoly,)),
    "poly_to_json.P": ("P", poly_to_json, (BernsteinPoly, PowerPoly)),
    "certify_nonnegative.P": ("P", certify_nonnegative, (BernsteinPoly,)),
    "validate_pickands.P": ("P", validate_pickands, (BernsteinPoly,)),
    "PickandsPoly.poly": ("poly", PickandsPoly, (BernsteinPoly,)),
    "a_from_h.h": ("h", a_from_h, (BernsteinPoly,)),
    "h_from_a.A": ("A", h_from_a, (BernsteinPoly,)),
    "endpoint_functionals.h": ("h", endpoint_functionals, (BernsteinPoly,)),
    "spectral_measure.h": ("h", spectral_measure, (BernsteinPoly,)),
    "in_submodel_a.A": ("A", in_submodel_a, (BernsteinPoly,)),
    "lorentz_degree.h": ("h", lambda v: lorentz_degree(v, 8), (BernsteinPoly,)),
    # Pickands functions
    "copula_cdf.A": ("A", lambda v: copula_cdf(v, 0.3, 0.6), PICKANDS),
    "copula_density.A": ("A", lambda v: copula_density(v, 0.3, 0.6), DENSITY),
    "log_likelihood.A": ("A", lambda v: log_likelihood(v, DATA), DENSITY),
    "tau_measures.A": ("A", tau_measures, PICKANDS),
    "approx_error_bound.A": ("A", lambda v: approx_error_bound(v, 3, 0.5), PICKANDS),
    # data, configurations and parameters
    "log_likelihood.data": ("data", lambda v: log_likelihood(A2, v), (SampleSet,)),
    "fit_full.data": ("data", lambda v: fit_full(v, 1, CHEAP), (SampleSet,)),
    "fit_sub.data": ("data", lambda v: fit_sub(v, 1, CHEAP), (SampleSet,)),
    "fit_cfg.data": ("data", lambda v: fit_cfg(v, 5), (SampleSet,)),
    "fit_full.config": ("config", lambda v: fit_full(DATA, 1, v), (OptimConfig,)),
    "fit_sub.config": ("config", lambda v: fit_sub(DATA, 1, v), (OptimConfig,)),
    "run_study.config": ("config", lambda v: run_study(v, threads=1), (StudyConfig,)),
    "StudyConfig.optim": ("optim", lambda v: _study("optim", v), (type(None), OptimConfig)),
    "StudyConfig.estimators": ("estimators", lambda v: _study("estimators", v), (list, tuple)),
    "StudyConfig.ranks": ("ranks", lambda v: _study("ranks", v), (bool,)),
    "SampleSet.from_arrays.ranks": ("ranks", lambda v: SampleSet.from_arrays(
        [0.5, 0.25], [0.5, 0.25], ranks=v), (bool,)),
    "theta_to_h.param": ("param", theta_to_h, (FullModelParam,)),
    "feasibility.param": ("param", feasibility, (FullModelParam,)),
    "theta_to_pickands.param": ("param", theta_to_pickands, (FullModelParam,)),
    # models, generators, callables and JSON objects
    "PolynomialModel.pickands": ("pickands", PolynomialModel, (PickandsPoly,)),
    "model_pickands.model": ("model", model_pickands, MODELS),
    "model_to_json.model": ("model", model_to_json, MODELS),
    "sample_copula.model": ("model", lambda v: sample_copula(v, 5, 1), MODELS),
    "StudyConfig.model": ("model", lambda v: _study("model", v), MODELS),
    "sample_feasible.rng": ("rng", lambda v: sample_feasible(3, v, 2), (np.random.Generator,)),
    "bernstein_approx.f": ("f", lambda v: bernstein_approx(v, 3), (Callable,)),
    "GenericPickands.fn": ("fn", GenericPickands, (Callable,)),
    "poly_from_json.obj": ("polynomial JSON", poly_from_json, (dict,)),
    "model_from_json.obj": ("model JSON", model_from_json, (dict,)),
}

# one object of each kind the API takes, and of several it does not; the
# polynomials are callable, as is np.sqrt
OBJECTS = [
    None, True, 3, 0.5, "x", [1.0, 0.5, 1.0], [0.5], ("cfg",), np.array([1.0, 0.5, 1.0]),
    {"model": "mix"}, P2, BernsteinPoly([1.0, 0.5, 1.0]), PowerPoly([1.0, -0.5, 0.5]), A2,
    comonotone(), PWL, DATA, CHEAP, StudyConfig(**STUDY), FullModelParam(2, [0.1, 0.2, 0.3]), MIX,
    PolynomialModel(A2), AsymmetricLogistic(0.5, 0.9, 0.6), _rng(), np.sqrt,
]


@pytest.mark.parametrize("case", sorted(OBJECT_CASES))
def test_any_object_in_one_object_argument_runs_or_names_it(case):
    # an object of a type the argument takes meets at most a domain rule (a
    # Pickands function's conditions, a JSON object's keys, the names of the
    # estimators); any other raises "<name> must be <types>, got <what>"
    name, call, types = OBJECT_CASES[case]
    for value in OBJECTS:
        if isinstance(value, types):
            try:
                call(value)
            except ValueError as exc:
                assert not str(exc).startswith(f"{name} must be "), (case, value, str(exc))
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be (None|an?) .*, got "):
                call(value)


@pytest.mark.parametrize("call, message", [
    # each raised an AttributeError
    pytest.param(lambda: validate_pickands([1, 0.5, 1]), "P must be a BernsteinPoly, got list",
                 id="validate-list"),
    pytest.param(lambda: tau_measures(None), "A must be a PickandsPoly or a GenericPickands or a "
                 "PiecewiseLinearPickands, got None", id="tau-none"),
    pytest.param(lambda: fit_cfg([0.5]), "data must be a SampleSet, got list", id="cfg-list"),
    pytest.param(lambda: sample_feasible(3, None, 2), "rng must be a Generator, got None",
                 id="feasible-none"),
    # each raised a TypeError
    pytest.param(lambda: log_likelihood(PWL, DATA), "A must be a PickandsPoly or a GenericPickands, "
                 "got PiecewiseLinearPickands", id="loglik-piecewise-linear"),
    pytest.param(lambda: model_to_json(0.9), "model must be an AsymmetricLogistic or a SymmetricMixed "
                 "or a PolynomialModel, got 0.9", id="model-to-json-float"),
    pytest.param(lambda: bernstein_approx(None, 3), "f must be a Callable, got None", id="approx-none"),
    pytest.param(lambda: GenericPickands(lambda t: None), "fn(t) must be a tuple or a list, got None",
                 id="generic-none"),
    pytest.param(lambda: GenericPickands(lambda t: 3.0), "fn(t) must be a tuple or a list, got 3.0",
                 id="generic-float"),
    # each raised an unpacking ValueError
    pytest.param(lambda: GenericPickands(lambda t: (t, t)),
                 "fn(t) must be the 3 arrays (A, A', A''), got 2 entries", id="generic-two"),
    pytest.param(lambda: GenericPickands(lambda t: (t, t, t, t)),
                 "fn(t) must be the 3 arrays (A, A', A''), got 4 entries", id="generic-four"),
])
def test_type_rule_names_the_argument(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# the public names that take no input of their own: the result records the
# library builds and the exceptions it raises
RESULTS = {
    "ApproxBound", "DependenceReport", "Feasibility", "FitResult", "NonnegReport",
    "SpectralDensity", "StudyReport",
    "CertificateInconclusiveError", "InfeasibleThetaError", "NotSpectralDensityError", "StudyError",
}


def test_every_public_parameter_is_in_exactly_one_table():
    tables = (CASES, ARRAY_CASES, OBJECT_CASES)
    for public in sorted(set(pickpoly.__all__) - RESULTS):
        obj = getattr(pickpoly, public)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue  # ReferenceModel, a type alias, takes no arguments
        for param in inspect.signature(obj).parameters:
            key = f"{public}.{param}"
            assert sum(key in table for table in tables) == 1, key

import contextlib
import csv
import io
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import POLFULL_H, POLFULL_POWER, run_python
from pickpoly import (
    AsymmetricLogistic,
    BernsteinPoly,
    OptimConfig,
    SampleSet,
    StudyConfig,
    SymmetricMixed,
    approx_error_bound,
    basis_eval,
    comonotone,
    model_pickands,
    run_study,
    sample_copula,
    submodel_tau_range,
    tau_measures,
)
from pickpoly import cli as cli_module
from pickpoly import simulation as simulation_module
from pickpoly.cli import main

POLFULL_POWER_JSON = {"basis": "power", "degree": 4, "coeffs": list(map(float, POLFULL_POWER))}
POLFULL_H_JSON = {"basis": "bernstein", "degree": 2, "coeffs": list(map(float, POLFULL_H))}
COUNTEREXAMPLE_JSON = {"basis": "power", "degree": 4, "coeffs": [1.0, 0.0, 0.0, -1.0, 1.0]}
MIX_MODEL_JSON = {"model": "mix", "psi": 0.9}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_quartic(tmp_path, capsys):
    path = write(tmp_path / "poly.json", POLFULL_POWER_JSON)
    code, out, _ = run(capsys, "validate", "--in", path)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_rejects_counterexample(tmp_path, capsys):
    path = write(tmp_path / "poly.json", COUNTEREXAMPLE_JSON)
    code, out, _ = run(capsys, "validate", "--in", path)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"][0]["rule"] == "convexity"
    assert report["violations"][0]["witness"] == pytest.approx(0.25, abs=0.05)


def test_lorentz_subcommand(tmp_path, capsys):
    path = write(tmp_path / "h.json", POLFULL_H_JSON)
    code, out, _ = run(capsys, "lorentz", "--in", path)
    assert code == 0
    assert json.loads(out) == {"degree": 6}


def test_convert_roundtrip(tmp_path, capsys):
    path = write(tmp_path / "p.json", POLFULL_POWER_JSON)
    code, out, _ = run(capsys, "convert", "--in", path)
    bern = json.loads(out)
    assert code == 0 and bern["basis"] == "bernstein" and bern["degree"] == 4
    path2 = write(tmp_path / "b.json", bern)
    code, out2, _ = run(capsys, "convert", "--in", path2)
    back = json.loads(out2)
    assert back["basis"] == "power"
    assert np.allclose(back["coeffs"], POLFULL_POWER, atol=1e-12)


def test_convert_past_float_range_exits_1(tmp_path, capsys):
    # at degree 1030 the power-basis weights C(m, j) C(j, k) pass the float range
    path = write(tmp_path / "b.json", {"basis": "bernstein", "degree": 1030, "coeffs": [1.0] * 1031})
    code, out, err = run(capsys, "convert", "--in", path)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_measures_subcommand(tmp_path, capsys):
    path = write(tmp_path / "poly.json", POLFULL_POWER_JSON)
    code, out, _ = run(capsys, "measures", "--in", path)
    assert code == 0
    rep = json.loads(out)
    assert 0.0 <= rep["tau1"] <= rep["tau2"] <= 1.0


def test_simulate_deterministic_csv(tmp_path, capsys):
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--model", model, "--n", "50", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["simulate", "--model", model, "--n", "50", "--seed", "3", "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "u,v" and len(lines) == 51
    u, v = map(float, lines[1].split(","))
    assert 0.0 < u < 1.0 and 0.0 < v < 1.0


def _csv_writer_text(sample) -> str:
    # the former simulate writer, kept as the oracle for the output bytes
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v"])
    for u, v in zip(sample.u, sample.v):
        writer.writerow([repr(float(u)), repr(float(v))])
    return buf.getvalue()


@pytest.mark.parametrize("n", [1, 2, simulation_module._BLOCK, simulation_module._BLOCK + 1])
def test_simulate_csv_matches_csv_writer(tmp_path, capsys, n):
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    out = tmp_path / "sample.csv"
    assert main(["simulate", "--model", model, "--n", str(n), "--seed", "4", "--out", str(out)]) == 0
    expected = _csv_writer_text(sample_copula(cli_module.model_from_json(MIX_MODEL_JSON), n, 4))
    assert out.read_bytes() == expected.encode()
    # to stdout, byte for byte the same
    code, stdout, _ = run(capsys, "simulate", "--model", model, "--n", str(n), "--seed", "4")
    assert code == 0 and stdout == expected


def test_simulate_csv_exponent_form_values(tmp_path, capsys, monkeypatch):
    # repr switches to exponent form below 1e-4; the rows must still match
    values = np.array([1e-14, 1e-16, 5e-05, 0.0001, 1.0 - 1e-14, 0.1 + 0.2, 2.0**-52])
    fixed = SampleSet(values, values[::-1])
    # the block formatter gets these pairs as its drawn u and solved v
    monkeypatch.setattr(simulation_module, "_draw_uw", lambda n, seed: (values, values))
    monkeypatch.setattr(simulation_module, "_solve_conditional", lambda kernel, u, w: values[::-1])
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    out = tmp_path / "sample.csv"
    assert main(["simulate", "--model", model, "--n", "7", "--seed", "0", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == _csv_writer_text(fixed)
    assert "\n1e-14,2.220446049250313e-16\n" in text


def test_simulate_checks_every_solved_pair(tmp_path, capsys, monkeypatch):
    # a v on the boundary of (0, 1) is an error, not a row
    monkeypatch.setattr(simulation_module, "_solve_conditional", lambda kernel, u, w: np.ones(u.size))
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    code, out, err = run(capsys, "simulate", "--model", model, "--n", "5", "--seed", "0")
    assert code == 1 and out.splitlines()[1:] == []
    assert json.loads(err) == {"error": "ValueError",
                               "message": "v must be a 1-d array of len(u) = 5 real numbers in (0, 1), got 1.0"}


def test_simulate_error_in_a_later_block_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    # the rows stream block by block; a failure after the first block must
    # leave neither a truncated --out file nor the temporary one behind
    csv_rows = simulation_module._csv_rows
    calls = []

    def failing_second(task):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("block 2 failed")
        return csv_rows(task)

    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    monkeypatch.setattr(simulation_module, "_csv_rows", failing_second)
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    argv = ["simulate", "--model", model, "--n", str(2 * simulation_module._BLOCK), "--seed", "0"]
    new = tmp_path / "new.csv"
    code, _, err = run(capsys, *argv, "--out", str(new))
    assert code == 1 and json.loads(err) == {"error": "ValueError", "message": "block 2 failed"}
    old = tmp_path / "old.csv"
    old.write_text("kept\n")
    calls.clear()
    assert run(capsys, *argv, "--out", str(old))[0] == 1
    assert len(calls) == 2 and old.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "old.csv"]


@pytest.mark.parametrize("args, field", [
    (["--n", "-3", "--seed", "1"], "n must be"),
    (["--n", "0", "--seed", "1"], "n must be"),
    (["--n", "5", "--seed", "-1"], "seed must be"),
])
def test_simulate_rejects_bad_n_and_seed(tmp_path, capsys, args, field):
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    code, out, err = run(capsys, "simulate", "--model", model, *args)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and field in msg["message"]


@pytest.mark.parametrize("body", ["u,v\n", "u,v", "u,v\n\n  \n"])
def test_fit_rejects_header_only_csv(tmp_path, capsys, body):
    data = tmp_path / "data.csv"
    data.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fit", "--in", str(data), "--model", "cfg")
    assert code == 1 and out == ""
    msg = json.loads(err)  # one JSON line: no warning text leaked ahead of it
    assert msg["error"] == "ValueError" and "no data rows" in msg["message"]


def test_fit_subcommands(tmp_path, capsys):
    model = write(tmp_path / "model.json", MIX_MODEL_JSON)
    data = tmp_path / "data.csv"
    assert main(["simulate", "--model", model, "--n", "120", "--seed", "5", "--out", str(data)]) == 0
    capsys.readouterr()

    code, out, _ = run(capsys, "fit", "--in", str(data), "--model", "sub", "--m", "2",
                       "--starts", "4", "--seed", "1")
    assert code == 0
    res = json.loads(out)
    assert res["model"] == "sub" and res["converged"] in (True, False)
    assert res["estimate"]["bernstein"]["degree"] == 4
    assert res["estimate"]["power"]["basis"] == "power"
    assert min(res["param"]["c"]) >= 0.0

    code, out, _ = run(capsys, "fit", "--in", str(data), "--model", "cfg", "--grid", "101")
    assert code == 0
    res = json.loads(out)
    assert len(res["estimate"]["knots"]) == 101
    assert res["param"] is None

    code, _, err = run(capsys, "fit", "--in", str(data), "--model", "full")
    assert code == 2  # --m required


def test_fit_requires_csv_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0.5,0.5\n")
    code, _, err = run(capsys, "fit", "--in", str(bad), "--model", "cfg")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_bound_subcommand_comonotone(tmp_path, capsys):
    model = write(tmp_path / "model.json", {"model": "comonotone"})
    code, out, _ = run(capsys, "bound", "--model", model, "--m", "4", "--t", "0.5")
    assert code == 0
    res = json.loads(out)
    assert res["error"] == pytest.approx(3.0 / 16.0, abs=1e-12)
    assert res["v_bound"] == pytest.approx(3.0 / 16.0, abs=1e-12)


def test_bound_rejects_unknown_comonotone_keys(tmp_path, capsys):
    model = write(tmp_path / "model.json", {"model": "comonotone", "psi": 1})
    code, out, err = run(capsys, "bound", "--model", model, "--m", "4", "--t", "0.5")
    assert code == 1 and out == ""
    message = json.loads(err)
    assert message["error"] == "ValueError"
    assert "keys ['psi']; expected a subset of ['model']" in message["message"]


@pytest.mark.parametrize("model", [
    {"model": "alog", "alpha": 0.5, "psi1": 0.9, "psi2": 0.6},
    MIX_MODEL_JSON,
    {"model": "poly", "pickands": POLFULL_POWER_JSON},
])
@pytest.mark.parametrize("t", ["0.3", "0.5"])
def test_bound_subcommand_models(tmp_path, capsys, model, t):
    path = write(tmp_path / "model.json", model)
    code, out, _ = run(capsys, "bound", "--model", path, "--m", "6", "--t", t)
    assert code == 0
    res = json.loads(out)
    assert 0.0 <= res["error"] <= res["bound"]
    assert res["v_bound"] is None


@pytest.mark.parametrize("t", ["nan", "1.5", "-0.25"])
def test_bound_rejects_t_outside_unit_interval(tmp_path, capsys, t):
    path = write(tmp_path / "model.json", MIX_MODEL_JSON)
    code, out, err = run(capsys, "bound", "--model", path, "--m", "4", "--t", t)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and msg["message"].startswith("t must lie in [0, 1]")


MALFORMED_MODELS = [
    ([1, 2], "object"),
    ({"model": "alog", "alpha": None, "psi1": 0.5, "psi2": 0.5}, "'alpha'"),
    ({"model": "mix", "psi": [0.5]}, "'psi'"),
    ({"model": "mix", "psi": 0.5, "alpha": 3}, "keys ['alpha']; expected a subset of ['model', 'psi']"),
    ({"model": "mix", "psi": "0.5"}, "'psi' must be a number, got '0.5'"),
    ({"model": "alog", "alpha": True, "psi1": 0.5, "psi2": 0.5},
     "'alpha' must be a number, got True"),
    ({"model": "alog", "alpha": 0.5, "psi1": 0.5}, "missing the required keys ['psi2']"),
    ({"model": "mix", "psi": 10**400}, "'psi' must be a number, got 1000"),  # past the float range
]


@pytest.mark.parametrize("command, extra", [
    ("simulate", ["--n", "5", "--seed", "1"]),
    ("bound", ["--m", "4", "--t", "0.5"]),
])
@pytest.mark.parametrize("model, field", MALFORMED_MODELS)
def test_malformed_model_json_exits_1(tmp_path, capsys, command, extra, model, field):
    path = write(tmp_path / "model.json", model)
    code, out, err = run(capsys, command, "--model", path, *extra)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and field in msg["message"]


@pytest.mark.parametrize("change, field", [
    ({"model": [1]}, "object"),
    ({"model": {"model": "alog", "alpha": None, "psi1": 0.5, "psi2": 0.5}}, "'alpha'"),
    # StudyConfig checks the values and its messages start with the bare field
    # name; the ids are those of the quoted names the CLI's own checks wrote
    pytest.param({"n": None}, "n must be an integer, got None", id="change2-'n'"),
    pytest.param({"replicates": "many"}, "replicates must be an integer, got 'many'",
                 id="change3-'replicates'"),
    pytest.param({"estimators": 5}, "estimators must be a list or tuple of strings, got 5",
                 id="change4-'estimators'"),
    pytest.param({"seed": None}, "seed must be an integer, got None", id="change5-'seed'"),
    pytest.param({"n": 40.9}, "n must be an integer, got 40.9", id="change6-'n'"),
    pytest.param({"m": True}, "m must be an integer, got True", id="change7-'m'"),
    pytest.param({"grid": 11.0}, "grid must be an integer, got 11.0", id="change8-'grid'"),
    pytest.param({"ranks": "false"}, "ranks must be a bool, got 'false'", id="change9-'ranks'"),
    pytest.param({"ranks": 0}, "ranks must be a bool, got 0", id="change10-'ranks'"),
    pytest.param({"estimators": "full"},
                 "estimators must be distinct names from full/sub/cfg, got 'full'",
                 id="change11-'estimators'"),
    pytest.param({"estimators": ["cfg", 1]},
                 "estimators must be a list or tuple of strings, got ['cfg', 1]",
                 id="change12-'estimators'"),
    ({"estimators": ["cfg", "cfg"]}, "estimators must be distinct"),
    ({"estimator": ["cfg"], "sed": 4},
     "keys ['estimator', 'sed']; expected a subset of ['estimators', 'grid', 'm', 'model', 'n', "
     "'optim', 'ranks', 'replicates', 'seed']"),
])
def test_study_rejects_malformed_fields(tmp_path, capsys, change, field):
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 0, "estimators": ["cfg"]}
    path = write(tmp_path / "study.json", {**config, **change})
    code, _, err = run(capsys, "study", "--in", path)
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and field in msg["message"]


def test_study_names_every_missing_required_key(tmp_path, capsys):
    code, _, err = run(capsys, "study", "--in", write(tmp_path / "study.json", {"seed": 3}))
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError"
    assert msg["message"] == ("study config is missing the required keys "
                              "['model', 'n', 'replicates', 'm']")


def test_study_rejects_optim_seed(tmp_path, capsys, monkeypatch):
    # a study's optimizer seeds are split from its own seed: an optim seed
    # would be read by nothing, so it is an error rather than a no-op
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 0,
              "estimators": ["sub"], "optim": {"starts": 2, "seed": 7}}
    code, out, err = run(capsys, "study", "--in", write(tmp_path / "study.json", config))
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError"
    assert msg["message"].startswith("optim.seed must be 0, got 7")
    assert "the study's 'seed'" in msg["message"]


def test_study_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    config = {
        "model": MIX_MODEL_JSON,
        "n": 40,
        "replicates": 3,
        "m": 0,
        "estimators": ["sub", "cfg"],
        "seed": 2,
        "grid": 11,
        "optim": {"starts": 2, "maxfev": 80},
    }
    path = write(tmp_path / "study.json", config)
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "curves.csv"
    code = main(["study", "--in", path, "--out", str(out_json), "--csv", str(out_csv)])
    assert code == 0
    report = json.loads(out_json.read_text())
    assert set(report["mse"].keys()) == {"sub", "cfg"}
    assert len(report["abscissae"]) == 11
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,truth,mse_sub,variance_sub,bias_sq_sub,mse_cfg,variance_cfg,bias_sq_cfg"
    assert len(lines) == 12

    # identical invocation gives byte-identical primary output
    out_json2 = tmp_path / "report2.json"
    assert main(["study", "--in", path, "--out", str(out_json2)]) == 0
    assert out_json.read_text() == out_json2.read_text()


def test_study_defaults_are_study_config_defaults(tmp_path, capsys, monkeypatch):
    # seed, grid and ranks left out of the JSON take StudyConfig's defaults
    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 0, "estimators": ["cfg"]}
    code, out, _ = run(capsys, "study", "--in", write(tmp_path / "study.json", config))
    assert code == 0
    expected = run_study(StudyConfig(model=SymmetricMixed(0.9), n=40, replicates=2, m=0,
                                     estimators=("cfg",)), threads=1)
    assert json.loads(out) == json.loads(json.dumps(expected.payload()))


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--in", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(err)["error"] in ("FileNotFoundError", "OSError")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_study_rejects_unknown_optim_keys(tmp_path, capsys):
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 0,
              "estimators": ["sub"], "optim": {"starts": 2, "xtol": 1e-4, "barrier": 1e-6}}
    path = write(tmp_path / "study.json", config)
    code, _, err = run(capsys, "study", "--in", path)
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError"
    assert "'barrier'" in msg["message"] and "'xtol'" in msg["message"]


@pytest.mark.parametrize("optim, field", [
    ({"starts": "3"}, "starts"), ({"starts": -2}, "starts"),
    ({"seed": 0.5}, "seed"), ({"maxfev": 0}, "maxfev"),
])
def test_study_rejects_bad_optim_values(tmp_path, capsys, optim, field):
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 0,
              "estimators": ["sub"], "optim": optim}
    code, _, err = run(capsys, "study", "--in", write(tmp_path / "study.json", config))
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and field in msg["message"]


def test_study_rejects_negative_m(tmp_path, capsys):
    config = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": -1, "estimators": ["cfg"]}
    code, _, err = run(capsys, "study", "--in", write(tmp_path / "study.json", config))
    assert code == 1
    assert "m must be >= 0" in json.loads(err)["message"]


def test_study_rejects_non_object_config(tmp_path, capsys):
    code, _, err = run(capsys, "study", "--in", write(tmp_path / "study.json", [1, 2]))
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "JSON object" in msg["message"]


# any JSON value; integers stay small, as a large count is valid and only
# makes the study slow
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["full", "sub", "cfg", "mix", "alog", "poly", "seed"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
STUDY_JSON = {"model": MIX_MODEL_JSON, "n": 40, "replicates": 1, "m": 0, "estimators": ["cfg"],
              "seed": 0, "grid": 11, "optim": {"starts": 2, "maxfev": 50}, "ranks": False}
STUDY_KEYS = [(key,) for key in STUDY_JSON] + [
    ("optim", "starts"), ("optim", "maxfev"), ("model", "model"), ("model", "psi")]


@settings(max_examples=300, deadline=None)
@given(keys=st.sampled_from(STUDY_KEYS), value=JSON_VALUES)
def test_study_with_any_value_in_one_field_runs_or_names_it(tmp_path_factory, keys, value):
    # the CLI either runs the study or exits 1 with a JSON ValueError that
    # names the replaced field; never a traceback
    config = json.loads(json.dumps(STUDY_JSON))
    *outer, key = keys
    (config[outer[0]] if outer else config)[key] = value
    folder = tmp_path_factory.mktemp("study")
    path = write(folder / "study.json", config)
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"PICKPOLY_THREADS": "1"}), \
            contextlib.redirect_stderr(err):
        code = main(["study", "--in", path, "--out", str(folder / "report.json")])
    if code == 0:
        assert set(json.loads((folder / "report.json").read_text())["mse"]) <= {"full", "sub", "cfg"}
    else:
        assert code == 1
        msg = json.loads(err.getvalue())
        assert msg["error"] == "ValueError" and key in msg["message"]


@pytest.mark.parametrize("args, field", [
    (["--m", "2", "--starts", "-1"], "starts"),
    (["--m", "2", "--starts", "0"], "starts"),
    (["--m", "2", "--seed", "-1"], "seed"),
    (["--m", "-1"], "m must be >= 0"),
])
@pytest.mark.parametrize("model", ["full", "sub"])
def test_fit_rejects_bad_arguments(tmp_path, capsys, model, args, field):
    data = tmp_path / "data.csv"
    data.write_text("u,v\n0.2,0.3\n0.6,0.5\n0.8,0.9\n0.4,0.1\n")
    code, out, err = run(capsys, "fit", "--in", str(data), "--model", model, *args)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and field in msg["message"]


def test_fit_option_defaults_are_optim_config_defaults():
    args = cli_module._build_parser().parse_args(["fit", "--in", "d.csv", "--model", "full"])
    assert (args.starts, args.seed) == (OptimConfig().starts, OptimConfig().seed)


# the commands that read polynomial JSON; simulate reads it inside a poly model
POLY_COMMANDS = ["validate", "convert", "lorentz", "measures", "simulate"]
POLY_JSON = {"basis": "bernstein", "degree": 2, "coeffs": [1.0, 0.75, 1.0]}


def poly_argv(folder, command, poly):
    # the arguments that run command on the polynomial JSON poly
    if command == "simulate":
        path = write(folder / "model.json", {"model": "poly", "pickands": poly})
        return [command, "--model", path, "--n", "5", "--seed", "1"]
    return [command, "--in", write(folder / "p.json", poly)]


@pytest.mark.parametrize("degree", ["2", True, 2.0])
@pytest.mark.parametrize("command", POLY_COMMANDS)
def test_non_integer_polynomial_degree_exits_1(tmp_path, capsys, command, degree):
    poly = {**POLY_JSON, "degree": degree}
    code, out, err = run(capsys, *poly_argv(tmp_path, command, poly))
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "'degree'" in msg["message"]


@pytest.mark.parametrize("coeffs, message", [
    ([True, "0.75", 1], "coeffs[0] must be a number, got True"),
    ([1.0, "0.75", 1.0], "coeffs[1] must be a number, got '0.75'"),
    ([1.0, 0.75, None], "coeffs[2] must be a number, got None"),
    ([1.0, [0.75], 1.0], "coeffs[1] must be a number, got [0.75]"),
    ([1.0, 0.75, 10**400], "coeffs[2] must be a number, got 1000"),  # past the float range
])
@pytest.mark.parametrize("command", POLY_COMMANDS)
def test_non_number_polynomial_coefficient_exits_1(tmp_path, capsys, command, coeffs, message):
    poly = {**POLY_JSON, "coeffs": coeffs}
    code, out, err = run(capsys, *poly_argv(tmp_path, command, poly))
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and msg["message"].startswith(message)


@pytest.mark.parametrize("poly, message", [
    pytest.param({**POLY_JSON, "scale": 2.0},
                 "unknown polynomial JSON keys ['scale']; expected a subset of "
                 "['basis', 'coeffs', 'degree']", id="unknown-key"),
    pytest.param([1, 2], "polynomial JSON must be a JSON object, got list", id="list"),
    pytest.param("bernstein", "polynomial JSON must be a JSON object, got str", id="string"),
    pytest.param({"basis": "bernstein", "coeffs": [1.0, 0.75, 1.0]},
                 "polynomial JSON is missing the required keys ['degree']", id="missing-key"),
])
@pytest.mark.parametrize("command", POLY_COMMANDS)
def test_polynomial_json_keys_are_checked(tmp_path, capsys, command, poly, message):
    # polynomial JSON is an object with exactly its three keys; anything
    # else exits 1 with a message that names what is wrong
    code, out, err = run(capsys, *poly_argv(tmp_path, command, poly))
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg == {"error": "ValueError", "message": message}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(POLY_COMMANDS), key=st.sampled_from(list(POLY_JSON)) | st.text(max_size=4),
       value=JSON_VALUES)
def test_polynomial_json_with_any_value_in_one_field_exits_0_or_1(tmp_path_factory, command, key,
                                                                  value):
    # one field replaced, or one key added: the command runs, or exits 1 with
    # a JSON message that names an added key; never a traceback
    folder = tmp_path_factory.mktemp("poly")
    argv = poly_argv(folder, command, {**POLY_JSON, key: value})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(folder / "out")])
    assert code in (0, 1) and (code == 1 or key in POLY_JSON)
    if code == 1:
        msg = json.loads(err.getvalue())
        assert set(msg) == {"error", "message"}
        if key not in POLY_JSON:
            assert msg["message"].startswith(f"unknown polynomial JSON keys [{key!r}]")


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_fit_cfg_rejects_bad_grid(tmp_path, capsys, grid):
    data = tmp_path / "data.csv"
    data.write_text("u,v\n0.2,0.3\n0.6,0.5\n0.8,0.9\n0.4,0.1\n")
    code, out, err = run(capsys, "fit", "--in", str(data), "--model", "cfg", "--grid", grid)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "grid" in msg["message"]


@pytest.mark.parametrize("poly, argv", [
    (POLFULL_H_JSON, ["--m", "7"]),  # the default target of a Bernstein input is power
    (POLFULL_H_JSON, ["--to", "power", "--m", "1"]),
    ({"basis": "power", "degree": 2, "coeffs": [1.0, -0.5, 0.5]}, ["--to", "power", "--m", "1"]),
])
def test_convert_rejects_m_with_power_target(tmp_path, capsys, poly, argv):
    path = write(tmp_path / "p.json", poly)
    code, out, err = run(capsys, "convert", "--in", path, *argv)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "--m" in msg["message"] and "power" in msg["message"]


def test_convert_to_bernstein_honours_m(tmp_path, capsys):
    path = write(tmp_path / "h.json", POLFULL_H_JSON)
    code, out, err = run(capsys, "convert", "--in", path, "--to", "bernstein", "--m", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["message"] == "target must be >= 2, got 1"
    code, out, _ = run(capsys, "convert", "--in", path, "--to", "bernstein", "--m", "5")
    lifted = json.loads(out)
    assert code == 0 and lifted["degree"] == 5
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(BernsteinPoly(lifted["coeffs"])(t), BernsteinPoly(POLFULL_H)(t), atol=1e-14)


def test_console_script_entry_point(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    import pickpoly

    # the installed console script, or else the module entry point run from
    # the source tree this test imported
    exe = shutil.which("pickpoly")
    cmd = [exe] if exe is not None else [sys.executable, "-m", "pickpoly"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pickpoly.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write(tmp_path / "h.json", POLFULL_H_JSON)
    proc = subprocess.run(cmd + ["lorentz", "--in", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"degree": 6}


def _every_subcommand(inputs, out) -> list[list[str]]:
    # one run of each subcommand, fit once per model; each writes out/<name>
    data = str(out / "simulate")
    runs = [
        ["validate", "--in", inputs["poly"]],
        ["convert", "--in", inputs["poly"]],
        ["lorentz", "--in", inputs["h"]],
        ["measures", "--in", inputs["poly"]],
        ["simulate", "--model", inputs["alog"], "--n", "150", "--seed", "3"],
        ["fit", "--in", data, "--model", "full", "--m", "1", "--starts", "2"],
        ["fit", "--in", data, "--model", "sub", "--m", "2", "--starts", "2"],
        ["fit", "--in", data, "--model", "cfg", "--grid", "11"],
        ["study", "--in", inputs["study"]],
        ["bound", "--model", inputs["alog"], "--m", "6", "--t", "0.3"],
        ["bound", "--model", inputs["comonotone"], "--m", "6", "--t", "0.5"],
    ]
    return [argv + ["--out", str(out / f"{argv[0]}{i}")] if argv[0] != "simulate"
            else argv + ["--out", data] for i, argv in enumerate(runs)]


NO_SCIPY_SCRIPT = """
import json, os, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
os.environ["PICKPOLY_THREADS"] = "1"
import pickpoly as pp
from pickpoly.cli import main

alog = pp.model_pickands(pp.AsymmetricLogistic(0.5, 0.1, 0.5))
tau = pp.tau_measures(alog)
values = [tau.tau1, tau.tau2, pp.basis_eval(3, 10, 0.3), pp.submodel_tau_range(5, 1)]
for A in (pp.comonotone(), alog):
    b = pp.approx_error_bound(A, 10, 0.3)
    values += [b.error, b.bound]
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None)
print(json.dumps({"values": [repr(x) for x in values], "codes": codes, "loaded": loaded}))
"""


def test_library_and_cli_run_without_scipy(tmp_path, monkeypatch):
    # scipy unimportable in a fresh interpreter: the measures, the basis and
    # every subcommand still run, load no scipy module and give the values
    # and files they give here
    inputs = {
        "poly": write(tmp_path / "poly.json", POLFULL_POWER_JSON),
        "h": write(tmp_path / "h.json", POLFULL_H_JSON),
        "alog": write(tmp_path / "alog.json", {"model": "alog", "alpha": 0.5, "psi1": 0.1, "psi2": 0.5}),
        "comonotone": write(tmp_path / "como.json", {"model": "comonotone"}),
        "study": write(tmp_path / "study.json", {
            "model": MIX_MODEL_JSON, "n": 40, "replicates": 2, "m": 1,
            "estimators": ["full", "sub", "cfg"], "grid": 11, "optim": {"starts": 2, "maxfev": 80}}),
    }
    (tmp_path / "bare").mkdir()
    (tmp_path / "here").mkdir()
    proc = run_python("-c", NO_SCIPY_SCRIPT, json.dumps(_every_subcommand(inputs, tmp_path / "bare")))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert result["codes"] == [0] * 11

    monkeypatch.setenv("PICKPOLY_THREADS", "1")
    assert [main(argv) for argv in _every_subcommand(inputs, tmp_path / "here")] == [0] * 11
    names = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "bare").iterdir()) and len(names) == 11
    for name in names:
        assert (tmp_path / "bare" / name).read_text() == (tmp_path / "here" / name).read_text(), name
    alog = model_pickands(AsymmetricLogistic(0.5, 0.1, 0.5))
    tau = tau_measures(alog)
    values = [tau.tau1, tau.tau2, basis_eval(3, 10, 0.3), submodel_tau_range(5, 1)]
    for A in (comonotone(), alog):
        b = approx_error_bound(A, 10, 0.3)
        values += [b.error, b.bound]
    assert result["values"] == [repr(x) for x in values]


def test_import_leaves_scipy_stats_out():
    # importing the package and its CLI loads no scipy module (a fresh
    # interpreter, so modules the test suite loaded do not count)
    code = ("import sys, pickpoly, pickpoly.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


@pytest.mark.parametrize("poly", [
    {"basis": "bernstein", "degree": 1030, "coeffs": [1.0] * 1031},  # weights past the float range
    {"basis": "power", "degree": 3, "coeffs": [1e308] * 4},  # sums past the float range
])
def test_convert_past_float_range_writes_one_json_error(tmp_path, poly):
    # a subprocess: in process, pytest captures numpy's RuntimeWarning
    proc = run_python("-m", "pickpoly", "convert", "--in", write(tmp_path / "p.json", poly))
    assert proc.returncode == 1 and proc.stdout == ""
    msg = json.loads(proc.stderr)
    assert msg["error"] == "ValueError"
    got = {"bernstein": "nan", "power": "inf"}[poly["basis"]]
    assert msg["message"] == f"coeffs must be a 1-d array of at least 1 finite real numbers, got {got}"

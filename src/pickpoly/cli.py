"""Command-line front door: batch subcommands over JSON/CSV files.

Exit codes: 0 success, 1 domain/validation error (JSON on stderr), 2 usage
error. All primary outputs are pure functions of flags, inputs and seeds;
wall-clock info goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import MISSING, fields

import numpy as np

from .bernstein import (
    BernsteinPoly,
    PowerPoly,
    _check_keys,
    bernstein_to_power,
    elevate_degree,
    poly_from_json,
    poly_to_json,
    power_to_bernstein,
)
from .inference import OptimConfig, SampleSet, fit_cfg, fit_full, fit_sub
from .measures import approx_error_bound, tau_measures
from .pickands import PickandsPoly, comonotone, validate_pickands
from .simulation import (
    StudyConfig,
    model_from_json,
    model_pickands,
    run_study,
    sample_copula,
)
from .submodel import lorentz_degree


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _open_out(path: str | None):
    """The output file at path, or stdout (left open) when path is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_out(text: str, path: str | None) -> None:
    with _open_out(path) as fh:
        fh.write(text)
        if path is None and not text.endswith("\n"):
            fh.write("\n")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _as_bernstein(poly, m: int | None = None) -> BernsteinPoly:
    if isinstance(poly, PowerPoly):
        return power_to_bernstein(poly, m)
    if m is not None and m != poly.degree:
        return elevate_degree(poly, m)
    return poly


def _read_sample(path: str, ranks: bool) -> SampleSet:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["u", "v"]:
            raise ValueError(f'data CSV must start with header "u,v", got {header!r}')
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError("data CSV has no data rows below its header")
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != 2:
        raise ValueError("data CSV must have exactly two columns")
    return SampleSet.from_arrays(rows[:, 0], rows[:, 1], ranks=ranks)


def _cmd_validate(args) -> int:
    poly = _as_bernstein(poly_from_json(_read_json(args.infile)))
    _write_out(_dump(validate_pickands(poly)), args.out)
    return 0


def _cmd_convert(args) -> int:
    poly = poly_from_json(_read_json(args.infile))
    to = args.to or ("power" if isinstance(poly, BernsteinPoly) else "bernstein")
    if to == "bernstein":
        out = _as_bernstein(poly, args.m)
    elif args.m is not None:
        raise ValueError("--m is the target Bernstein degree; it does not apply to a power target")
    else:
        out = bernstein_to_power(poly) if isinstance(poly, BernsteinPoly) else poly
    _write_out(_dump(poly_to_json(out)), args.out)
    return 0


def _cmd_lorentz(args) -> int:
    h = _as_bernstein(poly_from_json(_read_json(args.infile)))
    result = lorentz_degree(h, cap=args.cap)
    _write_out(_dump({"degree": result}), args.out)
    return 0


def _cmd_measures(args) -> int:
    A = PickandsPoly(_as_bernstein(poly_from_json(_read_json(args.infile))))
    _write_out(_dump(tau_measures(A).to_json()), args.out)
    return 0


# rows of the simulate CSV formatted per write: the whole text at once
# would hold every row string in memory together
_CSV_CHUNK = 8192


def _cmd_simulate(args) -> int:
    model = model_from_json(_read_json(args.model))
    sample = sample_copula(model, args.n, args.seed)
    with _open_out(args.out) as fh:
        fh.write("u,v\n")
        for i in range(0, sample.n, _CSV_CHUNK):
            rows = zip(sample.u[i:i + _CSV_CHUNK].tolist(), sample.v[i:i + _CSV_CHUNK].tolist())
            fh.write("".join([f"{u!r},{v!r}\n" for u, v in rows]))
    return 0


def _fit_result_json(fit, kind: str, m: int | None) -> dict:
    out = {
        "model": kind,
        "m": m,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "starts_used": fit.starts_used,
        "param": None,
    }
    if fit.param is not None:
        out["param"] = fit.param.to_json()
    est = fit.estimate
    if isinstance(est, PickandsPoly):
        out["estimate"] = {
            "bernstein": poly_to_json(est.poly),
            "power": poly_to_json(bernstein_to_power(est.poly)),
        }
    else:
        out["estimate"] = {"knots": est.knots.tolist(), "values": est.values.tolist()}
    return out


def _cmd_fit(args) -> int:
    data = _read_sample(args.infile, args.ranks)
    if args.model in ("full", "sub"):
        if args.m is None:
            raise UsageError("--m is required for --model full/sub")
        config = OptimConfig(starts=args.starts, seed=args.seed)
        fit = (fit_full if args.model == "full" else fit_sub)(data, args.m, config)
        out = _fit_result_json(fit, args.model, args.m)
    else:
        fit = fit_cfg(data, grid=args.grid)
        out = _fit_result_json(fit, "cfg", None)
    _write_out(_dump(out), args.out)
    return 0


def _cmd_study(args) -> int:
    # the JSON reader checks keys only; StudyConfig and the model check the values
    raw = _read_json(args.infile)
    _check_keys(raw, [f.name for f in fields(StudyConfig)], "study config",
                required=[f.name for f in fields(StudyConfig) if f.default is MISSING])
    optim = None
    if "optim" in raw:
        _check_keys(raw["optim"], [f.name for f in fields(OptimConfig)], "optim")
        optim = OptimConfig(**raw["optim"])
    config = StudyConfig(**{**raw, "model": model_from_json(raw["model"]), "optim": optim})
    report = run_study(config)
    _write_out(_dump(report.payload()), args.out)
    if args.csv is not None:
        curves = {"mse": report.mse, "variance": report.variance, "bias_sq": report.bias_sq}
        columns = [(k, est) for est in config.estimators for k in curves]
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "truth", *(f"{k}_{est}" for k, est in columns)])
            for j, t in enumerate(report.abscissae):
                row = [t, report.truth[j], *(curves[k][est][j] for k, est in columns)]
                writer.writerow([repr(float(x)) for x in row])
    print(f"study finished in {report.runtime_seconds:.2f}s", file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    obj = _read_json(args.model)
    como = isinstance(obj, dict) and obj.get("model") == "comonotone"
    if como:
        _check_keys(obj, ("model",), "comonotone model JSON")
    A = comonotone() if como else model_pickands(model_from_json(obj))
    b = approx_error_bound(A, args.m, args.t)
    _write_out(_dump({"error": b.error, "bound": b.bound, "v_bound": b.v_bound}), args.out)
    return 0


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pickpoly",
                                     description="Polynomial Pickands functions toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = add("validate", _cmd_validate, "classify a polynomial as Pickands function or not")
    p.add_argument("--in", dest="infile", required=True, help="polynomial JSON")

    p = add("convert", _cmd_convert, "change polynomial basis / elevate degree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", choices=["bernstein", "power"], default=None,
                   help="target basis (default: the other one)")
    p.add_argument("--m", type=int, default=None, help="target Bernstein degree")

    p = add("lorentz", _cmd_lorentz, "Lorentz degree of a nonnegative polynomial")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=512)

    p = add("measures", _cmd_measures, "dependence measures tau1, tau2")
    p.add_argument("--in", dest="infile", required=True)

    p = add("simulate", _cmd_simulate, "draw a sample from an extreme-value copula")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("fit", _cmd_fit, "fit a Pickands function to u,v data")
    p.add_argument("--in", dest="infile", required=True, help='CSV with header "u,v"')
    p.add_argument("--model", choices=["full", "sub", "cfg"], required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--starts", type=int, default=OptimConfig.starts)
    p.add_argument("--seed", type=int, default=OptimConfig.seed)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--ranks", action="store_true", help="use midrank pseudo-observations")

    p = add("study", _cmd_study, "run a Monte Carlo MSE study")
    p.add_argument("--in", dest="infile", required=True, help="StudyConfig JSON")
    p.add_argument("--csv", default=None, help="also write per-abscissa curves CSV here")

    p = add("bound", _cmd_bound, "Bernstein approximation error and bound at t")
    p.add_argument("--model", required=True, help='model JSON (or {"model":"comonotone"})')
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

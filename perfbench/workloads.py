"""The four benchmark workloads: study, fit, certify and simulate.

Each workload makes its inputs (and, for certify, independent labels) from
the seed in ``setup``, then runs items in a closed loop with one client: the
next item starts when the previous one returns. ``run`` is the timed call
into pickpoly; ``check`` compares its output with the labels outside the
timed region and returns one message per failed check.

Why these four: ``study`` is the criterion-10 job at n=100, where per-call
overhead of the two MLEs dominates and the process pool is used; ``fit``
runs uncapped searches at large n*m, where log-likelihood arithmetic
dominates; ``certify`` makes many small scalar evaluations and subdivisions
with no data or fitting; ``simulate`` is the only workload in which
``sample_copula`` and the CLI do the work, on wide arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

import pickpoly as pp
import pickpoly.cli  # noqa: F401  (binds pp.cli)


def child_seed(seed: int, *key: int) -> int:
    """An independent 63-bit seed for input ``key`` of benchmark seed ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Study:
    """run_study(threads=2) in the criterion-10 shape; one item is one call."""

    name = "study"
    unit = "replicates"
    REPLICATES = 16
    THREADS = 2
    ops_per_item = REPLICATES

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.quality: dict = {"sha256.inputs": sha256_json([self.config(k).seed for k in range(64)])}
        # lru caches warmed here are inherited by the forked pool workers
        pp.sample_feasible(5, np.random.default_rng(0), 1)
        pp.a_from_h(pp.BernsteinPoly(np.ones(6)))

    def config(self, k: int) -> pp.StudyConfig:
        return pp.StudyConfig(
            model=pp.SymmetricMixed(0.9), n=100, replicates=self.REPLICATES, m=5,
            estimators=("full", "sub", "cfg"), seed=child_seed(self.seed, k), grid=101,
            optim=pp.OptimConfig(starts=8, maxfev=300),
        )

    def items(self, pass_index: int) -> list:
        return [pass_index]

    def run(self, k):
        return pp.run_study(self.config(k), threads=self.THREADS)

    def work(self, k) -> int:
        return self.REPLICATES

    def check(self, k, report) -> list[str]:
        bad = []
        for est in ("full", "sub", "cfg"):
            if report.excluded[est]:
                bad.append(f"study call {k}: {report.excluded[est]} {est} replicates excluded")
            gm = float(np.mean(report.mse[est]))
            self.quality.setdefault(f"study_grid_mse.{est}", []).append(gm)
            if not gm <= 5e-3:
                bad.append(f"study call {k}: {est} grid-mean mse {gm:.3e} > 5e-3")
        full, sub = report.logliks["full"], report.logliks["sub"]
        if np.any(full < 0.0) or np.any(sub < 0.0):
            bad.append(f"study call {k}: negative log-likelihood")
        n = self.config(k).n
        self.quality.setdefault("loglik_full", []).extend((full / n).tolist())
        self.quality.setdefault("loglik_sub", []).extend((sub / n).tolist())
        self.quality["nesting_violations"] = (self.quality.get("nesting_violations", 0)
                                              + int(np.sum(full < sub)))
        if k == 0:
            self.quality["sha256.payload"] = sha256_json(report.payload())
        return bad

    def replay(self, k: int, rep: int) -> dict:
        """One replicate of call k through public calls, as run_study draws it."""
        config = self.config(k)
        tgrid = np.linspace(0.0, 1.0, config.grid)
        sample = pp.sample_copula(config.model, config.n, pp.split_seed(config.seed, rep, 0))
        full = pp.fit_full(sample, config.m, replace(config.optim, seed=pp.split_seed(config.seed, rep, 1)))
        sub = pp.fit_sub(sample, config.m, replace(config.optim, seed=pp.split_seed(config.seed, rep, 2)))
        cfg = pp.fit_cfg(sample)
        return {"full": full.loglik, "sub": sub.loglik,
                "curves": [f.estimate.value(tgrid) for f in (full, sub, cfg)]}


class Fit:
    """Serial fit_full, fit_sub and fit_cfg with OptimConfig() defaults but the seed."""

    name = "fit"
    unit = "datasets"
    DATA_SEED = 20260810
    # Both n, both models and the m=10 cell of the n x m grid; the whole
    # {200, 1000} x {3, 6, 10} grid takes minutes per pass.
    CELLS = (
        (pp.SymmetricMixed(0.6), 200, 10),
        (pp.AsymmetricLogistic(0.5, 0.9, 0.6), 1000, 3),
        (pp.SymmetricMixed(0.6), 1000, 3),
        (pp.AsymmetricLogistic(0.5, 0.9, 0.6), 200, 3),
    )

    def setup(self, seed: int, workdir: Path) -> None:
        self.quality: dict = {}
        self.digests: dict[int, str] = {}
        # The datasets are the same for every seed and the seed draws the
        # optimizer starts: how long an uncapped search runs depends on the
        # data far more than on its starts, and four datasets per run are
        # too few to average that out.
        self.data = [pp.sample_copula(model, n, child_seed(self.DATA_SEED, i))
                     for i, (model, n, m) in enumerate(self.CELLS)]
        self.optim = [pp.OptimConfig(seed=child_seed(seed, i)) for i in range(len(self.CELLS))]
        self.quality["sha256.inputs"] = sha256_json(
            [d.u.tolist() + d.v.tolist() for d in self.data] + [o.seed for o in self.optim])
        for m in {m for _, _, m in self.CELLS}:
            pp.sample_feasible(m, np.random.default_rng(0), 1)
            pp.a_from_h(pp.BernsteinPoly(np.ones(m + 1)))

    def items(self, pass_index: int) -> list:
        return list(range(len(self.CELLS)))

    def run(self, i):
        m = self.CELLS[i][2]
        return (pp.fit_full(self.data[i], m, self.optim[i]), pp.fit_sub(self.data[i], m, self.optim[i]),
                pp.fit_cfg(self.data[i]))

    def work(self, i) -> int:
        return 1

    def check(self, i, out) -> list[str]:
        full, sub, cfg = out
        bad = []
        for kind, f in (("full", full), ("sub", sub)):
            if not pp.validate_pickands(f.estimate.poly)["valid"]:
                bad.append(f"dataset {i}: fit_{kind} estimate is not a Pickands function")
            if not f.loglik >= 0.0:
                bad.append(f"dataset {i}: fit_{kind} loglik {f.loglik} < 0")
        digest = sha256_json({"full": full.param.to_json(), "sub": sub.param.to_json(),
                              "loglik": [full.loglik, sub.loglik],
                              "cfg": cfg.estimate.values.tolist()})
        first = i not in self.digests
        if self.digests.setdefault(i, digest) != digest:
            bad.append(f"dataset {i}: refit differs from the first fit")
        elif first:
            n = self.data[i].n
            self.quality.setdefault("loglik_full", []).append(full.loglik / n)
            self.quality.setdefault("loglik_sub", []).append(sub.loglik / n)
            self.quality["nesting_violations"] = (self.quality.get("nesting_violations", 0)
                                                  + int(full.loglik < sub.loglik))
        self.quality["sha256.params"] = sha256_json(self.digests)
        return bad


CERTIFY_DEGREES = (4, 10, 20, 30)


class Certify:
    """Polynomials only: every one goes through the whole certification chain."""

    name = "certify"
    unit = "polynomials"
    THETA_PER_CLASS = 8
    POLYTOPE_PER_DEGREE = 3

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(child_seed(seed, 0))
        self.quality: dict = {}
        self.polys: list[dict] = []
        for m in CERTIFY_DEGREES:
            self.polys += self._theta_polys(m, rng)
            self.polys.append(self._counterexample(self.polys[-1]["h"], rng))
            for _ in range(self.POLYTOPE_PER_DEGREE):
                h = pp.BernsteinPoly(_polytope_point(m, rng))
                self.polys.append(self._labelled("polytope", pp.a_from_h(h), h))
        for _ in range(3):
            alpha = Fraction(int(rng.integers(1, 5)), 4)
            beta = Fraction(int(rng.integers(-19, 39)), 20)
            self.polys.append(self._lorentz(alpha, beta))
        self.polys.append(self._lorentz(Fraction(int(rng.integers(1, 5)), 4), Fraction(2)))
        self.quality["sha256.inputs"] = sha256_json([p["A"].coeffs.tolist() for p in self.polys])
        self.first_pass: list[str] = []

    def _theta_polys(self, m: int, rng) -> list[dict]:
        # Random feasible theta, kept until both Lorentz classes (finite,
        # beyond the cap) have their quota: the classes differ in cost about
        # threefold, so a fixed mix keeps the pass time from swinging with
        # the seed. The class comes from the oracle's own float elevation;
        # labels are then computed exactly.
        quota = {True: self.THETA_PER_CLASS, False: self.THETA_PER_CLASS}
        out = []
        while any(quota.values()):
            params = [pp.FullModelParam(m, th) for th in pp.sample_feasible(m, rng, 64)]
            degrees = oracles.float_degrees([pp.theta_to_h(p).coeffs for p in params])
            for param, degree in zip(params, degrees):
                if quota[degree < 0]:
                    quota[degree < 0] -= 1
                    A = pp.theta_to_pickands(param).poly
                    out.append(self._labelled("theta", A, pp.h_from_a(A), guess=int(degree)))
        return out

    def _labelled(self, kind, A, h, lorentz=None, guess=None) -> dict:
        hx, ax = oracles.exact(h.coeffs), oracles.exact(A.coeffs)
        q0, q1 = oracles.functionals(hx)
        return {
            "kind": kind, "A": A, "h": h, "valid": True, "nonneg": True,
            "masses": (float(min(max(1 - q0, 0), 1)), float(min(max(1 - q1, 0), 1))),
            "tau": tuple(float(x) for x in oracles.tau(ax)),
            "lorentz": oracles.lorentz_degree(hx, guess=guess) if lorentz is None else lorentz,
            "member": oracles.in_polytope(hx),
        }

    def _counterexample(self, h, rng) -> dict:
        # shift h down by its value at a grid point plus a margin: the shifted
        # h is negative there by construction, so A is not convex
        hx = oracles.exact(h.coeffs)
        t = Fraction(int(rng.integers(1, 16)), 16)
        shift = float(oracles.bernstein_value(hx, t)) + 0.05
        g = pp.BernsteinPoly(h.coeffs - shift)
        gx = oracles.exact(g.coeffs)
        if not oracles.bernstein_value(gx, t) < 0:
            raise RuntimeError("counterexample construction did not go negative")
        return {"kind": "counter", "A": pp.a_from_h(g), "h": g, "valid": False,
                "nonneg": False, "masses": None, "tau": None, "lorentz": None,
                "member": oracles.in_polytope(gx)}

    def _lorentz(self, alpha: Fraction, beta: Fraction) -> dict:
        h = pp.BernsteinPoly([float(c) for c in oracles.lorentz_h(alpha, beta)])
        lorentz = "infinite" if beta == 2 else None
        return self._labelled("lorentz", pp.a_from_h(h), h, lorentz)

    def items(self, pass_index: int) -> list:
        return list(range(len(self.polys)))

    def run(self, i):
        p = self.polys[i]
        A, h = p["A"], p["h"]
        out = {"validate": pp.validate_pickands(A), "nonneg": pp.certify_nonnegative(h)}
        for key, fn in (("spectral", lambda: pp.spectral_measure(h)),
                        ("tau", lambda: pp.tau_measures(pp.PickandsPoly(A))),
                        ("lorentz", lambda: pp.lorentz_degree(h))):
            try:
                out[key] = fn()
            except ValueError as exc:
                out[key] = exc
        out["member"] = pp.in_submodel_h(h.coeffs)
        power = pp.bernstein_to_power(A)
        out["power"] = power
        out["back"] = pp.power_to_bernstein(power, A.degree)
        return out

    def work(self, i) -> int:
        return 1

    def check(self, i, out) -> list[str]:
        p = self.polys[i]
        tag = f"{p['kind']} poly {i}"
        bad = []
        v = out["validate"]
        if v["valid"] != p["valid"]:
            bad.append(f"{tag}: validate_pickands says {v['valid']}")
        if not p["valid"] and not any(x["rule"] == "convexity" for x in v["violations"]):
            bad.append(f"{tag}: no convexity violation reported")
        if out["nonneg"].nonneg != p["nonneg"]:
            bad.append(f"{tag}: certify_nonnegative says {out['nonneg'].nonneg}")
        if p["valid"]:
            sm, tm = out["spectral"], out["tau"]
            if isinstance(sm, Exception) or max(abs(sm.mass0 - p["masses"][0]),
                                                abs(sm.mass1 - p["masses"][1])) > 1e-12:
                bad.append(f"{tag}: spectral masses {sm} != {p['masses']}")
            if isinstance(tm, Exception) or max(abs(tm.tau1 - max(p["tau"][0], 0.0)),
                                                abs(tm.tau2 - max(p["tau"][1], 0.0))) > 1e-12:
                bad.append(f"{tag}: tau {tm} != {p['tau']}")
            if out["lorentz"] != p["lorentz"]:
                bad.append(f"{tag}: Lorentz degree {out['lorentz']} != {p['lorentz']}")
        else:
            for key in ("spectral", "tau", "lorentz"):
                if not isinstance(out[key], ValueError):
                    bad.append(f"{tag}: {key} accepted a non-convex input")
        if out["member"]["member"] != p["member"]:
            bad.append(f"{tag}: in_submodel_h says {out['member']['member']}")
        scale = max(1.0, float(np.max(np.abs(out["power"].coeffs))))
        err = float(np.max(np.abs(out["back"].coeffs - p["A"].coeffs)))
        if not err <= 1e-10 * scale:
            bad.append(f"{tag}: Bernstein-power round trip error {err:.2e}")
        if len(self.first_pass) < len(self.polys):
            self.first_pass.append(repr((v, out["nonneg"].nonneg, str(out["lorentz"]),
                                         out["member"]["member"])))
            if len(self.first_pass) == len(self.polys):
                self.quality["sha256.verdicts"] = hashlib.sha256(
                    "\n".join(self.first_pass).encode()).hexdigest()
        return bad


def _polytope_point(m: int, rng) -> np.ndarray:
    # random direction in the nonnegative orthant, scaled to the cap boundary
    # and pulled inside, so both endpoint-derivative sums stay below 1
    y = (np.arange(m + 1) + 1.0) / (m + 2)
    d = rng.exponential(size=m + 1)
    q0 = np.dot(1.0 - y, d) / (m + 1)
    q1 = np.dot(y, d) / (m + 1)
    return d * (rng.uniform(0.2, 0.95) / max(q0, q1))


class Simulate:
    """`pickpoly simulate` in-process for the alog, mix and poly model JSONs."""

    name = "simulate"
    unit = "pairs"
    N = 100_000
    GRID = np.arange(1, 10) / 10.0

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(child_seed(seed, 0))
        self.seed = seed
        self.workdir = workdir
        self.quality: dict = {}
        theta = pp.sample_feasible(4, rng, 1)[0]
        self.models = {
            "alog": pp.AsymmetricLogistic(float(rng.uniform(0.3, 0.9)),
                                          float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))),
            "mix": pp.SymmetricMixed(float(rng.uniform(0.2, 1.0))),
            "poly": pp.PolynomialModel(pp.theta_to_pickands(pp.FullModelParam(4, theta))),
        }
        self.quality["sha256.inputs"] = sha256_json(
            [pp.model_to_json(m) for m in self.models.values()]
            + [child_seed(seed, 1, k, i) for k in range(8) for i in range(len(self.models))])
        self.paths = {}
        for name, model in self.models.items():
            path = workdir / f"model-{name}.json"
            path.write_text(json.dumps(pp.model_to_json(model)))
            self.paths[name] = path

    def items(self, pass_index: int) -> list:
        return [(pass_index, name) for name in self.models]

    def _csv(self, item) -> Path:
        return self.workdir / f"sample-{item[1]}.csv"

    def run(self, item):
        k, name = item
        seed = child_seed(self.seed, 1, k, list(self.models).index(name))
        return pp.cli.main(["simulate", "--model", str(self.paths[name]), "--n", str(self.N),
                            "--seed", str(seed), "--out", str(self._csv(item))])

    def work(self, item) -> int:
        return self.N

    def check(self, item, code) -> list[str]:
        tag = f"simulate {item[1]} pass {item[0]}"
        if code != 0:
            return [f"{tag}: exit code {code}"]
        raw = self._csv(item).read_bytes()
        if not raw.startswith(b"u,v\n"):
            return [f"{tag}: header {raw[:20]!r}"]
        uv = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2)
        bad = []
        if uv.shape != (self.N, 2):
            return [f"{tag}: {uv.shape[0]} rows, expected {self.N}"]
        if not (np.all(uv > 0.0) and np.all(uv < 1.0)):
            bad.append(f"{tag}: values outside (0, 1)")
        A = pp.model_pickands(self.models[item[1]])
        worst = 0.0
        for x in self.GRID:
            le_x = uv[:, 0] <= x
            emp = np.array([np.mean(le_x & (uv[:, 1] <= y)) for y in self.GRID])
            worst = max(worst, float(np.max(np.abs(emp - pp.copula_cdf(A, np.full(9, x), self.GRID)))))
        if not worst <= 0.01:
            bad.append(f"{tag}: empirical cdf off by {worst:.4f} > 0.01")
        if item[0] == 0:
            self.quality[f"sha256.csv.{item[1]}"] = hashlib.sha256(raw).hexdigest()
        return bad


WORKLOADS = {w.name: w for w in (Study, Fit, Certify, Simulate)}

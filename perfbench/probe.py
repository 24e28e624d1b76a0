"""Per-layer probes: each named layer call timed on its own.

Every traced run ends with the same probe, on inputs drawn from its seed, so
each per-layer metric means the same thing whichever workload is traced.
Sizes follow the workload that the layer feeds: the fits use the
criterion-10 settings of ``study``, the polynomials the degrees of
``certify``, and ``sample_copula`` and the wide evaluation the 10^5 pairs of
``simulate``.
"""

from __future__ import annotations

import time

import numpy as np

import pickpoly as pp
from pickpoly import inference

from spans import Tracer, minimize_attrs
from workloads import CERTIFY_DEGREES, child_seed

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# a search counts as useful when it ends within USEFUL_NATS_PER_OBS * n of
# the best search of its fit
USEFUL_NATS_PER_OBS = 1e-6
FIT_SPANS = ("inference.fit_full", "inference.fit_sub")


def summary(samples) -> dict:
    """Median, and the highest listed percentile with >= 10 samples beyond it."""
    x = np.asarray(samples, dtype=float)
    out = {"n": int(x.size), "p50": float(np.median(x))}
    for q in TAIL_PERCENTILES:
        if x.size * (1.0 - q / 100.0) >= 10:
            out["tail"], out["tail_pct"] = float(np.percentile(x, q)), q
            break
    return out


def timed(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


class Probe:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(child_seed(seed, 99))
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict[str, dict] = {}

    def timing(self, name: str, samples, unit: str, tail: bool = True) -> None:
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        s = summary(np.asarray(samples) * scale)
        self.detail[name] = {**s, "unit": unit}
        self.metrics[name] = (s["p50"], unit)
        if tail:
            self.metrics[f"{name}.tail"] = (s["tail"], unit)

    def value(self, name: str, v: float, unit: str) -> None:
        self.metrics[name] = (float(v), unit)
        self.detail[name] = {"value": float(v), "unit": unit}

    def run(self) -> None:
        self.inference_layer()
        self.polynomial_layers()
        self.simulation_layer()

    def inference_layer(self, datasets: int = 3) -> None:
        """Fits at the criterion-10 settings, with each local search traced."""
        tracer = Tracer()
        tracer.patch(inference, "minimize", "inference.minimize", minimize_attrs)
        model, n, m = pp.SymmetricMixed(0.9), 100, 5
        tgrid = np.linspace(0.0, 1.0, 101)
        t = {k: [] for k in ("full", "sub", "cfg", "loglik", "replicate")}
        ll_full, ll_sub, nesting = [], [], 0
        try:
            for d in range(datasets):
                optim = pp.OptimConfig(starts=8, maxfev=300, seed=child_seed(self.seed, 98, d))
                t0 = time.perf_counter()
                data = pp.sample_copula(model, n, child_seed(self.seed, 97, d))
                t1 = time.perf_counter()
                tracer.request = f"full{d}"
                full = pp.fit_full(data, m, optim)
                t2 = time.perf_counter()
                tracer.request = f"sub{d}"
                sub = pp.fit_sub(data, m, optim)
                t3 = time.perf_counter()
                cfg = pp.fit_cfg(data)
                t4 = time.perf_counter()
                for f in (full, sub, cfg):
                    f.estimate.value(tgrid)
                t5 = time.perf_counter()
                t["full"].append(t2 - t1)
                t["sub"].append(t3 - t2)
                t["cfg"].append(t4 - t3)
                t["replicate"].append(t5 - t0)
                t["cfg"] += timed(lambda: pp.fit_cfg(data), 4)
                t["loglik"] += timed(lambda: pp.log_likelihood(full.estimate, data), 100)
                ll_full.append(full.loglik / n)
                ll_sub.append(sub.loglik / n)
                nesting += int(full.loglik < sub.loglik)
        finally:
            tracer.uninstall()
        self.timing("fit_full_s", t["full"], "s", tail=False)
        self.timing("fit_sub_s", t["sub"], "s", tail=False)
        self.timing("fit_cfg_ms", t["cfg"], "ms", tail=False)
        self.timing("log_likelihood_us", t["loglik"], "us")
        self.timing("replicate_s", t["replicate"], "s", tail=False)
        self.value("loglik_per_obs.full", np.mean(ll_full), "nats")
        self.value("loglik_per_obs.sub", np.mean(ll_sub), "nats")
        self.value("nesting_violations", nesting, "count")
        searches = search_stats(tracer.spans, lambda request: n)
        self.value("local_searches", searches["searches"] / searches["fits"], "count")
        self.timing("local_search_ms", searches["seconds"], "ms")
        self.value("local_search_nfev", float(np.median(searches["nfev"])), "count")
        self.value("useful_search_ratio", searches["useful"] / searches["searches"], "fraction")
        self.value("search_success_ratio", searches["success"] / searches["searches"], "fraction")

    def polynomial_layers(self, per_degree: int = 2, reps: int = 5) -> None:
        rng = self.rng
        polys = []
        for m in CERTIFY_DEGREES:
            for th in pp.sample_feasible(m, rng, per_degree):
                param = pp.FullModelParam(m, th)
                A = pp.theta_to_pickands(param)
                polys.append((param, A, pp.h_from_a(A.poly)))
        t = {k: [] for k in ("eval", "gmin", "convert", "validate", "certify", "spectral",
                             "theta", "member", "tau", "lorentz")}
        subdivisions = elevations = 0
        for param, A, h in polys:
            P, deg = A.poly, A.poly.degree
            xs = rng.uniform(size=10)
            t["eval"] += [timed(lambda: pp.evaluate(P, float(x)), 1)[0] for x in xs]
            t["gmin"] += timed(lambda: pp.global_minimum(h), reps)
            t["convert"] += timed(lambda: pp.power_to_bernstein(pp.bernstein_to_power(P), deg), reps)
            t["validate"] += timed(lambda: pp.validate_pickands(P), reps)
            t["certify"] += timed(lambda: pp.certify_nonnegative(h), reps)
            t["spectral"] += timed(lambda: pp.spectral_measure(h), reps)
            t["theta"] += timed(lambda: pp.theta_to_pickands(param), reps)
            t["member"] += timed(lambda: pp.in_submodel_h(h.coeffs), reps)
            t["tau"] += timed(lambda: pp.tau_measures(A), reps)
            t["lorentz"] += timed(lambda: pp.lorentz_degree(h), reps)
            subdivisions += pp.certify_nonnegative(h).subdivisions
            ld = pp.lorentz_degree(h)
            if ld != "infinite":
                elevations += (512 if ld == "exceeds cap" else ld) - h.degree
        self.timing("evaluate_us.scalar", t["eval"], "us")
        self.timing("global_minimum_us", t["gmin"], "us")
        self.timing("convert_us", t["convert"], "us")
        self.timing("validate_pickands_us", t["validate"], "us")
        self.timing("certify_nonnegative_us", t["certify"], "us")
        self.timing("spectral_measure_us", t["spectral"], "us")
        self.timing("theta_to_pickands_us", t["theta"], "us")
        self.timing("in_submodel_h_us", t["member"], "us")
        self.timing("tau_measures_us", t["tau"], "us")
        self.timing("lorentz_degree_ms", t["lorentz"], "ms")
        self.value("subdivisions", subdivisions, "count")
        self.value("lorentz_elevations", elevations, "count")

        wide = np.linspace(0.0, 1.0, 100_000)
        P6 = polys[0][1].poly  # degree 6, as the simulate poly model
        self.timing("evaluate_ms.wide", timed(lambda: pp.evaluate(P6, wide), reps), "ms", tail=False)
        self.timing("sample_feasible_ms", [s for m in CERTIFY_DEGREES
                                           for s in timed(lambda: pp.sample_feasible(m, rng, 8), 3)],
                    "ms", tail=False)
        tensor = pp.full_model.coefficient_tensor
        for m in CERTIFY_DEGREES:
            cold = []
            for _ in range(3):
                tensor.cache_clear()
                cold += timed(lambda: tensor(m), 1)
            self.timing(f"coefficient_tensor_cold_ms.m{m}", cold, "ms", tail=False)
        alog = pp.model_pickands(pp.AsymmetricLogistic(0.5, 0.9, 0.6))
        self.timing("approx_error_bound_ms",
                    [timed(lambda: pp.approx_error_bound(alog, 10, float(x)), 1)[0]
                     for x in rng.uniform(size=10)], "ms", tail=False)

    def simulation_layer(self) -> None:
        theta = pp.sample_feasible(4, self.rng, 1)[0]
        models = {
            "alog": pp.AsymmetricLogistic(0.5, 0.9, 0.6),
            "mix": pp.SymmetricMixed(0.6),
            "poly": pp.PolynomialModel(pp.theta_to_pickands(pp.FullModelParam(4, theta))),
        }
        for i, (name, model) in enumerate(models.items()):
            seed = child_seed(self.seed, 96, i)
            self.timing(f"sample_copula_ms.{name}",
                        timed(lambda: pp.sample_copula(model, 100_000, seed), 1), "ms", tail=False)


def search_stats(spans, n_of) -> dict:
    """Local searches grouped per fit: counts, times and how many were useful.

    A search belongs to its nearest enclosing fit_full/fit_sub span, or, when
    fits are not traced, to the request id it ran under.
    """
    fits: dict[tuple, list] = {}
    for sp in spans:
        if sp.name != "inference.minimize" or not sp.attrs:
            continue
        parent = sp.parent
        while parent is not None and spans[parent].name not in FIT_SPANS:
            parent = spans[parent].parent
        fits.setdefault((sp.request, parent), []).append(sp)
    out = {"fits": len(fits), "searches": 0, "useful": 0, "success": 0, "seconds": [], "nfev": []}
    for group in fits.values():
        best = min(sp.attrs["fun"] for sp in group)
        for sp in group:
            out["searches"] += 1
            out["useful"] += int(sp.attrs["fun"] <= best + USEFUL_NATS_PER_OBS * n_of(sp.request))
            out["success"] += int(sp.attrs["success"])
            out["seconds"].append(sp.end - sp.start)
            out["nfev"].append(sp.attrs["nfev"])
    return out

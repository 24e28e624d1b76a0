"""Harness behind run.py: set-up timing, the closed loop, the traced run, output."""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

import numpy as np

import pickpoly as pp
import pickpoly.cli  # noqa: F401  (binds pp.cli)

import probe
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
# the names the issue gives each workload's throughput, unscaled; the result
# line carries it, scaled to the reference speed, as "throughput" so that
# every workload prints the same metrics
THROUGHPUT_NAME = {"study": "study.replicates_per_s", "fit": "fit.datasets_per_s",
                   "certify": "certify.polys_per_s", "simulate": "simulate.pairs_per_s"}


# One reference chunk takes about this long on an uncontended core of the
# machine the bounds were set on. The host is shared and its speed drifts
# by a quarter within minutes; timing a fixed chunk of interpreter and numpy
# work (no pickpoly) between items and scaling by it cancels that drift.
REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.5


def reference_chunk() -> float:
    """Seconds for a fixed mix of small-array, wide-array and interpreter work."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 200)
    for _ in range(120):
        b = np.broadcast_to(np.arange(7.0)[:, None], (7, 200)).copy()
        for _ in range(6):
            b = b[:-1] + x * (b[1:] - b[:-1])
    wide = np.linspace(0.0, 1.0, 100_000)
    for _ in range(12):
        wide = np.sqrt(wide * 0.5 + 0.25)
    s = 0
    for i in range(24000):
        s += i * i % 7
    return time.perf_counter() - t0


class Tally:
    """Timed seconds, work done and failures of a sequence of items."""

    def __init__(self):
        self.seconds = 0.0
        self.durations: list[float] = []
        self.items: list = []
        self.outputs: list = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: list[float] = []

    def add(self, w, item, out, dt: float, bad: list[str]) -> None:
        ops = getattr(w, "ops_per_item", 1)
        self.seconds += dt
        self.durations.append(dt)
        self.items.append(item)
        self.outputs.append(out)
        self.attempted += ops
        if bad:
            self.failed += ops
            self.messages.extend(bad)
        else:
            self.work += w.work(item)


def run_item(w, item, tally: Tally, tracer=None):
    """Time one call into pickpoly, then check its output untimed (and untraced)."""
    t0 = time.perf_counter()
    try:
        out, bad = w.run(item), None
    except Exception as exc:  # counted as a failed operation, never dropped
        out, bad = None, [f"{w.name} {item!r}: {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if bad is None:
        try:
            bad = w.check(item, out)
        except Exception as exc:
            bad = [f"{w.name} {item!r}: check raised {type(exc).__name__}: {exc}"]
    if tracer is not None:
        tracer.active = True
    tally.add(w, item, out, dt, bad)


def closed_loop(w, seconds: float) -> Tally:
    """Whole passes, ending at the pass boundary nearest to ``seconds`` of timed work.

    A reference chunk runs, untimed, before the first item and after every
    REF_EVERY_S of timed work.
    """
    tally = Tally()
    last_ref = -REF_EVERY_S
    for k in count():
        before = tally.seconds
        for item in w.items(k):
            if tally.seconds - last_ref >= REF_EVERY_S:
                tally.reference.append(reference_chunk())
                last_ref = tally.seconds
            run_item(w, item, tally)
        if tally.seconds + (tally.seconds - before) / 2 >= seconds:
            tally.reference.append(reference_chunk())
            return tally


def phase(w, items, budget: float | None = None, tracer=None) -> Tally:
    """Run items in order; stop once ``budget`` seconds of timed work are done."""
    tally = Tally()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        run_item(w, item, tally, tracer)
        if budget is not None and tally.seconds >= budget:
            break
    return tally


def stream(w):
    for k in count():
        yield from w.items(k)


class StudyReplay:
    """Replicates of the study's calls, replayed serially through public calls.

    Spans cannot cross the process pool, so the traced study replays the
    replicates of the pooled calls; each must reproduce its pooled
    log-likelihoods bit for bit.
    """

    name = "study-replay"

    def __init__(self, study, reports: dict):
        self.study, self.reports = study, reports

    def run(self, item):
        return self.study.replay(*item)

    def work(self, item) -> int:
        return 1

    def check(self, item, out) -> list[str]:
        k, rep = item
        if self.reports[k] is None:
            return [f"replicate {item}: its pooled call failed"]
        logliks = self.reports[k].logliks
        if out["full"] != logliks["full"][rep] or out["sub"] != logliks["sub"][rep]:
            return [f"replicate {item}: serial replay differs from the pooled run"]
        return []


def install(tracer: spans.Tracer) -> None:
    """Spans on every pickpoly module, and on each local search inside the MLEs."""
    tracer.install(pp)
    tracer.patch(pp.inference, "minimize", "inference.minimize", spans.minimize_attrs)


def traced_run(w, seconds: float, detail: dict) -> tuple[list[Tally], spans.Tracer, float]:
    """Untraced then traced runs of the same items; returns tallies, spans, overhead."""
    tracer = spans.Tracer()
    if w.name == "study":
        pooled = phase(w, stream(w), seconds / 3)
        replay = StudyReplay(w, dict(zip(pooled.items, pooled.outputs)))
        replicates = [(k, r) for k in pooled.items for r in range(w.REPLICATES)]
        untraced = phase(replay, replicates, seconds / 3)
        install(tracer)
        try:
            traced = phase(replay, untraced.items, tracer=tracer)
        finally:
            tracer.uninstall()
        serial_rate = untraced.work / untraced.seconds
        detail["run_study.scaling_eff"] = (pooled.work / pooled.seconds) / (w.THREADS * serial_rate)
        detail["replicate_s"] = probe.summary(untraced.durations)
        detail.update({k: float(np.mean(v)) for k, v in w.quality.items()
                       if k.startswith("study_grid_mse")})
        tallies = [pooled, untraced, traced]
    else:
        untraced = phase(w, stream(w), seconds / 2)
        install(tracer)
        try:
            traced = phase(w, untraced.items, tracer=tracer)
        finally:
            tracer.uninstall()
        tallies = [untraced, traced]
    return tallies, tracer, traced.seconds / untraced.seconds - 1.0


def span_detail(w, tracer: spans.Tracer, traced: Tally) -> dict:
    """Per-name counts and timings, plus the layer figures only this workload has."""
    sp = tracer.spans
    selfs = spans.self_times(sp)
    names = spans.by_name(sp)
    table = {}
    for name, idx in names.items():
        table[name] = {"calls": len(idx), "self_s": float(sum(selfs[i] for i in idx)),
                       "ms": probe.summary([(sp[i].end - sp[i].start) * 1e3 for i in idx])}
    top = dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:30])
    out = {"spans": len(sp), "by_name": top}
    if "inference.minimize" in names:
        if w.name == "fit":
            s = probe.search_stats(sp, lambda request: w.data[traced.items[request]].n)
        else:
            s = probe.search_stats(sp, lambda request: w.config(0).n)
        out["local_searches"] = s["searches"] / max(1, s["fits"])
        out["local_search_ms"] = probe.summary(np.asarray(s["seconds"]) * 1e3)
        out["local_search_nfev"] = probe.summary(s["nfev"])
        out["useful_search_ratio"] = s["useful"] / max(1, s["searches"])
        out["search_success_ratio"] = s["success"] / max(1, s["searches"])
    if w.name == "simulate":
        per_model: dict[str, dict[str, list]] = {}
        for i in names.get("cli.main", []):
            model = traced.items[sp[i].request][1]
            kids = [j for j in names.get("simulation.sample_copula", []) if sp[j].parent is not None
                    and _ancestor(sp, j, i)]
            sample = sum(sp[j].end - sp[j].start for j in kids)
            d = per_model.setdefault(model, {"self": [], "sample": []})
            d["self"].append((sp[i].end - sp[i].start - sample) * 1e3)
            d["sample"].append(sample * 1e3)
        for model, d in per_model.items():
            out[f"simulate_self_ms.{model}"] = probe.summary(d["self"])
            out[f"sample_copula_ms.{model}"] = probe.summary(d["sample"])
    return out


def _ancestor(sp, j: int, i: int) -> bool:
    p = sp[j].parent
    while p is not None:
        if p == i:
            return True
        p = sp[p].parent
    return False


def clear_caches() -> None:
    for mod in (pp.bernstein, pp.pickands, pp.full_model, pp.submodel, pp.measures,
                pp.inference, pp.simulation, pp.cli):
        for obj in list(vars(mod).values()):
            if hasattr(obj, "cache_clear") and not isinstance(obj, type):
                obj.cache_clear()


def timed_setup(w, seed: int, workdir: Path) -> list[float]:
    """Fresh-interpreter import plus input generation and cold-cache warm-up."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pickpoly, pickpoly.cli"],
                       cwd=ROOT, env=env, check=True)
        w.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return times


def environment(seed: int, blas: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    return {
        "cpu": cpu, "nproc": os.cpu_count(), "blas_threads": blas,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_revision": git_revision(), "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "pickpoly").glob("*.py"))),
        "public_names": len(pp.__all__),
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(args, blas: dict) -> int:
    w = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _main(args, blas, w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, blas, w, workdir: Path) -> int:
    setup = timed_setup(w, args.seed, workdir)
    detail = {"workload": w.name, "trace": args.trace, "env": environment(args.seed, blas),
              "setup_s": setup, "unit": w.unit}
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        tally = closed_loop(w, args.seconds)
        tallies = [tally]
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if w.name == "study":  # the pool workers
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ref = statistics.median(tally.reference)
        speed = ref / REF_NOMINAL_S  # > 1 when the host runs slower than nominal
        raw_rate = tally.work / tally.seconds
        metrics["throughput"] = {"value": raw_rate * speed, "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setup) / speed, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": usage / 1024.0, "unit": "MB"}
        detail[THROUGHPUT_NAME[w.name]] = raw_rate
        detail["setup_s_raw"] = statistics.median(setup)
        detail["reference_chunk_s"] = {"median": ref, "n": len(tally.reference)}
        detail["timed_s"] = tally.seconds
        detail["items"] = len(tally.items)
    else:
        tallies, tracer, overhead = traced_run(w, args.seconds, detail)
        traced = tallies[-1]
        breakdown = spans.module_breakdown(tracer.spans, traced.seconds)
        detail["layers"] = span_detail(w, tracer, traced)
        prb = probe.Probe(args.seed)
        prb.run()
        detail["probe"] = prb.detail
        metrics["tracing_overhead"] = {"value": overhead, "unit": "fraction"}
        metrics["uncovered_share"] = {"value": breakdown["uncovered_share"], "unit": "fraction"}
        for mod, share in breakdown["self_share"].items():
            metrics[f"self_share.{mod}"] = {"value": share, "unit": "fraction"}
        for name, (value, unit) in prb.metrics.items():
            metrics[name] = {"value": value, "unit": unit}
        with gzip.open(OUT / f"{w.name}-seed{args.seed}.spans.json.gz", "wt") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.request, s.attrs]
                       for s in tracer.spans], fh)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    quality = {k: (float(np.mean(v)) if isinstance(v, list) else v) for k, v in w.quality.items()}
    for key, name in (("loglik_full", "loglik_per_obs.full"), ("loglik_sub", "loglik_per_obs.sub")):
        if key in quality:
            quality[name] = quality.pop(key)
    detail.update(quality=quality, attempted=attempted, failed=failed,
                  failed_share=failed / max(1, attempted),
                  failures=[m for t in tallies for m in t.messages][:20])
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

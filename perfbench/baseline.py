"""Record a baseline: several seeds per workload untraced, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline/<label>.json \\
        [--runs 10] [--seconds 20] [--workloads study fit certify simulate]

Runs one benchmark process at a time. For each workload and end-to-end
metric it stores every value with the median, the quartiles and the spread
(interquartile distance over the median, as statistics.quantiles gives it);
the traced run of the first seed adds every per-layer metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], time.perf_counter() - t0


def unscaled(detail: dict) -> dict:
    """The raw throughput and set-up time and the reference chunk they were scaled by."""
    keys = [k for k in detail if k.endswith("_per_s")] + ["setup_s_raw", "reference_chunk_s"]
    return {k: detail[k] for k in keys}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=["study", "fit", "certify", "simulate"])
    args = p.parse_args()
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        entry = {"runs": []}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail, wall = run(workload, seed, args.seconds, 0)
            report.setdefault("env", detail["env"])
            entry["runs"].append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                                  "attempted": result["attempted"], "failed": result["failed"],
                                  "quality": detail["quality"], "unscaled": unscaled(detail)})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, f"{wall:.1f}s", result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        entry["end_to_end"] = {name: spread(v) for name, v in values.items()}
        result, detail, wall = run(workload, args.first_seed, args.seconds, 1)
        entry["traced"] = {"seed": args.first_seed, "wall_s": wall, "correct": result["correct"],
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                           "layers": detail.get("layers", {}),
                           "workload_layers": {k: v for k, v in detail.items()
                                               if k.startswith(("run_study", "replicate_s",
                                                                "study_grid_mse"))}}
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself: python3 perfbench/selftest.py

They check the span arithmetic on a synthetic tree, that every metric named
in BENCHMARK.json is printed with a unit under a well-formed name, and that
the seed changes the inputs but not the set of metric names. The last two
run the benchmark for about a minute in all.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=None):
    s = spans.Span(name, start, parent, "r0")
    s.end = end
    return s


def run_bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5)
        # and [8, 9]; [1, 4] has a child [2, 3]
        tree = [span("a.root", 0.0, 10.0), span("b.x", 1.0, 4.0, 0), span("b.y", 3.0, 6.0, 0),
                span("c.z", 8.0, 9.0, 0), span("c.w", 2.0, 3.0, 1)]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 1.0])
        # top-level spans cover [0, 10] and [12, 13] of a 20 s wall
        shares = spans.module_breakdown(tree + [span("a.next", 12.0, 13.0)], 20.0)
        self.assertAlmostEqual(shares["uncovered_share"], 1.0 - 11.0 / 20.0)

    def test_module_shares_sum_with_uncovered_to_one(self):
        tree = [span("bernstein.evaluate", 0.0, 2.0), span("pickands.vee", 0.5, 1.0, 0),
                span("inference.fit_full", 3.0, 7.0), span("bernstein.evaluate", 4.0, 5.0, 2)]
        b = spans.module_breakdown(tree, 10.0)
        self.assertAlmostEqual(b["self_share"]["bernstein"], 0.25)
        self.assertAlmostEqual(b["self_share"]["pickands"], 0.05)
        self.assertAlmostEqual(b["self_share"]["inference"], 0.3)
        self.assertAlmostEqual(sum(b["self_share"].values()) + b["uncovered_share"], 1.0)

    def test_covered_merges_overlaps(self):
        self.assertEqual(spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4)
        self.assertEqual(spans.covered([]), 0.0)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_names_are_well_formed(self):
        self.assertEqual(set(self.workloads), set(WORKLOADS))
        for name in [*self.end_to_end, *self.per_layer]:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)

    def test_every_metric_printed_with_its_unit(self):
        for workload, trace, expected in (("certify", 0, self.end_to_end),
                                          ("simulate", 0, self.end_to_end),
                                          ("certify", 1, self.per_layer)):
            out = run_bench(workload, 1, trace)
            self.assertTrue(out["correct"])
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(printed, expected, (workload, trace))
            for v in out["metrics"].values():
                self.assertIsInstance(v["value"], float)

    def test_seed_changes_inputs_not_metric_names(self):
        for cls in WORKLOADS.values():
            digests = []
            for seed in (1, 2):
                w = cls()
                with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
                    w.setup(seed, Path(tmp))
                digests.append(w.quality["sha256.inputs"])
            self.assertNotEqual(digests[0], digests[1], cls.name)
        names = [set(run_bench("certify", seed, 0)["metrics"]) for seed in (1, 2)]
        self.assertEqual(names[0], names[1])


if __name__ == "__main__":
    unittest.main()

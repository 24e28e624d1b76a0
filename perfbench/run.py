"""pickpoly benchmark: one command, four workloads, an untraced and a traced mode.

    python3 perfbench/run.py --workload {study,fit,certify,simulate} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports pickpoly from ``src/`` of the
same checkout. The seed makes the inputs; the program only sees them.

``--trace 0`` runs whole passes of the workload's items in a closed loop
with one client, ending at the pass boundary nearest to ``--seconds`` of
timed work, and prints the end-to-end metrics: throughput and set-up time
scaled to a nominal host speed by a reference chunk timed between items
(the unscaled figures are in the detail line), and peak RSS.

``--trace 1`` runs the items once untraced and once with spans around every
call into each pickpoly module, reports where the time went, the tracing
overhead (the traced run's time over the untraced run's on the same items)
and the share of wall time outside any top-level span, then times each
layer on its own (probe.py).

Self-tests: ``python3 perfbench/selftest.py``. A multi-seed record of all
workloads: ``python3 perfbench/baseline.py --out perfbench/baseline/<label>.json``.

Outputs are checked outside the timed region; every failed check counts
against ``failed``. The last line of stdout is the result object; the line
before it holds the environment and per-workload detail, which is also
written with the spans under ``perfbench/out/``.
"""

import argparse
import os
import sys
from pathlib import Path

# Pinned before numpy loads; pool workers and subprocesses inherit it.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("study", "fit", "certify", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (SRC / "pickpoly" / "__init__.py").is_file():
        print(f"error: no pickpoly package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, so only after the BLAS pin

    return bench.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())

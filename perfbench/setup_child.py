"""One timed set-up: import kstickets, then generate a workload's inputs.

Run as a child process so each set-up pays a fresh import, and so input
generation never counts toward the peak RSS of the process that runs passes:
    python3 -B perfbench/setup_child.py WORKLOAD SEED SIZE OUTDIR
Writes OUTDIR/truth.json with the ground truth and the two timings.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]
import kstickets.cli  # noqa: E402,F401  (the import is part of set-up time)

t1 = time.perf_counter()
import workloads  # noqa: E402

workload, seed, size, out = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
truth = workloads.generate(workload, seed, size, out)
truth.update(import_s=t1 - t0, generate_s=time.perf_counter() - t1)
(out / "truth.json").write_text(json.dumps(truth))

#!/usr/bin/env python3
"""Layer timings at the sizes of ROADMAP's re-anchor baseline, side by side
with the numbers recorded there (single wall-clock runs, 2 cores):

    python3 perfbench/baseline.py

Times the library calls directly, without the CLI: `analyze_pair` at V=4096
for d=64 and d=768, `train` (embed mode, 5 epochs x 2000 pairs) at V in
{256, 4096, 32768}, and `count_frequencies` on 2M ids. Prints the median and
the minimum of REPEATS runs after one warm-up call.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5

# ROADMAP "Baseline measured at this re-anchor"
ROADMAP = {
    "analyze V=4096 d=64": 0.80,
    "analyze V=4096 d=768": 1.57,
    "train V=256": 0.09,
    "train V=4096": 1.1,
    "train V=32768": 12.2,
    "count_frequencies 2M ids": 1.28,
}


def timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def main() -> int:
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from kstickets.checkpoint import get_embedding, Checkpoint, TensorRecord
    from kstickets.selection import analyze_pair, count_frequencies
    from kstickets.toytrain import TrainConfig, generate_task, init_model, train

    rng = np.random.default_rng(0)
    cases = {}
    for d in (64, 768):
        base = rng.standard_normal((4096, d), dtype=np.float32) * np.float32(0.05)
        tuned = base + np.float32(0.002) * rng.standard_normal((4096, d), dtype=np.float32)
        views = [get_embedding(Checkpoint([TensorRecord("e", m.shape, m)]), "e") for m in (base, tuned)]
        cases[f"analyze V=4096 d={d}"] = (lambda v=views: analyze_pair(*v), 4096, "row")
    for v in (256, 4096, 32768):
        model, task = init_model(1, v, 64), generate_task(1, v, 2000, 1.8)
        config = TrainConfig(mode="embed", epochs=5, seed=1)
        cases[f"train V={v}"] = (lambda m=model, t=task, c=config: train(m, t, c), 5 * 63, "step")
    ids = rng.integers(0, 32000, 2_000_000).tolist()
    cases["count_frequencies 2M ids"] = (lambda: count_frequencies(ids, 32000), 2_000_000, "id")

    print(f"{'case':26s} {'median s':>9s} {'min s':>9s} {'roadmap s':>9s} {'ratio':>6s}  per unit (median)")
    for name, (fn, units, per) in cases.items():
        fn()  # warm-up: the first call in a process runs slower
        med, low = timed(fn)
        ref = ROADMAP[name]
        print(f"{name:26s} {med:9.3f} {low:9.3f} {ref:9.2f} {med / ref:6.2f}  {med / units * 1e6:.2f} us/{per}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

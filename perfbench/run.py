#!/usr/bin/env python3
"""kstickets benchmark: one workload, driven through the real CLI in-process.

    python3 perfbench/run.py --workload score-d64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 0 --trace 1 --smoke

Run from the repository root. Each run sets up the workload's inputs several
times (a child process per set-up: import plus generation), runs one warm-up
pass, then runs passes of the workload's stage list through
`kstickets.cli.run` for --seconds, one client in a closed loop. The warm-up
outputs are checked (checks.py); every later pass must reproduce them byte
for byte. `--trace 1` alternates untraced and traced passes and reports
per-layer metrics instead of end-to-end ones.

The last stdout line is one JSON object: correct, attempted, failed (stages
run and stages failed: nonzero exit or failed output check) and metrics.
The full record, with provenance, output digests and spans, goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def set_up(workload, seed, size, inp: Path) -> tuple[list[float], dict]:
    """SETUP_REPEATS fresh set-ups into `inp`; returns their times and the truth."""
    import checks

    times, digests, truth = [], set(), {}
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inp, ignore_errors=True)
        inp.mkdir(parents=True)
        subprocess.run([sys.executable, "-B", str(HERE / "setup_child.py"), workload, str(seed), size, str(inp)],
                       check=True, timeout=150, stdin=subprocess.DEVNULL)
        truth = json.loads((inp / "truth.json").read_text())
        times.append(truth.pop("import_s") + truth.pop("generate_s"))
        digests.add(tuple(sorted((p.name, checks.sha256(p)) for p in inp.iterdir() if p.name != "truth.json")))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return times, truth


def run_pass(cli_run, stage_list, tracer=None) -> dict:
    """Stages in sequence; pass wall time is the sum of the stage walls."""
    walls, codes = {}, {}
    for label, argv in stage_list:
        gc.collect()  # each stage starts from a clean heap, as a fresh CLI process would
        s0 = time.perf_counter()
        try:
            if tracer is None:
                codes[label] = cli_run(argv)
            else:
                with tracer.stage(label, argv):
                    codes[label] = cli_run(argv)
        except Exception:  # an uncaught error ends a CLI process with exit code 1
            traceback.print_exc()
            codes[label] = 1
        walls[label] = time.perf_counter() - s0
    return {"wall_s": sum(walls.values()), "stage_s": walls, "codes": codes, "traced": tracer is not None}


def measure(workload, seed, size, seconds, trace, work: Path, cli_run=None) -> dict:
    """One benchmark run in `work`; `cli_run` lets a test substitute a faulty program."""
    import checks
    import kstickets.cli
    import tracing
    import workloads

    cli_run = cli_run or kstickets.cli.run
    inp = work / "inputs"
    setup_times, truth = set_up(workload, seed, size, inp)

    def stage_list(k):
        out = work / f"pass{k}"
        out.mkdir()
        return out, workloads.stages(workload, seed, size, inp, out)

    def digests(sl):
        paths = {label: workloads.out_path(argv) for label, argv in sl}
        return {label: checks.sha256(path) if os.path.isfile(path) else None for label, path in paths.items()}

    warm_dir, warm_stages = stage_list(0)
    warm = run_pass(cli_run, warm_stages)
    warm_digests = digests(warm_stages)

    tracer = tracing.Tracer() if trace else None
    passes, spans = [], []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        out, sl = stage_list(len(passes) + 1)
        if traced:
            tracer.install()
            tracer.begin_pass()
        try:
            p = run_pass(cli_run, sl, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["mismatch"] = sorted(label for label, sha in digests(sl).items()
                               if sha is None or sha != warm_digests[label])
        if traced:
            p["paused_s"] = tracer.paused
            spans.append(tracer.end_pass(sum(c != 0 for c in p["codes"].values())))
        passes.append(p)
        shutil.rmtree(out)
        # stop before a pass of typical length would end past --seconds
        typical = median([q["wall_s"] for q in passes])
        if time.perf_counter() - t_start + typical > seconds and (not trace or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = checks.Checker(workload, size, inp, warm_dir, truth).run(warm_stages)
    failed = {label for label, code in warm["codes"].items() if code != 0} | set(failures)
    n_failed = len(failed)
    for p in passes:
        n_failed += len(failed | set(p["mismatch"]) | {lb for lb, c in p["codes"].items() if c != 0})
    attempted = len(warm_stages) * (1 + len(passes))

    plain = [p for p in passes if not p["traced"]]
    sz = workloads.SIZES[size][workload]

    def stage_sum(p, prefixes):
        return sum(s for label, s in p["stage_s"].items() if label.startswith(prefixes))

    if trace:
        traced_walls = [p["wall_s"] - p["paused_s"] for p in passes if p["traced"]]
        metrics = tracing.median_metrics(spans)
        metrics["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median([p["wall_s"] for p in plain]) - 1)
        n_train = sum(label.startswith("train-") for label, _ in warm_stages)
        n_certify = sum(label.startswith("certify") for label, _ in warm_stages)
        train_wall = median([stage_sum(p, "train-") for p in plain])
        certify_wall = median([stage_sum(p, "certify") for p in plain])
        # the toy log has one record per pair; sweep-d768's log is generated
        records = n_certify * sz.get("records", sz.get("pairs", 0))
        metrics["train_pairs_per_s"] = n_train * sz.get("pairs", 0) * sz.get("epochs", 0) / train_wall if n_train else 0.0
        metrics["certify_records_per_s"] = records / certify_wall if n_certify else 0.0
    else:
        metrics = {
            "setup_s": median(setup_times),
            "pass_s": median([p["wall_s"] for p in plain]),
            "analyze_rows_per_s": median([sz["vocab"] / p["stage_s"]["analyze"] for p in plain]),
            "tickets_s": median([stage_sum(p, ("select", "mask", "transfer")) for p in plain]),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "workload": workload, "seed": seed, "size": size, "sizes": sz, "trace": trace,
        "seconds": seconds, "setup_s": setup_times, "warmup": warm, "passes": passes,
        "digests": warm_digests, "failures": failures, "attempted": attempted, "failed": n_failed,
        "peak_rss_mb": peak_rss_mb, "metrics": metrics, "spans": spans,
    }


def provenance(threads: int) -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, stdin=subprocess.DEVNULL)
        lines = top.stdout.split()
        git_sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "kstickets").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": threads, "cpu_count": os.cpu_count(), "caches_per_core": caches,
        "machine": platform.machine(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("score-d64", "sweep-d768", "toy-train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes: every stage and check in seconds")
    args = ap.parse_args(argv)
    if not (SRC / "kstickets" / "cli.py").is_file():
        print(f"error: {SRC / 'kstickets'} not found; run from a kstickets checkout", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy loads; set-up children inherit them
        os.environ[var] = str(threads)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import kstickets

    if Path(kstickets.__file__).resolve().parent != SRC / "kstickets":
        print(f"error: imported kstickets from {kstickets.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        res = measure(args.workload, args.seed, size, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["provenance"] = prov = provenance(threads)

    results = scratch / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1, sort_keys=True))

    plain = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    print(f"# workload={args.workload} size={size} seed={args.seed} trace={args.trace} "
          f"inputs={json.dumps(res['sizes'])}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# {len(res['setup_s'])} set-ups, 1 warm-up pass, {len(res['passes'])} timed passes "
          f"({len(plain)} untraced: {', '.join(f'{w:.3f}' for w in plain)} s)")
    for label, msgs in sorted(res["failures"].items()):
        print(f"# FAILED {label}: {'; '.join(msgs)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':34s} {res['failed'] / res['attempted']:14.6g} fraction "
          f"({res['failed']} of {res['attempted']} stage runs failed)")
    print(f"# full record: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

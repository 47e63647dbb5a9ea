"""Spans around the public functions of each kstickets module, for traced runs.

`Tracer.install()` replaces every public function of the layer modules (and
`Sample.__post_init__`, where ksstat sorts each row) with a timing wrapper, in
every kstickets module that holds a reference to it; `uninstall()` puts the
originals back. Calls are aggregated per stage into one span per function
with a count, total time and self time (total minus the time its wrapped
callees cover). Counters that need the call's arguments run with the clock
paused, so they cost no span any time.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("checkpoint", "ksstat", "selection", "transfer", "certify", "toytrain")
# Called once per log record inside certification_report; a wrapper there
# would cost more than the work it times.
UNWRAPPED = {"certify.certify_record"}
COMMANDS = ("analyze", "select", "mask", "transfer", "certify", "freq",
            "toy-gen", "toy-init", "toy-train", "toy-predict-log")


def command_of(argv: list[str]) -> str:
    return f"toy-{argv[1]}" if argv[0] == "toy" else argv[0]


class Tracer:
    def __init__(self):
        self.modules = {name: sys.modules[f"kstickets.{name}"] for name in (*LAYERS, "cli")}
        self.paused = 0.0
        self.stack = [0.0]  # child-time accumulator per open span; [0] is the stage
        self.calls = None  # fn name -> [count, total_s, self_s] for the open stage
        self.counts = defaultdict(float)
        self.stages = []
        self.saved = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    # -- patching ------------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        stack, clock = self.stack, self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec = self.calls[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if hook is not None:
                p0 = time.perf_counter()
                hook(self.counts, args, result)
                self.paused += time.perf_counter() - p0
            return result

        return wrapper

    def install(self) -> None:
        hooks = _hooks()
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name in UNWRAPPED:
                    continue
                wrapped = self._wrap(name, fn, hooks.get(name))
                for holder in self.modules.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self.saved.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        sample = self.modules["ksstat"].Sample
        self.saved.append((sample, "__post_init__", sample.__post_init__))
        sample.__post_init__ = self._wrap("ksstat.Sample", sample.__post_init__)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self.saved):
            setattr(holder, key, value)
        self.saved.clear()

    # -- recording -------------------------------------------------------------
    def begin_pass(self) -> None:
        self.paused = 0.0
        self.counts.clear()
        self.stages = []

    @contextmanager
    def stage(self, label: str, argv: list[str]):
        self.stack[:] = [0.0]
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])
        t0 = self.clock()
        try:
            yield
        finally:
            wall = self.clock() - t0
            self.stages.append({
                "stage": label, "command": command_of(argv), "wall_s": wall,
                "self_s": wall - self.stack[0],
                "calls": {k: {"count": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.calls.items()},
            })

    def end_pass(self, failures: int) -> dict:
        return {"stages": self.stages, "counts": dict(self.counts), "paused_s": self.paused,
                "stage_failures": failures}


def _hooks():
    """Counters taken from a call's arguments and result (clock paused)."""

    def read(c, args, result):
        c["bytes_read"] += os.path.getsize(args[0])

    def write(c, args, result):
        c["bytes_written"] += os.path.getsize(args[1])

    def analyze(c, args, result):
        base, tuned = args[0].matrix, args[1].matrix
        c["rows_scored"] += base.shape[0]
        c["rows_identical"] += int((base.view(np.uint32) == tuned.view(np.uint32)).all(axis=1).sum())
        c["bytes_scored"] += 2 * base.size * 4

    def splice(c, args, result):
        c["rows_spliced"] += len(args[3])

    def log_read(c, args, result):
        c["records"] += len(result)

    def train(c, args, result):
        model, task, config = args
        v = model.vocab_size
        c["minibatches"] += config.epochs * math.ceil(task.n_pairs / config.batch_size)
        if config.mode in ("full", "embed"):
            c["trainable_rows"] += v
        else:
            k = len(config.tickets)
            c["trainable_rows"] += k if config.mode == "partial" else v - k
        before, after = model.embedding.view(np.uint32), result[0].embedding.view(np.uint32)
        c["rows_changed"] += int((before != after).any(axis=1).sum())

    return {
        "checkpoint.read_checkpoint": read,
        "checkpoint.write_checkpoint": write,
        "selection.analyze_pair": analyze,
        "transfer.splice_partial_transfer": splice,
        "certify.read_prediction_log": log_read,
        "toytrain.train": train,
    }


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where the pass never calls the layer."""
    fn = defaultdict(lambda: [0, 0.0, 0.0])
    for st in p["stages"]:
        for name, rec in st["calls"].items():
            acc = fn[name]
            acc[0] += rec["count"]
            acc[1] += rec["total_s"]
            acc[2] += rec["self_s"]
    c = defaultdict(float, p["counts"])
    total = lambda *names: sum(fn[n][1] for n in names)  # noqa: E731
    per = lambda num, den, scale=1.0: num / den * scale if den else 0.0  # noqa: E731
    read_s, write_s = total("checkpoint.read_checkpoint"), total("checkpoint.write_checkpoint")
    stat_calls = fn["ksstat.ks_statistic"][0]
    train_s = total("toytrain.train")
    m = {
        "checkpoint.read_s": read_s,
        "checkpoint.write_s": write_s,
        "checkpoint.read_mb_per_s": per(c["bytes_read"] / 1e6, read_s),
        "checkpoint.write_mb_per_s": per(c["bytes_written"] / 1e6, write_s),
        "checkpoint.bytes_read": c["bytes_read"],
        "checkpoint.bytes_written": c["bytes_written"],
        "ksstat.statistic_us_per_row": per(total("ksstat.Sample", "ksstat.ks_statistic"), stat_calls, 1e6),
        "ksstat.pvalue_us_per_row": per(total("ksstat.ks_pvalue_asymptotic"),
                                        fn["ksstat.ks_pvalue_asymptotic"][0], 1e6),
        "ksstat.calls": sum(rec[0] for name, rec in fn.items() if name.startswith("ksstat.")),
        "selection.us_per_row": per(total("selection.analyze_pair"), c["rows_scored"], 1e6),
        "selection.score_row_self_us": per(fn["selection.score_row"][2], fn["selection.score_row"][0], 1e6),
        "selection.bytes_scored": c["bytes_scored"],
        "selection.scores_write_s": total("selection.write_scores_csv"),
        "selection.scores_read_s": total("selection.read_scores_csv"),
        "selection.select_s": total("selection.select_by_alpha", "selection.select_top_k",
                                    "selection.select_by_frequency"),
        "selection.count_frequencies_s": total("selection.count_frequencies"),
        "selection.rows_identical_share": per(c["rows_identical"], c["rows_scored"]),
        "transfer.splice_s": total("transfer.splice_partial_transfer"),
        "transfer.rows_spliced": c["rows_spliced"],
        "transfer.mask_s": total("transfer.emit_mask", "transfer.write_mask_file"),
        "certify.log_read_s": total("certify.read_prediction_log"),
        "certify.report_s": total("certify.filter_first_k", "certify.alpha_sweep", "certify.write_reports"),
        "certify.log_write_s": total("certify.write_prediction_log"),
        "certify.records": c["records"],
        "toytrain.train_s": train_s,
        "toytrain.step_ms": per(train_s, c["minibatches"], 1e3),
        "toytrain.minibatches": c["minibatches"],
        "toytrain.predict_log_s": total("toytrain.emit_prediction_log"),
        "toytrain.task_io_s": total("toytrain.write_task_csv", "toytrain.read_task_csv"),
        "toytrain.rows_changed_share": per(c["rows_changed"], c["trainable_rows"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(rec[2] for name, rec in fn.items() if name.startswith(layer + "."))
    m["cli.self_s"] = sum(st["self_s"] for st in p["stages"])
    for cmd in COMMANDS:
        m[f"cli.self_s.{cmd}"] = sum(st["self_s"] for st in p["stages"] if st["command"] == cmd)
    m["cli.stage_failures"] = p["stage_failures"]
    return m


def median_metrics(passes: list[dict]) -> dict[str, float]:
    per_pass = [layer_metrics(p) for p in passes]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

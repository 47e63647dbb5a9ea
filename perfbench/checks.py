"""Output checks for one pass, written against the file formats with numpy and
the stdlib; the only kstickets code used is the `score_row` oracle.

`Checker.run` returns {stage label: [failure messages]}; a stage with any
message counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from workloads import LOG_HEADER, METHODS, SIZES, SWEEP_ALPHAS, TENSOR, out_path

ORACLE_ROWS = 48  # rows per analyze stage compared with the score_row oracle
SCORE_COLS = ("ks", "p_value", "cos", "abs", "relative", "ratio", "kl")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_ckpt(path) -> tuple[bytes, dict[str, np.ndarray]]:
    """Raw header bytes plus each tensor's payload as uint32 words in its shape."""
    blob = np.fromfile(path, dtype=np.uint8)
    if blob[:4].tobytes() != b"KSLT":
        raise ValueError(f"{path}: bad magic")
    _, hlen = struct.unpack("<II", blob[4:12].tobytes())
    header = blob[12 : 12 + hlen].tobytes()
    body = blob[12 + hlen :]
    tensors = {}
    for line in header.decode().splitlines():
        name, dims, off, n = line.split("\t")
        shape = tuple(int(x) for x in dims.split(","))
        raw = body[int(off) : int(off) + int(n)]
        tensors[name] = raw.view("<u4").reshape(shape)
    if sum(t.nbytes for t in tensors.values()) != body.size:
        raise ValueError(f"{path}: payloads do not cover the file")
    return header, tensors


def changed_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.flatnonzero((a != b).any(axis=1))


def read_tickets(path) -> dict:
    fields = dict(line.split("=", 1) for line in Path(path).read_text().splitlines() if line)
    ids = fields["token_ids"]
    fields["ids"] = np.array([int(x) for x in ids.split(",")] if ids else [], dtype=np.int64)
    return fields


def read_csv(path, header: str) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    if lines[0] != header:
        raise ValueError(f"{path}: bad header")
    return [line.split(",") for line in lines[1:]]


def fmt(x) -> str:
    return f"{float(x):.9g}"


class Checker:
    """Semantic checks of one pass's outputs in `out`, against inputs in `inp`."""

    def __init__(self, workload: str, size: str, inp: Path, out: Path, truth: dict):
        self.workload = workload
        self.sz = SIZES[size][workload]
        self.inp, self.out = inp, out
        self.planted = set(truth["planted"])
        self.failures: dict[str, list[str]] = {}
        self.files: dict = {}

    def read(self, reader, path, *args):
        """Parse each input file once; several stages' checks read the same files."""
        key = (reader, str(path), args)
        if key not in self.files:
            self.files[key] = reader(path, *args)
        return self.files[key]

    def fail(self, label: str, msg: str) -> None:
        self.failures.setdefault(label, []).append(msg)

    def expect(self, label: str, ok, msg: str) -> None:
        if not ok:
            self.fail(label, msg)

    # -- per-format checks -------------------------------------------------
    def scores(self, label, argv, base_path, tuned_path, counts=None):
        from kstickets.selection import score_row  # the reference implementation

        rows = read_csv(out_path(argv), "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency")
        _, b = self.read(read_ckpt, base_path)
        _, t = self.read(read_ckpt, tuned_path)
        changed = changed_rows(b[TENSOR], t[TENSOR])
        b, t = b[TENSOR].view("<f4"), t[TENSOR].view("<f4")
        v = b.shape[0]
        self.expect(label, [r[0] for r in rows] == [str(i) for i in range(v)], "token ids are not 0..V-1")
        rng = np.random.default_rng(v)
        sample = np.union1d(rng.choice(v, size=min(ORACLE_ROWS, v), replace=False),
                            rng.choice(changed, size=min(ORACLE_ROWS // 3, changed.size), replace=False))
        for i in sample.tolist():
            s = score_row(b[i], t[i])
            want = [fmt(getattr(s, a)) for a in ("ks_statistic", "p_value", "cos", "abs_l2", "relative", "ratio", "kl")]
            want.append("" if counts is None else str(int(counts[i])))
            if rows[i][1:] != want:
                self.fail(label, f"row {i}: {rows[i][1:]} != oracle {want}")
                return
        return rows

    def alpha_tickets(self, label, argv, base_path, tuned_path, scores):
        tk = read_tickets(out_path(argv))
        ids = set(tk["ids"].tolist())
        alpha = float(argv[argv.index("--alpha") + 1])
        _, b = self.read(read_ckpt, base_path)
        _, t = self.read(read_ckpt, tuned_path)
        identical = set(np.flatnonzero((b[TENSOR] == t[TENSOR]).all(axis=1)).tolist())
        self.expect(label, self.planted <= ids, f"{len(self.planted - ids)} planted tickets not selected")
        self.expect(label, not ids & identical, f"{len(ids & identical)} bit-identical rows selected")
        want = {i for i, r in enumerate(scores) if float(r[2]) < alpha}
        self.expect(label, ids == want, f"{len(ids ^ want)} rows disagree with p < {alpha}")
        self.expect(label, tk["method"] == "ks" and int(tk["vocab_size"]) == len(scores), "bad ticket header")
        return tk["ids"]

    def topk_tickets(self, label, argv, scores, counts):
        tk = read_tickets(out_path(argv))
        method, k = argv[argv.index("--method") + 1], int(argv[argv.index("--top-k") + 1])
        ids = np.arange(len(scores))
        if method == "frequency":
            key = -counts
        else:
            col = np.array([float(r[1 + SCORE_COLS.index(method)]) for r in scores])
            key = col if method == "cos" else -col
        want = np.sort(np.lexsort((ids, key))[:k])
        self.expect(label, tk["method"] == method, "bad method")
        self.expect(label, np.array_equal(tk["ids"], want), f"top-{k} by {method} differs")
        if method == "ks" and len(self.planted) == k:
            self.expect(label, set(tk["ids"].tolist()) == self.planted, "top-k by ks is not the planted set")

    def mask(self, label, argv, ids, v):
        lines = Path(out_path(argv)).read_text().split("\n")
        self.expect(label, lines[-1] == "" and len(lines) == v + 1, "mask does not have one line per row")
        want = np.zeros(v, dtype=bool)
        want[ids] = True
        if "--complement" in argv:
            want = ~want
        got = np.array([x == "1" for x in lines[:-1]])
        self.expect(label, set(lines[:-1]) <= {"0", "1"}, "mask lines are not 0/1")
        self.expect(label, int(got.sum()) == int(want.sum()), f"mask has {int(got.sum())} ones, want {int(want.sum())}")
        self.expect(label, np.array_equal(got, want), "mask ones are not at the ticket rows")

    def splice(self, label, argv, base_path, tuned_path, ids):
        hb, b = self.read(read_ckpt, base_path)
        _, t = self.read(read_ckpt, tuned_path)
        ho, o = read_ckpt(out_path(argv))
        self.expect(label, ho == hb, "transfer header differs from base")
        for name, arr in b.items():
            if name != TENSOR:
                self.expect(label, np.array_equal(o[name], arr), f"tensor {name} changed")
        changed = set(changed_rows(o[TENSOR], b[TENSOR]).tolist())
        self.expect(label, changed <= set(ids.tolist()), f"{len(changed - set(ids.tolist()))} non-ticket rows changed")
        self.expect(label, np.array_equal(o[TENSOR][ids], t[TENSOR][ids]), "ticket rows differ from tuned")

    def certify(self, label, argv, log_path):
        rows = self.read(read_csv, log_path, LOG_HEADER)
        d = int(argv[argv.index("--dim") + 1])
        k = int(argv[argv.index("--first-k") + 1]) if "--first-k" in argv else None
        src = argv[argv.index("--prob-source") + 1] if "--prob-source" in argv else "tuned"
        cols = list(zip(*rows))
        pos = np.array(cols[1], dtype=np.int64)
        keep = pos < k if k is not None else np.ones(pos.size, dtype=bool)
        ref, pred = np.array(cols[2], dtype=np.int64)[keep], np.array(cols[3], dtype=np.int64)[keep]
        p1, p2 = (np.array(cols[i], dtype=np.float64)[keep] for i in ((4, 5) if src == "tuned" else (7, 8)))
        partial = np.array(cols[6])[keep]
        n = int(keep.sum())
        blocks = []
        for a in (float(x) for x in argv[argv.index("--alpha") + 1].split(",")):
            tau = 0.0 if a == 1.0 else math.sqrt(math.log(2.0 / a) / 2.0) * math.sqrt((d + d) / (d * d))
            gap = (p1 - p2) / 2.0 > tau
            correct = pred == ref
            pred_acc = ""
            if all(partial):  # reported only when every kept record has a partial prediction
                pred_acc = fmt(int((partial.astype(np.int64) == ref).sum()) / n)
            blocks.append("\n".join([
                f"alpha={fmt(a)}", f"tau={fmt(tau)}", f"d={d}", f"n_records={n}",
                f"certified_accuracy={fmt(int((correct & gap).sum()) / n)}",
                f"prediction_accuracy={pred_acc}",
                f"tuned_accuracy={fmt(int(correct.sum()) / n)}",
                f"verified_percentage={fmt(int(gap.sum()) / n)}",
            ]) + "\n")
        self.expect(label, Path(out_path(argv)).read_text() == "\n".join(blocks),
                    "report differs from the independent recomputation")

    def freq(self, label, argv, counts):
        got = read_csv(out_path(argv), "token_id,count")
        self.expect(label, got == [[str(i), str(c)] for i, c in enumerate(counts.tolist())],
                    "counts differ from np.bincount of the corpus")

    def task(self, label, argv):
        task = np.array(read_csv(out_path(argv), "source,target"), dtype=np.int64).reshape(-1, 2)
        ok = task.shape[0] == self.sz["pairs"] and task.min() >= 0 and task.max() < self.sz["vocab"]
        self.expect(label, ok, "task has the wrong size or ids out of range")
        return task

    def model(self, label, argv):
        _, m = read_ckpt(out_path(argv))
        shape = (self.sz["vocab"], self.sz["dim"])
        self.expect(label, {k: x.shape for k, x in m.items()} == {TENSOR: shape, "output_weights": shape},
                    "model tensors have the wrong shape")
        self.expect(label, all(np.abs(x.view("<f4")).max() <= 0.1 for x in m.values()),
                    "init values outside [-0.1, 0.1]")
        return m

    def trained(self, label, argv, base_path, allowed: set):
        """Only rows in `allowed` may change, output weights never (no full mode)."""
        hb, b = self.read(read_ckpt, base_path)
        h, m = read_ckpt(out_path(argv))
        self.expect(label, h == hb, "header differs from base")
        self.expect(label, np.array_equal(m["output_weights"], b["output_weights"]),
                    "output weights changed outside full mode")
        changed = set(changed_rows(m[TENSOR], b[TENSOR]).tolist())
        self.expect(label, changed, "no row changed")
        self.expect(label, changed <= allowed, f"{len(changed - allowed)} rows outside the trainable set changed")

    def prediction_log(self, label, argv, task):
        log = np.array(read_csv(out_path(argv), LOG_HEADER))
        n = task.shape[0]
        ok = (log.shape == (n, 9)
              and np.array_equal(log[:, 0].astype(np.int64), np.arange(n) // 20)
              and np.array_equal(log[:, 1].astype(np.int64), np.arange(n) % 20)
              and np.array_equal(log[:, 2].astype(np.int64), task[:, 1])
              and bool((log[:, 5].astype(float) <= log[:, 4].astype(float)).all()))
        self.expect(label, ok, "log rows do not follow the task")

    # -- workloads -----------------------------------------------------------
    def run(self, stage_list) -> dict[str, list[str]]:
        argv = dict(stage_list)
        for label in argv:
            if not Path(out_path(argv[label])).is_file():
                self.fail(label, "output missing")
        getattr(self, "_" + self.workload.replace("-", "_"))(argv)
        return self.failures

    def step(self, label, check, argv, *args):
        """Run one stage's check; a malformed output fails the stage, not the run.

        The check is skipped when a file it reads is missing: the stage that
        should have written that file has already failed in `run`.
        """
        files = [Path(out_path(argv))] + [a for a in args if isinstance(a, Path)]
        if not all(f.is_file() for f in files):
            return None
        try:
            return check(label, argv, *args)
        except Exception as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def _score_d64(self, argv):
        base, tuned = self.inp / "base.ckpt", self.inp / "tuned.ckpt"
        v = self.sz["vocab"]
        ids = np.array(Path(self.inp / "corpus.txt").read_text().split(), dtype=np.int64)
        counts = np.bincount(ids, minlength=v)
        self.step("freq", self.freq, argv["freq"], counts)
        scores = self.step("analyze", self.scores, argv["analyze"], base, tuned, counts)
        if scores is None:
            return
        tickets = {}
        for a in ("0.01", "0.05"):
            label = f"select-alpha-{a}"
            tickets[a] = self.step(label, self.alpha_tickets, argv[label], base, tuned, scores)
        for m in METHODS:
            self.step(f"select-{m}", self.topk_tickets, argv[f"select-{m}"], scores, counts)
        if tickets["0.01"] is not None:
            self.step("mask", self.mask, argv["mask"], tickets["0.01"], v)
            self.step("mask-complement", self.mask, argv["mask-complement"], tickets["0.01"], v)
            self.step("transfer", self.splice, argv["transfer"], base, tuned, tickets["0.01"])

    def _sweep_d768(self, argv):
        base, tuned = self.inp / "base.ckpt", self.inp / "tuned.ckpt"
        scores = self.step("analyze", self.scores, argv["analyze"], base, tuned)
        if scores is None:
            return
        for a in SWEEP_ALPHAS:
            label = f"select-alpha-{a}"
            ids = self.step(label, self.alpha_tickets, argv[label], base, tuned, scores)
            if ids is not None:
                self.step(f"mask-complement-{a}", self.mask, argv[f"mask-complement-{a}"], ids, self.sz["vocab"])
                self.step(f"transfer-{a}", self.splice, argv[f"transfer-{a}"], base, tuned, ids)
        for src in ("tuned", "base"):
            self.step(f"certify-{src}", self.certify, argv[f"certify-{src}"], self.inp / "log.csv")

    def _toy_train(self, argv):
        o = self.out
        base, embed = o / "base.ckpt", o / "embed.ckpt"
        task = self.step("toy-gen", self.task, argv["toy-gen"])
        self.step("toy-init", self.model, argv["toy-init"])
        if task is not None:
            self.step("train-embed", self.trained, argv["train-embed"], base, set(task[:, 0].tolist()))
            self.step("predict-log", self.prediction_log, argv["predict-log"], task)
        self.step("certify", self.certify, argv["certify"], o / "log.csv")
        scores = self.step("analyze", self.scores, argv["analyze"], base, embed)
        if scores is None:
            return
        ids = self.step("select-alpha-0.05", self.alpha_tickets, argv["select-alpha-0.05"], base, embed, scores)
        if ids is None:
            return
        tickets = set(ids.tolist())
        self.step("mask", self.mask, argv["mask"], ids, self.sz["vocab"])
        self.step("train-partial", self.trained, argv["train-partial"], base, tickets)
        self.step("train-frozen-complement", self.trained, argv["train-frozen-complement"], base,
                  set(range(self.sz["vocab"])) - tickets)
        self.step("transfer", self.splice, argv["transfer"], base, embed, ids)

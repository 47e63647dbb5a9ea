"""The three benchmark workloads: sizes, seeded input generation, stage lists.

A seed changes values only; sizes and class shares are fixed per workload.
Inputs are written with this file's own numpy code (not kstickets writers),
so the checks in checks.py read them independently of the program.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

WORKLOADS = ("score-d64", "sweep-d768", "toy-train")

# Full sizes are the workload definitions in README.md; the smoke sizes run
# every stage and check of a workload in about a second.
SIZES = {
    "full": {
        "score-d64": {"vocab": 32000, "dim": 64, "corpus": 1_000_000},
        "sweep-d768": {"vocab": 8192, "dim": 768, "records": 100_000, "positions": 40},
        "toy-train": {"vocab": 8192, "dim": 64, "pairs": 2000, "zipf": 1.8, "epochs": 3},
    },
    "smoke": {
        "score-d64": {"vocab": 800, "dim": 64, "corpus": 20_000},
        "sweep-d768": {"vocab": 200, "dim": 768, "records": 2000, "positions": 40},
        "toy-train": {"vocab": 256, "dim": 64, "pairs": 500, "zipf": 1.8, "epochs": 3},
    },
}

TENSOR = "embedding"
METHODS = ("ks", "cos", "abs", "relative", "ratio", "kl", "frequency")
SWEEP_ALPHAS = ("0.01", "0.05", "0.1", "0.25")
CERTIFY_ALPHAS = "0.01,0.05,0.1,0.25,1.0"
FIRST_K = "20"
LOG_HEADER = (
    "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
    "partial_pred_id,base_p1,base_p2"
)
SCALE = np.float32(0.05)  # std of generated weights
DRIFT = np.float32(0.002)  # std of slight drift: far below any ticket threshold
QUANT_STEP = np.float32(0.02)


def write_ckpt(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """KSLT v1 layout: magic, u32 version, u32 header length, header, payloads."""
    lines, offset = [], 0
    for name, arr in tensors.items():
        nbytes = arr.size * 4
        lines.append(f"{name}\t{','.join(map(str, arr.shape))}\t{offset}\t{nbytes}\n")
        offset += nbytes
    header = "".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(b"KSLT" + struct.pack("<II", 1, len(header)) + header)
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _split_rows(rng, vocab: int, shares: list[int]) -> list[np.ndarray]:
    """Disjoint seeded row sets; shares are percentages, the last takes the rest."""
    perm = rng.permutation(vocab)
    counts = [vocab * s // 100 for s in shares[:-1]]
    bounds = np.cumsum([0, *counts, vocab - sum(counts)])
    return [np.sort(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _plant(base: np.ndarray, rows: np.ndarray, rng) -> np.ndarray:
    """Shift each row past its own range, so base and tuned samples separate
    completely: D = 1, p < 1e-27 at d >= 64, selected at every alpha."""
    b = base[rows]
    span = b.max(axis=1) - b.min(axis=1)
    shift = span * rng.uniform(1.1, 1.5, size=rows.size).astype(np.float32)
    return b + shift[:, None]


def _drift(base: np.ndarray, rows: np.ndarray, rng) -> np.ndarray:
    return base[rows] + DRIFT * rng.standard_normal((rows.size, base.shape[1]), dtype=np.float32)


def _quantised_pair(base: np.ndarray, rows: np.ndarray, rng):
    """Rows on a coarse grid (many ties, +0.0 and -0.0 both present); the tuned
    copy flips the sign of every zero and moves four entries one step."""
    q = np.round(base[rows] / QUANT_STEP) * QUANT_STEP
    t = np.where(q == 0, -q, q)
    cols = rng.integers(0, base.shape[1], size=(rows.size, 4))
    np.add.at(t, (np.arange(rows.size)[:, None], cols), QUANT_STEP)
    return q, t


def _zipf_ids(rng, vocab: int, n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** -exponent
    ids = rng.permutation(vocab)
    return ids[rng.choice(vocab, size=n, p=weights / weights.sum())]


def _write_log(path: Path, rng, vocab: int, n: int, positions: int) -> None:
    """Prediction log with base probabilities and partial predictions."""
    ref = rng.integers(0, vocab, n)
    tuned = np.where(rng.random(n) < 0.7, ref, rng.integers(0, vocab, n))
    partial = np.where(rng.random(n) < 0.9, tuned, rng.integers(0, vocab, n))

    def top2():
        p1 = rng.uniform(0.2, 1.0, n)
        return p1, rng.uniform(0.0, 1.0, n) * np.minimum(p1, 1.0 - p1)

    p1, p2 = top2()
    b1, b2 = top2()
    i = np.arange(n)
    rows = zip(
        (i // positions).tolist(), (i % positions).tolist(), ref.tolist(),
        tuned.tolist(), p1.tolist(), p2.tolist(), partial.tolist(),
        b1.tolist(), b2.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(LOG_HEADER + "\n")
        fh.writelines(
            f"{e},{p},{r},{t},{a:.9g},{b:.9g},{q},{c:.9g},{d:.9g}\n"
            for e, p, r, t, a, b, q, c, d in rows
        )


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the workload's inputs into `out`; return the ground truth."""
    sz = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    truth: dict = {"planted": []}
    if workload == "toy-train":
        return truth  # the pass itself generates task and model via `toy gen/init`
    v, d = sz["vocab"], sz["dim"]
    base = rng.standard_normal((v, d), dtype=np.float32) * SCALE
    tuned = base.copy()
    if workload == "score-d64":
        _identical, drift, planted, quant = _split_rows(rng, v, [90, 8, 1, 1])
        tuned[drift] = _drift(base, drift, rng)
        base[quant], tuned[quant] = _quantised_pair(base, quant, rng)
        with open(out / "corpus.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(str, _zipf_ids(rng, v, sz["corpus"], 1.1).tolist())) + "\n")
    else:
        planted, drift = _split_rows(rng, v, [5, 95])
        tuned[drift] = _drift(base, drift, rng)
        _write_log(out / "log.csv", rng, v, sz["records"], sz["positions"])
    tuned[planted] = _plant(base, planted, rng)
    write_ckpt(out / "base.ckpt", {TENSOR: base})
    write_ckpt(out / "tuned.ckpt", {TENSOR: tuned})
    truth["planted"] = planted.tolist()
    return truth


def stages(workload: str, seed: int, size: str, inp: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for one pass; every output lands in `out`."""
    sz = SIZES[size][workload]
    v, d = str(sz["vocab"]), str(sz["dim"])
    i = lambda name: str(inp / name)  # noqa: E731
    o = lambda name: str(out / name)  # noqa: E731
    pair = ["--base", i("base.ckpt"), "--tuned", i("tuned.ckpt"), "--tensor", TENSOR]
    if workload == "score-d64":
        top_k = str(sz["vocab"] // 100)
        s = [
            ("freq", ["freq", "--corpus", i("corpus.txt"), "--vocab", v, "--out", o("counts.csv")]),
            ("analyze", ["analyze", *pair, "--freq", o("counts.csv"), "--out", o("scores.csv")]),
        ]
        for a in ("0.01", "0.05"):
            s.append((f"select-alpha-{a}", ["select", "--scores", o("scores.csv"), "--alpha", a,
                                             "--dim", d, "--out", o(f"tickets-{a}.txt")]))
        for m in METHODS:
            s.append((f"select-{m}", ["select", "--scores", o("scores.csv"), "--method", m,
                                      "--top-k", top_k, "--out", o(f"tickets-{m}.txt")]))
        return s + [
            ("mask", ["mask", "--tickets", o("tickets-0.01.txt"), "--out", o("mask.txt")]),
            ("mask-complement", ["mask", "--tickets", o("tickets-0.01.txt"), "--complement",
                                 "--out", o("mask-complement.txt")]),
            ("transfer", ["transfer", *pair, "--tickets", o("tickets-0.01.txt"),
                          "--out", o("transfer.ckpt")]),
        ]
    if workload == "sweep-d768":
        s = [("analyze", ["analyze", *pair, "--out", o("scores.csv")])]
        for a in SWEEP_ALPHAS:
            t = o(f"tickets-{a}.txt")
            s += [
                (f"select-alpha-{a}", ["select", "--scores", o("scores.csv"), "--alpha", a,
                                       "--dim", d, "--out", t]),
                (f"mask-complement-{a}", ["mask", "--tickets", t, "--complement",
                                          "--out", o(f"mask-complement-{a}.txt")]),
                (f"transfer-{a}", ["transfer", *pair, "--tickets", t,
                                   "--out", o(f"transfer-{a}.ckpt")]),
            ]
        for src in ("tuned", "base"):
            s.append((f"certify-{src}", ["certify", "--log", i("log.csv"), "--dim", d,
                                         "--alpha", CERTIFY_ALPHAS, "--first-k", FIRST_K,
                                         "--prob-source", src, "--out", o(f"report-{src}.txt")]))
        return s
    train = ["toy", "train", "--model", o("base.ckpt"), "--task", o("task.csv"),
             "--epochs", str(sz["epochs"]), "--seed", str(seed)]
    tickets = ["--tickets", o("tickets.txt")]
    emb = ["--base", o("base.ckpt"), "--tuned", o("embed.ckpt"), "--tensor", TENSOR]
    return [
        ("toy-gen", ["toy", "gen", "--seed", str(seed), "--vocab", v, "--pairs", str(sz["pairs"]),
                     "--zipf", str(sz["zipf"]), "--out", o("task.csv")]),
        ("toy-init", ["toy", "init", "--seed", str(seed), "--vocab", v, "--dim", d,
                      "--out", o("base.ckpt")]),
        ("train-embed", [*train, "--mode", "embed", "--out", o("embed.ckpt")]),
        ("analyze", ["analyze", *emb, "--out", o("scores.csv")]),
        ("select-alpha-0.05", ["select", "--scores", o("scores.csv"), "--alpha", "0.05",
                               "--dim", d, "--out", o("tickets.txt")]),
        ("mask", ["mask", *tickets, "--out", o("mask.txt")]),
        ("train-partial", [*train, "--mode", "partial", *tickets, "--out", o("partial.ckpt")]),
        ("train-frozen-complement", [*train, "--mode", "frozen_complement", *tickets,
                                     "--out", o("frozen.ckpt")]),
        ("transfer", ["transfer", *emb, *tickets, "--out", o("transfer.ckpt")]),
        ("predict-log", ["toy", "predict-log", "--tuned", o("embed.ckpt"), "--partial",
                         o("partial.ckpt"), "--base", o("base.ckpt"), "--task", o("task.csv"),
                         "--out", o("log.csv")]),
        ("certify", ["certify", "--log", o("log.csv"), "--dim", d, "--alpha", CERTIFY_ALPHAS,
                     "--first-k", FIRST_K, "--out", o("report.txt")]),
    ]


def out_path(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


"""Golden outputs: every CLI stage's file bytes are pinned by sha256.

The inputs are built by integer arithmetic only (no RNG, no BLAS), and every
float is a small dyadic rational, so the expected bytes of freq, analyze,
select, mask, transfer and certify do not depend on the machine. The toy
trainer's outputs (train in every mode, predict-log, eval) go through exp, log
and float64 matrix products; they are pinned too, and reach the files only
through float32 checkpoints and 9-digit text, which absorb last-ulp
differences between math libraries. A change that alters any output byte
fails here; a refactor that keeps them passes.
"""

import hashlib
import struct

import numpy as np
import pytest

from kstickets.cli import run

V, D = 24, 32

# sha256 of each output, recorded before the text-I/O refactor.
GOLDEN = {
    "counts.csv": "c84ae04610f4ac19d620327bcd1e3301883b69b7ab9b1eb67e791e121f213262",
    "scores.csv": "89f4a955cfca0508e1b756e5a06ca3734d8c240830018323e5de198a5efb6cfb",
    "tickets_a05.txt": "fee3f344d3b33d0bce4b04b310d0c728cd1461f5a0bdc22fd3ff223480c0a00e",
    "tickets_a1.txt": "69bc28306022db7e3a9cd0f9110f4304b9c1bc8e2841cc12e6ef00cba14967d3",
    "tickets_cos.txt": "6fad3c9f5e87ecb907411c295afc814f1715437878c9e3d48e3d3fb1cfd576e8",
    "mask.txt": "ace5fa20249cf0633a2e641e1c51d47bf7853d60677c428d13f49685c4304b8b",
    "mask_complement.txt": "79976d39fc65a02b1dd2d03a9bda773030630e844ccdebcebc07787abc59f058",
    "transfer.ckpt": "e9142d683e147480d44dbb98218a3463a7e98e7571acb6e5d196a74c18a23cce",
    "report.txt": "531c08eb47387f8ac2553aa663e9f3141fadbba322dba7e57f3b40448eb172fc",
}
# sha256 of each toy-trainer output, recorded before the sparse-row training step.
GOLDEN.update({
    "train_full.ckpt": "b0f94987d81d342e7756fa42b25e56902541e273433e945efb5865204dc2f568",
    "train_full_loss.csv": "a0f61f4f1925026517ac419906d74ec34288bdba0976a74b687c7ce263c429b1",
    "train_embed.ckpt": "23a05dc299af7855b7eea325291373effeaa774dcb0f5cd003e5743fd01b25b6",
    "train_embed_loss.csv": "398582b92746cc13337153a91fb9b411f23a58ed5be5581253bda6445ac53df5",
    "train_partial.ckpt": "331a72868794af50e5a44dfcdb18abdd62c01167fc0400cc486283dd5fc097a9",
    "train_partial_loss.csv": "34ff90fee04108106e3d4225ac531048e9602ae03e3220830d665b0b35845545",
    "train_frozen_complement.ckpt": "d7aceadadb9598439bbffa9b0ed779ef8be7ffe636f65b2e722fb8d1c40ba387",
    "train_frozen_complement_loss.csv": "be3378d44b8c2487ff830f86dc5ab73ddbf44722607cb5187bbec90dcbc53db9",
    "predict_log.csv": "f4319becc0af73dc05c154dd54d04754c01050b8d3397def9df9acf76d530944",
    "eval.txt": "9561767e9a8552fd4cd3dc33923ee218145c42b0b54163bbd1b8980164f887f5",
})
TRAIN_MODES = ("full", "embed", "partial", "frozen_complement")
TOY_D, TOY_PAIRS = 8, 90


def _ckpt_bytes(tensors):
    """The checkpoint layout, written independently of kstickets.checkpoint."""
    header, payload = "", b""
    for name, arr in tensors:
        dims = ",".join(str(n) for n in arr.shape)
        header += f"{name}\t{dims}\t{len(payload)}\t{arr.nbytes}\n"
        payload += arr.astype("<f4").tobytes()
    head = header.encode("utf-8")
    return b"KSLT" + struct.pack("<II", 1, len(head)) + head + payload


def _matrices():
    i = np.arange(V)[:, None]
    j = np.arange(D)[None, :]
    base = ((i * 37 + j * 11) % 97 - 48) / 64.0
    tuned = base.copy()
    shifted = np.arange(0, V, 4)
    tuned[shifted] += ((shifted % 3 + 1) * 3 / 16.0)[:, None]  # KS distance grows with the shift
    tuned[1::4] = base[1::4, ::-1]  # permuted entries: bytes differ, KS distance 0
    tuned[2::4, 0] += 1 / 64.0  # one entry nudged: small KS distance
    return base.astype(np.float32), tuned.astype(np.float32)  # rows 3::4 unchanged


def _toy_model():
    """A [V, TOY_D] model whose entries are multiples of 1/128 in [-0.12, 0.12]."""
    i = np.arange(V)[:, None]
    j = np.arange(TOY_D)[None, :]
    emb = ((i * 13 + j * 7) % 31 - 15) / 128.0
    out = ((i * 5 + j * 11) % 29 - 14) / 128.0
    return [("embedding", emb.astype(np.float32)), ("output_weights", out.astype(np.float32))]


def _task_text():
    """Pairs over the even ids; low ids repeat often, so batches repeat sources."""
    lines = ["source,target"]
    for k in range(TOY_PAIRS):
        src = 2 * ((k * k + 3 * k) % 11 % (1 + k % 4 * 3))
        lines.append(f"{src},{(src * 5 + 3) % V}")
    return "\n".join(lines) + "\n"


def _log_text():
    lines = [
        "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
        "partial_pred_id,base_p1,base_p2"
    ]
    for k in range(60):
        ref = k % V
        tuned = ref if k % 5 else (k + 1) % V
        partial = ref if k % 3 else (k + 2) % V
        p1, p2 = 40 + k % 37, k % 13
        b1, b2 = 30 + k % 41, k % 29
        lines.append(
            f"{k // 20},{k % 20},{ref},{tuned},0.{p1:02d},0.{p2:02d},"
            f"{partial},0.{b1:02d},0.{b2:02d}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    w = tmp_path_factory.mktemp("golden")
    base, tuned = _matrices()
    bias = (np.arange(4, dtype=np.float32) - 2) / 8
    (w / "base.ckpt").write_bytes(_ckpt_bytes([("embedding", base), ("bias", bias[None, :])]))
    (w / "tuned.ckpt").write_bytes(_ckpt_bytes([("embedding", tuned), ("bias", -bias[None, :])]))
    (w / "corpus.txt").write_text(" ".join(str((k * 7 + k // 5) % V) for k in range(300)) + "\n")
    (w / "log.csv").write_text(_log_text())
    (w / "model.ckpt").write_bytes(_ckpt_bytes(_toy_model()))
    (w / "task.csv").write_text(_task_text())

    ckpts = ["--base", str(w / "base.ckpt"), "--tuned", str(w / "tuned.ckpt"), "--tensor", "embedding"]
    scores = ["--scores", str(w / "scores.csv")]
    stages = [
        ["freq", "--corpus", str(w / "corpus.txt"), "--vocab", str(V), "--out", str(w / "counts.csv")],
        ["analyze", *ckpts, "--freq", str(w / "counts.csv"), "--out", str(w / "scores.csv")],
        ["select", *scores, "--alpha", "0.05", "--dim", str(D), "--out", str(w / "tickets_a05.txt")],
        ["select", *scores, "--alpha", "1.0", "--dim", str(D), "--out", str(w / "tickets_a1.txt")],
        ["select", *scores, "--method", "cos", "--top-k", "5", "--out", str(w / "tickets_cos.txt")],
        ["mask", "--tickets", str(w / "tickets_a05.txt"), "--out", str(w / "mask.txt")],
        ["mask", "--tickets", str(w / "tickets_a05.txt"), "--complement",
         "--out", str(w / "mask_complement.txt")],
        ["transfer", *ckpts, "--tickets", str(w / "tickets_a1.txt"), "--out", str(w / "transfer.ckpt")],
        ["certify", "--log", str(w / "log.csv"), "--dim", str(D), "--alpha", "0.05,0.25,1.0",
         "--first-k", "10", "--out", str(w / "report.txt")],
    ]
    task = ["--task", str(w / "task.csv")]
    for mode in TRAIN_MODES:
        stages.append(
            ["toy", "train", "--model", str(w / "model.ckpt"), *task, "--mode", mode,
             "--tickets", str(w / "tickets_a05.txt"), "--lr", "0.5", "--epochs", "3",
             "--batch-size", "7", "--seed", "2", "--out", str(w / f"train_{mode}.ckpt"),
             "--loss-out", str(w / f"train_{mode}_loss.csv")])
    stages += [
        ["toy", "predict-log", "--tuned", str(w / "train_embed.ckpt"),
         "--partial", str(w / "train_partial.ckpt"), "--base", str(w / "model.ckpt"), *task,
         "--out", str(w / "predict_log.csv")],
        ["toy", "eval", "--model", str(w / "train_full.ckpt"), *task, "--out", str(w / "eval.txt")],
    ]
    for argv in stages:
        assert run(argv) == 0, argv
    return w


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_fixture_exercises_every_branch(outputs):
    """The pinned files are not trivial: selections differ and are non-empty."""
    a05 = (outputs / "tickets_a05.txt").read_text()
    a1 = (outputs / "tickets_a1.txt").read_text()
    ids = lambda text: text.rsplit("token_ids=", 1)[1].split()[0].split(",")  # noqa: E731
    assert 0 < len(ids(a05)) < len(ids(a1)) < V
    assert (outputs / "mask.txt").read_text().count("1") == len(ids(a05))
    assert "prediction_accuracy=0." in (outputs / "report.txt").read_text()


def test_trainer_fixture_exercises_every_branch(outputs):
    """Batches repeat sources, each mode moves rows, and the masks bite."""
    src = [int(line.split(",")[0]) for line in (outputs / "task.csv").read_text().split()[1:]]
    assert any(len(set(src[k:k + 7])) < len(src[k:k + 7]) for k in range(0, TOY_PAIRS, 7))
    tickets = (outputs / "tickets_a05.txt").read_text().rsplit("token_ids=", 1)[1].split()[0]
    ticket_ids = {int(t) for t in tickets.split(",")}
    assert ticket_ids & set(src) and set(src) - ticket_ids
    model = (outputs / "model.ckpt").read_bytes()
    for mode in TRAIN_MODES:
        assert (outputs / f"train_{mode}.ckpt").read_bytes() != model
    assert "accuracy=" in (outputs / "eval.txt").read_text()

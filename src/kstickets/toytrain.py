"""Desk-scale trainer: a one-layer token-mapping model with maskable updates.

The model predicts a target token from a single source token via
softmax(output_weights @ embedding[source]); output weights stay frozen in
every mode except full tuning, so the embedding rows carry all task signal.
Training is plain seeded minibatch SGD and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import Column, naming, read_csv, write_csv
from .certify import PredictionLog
from .checkpoint import Checkpoint, TensorRecord, get_embedding
from .selection import WinningTicketSet
from .transfer import emit_mask

__all__ = [
    "ToyModel",
    "TrainConfig",
    "SyntheticTask",
    "TRAIN_MODES",
    "EMBEDDING_TENSOR",
    "OUTPUT_TENSOR",
    "EXAMPLE_GROUP",
    "generate_task",
    "init_model",
    "train",
    "evaluate",
    "emit_prediction_log",
    "model_to_checkpoint",
    "model_from_checkpoint",
    "write_task_csv",
    "read_task_csv",
]

TRAIN_MODES = ("full", "embed", "partial", "frozen_complement")

EMBEDDING_TENSOR = "embedding"
OUTPUT_TENSOR = "output_weights"

# Prediction logs group consecutive pairs into pseudo-examples of this size so
# first-k filtering has positions to act on.
EXAMPLE_GROUP = 20

TASK_HEADER = "source,target"


@dataclass
class ToyModel:
    embedding: np.ndarray
    output_weights: np.ndarray

    def __post_init__(self) -> None:
        emb = np.ascontiguousarray(np.asarray(self.embedding, dtype=np.float32))
        out = np.ascontiguousarray(np.asarray(self.output_weights, dtype=np.float32))
        if emb.ndim != 2 or out.ndim != 2 or emb.shape != out.shape:
            raise ValueError(
                f"embedding and output_weights must both be [V, d], got "
                f"{emb.shape} and {out.shape}"
            )
        self.embedding = emb
        self.output_weights = out

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]


def _check_seed(seed: int) -> None:
    # numpy's own error for a negative seed does not name it
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass
class TrainConfig:
    mode: str
    tickets: WinningTicketSet | None = None
    learning_rate: float = 0.1
    epochs: int = 50
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode in ("partial", "frozen_complement") and self.tickets is None:
            raise ValueError(f"mode {self.mode!r} requires a ticket set")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _check_seed(self.seed)


@dataclass
class SyntheticTask:
    """Source -> target token pairs; targets follow a fixed permutation.

    Sources are drawn from a designated content sub-vocabulary with
    rank^(-zipf_exponent) weights, so a handful of tokens dominate the stream.
    """

    vocab_size: int
    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        src = np.asarray(self.sources, dtype=np.int64).ravel()
        tgt = np.asarray(self.targets, dtype=np.int64).ravel()
        if src.size != tgt.size:
            raise ValueError("sources and targets must have equal length")
        if src.size == 0:
            raise ValueError("task has no pairs")
        for arr, label in ((src, "source"), (tgt, "target")):
            if arr.min() < 0 or arr.max() >= self.vocab_size:
                raise ValueError(f"{label} ids must lie in [0, {self.vocab_size})")
        self.sources = src
        self.targets = tgt

    @property
    def n_pairs(self) -> int:
        return int(self.sources.size)


def generate_task(
    seed: int, vocab_size: int, n_pairs: int, zipf_exponent: float = 1.5
) -> SyntheticTask:
    """Seeded Zipf-weighted token-mapping task over half the vocabulary."""
    _check_seed(seed)
    if vocab_size < 4:
        raise ValueError("vocab_size must be >= 4")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if not math.isfinite(zipf_exponent):
        raise ValueError(f"zipf_exponent must be finite, got {zipf_exponent}")
    rng = np.random.default_rng(seed)
    content = rng.choice(vocab_size, size=vocab_size // 2, replace=False)
    permuted = rng.permutation(content)
    ranks = np.arange(1, content.size + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        weights = ranks ** (-float(zipf_exponent))
        total = weights.sum()
    if not (np.isfinite(weights).all() and np.isfinite(total)):
        raise ValueError(f"zipf_exponent must keep the Zipf weights finite, got {zipf_exponent}")
    weights /= total
    idx = rng.choice(content.size, size=n_pairs, p=weights)
    return SyntheticTask(vocab_size=vocab_size, sources=content[idx], targets=permuted[idx])


def init_model(seed: int, vocab_size: int, dim: int) -> ToyModel:
    """Both matrices i.i.d. uniform in [-0.1, 0.1] from one seeded stream."""
    _check_seed(seed)
    if vocab_size < 1 or dim < 1:
        raise ValueError("vocab_size and dim must be >= 1")
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.1, 0.1, size=(vocab_size, dim)).astype(np.float32)
    out = rng.uniform(-0.1, 0.1, size=(vocab_size, dim)).astype(np.float32)
    return ToyModel(emb, out)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place: logits is always a fresh temporary."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _product(a, b, pad: bool) -> np.ndarray:
    """a @ b, a 1-row a padded to 2 rows if pad (OpenBLAS rounds 1-row products apart)."""
    return (np.repeat(a, 2, axis=0) @ b)[:1] if pad and len(a) == 1 else a @ b


def _distinct_probs(embedding, output_weights, sources, pad=False) -> tuple[np.ndarray, ...]:
    """(rows, inverse, probs): the distinct sources, each source's index into
    rows, and one softmax row per distinct source (Zipf sources repeat, so
    there are few). Float64 weights are used uncopied."""
    rows, inverse = np.unique(sources, return_inverse=True)
    w64 = output_weights.astype(np.float64, copy=False)
    return rows, inverse, _softmax(_product(embedding[rows].astype(np.float64), w64.T, pad))


def _grad(probs, inverse, tgt, w64, batch_size, pad=False) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy gradient of a batch's pairs: (delta, grad).

    delta has one row per distinct source: its softmax row (overwritten) times
    its pair count, minus the pairs' one-hot targets in batch order, over
    batch_size. grad is delta @ w64, the source's pairs' gradients summed.
    """
    delta = probs
    delta *= np.bincount(inverse)[:, None]
    np.add.at(delta, (inverse, tgt), -1.0)
    delta /= batch_size
    return delta, _product(delta, w64, pad)


def _check_vocab(model: ToyModel, task: SyntheticTask) -> None:
    if task.vocab_size != model.vocab_size:
        raise ValueError(f"task vocab {task.vocab_size} does not match model vocab {model.vocab_size}")


def train(
    model: ToyModel, task: SyntheticTask, config: TrainConfig
) -> tuple[ToyModel, list[float]]:
    """Seeded minibatch SGD on cross-entropy; returns (tuned model, loss curve).

    The trainable set is `emit_mask` of the tickets (complemented in
    frozen_complement mode), or every row in full and embed mode. A step
    writes only the trainable rows its batch reads, so every other row stays
    bit-identical to the input model. Output weights update only in full mode.
    So a frozen-source pair is scored once per run, and a step computes its live
    pairs alone, forward and backward once per distinct source. A product has
    one row only where the batch has one pair (then live), as in a step over
    every pair; any other 1-row product is padded to keep those bits.
    """
    _check_vocab(model, task)
    if config.tickets is not None:
        config.tickets.check_vocab(model.vocab_size, "model vocab")

    trainable = np.ones(model.vocab_size, dtype=bool)
    if config.mode in ("partial", "frozen_complement"):
        trainable = emit_mask(config.tickets, config.mode == "frozen_complement")
    n = task.n_pairs
    emb, out = model.embedding, model.output_weights
    fixed = np.ones(n)  # each frozen pair's target probability
    frozen = ~trainable[task.sources]
    _, inverse, probs = _distinct_probs(emb, out, task.sources[frozen], pad=True)
    fixed[frozen] = probs[inverse, task.targets[frozen]]
    del probs  # freed before the copies: the table can be the run's largest matrix

    emb, out = emb.copy(), out.copy()
    w64 = out.astype(np.float64)
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            src, tgt = task.sources[batch], task.targets[batch]
            pad = src.size > 1  # a product has one row only where the batch has one pair
            live = trainable[src] | (src.size == 1)
            rows, inverse, probs = _distinct_probs(emb, w64, src[live], pad)
            p = fixed[batch]
            p[live] = probs[inverse, tgt[live]]
            epoch_loss += float(-np.log(p).sum())
            delta, grad = _grad(probs, inverse, tgt[live], w64, src.size, pad)
            if config.mode == "full":
                out = (w64 - lr * (delta.T @ emb[rows].astype(np.float64))).astype(np.float32)
                w64 = out.astype(np.float64)
            keep = trainable[rows]
            rows = rows[keep]
            emb[rows] = (emb[rows].astype(np.float64) - lr * grad[keep]).astype(np.float32)
        losses.append(epoch_loss / n)
    return ToyModel(emb, out), losses


def evaluate(model: ToyModel, task: SyntheticTask) -> float:
    """Fraction of pairs predicted exactly; argmax ties go to the lowest id."""
    _check_vocab(model, task)
    _, inverse, probs = _distinct_probs(model.embedding, model.output_weights, task.sources)
    return float((np.argmax(probs, axis=1)[inverse] == task.targets).mean())


def _top2(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: argmax (lowest id on ties), top and runner-up probability.

    Overwrites the top entry of each row of probs.
    """
    rows = np.arange(probs.shape[0])
    top = probs.argmax(axis=1)
    p1 = probs[rows, top]
    probs[rows, top] = -np.inf
    return top, p1, probs.max(axis=1)


def emit_prediction_log(
    tuned_model: ToyModel,
    partial_model: ToyModel | None,
    base_model: ToyModel | None,
    task: SyntheticTask,
) -> PredictionLog:
    """One record per pair, grouped into pseudo-examples of 20 positions."""
    _check_vocab(tuned_model, task)
    shape = tuned_model.embedding.shape
    for other in (partial_model, base_model):
        if other is not None and other.embedding.shape != shape:
            raise ValueError(f"model shape mismatch: {shape} vs {other.embedding.shape}")

    def top2(model):  # _top2 per distinct source, gathered back to pair order
        _, inverse, probs = _distinct_probs(model.embedding, model.output_weights, task.sources)
        return [col[inverse] for col in _top2(probs)]

    tuned_pred, p1, p2 = top2(tuned_model)
    partial_pred = None if partial_model is None else top2(partial_model)[0]
    base_p1 = base_p2 = None
    if base_model is not None:
        _, base_p1, base_p2 = top2(base_model)

    i = np.arange(task.n_pairs)
    return PredictionLog(
        i // EXAMPLE_GROUP, i % EXAMPLE_GROUP, task.targets, tuned_pred, p1, p2,
        partial_pred, base_p1, base_p2,
    )


def model_to_checkpoint(model: ToyModel) -> Checkpoint:
    pairs = ((EMBEDDING_TENSOR, model.embedding), (OUTPUT_TENSOR, model.output_weights))
    return Checkpoint([TensorRecord(name, m.shape, m.ravel()) for name, m in pairs])


def model_from_checkpoint(ckpt: Checkpoint) -> ToyModel:
    return ToyModel(*(get_embedding(ckpt, name).matrix.copy()
                      for name in (EMBEDDING_TENSOR, OUTPUT_TENSOR)))


def write_task_csv(task: SyntheticTask, path) -> None:
    write_csv(path, TASK_HEADER, [task.sources, task.targets])


def read_task_csv(path, vocab_size: int) -> SyntheticTask:
    ids = [Column(np.int64, valid=lambda i: (0 <= i) & (i < vocab_size),
                  invalid=f"{label} id {{}} outside [0, {vocab_size})") for label in ("source", "target")]
    sources, targets = read_csv(path, TASK_HEADER, ids, "task")
    with naming(path):
        if not len(sources):
            raise ValueError("no pairs")
        return SyntheticTask(vocab_size=vocab_size, sources=sources, targets=targets)

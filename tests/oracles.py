"""Test-only oracles: plain references the tests check the package against.
Nothing in the package or the CLI calls them."""

from __future__ import annotations

import numpy as np

from kstickets.checkpoint import Checkpoint
from kstickets.toytrain import ToyModel, _distinct_probs


def diff_rows(a: Checkpoint, b: Checkpoint, tensor_name: str) -> set[int]:
    """Row indices whose payload bytes differ between the two checkpoints."""
    ta = a.tensor(tensor_name)
    tb = b.tensor(tensor_name)
    if ta.shape != tb.shape:
        raise ValueError(
            f"tensor {tensor_name!r} shape mismatch: {ta.shape} vs {tb.shape}"
        )
    rows = ta.shape[0]
    av = ta.data.view(np.uint32).reshape(rows, -1)
    bv = tb.data.view(np.uint32).reshape(rows, -1)
    return set(np.flatnonzero((av != bv).any(axis=1)).tolist())


def forward(model: ToyModel, source_token: int) -> np.ndarray:
    """Next-token probability vector for one source token."""
    if not 0 <= source_token < model.vocab_size:
        raise ValueError(f"token {source_token} out of range [0, {model.vocab_size})")
    return _distinct_probs(model.embedding, model.output_weights, [source_token])[2][0]

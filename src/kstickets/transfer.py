"""Row splicing between checkpoints and trainability masks.

Splicing is a byte copy, never a numeric transformation, so a byte-level row
diff of the output against its inputs verifies it exactly.
"""

from __future__ import annotations

import numpy as np

from ._text import write_text
from .checkpoint import Checkpoint, TensorRecord, validate_pair
from .selection import WinningTicketSet

__all__ = [
    "splice_partial_transfer",
    "splice_in_place",
    "emit_mask",
    "write_mask_file",
]


def splice_partial_transfer(
    base: Checkpoint,
    tuned: Checkpoint,
    tensor_name: str,
    tickets: WinningTicketSet,
) -> Checkpoint:
    """Copy ticket rows of tensor_name from tuned into base, bit-exactly.

    Every other byte of every tensor comes from base unchanged; base itself is
    left as it was.
    """
    copy = Checkpoint([TensorRecord(t.name, t.shape, t.data.copy()) for t in base.tensors])
    return splice_in_place(copy, tuned, tensor_name, tickets)


def splice_in_place(
    base: Checkpoint,
    tuned: Checkpoint,
    tensor_name: str,
    tickets: WinningTicketSet,
) -> Checkpoint:
    """splice_partial_transfer without the copy: overwrite the ticket rows of
    base's own (writable) tensor_name with tuned's, and return base."""
    v, d = validate_pair(base, tuned, tensor_name)
    if tickets.vocab_size != v:
        raise ValueError(
            f"ticket vocab_size {tickets.vocab_size} does not match tensor rows {v}"
        )
    ids = list(tickets.token_ids)
    rows = base.tensor(tensor_name).data.reshape(v, d)
    rows[ids] = tuned.tensor(tensor_name).data.reshape(v, d)[ids]
    return base


def emit_mask(tickets: WinningTicketSet, complement: bool = False) -> np.ndarray:
    """Per-row trainability flags: trainable[i] = (i in tickets) XOR complement."""
    trainable = np.full(tickets.vocab_size, complement, dtype=bool)
    trainable[list(tickets.token_ids)] = not complement
    return trainable


def write_mask_file(trainable: np.ndarray, path) -> None:
    """One line per row: 1 if trainable, 0 if frozen."""
    lines = np.full((len(trainable), 2), ord("\n"), dtype=np.uint8)
    lines[:, 0] = ord("0") + np.asarray(trainable, dtype=bool)
    write_text(path, lines.tobytes().decode("ascii"))

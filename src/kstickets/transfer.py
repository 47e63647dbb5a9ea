"""Row splicing between checkpoints and trainability masks.

Splicing is a byte copy, never a numeric transformation, so a byte-level row
diff of the output against its inputs verifies it exactly.
"""

from __future__ import annotations

import io
import math
import mmap
import os
from contextlib import ExitStack, closing

import numpy as np

from ._text import atomic_open, write_text
from .checkpoint import (_CHUNK_BYTES, Checkpoint, CheckpointError, TensorRecord, _buffer,
                         _concurrently, _head, _on_threads, _scan_file, validate_pair)
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
    vb, vt = validate_pair(base, tuned, tensor_name)
    tickets.check_vocab(vb.shape[0], "tensor rows")
    ids = list(tickets.token_ids)
    vb.matrix[ids] = vt.matrix[ids]
    return base


def _splice_files(base_path, tuned_path, tensor_name, token_ids, path, check) -> None:
    """Write to path what write_checkpoint(splice_in_place(read_checkpoint(
    base_path), read_checkpoint(tuned_path), tensor_name, tickets)) writes,
    for tickets of these ascending token_ids, holding neither file whole.

    base is scanned into atomic_open's temp file under the header that
    write_checkpoint renders, on an _on_threads thread where _concurrently;
    tuned is scanned for the ticket rows alone. check(base, tuned), given
    Checkpoints of both headers' entries, may raise; then the rows are
    written into the temp file mapped (a write per row costs a system call
    each). A fault of the output is raised after check, as write_checkpoint
    raises it. A pipe or a device is opened last, and gets every byte then.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    buffers = [_buffer(_CHUNK_BYTES) for _ in range(2)]
    faults = []  # the output's first OSError, held while the inputs are checked

    def write(data):
        if not faults:
            try:
                sink.write(data)
            except OSError as exc:
                faults.append(exc)

    def copy_base():
        with closing(_scan_file(base_path, _CHUNK_BYTES, buffers[0])) as pieces:
            entries = next(pieces)
            write(_head(entries))
            for _, _, record in pieces:
                write(record.data)
        return Checkpoint(entries)

    def gather_tuned():
        rows = None
        with closing(_scan_file(tuned_path, _CHUNK_BYTES, buffers[1])) as pieces:
            entries = next(pieces)
            at = next((i for i, t in enumerate(entries) if t.name == tensor_name), None)
            if at is not None and len(entries[at].shape) == 2:
                d = entries[at].shape[1]
                rows = np.empty((ids.size, d), dtype=np.float32)
            for i, lo, record in pieces:
                if i == at and rows is not None:
                    block, r0 = record.data.reshape(-1, d), lo // d
                    a, b = np.searchsorted(ids, (r0, r0 + len(block)))
                    rows[a:b] = block[ids[a:b] - r0]
        return Checkpoint(entries), rows

    stack, checked = ExitStack(), False
    pipe = os.path.exists(path) and not os.path.isfile(path)  # or a device: see atomic_open
    try:
        sink = io.BytesIO() if pipe else stack.enter_context(atomic_open(path, "wb"))
    except OSError as exc:
        faults.append(exc)
    try:
        with stack:  # a raise in here removes the temp file
            # tuned is scanned here, so the rows it keeps come from this
            # thread's malloc arena: another thread's keeps its pages
            tasks = [copy_base, gather_tuned]
            if _concurrently((base_path, tuned_path)):
                base, (tuned, rows) = _on_threads(tasks, "transfer", here=1)
            else:
                base, (tuned, rows) = [task() for task in tasks]
            check(base, tuned)
            checked = True
            if faults:
                raise faults[0]
            if pipe:
                view = sink.getbuffer()
            else:
                sink.flush()
                fh = stack.enter_context(open(sink.name, "r+b"))
                view = stack.enter_context(mmap.mmap(fh.fileno(), 0))
            at = [t.name for t in base.tensors].index(tensor_name)
            before = base.tensors[:at]
            offset = len(_head(base.tensors)) + 4 * sum(math.prod(t.shape) for t in before)
            v, d = base.tensors[at].shape
            matrix = np.frombuffer(view, np.uint8, 4 * v * d, offset).reshape(v, 4 * d)
            matrix[ids] = rows.view(np.uint8)
            del matrix  # the map can close only once no array holds it
            if pipe:
                with atomic_open(path, "wb") as out:
                    out.write(view)
    except OSError as exc:
        if not checked:
            raise
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


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

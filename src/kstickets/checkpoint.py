"""Bit-exact binary container for named float32 tensors.

File layout: 4-byte magic ``KSLT``, u32-LE format version (1), u32-LE header
length H, then H bytes of UTF-8 header text with one line per tensor
(``name<TAB>dim0,dim1,...<TAB>byte_offset<TAB>byte_length``, offsets relative
to the end of the header), followed by the concatenated raw little-endian
float32 payloads, row-major, no padding.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ._text import Column, atomic_open, read_csv

__all__ = [
    "CheckpointError",
    "TensorRecord",
    "Checkpoint",
    "EmbeddingView",
    "write_checkpoint",
    "read_checkpoint",
    "get_embedding",
    "validate_pair",
    "import_csv_matrix",
]

MAGIC = b"KSLT"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file or invalid tensor metadata."""


@dataclass
class TensorRecord:
    """One named tensor: positive row-major shape plus flat float32 data."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if not self.name:
            raise CheckpointError("tensor name must be non-empty")
        if "\t" in self.name or "\n" in self.name:
            raise CheckpointError(
                f"tensor name {self.name!r} may not contain tabs or newlines"
            )
        self.shape = tuple(int(d) for d in self.shape)
        if not self.shape or any(d <= 0 for d in self.shape):
            raise CheckpointError(
                f"tensor {self.name!r}: dimensions must be positive, got {self.shape}"
            )
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32).reshape(-1))
        expected = math.prod(self.shape)
        if arr.size != expected:
            raise CheckpointError(
                f"tensor {self.name!r}: data length {arr.size} does not match "
                f"shape product {expected}"
            )
        # min and max carry a NaN and show an inf, and allocate nothing of arr's size
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise CheckpointError(f"tensor {self.name!r}: data must be finite")
        self.data = arr

    @property
    def array(self) -> np.ndarray:
        """Zero-copy view of the payload in its declared shape."""
        return self.data.reshape(self.shape)

    @property
    def nbytes(self) -> int:
        return self.data.size * 4


@dataclass
class Checkpoint:
    tensors: list[TensorRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for t in self.tensors:
            if t.name in seen:
                raise CheckpointError(f"duplicate tensor {t.name!r}")
            seen.add(t.name)

    def tensor(self, name: str) -> TensorRecord:
        for t in self.tensors:
            if t.name == name:
                return t
        raise CheckpointError(f"tensor not found: {name!r}")


@dataclass(frozen=True)
class EmbeddingView:
    """A rank-2 tensor read as vocab_size rows of dim values each."""

    vocab_size: int
    dim: int
    tensor: TensorRecord

    @property
    def matrix(self) -> np.ndarray:
        return self.tensor.data.reshape(self.vocab_size, self.dim)


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize to the binary layout; identical inputs give identical bytes."""
    header_lines = []
    offset = 0
    for t in ckpt.tensors:
        dims = ",".join(str(d) for d in t.shape)
        header_lines.append(f"{t.name}\t{dims}\t{offset}\t{t.nbytes}\n")
        offset += t.nbytes
    header = "".join(header_lines).encode("utf-8")
    try:
        with atomic_open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header)
            for t in ckpt.tensors:
                fh.write(t.data.astype("<f4", copy=False).data)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_rest(fh, skip: int) -> memoryview:
    """The rest of fh, read in place into one buffer in which the bytes after
    the first `skip` start 4-byte aligned; a pipe is read to its end too."""

    def aligned(nbytes: int) -> memoryview:
        return memoryview(np.empty((nbytes + 3) // 4, dtype=np.float32)).cast("B")

    pad = -skip % 4
    buf, n = aligned(pad + os.fstat(fh.fileno()).st_size), pad
    while True:
        if n == buf.nbytes:  # full: a pipe, or a file that grew
            buf, full = aligned(2 * n + 4096), buf
            buf[:n] = full
        if not (got := fh.readinto(buf[n:])):
            return buf[pad:n]
        n += got


def read_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint file; the payloads must tile it exactly.
    The file is read once into one buffer, and each tensor is a view of it."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(12)
            header_len = struct.unpack("<I", head[8:12])[0] if len(head) == 12 else 0
            rest = _read_rest(fh, header_len)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(head) < 12 or head[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint")
    (version,) = struct.unpack("<I", head[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if len(rest) < header_len:
        raise CheckpointError(f"{path}: corrupt checkpoint (truncated header)")
    try:
        header = str(rest[:header_len], "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint (bad header)") from exc
    payload = rest[header_len:]

    tensors = []
    end = 0  # payloads are contiguous in header order and fill the file exactly
    for line in header.splitlines():
        parts = line.split("\t")
        if len(parts) != 4:
            raise CheckpointError(f"{path}: corrupt checkpoint (bad header line)")
        name, dims_s, off_s, len_s = parts
        try:
            shape = tuple(int(d) for d in dims_s.split(","))
            off, length = int(off_s), int(len_s)
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint (bad header line)") from exc
        if off != end or length < 0 or off + length > len(payload):
            raise CheckpointError(
                f"{path}: corrupt checkpoint (tensor {name!r} payload at byte {off}, "
                f"expected {end}, length {length} of {len(payload)})"
            )
        end = off + length
        if length != 4 * math.prod(shape) or any(d <= 0 for d in shape):
            raise CheckpointError(
                f"{path}: corrupt checkpoint (tensor {name!r} length/shape mismatch)"
            )
        data = np.frombuffer(payload, dtype="<f4", count=length // 4, offset=off)
        tensors.append(TensorRecord(name, shape, data))
    if end != len(payload):
        raise CheckpointError(
            f"{path}: corrupt checkpoint ({len(payload) - end} trailing payload bytes)"
        )
    return Checkpoint(tensors)


def get_embedding(ckpt: Checkpoint, tensor_name: str) -> EmbeddingView:
    t = ckpt.tensor(tensor_name)
    if len(t.shape) != 2:
        raise CheckpointError(
            f"tensor {tensor_name!r} is not a matrix (shape {t.shape})"
        )
    return EmbeddingView(vocab_size=t.shape[0], dim=t.shape[1], tensor=t)


def validate_pair(
    base: Checkpoint, tuned: Checkpoint, tensor_name: str
) -> tuple[int, int]:
    """Check both checkpoints carry tensor_name as rank-2 with identical shape."""
    vb = get_embedding(base, tensor_name)
    vt = get_embedding(tuned, tensor_name)
    if (vb.vocab_size, vb.dim) != (vt.vocab_size, vt.dim):
        raise CheckpointError(
            f"tensor {tensor_name!r} shape mismatch: "
            f"base {vb.vocab_size, vb.dim} vs tuned {vt.vocab_size, vt.dim}"
        )
    return vb.vocab_size, vb.dim


def import_csv_matrix(path, tensor_name: str) -> Checkpoint:
    """Build a single-tensor checkpoint from a headerless numeric CSV. A cell
    must be finite as float32: below 2**128 - 2**103 (halfway from float32's
    largest value to 2**128) in magnitude, as from there it rounds to inf."""
    cell = Column(np.float64, valid=lambda x: np.abs(x) < 2.0**128 - 2.0**103,
                  invalid="non-finite cell {}")
    try:
        columns = read_csv(path, None, cell, "matrix")
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    if not len(columns[0]):
        raise CheckpointError(f"{path}: no rows")
    data = np.column_stack(columns).astype(np.float32)
    return Checkpoint([TensorRecord(tensor_name, data.shape, data)])

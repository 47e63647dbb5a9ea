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

from ._text import atomic_open, naming

__all__ = [
    "CheckpointError",
    "TensorRecord",
    "Checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "get_embedding",
    "validate_pair",
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
    def nbytes(self) -> int:
        return self.data.size * 4

    @property
    def matrix(self) -> np.ndarray:
        """data in its shape: a view, so a write through it changes data."""
        return self.data.reshape(self.shape)


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
    with naming(path):
        if len(head) < 12 or head[:4] != MAGIC:
            raise CheckpointError("not a checkpoint")
        (version,) = struct.unpack("<I", head[4:8])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported version {version}")
        if len(rest) < header_len:
            raise CheckpointError("corrupt checkpoint (truncated header)")
        try:
            header = str(rest[:header_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError("corrupt checkpoint (bad header)") from exc
        payload = rest[header_len:]

        tensors = []
        end = 0  # payloads are contiguous in header order and fill the file exactly
        for line in header.splitlines():
            parts = line.split("\t")
            if len(parts) != 4:
                raise CheckpointError("corrupt checkpoint (bad header line)")
            name, dims_s, off_s, len_s = parts
            try:
                shape = tuple(int(d) for d in dims_s.split(","))
                off, length = int(off_s), int(len_s)
            except ValueError as exc:
                raise CheckpointError("corrupt checkpoint (bad header line)") from exc
            if off != end or length < 0 or off + length > len(payload):
                raise CheckpointError(f"corrupt checkpoint (tensor {name!r} payload at byte {off}, "
                                      f"expected {end}, length {length} of {len(payload)})")
            end = off + length
            if length != 4 * math.prod(shape) or any(d <= 0 for d in shape):
                raise CheckpointError(f"corrupt checkpoint (tensor {name!r} length/shape mismatch)")
            data = np.frombuffer(payload, dtype="<f4", count=length // 4, offset=off)
            tensors.append((name, shape, data))
        if end != len(payload):
            raise CheckpointError(f"corrupt checkpoint ({len(payload) - end} trailing payload bytes)")
        return Checkpoint([TensorRecord(*t) for t in tensors])


def get_embedding(ckpt: Checkpoint, tensor_name: str) -> TensorRecord:
    """ckpt's own record of tensor_name, checked rank-2: vocab rows of dim values."""
    t = ckpt.tensor(tensor_name)
    if len(t.shape) != 2:
        raise CheckpointError(
            f"tensor {tensor_name!r} is not a matrix (shape {t.shape})"
        )
    return t


def validate_pair(
    base: Checkpoint, tuned: Checkpoint, tensor_name: str
) -> tuple[TensorRecord, TensorRecord]:
    """The records of tensor_name in base and tuned, checked rank-2 with identical shape."""
    vb = get_embedding(base, tensor_name)
    vt = get_embedding(tuned, tensor_name)
    if vb.shape != vt.shape:
        raise CheckpointError(
            f"tensor {tensor_name!r} shape mismatch: base {vb.shape} vs tuned {vt.shape}"
        )
    return vb, vt


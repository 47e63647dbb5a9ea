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
import stat
import struct
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._text import atomic_open, naming

__all__ = [
    "CheckpointError",
    "TensorRecord",
    "Checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoints",
    "get_embedding",
    "validate_pair",
]

MAGIC = b"KSLT"
FORMAT_VERSION = 1
# read_checkpoints reads a second file on a second thread only when every file
# is a regular one of at least this many bytes: below it, the thread's start
# and its contention with the calling thread cost more than the overlap saves
CONCURRENT_READ_BYTES = 16 << 20
# a file scanned without being held whole goes through a buffer of this many
# bytes, cut down to whole rows
_CHUNK_BYTES = 1 << 20


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


class _Entry(NamedTuple):
    """A tensor named in a header: all that validate_pair and _head read of a record."""

    name: str
    shape: tuple[int, ...]


def _head(entries) -> bytes:
    """The bytes before the payloads of a file of these tensors (each with a
    name and a shape), payloads in their order."""
    lines, offset = [], 0
    for t in entries:
        nbytes = 4 * math.prod(t.shape)
        lines.append(f"{t.name}\t{','.join(map(str, t.shape))}\t{offset}\t{nbytes}\n")
        offset += nbytes
    header = "".join(lines).encode("utf-8")
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize to the binary layout; identical inputs give identical bytes."""
    try:
        with atomic_open(path, "wb") as fh:
            fh.write(_head(ckpt.tensors))
            for t in ckpt.tensors:
                fh.write(t.data.astype("<f4", copy=False).data)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_threads(tasks, name: str, here: int = 0) -> list:
    """The results of tasks, in task order: tasks[here] runs on the calling
    thread and each other task on a threading.Thread of this name, so one
    task starts no thread. Every thread is joined before the first failure
    in task order is raised, as the same exception object."""
    results, failures = [None] * len(tasks), [None] * len(tasks)

    def run(k):
        try:
            results[k] = tasks[k]()
        except BaseException as exc:
            failures[k] = exc

    threads = [threading.Thread(target=run, args=(k,), name=name)
               for k in range(len(tasks)) if k != here]
    for thread in threads:
        thread.start()
    run(here)
    for thread in threads:
        thread.join()
    for exc in filter(None, failures):
        raise exc
    return results


def _buffer(nbytes: int) -> memoryview:
    """nbytes of uninitialised memory, 4-byte aligned."""
    return memoryview(np.empty((nbytes + 3) // 4, dtype=np.float32)).cast("B")


def _read_rest(fh, head: bytes, buf: memoryview | None) -> memoryview:
    """The rest of fh after its head, read in place into buf (a new buffer
    if None) so that the payloads after the header start 4-byte aligned; a
    pipe is read to its end too."""
    pad = -(struct.unpack("<I", head[8:12])[0] if len(head) == 12 else 0) % 4
    if buf is None:
        buf = _buffer(pad + os.fstat(fh.fileno()).st_size)
    n = pad
    while True:
        if n == buf.nbytes:  # full: a pipe, or a file that grew
            buf, full = _buffer(2 * n + 4096), buf
            buf[:n] = full
        if not (got := fh.readinto(buf[n:])):
            return buf[pad:n]
        n += got


def _slicer(rest: memoryview):
    """take(n) for _scan over bytes read whole: the next n of rest, in place."""
    end = 0

    def take(n):
        nonlocal end
        end += n
        return rest[end - n:end]
    return take


def _reader(fh, buf: memoryview):
    """take(n) for _scan over fh: its next n bytes (fewer at its end), read
    into buf, reused by every take (or a larger one, from the first take that needs it)."""
    def take(n):
        nonlocal buf
        if n > buf.nbytes:
            buf = _buffer(n)
        got = 0
        while got < n and (k := fh.readinto(buf[got:n])):
            got += k
        return buf[:got]
    return take


def _scan(head: bytes, take, size: int, chunk: float):
    """Check a checkpoint of size bytes, whose first 12 are head and whose
    next n take(n) returns. Yield its header's entries once they check, then
    (i, lo, record) for each piece of entries[i]'s payload from value lo on:
    the whole payload in its shape where it is at most chunk bytes, else
    flat records of as many whole rows as fit in chunk (at least one).
    Making each record checks it, and the names are checked unique last."""
    if len(head) < 12 or head[:4] != MAGIC:
        raise CheckpointError("not a checkpoint")
    version, header_len = struct.unpack("<II", head[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    payload_len = size - 12 - header_len
    if payload_len < 0:
        raise CheckpointError("corrupt checkpoint (truncated header)")
    try:
        header = str(take(header_len), "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError("corrupt checkpoint (bad header)") from exc

    entries = []
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
        if off != end or length < 0 or off + length > payload_len:
            raise CheckpointError(f"corrupt checkpoint (tensor {name!r} payload at byte {off}, "
                                  f"expected {end}, length {length} of {payload_len})")
        end = off + length
        if length != 4 * math.prod(shape) or any(d <= 0 for d in shape):
            raise CheckpointError(f"corrupt checkpoint (tensor {name!r} length/shape mismatch)")
        entries.append(_Entry(name, shape))
    if end != payload_len:
        raise CheckpointError(f"corrupt checkpoint ({payload_len - end} trailing payload bytes)")
    yield entries

    for i, (name, shape) in enumerate(entries):
        length, row = 4 * math.prod(shape), 4 * math.prod(shape[1:])
        step = length if length <= chunk else max(row, int(chunk) // row * row)
        for lo in range(0, length, step):
            piece = take(n := min(step, length - lo))
            if len(piece) < n:
                raise CheckpointError("corrupt checkpoint (truncated while read)")
            values = np.frombuffer(piece, dtype="<f4")
            yield i, lo // 4, TensorRecord(name, shape if n == length else values.shape, values)
    Checkpoint(entries)  # raises on a repeated name


def _scan_file(path, chunk: float = math.inf, buf: memoryview | None = None):
    """_scan of the checkpoint at path, each fault named as read_checkpoint
    names it. A regular file is read chunk by chunk into buf; anything else
    (a pipe), or every file where chunk is inf, is read whole first, into buf
    if given (see _read_rest)."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(12)
            st = os.fstat(fh.fileno())
            if chunk < math.inf and stat.S_ISREG(st.st_mode):
                take, size = _reader(fh, buf), st.st_size
            else:
                rest = _read_rest(fh, head, buf)
                take, size = _slicer(rest), 12 + len(rest)
            with naming(path):
                yield from _scan(head, take, size, chunk)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def read_checkpoint(path, into: memoryview | None = None) -> Checkpoint:
    """Parse and validate a checkpoint file; the payloads must tile it exactly.
    The file is read once into one buffer, and each tensor is a view of it:
    `into`, when given, is that buffer, from _buffer(3 + the file's size)."""
    pieces = _scan_file(path, buf=into)
    next(pieces)
    return Checkpoint([record for _, _, record in pieces])


def _regular_size(path) -> int:
    """path's size in bytes if it is a regular file, else -1."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return -1
    return st.st_size if stat.S_ISREG(st.st_mode) else -1


def _concurrently(paths) -> bool:
    """Whether to read paths on two threads: with two CPUs or more, and every
    path a regular file of at least CONCURRENT_READ_BYTES. Otherwise a FIFO
    or a missing file fails as in a read one after the other."""
    return (len(paths) > 1 and _cpu_count() > 1
            and min(map(_regular_size, paths)) >= CONCURRENT_READ_BYTES)


def read_checkpoints(*paths) -> list[Checkpoint]:
    """read_checkpoint of each path, in order.

    Where _concurrently(paths), one _on_threads thread reads every file but
    the first (readinto and numpy release the GIL) into buffers allocated
    here: a thread's own malloc arena would raise the peak RSS. Otherwise the
    files are read one after the other. Either way the first failure in
    argument order is raised, after the thread has ended.
    """
    if not _concurrently(paths):
        return [read_checkpoint(p) for p in paths]
    buffers = [_buffer(3 + _regular_size(p)) for p in paths[1:]]
    first, rest = _on_threads([lambda: read_checkpoint(paths[0]),
                               lambda: list(map(read_checkpoint, paths[1:], buffers))],
                              "read_checkpoints")
    return [first, *rest]


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


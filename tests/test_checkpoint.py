import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstickets import checkpoint
from kstickets.checkpoint import (
    Checkpoint,
    CheckpointError,
    TensorRecord,
    get_embedding,
    read_checkpoint,
    read_checkpoints,
    validate_pair,
    write_checkpoint,
)


def make_ckpt(*entries):
    """entries: (name, shape) pairs filled with deterministic values."""
    tensors = []
    for idx, (name, shape) in enumerate(entries):
        size = int(np.prod(shape))
        data = (np.arange(size, dtype=np.float32) + idx) / 7.0
        tensors.append(TensorRecord(name, shape, data))
    return Checkpoint(tensors)


class TestTensorRecord:
    def test_basic(self):
        t = TensorRecord("w", (2, 3), np.zeros(6, dtype=np.float32))
        assert t.shape == (2, 3)
        assert t.data.shape == (6,)
        assert t.nbytes == 24

    def test_shape_mismatch(self):
        with pytest.raises(CheckpointError, match="does not match"):
            TensorRecord("w", (2, 3), np.zeros(5, dtype=np.float32))

    def test_empty_name(self):
        with pytest.raises(CheckpointError, match="non-empty"):
            TensorRecord("", (1,), np.zeros(1, dtype=np.float32))

    def test_non_finite(self):
        with pytest.raises(CheckpointError, match="finite"):
            TensorRecord("w", (2,), np.array([1.0, np.nan], dtype=np.float32))

    def test_bad_dims(self):
        with pytest.raises(CheckpointError, match="positive"):
            TensorRecord("w", (0, 3), np.zeros(0, dtype=np.float32))

    def test_name_with_tab(self):
        with pytest.raises(CheckpointError):
            TensorRecord("a\tb", (1,), np.zeros(1, dtype=np.float32))


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        ckpt = make_ckpt(("embed", (8, 4)), ("head", (3,)))
        path = tmp_path / "m.ckpt"
        write_checkpoint(ckpt, path)
        back = read_checkpoint(path)
        assert [t.name for t in back.tensors] == ["embed", "head"]
        for t1, t2 in zip(ckpt.tensors, back.tensors):
            assert t1.shape == t2.shape
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        ckpt = make_ckpt(("embed", (5, 5)))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(ckpt, p1)
        write_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_zero_preserved(self, tmp_path):
        data = np.array([0.0, -0.0, 1.0, -1.0], dtype=np.float32)
        ckpt = Checkpoint([TensorRecord("z", (4,), data)])
        path = tmp_path / "z.ckpt"
        write_checkpoint(ckpt, path)
        back = read_checkpoint(path)
        assert back.tensor("z").data.tobytes() == data.tobytes()

    @settings(max_examples=20)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=32
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_payload_bit_exact(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        data = np.asarray(values, dtype=np.float32)
        ckpt = Checkpoint([TensorRecord("t", (len(values),), data)])
        path = tmp / "t.ckpt"
        write_checkpoint(ckpt, path)
        assert read_checkpoint(path).tensor("t").data.tobytes() == data.tobytes()


class TestValidation:
    def test_duplicate_tensor(self):
        t = TensorRecord("w", (1,), np.zeros(1, dtype=np.float32))
        t2 = TensorRecord("w", (1,), np.ones(1, dtype=np.float32))
        with pytest.raises(CheckpointError, match="duplicate tensor"):
            Checkpoint([t, t2])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"KSLT\x01")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ckpt = make_ckpt(("w", (2,)))
        path = tmp_path / "v9.ckpt"
        write_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported version"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ckpt = make_ckpt(("w", (4, 4)))
        path = tmp_path / "trunc.ckpt"
        write_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        ckpt = make_ckpt(("w", (2,)))
        path = tmp_path / "h.ckpt"
        write_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            read_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize(
        "layout, payload_bytes",
        [
            ([0, 0], 16),  # overlap: both tensors claim bytes 0..8
            ([0, 12], 20),  # gap of 4 bytes between the payloads
            ([0, 8], 20),  # 4 trailing bytes after the last payload
            ([8, 0], 16),  # payloads out of header order
        ],
    )
    def test_payloads_must_tile_the_file(self, tmp_path, layout, payload_bytes):
        header = "".join(
            f"{name}\t2\t{off}\t8\n" for name, off in zip("ab", layout)
        ).encode()
        path = tmp_path / "layout.ckpt"
        path.write_bytes(
            b"KSLT" + struct.pack("<II", 1, len(header)) + header + bytes(payload_bytes)
        )
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "header, reason",
        [
            (b"\xff\t2\t0\t8\n", "bad header"),
            (b"w\t2\t0\n", "bad header line"),
            (b"w\t2,x\t0\t8\n", "bad header line"),
            (b"w\t2\tzero\t8\n", "bad header line"),
            (b"w\t3\t0\t8\n", "tensor 'w' length/shape mismatch"),
        ],
        ids=["not-utf8", "three-fields", "non-integer-dim", "non-integer-offset",
             "length-not-4-prod"],
    )
    def test_corrupt_header_line(self, tmp_path, header, reason):
        path = tmp_path / "h.ckpt"
        path.write_bytes(b"KSLT" + struct.pack("<II", 1, len(header)) + header + bytes(8))
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: corrupt checkpoint ({reason})"

    @pytest.mark.parametrize(
        "header, payload, reason",
        [
            (b"w\t2\t0\t8\n", np.array([1, np.nan], dtype="<f4").tobytes(),
             "tensor 'w': data must be finite"),
            (b"w\t2\t0\t8\nw\t2\t8\t8\n", bytes(16), "duplicate tensor 'w'"),
            (b"\t2\t0\t8\n", bytes(8), "tensor name must be non-empty"),
        ],
        ids=["nan-payload", "duplicate-name", "empty-name"],
    )
    def test_content_fault_names_the_file(self, tmp_path, header, payload, reason):
        # analyze reads two checkpoints: the message must say which one is bad
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"KSLT" + struct.pack("<II", 1, len(header)) + header + payload)
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: {reason}"


def traced_peak(fn, *args):
    """(result, peak bytes allocated while fn runs, numpy buffers included)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Reading holds one copy of the payloads; writing copies none."""

    def write_big(self, path):
        rng = np.random.default_rng(0)
        ckpt = Checkpoint([
            TensorRecord("embedding", (1024, 768), rng.normal(size=1024 * 768)),
            TensorRecord("output", (512, 768), rng.normal(size=512 * 768)),
        ])
        write_checkpoint(ckpt, path)
        return ckpt, path.stat().st_size

    def test_read_peak_at_most_one_and_a_half_file_sizes(self, tmp_path):
        ckpt, size = self.write_big(tmp_path / "big.ckpt")
        back, peak = traced_peak(read_checkpoint, tmp_path / "big.ckpt")
        assert back.tensor("output").data.tobytes() == ckpt.tensor("output").data.tobytes()
        assert peak <= 1.5 * size

    def test_write_peak_at_most_a_tenth_of_the_file(self, tmp_path):
        ckpt, size = self.write_big(tmp_path / "big.ckpt")
        _, peak = traced_peak(write_checkpoint, ckpt, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "big.ckpt").read_bytes()
        assert peak <= 0.1 * size

    @pytest.mark.parametrize("name", ["e", "em", "emb", "embe"])  # every header length mod 4
    def test_tensors_share_one_aligned_buffer(self, tmp_path, name):
        write_checkpoint(make_ckpt((name, (3, 5)), ("b", (7,))), tmp_path / "m.ckpt")
        a, b = read_checkpoint(tmp_path / "m.ckpt").tensors
        assert b.data.ctypes.data == a.data.ctypes.data + a.data.nbytes
        assert a.data.ctypes.data % 4 == 0 and a.data.flags.aligned and a.data.flags.writeable

    def test_reads_from_a_pipe(self, tmp_path):
        ckpt, _ = self.write_big(tmp_path / "big.ckpt")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        blob = (tmp_path / "big.ckpt").read_bytes()
        writer = threading.Thread(target=lambda: fifo.write_bytes(blob))
        writer.start()
        try:
            back = read_checkpoint(fifo)
        finally:
            writer.join()
        for t in ckpt.tensors:
            assert back.tensor(t.name).data.tobytes() == t.data.tobytes()


class TestFiniteCheck:
    """A NaN or an inf anywhere in a multi-MB tensor is rejected, and the check
    allocates no temporary of the tensor's size."""

    SHAPE = (2048, 768)  # 6.3 MB of float32
    SIZE = SHAPE[0] * SHAPE[1]
    WHERE = {"first": 0, "middle": SIZE // 2 + 123, "last": SIZE - 1}

    def data(self):
        return np.random.default_rng(0).normal(size=self.SIZE).astype(np.float32)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tensor_record(self, bad, where):
        data = self.data()
        data[self.WHERE[where]] = bad
        with pytest.raises(CheckpointError, match="tensor 'e': data must be finite"):
            TensorRecord("e", self.SHAPE, data)

    def test_read_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(Checkpoint([TensorRecord("e", self.SHAPE, self.data())]), path)
        blob = path.read_bytes()
        payload = 12 + struct.unpack("<I", blob[8:12])[0]
        for bad in (np.nan, np.inf, -np.inf):
            for at in self.WHERE.values():
                with open(path, "r+b") as fh:
                    fh.seek(payload + 4 * at)
                    fh.write(np.float32(bad).tobytes())
                with pytest.raises(CheckpointError, match="tensor 'e': data must be finite"):
                    read_checkpoint(path)
                path.write_bytes(blob)
        assert read_checkpoint(path).tensor("e").data.tobytes() == self.data().tobytes()

    def test_check_allocates_no_tensor_sized_temporary(self):
        data = self.data()
        _, peak = traced_peak(TensorRecord, "e", self.SHAPE, data)
        assert peak < data.size // 8  # np.isfinite(data) alone is data.size bytes


class TestAtomicWrite:
    def test_failed_payload_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(make_ckpt(("w", (2,))), path)
        before = path.read_bytes()

        class DiskFull:
            size = 1

            def astype(self, *args, **kwargs):
                raise OSError(28, "No space left on device")

        ckpt = make_ckpt(("a", (4,)), ("b", (1,)))
        ckpt.tensors[1].data = DiskFull()  # the second payload write fails
        with pytest.raises(CheckpointError, match="No space left"):
            write_checkpoint(ckpt, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


class TestGetEmbedding:
    def test_view(self):
        ckpt = make_ckpt(("embed", (8, 4)))
        view = get_embedding(ckpt, "embed")
        assert view.shape == (8, 4)
        assert view.matrix.shape == (8, 4)

    def test_returns_the_record_itself(self):
        ckpt = make_ckpt(("embed", (8, 4)))
        record = get_embedding(ckpt, "embed")
        assert record is ckpt.tensor("embed")
        record.matrix[2, 3] = 7.5  # matrix is a view of data
        assert record.data[2 * 4 + 3] == 7.5

    def test_missing_tensor(self):
        with pytest.raises(CheckpointError, match="tensor not found"):
            get_embedding(make_ckpt(("embed", (8, 4))), "other")

    def test_not_a_matrix(self):
        with pytest.raises(CheckpointError, match="not a matrix"):
            get_embedding(make_ckpt(("v", (8,))), "v")


class TestValidatePair:
    def test_matching(self):
        a = make_ckpt(("embed", (8, 4)))
        b = make_ckpt(("other", (2, 2)), ("embed", (8, 4)))  # other values than a's
        vb, vt = validate_pair(a, b, "embed")
        assert vb.shape == vt.shape == (8, 4)
        assert vb.matrix.tobytes() == a.tensor("embed").data.tobytes()
        assert vt.matrix.tobytes() == b.tensor("embed").data.tobytes()

    def test_shape_mismatch_lists_both(self):
        a = make_ckpt(("embed", (8, 4)))
        b = make_ckpt(("embed", (8, 5)))
        with pytest.raises(CheckpointError, match=r"8, 4.*8, 5"):
            validate_pair(a, b, "embed")

    def test_missing_in_tuned(self):
        a = make_ckpt(("embed", (8, 4)))
        b = make_ckpt(("other", (8, 4)))
        with pytest.raises(CheckpointError, match="tensor not found"):
            validate_pair(a, b, "embed")


class TestReadCheckpoints:
    """read_checkpoints gives read_checkpoint of each path, in order, and the
    first failure in argument order, whether or not it reads on two threads."""

    @pytest.fixture()
    def concurrent(self, monkeypatch):
        """Two threads for files of any size, on any machine."""
        monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", 0)
        monkeypatch.setattr(checkpoint, "_cpu_count", lambda: 2)

    @staticmethod
    def write_models(tmp_path, names=("e", "em", "emb")):  # header lengths of every residue mod 4
        paths = []
        for k, name in enumerate(names):
            path = tmp_path / f"{name}.ckpt"
            write_checkpoint(make_ckpt((name, (3 + k, 5)), ("b", (7,))), path)
            paths.append(path)
        return paths

    @staticmethod
    def assert_same(got, want):
        assert [t.name for t in got.tensors] == [t.name for t in want.tensors]
        for g, w in zip(got.tensors, want.tensors):
            assert g.shape == w.shape and g.data.tobytes() == w.data.tobytes()
            assert g.data.ctypes.data % 4 == 0 and g.data.flags.writeable

    def test_reads_all_but_the_first_on_one_other_thread(self, tmp_path, concurrent, monkeypatch,
                                                        started_threads):
        paths = self.write_models(tmp_path)
        allocated_on = []
        buffer = checkpoint._buffer

        def spy(nbytes):
            allocated_on.append(threading.get_ident())
            return buffer(nbytes)

        monkeypatch.setattr(checkpoint, "_buffer", spy)
        got = read_checkpoints(*paths)
        assert started_threads == ["read_checkpoints"]
        # every buffer, the other thread's too, comes from the calling thread
        assert allocated_on == [threading.get_ident()] * len(paths)
        for path, ckpt in zip(paths, got):
            self.assert_same(ckpt, read_checkpoint(path))

    @pytest.mark.parametrize("floor, cpus", [(1 << 20, 2), (0, 1)], ids=["small-files", "one-cpu"])
    def test_small_files_or_one_cpu_read_on_this_thread(self, tmp_path, monkeypatch, started_threads,
                                                       floor, cpus):
        monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", floor)
        monkeypatch.setattr(checkpoint, "_cpu_count", lambda: cpus)
        paths = self.write_models(tmp_path)
        for path, ckpt in zip(paths, read_checkpoints(*paths)):
            self.assert_same(ckpt, read_checkpoint(path))
        assert started_threads == []

    def test_a_path_that_is_not_a_regular_file_reads_on_this_thread(self, tmp_path, concurrent,
                                                                    started_threads):
        good = self.write_models(tmp_path)[0]
        for other in (tmp_path / "missing.ckpt", tmp_path):
            with pytest.raises(CheckpointError, match=f"cannot read checkpoint {other}"):
                read_checkpoints(good, other)
        assert started_threads == []

    @pytest.mark.parametrize("bad", [(0,), (1,), (0, 1), (1, 2), (2,)],
                             ids=["first", "second", "first-and-second", "second-and-third", "third"])
    def test_raises_the_first_failure_in_argument_order(self, tmp_path, concurrent, started_threads,
                                                        bad):
        paths = self.write_models(tmp_path)
        for k in bad:  # each a fault of its own
            paths[k].write_bytes(paths[k].read_bytes()[:-4 * (k + 1)])
        with pytest.raises(CheckpointError) as serial:
            read_checkpoint(paths[bad[0]])
        with pytest.raises(CheckpointError) as info:
            read_checkpoints(*paths)
        assert str(info.value) == str(serial.value)
        assert started_threads == ["read_checkpoints"]


class TestOnThreads:
    """_on_threads: tasks[0] on the calling thread, one named thread per other
    task, every thread joined before the first failure in task order."""

    def test_results_come_back_in_task_order(self, started_threads):
        def after(seconds, value):
            def task():
                time.sleep(seconds)
                return value
            return task

        # the later tasks finish first
        tasks = [after(0.1, "a"), after(0.05, "b"), after(0.0, "c")]
        assert checkpoint._on_threads(tasks, "t") == ["a", "b", "c"]
        assert started_threads == ["t", "t"]

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_a_failure_is_raised_after_every_thread_has_ended(self, started_threads, error):
        done = []

        def fail():
            raise error("first")

        def slow():
            time.sleep(0.2)
            done.append(True)

        with pytest.raises(error):
            checkpoint._on_threads([fail, slow], "t")
        assert done == [True]

    def test_the_first_failure_in_task_order_is_raised(self, started_threads):
        errors = [None, ValueError("task 1"), ValueError("task 2")]

        def fail(k, seconds):
            def task():
                time.sleep(seconds)
                raise errors[k]
            return task

        # task 2 fails first in time; task 1's error is raised, the same object
        with pytest.raises(ValueError) as info:
            checkpoint._on_threads([lambda: None, fail(1, 0.1), fail(2, 0.0)], "t")
        assert info.value is errors[1]

    def test_one_task_starts_no_thread(self, started_threads):
        assert checkpoint._on_threads([threading.get_ident], "t") == [threading.get_ident()]
        assert started_threads == []

    def test_here_names_the_task_of_the_calling_thread(self, started_threads):
        tasks = [threading.get_ident] * 3
        assert checkpoint._on_threads(tasks, "t", here=1)[1] == threading.get_ident()
        assert checkpoint._on_threads(tasks, "t", here=1).count(threading.get_ident()) == 1
        assert started_threads == ["t"] * 4

    def test_threads_carry_the_name(self, started_threads):
        def name():
            return threading.current_thread().name

        assert checkpoint._on_threads([name] * 3, "worker") == [name(), "worker", "worker"]
        assert started_threads == ["worker", "worker"]

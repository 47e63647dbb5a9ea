import itertools
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstickets import checkpoint, transfer
from kstickets.checkpoint import (
    Checkpoint,
    TensorRecord,
    get_embedding,
    read_checkpoint,
    write_checkpoint,
)
from kstickets.cli import run
from kstickets.selection import WinningTicketSet, write_ticket_file
from kstickets.transfer import (
    emit_mask,
    splice_in_place,
    splice_partial_transfer,
    write_mask_file,
)
from oracles import diff_rows, transfer_whole


def pair_differing_everywhere(v=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    base_m = rng.normal(size=(v, d)).astype(np.float32)
    tuned_m = base_m + 1.0  # every element differs
    extra = rng.normal(size=(2, 2)).astype(np.float32)
    base = Checkpoint(
        [
            TensorRecord("embed", (v, d), base_m.ravel()),
            TensorRecord("other", (2, 2), extra.ravel()),
        ]
    )
    tuned = Checkpoint(
        [
            TensorRecord("embed", (v, d), tuned_m.ravel()),
            TensorRecord("other", (2, 2), (extra + 5.0).ravel()),
        ]
    )
    return base, tuned


def tickets_of(ids, v=4):
    return WinningTicketSet(method="ks", vocab_size=v, token_ids=tuple(sorted(ids)))


class TestSplice:
    def test_full_set_reproduces_tuned_tensor(self):
        base, tuned = pair_differing_everywhere()
        out = splice_partial_transfer(base, tuned, "embed", tickets_of(range(4)))
        assert (
            out.tensor("embed").data.tobytes() == tuned.tensor("embed").data.tobytes()
        )

    def test_empty_set_reproduces_base(self):
        base, tuned = pair_differing_everywhere()
        out = splice_partial_transfer(base, tuned, "embed", tickets_of([]))
        assert out.tensor("embed").data.tobytes() == base.tensor("embed").data.tobytes()

    def test_single_row_element_oracle(self):
        base, tuned = pair_differing_everywhere()
        out = splice_partial_transfer(base, tuned, "embed", tickets_of([2]))
        got = get_embedding(out, "embed").matrix
        for r in range(4):
            source = tuned if r == 2 else base
            np.testing.assert_array_equal(got[r], get_embedding(source, "embed").matrix[r])

    def test_non_target_tensors_untouched(self):
        base, tuned = pair_differing_everywhere()
        out = splice_partial_transfer(base, tuned, "embed", tickets_of([0, 3]))
        assert out.tensor("other").data.tobytes() == base.tensor("other").data.tobytes()

    def test_idempotent(self):
        base, tuned = pair_differing_everywhere()
        t = tickets_of([1, 2])
        once = splice_partial_transfer(base, tuned, "embed", t)
        twice = splice_partial_transfer(once, tuned, "embed", t)
        for name in ("embed", "other"):
            assert once.tensor(name).data.tobytes() == twice.tensor(name).data.tobytes()

    def test_does_not_mutate_inputs(self):
        base, tuned = pair_differing_everywhere()
        before = base.tensor("embed").data.tobytes()
        splice_partial_transfer(base, tuned, "embed", tickets_of([0, 1, 2, 3]))
        assert base.tensor("embed").data.tobytes() == before

    def test_vocab_mismatch(self):
        base, tuned = pair_differing_everywhere()
        with pytest.raises(ValueError, match="vocab_size"):
            splice_partial_transfer(base, tuned, "embed", tickets_of([0], v=9))

    def test_missing_tensor(self):
        base, tuned = pair_differing_everywhere()
        with pytest.raises(ValueError, match="tensor not found"):
            splice_partial_transfer(base, tuned, "absent", tickets_of([0]))

    @settings(max_examples=25)
    @given(
        ids=st.sets(st.integers(0, 5)),
        seed=st.integers(0, 1000),
    )
    def test_diff_rows_equals_tickets(self, ids, seed):
        rng = np.random.default_rng(seed)
        base_m = rng.normal(size=(6, 4)).astype(np.float32)
        base = Checkpoint([TensorRecord("embed", (6, 4), base_m.ravel())])
        tuned = Checkpoint([TensorRecord("embed", (6, 4), (base_m + 1.0).ravel())])
        t = WinningTicketSet(method="ks", vocab_size=6, token_ids=tuple(sorted(ids)))
        out = splice_partial_transfer(base, tuned, "embed", t)
        assert diff_rows(out, base, "embed") == set(ids)


class TestSpliceInPlace:
    def test_matches_the_copying_splice(self):
        base, tuned = pair_differing_everywhere()
        tickets = tickets_of([0, 2])
        want = splice_partial_transfer(base, tuned, "embed", tickets)
        got = splice_in_place(base, tuned, "embed", tickets)
        assert got is base
        for name in ("embed", "other"):
            assert got.tensor(name).data.tobytes() == want.tensor(name).data.tobytes()

    def test_checks_before_writing(self):
        base, tuned = pair_differing_everywhere()
        before = base.tensor("embed").data.tobytes()
        with pytest.raises(ValueError, match="vocab_size"):
            splice_in_place(base, tuned, "embed", tickets_of([0], v=9))
        assert base.tensor("embed").data.tobytes() == before


def transfer_argv(base, tuned, tickets, out, tensor="emb"):
    return ["transfer", "--base", str(base), "--tuned", str(tuned), "--tensor", tensor,
            "--tickets", str(tickets), "--out", str(out)]


def write_raw(path, tensors, style="canonical"):
    """A checkpoint of (name, shape, float32 values) tensors, whose header is
    written in style: canonical (as write_checkpoint writes it), padded-dims
    (each dim with a leading 0), crlf (CRLF line ends) or no-final-newline."""
    lines, payload, offset = [], [], 0
    for name, shape, values in tensors:
        dims = ",".join(("0" if style == "padded-dims" else "") + str(d) for d in shape)
        lines.append(f"{name}\t{dims}\t{offset}\t{values.nbytes}")
        payload.append(values.astype("<f4").tobytes())
        offset += values.nbytes
    end = "\r\n" if style == "crlf" else "\n"
    header = (end.join(lines) + ("" if style == "no-final-newline" else end)).encode()
    path.write_bytes(b"KSLT" + struct.pack("<II", 1, len(header)) + header + b"".join(payload))


def three_tensors(rng, v, d, position, shift=0.0):
    """The matrix emb of v rows of d among a rank-1 tensor and another
    matrix, at position 0, 1 or 2."""
    others = [("bias", (7,)), ("head", (5, 4))]
    tensors = others[:position] + [("emb", (v, d))] + others[position:]
    return [(name, shape, rng.normal(size=shape).astype(np.float32) + np.float32(shift))
            for name, shape in tensors]


def bad(tensor):
    """tensor with its last value NaN."""
    name, shape, values = tensor
    values = values.copy()
    values.flat[-1] = np.nan
    return name, shape, values


def flat(tensor):
    name, shape, values = tensor
    return name, (values.size,), values


def grown(tensor):
    """emb with one more row; any other tensor as it is."""
    name, shape, values = tensor
    if name != "emb":
        return tensor
    return name, (shape[0] + 1, *shape[1:]), np.append(values, np.zeros((1, *shape[1:]), np.float32), 0)


class TestStreamingTransfer:
    """transfer scans base into its output and keeps only tuned's ticket rows:
    its bytes, its faults and their order are those of reading both whole."""

    V = 11

    @pytest.fixture()
    def threads(self, monkeypatch, started_threads):
        """cpus(n): transfer runs as on n CPUs, whatever the files' sizes."""
        monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", 0)

        def cpus(n):
            monkeypatch.setattr(checkpoint, "_cpu_count", lambda: n)
            return started_threads
        return cpus

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("style", ["canonical", "padded-dims", "crlf", "no-final-newline"])
    @pytest.mark.parametrize("ids", [(), (0, 3, 4, 10), tuple(range(V))], ids=["none", "some", "all"])
    @pytest.mark.parametrize("d, chunk", [(3, 64), (16, 64), (25, 64), (16, 1 << 20)],
                             ids=["rows-cut-chunk", "rows-fill-chunk", "row-over-chunk", "one-piece"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_bytes_match_the_whole_read(self, tmp_path, monkeypatch, threads, position, d, chunk,
                                        ids, style, cpus):
        rng = np.random.default_rng(position * 7 + d)
        base, tuned, tickets = tmp_path / "base.ckpt", tmp_path / "tuned.ckpt", tmp_path / "t.txt"
        write_raw(base, three_tensors(rng, self.V, d, position), style)
        write_raw(tuned, three_tensors(rng, self.V, d, position, shift=3.0))
        ticket_set = tickets_of(ids, v=self.V)
        write_ticket_file(ticket_set, tickets)
        write_checkpoint(splice_in_place(read_checkpoint(base), read_checkpoint(tuned), "emb",
                                         ticket_set), tmp_path / "want.ckpt")
        monkeypatch.setattr(transfer, "_CHUNK_BYTES", chunk)
        started = threads(cpus)
        assert run(transfer_argv(base, tuned, tickets, tmp_path / "out.ckpt")) == 0
        assert (tmp_path / "out.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
        assert started == (["transfer"] if cpus == 2 else [])

    FAULTS = {  # name: (the file it breaks, how)
        "base-absent": ("base", lambda p, t: p.unlink()),
        "base-not-a-checkpoint": ("base", lambda p, t: p.write_bytes(b"not a checkpoint")),
        "base-cut": ("base", lambda p, t: p.write_bytes(p.read_bytes()[:-4])),
        "base-nan-in-last": ("base", lambda p, t: write_raw(p, t[:-1] + [bad(t[-1])])),
        "base-duplicate": ("base", lambda p, t: write_raw(p, t + [t[0]])),
        "base-no-emb": ("base", lambda p, t: write_raw(p, [x for x in t if x[0] != "emb"])),
        "base-emb-rank-1": ("base", lambda p, t: write_raw(p, [flat(x) for x in t])),
        "tuned-absent": ("tuned", lambda p, t: p.unlink()),
        "tuned-bad-header": ("tuned", lambda p, t: p.write_bytes(p.read_bytes()[:12] + b"x\ty")),
        "tuned-nan-in-emb": ("tuned", lambda p, t: write_raw(p, [bad(x) for x in t])),
        "tuned-duplicate": ("tuned", lambda p, t: write_raw(p, t + [t[1]])),
        "tuned-no-emb": ("tuned", lambda p, t: write_raw(p, [x for x in t if x[0] != "emb"])),
        "tuned-emb-other-rows": ("tuned", lambda p, t: write_raw(p, [grown(x) for x in t])),
        "tickets-absent": ("tickets", lambda p, t: p.unlink()),
        "tickets-malformed": ("tickets", lambda p, t: p.write_text("method=ks\n")),
        "tickets-other-vocab": ("tickets", lambda p, t: write_ticket_file(tickets_of([1], v=9), p)),
        "out-dir-absent": ("out", lambda case: case / "absent" / "out.ckpt"),
        "out-full": ("out", lambda case: Path("/dev/full")),  # every write fails
    }

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_pair_of_faults_reads_as_the_whole_read_reports_it(self, tmp_path, capsys,
                                                                        threads, cpus):
        rng = np.random.default_rng(1)
        threads(cpus)
        pairs = [(a, b) for a, b in itertools.combinations(self.FAULTS, 2)
                 if self.FAULTS[a][0] != self.FAULTS[b][0]]
        for k, faults in enumerate([(name,) for name in self.FAULTS] + pairs):
            case = tmp_path / str(k)
            case.mkdir()
            paths = {"base": case / "base.ckpt", "tuned": case / "tuned.ckpt",
                     "tickets": case / "t.txt", "out": case / "out.ckpt"}
            tensors = three_tensors(rng, self.V, 4, k % 3)
            write_raw(paths["base"], tensors)
            write_raw(paths["tuned"], tensors)
            write_ticket_file(tickets_of([2, 5], v=self.V), paths["tickets"])
            for name in faults:
                target, breaks = self.FAULTS[name]
                if target == "out":
                    paths["out"] = breaks(case)
                else:
                    breaks(paths[target], tensors)
            argv = [paths[n] for n in ("base", "tuned", "tickets", "out")]
            with pytest.raises((ValueError, OSError)) as whole:
                transfer_whole(argv[0], argv[1], "emb", argv[2], argv[3])
            capsys.readouterr()
            assert run(transfer_argv(*argv)) == 2, faults
            assert capsys.readouterr().err == f"error: {whole.value}\n", faults
            # no output, and no temp file, is left
            assert sorted(os.listdir(case)) == sorted(p.name for p in paths.values()
                                                       if p.parent == case and p.exists()), faults

    def test_a_file_cut_while_it_is_read_is_named(self, tmp_path, monkeypatch, capsys):
        # 64 kB each: tuned is cut to the bytes read when its header is read
        rng = np.random.default_rng(2)
        base, tuned, tickets = tmp_path / "base.ckpt", tmp_path / "tuned.ckpt", tmp_path / "t.txt"
        write_raw(base, three_tensors(rng, 1000, 16, 0))
        write_raw(tuned, three_tensors(rng, 1000, 16, 0))
        write_ticket_file(tickets_of([1], v=1000), tickets)
        monkeypatch.setattr(transfer, "_CHUNK_BYTES", 4096)
        reader = checkpoint._reader

        def cut_after_the_header(fh, buf):
            take = reader(fh, buf)

            def cut(n):
                got = take(n)
                if fh.name == str(tuned):
                    os.truncate(fh.name, fh.tell())
                return got
            return cut

        monkeypatch.setattr(checkpoint, "_reader", cut_after_the_header)
        assert run(transfer_argv(base, tuned, tickets, tmp_path / "out.ckpt")) == 2
        assert capsys.readouterr().err == f"error: {tuned}: corrupt checkpoint (truncated while read)\n"
        assert sorted(os.listdir(tmp_path)) == ["base.ckpt", "t.txt", "tuned.ckpt"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pipes_in_and_out_give_the_same_bytes(self, tmp_path, threads, cpus):
        rng = np.random.default_rng(3)
        base, tuned, tickets = tmp_path / "base.ckpt", tmp_path / "tuned.ckpt", tmp_path / "t.txt"
        write_raw(base, three_tensors(rng, self.V, 4, 1))
        write_raw(tuned, three_tensors(rng, self.V, 4, 1, shift=1.0))
        write_ticket_file(tickets_of([0, 6, 7], v=self.V), tickets)
        assert run(transfer_argv(base, tuned, tickets, tmp_path / "want.ckpt")) == 0
        threads(cpus)
        pipes = {name: tmp_path / f"{name}.pipe" for name in ("base", "tuned", "out")}
        for pipe in pipes.values():
            os.mkfifo(pipe)
        got = []
        ends = [threading.Thread(target=pipes["base"].write_bytes, args=(base.read_bytes(),)),
                threading.Thread(target=pipes["tuned"].write_bytes, args=(tuned.read_bytes(),)),
                threading.Thread(target=lambda: got.append(pipes["out"].read_bytes()))]
        for end in ends:
            end.start()
        try:
            assert run(transfer_argv(pipes["base"], pipes["tuned"], tickets, pipes["out"])) == 0
        finally:
            for end in ends:
                end.join()
        assert got == [(tmp_path / "want.ckpt").read_bytes()]

    def test_a_pipe_out_is_opened_after_every_input_checks(self, tmp_path):
        # no reader ever opens the pipe: opening it first would wait forever
        bad, tuned, tickets, pipe = (tmp_path / n for n in ("b.ckpt", "t.ckpt", "t.txt", "out"))
        bad.write_bytes(b"not a checkpoint")
        write_raw(tuned, three_tensors(np.random.default_rng(4), self.V, 4, 0))
        write_ticket_file(tickets_of([1], v=self.V), tickets)
        os.mkfifo(pipe)
        src = str(Path(transfer.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "kstickets.cli",
                               *transfer_argv(bad, tuned, tickets, pipe)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, f"error: {bad}: not a checkpoint\n")

    def test_peak_holds_two_chunks_and_the_ticket_rows(self, tmp_path):
        # a pair of 16 MiB tensors: neither is held whole, only a chunk of
        # each at a time and the rows gathered from tuned
        v, d, k = 65536, 64, 1024
        rng = np.random.default_rng(0)
        for name in ("base", "tuned"):
            m = rng.standard_normal((v, d), dtype=np.float32)
            write_checkpoint(Checkpoint([TensorRecord("emb", (v, d), m.ravel())]),
                             tmp_path / f"{name}.ckpt")
        write_ticket_file(tickets_of(range(0, v, v // k), v=v), tmp_path / "t.txt")
        argv = transfer_argv(tmp_path / "base.ckpt", tmp_path / "tuned.ckpt", tmp_path / "t.txt",
                             tmp_path / "out.ckpt")
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # and 512 kB for the rest: the ticket ids, the parser, the headers
        assert peak <= 2 * transfer._CHUNK_BYTES + 4 * k * d + (512 << 10)


class TestEmitMask:
    def test_plain(self):
        mask = emit_mask(tickets_of([0, 2]))
        assert mask.dtype == bool and mask.tolist() == [True, False, True, False]

    def test_complement(self):
        mask = emit_mask(tickets_of([0, 2]), complement=True)
        assert mask.tolist() == [False, True, False, True]

    def test_empty_complement_all_trainable(self):
        mask = emit_mask(tickets_of([]), complement=True)
        assert mask.all()

    def test_mask_file(self, tmp_path):
        path = tmp_path / "mask.txt"
        write_mask_file(emit_mask(tickets_of([1, 3])), path)
        assert path.read_text() == "0\n1\n0\n1\n"

    @pytest.mark.parametrize("v", [1, 4096, 4097])
    def test_mask_file_matches_the_per_row_join(self, tmp_path, v):
        for trainable in (np.random.default_rng(v).random(v) < 0.3, np.zeros(v, bool), np.ones(v, bool)):
            write_mask_file(trainable, tmp_path / "mask.txt")
            want = "".join("1\n" if t else "0\n" for t in trainable)
            assert (tmp_path / "mask.txt").read_bytes() == want.encode("ascii")


class TestDiffRows:
    def test_identical(self):
        base, _ = pair_differing_everywhere()
        assert diff_rows(base, base, "embed") == set()

    def test_byte_equality_semantics(self):
        # a row equal by coincidence does not show up in the diff
        m1 = np.zeros((3, 2), dtype=np.float32)
        m2 = np.zeros((3, 2), dtype=np.float32)
        m2[1] = 7.0
        a = Checkpoint([TensorRecord("w", (3, 2), m1.ravel())])
        b = Checkpoint([TensorRecord("w", (3, 2), m2.ravel())])
        assert diff_rows(a, b, "w") == {1}

    def test_negative_zero_counts_as_different(self):
        m1 = np.array([[0.0], [1.0]], dtype=np.float32)
        m2 = np.array([[-0.0], [1.0]], dtype=np.float32)
        a = Checkpoint([TensorRecord("w", (2, 1), m1.ravel())])
        b = Checkpoint([TensorRecord("w", (2, 1), m2.ravel())])
        assert diff_rows(a, b, "w") == {0}

    def test_shape_mismatch(self):
        a = Checkpoint([TensorRecord("w", (2, 2), np.zeros(4, dtype=np.float32))])
        b = Checkpoint([TensorRecord("w", (4,), np.zeros(4, dtype=np.float32))])
        with pytest.raises(ValueError, match="shape mismatch"):
            diff_rows(a, b, "w")

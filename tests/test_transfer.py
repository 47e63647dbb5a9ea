import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstickets.checkpoint import Checkpoint, TensorRecord, write_checkpoint
from kstickets.cli import run
from kstickets.selection import WinningTicketSet, write_ticket_file
from kstickets.transfer import (
    emit_mask,
    splice_in_place,
    splice_partial_transfer,
    write_mask_file,
)
from oracles import diff_rows


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
        got = out.tensor("embed").array
        for r in range(4):
            source = tuned if r == 2 else base
            np.testing.assert_array_equal(got[r], source.tensor("embed").array[r])

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

    def test_cli_transfer_peaks_below_three_tensors(self, tmp_path):
        # the base tensor read for the call takes the rows: the peak holds base,
        # tuned and the gathered third of the rows, but no copy of base
        v, d = 4096, 64
        rng = np.random.default_rng(0)
        for name in ("base", "tuned"):
            m = rng.standard_normal((v, d), dtype=np.float32)
            write_checkpoint(Checkpoint([TensorRecord("embed", (v, d), m.ravel())]),
                             tmp_path / f"{name}.ckpt")
        write_ticket_file(tickets_of(range(0, v, 3), v=v), tmp_path / "tickets.txt")
        argv = ["transfer", "--base", tmp_path / "base.ckpt", "--tuned", tmp_path / "tuned.ckpt",
                "--tensor", "embed", "--tickets", tmp_path / "tickets.txt", "--out", tmp_path / "out.ckpt"]
        tracemalloc.start()
        try:
            assert run([str(a) for a in argv]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * v * d * 4


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

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kstickets import checkpoint, cli, selection
from kstickets._text import fmt_float
from kstickets.checkpoint import Checkpoint, TensorRecord, get_embedding, write_checkpoint
from kstickets.ksstat import Sample, ks_statistic, ks_tau
from kstickets.selection import (
    _CHUNK_ELEMENTS,
    METRICS,
    _histogram_kl,
    ScoreTable,
    WinningTicketSet,
    analyze_pair,
    compare_ticket_distributions,
    count_frequencies,
    read_scores_csv,
    read_ticket_file,
    score_row,
    select_by_alpha,
    select_top_k,
    write_scores_csv,
    write_ticket_file,
)
from oracles import _histogram_kl_rows, ks_pvalue_permutation, ks_statistic_rows


def view_of(matrix):
    matrix = np.asarray(matrix, dtype=np.float32)
    ckpt = Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())])
    return get_embedding(ckpt, "embed")


def table(rows):
    """A ScoreTable from (token_id, ks, p, cos, abs_l2, relative, ratio, kl) rows."""
    return ScoreTable(*(np.array(col) for col in zip(*rows)))


def permuted(scores, order):
    """The same table with its rows in another order."""
    return ScoreTable(
        *(getattr(scores, f)[order] for f in (
            "token_id", "ks_statistic", "p_value", "cos", "abs_l2", "relative", "ratio", "kl"
        ))
    )


def shifted_row_fixture(v=8, d=64, hot_row=3, seed=0):
    """Identical matrices except one row moved by ten of its own stds."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, size=(v, d)).astype(np.float32)
    tuned = base.copy()
    tuned[hot_row] += 10.0 * base[hot_row].std()
    return view_of(base), view_of(tuned)


class TestScoreRow:
    def test_unchanged_row(self):
        row = np.linspace(-1.0, 1.0, 32)
        s = score_row(row, row)
        assert s.ks_statistic == 0.0
        assert s.cos == 1.0
        assert s.abs_l2 == 0.0
        assert s.ratio == 0.0
        assert s.kl == 0.0
        assert s.p_value == 1.0

    def test_orthogonal_unit_rows(self):
        b = np.zeros(8)
        t = np.zeros(8)
        b[0] = 1.0
        t[1] = 1.0
        assert score_row(b, t).cos == pytest.approx(0.0)

    def test_constant_shift_against_scalar_loop(self):
        # independent oracle: plain python element loop for every metric
        b = np.arange(1.0, 17.0)
        t = b + 100.0
        s = score_row(b, t)
        assert s.ks_statistic == 1.0  # disjoint supports
        assert s.abs_l2 == pytest.approx(400.0)  # 100 * sqrt(16)
        ratio_oracle = sum(abs(100.0 / x) for x in b) / len(b)
        relative_oracle = sum(abs((x + 100.0) / x) for x in b) / len(b)
        dot = sum(x * y for x, y in zip(b, t))
        cos_oracle = dot / (
            math.sqrt(sum(x * x for x in b)) * math.sqrt(sum(y * y for y in t))
        )
        assert s.ratio == pytest.approx(ratio_oracle)
        assert s.relative == pytest.approx(relative_oracle)
        assert s.cos == pytest.approx(cos_oracle)
        assert s.kl > 0.0

    def test_zero_rows(self):
        z = np.zeros(4)
        assert score_row(z, z).cos == 1.0
        assert score_row(z, np.ones(4)).cos == 0.0

    def test_division_guard(self):
        b = np.zeros(4)
        t = np.full(4, 1e-8)
        s = score_row(b, t)
        assert np.isfinite(s.ratio)
        assert s.ratio == pytest.approx(1.0)  # 1e-8 / guarded 1e-8

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            score_row(np.zeros(4), np.zeros(5))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            score_row(np.zeros(1), np.zeros(1))

    @given(
        row=st.lists(st.integers(-100, 100), min_size=4, max_size=32),
        scale=st.floats(min_value=0.5, max_value=8.0),
    )
    def test_scale_invariance_of_ks_vs_linear_l2(self, row, scale):
        b = np.asarray(row, dtype=np.float64)
        t = b + 3.0
        s1 = score_row(b, t)
        s2 = score_row(scale * b, scale * t)
        assert s2.ks_statistic == s1.ks_statistic
        assert s2.abs_l2 == pytest.approx(scale * s1.abs_l2, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=48)
        t = rng.normal(size=48)
        assert score_row(b, t) == score_row(b, t)


class TestAnalyzePair:
    def test_identical_matrices(self):
        base, _ = shifted_row_fixture()
        scores = analyze_pair(base, base)
        assert scores.token_id.tolist() == list(range(8))
        assert ((scores.ks_statistic == 0.0) & (scores.p_value == 1.0)).all()

    def test_single_shifted_row_detected(self):
        base, tuned = shifted_row_fixture(hot_row=3)
        scores = analyze_pair(base, tuned)
        flagged = scores.token_id[scores.p_value < 0.05].tolist()
        assert flagged == [3]

    def test_shifted_row_confirmed_by_permutation_oracle(self):
        base, tuned = shifted_row_fixture(hot_row=3)
        p = ks_pvalue_permutation(
            Sample(base.matrix[3]), Sample(tuned.matrix[3]), trials=2000, seed=1
        )
        assert p < 0.05

    def test_shape_mismatch(self):
        a = view_of(np.zeros((4, 8)))
        b = view_of(np.zeros((4, 9)))
        with pytest.raises(ValueError, match="shape mismatch"):
            analyze_pair(a, b)


class TestSelectByAlpha:
    def test_identical_gives_empty(self):
        base, _ = shifted_row_fixture()
        scores = analyze_pair(base, base)
        assert select_by_alpha(scores, 0.05, 64).token_ids == ()

    def test_alpha_one_selects_any_change(self):
        base, tuned = shifted_row_fixture(hot_row=2)
        scores = analyze_pair(base, tuned)
        tickets = select_by_alpha(scores, 1.0, 64)
        assert tickets.tau == 0.0
        assert tickets.token_ids == (2,)

    def test_rejects_by_tau_not_by_p_value(self):
        # d=64: a grid row shifted by k steps has D = k/64. At alpha=0.9,
        # D = 7/64 has p = 0.839 < 0.9 but stays below tau = 0.1117 < 8/64.
        base = np.tile(np.arange(64.0), (2, 1))
        scores = analyze_pair(view_of(base), view_of(base + [[7.0], [8.0]]))
        assert scores.ks_statistic.tolist() == [7 / 64, 8 / 64]
        assert scores.p_value[0] == pytest.approx(0.839, abs=5e-4)
        tickets = select_by_alpha(scores, 0.9, 64)
        assert 7 / 64 < tickets.tau == pytest.approx(0.1117, abs=5e-5)
        assert tickets.token_ids == (1,)

    def test_small_d_selects_nothing(self):
        # tau(0.01, d) > 1 >= D for d <= 5, so not even a fully shifted row rejects
        base = np.arange(10.0).reshape(2, 5)
        scores = analyze_pair(view_of(base), view_of(base + 100.0))
        assert scores.ks_statistic.tolist() == [1.0, 1.0]
        tickets = select_by_alpha(scores, 0.01, 5)
        assert tickets.tau == pytest.approx(1.029, abs=5e-4)
        assert tickets.token_ids == ()
        assert ks_tau(0.01, 6) == pytest.approx(0.940, abs=5e-4)

    def test_shifted_fixture(self):
        base, tuned = shifted_row_fixture(hot_row=5)
        tickets = select_by_alpha(analyze_pair(base, tuned), 0.05, 64)
        assert tickets.token_ids == (5,)
        assert tickets.method == "ks"
        assert tickets.alpha == 0.05

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_domain(self, alpha):
        base, _ = shifted_row_fixture()
        scores = analyze_pair(base, base)
        with pytest.raises(ValueError):
            select_by_alpha(scores, alpha, 64)

    def test_permutation_invariant(self):
        base, tuned = shifted_row_fixture(hot_row=1)
        scores = analyze_pair(base, tuned)
        shuffled = permuted(scores, [5, 2, 7, 0, 3, 6, 1, 4])
        assert (
            select_by_alpha(scores, 0.05, 64).token_ids
            == select_by_alpha(shuffled, 0.05, 64).token_ids
        )

    def test_nested_in_alpha(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(32, 64)).astype(np.float32)
        tuned = base + rng.normal(
            scale=np.linspace(0.0, 2.0, 32)[:, None], size=(32, 64)
        ).astype(np.float32)
        scores = analyze_pair(view_of(base), view_of(tuned))
        previous: set[int] = set()
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
            current = set(select_by_alpha(scores, alpha, 64).token_ids)
            assert previous <= current
            previous = current


class TestSelectTopK:
    def scores(self):
        base, tuned = shifted_row_fixture(hot_row=4)
        return analyze_pair(base, tuned)

    def test_k_zero(self):
        assert select_top_k(self.scores(), "ks", 0).token_ids == ()

    def test_k_equals_v(self):
        assert select_top_k(self.scores(), "abs", 8).token_ids == tuple(range(8))

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            select_top_k(self.scores(), "ks", 9)

    def test_ties_broken_by_token_id(self):
        scores = table([(i, 0.0, 1.0, 1.0, 5.0, 0, 0, 0) for i in range(4)])
        assert select_top_k(scores, "abs", 2).token_ids == (0, 1)

    def test_cos_ranks_ascending(self):
        scores = table([
            (0, 0, 1, 0.9, 0, 0, 0, 0),
            (1, 0, 1, -0.5, 0, 0, 0, 0),
            (2, 0, 1, 0.2, 0, 0, 0, 0),
        ])
        assert select_top_k(scores, "cos", 1).token_ids == (1,)

    def test_matches_alpha_set_on_tie_free_fixture(self):
        scores = self.scores()
        alpha_set = select_by_alpha(scores, 0.05, 64)
        top = select_top_k(scores, "ks", len(alpha_set.token_ids))
        assert top.token_ids == alpha_set.token_ids

    def test_frequency_requires_counts(self):
        with pytest.raises(ValueError, match="frequency"):
            select_top_k(self.scores(), "frequency", 2)


class TestFrequencies:
    def test_counts(self):
        np.testing.assert_array_equal(
            count_frequencies([1, 1, 2], 4), [0, 2, 1, 0]
        )

    def test_empty(self):
        np.testing.assert_array_equal(count_frequencies([], 4), [0, 0, 0, 0])
        assert count_frequencies([], 0).size == 0

    @pytest.mark.parametrize("corpus", [[], [1]])
    def test_negative_vocab_is_named(self, corpus):
        with pytest.raises(ValueError, match="^vocab_size must be >= 0, got -1$"):
            count_frequencies(corpus, -1)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="position 2"):
            count_frequencies([0, 1, 7], 4)

    def test_matches_scalar_loop(self):
        corpus = [(k * 7 + k // 3) % 50 for k in range(5000)]
        expected = np.zeros(64, dtype=np.int64)
        for tok in corpus:
            expected[tok] += 1
        for ids in (corpus, np.asarray(corpus, dtype=np.int32), iter(corpus)):
            got = count_frequencies(ids, 64)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        with pytest.raises(ValueError, match="token id -1 .* position 1"):
            count_frequencies(iter([0, -1, 9]), 4)

    @staticmethod
    def top_k(counts, k):
        v = len(counts)
        scores = ScoreTable(np.arange(v), *[np.zeros(v)] * len(METRICS), frequency=counts)
        return select_top_k(scores, "frequency", k)

    def test_select_top1(self):
        assert self.top_k([0, 2, 1, 0], 1).token_ids == (1,)

    def test_select_top2(self):
        assert self.top_k([0, 2, 1, 0], 2).token_ids == (1, 2)

    def test_all_equal_tie(self):
        assert self.top_k([3, 3, 3, 3], 2).token_ids == (0, 1)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            self.top_k([1, 2], 3)


class TestCompareTicketDistributions:
    def test_identical(self):
        base, tuned = shifted_row_fixture()
        tickets = WinningTicketSet(method="ks", vocab_size=8, token_ids=(1, 3, 5))
        assert compare_ticket_distributions(tuned, tuned, tickets, 0.05) == 1.0

    def test_all_shifted(self):
        base, _ = shifted_row_fixture()
        other = view_of(base.matrix + 50.0)
        tickets = WinningTicketSet(method="ks", vocab_size=8, token_ids=(0, 2, 6))
        assert compare_ticket_distributions(base, other, tickets, 0.05) == 0.0

    def test_empty_tickets(self):
        base, tuned = shifted_row_fixture()
        tickets = WinningTicketSet(method="ks", vocab_size=8, token_ids=())
        assert compare_ticket_distributions(base, tuned, tickets, 0.05) == 1.0

    def test_shape_mismatch(self):
        a = view_of(np.zeros((4, 8)))
        b = view_of(np.zeros((5, 8)))
        tickets = WinningTicketSet(method="ks", vocab_size=4, token_ids=(0,))
        with pytest.raises(ValueError, match="shape mismatch"):
            compare_ticket_distributions(a, b, tickets, 0.05)


class TestWinningTicketSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            WinningTicketSet(method="ks", vocab_size=8, token_ids=(3, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="ascending"):
            WinningTicketSet(method="ks", vocab_size=8, token_ids=(1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            WinningTicketSet(method="ks", vocab_size=8, token_ids=(7, 8))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown selection method"):
            WinningTicketSet(method="magic", vocab_size=8, token_ids=())

    def test_membership(self):
        t = WinningTicketSet(method="ks", vocab_size=8, token_ids=(1, 5))
        assert 5 in t.token_ids and 2 not in t.token_ids and len(t) == 2


class TestFileFormats:
    def test_scores_csv_round_trip(self, tmp_path):
        base, tuned = shifted_row_fixture()
        scores = replace(analyze_pair(base, tuned), frequency=np.arange(17, 25))
        path = tmp_path / "scores.csv"
        write_scores_csv(scores, path)
        back = read_scores_csv(path)
        assert len(back) == len(scores)
        assert back.frequency[0] == 17
        np.testing.assert_array_equal(back.frequency, scores.frequency)
        write_scores_csv(replace(scores, frequency=None), path)
        assert read_scores_csv(path).frequency is None
        assert back.token_id.tolist() == scores.token_id.tolist()
        np.testing.assert_allclose(back.ks_statistic, scores.ks_statistic, rtol=1e-8)
        np.testing.assert_allclose(back.p_value, scores.p_value, rtol=1e-8)

    def test_scores_header_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="bad header"):
            read_scores_csv(path)

    def test_ticket_file_round_trip(self, tmp_path):
        tickets = WinningTicketSet(
            method="ks", vocab_size=64, token_ids=(1, 5, 9), alpha=0.05, tau=0.2401
        )
        path = tmp_path / "tickets.txt"
        write_ticket_file(tickets, path)
        back = read_ticket_file(path)
        assert back == tickets

    def test_ticket_file_optional_fields(self, tmp_path):
        tickets = WinningTicketSet(method="abs", vocab_size=16, token_ids=())
        path = tmp_path / "tickets.txt"
        write_ticket_file(tickets, path)
        back = read_ticket_file(path)
        assert back.alpha is None and back.tau is None
        assert back.token_ids == ()

    def test_ticket_file_missing_field(self, tmp_path):
        path = tmp_path / "tickets.txt"
        path.write_text("method=ks\nalpha=0.05\n")
        with pytest.raises(ValueError, match="missing fields"):
            read_ticket_file(path)

    def test_ticket_file_rejects_line_without_equals(self, tmp_path):
        path = tmp_path / "tickets.txt"
        path.write_text(
            "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=1\ngarbage\n"
        )
        with pytest.raises(ValueError, match="line 6: no '='"):
            read_ticket_file(path)

    def test_ticket_file_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "tickets.txt"
        path.write_text(
            "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=1\ntoken_ids=3\n"
        )
        with pytest.raises(ValueError, match="line 6: duplicate key 'token_ids'"):
            read_ticket_file(path)


METRIC_OF = {"ks": "ks_statistic", "abs": "abs_l2"}


def ranked_oracle(rows, metric):
    """The scalar ranking: sorted() with (value, token_id) keys, most-changed first."""
    if metric == "cos":
        key = lambda r: (r["cos"], r["token_id"])  # noqa: E731
    else:
        attr = METRIC_OF.get(metric, metric)
        key = lambda r: (-r[attr], r["token_id"])  # noqa: E731
    return [r["token_id"] for r in sorted(rows, key=key)]


def tied_table(seed):
    """A permuted table whose columns draw from a few values, ±0.0 included."""
    rng = np.random.default_rng(seed)
    v = int(rng.integers(1, 60))
    values = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
    columns = {name: rng.choice(values, v) for name in
               ("ks_statistic", "p_value", "cos", "abs_l2", "relative", "ratio", "kl")}
    scores = ScoreTable(rng.permutation(v), **columns, frequency=rng.integers(0, 4, v))
    names = ["token_id", *columns, "frequency"]
    rows = [dict(zip(names, vals)) for vals in zip(*(getattr(scores, n).tolist() for n in names))]
    return scores, rows


@pytest.mark.parametrize("seed", range(8))
def test_ranking_matches_sorted_oracle(seed):
    scores, rows = tied_table(seed)
    v = len(rows)
    for metric in ("ks", "cos", "abs", "relative", "ratio", "kl", "frequency"):
        order = ranked_oracle(rows, metric)
        for k in range(v + 1):
            assert select_top_k(scores, metric, k).token_ids == tuple(sorted(order[:k]))
    for alpha in (0.25, 0.5, 1.0):
        want = sorted(r["token_id"] for r in rows if r["ks_statistic"] > ks_tau(alpha, 64))
        assert select_by_alpha(scores, alpha, 64).token_ids == tuple(want)


def test_nine_digit_statistic_keeps_its_side_of_tau():
    # select reads D back from the scores CSV at fmt_float's 9 significant
    # digits; the lattice points k/d next to tau must not cross it there
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
        for d in range(2, 4097):
            tau = ks_tau(alpha, d)
            below = math.floor(tau * d)
            for k in range(max(0, below - 1), min(d, below + 2) + 1):
                assert (float(fmt_float(k / d)) > tau) == (k / d > tau), (alpha, d, k)


def test_score_table_requires_each_id_once():
    columns = [np.zeros(3)] * 7
    with pytest.raises(ValueError, match="exactly once"):
        ScoreTable([0, 1, 1], *columns)
    with pytest.raises(ValueError, match="exactly once"):
        ScoreTable([1, 2, 3], *columns)
    with pytest.raises(ValueError, match="shape"):
        ScoreTable([0, 1, 2], *columns, frequency=[1, 2])
    assert len(ScoreTable([2, 0, 1], *columns)) == 3


def assert_matches_score_row(base, tuned, pairs=None):
    """Every analyze_pair column equals score_row's value by bytes.

    Row i of base/tuned is pairs[i] of a smaller pool of row pairs when given,
    so score_row runs once per distinct pair.
    """
    base = np.asarray(base, dtype=np.float32)
    tuned = np.asarray(tuned, dtype=np.float32)
    scores = analyze_pair(view_of(base), view_of(tuned))
    if pairs is None:
        pairs = np.arange(len(base))
    distinct, first = np.unique(pairs, return_index=True)
    oracle = [score_row(base[i], tuned[i]) for i in first]
    of_row = np.searchsorted(distinct, pairs)
    assert scores.token_id.tolist() == list(range(len(base)))
    for name in METRICS:
        want = np.array([getattr(s, name) for s in oracle])[of_row]
        got = getattr(scores, name)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def edge_row_pairs(d, seed=0):
    """(base, tuned) float32 row pairs of width d that stress every metric."""
    rng = np.random.default_rng(seed + d)
    b = rng.normal(0.0, 0.05, d)
    pairs = [
        (b, b + rng.normal(0.0, 0.002, d)),  # small drift
        (b, b),  # bit-identical
        (b, rng.permutation(b)),  # same multiset: KS 0, other metrics move
        (b, b + 10.0 * b.std()),  # shifted past every base value
        (rng.integers(-3, 4, d), rng.integers(-3, 4, d)),  # ties within and across
        (np.round(b, 1), np.round(b + 0.03, 1)),  # quantised
        (np.zeros(d), np.zeros(d)),  # all zero
        (np.zeros(d), np.ones(d)),  # only base zero
        (rng.normal(size=d), np.zeros(d)),  # only tuned zero
        (np.full(d, 0.5), np.full(d, 0.5)),  # constant, one shared bin
        (np.full(d, 0.5), np.full(d, -2.0)),  # two constants
        (np.full(d, 1e-30), b),  # base far below the division floor
        (np.where(np.arange(d) % 2, 1e-30, -1e-30), np.full(d, 1e-8)),
        (np.full(d, 1e-8), np.full(d, -1e-8)),  # at the division floor
        (np.append(np.zeros(d - 1), 1e6), np.append(np.zeros(d - 1), -1e6)),  # outliers
    ]
    signed = rng.integers(-1, 2, d).astype(float)
    flipped = np.where(signed == 0, -0.0, signed)
    pairs += [(signed, flipped), (flipped, signed)]  # +0.0 against -0.0
    return [(np.asarray(x, dtype=np.float32), np.asarray(y, dtype=np.float32)) for x, y in pairs]


def tiled(d, v, seed=0):
    """A v-row matrix pair drawn from edge_row_pairs(d), plus each row's pair index."""
    pool = edge_row_pairs(d, seed)
    rng = np.random.default_rng(seed)
    pairs = np.arange(v) % len(pool)
    rng.shuffle(pairs)
    base = np.stack([pool[p][0] for p in pairs])
    tuned = np.stack([pool[p][1] for p in pairs])
    return base, tuned, pairs


def chunk_rows(d):
    return max(1, _CHUNK_ELEMENTS // d)


@pytest.mark.parametrize("d", [2, 3, 7, 64, 100, 768, 1024, 2048, 3072, 4096])
@pytest.mark.parametrize("v_of", [
    lambda r: 1, lambda r: r - 1, lambda r: r, lambda r: r + 1, lambda r: 3 * r + 2,
], ids=["one-row", "chunk-minus-1", "one-chunk", "chunk-plus-1", "several-chunks"])
def test_analyze_pair_matches_score_row_oracle(d, v_of):
    base, tuned, pairs = tiled(d, v_of(chunk_rows(d)))
    assert_matches_score_row(base, tuned, pairs)


@pytest.mark.parametrize("d", [2, 3, 7, 64, 100, 768])
def test_analyze_pair_matches_score_row_on_random_rows(d):
    # every row distinct: drifted, quantised and permuted rows interleaved
    rng = np.random.default_rng(d)
    v = min(chunk_rows(d) + 3, 150)
    base = rng.normal(0.0, 0.05, (v, d))
    tuned = base + rng.normal(0.0, 0.002, (v, d))
    tuned[::3] = np.round(tuned[::3], 2)
    tuned[1::3] = rng.permuted(base[1::3], axis=1)
    assert_matches_score_row(base, tuned)


def test_kl_rows_match_histogram_on_bin_edges():
    # float64 rows holding each of their own bin edges, or its neighbouring
    # floats: x == e[k] must land in bin k (the last edge in the last bin)
    # however the step rounds
    rng = np.random.default_rng(5)
    lo = rng.normal(0.0, 10.0, 300)
    hi = lo + rng.lognormal(0.0, 3.0, 300)
    t = np.stack([np.linspace(a, z, 65) for a, z in zip(lo, hi)])
    b = lo[:, None] + (hi - lo)[:, None] * rng.random((300, 65))
    b[::4] = t[::4, ::-1]
    b[1::4, ::3] = t[1::4, 1::3]
    b[2::4, 1:] = np.nextafter(t[2::4, 1:], -np.inf)  # just below each edge
    b[3::4, :-1] = np.nextafter(t[3::4, :-1], np.inf)  # just above
    got = _histogram_kl_rows(t, b)
    want = np.array([_histogram_kl(x, y) for x, y in zip(t, b)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def kernel_row_pairs(d, seed=0):
    """(base, tuned) float32 row pairs of width d for the KS and KL kernel.

    Values sit on the KL bin-edge grid of their pair and one float32 step to
    either side of it; others are subnormals and +-0.0, heavy ties, rows
    shifted apart, magnitudes near 1e37, and constant rows, equal and moved
    by one float32 step.
    """
    rng = np.random.default_rng(seed + d)
    f32 = np.float32
    pairs = []
    for lo, hi in ((-1.7, 2.3), (0.1, 0.1000003), (-3e-38, 5e-39), (-2e37, 3e37), (1.0, 1e6)):
        lo, hi = f32(lo), f32(hi)
        step = (float(hi) - float(lo)) / 64
        near = (np.arange(65.0) * step + float(lo)).astype(f32)  # each edge, to nearest
        grid = np.clip(np.concatenate([near, np.nextafter(near, f32(-np.inf)),
                                       np.nextafter(near, f32(np.inf))]), lo, hi)
        for _ in range(3):
            b, t = rng.choice(grid, d), rng.choice(grid, d)
            b[0], t[-1] = lo, hi  # the pair spans [lo, hi]: these are its edges
            pairs.append((b, t))
    tiny = np.array([-0.0, 0.0, 1e-45, -1e-45, 3e-45, -4e-45, 1e-40, -1e-39], dtype=f32)
    quarter = rng.integers(-4, 5, d) / f32(4)
    wide = rng.normal(size=d).astype(f32) * f32(1e37)
    c = f32(0.3)
    pairs += [
        (rng.choice(tiny, d), rng.choice(tiny, d)),  # subnormals and +-0.0
        (rng.choice(tiny, d), rng.choice(tiny[:2], d)),
        (quarter, rng.integers(-4, 5, d) / f32(4)),  # heavy ties
        (quarter, rng.permutation(quarter)),  # heavy ties, D = 0
        (quarter, np.where(quarter == 0, f32(-0.0), quarter)),
        (quarter, quarter + f32(5.0)),  # shifted apart, D = 1
        (wide, wide + f32(1e37) * rng.normal(size=d).astype(f32)),  # near 1e37
        (wide, rng.permutation(wide)),
        (np.full(d, c), np.full(d, c)),  # constant, equal
        (np.full(d, c), np.full(d, np.nextafter(c, f32(1.0)))),  # constant, one step apart
        (np.full(d, c), np.append(np.full(d - 1, c), np.nextafter(c, f32(1.0)))),
    ]
    return [(np.asarray(x, dtype=f32), np.asarray(y, dtype=f32)) for x, y in pairs]


@pytest.mark.parametrize("d", [2, 3, 7, 64, 65, 100, 768, 1024, 2048, 3072, 4096])
def test_ks_kl_kernel_matches_the_float64_oracles_bit_for_bit(d):
    # blocks of one workspace, the last one partial; row i is pool pair pairs[i]
    pool = kernel_row_pairs(d)
    pairs = np.random.default_rng(d).permutation(2 * chunk_rows(d) + 3) % len(pool)
    base, tuned = (np.stack(side)[pairs] for side in zip(*pool))
    ws = selection._Workspace(len(base), d)
    ks, kl = np.empty(len(base)), np.empty(len(base))
    for block in selection._blocks(len(base), d):
        ks[block], kl[block] = selection._ks_kl_rows(base[block], tuned[block], ws)
    b64, t64 = base.astype(np.float64), tuned.astype(np.float64)
    assert ks.view(np.int64).tolist() == ks_statistic_rows(b64, t64).view(np.int64).tolist()
    assert kl.view(np.int64).tolist() == _histogram_kl_rows(t64, b64).view(np.int64).tolist()
    oracle = [score_row(b, t) for b, t in pool]
    for name, got in (("ks_statistic", ks), ("kl", kl)):
        want = np.array([getattr(s, name) for s in oracle])[pairs]
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), name


def tie_prone_ks(d, count=2):
    """The first count k whose k/d prints differently from a float64 step to
    either side at fmt_float's 9 digits: a last-ulp slip in D there would
    change the scores CSV."""
    prints = (lambda x: {fmt_float(np.nextafter(x, 0.0)), fmt_float(x), fmt_float(np.nextafter(x, 2.0))})
    return [k for k in range(1, d + 1) if len(prints(k / d)) > 1][:count]


def moved_row_pairs(d, ks):
    """(base, tuned) float32 rows of width d in which k values moved, for each k:
    the k least moved past the greatest, the k greatest below the least, and k
    at random places. In the first two, D = k/d is reached at the run ends of
    every c, where c/d rounds each way."""
    rng = np.random.default_rng(d)
    pairs = []
    for k in ks:
        b = rng.normal(0.0, 0.05, d).astype(np.float32)
        up, down, anywhere = b.copy(), b.copy(), b.copy()
        order = np.argsort(b)
        up[order[:k]] += np.float32(1.0)
        down[order[-k:]] -= np.float32(1.0)
        anywhere[rng.choice(d, k, replace=False)] += np.float32(0.01)
        pairs += [(b, up), (b, down), (b, anywhere)]
    return pairs


@pytest.mark.parametrize("d", [1024, 2048, 3072, 4096])
def test_kernel_and_analyze_pair_match_the_oracles_at_the_papers_widths(d):
    # the k of the paper's widths that land on fmt_float's ties, and k = 1
    pool = moved_row_pairs(d, [1, *tie_prone_ks(d)])
    base, tuned = (np.stack(side) for side in zip(*pool))
    ws = selection._Workspace(len(base), d)
    ks, kl = np.empty(len(base)), np.empty(len(base))
    for block in selection._blocks(len(base), d):
        ks[block], kl[block] = selection._ks_kl_rows(base[block], tuned[block], ws)
    b64, t64 = base.astype(np.float64), tuned.astype(np.float64)
    assert ks.view(np.int64).tolist() == ks_statistic_rows(b64, t64).view(np.int64).tolist()
    assert kl.view(np.int64).tolist() == _histogram_kl_rows(t64, b64).view(np.int64).tolist()
    assert_matches_score_row(base, tuned)  # one block or several, each row scored by score_row
    # D is k/d itself, though c/3072 - (c - 1)/3072 is not 1/3072 for every c
    if d == 3072:
        assert ks[0] == 1 / 3072


@given(st.integers(2, 9).flatmap(lambda d: st.lists(
    st.lists(st.integers(-4, 4), min_size=2 * d, max_size=2 * d), min_size=1, max_size=6,
)))
def test_analyze_pair_matches_score_row_on_small_integers(rows):
    values = np.array(rows, dtype=float)
    d = values.shape[1] // 2
    assert_matches_score_row(values[:, :d], values[:, d:])


def test_analyze_pair_keeps_score_row_errors():
    with pytest.raises(ValueError, match="at least 2"):
        analyze_pair(view_of(np.zeros((3, 1))), view_of(np.zeros((3, 1))))
    # a TensorRecord cannot hold the value, so it is put in after the check
    for bad in (np.inf, -np.inf, np.nan):
        for side in (0, 1):
            views = [view_of(np.zeros((chunk_rows(4) + 5, 4))) for _ in range(2)]
            views[side].matrix[-1, 2] = bad
            with pytest.raises(ValueError, match="row values must be finite"):
                analyze_pair(*views)


def test_analyze_pair_peak_stays_below_one_float64_matrix():
    # scoring works block by block: a whole-matrix float64 cast alone would
    # reach the bound
    v, d = 32000, 64
    rng = np.random.default_rng(0)
    base = rng.standard_normal((v, d), dtype=np.float32)
    tuned = base + np.float32(0.01) * rng.standard_normal((v, d), dtype=np.float32)
    views = view_of(base), view_of(tuned)
    tracemalloc.start()
    try:
        analyze_pair(*views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v * d * 8


@pytest.fixture(params=[1, 2, 3, 5], ids=lambda w: f"cpus{w}")
def cpus(request, monkeypatch):
    """analyze_pair run as if the process may use this many CPUs."""
    monkeypatch.setattr(selection, "_cpu_count", lambda: request.param)
    return request.param


@pytest.mark.parametrize("d", [2, 3, 7, 64, 100, 768])
@pytest.mark.parametrize("v_of", [
    lambda r: 1, lambda r: r - 1, lambda r: r + 1, lambda r: 3 * r + 2, lambda r: 5 * r + 3,
], ids=["one-row", "chunk-minus-1", "chunk-plus-1", "four-chunks", "six-chunks"])
def test_analyze_pair_matches_score_row_oracle_at_any_cpu_count(cpus, d, v_of):
    # fewer blocks than CPUs, as many, and more; V never a multiple of the
    # block. Row i is pool pair pairs[i], so score_row runs once per pool pair.
    pool = edge_row_pairs(d)
    pairs = np.random.default_rng(d).permutation(v_of(chunk_rows(d))) % len(pool)
    base, tuned = (np.stack(side)[pairs] for side in zip(*pool))
    scores = analyze_pair(view_of(base), view_of(tuned))
    oracle = [score_row(b, t) for b, t in pool]
    for name in METRICS:
        want = np.array([getattr(s, name) for s in oracle])[pairs]
        assert np.array_equal(getattr(scores, name).view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize("d", [2, 3, 7, 64, 100, 768])
def test_analyze_pair_matches_score_row_on_random_rows_at_any_cpu_count(cpus, d):
    test_analyze_pair_matches_score_row_on_random_rows(d)


def test_analyze_pair_shares_blocks_between_main_thread_and_pool(cpus, monkeypatch):
    # row i starts with the value i, so each scored block names its first row
    d, r = 64, chunk_rows(64)
    base = np.zeros((8 * r - 5, d))
    base[:, 0] = np.arange(len(base))
    main, threads_before = threading.get_ident(), threading.active_count()
    seen = []

    def spy(b, t, ws):
        seen.append((int(b[0, 0]), threading.get_ident(), threading.active_count()))
        return score_rows(b, t, ws)

    score_rows = selection._score_rows
    monkeypatch.setattr(selection, "_score_rows", spy)
    analyze_pair(view_of(base), view_of(base + 1.0))
    assert sorted(lo for lo, _, _ in seen) == list(range(0, len(base), r))
    w = min(cpus, selection._MAX_THREADS)
    assert sorted(lo for lo, who, _ in seen if who == main) == list(range(0, len(base), w * r))
    if cpus == 1:  # no thread started at all
        assert all(count == threads_before for _, _, count in seen)
    assert threading.active_count() == threads_before


def test_analyze_pair_builds_one_workspace_per_share(cpus, monkeypatch):
    # every block of a share reuses its share's workspace
    built = []
    workspace = selection._Workspace

    def counting(*args):
        built.append(args)
        return workspace(*args)

    monkeypatch.setattr(selection, "_Workspace", counting)
    d, r = 16, chunk_rows(16)
    for v in (1, r, r + 1, 3 * r, 7 * r + 3):
        built.clear()
        base = np.random.default_rng(v).normal(size=(v, d))
        analyze_pair(view_of(base), view_of(base + 1.0))
        w = min(cpus, selection._MAX_THREADS, -(-v // r))
        assert built == [(v, d)] * w


@pytest.mark.parametrize("d", [2, 64, 768, 4096])
def test_workspace_holds_34_bytes_per_block_value_plus_the_kl_tile(d):
    # a block-sized buffer added back fails here before it shows in the RSS
    ws = selection._Workspace(1 << 30, d)
    arrays = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    owned = {id(a): a for a in (x if x.base is None else x.base for x in arrays)}
    rows, tail = chunk_rows(d), min(chunk_rows(d), selection._KL_ROWS)
    bins = selection._KL_BINS
    # per block row: tuned_below's leading zero (4 bytes) and the row's key
    # offset (8); per value of a pooled row: its slot number (4). The KL tile:
    # 41 bytes per row and bin (edges, edges32, rounded_down, edge_keys,
    # scratch, pt and pb), the tile's row numbers and the edge grid.
    tile = tail * (41 * bins + 8) + 8 * bins
    total = sum(a.nbytes for a in owned.values())
    assert total <= 34 * rows * d + 12 * rows + 8 * d + tile


@pytest.mark.parametrize("n", [1, 2], ids=lambda n: f"cpus{n}")
@pytest.mark.parametrize("moved", [0.1, 1.0], ids=["mostly-equal", "fully-moved"])
@pytest.mark.parametrize("d", [64, 768])
def test_analyze_pair_output_does_not_depend_on_the_block_size(monkeypatch, d, moved, n):
    # several blocks at every size, the last one partial
    monkeypatch.setattr(selection, "_cpu_count", lambda: n)
    v = 3 * (1 << 17) // d + 5
    rng = np.random.default_rng(d)
    base = rng.normal(0.0, 0.05, (v, d)).astype(np.float32)
    tuned = base.copy()
    rows = rng.random(v) < moved
    tuned[rows] += rng.normal(0.0, 0.002, (rows.sum(), d)).astype(np.float32)
    quantised = rows & (np.arange(v) % 3 == 0)  # ties within and across halves
    tuned[quantised] = np.round(tuned[quantised], 2)
    views = view_of(base), view_of(tuned)
    columns = []
    for log2 in (14, 15, 16, 17):
        monkeypatch.setattr(selection, "_CHUNK_ELEMENTS", 1 << log2)
        scores = analyze_pair(*views)
        columns.append([getattr(scores, name).tobytes() for name in ("token_id", *METRICS)])
    assert columns[1:] == columns[:1] * 3


@pytest.mark.parametrize("where", ["base", "tuned"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_analyze_pair_rejects_non_finite_rows_in_a_pool_block(cpus, bad, where):
    # block 1 belongs to a pool thread whenever there are two CPUs or more; a
    # TensorRecord cannot hold the value, so it is put in after the check
    r = chunk_rows(4)
    views = {"base": view_of(np.zeros((4 * r + 3, 4))), "tuned": view_of(np.zeros((4 * r + 3, 4)))}
    views[where].matrix[r + 5, 2] = bad
    with pytest.raises(ValueError, match="row values must be finite"):
        analyze_pair(views["base"], views["tuned"])


def test_analyze_cli_exits_2_on_non_finite_rows_in_a_pool_block(cpus, tmp_path, monkeypatch, capsys):
    # a checkpoint cannot hold a NaN, so one is put into the tuned tensor after
    # the reader has checked it
    r = chunk_rows(8)
    matrix = np.ones((4 * r, 8), dtype=np.float32)
    for name in ("base", "tuned"):
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    read = checkpoint.read_checkpoint

    def poisoned(path, into=None):
        ckpt = read(path, into)
        if path.endswith("tuned.ckpt"):
            ckpt.tensor("embed").data[(r + 1) * 8 + 3] = np.nan
        return ckpt

    monkeypatch.setattr(checkpoint, "read_checkpoint", poisoned)
    out = tmp_path / "scores.csv"
    argv = ["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
            str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(out)]
    assert cli.run(argv) == 2
    assert "row values must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.ckpt", "tuned.ckpt"]


def test_analyze_pair_on_more_threads_than_cores_switching_often(monkeypatch):
    # every pool thread writes its own rows of shared columns: a lost or
    # misplaced write would leave a row unlike the one-CPU result. The cap is
    # lifted so that the threads outnumber the cores. Small blocks keep the
    # 37 full blocks and a tail cheap; chunk_rows reads the constant imported
    # at collection, so the rows come from the patched value.
    monkeypatch.setattr(selection, "_CHUNK_ELEMENTS", 1 << 10)
    rng = np.random.default_rng(9)
    d = 16
    base = rng.normal(size=(37 * (selection._CHUNK_ELEMENTS // d) + 11, d))
    views = view_of(base), view_of(base + rng.normal(0.0, 0.01, base.shape))
    monkeypatch.setattr(selection, "_cpu_count", lambda: 1)
    want = analyze_pair(*views)
    monkeypatch.setattr(selection, "_cpu_count", lambda: 8)
    monkeypatch.setattr(selection, "_MAX_THREADS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = analyze_pair(*views)
    finally:
        sys.setswitchinterval(interval)
    for name in METRICS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("n", [2, 4, 64])
def test_analyze_pair_peak_stays_below_one_float64_matrix_on_any_cpu_count(monkeypatch, n):
    # tracemalloc sees the allocations of every thread
    monkeypatch.setattr(selection, "_cpu_count", lambda: n)
    test_analyze_pair_peak_stays_below_one_float64_matrix()


@pytest.mark.parametrize("n", [2, 4, 64])
def test_analyze_pair_peak_on_mostly_equal_rows_stays_below_one_float64_matrix(monkeypatch, n):
    # a random 10% of rows drifted, the rest bit-identical: each share
    # collects its moved rows into full blocks for the KS and KL kernel
    monkeypatch.setattr(selection, "_cpu_count", lambda: n)
    v, d = 32000, 64
    rng = np.random.default_rng(0)
    base = rng.standard_normal((v, d), dtype=np.float32)
    tuned = base.copy()
    drifted = rng.random(v) < 0.1
    tuned[drifted] += np.float32(0.01) * rng.standard_normal((drifted.sum(), d), dtype=np.float32)
    views = view_of(base), view_of(tuned)
    tracemalloc.start()
    try:
        analyze_pair(*views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v * d * 8


def equal_and_moved_pools(d):
    """(equal, moved): two lists of (base, tuned) float32 row pairs of width d.

    equal pairs each edge_row_pairs row with itself, then adds the +0.0
    against -0.0 pairs: analyze_pair skips their KS and KL kernels. moved
    starts with a quantised row moved one quantisation step and one moved one
    float32 step, then the edge pairs that differ: analyze_pair scores them.
    """
    edge = edge_row_pairs(d)
    equal = [(x, x) for pair in edge for x in pair] + edge[-2:]
    q = np.round(np.random.default_rng(d).normal(0.0, 0.5, d), 1).astype(np.float32)
    step, ulp = q.copy(), q.copy()
    step[0] += np.float32(0.1)
    ulp[-1] = np.nextafter(ulp[-1], np.float32(np.inf))
    moved = [(q, step), (q, ulp)] + [p for p in edge if not np.array_equal(*p)]
    return equal, moved


@pytest.mark.parametrize("d", [2, 7, 64, 768])
def test_analyze_pair_matches_score_row_on_equal_rows_at_any_cpu_count(cpus, d):
    # several blocks in which no row reaches the KS and KL kernels: all-zero
    # and constant rows (the lo == hi KL branch) and +0.0 against -0.0 among them
    equal, _ = equal_and_moved_pools(d)
    pairs = np.random.default_rng(d).permutation(3 * chunk_rows(d) + 2) % len(equal)
    base, tuned = (np.stack(side)[pairs] for side in zip(*equal))
    assert_matches_score_row(base, tuned, pairs)


@pytest.mark.parametrize("d", [2, 7, 64, 768])
def test_analyze_pair_matches_score_row_with_one_moved_row_per_block_at_any_cpu_count(cpus, d):
    equal, moved = equal_and_moved_pools(d)
    r, rng = chunk_rows(d), np.random.default_rng(d)
    pairs = rng.permutation(3 * r + 2) % len(equal)
    starts = np.arange(0, len(pairs), r)
    hits = starts + rng.integers(0, np.minimum(r, len(pairs) - starts))
    pairs[hits] = len(equal) + np.arange(len(hits)) % len(moved)
    base, tuned = (np.stack(side)[pairs] for side in zip(*equal + moved))
    assert_matches_score_row(base, tuned, pairs)


def test_analyze_pair_runs_the_kernels_on_moved_rows_only(cpus, monkeypatch):
    # row i of base starts with the value i, so each kernel call names its rows
    d, r = 16, chunk_rows(16)
    v = 3 * r + 5
    rng = np.random.default_rng(1)
    base = rng.normal(size=(v, d)).astype(np.float32)
    base[:, 0] = np.arange(v)
    calls = {"ks_kl": []}

    def spying(name, kernel, base_arg):
        def spy(*args):
            calls[name].append(args[base_arg][:, 0].astype(int).tolist())
            return kernel(*args)
        return spy

    monkeypatch.setattr(selection, "_ks_kl_rows", spying("ks_kl", selection._ks_kl_rows, 0))

    def kernel_calls(tuned):
        for seen in calls.values():
            seen.clear()
        analyze_pair(view_of(base), view_of(tuned))
        return {name: sorted(seen) for name, seen in calls.items()}

    # a random 10% moved, each by one float32 step; some other rows hold
    # +0.0 in base and -0.0 in tuned, which count as equal
    moved = np.sort(rng.choice(v, v // 10, replace=False))
    still = np.setdiff1d(np.arange(v), moved)[::7]
    base[still, 3] = 0.0
    tuned = base.copy()
    tuned[still, 3] = -0.0
    tuned[moved, 2] = np.nextafter(base[moved, 2], np.float32(np.inf))
    for seen in kernel_calls(tuned).values():
        assert sorted(i for rows in seen for i in rows) == moved.tolist()

    assert kernel_calls(base.copy()) == {"ks_kl": []}

    blocks = [list(range(lo, min(lo + r, v))) for lo in range(0, v, r)]
    assert kernel_calls(base + 1.0) == {"ks_kl": blocks}


@pytest.mark.parametrize("fraction", [0.1, 0.6])
def test_analyze_pair_runs_the_kernels_on_full_blocks_of_each_shares_moved_rows(
    cpus, monkeypatch, fraction
):
    # row i of base starts with the value i, so each kernel call names its rows
    d, r = 16, chunk_rows(16)
    v = 12 * r + 5
    rng = np.random.default_rng(2)
    base = rng.normal(size=(v, d)).astype(np.float32)
    base[:, 0] = np.arange(v)
    tuned = base.copy()
    moved = np.flatnonzero(rng.random(v) < fraction)
    tuned[moved, 1] += np.float32(1.0)
    calls = []
    kernel = selection._ks_kl_rows

    def spy(b, t, ws):
        calls.append(b[:, 0].astype(int).tolist())
        return kernel(b, t, ws)

    monkeypatch.setattr(selection, "_ks_kl_rows", spy)
    analyze_pair(view_of(base), view_of(tuned))
    w = min(cpus, selection._MAX_THREADS)
    share_of = moved // r % w  # blocks go to the shares by residue
    for share in range(w):
        # a share's calls run in order on one thread, and no row crosses shares
        mine = [rows for rows in calls if rows[0] // r % w == share]
        assert all(i // r % w == share for rows in mine for i in rows)
        want = moved[share_of == share]
        assert len(mine) == -(-want.size // r)
        assert all(len(rows) == r for rows in mine[:-1])
        assert [i for rows in mine for i in rows] == want.tolist()

    # compare_ticket_distributions scores its ticket rows through the same
    # loop, in one workspace
    built = []
    workspace = selection._Workspace

    def counting(*args):
        built.append(args)
        return workspace(*args)

    monkeypatch.setattr(selection, "_Workspace", counting)
    for size in (1, r, 2 * r + 1):
        calls.clear()
        built.clear()
        ids = np.sort(rng.choice(v, size, replace=False))
        tickets = WinningTicketSet(method="ks", vocab_size=v, token_ids=ids)
        compare_ticket_distributions(view_of(base), view_of(tuned), tickets, 0.05)
        assert len(built) == 1
        assert len(calls) == -(-size // r)
        assert all(len(rows) == r for rows in calls[:-1])
        assert [i for rows in calls for i in rows] == ids.tolist()


@pytest.mark.parametrize("d", [2, 7, 64, 768])
def test_analyze_pair_matches_score_row_when_moved_rows_cross_block_ends_at_any_cpu_count(cpus, d):
    # a random 60% moved: a share's collected rows fill up in the middle of a
    # block and carry over its end
    equal, moved = equal_and_moved_pools(d)
    rng = np.random.default_rng(d)
    pairs = rng.permutation(5 * chunk_rows(d) + 3) % len(equal)
    hits = rng.random(len(pairs)) < 0.6
    pairs[hits] = len(equal) + rng.integers(0, len(moved), hits.sum())
    base, tuned = (np.stack(side)[pairs] for side in zip(*equal + moved))
    assert_matches_score_row(base, tuned, pairs)


def compare_oracle(tuned_a, tuned_b, tickets, alpha):
    """compare_ticket_distributions as a per-ticket ks_statistic loop."""
    if not tickets.token_ids:
        return 1.0
    tau = ks_tau(alpha, tuned_a.matrix.shape[1])
    rejected = sum(
        ks_statistic(Sample(tuned_a.matrix[i]), Sample(tuned_b.matrix[i])) > tau
        for i in tickets.token_ids
    )
    return 1.0 - rejected / len(tickets.token_ids)


@pytest.mark.parametrize("d", [2, 16, 768])
def test_compare_ticket_distributions_matches_per_ticket_oracle(d):
    rng = np.random.default_rng(d)
    v = min(3 * chunk_rows(d) // 2, 90)  # two blocks at d=768
    a = rng.integers(-3, 4, (v, d)).astype(float)
    b = a + rng.integers(-1, 2, (v, d)) * (rng.random((v, 1)) < 0.5)
    a, b = view_of(a), view_of(b)
    for size in (1, v // 3, v):
        ids = tuple(np.sort(rng.choice(v, size, replace=False)).tolist())
        tickets = WinningTicketSet(method="ks", vocab_size=v, token_ids=ids)
        for alpha in (1e-6, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.999999, 1.0):
            want = compare_oracle(a, b, tickets, alpha)
            assert compare_ticket_distributions(a, b, tickets, alpha) == want
    empty = WinningTicketSet(method="ks", vocab_size=v, token_ids=())
    assert compare_ticket_distributions(a, b, empty, 1.0) == 1.0
    for alpha in (0.0, -0.5, 1.5):
        for t in (tickets, empty):  # a bad alpha is refused even with no tickets
            with pytest.raises(ValueError, match="alpha"):
                compare_ticket_distributions(a, b, t, alpha)

"""Per-row diff scores, winning-ticket selection, and consistency checks.

Works on any rank-2 tensor pair: each row is treated as a sample of `dim`
values, scored with the two-sample KS test plus five baseline change metrics
(cosine, absolute L2, relative value, relative ratio, histogram KL).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterable

import numpy as np

from ._text import (
    Column,
    INT,
    OPTIONAL_INT,
    blank_cells,
    cast_columns,
    naming,
    parse_optional,
    read_csv,
    write_csv,
    write_text,
)
from .checkpoint import TensorRecord, _cpu_count, _on_threads
from .ksstat import (
    Sample,
    ks_pvalue_asymptotic,
    ks_statistic,
    ks_tau,
)

__all__ = [
    "TokenScore",
    "ScoreTable",
    "WinningTicketSet",
    "SELECTION_METHODS",
    "score_row",
    "analyze_pair",
    "select_by_alpha",
    "select_top_k",
    "count_frequencies",
    "compare_ticket_distributions",
    "write_scores_csv",
    "read_scores_csv",
    "write_ticket_file",
    "read_ticket_file",
]

SELECTION_METHODS = ("ks", "cos", "abs", "relative", "ratio", "kl", "frequency")

_DIV_FLOOR = 1e-8
_KL_BINS = 64
_KL_MASS_FLOOR = 1e-9
# Values per scoring block; see _blocks. Each numpy call of a block hands the
# GIL over once, so a larger block gives a second CPU more work per handoff.
_CHUNK_ELEMENTS = 1 << 16
_KL_ROWS = 256  # rows whose KL bins _ks_kl_rows counts at once: 128 KiB per bin array
# Shares scored at once by analyze_pair, each in its own _Workspace (2.9 MB at
# d = 64, 2.4 MB at d = 768). The traced peak of a 32,000 x 64 matrix must stay
# below one float64 copy of it (16.4 MB): 3 shares trace 12.7 to 13.3 MB fully
# moved and 11.1 to 11.4 MB with 10% of rows moved; 4 would trace 15.9 MB.
_MAX_THREADS = 3

SCORES_HEADER = "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency"
_TICKET_FIELDS = ("method", "alpha", "tau", "vocab_size", "token_ids")


@dataclass
class TokenScore:
    """Change metrics for one row of a base/tuned tensor pair."""

    ks_statistic: float
    p_value: float
    cos: float
    abs_l2: float
    relative: float
    ratio: float
    kl: float


METRICS = tuple(f.name for f in fields(TokenScore))


@dataclass(eq=False)
class ScoreTable:
    """Change metrics for every row of a tensor pair, one numpy column each:
    token_id holds each id 0..V-1 once, in any order; frequency may be None."""

    token_id: np.ndarray
    ks_statistic: np.ndarray
    p_value: np.ndarray
    cos: np.ndarray
    abs_l2: np.ndarray
    relative: np.ndarray
    ratio: np.ndarray
    kl: np.ndarray
    frequency: np.ndarray | None = None

    def __post_init__(self) -> None:
        cast_columns(self, METRICS)
        if not np.array_equal(np.sort(self.token_id), np.arange(len(self))):
            raise ValueError("scores must cover token ids 0..V-1 exactly once")

    def __len__(self) -> int:
        return self.token_id.size


@dataclass
class WinningTicketSet:
    """Selected row indices plus the method and threshold that produced them."""

    method: str
    vocab_size: int
    token_ids: tuple[int, ...]
    alpha: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.method not in SELECTION_METHODS:
            raise ValueError(f"unknown selection method {self.method!r}")
        if self.vocab_size < 0:
            raise ValueError(f"vocab_size {self.vocab_size} must be >= 0")
        ids = tuple(int(i) for i in self.token_ids)
        if any(ids[k] >= ids[k + 1] for k in range(len(ids) - 1)):
            raise ValueError("token_ids must be strictly ascending")
        if ids and (ids[0] < 0 or ids[-1] >= self.vocab_size):
            raise ValueError(
                f"token_ids must lie in [0, {self.vocab_size}), got {ids[0]}..{ids[-1]}"
            )
        self.token_ids = ids

    def __len__(self) -> int:
        return len(self.token_ids)

    def check_vocab(self, rows: int, what: str) -> None:
        """Raise ValueError unless vocab_size is rows, the row count of what."""
        if self.vocab_size != rows:
            raise ValueError(f"ticket vocab_size {self.vocab_size} does not match {what} {rows}")


def _guarded_divisor(x: np.ndarray) -> np.ndarray:
    # sign-preserving floor keeps near-zero base weights from exploding ratios
    return np.where(np.abs(x) >= _DIV_FLOOR, x, np.copysign(_DIV_FLOOR, x))


def _histogram_kl(t: np.ndarray, b: np.ndarray) -> float:
    """KL(P_t || P_b) over shared equal-width bins spanning both rows."""
    lo = min(t.min(), b.min())
    hi = max(t.max(), b.max())
    if lo == hi:
        return 0.0  # both rows collapse onto a single shared bin
    edges = np.linspace(lo, hi, _KL_BINS + 1)
    pt = np.histogram(t, bins=edges)[0] / t.size
    pb = np.histogram(b, bins=edges)[0] / b.size
    pt = np.maximum(pt, _KL_MASS_FLOOR)
    pb = np.maximum(pb, _KL_MASS_FLOOR)
    pt /= pt.sum()
    pb /= pb.sum()
    return float(np.sum(pt * np.log(pt / pb)))


def score_row(base_row, tuned_row) -> TokenScore:
    """Score one row pair with every metric.

    The p-value uses n = m = d, matching the per-row reading where one row of
    dimension d is one sample of size d.
    """
    b = np.asarray(base_row, dtype=np.float64).ravel()
    t = np.asarray(tuned_row, dtype=np.float64).ravel()
    if b.size != t.size:
        raise ValueError(f"row length mismatch: {b.size} vs {t.size}")
    if b.size < 2:
        raise ValueError("rows must have at least 2 entries")
    if not (np.isfinite(b).all() and np.isfinite(t).all()):
        raise ValueError("row values must be finite")
    d = b.size

    stat = ks_statistic(Sample(b), Sample(t))
    p = ks_pvalue_asymptotic(stat, d, d)

    norm_b = float(np.linalg.norm(b))
    norm_t = float(np.linalg.norm(t))
    if norm_b == 0.0 and norm_t == 0.0:
        cos = 1.0
    elif norm_b == 0.0 or norm_t == 0.0:
        cos = 0.0
    else:
        cos = float(np.clip(np.dot(b, t) / (norm_b * norm_t), -1.0, 1.0))

    g = _guarded_divisor(b)
    return TokenScore(
        ks_statistic=stat,
        p_value=p,
        cos=cos,
        abs_l2=float(np.linalg.norm(t - b)),
        relative=float(np.mean(np.abs(t / g))),
        ratio=float(np.mean(np.abs((t - b) / g))),
        kl=_histogram_kl(t, b),
    )


def _blocks(n: int, d: int):
    """Slices covering range(n), each max(1, _CHUNK_ELEMENTS // d) rows long."""
    rows = max(1, _CHUNK_ELEMENTS // d)
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # matmul of (1, d) by (d, 1) runs np.dot's own BLAS ddot on each row, so
    # every value equals np.dot (and np.linalg.norm) on that row bit for bit
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


class _Workspace:
    """Every block-sized array that one thread scores its blocks in: 34 bytes
    per block value, plus a KL tile of up to _KL_ROWS rows.

    Sized for the blocks _blocks(n, d) cuts. analyze_pair builds one per share
    and fills it again, through out=, for every block of that share. Arrays
    never in use at once share memory: the casts hold the kernel's sort keys,
    ties the cheap metrics' masks, and tuned_below the sign flip's scratch.
    """

    def __init__(self, n: int, d: int):
        rows = min(n, max(1, _CHUNK_ELEMENTS // d))
        self.d = d
        # float64 casts for score_row's four cheap metrics: b becomes the
        # guarded divisor, t the differences and then the quotients
        casts = np.empty((2, rows, d))
        self.b, self.t = casts
        # _ks_kl_rows runs once the cheap metrics are done, so the casts'
        # memory holds its sort keys: one row of 2d per pair of rows
        self.keys = casts.reshape(rows, 2 * d).view(np.int64)
        # float32 halves, then per-slot ints, of the rows the kernel scores
        self.pooled = np.empty(2 * rows * d, dtype=np.int32)
        self.ties = np.empty((rows, 2 * d), dtype=bool)
        # the cheap metrics' masks live in the kernel's ties: the two never run at once
        self.masks = self.ties.reshape(2, rows, d)
        # the tuned values among row r's first s sorted slots, s = 0..2d, at
        # r * 2d + s: row r's slot 2d is row r + 1's slot 0 (see _ks_kl_rows)
        self.tuned_below = np.empty(rows * 2 * d + 1, dtype=np.int32)
        self.slots = np.arange(1, 2 * d + 1, dtype=np.int32)
        # keys span [-2**32, 2**32): rows 2**34 apart never overlap
        self.row_offset = np.arange(rows, dtype=np.int64) << 34
        # the KL bins of up to _KL_ROWS rows at a time
        tail = min(rows, _KL_ROWS)
        self.grid = np.arange(1.0, _KL_BINS)
        self.scratch = np.empty((tail, _KL_BINS - 1), dtype=np.int32)
        self.edges = np.empty((tail, _KL_BINS - 1))
        self.edges32 = np.empty((tail, _KL_BINS - 1), dtype=np.float32)
        self.rounded_down = np.empty((tail, _KL_BINS - 1), dtype=bool)
        self.edge_keys = np.empty((tail, _KL_BINS - 1), dtype=np.int64)
        self.pt, self.pb = np.empty((tail, _KL_BINS)), np.empty((tail, _KL_BINS))
        self.tail_rows = np.arange(tail)

    def halves(self, rows: int) -> np.ndarray:
        """(2, rows, d) float32: base rows, then tuned rows."""
        return self.pooled[: 2 * rows * self.d].view(np.float32).reshape(2, rows, self.d)

    def ints(self, rows: int) -> np.ndarray:
        """(rows, 2d) int32 over the same memory as halves(rows)."""
        return self.pooled[: 2 * rows * self.d].reshape(rows, 2 * self.d)


def _flip(bits: np.ndarray, scratch: np.ndarray) -> None:
    """Turn float32 bit patterns read as int32 into ints that order as the
    floats do, in place, or back: a negative float's magnitude bits invert.
    -0.0 becomes -1, next to +0.0's 0."""
    np.right_shift(bits, 31, out=scratch)
    scratch &= 0x7FFFFFFF
    bits ^= scratch


def _bin_counts(below: np.ndarray, total: int, out: np.ndarray) -> None:
    """The _KL_BINS bin counts of each row from the counts below its interior edges."""
    out[:, 0] = below[:, 0]
    np.subtract(below[:, 1:], below[:, :-1], out=out[:, 1:-1])
    np.subtract(total, below[:, -1], out=out[:, -1])


def _ks_kl_rows(b: np.ndarray, t: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """ks_statistic and _histogram_kl(t, b) of each row pair of two float32
    (rows, d) arrays, bit for bit, from one integer sort of each pooled row:
    D is the row's greatest integer numerator k, divided once by d."""
    rows, d = b.shape
    keys, ties, tuned_below = ws.keys[:rows], ws.ties[:rows], ws.tuned_below[: rows * 2 * d + 1]
    # Each value as an int that orders as the floats do, shifted left once
    # with the tuned half marked in bit 0. Adding +0.0 first turns -0.0 into
    # +0.0, which float comparison holds equal to it.
    halves = ws.halves(rows)
    np.add(b, np.float32(0), out=halves[0])
    np.add(t, np.float32(0), out=halves[1])
    bits = halves.view(np.int32)
    # tuned_below is free until the cumsum, so it holds the flip's scratch
    _flip(bits, tuned_below[: bits.size].reshape(bits.shape))
    np.left_shift(bits[0], 1, out=keys[:, :d], dtype=np.int64)
    np.left_shift(bits[1], 1, out=keys[:, d:], dtype=np.int64)
    keys[:, d:] |= 1
    keys.sort(axis=1)
    # ties[s]: slot s holds the value of slot s + 1, so a run of ties goes on
    ints = ws.ints(rows)
    np.right_shift(keys, 1, out=ints)
    np.equal(ints[:, :-1], ints[:, 1:], out=ties[:, :-1])
    ties[:, -1] = False
    ends = ints[:, [0, -1]]  # each row's least and greatest value
    np.bitwise_and(keys, 1, out=ints)
    # one 1-D cumsum of the rows end to end, as numpy holds the GIL for a
    # per-row one: each row holds d tuned values, so a -d in each later row's
    # first slot starts it again from 0 (but its slot 0 holds d; see KL)
    ints[1:, 0] -= d
    tuned_below[0] = 0
    np.cumsum(ints.ravel(), dtype=np.int32, out=tuned_below[1:])

    # KS: at slot s, c_b tuned and c_a = s + 1 - c_b base values lie at or
    # below it, and k = |c_a - c_b| = |2 c_b - (s + 1)|. ks_statistic's D is
    # k/d for the row's greatest k at the end of a tie run. Slots inside a
    # run get -1, which never is the maximum: the last slot ends a run.
    np.multiply(tuned_below[1:].reshape(rows, 2 * d), 2, out=ints)
    ints -= ws.slots
    np.abs(ints, out=ints)
    np.copyto(ints, -1, where=ties)
    ks = ints.max(axis=1) / d

    # KL: np.histogram's count below an interior edge e is the number of
    # values x < e, and for a float32 x that is x < the least float32 >= e.
    # Offset by row, the sorted keys are one ascending array for searchsorted.
    _flip(ends, np.empty_like(ends))
    lo, hi = ends.view(np.float32).astype(np.float64).T
    step = (hi - lo) / _KL_BINS  # np.linspace's edges are k * step + lo
    keys += ws.row_offset[:rows, None]
    kl = np.empty(rows)
    for r0 in range(0, rows, _KL_ROWS):
        n = min(_KL_ROWS, rows - r0)
        part = slice(r0, r0 + n)
        edges, edges32, rounded_down = ws.edges[:n], ws.edges32[:n], ws.rounded_down[:n]
        np.multiply(ws.grid, step[part, None], out=edges)
        edges += lo[part, None]
        np.copyto(edges32, edges, casting="same_kind")
        np.less(edges32, edges, out=rounded_down)
        edge_bits = edges32.view(np.int32)
        _flip(edge_bits, ws.scratch[:n])
        # one int up is the next float32 up: the least float32 >= the edge
        edge_keys = ws.edge_keys[:n]
        np.add(edge_bits, rounded_down, out=edge_keys, dtype=np.int64)
        edge_keys <<= 1
        edge_keys += ws.row_offset[part, None]
        # the slots below each edge, counted from the part's first slot; then
        # the tuned values among them (into edges32's memory, free again)
        below = np.searchsorted(keys[part].ravel(), edge_keys.ravel()).reshape(n, -1)
        tuned = edge_bits
        np.take(tuned_below[r0 * 2 * d:], below, out=tuned, mode="clip")
        below -= ws.tail_rows[:n, None] * (2 * d)
        # an edge with no slot below it (a row of one value) read d at slot 0:
        # at most s of s slots are tuned, so the minimum makes that 0
        np.minimum(tuned, below, out=tuned)
        below -= tuned
        pt, pb = ws.pt[:n], ws.pb[:n]
        _bin_counts(tuned, d, pt)
        _bin_counts(below, d, pb)
        for p in (pt, pb):
            p /= d
            np.maximum(p, _KL_MASS_FLOOR, out=p)
            p /= p.sum(axis=1, keepdims=True)
        np.divide(pt, pb, out=pb)
        np.log(pb, out=pb)
        pb *= pt
        kl[part] = np.sum(pb, axis=1)
    return ks, kl


def _ks_kl_of(
    bm: np.ndarray, tm: np.ndarray, ids: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """_ks_kl_rows of the rows ids of two float32 (V, d) matrices, in full
    blocks of ws but the last: D and KL in the order of ids."""
    ks, kl = np.empty(ids.size), np.empty(ids.size)
    for block in _blocks(ids.size, ws.d):
        rows = ids[block]
        b, t = ws.halves(rows.size)
        # mode="clip" lets take write into out directly; "raise" copies first
        np.take(bm, rows, axis=0, out=b, mode="clip")
        np.take(tm, rows, axis=0, out=t, mode="clip")
        ks[block], kl[block] = _ks_kl_rows(b, t, ws)
    return ks, kl


def _score_rows(
    b32: np.ndarray, t32: np.ndarray, ws: _Workspace
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """score_row's cos, abs_l2, relative and ratio, one value per row of two
    float32 (rows, d) arrays, by metric name; and the mask of the rows that
    moved, which alone need the KS and KL kernel."""
    rows = len(b32)
    b, t = ws.b[:rows], ws.t[:rows]
    small, other = ws.masks[0, :rows], ws.masks[1, :rows]
    np.copyto(b, b32)
    np.copyto(t, t32)
    if not (np.isfinite(b, out=small).all() and np.isfinite(t, out=small).all()):
        raise ValueError("row values must be finite")
    norm_b = np.sqrt(_row_dot(b, b))
    norm_t = np.sqrt(_row_dot(t, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(_row_dot(b, t) / (norm_b * norm_t), -1.0, 1.0)
    cos[(norm_b == 0.0) != (norm_t == 0.0)] = 0.0
    cos[(norm_b == 0.0) & (norm_t == 0.0)] = 1.0
    # t's buffer holds t - b, then |t - b| / g, then |t| / g
    diff = np.subtract(t, b, out=t)
    scores = {"cos": cos, "abs_l2": np.sqrt(_row_dot(diff, diff))}
    # On a row with t == b, score_row's D is 0.0 (every tie run holds as many
    # values of b as of t) and its KL +0.0 (equal histograms: pt * log(1)), so
    # only moved rows go through the kernel. For finite values t - b is zero
    # (or -0.0, which is falsy) exactly where t == b.
    moved = diff.any(axis=1)
    # _guarded_divisor(b), in place: |b| < _DIV_FLOOR exactly where -floor < b < floor
    np.greater(b, -_DIV_FLOOR, out=small)
    np.less(b, _DIV_FLOOR, out=other)
    small &= other
    g = np.copysign(_DIV_FLOOR, b, out=b, where=small)
    for name, numerator in (("ratio", diff), ("relative", t32)):
        q = np.divide(numerator, g, out=t)  # t32 is divided as its float64 cast
        scores[name] = np.mean(np.abs(q, out=q), axis=1)
    return scores, moved


def analyze_pair(base: TensorRecord, tuned: TensorRecord) -> ScoreTable:
    """Score every row of a shape-matched pair, ordered by token_id.

    Rows are scored in blocks of _CHUNK_ELEMENTS // d rows (at least one),
    each cast to float64 once; every value is bit-identical to score_row on
    that row, whatever the block size and the number of CPUs. With
    W = min(CPUs, _MAX_THREADS) the calling thread scores blocks 0, W, 2W, ...
    and W - 1 threads of _on_threads the other residues (numpy releases the
    GIL inside each call); one CPU starts no thread. Each share scores in its own
    _Workspace (2.4 MB at d = 768), the cheap metrics of its blocks first,
    then its moved rows in full KS and KL kernel blocks.
    """
    bm, tm = base.matrix, tuned.matrix
    if bm.shape != tm.shape:
        raise ValueError(f"shape mismatch: {bm.shape} vs {tm.shape}")
    v, d = bm.shape
    if d < 2:
        raise ValueError("rows must have at least 2 entries")
    # rows that never reach the kernel keep D = 0.0 and KL = 0.0
    columns = {name: np.zeros(v) for name in METRICS}
    ks_column, kl_column = columns["ks_statistic"], columns["kl"]
    blocks = list(_blocks(v, d))
    failed = threading.Event()  # a failed share stops the others early

    def score(share):
        try:
            ws = _Workspace(v, d)
            moved_ids = []
            for block in share:
                if failed.is_set():
                    return
                cheap, moved = _score_rows(bm[block], tm[block], ws)
                for name, values in cheap.items():
                    columns[name][block] = values
                moved_ids.append(np.flatnonzero(moved) + block.start)
            if failed.is_set():
                return
            ids = np.concatenate(moved_ids)
            ks_column[ids], kl_column[ids] = _ks_kl_of(bm, tm, ids, ws)
        except BaseException:
            failed.set()
            raise

    w = min(_cpu_count(), _MAX_THREADS, len(blocks))
    _on_threads([partial(score, blocks[k::w]) for k in range(w)], "analyze_pair")
    # the scalar series once per distinct statistic: a vectorised exp can
    # differ from math.exp in the last ulp
    stats, where = np.unique(columns["ks_statistic"], return_inverse=True)
    columns["p_value"] = np.array([ks_pvalue_asymptotic(s, d, d) for s in stats.tolist()])[where]
    return ScoreTable(np.arange(v), **columns)


def select_by_alpha(scores: ScoreTable, alpha: float, d: int) -> WinningTicketSet:
    """Rows whose per-row KS test rejects at alpha: statistic D > ks_tau(alpha, d),
    the tau the ticket set records and certification uses; p_value plays no part."""
    tau = ks_tau(alpha, d)
    return WinningTicketSet(
        method="ks", alpha=alpha, tau=tau, vocab_size=len(scores),
        token_ids=tuple(np.sort(scores.token_id[scores.ks_statistic > tau]).tolist()),
    )


def _ranked(scores: ScoreTable, metric: str) -> np.ndarray:
    """token_ids most-changed-first for a metric, ties by ascending token_id."""
    if metric not in SELECTION_METHODS:
        raise ValueError(f"unknown selection method {metric!r}")
    if metric == "cos":
        key = scores.cos  # low cosine = large change
    else:
        column = getattr(scores, {"ks": "ks_statistic", "abs": "abs_l2"}.get(metric, metric))
        if column is None:
            raise ValueError("frequency ranking requires counts on every score")
        key = -column
    return scores.token_id[np.lexsort((scores.token_id, key))]


def select_top_k(scores: ScoreTable, metric: str, k: int) -> WinningTicketSet:
    """The k most-changed rows under a metric, returned in token_id order."""
    v = len(scores)
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if k > v:
        raise ValueError(f"k={k} exceeds vocab size {v}")
    chosen = _ranked(scores, metric)[:k]
    return WinningTicketSet(
        method=metric, vocab_size=v, token_ids=tuple(np.sort(chosen).tolist())
    )


def count_frequencies(corpus: Iterable[int], vocab_size: int) -> np.ndarray:
    """Exact occurrence counts per token id; absent ids count 0."""
    if vocab_size < 0:
        raise ValueError(f"vocab_size must be >= 0, got {vocab_size}")
    ids = np.asarray(corpus if isinstance(corpus, np.ndarray) else list(corpus), dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(
            f"token id {ids[pos]} out of range [0, {vocab_size}) at position {pos}"
        )
    return np.bincount(ids, minlength=vocab_size)


def compare_ticket_distributions(
    tuned_a: TensorRecord,
    tuned_b: TensorRecord,
    tickets: WinningTicketSet,
    alpha: float,
) -> float:
    """Fraction of ticket rows whose two tuned versions pass the KS test.

    1.0 means every ticket row keeps the same distribution across the two
    checkpoints; 0.0 means every ticket row rejects at alpha.
    """
    am, bm = tuned_a.matrix, tuned_b.matrix
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    tickets.check_vocab(tuned_a.shape[0], "matrix rows")
    tau = ks_tau(alpha, am.shape[1])
    if not tickets.token_ids:
        return 1.0
    ids = np.array(tickets.token_ids)
    ks, _ = _ks_kl_of(am, bm, ids, _Workspace(ids.size, am.shape[1]))
    return 1.0 - np.count_nonzero(ks > tau) / ids.size


def write_scores_csv(scores: ScoreTable, path) -> None:
    """One line per row in table order; frequency cells blank when absent."""
    write_csv(path, SCORES_HEADER, [getattr(scores, f.name) for f in fields(scores)])


def read_scores_csv(path) -> ScoreTable:
    """A blank frequency cell in any row leaves the whole column absent."""
    metrics = [Column(np.float64, valid=np.isfinite, invalid=f"{name} {{}} is not finite")
               for name in METRICS]
    parsers = (INT, *metrics, OPTIONAL_INT)
    *columns, freq = read_csv(path, SCORES_HEADER, parsers, "scores")
    with naming(path):
        if not len(columns[0]):
            raise ValueError("no rows")
        return ScoreTable(*columns, frequency=None if blank_cells(freq, len(columns[0])).any() else freq)


def write_ticket_file(tickets: WinningTicketSet, path) -> None:
    def opt(x):
        return "" if x is None else repr(float(x))

    write_text(
        path,
        f"method={tickets.method}\n"
        f"alpha={opt(tickets.alpha)}\n"
        f"tau={opt(tickets.tau)}\n"
        f"vocab_size={tickets.vocab_size}\n"
        f"token_ids={','.join(str(i) for i in tickets.token_ids)}\n",
    )


def read_ticket_file(path) -> WinningTicketSet:
    """Parse key=value lines; a line without '=' or a repeated key is an error."""
    with naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fields = {}
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"bad ticket row at line {lineno}: no '='")
            if key in fields:
                raise ValueError(f"bad ticket row at line {lineno}: duplicate key {key!r}")
            fields[key] = value
        if missing := [k for k in _TICKET_FIELDS if k not in fields]:
            raise ValueError(f"ticket file missing fields {missing}")
        ids_text = fields["token_ids"].strip()
        return WinningTicketSet(
            method=fields["method"].strip(),
            alpha=parse_optional(fields["alpha"], float),
            tau=parse_optional(fields["tau"], float),
            vocab_size=int(fields["vocab_size"]),
            token_ids=ids_text.split(",") if ids_text else (),
        )

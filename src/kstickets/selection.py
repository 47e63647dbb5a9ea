"""Per-row diff scores, winning-ticket selection, and consistency checks.

Works on any rank-2 tensor pair: each row is treated as a sample of `dim`
values, scored with the two-sample KS test plus five baseline change metrics
(cosine, absolute L2, relative value, relative ratio, histogram KL).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from ._text import (
    FLOAT,
    INT,
    OPTIONAL_INT,
    blank_cells,
    parse_optional,
    read_csv,
    write_csv,
    write_text,
)
from .checkpoint import EmbeddingView
from .ksstat import (
    Sample,
    ks_pvalue_asymptotic,
    ks_statistic,
    ks_statistic_rows,
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
_CHUNK_ELEMENTS = 1 << 15  # values per scoring block; see _blocks
# Blocks scored at once by analyze_pair. Each holds about 3.6 MB of float64
# temporaries, so more would lift its peak past one float64 copy of a
# 32,000 x 64 matrix (4 in flight: 17.4 MB traced against 16.4 MB).
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
        v = np.size(self.token_id)
        for f in fields(self):
            if (col := getattr(self, f.name)) is not None:
                col = np.asarray(col, dtype=np.float64 if f.name in METRICS else np.int64)
                if col.shape != (v,):
                    raise ValueError(f"column {f.name} has shape {col.shape}, expected ({v},)")
                setattr(self, f.name, col)
        if not np.array_equal(np.sort(self.token_id), np.arange(v)):
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


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # matmul of (1, d) by (d, 1) runs np.dot's own BLAS ddot on each row, so
    # every value equals np.dot (and np.linalg.norm) on that row bit for bit
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _histogram_kl_rows(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_histogram_kl of each row pair, bit for bit."""
    rows, d = t.shape
    lo = np.minimum(t.min(axis=1), b.min(axis=1))
    hi = np.maximum(t.max(axis=1), b.max(axis=1))
    # np.linspace's expression per row; lo < hi never gives a zero step for
    # float32 values. At lo == hi any step puts both halves in one bin, which
    # makes the KL 0.0 as _histogram_kl returns.
    step = np.where(lo == hi, 1.0, (hi - lo) / _KL_BINS)
    edges = np.arange(_KL_BINS + 1.0) * step[:, None] + lo[:, None]
    edges[:, -1] = hi
    # np.histogram with explicit edges counts e[k] <= x < e[k+1], the last bin
    # closed: x's bin is #{1 <= k < _KL_BINS : e[k] <= x}. Guess it from the
    # step, then move it against the edges themselves until it holds.
    x = np.concatenate([t, b], axis=1)
    at = np.clip(((x - lo[:, None]) / step[:, None]).astype(np.intp), 0, _KL_BINS - 1)
    row_edges = np.arange(rows)[:, None] * (_KL_BINS + 1)
    flat_edges = edges.ravel()
    while True:
        down = flat_edges[row_edges + at] > x
        up = (at < _KL_BINS - 1) & (flat_edges[row_edges + at + 1] <= x)
        if not (down.any() or up.any()):
            break
        at += up
        at -= down
    # one bincount over (row, half, bin): t's counts then b's for each row
    at += np.repeat(np.arange(2 * rows) * _KL_BINS, d).reshape(rows, 2 * d)
    counts = np.bincount(at.ravel(), minlength=2 * rows * _KL_BINS).reshape(rows, 2, _KL_BINS)
    pt = np.maximum(counts[:, 0] / d, _KL_MASS_FLOOR)
    pb = np.maximum(counts[:, 1] / d, _KL_MASS_FLOOR)
    pt /= pt.sum(axis=1, keepdims=True)
    pb /= pb.sum(axis=1, keepdims=True)
    return np.sum(pt * np.log(pt / pb), axis=1)


def _score_rows(b: np.ndarray, t: np.ndarray) -> dict[str, np.ndarray]:
    """score_row's metrics but the p-value, one value per row of two float64
    (rows, d) arrays, by metric name."""
    norm_b = np.sqrt(_row_dot(b, b))
    norm_t = np.sqrt(_row_dot(t, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(_row_dot(b, t) / (norm_b * norm_t), -1.0, 1.0)
    cos[(norm_b == 0.0) != (norm_t == 0.0)] = 0.0
    cos[(norm_b == 0.0) & (norm_t == 0.0)] = 1.0
    diff = t - b
    g = _guarded_divisor(b)
    return {
        "ks_statistic": ks_statistic_rows(b, t),
        "cos": cos,
        "abs_l2": np.sqrt(_row_dot(diff, diff)),
        "relative": np.mean(np.abs(t / g), axis=1),
        "ratio": np.mean(np.abs(diff / g), axis=1),
        "kl": _histogram_kl_rows(t, b),
    }


def analyze_pair(base: EmbeddingView, tuned: EmbeddingView) -> ScoreTable:
    """Score every row of a shape-matched pair, ordered by token_id.

    Rows are scored in blocks of about _CHUNK_ELEMENTS values, each cast to
    float64 once; every value is bit-identical to score_row on that row. With
    W = min(CPUs, _MAX_THREADS) the calling thread scores blocks 0, W, 2W, ...
    and W - 1 pool threads the other residues (numpy releases the GIL inside
    each call); one CPU starts no thread.
    """
    bm, tm = base.matrix, tuned.matrix
    if bm.shape != tm.shape:
        raise ValueError(f"shape mismatch: {bm.shape} vs {tm.shape}")
    v, d = bm.shape
    if d < 2:
        raise ValueError("rows must have at least 2 entries")
    columns = {name: np.empty(v) for name in METRICS}
    blocks = list(_blocks(v, d))
    failed = threading.Event()  # a failed share stops the others early

    def score(share):
        try:
            for block in share:
                if failed.is_set():
                    return
                b = bm[block].astype(np.float64)
                t = tm[block].astype(np.float64)
                if not (np.isfinite(b).all() and np.isfinite(t).all()):
                    raise ValueError("row values must be finite")
                for name, values in _score_rows(b, t).items():
                    columns[name][block] = values
        except BaseException:
            failed.set()
            raise

    # imported here, not at the top: it would lengthen every kstickets import
    from concurrent.futures import ThreadPoolExecutor

    w = min(_cpu_count(), _MAX_THREADS, len(blocks))
    # threads start on submit: w == 1 submits nothing and starts none
    with ThreadPoolExecutor(max(1, w - 1)) as pool:
        shares = [pool.submit(score, blocks[k::w]) for k in range(1, w)]
        score(blocks[::w])
        for share in shares:
            share.result()
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
    ids = np.asarray(corpus if isinstance(corpus, np.ndarray) else list(corpus), dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(
            f"token id {ids[pos]} out of range [0, {vocab_size}) at position {pos}"
        )
    return np.bincount(ids, minlength=vocab_size)


def compare_ticket_distributions(
    tuned_a: EmbeddingView,
    tuned_b: EmbeddingView,
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
    if tickets.vocab_size != tuned_a.vocab_size:
        raise ValueError(
            f"ticket vocab_size {tickets.vocab_size} does not match "
            f"matrix rows {tuned_a.vocab_size}"
        )
    tau = ks_tau(alpha, am.shape[1])
    if not tickets.token_ids:
        return 1.0
    ids = np.array(tickets.token_ids)
    rejected = sum(
        int(np.count_nonzero(ks_statistic_rows(am[ids[block]], bm[ids[block]]) > tau))
        for block in _blocks(ids.size, am.shape[1])
    )
    return 1.0 - rejected / ids.size


def write_scores_csv(scores: ScoreTable, path) -> None:
    """One line per row in table order; frequency cells blank when absent."""
    write_csv(path, SCORES_HEADER, [getattr(scores, f.name) for f in fields(scores)])


def read_scores_csv(path) -> ScoreTable:
    """A blank frequency cell in any row leaves the whole column absent."""
    parsers = (INT, *[FLOAT] * len(METRICS), OPTIONAL_INT)
    *columns, freq = read_csv(path, SCORES_HEADER, parsers, "scores")
    blank = blank_cells(freq, len(columns[0])).any()
    try:
        return ScoreTable(*columns, frequency=None if blank else freq)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}: bad ticket row at line {lineno}: no '='")
        if key in fields:
            raise ValueError(
                f"{path}: bad ticket row at line {lineno}: duplicate key {key!r}"
            )
        fields[key] = value
    missing = [k for k in _TICKET_FIELDS if k not in fields]
    if missing:
        raise ValueError(f"{path}: ticket file missing fields {missing}")
    ids_text = fields["token_ids"].strip()
    try:
        return WinningTicketSet(
            method=fields["method"].strip(),
            alpha=parse_optional(fields["alpha"], float),
            tau=parse_optional(fields["tau"], float),
            vocab_size=int(fields["vocab_size"]),
            token_ids=ids_text.split(",") if ids_text else (),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

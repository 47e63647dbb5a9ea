"""Test-only oracles: plain references the tests check the package against.
Nothing in the package or the CLI calls them."""

from __future__ import annotations

import numpy as np

from kstickets.checkpoint import Checkpoint
from kstickets.selection import _KL_BINS, _KL_MASS_FLOOR
from kstickets.toytrain import ToyModel, _distinct_probs


def diff_rows(a: Checkpoint, b: Checkpoint, tensor_name: str) -> set[int]:
    """Row indices whose payload bytes differ between the two checkpoints."""
    ta = a.tensor(tensor_name)
    tb = b.tensor(tensor_name)
    if ta.shape != tb.shape:
        raise ValueError(
            f"tensor {tensor_name!r} shape mismatch: {ta.shape} vs {tb.shape}"
        )
    rows = ta.shape[0]
    av = ta.data.view(np.uint32).reshape(rows, -1)
    bv = tb.data.view(np.uint32).reshape(rows, -1)
    return set(np.flatnonzero((av != bv).any(axis=1)).tolist())


def forward(model: ToyModel, source_token: int) -> np.ndarray:
    """Next-token probability vector for one source token."""
    if not 0 <= source_token < model.vocab_size:
        raise ValueError(f"token {source_token} out of range [0, {model.vocab_size})")
    return _distinct_probs(model.embedding, model.output_weights, [source_token])[2][0]


def ks_statistic_rows(a, b) -> np.ndarray:
    """ks_statistic of each row pair (a[i], b[i]), bit for bit, in whole-array
    float64 numpy calls: the reference for the KS half of selection._ks_kl_rows.

    Each row's sorted halves are merged by a stable argsort. At the last slot
    of each run of tied values the integer cumsums of the merged membership
    equal ks_statistic's searchsorted counts, and |c_a/n - c_b/m| there is the
    same float expression; other slots are left out of the max.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"expected two 2-D arrays with one row count, got {a.shape} and {b.shape}")
    n, m = a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("sample values must be finite")
    pooled = np.concatenate([np.sort(a, axis=1), np.sort(b, axis=1)], axis=1)
    order = np.argsort(pooled, axis=1, kind="stable")
    ca = np.cumsum(order < n, axis=1)
    diff = np.abs(ca / n - (np.arange(1, n + m + 1) - ca) / m)
    merged = np.take_along_axis(pooled, order, axis=1)
    diff[:, :-1][merged[:, :-1] == merged[:, 1:]] = 0.0
    return diff.max(axis=1)


def _histogram_kl_rows(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_histogram_kl of each row pair, bit for bit, in whole-array float64
    numpy calls: the reference for the KL half of selection._ks_kl_rows."""
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

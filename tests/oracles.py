"""Test-only oracles: plain references the tests check the package against.
Nothing in the package or the CLI calls them."""

from __future__ import annotations

import math

import numpy as np

from kstickets.checkpoint import Checkpoint
from kstickets.ksstat import Sample, ks_pvalue_asymptotic
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


def brute_force_ks(a: np.ndarray, b: np.ndarray) -> float:
    """ks_statistic by a plain sweep: at every merged value, count the values
    of each sample at or below it; D is the greatest |c_a*m - c_b*n| / (n*m)."""
    n, m = a.size, b.size
    best = 0
    for x in np.concatenate([a, b]):
        count_a = int(np.count_nonzero(a <= x))
        count_b = int(np.count_nonzero(b <= x))
        best = max(best, abs(count_a * m - count_b * n))
    return best / (n * m)


def ks_statistic_rows(a, b) -> np.ndarray:
    """ks_statistic of each row pair (a[i], b[i]), bit for bit, in whole-array
    numpy calls: the reference for the KS half of selection._ks_kl_rows.

    Each row's sorted halves are merged by a stable argsort. At the last slot
    of each run of tied values the integer cumsums of the merged membership
    equal ks_statistic's searchsorted counts c_a and c_b; the greatest
    |c_a*m - c_b*n| there is divided once by n*m. Other slots are left out
    of the max.
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
    numerator = np.abs(ca * m - (np.arange(1, n + m + 1) - ca) * n)
    merged = np.take_along_axis(pooled, order, axis=1)
    numerator[:, :-1][merged[:, :-1] == merged[:, 1:]] = 0
    return numerator.max(axis=1) / (n * m)


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


def ks_pvalue_permutation(a: Sample, b: Sample, trials: int, seed: int) -> float:
    """Permutation estimate of the two-sample p-value.

    Pools both samples and re-splits the sorted pool `trials` times into sizes
    (n, m) with a seeded generator, each split one sequential urn walk
    (selection sampling: slot s joins a with probability a-slots left / slots
    left, so every split is equally likely). Returns (1 + #{D_split >=
    D_observed}) / (trials + 1); the +1 keeps the estimate away from an exact
    zero. CDF differences are compared through the integer numerator
    |c_a*m - c_b*n| at the last slot of each run of tied values, so that ties
    against the observed statistic are decided exactly. All trials walk at
    once: memory is O(trials) and a call makes n+m passes over trials-long
    arrays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, m = a.n, b.n
    total = n + m
    pool = np.sort(np.concatenate([a.values, b.values]))
    # Evaluate only at the last slot of each run of tied values.
    run_end = np.append(pool[:-1] != pool[1:], True)
    ends = pool[run_end]
    ca = np.searchsorted(a.values, ends, side="right")
    cb = np.searchsorted(b.values, ends, side="right")
    observed = int(np.abs(ca * m - cb * n).max())

    rng = np.random.default_rng(seed)
    # Buffers are reused: fresh per-slot temporaries are mmapped, at twice the time.
    u = np.empty(trials)
    left = np.full(trials, n, dtype=np.int64)  # a-slots left in each trial
    gap = np.empty(trials, dtype=np.int64)
    num = np.zeros(trials, dtype=np.int64)
    for s in range(total):
        rng.random(out=u)
        u *= total - s
        left -= u < left
        if run_end[s]:
            # c_a = n - left and c_b = s + 1 - c_a, so c_a*m - c_b*n is this gap
            np.multiply(left, -total, out=gap)
            gap += n * (total - s - 1)
            np.maximum(num, np.abs(gap, out=gap), out=num)
    return (1 + int((num >= observed).sum())) / (trials + 1)


def tau_from_pvalue_inversion(alpha: float, n: int, m: int) -> float:
    """Smallest statistic whose asymptotic p-value is <= alpha, by bisection.

    Numerical counterpart of ks_critical_value; the two agree within a few
    percent once n = m >= 256. Tolerance on the statistic is 1e-9.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if ks_pvalue_asymptotic(1.0, n, m) > alpha:
        raise ValueError(
            f"no statistic in [0, 1] reaches p <= {alpha} for n={n}, m={m}"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:  # p is monotone in the statistic: ~30 halvings
        mid = 0.5 * (lo + hi)
        if ks_pvalue_asymptotic(mid, n, m) <= alpha:
            hi = mid
        else:
            lo = mid
    return hi


def exact_equal_size_pvalue(k: int, d: int) -> float:
    """P(D >= k/d) for n = m = d without ties, Gnedenko & Korolyuk (1951):
    2 * sum_{j>=1} (-1)^(j-1) C(2d, d-jk) / C(2d, d), in integers."""
    num = sum((-1) ** (j - 1) * math.comb(2 * d, d - j * k) for j in range(1, d // k + 1))
    return 2 * num / math.comb(2 * d, d)

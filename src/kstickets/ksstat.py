"""Two-sample Kolmogorov-Smirnov machinery: statistic, critical values, p-values.

Everything here is a pure function of its inputs; there is no shared mutable
state, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sample",
    "KsResult",
    "ks_statistic",
    "ks_critical_value",
    "ks_tau",
    "ks_pvalue_asymptotic",
    "ks_two_sample_test",
]

# Below this lambda the survival function is 1.0 at the series' own 1e-12
# resolution (true deficit <= 5.2e-13), while the raw alternating series is
# either divergent within the term budget (lambda < 0.04) or dominated by
# truncation jitter. At the floor the series needs only ~19 terms.
_LAMBDA_FLOOR = 0.2
_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 100


def _as_sorted_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(arr).all():
        raise ValueError("sample values must be finite")
    return np.sort(arr)


@dataclass(frozen=True)
class Sample:
    """A finite multiset of real values, stored sorted ascending."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_sorted_values(self.values))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int
    m: int
    tau: float
    alpha: float
    reject: bool


def ks_statistic(a: Sample, b: Sample) -> float:
    """D = sup_x |F_a(x) - F_b(x)| between two empirical CDFs, as the exact
    lattice value k/(n*m) with one correctly rounded division.

    Both CDFs are right-continuous step functions, so the supremum over the
    real line is attained at one of the merged sample values. There, with
    i values of a and j of b at or below it, |F_a - F_b| = |i*m - j*n|/(n*m);
    the integer numerators are compared exactly, then the greatest is divided.
    """
    pts = np.concatenate([a.values, b.values])
    i = np.searchsorted(a.values, pts, side="right")
    j = np.searchsorted(b.values, pts, side="right")
    return int(np.abs(i * b.n - j * a.n).max()) / (a.n * b.n)


def ks_critical_value(alpha: float, n: int, m: int) -> float:
    """Rejection threshold c(alpha) * sqrt((n+m)/(n*m)) for the two-sample test.

    c(alpha) = sqrt(ln(2/alpha)/2) is the closed form behind the usual lookup
    table (1.3581 at alpha=0.05, 1.6276 at 0.01, ...). With n == m == d the
    threshold reduces to c(alpha) * sqrt(2/d).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    c = math.sqrt(math.log(2.0 / alpha) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def _tau(alpha: float, n: int, m: int) -> float:
    """ks_critical_value for alpha in (0, 1], with the convention tau(1) = 0."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 0.0 if alpha == 1.0 else ks_critical_value(alpha, n, m)


def ks_tau(alpha: float, d: int) -> float:
    """Per-row threshold tau(alpha) with n = m = d, and the convention tau(1) = 0.

    The package's one rejection rule is D > tau, for selection and certification
    alike; at alpha = 1 every distributional change (D > 0) rejects.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    return _tau(alpha, d, d)


def ks_pvalue_asymptotic(statistic: float, n: int, m: int) -> float:
    """Asymptotic p-value Q(lam) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2).

    lam = statistic * sqrt(n*m/(n+m)). The series stops once a term falls
    below 1e-12 or after 100 terms, and the result is clamped to [0, 1]. For
    lam under 0.2 the true value is 1.0 at that resolution and is returned
    directly (this also covers statistic == 0). Absolute accuracy is about
    2e-12, so the result is monotone non-increasing in the statistic at that
    tolerance.
    """
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"statistic must be in [0, 1], got {statistic}")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    lam = statistic * math.sqrt(n * m / (n + m))
    if lam < _LAMBDA_FLOOR:
        return 1.0
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += -term if k % 2 == 0 else term
        if term < _SERIES_TOL:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample_test(a: Sample, b: Sample, alpha: float) -> KsResult:
    """Statistic, threshold (alpha in (0, 1], tau(1) = 0), asymptotic p-value, D > tau."""
    d = ks_statistic(a, b)
    tau = _tau(alpha, a.n, b.n)
    p = ks_pvalue_asymptotic(d, a.n, b.n)
    return KsResult(
        statistic=d, p_value=p, n=a.n, m=b.n, tau=tau, alpha=alpha, reject=d > tau
    )

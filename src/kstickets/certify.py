"""Certification of next-token predictions under bounded parameter drift.

A prediction is certified when the tuned model is correct and the half-gap
between its top-2 probabilities exceeds the KS rejection threshold tau(alpha).
Certified accuracy is the paper's metric. It bounds the argmax only for a
predictor whose probabilities are 1-Lipschitz in per-row KS distance, which
the toy model is not: see "Scope of the certificate on toy logs" in README.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ._text import (
    FLOAT,
    INT,
    OPTIONAL_FLOAT,
    OPTIONAL_INT,
    blank_cells,
    cast_columns,
    fmt_float,
    naming,
    read_csv,
    write_csv,
    write_text,
)
from .ksstat import ks_tau

__all__ = [
    "PredictionLog",
    "CertificationReport",
    "certified",
    "filter_first_k",
    "certification_report",
    "alpha_sweep",
    "write_prediction_log",
    "read_prediction_log",
    "render_report",
    "write_reports",
]

PROB_SOURCES = ("tuned", "base")

LOG_HEADER = (
    "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
    "partial_pred_id,base_p1,base_p2"
)

_FLOAT_COLUMNS = ("p1", "p2", "base_p1", "base_p2")


class _BadRecord(ValueError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index, self.reason = index, reason


@dataclass(frozen=True, eq=False)
class PredictionLog:
    """Next-token events with the tuned model's top-2 probabilities, one numpy
    column per field; partial_prediction, and base_p1 with base_p2, may be None."""

    example_id: np.ndarray
    position: np.ndarray
    reference_token: np.ndarray
    tuned_prediction: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    partial_prediction: np.ndarray | None = None
    base_p1: np.ndarray | None = None
    base_p2: np.ndarray | None = None

    def __post_init__(self) -> None:
        cast_columns(self, _FLOAT_COLUMNS)
        if (self.base_p1 is None) != (self.base_p2 is None):
            raise ValueError("base_p1 and base_p2 must be given together")
        pairs = [("p1", "p2"), ("base_p1", "base_p2")][: 1 + (self.base_p1 is not None)]
        ok = self.position >= 0
        for a, b in pairs:
            hi, lo = getattr(self, a), getattr(self, b)
            ok = ok & (0.0 <= lo) & (lo <= hi) & (hi <= 1.0)
        if not ok.all():  # name the first failing record and its first failing check
            i = int(np.argmin(ok))
            if self.position[i] < 0:
                raise _BadRecord(i, "position must be >= 0")
            for a, b in pairs:
                hi, lo = getattr(self, a)[i], getattr(self, b)[i]
                if not 0.0 <= lo <= hi <= 1.0:
                    raise _BadRecord(i, f"require 1 >= {a} >= {b} >= 0, got {hi}, {lo}")

    def __len__(self) -> int:
        return self.example_id.size


@dataclass(frozen=True)
class CertificationReport:
    alpha: float
    tau: float
    d: int
    n_records: int
    certified_accuracy: float
    tuned_accuracy: float
    verified_percentage: float
    prediction_accuracy: float | None = None


def _verified(log: PredictionLog, tau: float, prob_source: str) -> np.ndarray:
    """Per record: prob_source's half-gap (p1 - p2)/2 exceeds tau."""
    if prob_source not in PROB_SOURCES:
        raise ValueError(f"unknown prob_source {prob_source!r}")
    p1, p2 = (log.p1, log.p2) if prob_source == "tuned" else (log.base_p1, log.base_p2)
    if p1 is None:
        raise ValueError("record has no base-model probabilities")
    return (p1 - p2) / 2.0 > tau


def certified(log: PredictionLog, tau: float, prob_source: str = "tuned") -> np.ndarray:
    """Per record: the tuned prediction is correct and (p1 - p2)/2 > tau.

    The inequality is strict: with tau = 0 an exact p1 == p2 tie fails.
    """
    return (log.tuned_prediction == log.reference_token) & _verified(log, tau, prob_source)


def filter_first_k(log: PredictionLog, k: int = 20) -> PredictionLog:
    """Keep only the first k positions of every example."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = log.position < k
    columns = (getattr(log, f.name) for f in fields(log))
    return PredictionLog(*(None if col is None else col[keep] for col in columns))


def certification_report(
    log: PredictionLog, alpha: float, d: int, prob_source: str = "tuned"
) -> CertificationReport:
    """Certified/tuned/partial accuracy and verified percentage at one alpha.

    tau = tau(alpha) with n = m = d; alpha = 1 uses the tau(1) = 0 convention.
    prediction_accuracy is reported only when the log carries partial-model
    predictions.
    """
    tau = ks_tau(alpha, d)
    n = len(log)
    if not n:
        raise ValueError("empty record set")
    partial = log.partial_prediction
    return CertificationReport(
        alpha=alpha, tau=tau, d=d, n_records=n,
        certified_accuracy=np.count_nonzero(certified(log, tau, prob_source)) / n,
        tuned_accuracy=np.count_nonzero(log.tuned_prediction == log.reference_token) / n,
        verified_percentage=np.count_nonzero(_verified(log, tau, prob_source)) / n,
        prediction_accuracy=None if partial is None
        else np.count_nonzero(partial == log.reference_token) / n,
    )


def alpha_sweep(
    log: PredictionLog, alphas: Sequence[float], d: int, prob_source: str = "tuned"
) -> list[CertificationReport]:
    """One report per alpha, in the given order."""
    return [certification_report(log, a, d, prob_source) for a in alphas]


def write_prediction_log(log: PredictionLog, path) -> None:
    """One line per record; the cells of an absent column are blank."""
    write_csv(path, LOG_HEADER, [getattr(log, f.name) for f in fields(log)])


def read_prediction_log(path) -> PredictionLog:
    """A blank cell in any row leaves that optional column absent."""
    parsers = (INT, INT, INT, INT, FLOAT, FLOAT, OPTIONAL_INT, OPTIONAL_FLOAT, OPTIONAL_FLOAT)
    columns = read_csv(path, LOG_HEADER, parsers, "log")
    blank = [blank_cells(c, len(columns[0])) for c in columns[6:]]
    half = np.flatnonzero(blank[1] != blank[2])
    with naming(path):
        try:
            if half.size:
                raise _BadRecord(int(half[0]), "base_p1 and base_p2 must be given together")
            return PredictionLog(*columns[:6], *(None if b.any() else c for b, c in zip(blank, columns[6:])))
        except _BadRecord as exc:
            raise ValueError(f"bad log row at line {exc.index + 2}: {exc.reason}") from exc


def render_report(report: CertificationReport) -> str:
    lines = [
        f"alpha={fmt_float(report.alpha)}",
        f"tau={fmt_float(report.tau)}",
        f"d={report.d}",
        f"n_records={report.n_records}",
        f"certified_accuracy={fmt_float(report.certified_accuracy)}",
        "prediction_accuracy="
        + ("" if report.prediction_accuracy is None else fmt_float(report.prediction_accuracy)),
        f"tuned_accuracy={fmt_float(report.tuned_accuracy)}",
        f"verified_percentage={fmt_float(report.verified_percentage)}",
    ]
    return "\n".join(lines) + "\n"


def write_reports(reports: Sequence[CertificationReport], path) -> None:
    write_text(path, "\n".join(render_report(r) for r in reports))

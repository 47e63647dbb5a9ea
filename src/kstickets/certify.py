"""Certification of next-token predictions under bounded parameter drift.

A prediction is certified when the tuned model is correct and the half-gap
between its top-2 probabilities exceeds the KS rejection threshold tau(alpha):
any perturbation of the frozen rows that stays within per-row KS distance tau
then cannot flip the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._text import fmt_float, parse_optional, read_csv, write_csv, write_text
from .ksstat import ks_tau

__all__ = [
    "PredictionRecord",
    "CertificationReport",
    "certify_record",
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


@dataclass(frozen=True)
class PredictionRecord:
    """One next-token event with the tuned model's top-2 probabilities."""

    example_id: int
    position: int
    reference_token: int
    tuned_prediction: int
    p1: float
    p2: float
    partial_prediction: int | None = None
    base_p1: float | None = None
    base_p2: float | None = None

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("position must be >= 0")
        if not 0.0 <= self.p2 <= self.p1 <= 1.0:
            raise ValueError(f"require 1 >= p1 >= p2 >= 0, got {self.p1}, {self.p2}")
        if (self.base_p1 is None) != (self.base_p2 is None):
            raise ValueError("base_p1 and base_p2 must be given together")
        if self.base_p1 is not None and not 0.0 <= self.base_p2 <= self.base_p1 <= 1.0:
            raise ValueError(
                f"require 1 >= base_p1 >= base_p2 >= 0, got "
                f"{self.base_p1}, {self.base_p2}"
            )


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


def _gap_probs(record: PredictionRecord, prob_source: str) -> tuple[float, float]:
    if prob_source == "tuned":
        return record.p1, record.p2
    if prob_source == "base":
        if record.base_p1 is None or record.base_p2 is None:
            raise ValueError("record has no base-model probabilities")
        return record.base_p1, record.base_p2
    raise ValueError(f"unknown prob_source {prob_source!r}")


def certify_record(
    record: PredictionRecord, tau: float, prob_source: str = "tuned"
) -> bool:
    """True iff the tuned prediction is correct and (p1 - p2)/2 > tau.

    The inequality is strict: with tau = 0 an exact p1 == p2 tie fails.
    """
    p1, p2 = _gap_probs(record, prob_source)
    return (
        record.tuned_prediction == record.reference_token
        and (p1 - p2) / 2.0 > tau
    )


def filter_first_k(
    records: Sequence[PredictionRecord], k: int = 20
) -> list[PredictionRecord]:
    """Keep only the first k positions of every example."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [r for r in records if r.position < k]


def certification_report(
    records: Sequence[PredictionRecord],
    alpha: float,
    d: int,
    prob_source: str = "tuned",
    first_k: int | None = None,
) -> CertificationReport:
    """Certified/tuned/partial accuracy and verified percentage at one alpha.

    tau = tau(alpha) with n = m = d; alpha = 1 uses the tau(1) = 0 convention.
    prediction_accuracy is reported only when every record carries a
    partial-model prediction.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    recs = list(records) if first_k is None else filter_first_k(records, first_k)
    if not recs:
        raise ValueError("empty record set")
    tau = ks_tau(alpha, d)
    n = len(recs)
    certified = sum(certify_record(r, tau, prob_source) for r in recs) / n
    tuned_acc = sum(r.tuned_prediction == r.reference_token for r in recs) / n
    verified = 0
    for r in recs:
        p1, p2 = _gap_probs(r, prob_source)
        verified += (p1 - p2) / 2.0 > tau
    prediction_acc = None
    if all(r.partial_prediction is not None for r in recs):
        prediction_acc = (
            sum(r.partial_prediction == r.reference_token for r in recs) / n
        )
    return CertificationReport(
        alpha=alpha,
        tau=tau,
        d=d,
        n_records=n,
        certified_accuracy=certified,
        tuned_accuracy=tuned_acc,
        verified_percentage=verified / n,
        prediction_accuracy=prediction_acc,
    )


def alpha_sweep(
    records: Sequence[PredictionRecord],
    alphas: Sequence[float],
    d: int,
    prob_source: str = "tuned",
) -> list[CertificationReport]:
    """One report per alpha, in the given order."""
    return [certification_report(records, a, d, prob_source) for a in alphas]


def write_prediction_log(records: Sequence[PredictionRecord], path) -> None:
    write_csv(
        path,
        LOG_HEADER,
        (
            f"{r.example_id},{r.position},{r.reference_token},{r.tuned_prediction},"
            f"{fmt_float(r.p1)},{fmt_float(r.p2)},"
            f"{'' if r.partial_prediction is None else r.partial_prediction},"
            f"{'' if r.base_p1 is None else fmt_float(r.base_p1)},"
            f"{'' if r.base_p2 is None else fmt_float(r.base_p2)}"
            for r in records
        ),
    )


def _log_row(c: list[str]) -> PredictionRecord:
    return PredictionRecord(
        int(c[0]), int(c[1]), int(c[2]), int(c[3]), float(c[4]), float(c[5]),
        parse_optional(c[6]), parse_optional(c[7], float), parse_optional(c[8], float),
    )


def read_prediction_log(path) -> list[PredictionRecord]:
    return read_csv(path, LOG_HEADER, _log_row, "log")


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

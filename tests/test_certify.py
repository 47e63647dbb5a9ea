from dataclasses import fields

import numpy as np
import pytest

from kstickets.certify import (
    PredictionLog,
    alpha_sweep,
    certification_report,
    certified,
    filter_first_k,
    read_prediction_log,
    render_report,
    write_prediction_log,
    write_reports,
)
from kstickets.ksstat import ks_critical_value, ks_tau

FIELDS = [f.name for f in fields(PredictionLog)]


def log_of(records):
    """A PredictionLog from per-record dicts; a column with any None is absent."""
    columns = {name: [r[name] for r in records] for name in FIELDS}
    return PredictionLog(**{k: None if None in v else v for k, v in columns.items()})


def rec(
    reference=5,
    tuned=5,
    p1=0.9,
    p2=0.05,
    position=0,
    example_id=0,
    partial=None,
    base=None,
):
    base_p1, base_p2 = base if base is not None else (None, None)
    return dict(
        example_id=example_id,
        position=position,
        reference_token=reference,
        tuned_prediction=tuned,
        p1=p1,
        p2=p2,
        partial_prediction=partial,
        base_p1=base_p1,
        base_p2=base_p2,
    )


def synthetic_log(n=200, seed=0, correct_rate=0.8):
    """Records with varied gaps; strict p1 > p2 everywhere (no ties)."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        correct = rng.random() < correct_rate
        p1 = float(rng.uniform(0.2, 0.95))
        p2 = float(rng.uniform(0.0, p1 * 0.99))
        records.append(
            rec(
                reference=3,
                tuned=3 if correct else 4,
                p1=p1,
                p2=p2,
                position=i % 25,
                example_id=i // 25,
                partial=3 if rng.random() < 0.7 else 1,
                base=(p1, p2),
            )
        )
    return records


class TestPredictionRecord:
    """The value checks of PredictionLog, one record per row."""

    def test_probability_ordering_enforced(self):
        with pytest.raises(ValueError, match="p1 >= p2"):
            log_of([rec(p1=0.3, p2=0.4)])

    def test_base_pair_required_together(self):
        with pytest.raises(ValueError, match="together"):
            PredictionLog([0], [0], [1], [1], [0.9], [0.1], base_p1=[0.5])

    def test_negative_position(self):
        with pytest.raises(ValueError, match="position"):
            log_of([rec(position=-1)])

    def test_first_failing_record_is_named(self):
        records = [rec(), rec(), rec(p1=0.3, p2=0.4), rec(position=-1)]
        with pytest.raises(ValueError, match=r"record 2: require 1 >= p1 >= p2 >= 0, got 0.3, 0.4"):
            log_of(records)
        with pytest.raises(ValueError, match=r"record 1: require 1 >= base_p1"):
            log_of([rec(base=(0.5, 0.1)), rec(base=(0.1, 0.5))])

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError, match="shape"):
            PredictionLog([0, 1], [0, 1], [1, 1], [1, 1], [0.9, 0.9], [0.1])


def certified_one(record, tau, prob_source="tuned"):
    (flag,) = certified(log_of([record]), tau, prob_source).tolist()
    return flag


class TestCertifyRecord:
    def test_correct_and_wide_gap(self):
        assert certified_one(rec(p1=0.9, p2=0.05), tau=0.03) is True

    def test_wrong_prediction_never_certifies(self):
        assert certified_one(rec(reference=1, tuned=2, p1=1.0, p2=0.0), tau=0.0) is False

    def test_exact_tie_fails_at_tau_zero(self):
        assert certified_one(rec(p1=0.5, p2=0.5), tau=0.0) is False

    def test_gap_exactly_tau_fails(self):
        # strict inequality: gap/2 == tau is not certified
        assert certified_one(rec(p1=0.6, p2=0.4), tau=0.1) is False

    def test_base_source(self):
        r = rec(p1=0.5, p2=0.49, base=(0.99, 0.01))
        assert certified_one(r, tau=0.04, prob_source="tuned") is False
        assert certified_one(r, tau=0.04, prob_source="base") is True

    def test_base_source_missing(self):
        with pytest.raises(ValueError, match="base-model"):
            certified_one(rec(), tau=0.0, prob_source="base")

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="prob_source"):
            certified_one(rec(), tau=0.0, prob_source="other")


class TestFilterFirstK:
    def test_limits_positions(self):
        records = [rec(position=p, example_id=0) for p in range(30)]
        kept = filter_first_k(log_of(records), 20)
        assert len(kept) == 20
        assert (kept.position < 20).all()

    def test_short_example_kept_entirely(self):
        records = [rec(position=p) for p in range(5)]
        assert len(filter_first_k(log_of(records), 20)) == 5

    def test_k_one(self):
        records = [
            rec(position=p, example_id=e) for e in range(3) for p in range(4)
        ]
        kept = filter_first_k(log_of(records), 1)
        assert len(kept) == 3
        assert (kept.position == 0).all()

    def test_k_domain(self):
        with pytest.raises(ValueError):
            filter_first_k(log_of([]), 0)

    def test_keeps_every_column(self):
        records = synthetic_log(n=60)
        kept = filter_first_k(log_of(records), 7)
        expected = log_of([r for r in records if r["position"] < 7])
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(kept, name), getattr(expected, name))


class TestCertificationReport:
    def test_single_certified_record(self):
        report = certification_report(log_of([rec(p1=0.9, p2=0.1)]), alpha=0.05, d=4096)
        assert report.tau == pytest.approx(0.030010, abs=1e-6)
        assert report.certified_accuracy == 1.0
        assert report.tuned_accuracy == 1.0
        assert report.verified_percentage == 1.0
        assert report.prediction_accuracy is None

    def test_all_wrong_gives_zero_certified(self):
        records = [rec(reference=1, tuned=2, p1=0.99, p2=0.0) for _ in range(5)]
        report = certification_report(log_of(records), alpha=0.5, d=64)
        assert report.certified_accuracy == 0.0
        assert report.verified_percentage == 1.0

    def test_alpha_one_equality_without_ties(self):
        records = log_of(synthetic_log())
        report = certification_report(records, alpha=1.0, d=64)
        assert report.tau == 0.0
        assert report.certified_accuracy == report.tuned_accuracy

    def test_invariants_on_random_log(self):
        records = log_of(synthetic_log(seed=3))
        for alpha in (0.01, 0.1, 0.5, 1.0):
            r = certification_report(records, alpha, d=64)
            assert r.certified_accuracy <= r.tuned_accuracy
            assert r.certified_accuracy <= r.verified_percentage

    def test_prediction_accuracy_present_when_partials_present(self):
        records = synthetic_log()
        report = certification_report(log_of(records), alpha=0.05, d=64)
        assert report.prediction_accuracy is not None
        expected = sum(
            r["partial_prediction"] == r["reference_token"] for r in records
        ) / len(records)
        assert report.prediction_accuracy == pytest.approx(expected)

    def test_first_k_applied(self):
        records = [rec(position=p) for p in range(30)]
        report = certification_report(filter_first_k(log_of(records), 20), alpha=0.05, d=64)
        assert report.n_records == 20

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            certification_report(log_of([]), alpha=0.05, d=64)

    def test_d_domain(self):
        with pytest.raises(ValueError):
            certification_report(log_of([rec()]), alpha=0.05, d=1)


class TestAlphaSweep:
    def test_certified_monotone_in_alpha(self):
        records = log_of(synthetic_log(seed=11))
        alphas = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
        reports = alpha_sweep(records, alphas, d=64)
        certified = [r.certified_accuracy for r in reports]
        assert certified == sorted(certified)

    def test_duplicate_alphas_identical(self):
        records = log_of(synthetic_log())
        r1, r2 = alpha_sweep(records, [0.2, 0.2], d=64)
        assert r1 == r2

    def test_empty_alpha_list(self):
        assert alpha_sweep(log_of(synthetic_log()), [], d=64) == []


class TestLogFile:
    def test_round_trip(self, tmp_path):
        records = log_of(synthetic_log(n=40))
        path = tmp_path / "log.csv"
        write_prediction_log(records, path)
        back = read_prediction_log(path)
        assert len(back) == 40
        np.testing.assert_array_equal(back.reference_token, records.reference_token)
        np.testing.assert_array_equal(back.tuned_prediction, records.tuned_prediction)
        np.testing.assert_allclose(back.p1, records.p1, rtol=1e-8)
        np.testing.assert_array_equal(back.partial_prediction, records.partial_prediction)

    def test_blank_optionals(self, tmp_path):
        path = tmp_path / "log.csv"
        write_prediction_log(log_of([rec()]), path)
        text = path.read_text()
        assert text.splitlines()[1].endswith(",,,")
        back = read_prediction_log(path)
        assert back.partial_prediction is None
        assert back.base_p1 is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("wrong\n")
        with pytest.raises(ValueError, match="bad header"):
            read_prediction_log(path)

    def test_report_rendering(self, tmp_path):
        records = log_of(synthetic_log(n=30))
        reports = alpha_sweep(records, [0.05, 1.0], d=64)
        path = tmp_path / "report.txt"
        write_reports(reports, path)
        text = path.read_text()
        assert text.count("alpha=") == 2
        assert "certified_accuracy=" in text
        assert f"tau={ks_critical_value(0.05, 64, 64):.9g}" in text

    def test_render_has_all_fields(self):
        report = certification_report(log_of(synthetic_log(n=10)), alpha=0.5, d=64)
        text = render_report(report)
        for field in (
            "alpha=",
            "tau=",
            "d=",
            "n_records=",
            "certified_accuracy=",
            "prediction_accuracy=",
            "tuned_accuracy=",
            "verified_percentage=",
        ):
            assert field in text


def certify_record_oracle(record, tau, prob_source="tuned"):
    """The per-record rule as scalar code: the oracle for certified()."""
    if prob_source == "tuned":
        p1, p2 = record["p1"], record["p2"]
    else:
        p1, p2 = record["base_p1"], record["base_p2"]
    return record["tuned_prediction"] == record["reference_token"] and (p1 - p2) / 2.0 > tau


def report_oracle(records, alpha, d, prob_source):
    """certification_report as a per-record loop, field by field."""
    tau = ks_tau(alpha, d)
    n = len(records)
    certified_acc = sum(certify_record_oracle(r, tau, prob_source) for r in records) / n
    tuned_acc = sum(r["tuned_prediction"] == r["reference_token"] for r in records) / n
    verified = 0
    for r in records:
        p1, p2 = (r["p1"], r["p2"]) if prob_source == "tuned" else (r["base_p1"], r["base_p2"])
        verified += (p1 - p2) / 2.0 > tau
    prediction_acc = None
    if all(r["partial_prediction"] is not None for r in records):
        prediction_acc = sum(r["partial_prediction"] == r["reference_token"] for r in records) / n
    return (alpha, tau, d, n, certified_acc, tuned_acc, verified / n, prediction_acc)


def tied_log(seed):
    """Records on a 1/16 probability lattice: exact ties, gaps equal to tau, zeros."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    p = np.sort(rng.integers(0, 17, size=(n, 2)) / 16, axis=1)
    b = np.sort(rng.integers(0, 17, size=(n, 2)) / 16, axis=1)
    ref = rng.integers(0, 4, n)
    tuned = np.where(rng.random(n) < 0.7, ref, rng.integers(0, 4, n))
    partial = rng.integers(0, 4, n).tolist()
    if seed % 3 == 0:
        partial[int(rng.integers(n))] = None  # one blank cell: the column is absent
    return [
        rec(reference=int(ref[i]), tuned=int(tuned[i]), p1=float(p[i, 1]), p2=float(p[i, 0]),
            position=i % 25, example_id=i // 25, partial=partial[i],
            base=(float(b[i, 1]), float(b[i, 0])))
        for i in range(n)
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("prob_source", ["tuned", "base"])
def test_matches_per_record_oracle(seed, prob_source):
    records = tied_log(seed)
    log = log_of(records)
    for tau in (0.0, 1 / 32, 1 / 16, 3 / 32, 0.25, 0.5):
        got = certified(log, tau, prob_source).tolist()
        assert got == [certify_record_oracle(r, tau, prob_source) for r in records]
    for d in (2, 16, 64):
        for alpha in (0.01, 0.05, 0.25, 0.5, 1.0):
            r = certification_report(log, alpha, d, prob_source)
            got = (r.alpha, r.tau, r.d, r.n_records, r.certified_accuracy,
                   r.tuned_accuracy, r.verified_percentage, r.prediction_accuracy)
            assert got == report_oracle(records, alpha, d, prob_source)


def test_toy_certificate_is_the_papers_metric_not_a_guarantee():
    """On toy logs the certificate does not bound what a KS-close row can do.

    A toy prediction for source s reads only embedding row s. Reversing that
    row keeps its KS distance at 0 < tau, yet it flips the argmax of both
    certified sources of this seeded run.
    """
    from kstickets.ksstat import Sample, ks_statistic
    from kstickets.toytrain import (
        TrainConfig, emit_prediction_log, generate_task, init_model, train,
    )
    from oracles import forward

    task = generate_task(1, 256, 2000, 1.8)
    config = TrainConfig(mode="embed", learning_rate=0.1, epochs=50, seed=1, batch_size=32)
    model, _ = train(init_model(1, 256, 64), task, config)
    tau = ks_tau(0.05, 64)
    assert tau == pytest.approx(0.2401, abs=1e-4)
    is_certified = certified(emit_prediction_log(model, None, None, task), tau)
    assert sorted(set(task.sources[is_certified].tolist())) == [76, 230]
    for source, before, after in ((76, 94, 13), (230, 83, 156)):
        other = model.copy()
        other.embedding[source] = other.embedding[source, ::-1]
        assert ks_statistic(Sample(model.embedding[source]), Sample(other.embedding[source])) == 0.0
        assert forward(model, source).argmax() == before
        assert forward(other, source).argmax() == after
        other = model.copy()
        other.embedding[np.arange(256) != source] = 0.0  # every other row: no effect
        np.testing.assert_array_equal(forward(other, source), forward(model, source))
